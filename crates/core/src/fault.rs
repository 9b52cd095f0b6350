//! Deterministic fault injection for the serving runtime.
//!
//! A [`FaultPlan`] describes controlled ways reality can diverge from the
//! predictor's view of it, so the [`crate::guard::QosGuard`] can be
//! exercised and benchmarked:
//!
//! * **mispredict** — a persistent duration multiplier on a seeded sample
//!   of LC kernel positions: the kernel really takes `multiplier×` its
//!   profiled duration, every launch, while the profiler's history keeps
//!   predicting the unperturbed value;
//! * **straggler** — a transient multiplier hitting a seeded fraction of
//!   individual launches (any kernel), modelling sporadic slow launches;
//! * **BE flood** — bursts of uninvited best-effort kernels executed at a
//!   given instant, outside the scheduler's budget ledger (a misbehaving
//!   co-tenant);
//! * **predictor outage** — windows during which the profiler's exact
//!   launch history is bypassed and predictions fall back to the LR
//!   models.
//!
//! All sampling is derived from the plan's seed via
//! [`tacker_par::derive_seed`], so a plan is a pure function of its
//! coordinates: the same plan perturbs the same kernels regardless of
//! execution order or policy.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tacker_kernel::SimTime;

use crate::error::TackerError;

/// Persistent duration misprediction on a sample of LC kernel positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MispredictFault {
    /// Duration multiplier applied to sampled kernels (e.g. 1.5).
    pub multiplier: f64,
    /// Fraction of (service, kernel position) slots sampled (e.g. 0.2).
    pub fraction: f64,
}

/// Transient per-launch duration multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerFault {
    /// Duration multiplier applied to sampled launches.
    pub multiplier: f64,
    /// Fraction of launches sampled.
    pub fraction: f64,
}

/// A burst of uninvited BE kernels at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodBurst {
    /// When the burst arrives.
    pub at: SimTime,
    /// How many BE kernels flood in (round-robin over the BE apps).
    pub kernels: u32,
}

/// A window during which exact launch history is unavailable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Window start.
    pub start: SimTime,
    /// Window length.
    pub duration: SimTime,
}

impl OutageWindow {
    fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.start + self.duration
    }
}

/// A deterministic fault-injection plan (see the module docs). The
/// default plan injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Base seed all sampling derives from.
    pub seed: u64,
    /// Persistent LC misprediction, if any.
    pub mispredict: Option<MispredictFault>,
    /// Transient stragglers, if any.
    pub straggler: Option<StragglerFault>,
    /// Uninvited BE bursts.
    pub be_floods: Vec<FloodBurst>,
    /// Predictor-unavailable windows.
    pub predictor_outages: Vec<OutageWindow>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan injects nothing at all.
    pub fn is_zero(&self) -> bool {
        self.mispredict.is_none()
            && self.straggler.is_none()
            && self.be_floods.is_empty()
            && self.predictor_outages.is_empty()
    }

    /// A plan with only a misprediction fault (the acceptance scenario).
    pub fn mispredicting(multiplier: f64, fraction: f64) -> FaultPlan {
        FaultPlan {
            mispredict: Some(MispredictFault {
                multiplier,
                fraction,
            }),
            ..FaultPlan::default()
        }
    }

    /// Replaces the base seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Adds a straggler fault.
    #[must_use]
    pub fn with_straggler(mut self, multiplier: f64, fraction: f64) -> FaultPlan {
        self.straggler = Some(StragglerFault {
            multiplier,
            fraction,
        });
        self
    }

    /// Adds a BE flood burst.
    #[must_use]
    pub fn with_flood(mut self, at: SimTime, kernels: u32) -> FaultPlan {
        self.be_floods.push(FloodBurst { at, kernels });
        self.be_floods.sort_by_key(|b| b.at);
        self
    }

    /// Adds a predictor-outage window.
    #[must_use]
    pub fn with_outage(mut self, start: SimTime, duration: SimTime) -> FaultPlan {
        self.predictor_outages
            .push(OutageWindow { start, duration });
        self
    }

    /// The persistent duration factor of one LC kernel position (1.0 when
    /// unsampled). Pure in `(seed, service, kernel_index)`.
    pub fn mispredict_factor(&self, service: &str, kernel_index: usize) -> f64 {
        let Some(f) = self.mispredict else { return 1.0 };
        let seed = tacker_par::derive_seed(
            self.seed,
            &["mispredict", service, &kernel_index.to_string()],
        );
        if StdRng::seed_from_u64(seed).random::<f64>() < f.fraction {
            f.multiplier
        } else {
            1.0
        }
    }

    /// The transient duration factor of the `launch_index`-th device
    /// launch (1.0 when unsampled).
    pub fn straggler_factor(&self, launch_index: u64) -> f64 {
        let Some(f) = self.straggler else { return 1.0 };
        let seed = tacker_par::derive_seed(self.seed, &["straggler", &launch_index.to_string()]);
        if StdRng::seed_from_u64(seed).random::<f64>() < f.fraction {
            f.multiplier
        } else {
            1.0
        }
    }

    /// Whether exact launch history is unavailable at `t`.
    pub fn outage_active(&self, t: SimTime) -> bool {
        self.predictor_outages.iter().any(|w| w.contains(t))
    }

    /// Parses a comma-separated plan description:
    ///
    /// * `mispredict:<mult>:<frac>` — e.g. `mispredict:1.5:0.2`
    /// * `straggler:<mult>:<frac>`
    /// * `flood:<at_ms>:<kernels>` (repeatable)
    /// * `outage:<start_ms>:<dur_ms>` (repeatable)
    /// * `seed:<n>`
    /// * `none` — the empty plan
    ///
    /// Multipliers must be finite and positive, fractions within
    /// `[0, 1]`, and flood kernel counts positive.
    ///
    /// # Errors
    ///
    /// Returns [`TackerError::Config`] on any malformed clause.
    pub fn parse(s: &str) -> Result<FaultPlan, TackerError> {
        let bad = |clause: &str| TackerError::Config {
            reason: format!("bad fault clause {clause:?} (see `--faults` usage)"),
        };
        let invalid = |clause: &str, rule: &str| TackerError::Config {
            reason: format!("bad fault clause {clause:?}: {rule}"),
        };
        let f64_of = |clause: &str, v: &str| v.parse::<f64>().map_err(|_| bad(clause));
        let u64_of = |clause: &str, v: &str| v.parse::<u64>().map_err(|_| bad(clause));
        let multiplier_of = |clause: &str, v: &str| match f64_of(clause, v)? {
            m if m.is_finite() && m > 0.0 => Ok(m),
            _ => Err(invalid(clause, "the multiplier must be finite and > 0")),
        };
        let fraction_of = |clause: &str, v: &str| match f64_of(clause, v)? {
            f if (0.0..=1.0).contains(&f) => Ok(f),
            _ => Err(invalid(clause, "the fraction must lie in [0, 1]")),
        };
        let mut plan = FaultPlan::default();
        for clause in s.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let parts: Vec<&str> = clause.split(':').collect();
            match parts.as_slice() {
                ["none"] => {}
                ["seed", v] => plan.seed = u64_of(clause, v)?,
                ["mispredict", m, f] => {
                    plan.mispredict = Some(MispredictFault {
                        multiplier: multiplier_of(clause, m)?,
                        fraction: fraction_of(clause, f)?,
                    });
                }
                ["straggler", m, f] => {
                    plan.straggler = Some(StragglerFault {
                        multiplier: multiplier_of(clause, m)?,
                        fraction: fraction_of(clause, f)?,
                    });
                }
                ["flood", at, k] => {
                    let kernels: u32 = u64_of(clause, k)?.try_into().map_err(|_| bad(clause))?;
                    if kernels == 0 {
                        return Err(invalid(clause, "the kernel count must be > 0"));
                    }
                    plan.be_floods.push(FloodBurst {
                        at: SimTime::from_millis(u64_of(clause, at)?),
                        kernels,
                    });
                }
                ["outage", start, dur] => {
                    plan.predictor_outages.push(OutageWindow {
                        start: SimTime::from_millis(u64_of(clause, start)?),
                        duration: SimTime::from_millis(u64_of(clause, dur)?),
                    });
                }
                _ => return Err(bad(clause)),
            }
        }
        plan.be_floods.sort_by_key(|b| b.at);
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_zero() {
        assert!(FaultPlan::none().is_zero());
        assert!(!FaultPlan::mispredicting(1.5, 0.2).is_zero());
    }

    #[test]
    fn zero_plan_perturbs_nothing() {
        let p = FaultPlan::none();
        assert_eq!(p.mispredict_factor("svc", 0), 1.0);
        assert_eq!(p.straggler_factor(7), 1.0);
        assert!(!p.outage_active(SimTime::from_millis(1)));
    }

    #[test]
    fn mispredict_sampling_is_deterministic_and_proportionate() {
        let p = FaultPlan::mispredicting(1.5, 0.2).with_seed(11);
        let hits: Vec<bool> = (0..500)
            .map(|i| p.mispredict_factor("svc", i) > 1.0)
            .collect();
        let again: Vec<bool> = (0..500)
            .map(|i| p.mispredict_factor("svc", i) > 1.0)
            .collect();
        assert_eq!(hits, again, "sampling must be pure");
        let rate = hits.iter().filter(|h| **h).count() as f64 / 500.0;
        assert!((rate - 0.2).abs() < 0.07, "hit rate {rate}");
        // Different services sample independently.
        let other: Vec<bool> = (0..500)
            .map(|i| p.mispredict_factor("other", i) > 1.0)
            .collect();
        assert_ne!(hits, other);
    }

    #[test]
    fn seeds_change_the_sample() {
        let a = FaultPlan::mispredicting(2.0, 0.5).with_seed(1);
        let b = FaultPlan::mispredicting(2.0, 0.5).with_seed(2);
        let sa: Vec<bool> = (0..64).map(|i| a.mispredict_factor("s", i) > 1.0).collect();
        let sb: Vec<bool> = (0..64).map(|i| b.mispredict_factor("s", i) > 1.0).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn outage_windows_are_half_open() {
        let p = FaultPlan::none().with_outage(SimTime::from_millis(10), SimTime::from_millis(5));
        assert!(!p.outage_active(SimTime::from_millis(9)));
        assert!(p.outage_active(SimTime::from_millis(10)));
        assert!(p.outage_active(SimTime::from_millis(14)));
        assert!(!p.outage_active(SimTime::from_millis(15)));
    }

    #[test]
    fn parse_round_trips_the_acceptance_plan() {
        let p = FaultPlan::parse("mispredict:1.5:0.2,seed:9").unwrap();
        assert_eq!(p, FaultPlan::mispredicting(1.5, 0.2).with_seed(9));
        let q = FaultPlan::parse("straggler:4:0.05,flood:20:8,outage:30:10").unwrap();
        assert_eq!(q.straggler.unwrap().multiplier, 4.0);
        assert_eq!(q.be_floods[0].kernels, 8);
        assert_eq!(q.predictor_outages[0].start, SimTime::from_millis(30));
        assert!(FaultPlan::parse("none").unwrap().is_zero());
        assert!(FaultPlan::parse("").unwrap().is_zero());
        assert!(FaultPlan::parse("bogus:1").is_err());
        assert!(FaultPlan::parse("mispredict:x:0.2").is_err());
    }

    #[test]
    fn parse_rejects_out_of_range_values() {
        for bad in [
            "mispredict:-3:0.5",
            "mispredict:nan:2",
            "mispredict:0:0.5",
            "mispredict:inf:0.5",
            "mispredict:1.5:1.5",
            "mispredict:1.5:-0.1",
            "straggler:nan:0.1",
            "straggler:4:nan",
            "flood:20:0",
        ] {
            let err = FaultPlan::parse(bad).expect_err(bad);
            assert!(matches!(err, TackerError::Config { .. }), "{bad}: {err}");
        }
        // The bounds themselves are valid.
        assert!(FaultPlan::parse("mispredict:0.5:0,straggler:2:1,flood:0:1").is_ok());
    }
}
