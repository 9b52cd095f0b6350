//! Results of simulated kernel executions.

use std::fmt;

use tacker_kernel::{Cycles, Name, NameId, SimTime};

/// Precomputed aggregates of one [`KernelRun`], built once when the run
/// is constructed (and rebuilt by [`crate::scale_run`] after a stretch).
///
/// Steady-state consumers — the serving loop, telemetry windows, QoS
/// attribution — need the same handful of derived numbers for every
/// launch of a memoized run: wall duration, both pipeline utilizations,
/// and the busy-span shape. Computing them once at insertion keeps the
/// hot path to plain field reads on a shared [`std::sync::Arc`] handle
/// instead of re-deriving (or re-walking interval lists) per query.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSummary {
    /// Wall duration of the run (same as [`KernelRun::duration`]).
    pub duration: SimTime,
    /// Makespan in cycles (same as [`KernelRun::cycles`]).
    pub cycles: Cycles,
    /// Tensor-pipeline utilization over the run's own makespan.
    pub tc_util: f64,
    /// CUDA-pipeline utilization over the run's own makespan.
    pub cd_util: f64,
    /// Micro-events the engine processed (same as [`KernelRun::events`]).
    pub events: u64,
    /// Merged Tensor-pipeline busy spans.
    pub tc_spans: u32,
    /// Merged CUDA-pipeline busy spans.
    pub cd_spans: u32,
}

impl RunSummary {
    /// Computes the summary of `run` from its base fields.
    pub fn of(run: &KernelRun) -> RunSummary {
        let (tc_util, cd_util) = if run.cycles == Cycles::ZERO {
            (0.0, 0.0)
        } else {
            let inv = 1.0 / run.cycles.get() as f64;
            (
                run.activity.tc_busy.get() as f64 * inv,
                run.activity.cd_busy.get() as f64 * inv,
            )
        };
        RunSummary {
            duration: run.duration,
            cycles: run.cycles,
            tc_util,
            cd_util,
            events: run.events,
            tc_spans: run.tc_intervals.len() as u32,
            cd_spans: run.cd_intervals.len() as u32,
        }
    }
}

/// A half-open busy interval `[start, end)` in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Interval start, cycles.
    pub start: f64,
    /// Interval end, cycles.
    pub end: f64,
}

impl Interval {
    /// Interval length in cycles.
    pub fn len(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Merges a sorted-by-start interval list, closing gaps smaller than
/// `gap_tolerance` cycles. The result has no spare capacity: a device
/// cache keeps every run's intervals for the device's lifetime.
pub fn merge_intervals(mut intervals: Vec<Interval>, gap_tolerance: f64) -> Vec<Interval> {
    intervals.retain(|iv| !iv.is_empty());
    intervals.sort_by(|a, b| a.start.total_cmp(&b.start));
    let mut out: Vec<Interval> = Vec::new();
    for iv in intervals {
        match out.last_mut() {
            Some(last) if iv.start <= last.end + gap_tolerance => {
                last.end = last.end.max(iv.end);
            }
            _ => out.push(iv),
        }
    }
    out.shrink_to_fit();
    out
}

/// Busy-time summary for the two compute pipelines over one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActivitySummary {
    /// Cycles the Tensor pipeline was busy on the representative SM.
    pub tc_busy: Cycles,
    /// Cycles the CUDA pipeline was busy on the representative SM.
    pub cd_busy: Cycles,
}

impl ActivitySummary {
    /// Tensor-pipeline utilization over `duration`.
    pub fn tc_utilization(&self, duration: Cycles) -> f64 {
        if duration == Cycles::ZERO {
            0.0
        } else {
            self.tc_busy.get() as f64 / duration.get() as f64
        }
    }

    /// CUDA-pipeline utilization over `duration`.
    pub fn cd_utilization(&self, duration: Cycles) -> f64 {
        if duration == Cycles::ZERO {
            0.0
        } else {
            self.cd_busy.get() as f64 / duration.get() as f64
        }
    }
}

/// The outcome of simulating one kernel (or fused kernel) execution.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun {
    /// Kernel name.
    pub name: Name,
    /// Dense interned identity of `name`. Consumers that bucket or
    /// compare runs (telemetry, caches) key on this `u32` instead of
    /// hashing the string.
    pub name_id: NameId,
    /// Makespan on the busiest SM, in cycles (includes launch overheads).
    pub cycles: Cycles,
    /// Makespan converted with the device clock.
    pub duration: SimTime,
    /// Pipeline busy-time summary.
    pub activity: ActivitySummary,
    /// Merged Tensor-pipeline busy intervals (coarsened).
    pub tc_intervals: Vec<Interval>,
    /// Merged CUDA-pipeline busy intervals (coarsened).
    pub cd_intervals: Vec<Interval>,
    /// Completion cycle of each warp role (role name, finish), letting
    /// callers observe the co-run/solo-run phase split of fused kernels.
    pub role_finish: Vec<(Name, Cycles)>,
    /// Resident blocks per SM this run achieved.
    pub occupancy: u32,
    /// DRAM bytes moved by the representative SM (post-locality).
    pub dram_bytes: f64,
    /// Micro-events the engine processed to produce this run: queue pops
    /// plus inline macro-step continuations. Deterministic for a given
    /// plan and invariant across [`crate::engine::QueueKind`] and
    /// macro-stepping. A run served from a [`crate::Device`]'s cache or
    /// SM-0 memo is the shared simulated run, so it carries the
    /// simulation's counts, not 0.
    pub events: u64,
    /// Actual event-queue pops (the simulation's, like `events`). Equals
    /// `events` with macro-stepping off; shrinks as runs coalesce.
    pub pops: u64,
    /// Queue pops that coalesced at least one inline continuation (the
    /// simulation's, like `events`; 0 with macro-stepping off).
    pub macro_runs: u64,
    /// Precomputed aggregates (see [`RunSummary`]); every constructor
    /// goes through [`KernelRun::finalized`] so the summary always
    /// agrees with the base fields.
    pub summary: RunSummary,
}

impl KernelRun {
    /// Fills in the precomputed [`RunSummary`] from the base fields.
    /// Call after constructing (or re-deriving) a run by struct literal.
    #[must_use]
    pub fn finalized(mut self) -> KernelRun {
        self.summary = RunSummary::of(&self);
        self
    }

    /// Finish cycle of the role whose name contains `needle`, if any.
    pub fn role_finish_containing(&self, needle: &str) -> Option<Cycles> {
        self.role_finish
            .iter()
            .find(|(n, _)| n.contains(needle))
            .map(|(_, c)| *c)
    }

    /// The co-run phase length: cycles until the *first* role finished.
    pub fn corun_cycles(&self) -> Cycles {
        self.role_finish
            .iter()
            .map(|(_, c)| *c)
            .min()
            .unwrap_or(Cycles::ZERO)
    }

    /// Tensor-pipeline utilization over this run's own makespan — the
    /// per-launch number the telemetry windows and retirement events use.
    pub fn tc_utilization(&self) -> f64 {
        self.activity.tc_utilization(self.cycles)
    }

    /// CUDA-pipeline utilization over this run's own makespan.
    pub fn cd_utilization(&self) -> f64 {
        self.activity.cd_utilization(self.cycles)
    }

    /// Both pipeline utilizations as `(tensor, cuda)` — precomputed in
    /// the [`RunSummary`] at construction, so the serving engine's
    /// telemetry path is two field reads rather than two divides.
    pub fn pipe_utilizations(&self) -> (f64, f64) {
        (self.summary.tc_util, self.summary.cd_util)
    }
}

impl fmt::Display for KernelRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} ({}), TC {:.0}%, CD {:.0}%",
            self.name,
            self.duration,
            self.cycles,
            100.0 * self.activity.tc_utilization(self.cycles),
            100.0 * self.activity.cd_utilization(self.cycles)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_closes_small_gaps() {
        let ivs = vec![
            Interval {
                start: 0.0,
                end: 10.0,
            },
            Interval {
                start: 11.0,
                end: 20.0,
            },
            Interval {
                start: 50.0,
                end: 60.0,
            },
        ];
        let merged = merge_intervals(ivs, 2.0);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.capacity(), 2, "no spare capacity");
        assert_eq!(merged[0].end, 20.0);
    }

    #[test]
    fn merge_drops_empty_and_sorts() {
        let ivs = vec![
            Interval {
                start: 30.0,
                end: 40.0,
            },
            Interval {
                start: 5.0,
                end: 5.0,
            },
            Interval {
                start: 0.0,
                end: 10.0,
            },
        ];
        let merged = merge_intervals(ivs, 0.0);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].start, 0.0);
    }

    #[test]
    fn utilization_handles_zero_duration() {
        let a = ActivitySummary::default();
        assert_eq!(a.tc_utilization(Cycles::ZERO), 0.0);
        assert_eq!(a.cd_utilization(Cycles::ZERO), 0.0);
    }

    #[test]
    fn summary_agrees_with_base_fields() {
        let run = KernelRun {
            name: "s".into(),
            name_id: tacker_kernel::intern("s"),
            cycles: Cycles::new(1000),
            duration: SimTime::from_nanos(2000),
            activity: ActivitySummary {
                tc_busy: Cycles::new(600),
                cd_busy: Cycles::new(250),
            },
            tc_intervals: vec![Interval {
                start: 0.0,
                end: 600.0,
            }],
            cd_intervals: vec![],
            role_finish: vec![],
            occupancy: 1,
            dram_bytes: 0.0,
            events: 42,
            pops: 40,
            macro_runs: 2,
            summary: RunSummary::default(),
        }
        .finalized();
        assert_eq!(run.summary.duration, run.duration);
        assert_eq!(run.summary.cycles, run.cycles);
        assert_eq!(run.summary.events, 42);
        assert_eq!(run.summary.tc_spans, 1);
        assert_eq!(run.summary.cd_spans, 0);
        assert!((run.summary.tc_util - 0.6).abs() < 1e-12);
        assert!((run.summary.cd_util - 0.25).abs() < 1e-12);
        assert_eq!(
            run.pipe_utilizations(),
            (run.summary.tc_util, run.summary.cd_util)
        );
    }

    #[test]
    fn zero_cycle_summary_has_zero_utilization() {
        let run = KernelRun {
            name: "z".into(),
            name_id: tacker_kernel::intern("z"),
            cycles: Cycles::ZERO,
            duration: SimTime::ZERO,
            activity: ActivitySummary::default(),
            tc_intervals: vec![],
            cd_intervals: vec![],
            role_finish: vec![],
            occupancy: 0,
            dram_bytes: 0.0,
            events: 0,
            pops: 0,
            macro_runs: 0,
            summary: RunSummary::default(),
        }
        .finalized();
        assert_eq!(run.summary.tc_util, 0.0);
        assert_eq!(run.summary.cd_util, 0.0);
    }

    #[test]
    fn corun_cycles_is_min_role_finish() {
        let run = KernelRun {
            name: "f".into(),
            name_id: tacker_kernel::intern("f"),
            cycles: Cycles::new(100),
            duration: SimTime::from_nanos(100),
            activity: ActivitySummary::default(),
            tc_intervals: vec![],
            cd_intervals: vec![],
            role_finish: vec![
                ("tc".into(), Cycles::new(60)),
                ("cd".into(), Cycles::new(100)),
            ],
            occupancy: 1,
            dram_bytes: 0.0,
            events: 0,
            pops: 0,
            macro_runs: 0,
            summary: RunSummary::default(),
        }
        .finalized();
        assert_eq!(run.corun_cycles(), Cycles::new(60));
        assert_eq!(run.role_finish_containing("cd"), Some(Cycles::new(100)));
        assert_eq!(run.role_finish_containing("zz"), None);
    }
}
