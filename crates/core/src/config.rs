//! Experiment configuration (Table II defaults).

use tacker_kernel::SimTime;

use crate::error::TackerError;

/// Configuration of a co-location experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// The LC QoS target (50 ms in the paper).
    pub qos_target: SimTime,
    /// LC load as a fraction of the service's peak supported load (0.8).
    pub load_factor: f64,
    /// Number of LC queries to simulate per run.
    pub queries: usize,
    /// RNG seed for the Poisson arrival process.
    pub seed: u64,
    /// Record the device activity timeline (costs memory; used by the
    /// Fig. 1/15 harnesses).
    pub record_timeline: bool,
    /// Threshold (relative error) beyond which fused-duration models are
    /// retrained online (0.10 in §VI-C).
    pub model_refresh_threshold: f64,
    /// Worker threads for the fan-outs across runs (sweep cells, serve-mode
    /// calibration per LC service). `0` means "use every core". Within a
    /// run, fusion-library preparation always runs on the calling thread:
    /// this knob does not reach it. Parallelism never changes results — the
    /// simulation is pure, every RNG stream is derived per run and each
    /// run's profiler is driven from one thread — so this is purely a
    /// wall-clock knob.
    pub jobs: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            qos_target: SimTime::from_millis(50),
            load_factor: 0.8,
            queries: 200,
            seed: 0x7ac4e2,
            record_timeline: false,
            model_refresh_threshold: 0.10,
            jobs: 0,
        }
    }
}

impl ExperimentConfig {
    /// Sets the query count.
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables timeline recording.
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Sets the worker-thread count (`0` = every core).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the LC load factor (a run rejects it unless `0 < load ≤ 1`;
    /// see [`ExperimentConfig::validate`]).
    pub fn with_load(mut self, load: f64) -> Self {
        self.load_factor = load;
        self
    }

    /// Checks the configuration before a run uses it.
    ///
    /// # Errors
    ///
    /// Returns [`TackerError::Config`] unless the load factor is finite
    /// and `0 < load ≤ 1`.
    pub fn validate(&self) -> Result<(), TackerError> {
        let load = self.load_factor;
        if load > 0.0 && load <= 1.0 {
            Ok(())
        } else {
            Err(TackerError::Config {
                reason: format!("load factor {load} is outside (0, 1]"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_ii() {
        let c = ExperimentConfig::default();
        assert_eq!(c.qos_target, SimTime::from_millis(50));
        assert!((c.load_factor - 0.8).abs() < 1e-12);
        assert!((c.model_refresh_threshold - 0.10).abs() < 1e-12);
    }

    #[test]
    fn builder_methods() {
        let c = ExperimentConfig::default()
            .with_queries(10)
            .with_seed(7)
            .with_load(0.5)
            .with_jobs(4)
            .with_timeline();
        assert_eq!(c.queries, 10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.jobs, 4);
        assert!(c.record_timeline);
    }

    /// Out-of-range load factors end in a config error from both run
    /// types, before any calibration.
    #[test]
    fn out_of_range_loads_rejected() {
        use std::sync::Arc;

        use tacker_sim::{Device, GpuSpec};
        use tacker_workloads::gemm::{gemm_workload, GemmShape};
        use tacker_workloads::LcService;

        use crate::fleet::{heterogeneous_fleet, FleetRun};
        use crate::serve::ColocationRun;

        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let shape = GemmShape::new(256, 256, 256);
        let lcs = [LcService::new("tiny", 8, vec![gemm_workload(&gemm, shape)])];
        let is_config = |r: Result<(), TackerError>| matches!(r, Err(TackerError::Config { .. }));
        for load in [0.0, f64::NAN, -1.0, 1.5, f64::INFINITY] {
            let config = ExperimentConfig::default().with_load(load);
            assert!(is_config(config.validate()), "load {load}");
            let run = ColocationRun::new(&device, &config, &lcs, &[]).unwrap();
            assert!(is_config(run.run().map(drop)), "colocation at load {load}");
            let fleet = FleetRun::new(heterogeneous_fleet(2), &config, &lcs).unwrap();
            assert!(is_config(fleet.run().map(drop)), "fleet at load {load}");
        }
        for load in [1e-3, 0.8, 1.0] {
            assert!(ExperimentConfig::default()
                .with_load(load)
                .validate()
                .is_ok());
        }
    }
}
