//! Parallel (LC service × BE app) sweep execution.
//!
//! The paper's evaluation is one big grid: 6 LC services × 12 BE apps,
//! each cell several full co-location runs (Figures 10–18). The cells are
//! independent deterministic simulations, so they fan out over the
//! `tacker-par` persistent pool and share one [`Device`] — simulations
//! done for one cell are memoized and reused by every other cell that
//! touches the same kernels — and one [`FusionLibrary`] scoped to the
//! whole grid, so each fusion pair is prepared once per sweep, as the
//! paper prepares its library once per deployment (§V-C). Every cell
//! serves from its own copies of the library's entries.
//!
//! Scheduling: cells are **sharded by expected event count** (queries ×
//! summed kernel micro-op footprint, see [`expected_cell_events`]) and
//! claimed heaviest-first, so one Resnet-sized cell cannot serialize the
//! tail of an otherwise-drained sweep. Sharding steers scheduling only.
//!
//! Determinism: every run's RNG seed is derived from its
//! `(LC, BE, policy)` coordinates via [`tacker_par::derive_seed`], never
//! shared between runs, and the pool joins results back in grid order.
//! Library entries are pure functions of their canonical pair, which the
//! grid's pair set fixes. A sweep at `jobs = 32` is therefore
//! bit-identical to the same sweep at `jobs = 1`, and a cell's report does
//! not depend on the grid's order.

use std::sync::Arc;

use tacker_sim::Device;
use tacker_workloads::{BeApp, LcService, WorkloadKernel};

use crate::config::ExperimentConfig;
use crate::error::TackerError;
use crate::library::FusionLibrary;
use crate::manager::Policy;
use crate::report::RunReport;
use crate::serve::ColocationRun;

/// One (LC, BE, policy) cell of a sweep, with its completed run.
#[derive(Debug)]
pub struct SweepCell {
    /// LC service name.
    pub lc: String,
    /// BE application name.
    pub be: String,
    /// Policy the cell ran under.
    pub policy: Policy,
    /// The scheduling weight this cell was sharded with (see
    /// [`expected_cell_events`]); recorded so benchmark provenance can
    /// audit shard balance.
    pub expected_events: u64,
    /// The run's report.
    pub report: RunReport,
}

/// The seed a sweep cell runs with: the experiment's base seed mixed with
/// the cell coordinates, so each run owns an independent RNG stream
/// regardless of which worker executes it (or in what order).
pub fn cell_seed(config: &ExperimentConfig, lc: &str, be: &str, policy: Policy) -> u64 {
    tacker_par::derive_seed(config.seed, &[lc, be, &format!("{policy:?}")])
}

fn kernel_micro_footprint(kernels: &[WorkloadKernel]) -> u64 {
    // Micro-ops per launch × blocks, with blocks capped at the number an
    // SM-level simulation actually steps through distinctly — beyond the
    // residency limit extra blocks repeat the same per-block cost.
    kernels
        .iter()
        .map(|k| (k.def.body().len().max(1) as u64).saturating_mul(k.grid.min(272)))
        .sum()
}

/// Expected-event proxy for one sweep cell: queries × the summed micro-op
/// footprint of the LC query and BE task kernels. Not a simulation-exact
/// count — it only has to *rank* cells so the heaviest start first, and
/// to estimate whether a whole sweep is worth fanning out at all (the
/// pool's serial work threshold).
pub fn expected_cell_events(lc: &LcService, be: &BeApp, queries: u64) -> u64 {
    let per_query = kernel_micro_footprint(lc.query_kernels());
    let be_task = kernel_micro_footprint(be.task_kernels());
    queries.saturating_mul(per_query + be_task).max(1)
}

/// The worker count [`run_pair_sweep`] will actually use for a grid —
/// `requested` resolved against the host, the cell count, and the
/// serial-work threshold. Exposed so benchmark provenance can record the
/// decision without re-deriving it.
pub fn sweep_jobs_used(
    requested: usize,
    lcs: &[LcService],
    bes: &[BeApp],
    policies: &[Policy],
    config: &ExperimentConfig,
) -> usize {
    let mut cells = 0usize;
    let mut total = 0u64;
    for lc in lcs {
        for be in bes {
            let w = expected_cell_events(lc, be, config.queries as u64);
            cells += policies.len();
            total = total.saturating_add(w.saturating_mul(policies.len() as u64));
        }
    }
    tacker_par::planned_jobs(requested, cells, total)
}

/// Runs the full `lcs × bes × policies` grid on `jobs` workers (`0` = every
/// core) from the persistent pool, sharing `device` and one fusion library
/// scoped to the grid across all cells. Results come back in grid order:
/// LC-major, then BE, then policy.
///
/// # Errors
///
/// Propagates the first failing cell's error, by grid order.
pub fn run_pair_sweep(
    device: &Arc<Device>,
    lcs: &[LcService],
    bes: &[BeApp],
    policies: &[Policy],
    config: &ExperimentConfig,
    jobs: usize,
) -> Result<Vec<SweepCell>, TackerError> {
    let mut cells: Vec<(LcService, BeApp, Policy, u64)> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for lc in lcs {
        for be in bes {
            let expected = expected_cell_events(lc, be, config.queries as u64);
            for &policy in policies {
                cells.push((lc.clone(), be.clone(), policy, expected));
                weights.push(expected);
            }
        }
    }
    let library = Arc::new(FusionLibrary::scoped(device, lcs, bes));
    let device = Arc::clone(device);
    let config = config.clone();
    tacker_par::try_pool_map_sharded(
        jobs,
        cells,
        &weights,
        move |_, (lc, be, policy, expected)| {
            let cfg = config
                .clone()
                .with_seed(cell_seed(&config, lc.name(), be.name(), *policy));
            let report = ColocationRun::new(
                &device,
                &cfg,
                std::slice::from_ref(lc),
                std::slice::from_ref(be),
            )?
            .policy(*policy)
            .with_library(&library)
            .run()?;
            Ok(SweepCell {
                lc: lc.name().to_string(),
                be: be.name().to_string(),
                policy: *policy,
                expected_events: *expected,
                report,
            })
        },
    )
}

/// Tacker-vs-Baymax throughput improvement for every (LC, BE) pair, in
/// percent — the Figure 14 computation, parallel over the grid, with one
/// fusion library scoped to the grid as in [`run_pair_sweep`]. Returns
/// `(lc, be, improvement %, baymax report, tacker report)` in grid order.
///
/// # Errors
///
/// Propagates the first failing pair's error, by grid order.
#[allow(clippy::type_complexity)]
pub fn run_improvement_sweep(
    device: &Arc<Device>,
    lcs: &[LcService],
    bes: &[BeApp],
    config: &ExperimentConfig,
    jobs: usize,
) -> Result<Vec<(String, String, f64, RunReport, RunReport)>, TackerError> {
    let mut pairs: Vec<(LcService, BeApp)> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for lc in lcs {
        for be in bes {
            // Each pair runs both policies; the factor is uniform so it
            // cannot change the heaviest-first ranking, but it keeps the
            // total honest for the serial-work threshold.
            weights.push(expected_cell_events(lc, be, config.queries as u64).saturating_mul(2));
            pairs.push((lc.clone(), be.clone()));
        }
    }
    let library = Arc::new(FusionLibrary::scoped(device, lcs, bes));
    let device = Arc::clone(device);
    let config = config.clone();
    tacker_par::try_pool_map_sharded(jobs, pairs, &weights, move |_, (lc, be)| {
        let be_slice = std::slice::from_ref(be);
        let lc_slice = std::slice::from_ref(lc);
        let baymax = ColocationRun::new(&device, &config, lc_slice, be_slice)?
            .policy(Policy::Baymax)
            .with_library(&library)
            .run()?;
        let tacker = ColocationRun::new(&device, &config, lc_slice, be_slice)?
            .policy(Policy::Tacker)
            .with_library(&library)
            .run()?;
        let imp = 100.0
            * crate::metrics::throughput_improvement(baymax.be_work_rate(), tacker.be_work_rate());
        Ok((
            lc.name().to_string(),
            be.name().to_string(),
            imp,
            baymax,
            tacker,
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tacker_sim::GpuSpec;
    use tacker_workloads::parboil::Benchmark;
    use tacker_workloads::Intensity;

    fn tiny_lc(name: &str, m: u64) -> LcService {
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        LcService::new(
            name,
            4,
            vec![
                tacker_workloads::gemm::gemm_workload(
                    &gemm,
                    tacker_workloads::gemm::GemmShape::new(m, 1024, 512),
                ),
                tacker_workloads::dnn::elementwise::elementwise_workload(
                    &tacker_workloads::dnn::elementwise::relu(),
                    3_000_000,
                ),
            ],
        )
    }

    #[test]
    fn cell_seeds_are_coordinate_derived() {
        let config = ExperimentConfig::default();
        let a = cell_seed(&config, "A", "x", Policy::Tacker);
        assert_eq!(a, cell_seed(&config, "A", "x", Policy::Tacker));
        assert_ne!(a, cell_seed(&config, "A", "x", Policy::Baymax));
        assert_ne!(a, cell_seed(&config, "A", "y", Policy::Tacker));
        assert_ne!(
            a,
            cell_seed(&config.clone().with_seed(1), "A", "x", Policy::Tacker)
        );
    }

    #[test]
    fn expected_events_scale_with_queries_and_kernels() {
        let lc = tiny_lc("a", 1024);
        let be = tacker_workloads::BeApp::new("cutcp", Intensity::Compute, Benchmark::Cutcp.task());
        let ten = expected_cell_events(&lc, &be, 10);
        let twenty = expected_cell_events(&lc, &be, 20);
        assert_eq!(twenty, ten * 2, "proxy is linear in queries");
        assert!(ten > 0);
    }

    #[test]
    fn sweep_covers_grid_in_order() {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let lcs = vec![tiny_lc("a", 1024), tiny_lc("b", 2048)];
        let bes = vec![tacker_workloads::BeApp::new(
            "cutcp",
            Intensity::Compute,
            Benchmark::Cutcp.task(),
        )];
        let config = ExperimentConfig::default().with_queries(10);
        let cells = run_pair_sweep(
            &device,
            &lcs,
            &bes,
            &[Policy::Baymax, Policy::Tacker],
            &config,
            2,
        )
        .unwrap();
        assert_eq!(cells.len(), 4);
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.lc.as_str(), c.policy))
                .collect::<Vec<_>>(),
            vec![
                ("a", Policy::Baymax),
                ("a", Policy::Tacker),
                ("b", Policy::Baymax),
                ("b", Policy::Tacker),
            ]
        );
        for c in &cells {
            assert_eq!(c.report.query_count(), 10, "{}+{}", c.lc, c.be);
            assert!(c.expected_events > 0);
        }
    }
}
