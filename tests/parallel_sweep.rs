//! Integration tests for the parallel sweep layer: a grid executed at
//! `--jobs 4` must be bit-identical to the same grid at `--jobs 1`, and
//! the shared device cache must survive concurrent access unchanged.

use std::sync::Arc;

use tacker::prelude::*;
use tacker::sweep::cell_seed;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::parboil::Benchmark;
use tacker_workloads::{BeApp, Intensity, LcService};

/// Small synthetic LC services so the grid stays fast; the sweep code
/// paths (calibration, library preparation, fused scheduling) are the same
/// ones the paper-scale services exercise.
fn tiny_lc(name: &str, m: u64, elems: u64) -> LcService {
    let gemm = tacker_workloads::dnn::compile::shared_gemm();
    let mut kernels = Vec::new();
    for _ in 0..2 {
        kernels.push(tacker_workloads::gemm::gemm_workload(
            &gemm,
            tacker_workloads::gemm::GemmShape::new(m, 1024, 512),
        ));
        kernels.push(tacker_workloads::dnn::elementwise::elementwise_workload(
            &tacker_workloads::dnn::elementwise::relu(),
            elems,
        ));
    }
    LcService::new(name, 8, kernels)
}

fn grid() -> (Vec<LcService>, Vec<BeApp>) {
    let lcs = vec![
        tiny_lc("svc-a", 2048, 4_000_000),
        tiny_lc("svc-b", 1024, 2_000_000),
    ];
    let bes = vec![
        BeApp::new("cutcp", Intensity::Compute, Benchmark::Cutcp.task()),
        BeApp::new("fft", Intensity::Compute, Benchmark::Fft.task()),
        BeApp::new("spmv", Intensity::Memory, Benchmark::Spmv.task()),
    ];
    (lcs, bes)
}

/// The satellite determinism requirement: a 2×3 pair sweep at jobs=4
/// produces `RunReport`s (latencies, fused launches, BE work) identical to
/// jobs=1, on separate devices.
#[test]
fn two_by_three_sweep_is_identical_at_jobs_1_and_4() {
    let config = ExperimentConfig::default().with_queries(25).with_seed(7);
    let (lcs, bes) = grid();
    let policies = [Policy::Baymax, Policy::Tacker];

    let serial_device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let serial = run_pair_sweep(&serial_device, &lcs, &bes, &policies, &config, 1).unwrap();
    let parallel_device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let parallel = run_pair_sweep(&parallel_device, &lcs, &bes, &policies, &config, 4).unwrap();

    assert_eq!(serial.len(), 2 * 3 * 2);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            (s.lc.as_str(), s.be.as_str(), s.policy),
            (p.lc.as_str(), p.be.as_str(), p.policy)
        );
        let tag = format!("{}+{} {:?}", s.lc, s.be, s.policy);
        assert_eq!(
            s.report.query_latencies(),
            p.report.query_latencies(),
            "{tag}"
        );
        assert_eq!(s.report.fused_launches, p.report.fused_launches, "{tag}");
        assert_eq!(s.report.be_work, p.report.be_work, "{tag}");
        assert_eq!(s.report.be_kernels, p.report.be_kernels, "{tag}");
        assert_eq!(
            s.report.qos_violations(),
            p.report.qos_violations(),
            "{tag}"
        );
        assert_eq!(s.report.wall, p.report.wall, "{tag}");
    }
}

/// The per-cell outcome two sweeps must agree on.
fn assert_same_cells(a: &[SweepCell], b: &[SweepCell], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        let tag = format!("{what}: {}+{} {:?}", x.lc, x.be, x.policy);
        assert_eq!(
            (x.lc.as_str(), x.be.as_str(), x.policy),
            (y.lc.as_str(), y.be.as_str(), y.policy),
            "{tag}"
        );
        assert_eq!(
            x.report.query_latencies(),
            y.report.query_latencies(),
            "{tag}"
        );
        assert_eq!(x.report.fused_launches, y.report.fused_launches, "{tag}");
        assert_eq!(x.report.be_work, y.report.be_work, "{tag}");
        assert_eq!(x.report.be_kernels, y.report.be_kernels, "{tag}");
        assert_eq!(x.report.wall, y.report.wall, "{tag}");
    }
}

/// Real cells — the paper's ResNext and Densenet against two training
/// BE apps — prepare fused pairs from cold devices, which is where a cell
/// once fanned its ratio profiling out over threads sharing the run's
/// profiler (and where that race showed in the Fig. 14 grid). A sweep
/// must print the same reports at any jobs count and on every run.
#[test]
fn real_cells_are_identical_across_jobs_and_runs() {
    let config = ExperimentConfig::default().with_queries(40);
    let scratch = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lcs = ["ResNext", "Densenet"]
        .map(|name| tacker_workloads::lc_service(name, &scratch).expect("LC service"));
    let bes = ["VGG-T", "Dense-T"].map(|name| tacker_workloads::be_app(name).expect("BE app"));
    let sweep = |jobs| {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        run_pair_sweep(&device, &lcs, &bes, &[Policy::Tacker], &config, jobs).unwrap()
    };
    let serial = sweep(1);
    assert_eq!(serial.len(), 4);
    assert!(serial.iter().any(|c| c.report.fused_launches > 0));
    for run in 1..=2 {
        assert_same_cells(&serial, &sweep(2), &format!("jobs=2 run {run}"));
    }
}

/// A reduced Fig. 14 grid of real services: 2 LC × 3 BE apps, whose query
/// kernels share GEMM definitions (and so fusion-library keys) across
/// services.
fn reduced_real_grid() -> (Vec<LcService>, Vec<BeApp>) {
    let scratch = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lcs = ["ResNext", "Densenet"]
        .map(|name| tacker_workloads::lc_service(name, &scratch).expect("LC service"));
    let bes = ["fft", "cutcp", "VGG-T"].map(|name| tacker_workloads::be_app(name).expect("BE app"));
    (lcs.to_vec(), bes.to_vec())
}

/// `cells` in grid order of the forward grid, whatever order they ran in.
fn by_coordinates(mut cells: Vec<SweepCell>) -> Vec<SweepCell> {
    cells.sort_by(|a, b| (&a.lc, &a.be).cmp(&(&b.lc, &b.be)));
    cells
}

/// A sweep prepares each fusion pair once, from the pair its grid fixes
/// for the pair's library key, so which cell meets a key first — set by
/// the grid's order and the worker count — changes no cell's report.
#[test]
fn real_grid_cells_do_not_depend_on_grid_order() {
    let config = ExperimentConfig::default().with_queries(40);
    let (lcs, bes) = reduced_real_grid();
    let sweep_counted = |lcs: &[LcService], bes: &[BeApp], jobs| {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let cells = run_pair_sweep(&device, lcs, bes, &[Policy::Tacker], &config, jobs).unwrap();
        let counters = (device.cache_stats(), device.fused_cache_stats());
        (by_coordinates(cells), counters)
    };
    let sweep = |lcs: &[LcService], bes: &[BeApp], jobs| sweep_counted(lcs, bes, jobs).0;
    let forward = sweep(&lcs, &bes, 1);
    assert_eq!(forward.len(), 6);
    assert!(forward.iter().all(|c| c.report.fused_launches > 0));
    let shuffled_lcs = [lcs[1].clone(), lcs[0].clone()];
    let shuffled_bes = [bes[2].clone(), bes[0].clone(), bes[1].clone()];
    for jobs in [1, 2] {
        let (shuffled, counters) = sweep_counted(&shuffled_lcs, &shuffled_bes, jobs);
        assert_same_cells(&forward, &shuffled, &format!("shuffled at jobs={jobs}"));
        // A cold serial pass reads the counts of a device that simulates
        // every fingerprint miss: a miss the SM-0 memo serves still
        // counts as one. The forward pass has calibrated every cell's
        // load (calibrations are cached per process), so these counts
        // do not depend on which tests ran before. At jobs > 1 racing
        // double misses move them.
        if jobs == 1 {
            assert_eq!(counters, ((81_169, 1_102), (3_495, 673)));
        }
    }
    assert_same_cells(&forward, &sweep(&lcs, &bes, 2), "forward at jobs=2");
}

/// Strikes and online refits stay in the run that made them: each cell
/// serves from its own copies of the shared library's entries. Running a
/// fusion-only cell (which refits the pairs it fuses) right before every
/// Tacker cell of the same (LC, BE) pair leaves the Tacker reports as they
/// are without it.
#[test]
fn a_cells_refits_leave_the_next_cell_unchanged() {
    let config = ExperimentConfig::default().with_queries(40);
    let (lcs, bes) = reduced_real_grid();
    let sweep = |policies: &[Policy]| {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        run_pair_sweep(&device, &lcs, &bes, policies, &config, 1).unwrap()
    };
    let alone = sweep(&[Policy::Tacker]);
    let (before, after): (Vec<SweepCell>, Vec<SweepCell>) =
        sweep(&[Policy::FusionOnly, Policy::Tacker])
            .into_iter()
            .partition(|c| c.policy == Policy::FusionOnly);
    assert!(
        before.iter().map(|c| c.report.model_refreshes).sum::<u64>() > 0,
        "no fusion-only cell refitted a pair"
    );
    assert_same_cells(&alone, &after, "after a refitting cell");
}

/// Sharing one device between a serial and a parallel sweep must not
/// change results either: memoization is exact, so warm caches only make
/// runs faster, never different.
#[test]
fn shared_device_cache_does_not_change_results() {
    let config = ExperimentConfig::default().with_queries(15).with_seed(11);
    let (lcs, bes) = grid();
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let cold = run_pair_sweep(&device, &lcs, &bes, &[Policy::Tacker], &config, 4).unwrap();
    let (_, misses_cold) = device.cache_stats();
    let (fused_hits_cold, _) = device.fused_cache_stats();
    let warm = run_pair_sweep(&device, &lcs, &bes, &[Policy::Tacker], &config, 2).unwrap();
    let (_, misses_warm) = device.cache_stats();
    let (fused_hits_warm, _) = device.fused_cache_stats();
    // Kernel ids are content-derived, so a rebuilt fusion library yields
    // the same fused KernelId and launch fingerprint as the first run.
    // Every launch — plain and fused alike — replays from the cache: the
    // warm sweep must add zero misses and report fused hits.
    let added = misses_warm - misses_cold;
    assert_eq!(
        added, 0,
        "warm sweep re-simulated launches: {added} new misses vs {misses_cold} cold"
    );
    assert!(
        fused_hits_warm > fused_hits_cold,
        "warm sweep reported no fused cache hits"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.report.query_latencies(), w.report.query_latencies());
        assert_eq!(c.report.be_work, w.report.be_work);
    }
}

/// Per-cell seeds depend only on coordinates, not worker identity or
/// execution order — the sweeps above rely on this.
#[test]
fn cell_seeds_are_order_independent() {
    let config = ExperimentConfig::default();
    let forward = [
        cell_seed(&config, "a", "x", Policy::Tacker),
        cell_seed(&config, "a", "y", Policy::Tacker),
        cell_seed(&config, "b", "x", Policy::Tacker),
    ];
    let reverse = [
        cell_seed(&config, "b", "x", Policy::Tacker),
        cell_seed(&config, "a", "y", Policy::Tacker),
        cell_seed(&config, "a", "x", Policy::Tacker),
    ];
    assert_eq!(forward[0], reverse[2]);
    assert_eq!(forward[1], reverse[1]);
    assert_eq!(forward[2], reverse[0]);
    assert_ne!(forward[0], forward[1]);
    assert_ne!(forward[0], forward[2]);
}
