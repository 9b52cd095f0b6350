//! Integration tests for the runtime pieces: fusion library, manager gain
//! selection and strikes.

use std::sync::Arc;

use tacker::library::{FusionLibrary, PairEntry};
use tacker::manager::{Decision, Head, KernelManager, Policy};
use tacker::profile::KernelProfiler;
use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn setup() -> (Arc<Device>, Arc<KernelProfiler>, Arc<FusionLibrary>) {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    (device, profiler, library)
}

fn tc_kernel() -> tacker_workloads::WorkloadKernel {
    gemm_workload(
        &tacker_workloads::dnn::compile::shared_gemm(),
        GemmShape::new(4096, 2048, 512),
    )
}

/// The manager picks the BE partner with the highest throughput gain
/// (T_gain = T_cd − (T_fuse − T_tc)) when several are ready.
#[test]
fn manager_selects_the_highest_gain_partner() {
    let (_, profiler, library) = setup();
    let manager = KernelManager::new(Arc::clone(&profiler), Arc::clone(&library), Policy::Tacker);
    let lc = tc_kernel();
    // Two compute partners with very different sizes: the longer kernel
    // carries more BE work per fusion, so (at equal extras) it wins.
    let small = Benchmark::Cutcp.task()[0].clone();
    let big = {
        let mut wk = Benchmark::Mriq.task()[0].clone();
        wk.grid *= 2;
        wk
    };
    let hr = SimTime::from_millis(25);
    let decision = manager
        .decide(
            Some(Head::new(&lc)),
            hr,
            hr,
            &[Some(Head::new(&small)), Some(Head::new(&big))],
            false,
        )
        .expect("decide");
    let Decision::RunFused { be_index, .. } = decision else {
        panic!("expected fusion, got {decision:?}");
    };
    // Verify the chosen index really has the larger gain by recomputing.
    let gain = |be: &tacker_workloads::WorkloadKernel| {
        let entry = library.prepare(&lc, be).expect("prepare").expect("entry");
        let x_tc = profiler.predict(&lc).expect("x_tc");
        let x_cd = profiler.predict(be).expect("x_cd");
        let t_fuse = entry.lock().expect("entry").model.predict(x_tc, x_cd);
        x_cd.saturating_sub(t_fuse.saturating_sub(x_tc))
    };
    let gains = [gain(&small), gain(&big)];
    let best = if gains[1] > gains[0] { 1 } else { 0 };
    assert_eq!(be_index, best, "gains {gains:?}");
}

/// Strikes blacklist a pair: after MAX_STRIKES the library entry reports
/// ineligible and the manager stops fusing it.
#[test]
fn strikes_blacklist_pairs() {
    let (_, profiler, library) = setup();
    let lc = tc_kernel();
    let be = Benchmark::Fft.task()[0].clone();
    let entry = library.prepare(&lc, &be).expect("prepare").expect("entry");
    {
        let mut e = entry.lock().expect("entry");
        assert!(e.eligible());
        let x = SimTime::from_micros(100);
        for _ in 0..PairEntry::MAX_STRIKES {
            // Fusion "lost to sequential": actual far above x_tc + x_cd.
            e.observe_outcome(x, x, SimTime::from_micros(1000));
        }
        assert!(!e.eligible());
    }
    let manager = KernelManager::new(Arc::clone(&profiler), Arc::clone(&library), Policy::Tacker);
    let hr = SimTime::from_millis(25);
    let d = manager
        .decide(Some(Head::new(&lc)), hr, hr, &[Some(Head::new(&be))], false)
        .expect("decide");
    assert!(
        !matches!(d, Decision::RunFused { .. }),
        "blacklisted pair must not fuse, got {d:?}"
    );
}

/// Library entries are bucketed by work scale: the same definitions at a
/// very different scale get a separate entry (and model).
#[test]
fn library_buckets_by_scale() {
    let (_, _, library) = setup();
    let be = Benchmark::Cutcp.task()[0].clone();
    let small = gemm_workload(
        &tacker_workloads::dnn::compile::shared_gemm(),
        GemmShape::new(1024, 512, 256),
    );
    let big = gemm_workload(
        &tacker_workloads::dnn::compile::shared_gemm(),
        GemmShape::new(16384, 8192, 2048),
    );
    library.prepare(&small, &be).expect("small");
    library.prepare(&big, &be).expect("big");
    assert!(library.prepared_pairs() >= 2, "distinct scale buckets");
}

/// The fusion library is usable concurrently: parallel `prepare` calls on
/// the same pair coalesce to one cached entry.
#[test]
fn library_is_thread_safe() {
    let (_, _, library) = setup();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let library = Arc::clone(&library);
            std::thread::spawn(move || {
                let lc = tc_kernel();
                let be = Benchmark::Cutcp.task()[0].clone();
                library.prepare(&lc, &be).expect("prepare").is_some()
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("join"));
    }
    assert_eq!(library.prepared_pairs(), 1, "one cached entry");
}

/// Runs a short traced co-location and returns the recorded decision
/// stream.
fn traced_decisions(policy: Policy) -> Vec<tacker_trace::TraceEvent> {
    use tacker_trace::TraceSink;
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("service");
    let be = tacker_workloads::be_app("sgemm").expect("app");
    let config = tacker::ExperimentConfig::default().with_queries(8);
    let ring = Arc::new(tacker_trace::RingSink::unbounded());
    tacker::ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[be])
        .expect("traced run")
        .policy(policy)
        .traced(ring.clone() as Arc<dyn TraceSink>)
        .run()
        .expect("traced run");
    ring.events()
}

/// Baymax is the reorder-only baseline: its decision trace must contain
/// no fusion decisions and no fused retirements.
#[test]
fn baymax_decision_trace_has_no_fusions() {
    use tacker_trace::{DecisionKind, TraceEvent};
    let events = traced_decisions(Policy::Baymax);
    let decisions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decision { .. }))
        .count();
    assert!(decisions > 0, "no decisions traced");
    for ev in &events {
        if let TraceEvent::Decision { kind, .. } = ev {
            assert_ne!(*kind, DecisionKind::Fuse, "Baymax fused: {ev:?}");
        }
        if let TraceEvent::KernelRetired { label, .. } = ev {
            assert_ne!(&**label, "FUSED", "Baymax retired a fused kernel: {ev:?}");
        }
    }
}

/// LC-only runs the service alone: the decision trace must contain no BE
/// launches of any kind (fused, reordered, or free-running).
#[test]
fn lc_only_decision_trace_launches_no_be_work() {
    use tacker_trace::{DecisionKind, TraceEvent};
    let events = traced_decisions(Policy::LcOnly);
    let mut lc_runs = 0;
    for ev in &events {
        if let TraceEvent::Decision { kind, .. } = ev {
            match kind {
                DecisionKind::Fuse | DecisionKind::Reorder | DecisionKind::FreeBe => {
                    panic!("LcOnly launched BE work: {ev:?}")
                }
                DecisionKind::RunLc => lc_runs += 1,
                DecisionKind::Idle => {}
            }
        }
        if let TraceEvent::KernelRetired { label, .. } = ev {
            assert_eq!(&**label, "LC", "non-LC retirement under LcOnly: {ev:?}");
        }
    }
    assert!(lc_runs > 0, "no LC launches traced");
}

/// The fields two decisions must agree on: kind, BE index, fused-launch
/// fingerprint, prediction and the fused components.
type DecisionSummary = (
    &'static str,
    Option<usize>,
    Option<u64>,
    SimTime,
    Option<(SimTime, SimTime, SimTime)>,
);

fn summary(d: &Decision) -> DecisionSummary {
    match d {
        Decision::RunLc { predicted } => ("lc", None, None, *predicted, None),
        Decision::RunBe {
            be_index,
            predicted,
        } => ("be", Some(*be_index), None, *predicted, None),
        Decision::RunFused {
            be_index,
            launch,
            fp,
            predicted,
            x_tc,
            x_cd,
            lc_predicted,
            ..
        } => {
            assert_eq!(*fp, launch.fingerprint(), "RunFused.fp must key its launch");
            (
                "fused",
                Some(*be_index),
                Some(*fp),
                *predicted,
                Some((*x_tc, *x_cd, *lc_predicted)),
            )
        }
        Decision::Idle => ("idle", None, None, SimTime::ZERO, None),
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// A long-lived manager (pair memo warm) decides exactly like a fresh
    /// manager per call over the same profiler and library: same
    /// decisions and the same decision/rejection event streams, while
    /// strikes blacklist pairs, online refits move the fused models and
    /// the history bypass toggles underneath the memo.
    #[test]
    fn memoized_pairs_decide_like_a_fresh_manager(
        steps in proptest::collection::vec(
            (0usize..3, 0usize..5, 0usize..6, 0u64..30_000, 0u8..10),
            1..40,
        ),
    ) {
        use tacker_trace::{RingSink, TraceSink};
        let device = shared_device();
        let profiler = Arc::new(KernelProfiler::new(Arc::clone(device)));
        let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
        // LC pool: two Tensor GEMMs and a CUDA kernel (both orientations).
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let lc_pool = [
            tc_kernel(),
            gemm_workload(&gemm, GemmShape::new(2048, 2048, 1024)),
            Benchmark::Mriq.task()[0].clone(),
        ];
        // BE pool: CUDA kernels plus a Tensor GEMM; index 5 is "no head".
        let be_pool = [
            Benchmark::Cutcp.task()[0].clone(),
            Benchmark::Fft.task()[0].clone(),
            Benchmark::Lbm.task()[0].clone(),
            gemm_workload(&gemm, GemmShape::new(1024, 1024, 512)),
            Benchmark::Sgemm.task()[0].clone(),
        ];
        // Every pool kernel is in the launch history before the first
        // decision, so neither manager's predictions depend on which of
        // them asked first.
        for wk in lc_pool.iter().chain(&be_pool) {
            profiler.measure(wk).expect("measure");
        }
        let long_sink = Arc::new(RingSink::unbounded());
        let long = KernelManager::with_sink(
            Arc::clone(&profiler),
            Arc::clone(&library),
            Policy::Tacker,
            long_sink.clone() as Arc<dyn TraceSink>,
        );
        let lc_heads: Vec<Head<'_>> = lc_pool.iter().map(Head::new).collect();
        let be_heads: Vec<Option<Head<'_>>> = be_pool
            .iter()
            .map(|k| Some(Head::new(k)))
            .chain([None])
            .collect();
        let mut bypass = false;
        for (i, &(l, b1, b2, hr_us, op)) in steps.iter().enumerate() {
            match op {
                // Strike the (l, b1) pair and refit its model online.
                0 | 1 => {
                    let (lc, be) = (&lc_pool[l], &be_pool[b1]);
                    if let Some((tc, cd)) = FusionLibrary::orient(lc, be) {
                        if let Some(entry) = library.prepare(tc, cd).expect("prepare") {
                            let x = profiler.predict(tc).expect("x_tc");
                            let y = profiler.predict(cd).expect("x_cd");
                            let lost = (x + y).mul_f64(3.0);
                            entry.lock().expect("entry").observe_outcome(x, y, lost);
                        }
                    }
                }
                2 => {
                    bypass = !bypass;
                    profiler.set_history_bypass(bypass);
                }
                _ => {}
            }
            let lc = (op != 9).then_some(lc_heads[l]);
            let heads = [be_heads[b1], be_heads[b2]];
            let hr = SimTime::from_micros(hr_us);
            let multiple_lc = op == 8;
            let fresh_sink = Arc::new(RingSink::unbounded());
            let fresh = KernelManager::with_sink(
                Arc::clone(&profiler),
                Arc::clone(&library),
                Policy::Tacker,
                fresh_sink.clone() as Arc<dyn TraceSink>,
            );
            let warm = long.decide(lc, hr, hr, &heads, multiple_lc).expect("long decide");
            let cold = fresh.decide(lc, hr, hr, &heads, multiple_lc).expect("fresh decide");
            proptest::prop_assert_eq!(summary(&warm), summary(&cold), "step {}", i);
            proptest::prop_assert_eq!(long_sink.drain(), fresh_sink.drain(), "step {}", i);
        }
        profiler.set_history_bypass(false);
    }
}

/// One device per test binary: simulations are pure, so proptest cases
/// share memoized runs instead of re-simulating every pair.
fn shared_device() -> &'static Arc<Device> {
    static DEVICE: std::sync::OnceLock<Arc<Device>> = std::sync::OnceLock::new();
    DEVICE.get_or_init(|| Arc::new(Device::new(GpuSpec::rtx2080ti())))
}
