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
    let (_, decision) = manager
        .decide(
            &[Head::new(&lc)],
            hr,
            hr,
            &[Some(Head::new(&small)), Some(Head::new(&big))],
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
    let (_, d) = manager
        .decide(&[Head::new(&lc)], hr, hr, &[Some(Head::new(&be))])
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

/// A profiler and library over the shared device, kept in step with the
/// other worlds of a property case.
struct World {
    profiler: Arc<KernelProfiler>,
    library: Arc<FusionLibrary>,
}

impl World {
    fn new() -> World {
        let profiler = Arc::new(KernelProfiler::new(Arc::clone(shared_device())));
        let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
        World { profiler, library }
    }

    /// A manager over this world tracing into a fresh ring.
    fn manager(&self) -> (KernelManager, Arc<tacker_trace::RingSink>) {
        let sink = Arc::new(tacker_trace::RingSink::unbounded());
        let manager = KernelManager::with_sink(
            Arc::clone(&self.profiler),
            Arc::clone(&self.library),
            Policy::Tacker,
            sink.clone() as Arc<dyn tacker_trace::TraceSink>,
        );
        (manager, sink)
    }

    /// Strikes the (lc, be) pair and refits its model online.
    fn strike(&self, lc: &tacker_workloads::WorkloadKernel, be: &tacker_workloads::WorkloadKernel) {
        if let Some((tc, cd)) = FusionLibrary::orient(lc, be) {
            if let Some(entry) = self.library.prepare(tc, cd).expect("prepare") {
                let x = self.profiler.predict(tc).expect("x_tc");
                let y = self.profiler.predict(cd).expect("x_cd");
                let lost = (x + y).mul_f64(3.0);
                entry.lock().expect("entry").observe_outcome(x, y, lost);
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

    /// Three managers over three worlds kept in step (same profiler
    /// history and models, same library strikes and refits, same history
    /// bypass) decide alike while strikes blacklist pairs, online refits
    /// move the fused models and the bypass toggles underneath the memo:
    ///
    /// * a long-lived manager walks a stretch of one to four LC heads in
    ///   one call;
    /// * a second long-lived manager (pair memo warm) decides the same
    ///   heads one call at a time, up to where the walk stopped;
    /// * a fresh manager per call decides each of those heads too.
    ///
    /// All three make the same decisions with the same decision and
    /// rejection event streams, and the walk stops exactly at the first
    /// decision that is not RunLc, at the last head or right after the
    /// first decision that met a pair its memo had not resolved. Pool
    /// kernels are measured up front or not, so that first fits of the
    /// duration models also happen inside walks.
    #[test]
    fn memoized_pairs_decide_like_a_fresh_manager(
        measured in 0u16..256,
        steps in proptest::collection::vec(
            (proptest::collection::vec(0usize..3, 1..5), 0usize..5, 0usize..6, 0u32..26, 0u8..9),
            1..40,
        ),
    ) {
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
        let (walking, single, fresh) = (World::new(), World::new(), World::new());
        let worlds = [&walking, &single, &fresh];
        // Bit `i` of `measured`: pool kernel `i` is in the launch history
        // before the first decision; the others fit their model at their
        // first prediction.
        for (i, wk) in lc_pool.iter().chain(&be_pool).enumerate() {
            if measured >> i & 1 == 1 {
                for w in worlds {
                    w.profiler.measure(wk).expect("measure");
                }
            }
        }
        let (walker, walk_sink) = walking.manager();
        let (stepper, step_sink) = single.manager();
        let lc_heads: Vec<Head<'_>> = lc_pool.iter().map(Head::new).collect();
        let be_heads: Vec<Option<Head<'_>>> = be_pool
            .iter()
            .map(|k| Some(Head::new(k)))
            .chain([None])
            .collect();
        // The (LC, BE) pairs the stepping manager has met: a Tacker
        // decision without a guard evaluates every BE head's pair.
        let mut met = std::collections::HashSet::new();
        let mut bypass = false;
        for (i, (ls, b1, b2, hr_log, op)) in steps.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    for w in worlds {
                        w.strike(&lc_pool[ls[0]], &be_pool[b1]);
                    }
                }
                2 => {
                    bypass = !bypass;
                    for w in worlds {
                        w.profiler.set_history_bypass(bypass);
                    }
                }
                _ => {}
            }
            let stretch: Vec<Head<'_>> = if op == 8 {
                Vec::new()
            } else {
                ls.iter().map(|&l| lc_heads[l]).collect()
            };
            let heads = [be_heads[b1], be_heads[b2]];
            // Log-uniform from 0 to 33 ms: small headrooms leave RunLc
            // the decision, so that walks go on past their first head.
            let hr = SimTime::from_nanos((1 << hr_log) - 1);
            let (n, walked) = walker.decide(&stretch, hr, hr, &heads).expect("walk");
            // The same heads one call at a time, up to the walk's stop.
            let mut stepped_events = Vec::new();
            let mut k = 0;
            let stop = loop {
                let head = stretch.get(k..=k).unwrap_or(&[]);
                let (m, warm) = stepper.decide(head, hr, hr, &heads).expect("single decide");
                let (cold_manager, cold_sink) = fresh.manager();
                let (_, cold) = cold_manager.decide(head, hr, hr, &heads).expect("fresh decide");
                proptest::prop_assert_eq!(m, 0, "step {} head {}", i, k);
                proptest::prop_assert_eq!(summary(&warm), summary(&cold), "step {} head {}", i, k);
                let events = step_sink.drain();
                proptest::prop_assert_eq!(&events, &cold_sink.drain(), "step {} head {}", i, k);
                stepped_events.extend(events);
                let mut resolved = false;
                if let Some(lc) = head.first() {
                    for be in heads.iter().flatten() {
                        resolved |= met.insert((lc.fp(), be.fp()));
                    }
                }
                if !matches!(warm, Decision::RunLc { .. }) || k + 1 >= stretch.len() || resolved {
                    break warm;
                }
                k += 1;
            };
            proptest::prop_assert_eq!(n, k, "step {}: the walk stopped elsewhere", i);
            proptest::prop_assert_eq!(summary(&walked), summary(&stop), "step {}", i);
            proptest::prop_assert_eq!(walk_sink.drain(), stepped_events, "step {}", i);
        }
    }
}

/// One device per test binary: simulations are pure, so proptest cases
/// share memoized runs instead of re-simulating every pair.
fn shared_device() -> &'static Arc<Device> {
    static DEVICE: std::sync::OnceLock<Arc<Device>> = std::sync::OnceLock::new();
    DEVICE.get_or_init(|| Arc::new(Device::new(GpuSpec::rtx2080ti())))
}
