//! Property tests for the serving runtime: a zero-fault serve is the
//! batch run — same arrivals, same decisions, same report.

use std::sync::Arc;

use proptest::prelude::*;
use tacker::prelude::*;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;
use tacker_workloads::{BeApp, Intensity, LcService};

fn lc_service(gemm_m: u64) -> LcService {
    let gemm = tacker_workloads::dnn::compile::shared_gemm();
    LcService::new(
        format!("svc-{gemm_m}"),
        8,
        vec![
            gemm_workload(&gemm, GemmShape::new(gemm_m, 1024, 512)),
            tacker_workloads::dnn::elementwise::elementwise_workload(
                &tacker_workloads::dnn::elementwise::relu(),
                2_000_000,
            ),
            gemm_workload(&gemm, GemmShape::new(gemm_m / 2, 1024, 512)),
        ],
    )
}

/// Everything a report carries, as text: its `Debug` rendering (latency
/// samples, violation and guard logs, windows, timeline) plus the
/// Prometheus text for the metric values the registry's `Debug` omits.
fn report_text(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.prometheus_text())
}

fn be_pick(i: usize) -> BeApp {
    let bench = [
        Benchmark::Mriq,
        Benchmark::Fft,
        Benchmark::Cutcp,
        Benchmark::Lbm,
    ][i];
    BeApp::new(bench.name(), Intensity::Compute, bench.task())
}

/// `be_pick`'s Parboil apps (`0..4`), then three DNN training apps
/// (`4..7`), whose task kernels include Tensor kernels: those pair with
/// the LC service's CUDA kernel instead of its GEMMs.
fn be_pick_tensor(i: usize) -> BeApp {
    match i {
        0..4 => be_pick(i),
        _ => {
            let name = ["Res-T", "VGG-T", "Dense-T"][i - 4];
            tacker_workloads::be_app(name).expect("registered BE app")
        }
    }
}

proptest! {
    // Each case runs several full co-location simulations; keep it small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Serving with explicit zero-fault serve options (Poisson arrivals,
    /// empty fault plan, guard armed) reproduces the batch run bit for
    /// bit, and the guard never steps off the fuse level: the batch sweep
    /// and the serving runtime are one engine.
    #[test]
    fn zero_fault_serve_reproduces_batch_verdicts(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        pick in 0usize..4,
        guarded in 0u8..2,
    ) {
        let guarded = guarded == 1;
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let lc = lc_service(gemm_m);
        let be = vec![be_pick(pick)];
        let config = ExperimentConfig::default().with_queries(12).with_seed(seed);

        let batch = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
            .expect("batch").policy(Policy::Tacker).run().expect("batch");
        let mut serve = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
            .expect("serve")
            .policy(Policy::Tacker)
            .arrivals(ArrivalSpec::Poisson)
            .faults(FaultPlan::none());
        if guarded {
            serve = serve.guarded(GuardConfig::default());
        }
        let serve = serve.run().expect("serve");

        prop_assert_eq!(batch.query_latencies(), serve.query_latencies());
        prop_assert_eq!(batch.qos_violations(), serve.qos_violations());
        prop_assert_eq!(batch.qos_met(), serve.qos_met());
        prop_assert_eq!(batch.fused_launches, serve.fused_launches);
        prop_assert_eq!(batch.be_work, serve.be_work);
        prop_assert_eq!(batch.wall, serve.wall);
        // No faults → exact predictions → the guard never fires.
        prop_assert_eq!(serve.guard_steps, 0);
        prop_assert_eq!(serve.faults_injected, 0);
        if guarded {
            prop_assert_eq!(serve.guard_level, Some(GuardLevel::Fuse));
        }
    }

    /// The busy-period replay is bit-identical to the full decision loop
    /// across random LC-only scenarios (the configuration in which it
    /// engages): the whole report — latencies, wall clock, windowed
    /// telemetry, guard trajectory and audit log, violation attribution
    /// with queue depths, metric counters — for a lone service at light
    /// load, and for two services whose gaps sit below the solo query
    /// time, so busy periods hold several queued queries. Tracing
    /// force-disables the replay, so the traced event stream is the
    /// decision loop's by construction — asserted via the traced run's
    /// report numbers.
    #[test]
    fn fast_path_reports_are_bit_identical(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        gap_us in 400u64..2000,
        queued_gap in 0.3f64..0.95,
        guarded in 0u8..2,
    ) {
        let guarded = guarded == 1;
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let lc = lc_service(gemm_m);
        let config = ExperimentConfig::default().with_queries(14).with_seed(seed);
        let build = |fast: bool, sink: Option<Arc<tacker_trace::RingSink>>| {
            let mut r = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[])
                .expect("build")
                .at(tacker_kernel::SimTime::from_micros(gap_us))
                .windowed(tacker_kernel::SimTime::from_millis(1))
                .steady_fast_path(fast);
            if guarded {
                r = r.guarded(GuardConfig::default());
            }
            if let Some(s) = sink {
                r = r.traced(s);
            }
            r.run().expect("run")
        };
        let fast = build(true, None);
        let slow = build(false, None);
        prop_assert_eq!(report_text(&fast), report_text(&slow));
        // A traced run falls back to the decision loop but must report
        // the same numbers — the trace stream *is* the decision loop's.
        let sink = Arc::new(tacker_trace::RingSink::unbounded());
        let traced = build(true, Some(sink.clone()));
        prop_assert_eq!(traced.query_latencies(), slow.query_latencies());
        prop_assert_eq!(traced.wall, slow.wall);
        prop_assert!(!sink.events().is_empty());

        // Two services, each arriving faster than one of its queries
        // runs alone: queries queue behind each other, the Equation 9
        // headroom spans several of them, and with a target of a few solo
        // query times the late ones violate.
        let profiler = tacker::KernelProfiler::new(Arc::clone(&device));
        let other = lc_service(gemm_m / 2 + 512);
        let solo = [&lc, &other].map(|svc| {
            tacker::server::solo_query_duration(&profiler, svc).expect("solo")
        });
        let loads: Vec<ServiceLoad> = [&lc, &other]
            .into_iter()
            .enumerate()
            .map(|(i, svc)| ServiceLoad {
                lc: svc.clone(),
                mean_interarrival: solo[i].mul_f64(queued_gap),
                seed: seed + i as u64,
            })
            .collect();
        let mut tight = config.clone();
        tight.qos_target = (solo[0] + solo[1]).mul_f64(2.0);
        let queued = |fast: bool| {
            ColocationRun::new(&device, &tight, &[lc.clone(), other.clone()], &[])
                .expect("build")
                .with_loads(&loads)
                .windowed(tacker_kernel::SimTime::from_micros(500))
                .guarded(GuardConfig::default())
                .steady_fast_path(fast)
                .run()
                .expect("run")
        };
        let fast = queued(true);
        let slow = queued(false);
        prop_assert!(slow.violation_log.iter().any(|v| v.queue_depth > 0));
        prop_assert_eq!(report_text(&fast), report_text(&slow));
    }

    /// The busy-period replay with no observer (no windows, guard,
    /// timeline or sink), where it advances a whole segment per step, is
    /// bit-identical to the full decision loop: LC-only runs of one to
    /// three services whose gaps range from well below one solo query
    /// time (long busy periods cut by arrivals) to well above it (one
    /// segment per query).
    #[test]
    fn unobserved_replay_reports_are_bit_identical(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        services in 1usize..4,
        gap_ratio in 0.3f64..3.0,
    ) {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let profiler = tacker::KernelProfiler::new(Arc::clone(&device));
        let lcs: Vec<LcService> = (0..services)
            .map(|i| lc_service(gemm_m + 384 * i as u64))
            .collect();
        let loads: Vec<ServiceLoad> = lcs
            .iter()
            .enumerate()
            .map(|(i, lc)| {
                let solo = tacker::server::solo_query_duration(&profiler, lc).expect("solo");
                ServiceLoad {
                    lc: lc.clone(),
                    mean_interarrival: solo.mul_f64(gap_ratio),
                    seed: seed + i as u64,
                }
            })
            .collect();
        let config = ExperimentConfig::default().with_queries(16).with_seed(seed);
        let build = |fast: bool| {
            ColocationRun::new(&device, &config, &lcs, &[])
                .expect("build")
                .with_loads(&loads)
                .steady_fast_path(fast)
                .run()
                .expect("run")
        };
        let fast = build(true);
        let slow = build(false);
        prop_assert_eq!(report_text(&fast), report_text(&slow));
    }

    /// The idle-period replay is bit-identical to the full decision loop
    /// with BE work admitted: Tacker or Baymax, one or two BE apps, gaps
    /// from below to well above the solo query time (so idle periods
    /// alternate with busy ones that fuse and reorder), windows, guard
    /// and timeline on. A tight QoS target drives violations, so the
    /// guard walks its ladder and stops admitting BE work mid-period.
    #[test]
    fn idle_replay_reports_are_bit_identical(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        gap_ratio in 0.5f64..8.0,
        first in 0usize..4,
        second in 0usize..4,
        baymax in 0u8..2,
        tight in 0u8..2,
    ) {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let lc = lc_service(gemm_m);
        let profiler = tacker::KernelProfiler::new(Arc::clone(&device));
        let solo = tacker::server::solo_query_duration(&profiler, &lc).expect("solo");
        let mut bes = vec![be_pick(first)];
        if second != first {
            bes.push(be_pick(second));
        }
        let policy = if baymax == 1 { Policy::Baymax } else { Policy::Tacker };
        let mut config = ExperimentConfig::default()
            .with_queries(10)
            .with_seed(seed)
            .with_timeline();
        if tight == 1 {
            config.qos_target = solo.mul_f64(1.5);
        }
        let build = |fast: bool| {
            ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &bes)
                .expect("build")
                .policy(policy)
                .at(solo.mul_f64(gap_ratio))
                .windowed(tacker_kernel::SimTime::from_micros(500))
                .guarded(GuardConfig::default())
                .steady_fast_path(fast)
                .run()
                .expect("run")
        };
        // Windows count fused-cache hits and misses, so both compared
        // runs read a device the first run warmed.
        build(false);
        let fast = build(true);
        let slow = build(false);
        prop_assert!(slow.be_kernels > 0);
        prop_assert_eq!(report_text(&fast), report_text(&slow));
    }

    /// The busy-period replay of co-located runs (BE work admitted, no
    /// guard), which replays only the kernels for which the manager
    /// provably decides RunLc, is bit-identical to the full decision loop,
    /// device counters included: Tacker, Baymax or FusionOnly, one or two
    /// BE apps (Parboil or DNN training, whose Tensor kernels fuse with
    /// the LC service's CUDA kernel), gaps from a third of a solo query
    /// time to several, and QoS targets from 1.1 to 3 solo query times.
    /// Windows and the timeline are on in half the cases.
    #[test]
    fn colocated_replay_reports_are_bit_identical(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        gap_ratio in 0.3f64..4.0,
        first in 0usize..7,
        second in 0usize..7,
        policy in 0usize..3,
        target in 1.1f64..3.0,
        observed in 0u8..2,
    ) {
        let case = ColocatedCase { seed, queries: 12, gap_ratio, target, policy, observed };
        let (fast, slow) = case.fast_and_slow(&lc_service(gemm_m), first, second);
        prop_assert_eq!(fast, slow);
    }

    /// The same identity with the Resnet50 and Inception services and
    /// Parboil BE apps: each Tensor kernel of the services pairs with the
    /// apps' CUDA kernels, and with targets near 3 solo query times and
    /// gaps near one, fused extras drive the injection budget into debt,
    /// where the proof covers prepared pairs through zero fusion headroom.
    #[test]
    fn colocated_replay_of_dnn_services_is_bit_identical(
        seed in 0u64..1000,
        inception in 0u8..2,
        gap_ratio in 0.3f64..4.0,
        first in 0usize..4,
        second in 0usize..4,
        policy in 0usize..3,
        target in 1.1f64..3.0,
        observed in 0u8..2,
    ) {
        let case = ColocatedCase { seed, queries: 12, gap_ratio, target, policy, observed };
        let (fast, slow) = case.fast_and_slow(&dnn_services()[usize::from(inception)], first, second);
        prop_assert_eq!(fast, slow);
    }

    /// The idle-period replay with no observer, where it advances a whole
    /// segment per step, is bit-identical to the full decision loop,
    /// device counters included: Tacker, Baymax or FusionOnly, one or two
    /// BE apps (Parboil or DNN training), and gaps from half a solo query
    /// time to twenty, so idle periods span zero, one or many iterations
    /// of the BE task.
    #[test]
    fn unobserved_idle_segments_are_bit_identical(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        gap_ratio in 0.5f64..20.0,
        first in 0usize..7,
        second in 0usize..7,
        policy in 0usize..3,
        target in 1.1f64..3.0,
    ) {
        let case = ColocatedCase { seed, queries: 12, gap_ratio, target, policy, observed: 0 };
        let (fast, slow) = case.fast_and_slow(&lc_service(gemm_m), first, second);
        prop_assert_eq!(fast, slow);
    }
}

/// Resnet50 and Inception, compiled once for the 2080Ti.
fn dnn_services() -> &'static [LcService; 2] {
    static SERVICES: std::sync::OnceLock<[LcService; 2]> = std::sync::OnceLock::new();
    SERVICES.get_or_init(|| {
        let compile = Device::new(GpuSpec::rtx2080ti());
        ["Resnet50", "Inception"].map(|name| {
            tacker_workloads::lc_service(name, &compile).expect("registered LC service")
        })
    })
}

/// One co-located run configuration of the co-located replay properties.
struct ColocatedCase {
    seed: u64,
    queries: usize,
    /// Mean gap between arrivals, in solo query times.
    gap_ratio: f64,
    /// QoS target, in solo query times.
    target: f64,
    /// Index into Tacker, Baymax, FusionOnly.
    policy: usize,
    /// `1` turns windows and the timeline on.
    observed: u8,
}

/// What a co-located run leaves: the report text and the device's plain
/// and fused cache counters.
type RunTrace = (String, (u64, u64), (u64, u64));

impl ColocatedCase {
    /// Runs `lc` against `be_pick_tensor(first)` (and `second`, if it
    /// differs) with the replays on, then off. Each run gets a fresh
    /// device, warmed by measuring the solo query time first, so both
    /// runs' device counters count the same cold work.
    fn fast_and_slow(&self, lc: &LcService, first: usize, second: usize) -> (RunTrace, RunTrace) {
        let mut bes = vec![be_pick_tensor(first)];
        if second != first {
            bes.push(be_pick_tensor(second));
        }
        let policy = [Policy::Tacker, Policy::Baymax, Policy::FusionOnly][self.policy];
        let observed = self.observed == 1;
        let run = |fast: bool| {
            let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
            let profiler = tacker::KernelProfiler::new(Arc::clone(&device));
            let solo = tacker::server::solo_query_duration(&profiler, lc).expect("solo");
            let mut config = ExperimentConfig::default()
                .with_queries(self.queries)
                .with_seed(self.seed);
            config.qos_target = solo.mul_f64(self.target);
            if observed {
                config = config.with_timeline();
            }
            let mut r = ColocationRun::new(&device, &config, std::slice::from_ref(lc), &bes)
                .expect("build")
                .policy(policy)
                .at(solo.mul_f64(self.gap_ratio))
                .steady_fast_path(fast);
            if observed {
                r = r.windowed(tacker_kernel::SimTime::from_micros(500));
            }
            let report = r.run().expect("run");
            (
                report_text(&report),
                device.cache_stats(),
                device.fused_cache_stats(),
            )
        };
        (run(true), run(false))
    }
}
