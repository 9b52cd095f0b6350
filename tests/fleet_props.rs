//! Property tests for fleet-scale serving: a fleet of one node with zero
//! dispatch latency is the single-device serving runtime, bit for bit —
//! the dispatcher routes every query to the only device and replays the
//! very arrival streams the single-device run generates.

use std::sync::Arc;

use proptest::prelude::*;
use tacker::fleet::{DispatchPolicy, FleetNode, FleetRun};
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

fn be_pick(i: usize) -> BeApp {
    let bench = [
        Benchmark::Mriq,
        Benchmark::Fft,
        Benchmark::Cutcp,
        Benchmark::Lbm,
    ][i];
    BeApp::new(bench.name(), Intensity::Compute, bench.task())
}

fn gpu_pick(i: usize) -> GpuSpec {
    if i == 0 {
        GpuSpec::rtx2080ti()
    } else {
        GpuSpec::v100()
    }
}

proptest! {
    // Each case runs several full serving simulations; keep it small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Acceptance gate: across random fault-free scenarios (seed, GEMM
    /// shape, GPU profile, co-located BE or dedicated node, dispatch
    /// policy), the single node's report inside a fleet-of-1
    /// `FleetReport` is bit-identical to the `ColocationRun` report, and
    /// the fleet aggregates are the single-device aggregates.
    #[test]
    fn fleet_of_one_is_the_single_device_runtime(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        gpu in 0usize..2,
        pick in 0usize..5,
        policy_ix in 0usize..4,
    ) {
        let spec = gpu_pick(gpu);
        let lc = lc_service(gemm_m);
        // pick == 4 means a dedicated LC node with no resident BE work.
        let be: Vec<BeApp> = if pick < 4 { vec![be_pick(pick)] } else { Vec::new() };
        let config = ExperimentConfig::default().with_queries(12).with_seed(seed);

        let device = Arc::new(Device::new(spec.clone()));
        let solo = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
            .expect("solo").run().expect("solo");

        let mut node = FleetNode::new("gpu-0", spec);
        for app in &be {
            node = node.with_be(app.clone());
        }
        let fleet = FleetRun::new(vec![node], &config, std::slice::from_ref(&lc))
            .expect("fleet")
            .dispatch_policy(DispatchPolicy::ALL[policy_ix])
            .run()
            .expect("fleet");

        prop_assert_eq!(fleet.devices.len(), 1);
        prop_assert_eq!(fleet.devices[0].queries, solo.query_count());
        let dev = fleet.devices[0].report.as_ref().expect("device ran");
        prop_assert_eq!(dev.query_latencies(), solo.query_latencies());
        prop_assert_eq!(dev.qos_violations(), solo.qos_violations());
        prop_assert_eq!(dev.qos_met(), solo.qos_met());
        prop_assert_eq!(dev.wall, solo.wall);
        prop_assert_eq!(dev.busy, solo.busy);
        prop_assert_eq!(dev.fused_launches, solo.fused_launches);
        prop_assert_eq!(dev.reordered_launches, solo.reordered_launches);
        prop_assert_eq!(dev.be_kernels, solo.be_kernels);
        prop_assert_eq!(dev.be_work, solo.be_work);
        prop_assert_eq!(&dev.violation_log, &solo.violation_log);
        // Fleet aggregates collapse to the single device's numbers.
        prop_assert_eq!(fleet.query_count(), solo.query_count());
        prop_assert_eq!(fleet.qos_violations(), solo.qos_violations());
        prop_assert_eq!(fleet.mean_latency(), solo.mean_latency());
        prop_assert_eq!(fleet.p99_latency(), solo.p99_latency());
        prop_assert_eq!(fleet.wall, solo.wall);
    }

    /// A fleet of one hands its device the replayed arrivals in the order
    /// the single-device runtime admits them, ties included: two
    /// services whose unsorted streams share instants, within one
    /// service and across both, serve bit-identically with and without
    /// the dispatcher in front.
    #[test]
    fn fleet_of_one_replays_tied_arrivals_as_one_device(
        gemm_m in 1024u64..4096,
        pick in 0usize..5,
        times_a in proptest::collection::vec(0u64..6, 1..12),
        times_b in proptest::collection::vec(0u64..6, 1..12),
    ) {
        let loads: Vec<ServiceLoad> = [lc_service(gemm_m), lc_service(gemm_m / 2 + 512)]
            .into_iter()
            .map(|lc| ServiceLoad {
                lc,
                mean_interarrival: tacker_kernel::SimTime::from_millis(1),
                seed: 0,
            })
            .collect();
        let ms = |times: &[u64]| -> Vec<_> {
            times.iter().map(|&t| tacker_kernel::SimTime::from_millis(t)).collect()
        };
        let streams = ArrivalSpec::Replay(vec![ms(&times_a), ms(&times_b)]);
        let be: Vec<BeApp> = if pick < 4 { vec![be_pick(pick)] } else { Vec::new() };
        let config = ExperimentConfig::default().with_seed(7);

        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let solo = ColocationRun::new(&device, &config, &[loads[0].lc.clone()], &be)
            .expect("solo")
            .with_loads(&loads)
            .arrivals(streams.clone())
            .run()
            .expect("solo");
        let node = be
            .iter()
            .fold(FleetNode::new("gpu-0", GpuSpec::rtx2080ti()), |n, app| n.with_be(app.clone()));
        let fleet = FleetRun::new(vec![node], &config, &[loads[0].lc.clone()])
            .expect("fleet")
            .with_loads(&loads)
            .arrivals(streams)
            .run()
            .expect("fleet");

        let dev = fleet.devices[0].report.as_ref().expect("device ran");
        prop_assert_eq!(dev.query_count(), times_a.len() + times_b.len());
        prop_assert_eq!(format!("{:?}", dev.per_service()), format!("{:?}", solo.per_service()));
        prop_assert_eq!(dev.wall, solo.wall);
        prop_assert_eq!(dev.busy, solo.busy);
        prop_assert_eq!(dev.be_work, solo.be_work);
        prop_assert_eq!(dev.fused_launches, solo.fused_launches);
        prop_assert_eq!(&dev.violation_log, &solo.violation_log);
    }

    /// Fleet determinism: the same configuration produces the same
    /// routing and the same merged report at any worker count — routing
    /// is serial by construction, and the per-device engines are pure.
    /// The devices fan out on the pool whether or not windowed telemetry
    /// observes them; the windows cover the span feed at fleet scale.
    #[test]
    fn fleet_reports_are_jobs_invariant(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        policy_ix in 0usize..4,
        devices in 2usize..4,
        windowed in 0u8..2,
    ) {
        let lc = lc_service(gemm_m);
        let nodes = || -> Vec<FleetNode> {
            (0..devices)
                .map(|i| FleetNode::new(format!("gpu-{i}"), gpu_pick(i % 2)))
                .collect()
        };
        let run_at = |jobs: usize| {
            let config = ExperimentConfig::default()
                .with_queries(12)
                .with_seed(seed)
                .with_jobs(jobs);
            let run = FleetRun::new(nodes(), &config, std::slice::from_ref(&lc))
                .expect("fleet")
                .dispatch_policy(DispatchPolicy::ALL[policy_ix]);
            let run = if windowed == 1 {
                run.windowed(tacker_kernel::SimTime::from_millis(1))
            } else {
                run
            };
            run.run().expect("fleet")
        };
        let serial = run_at(1);
        let parallel = run_at(0);
        prop_assert_eq!(serial.query_count(), parallel.query_count());
        prop_assert_eq!(serial.qos_violations(), parallel.qos_violations());
        prop_assert_eq!(serial.mean_latency(), parallel.mean_latency());
        prop_assert_eq!(serial.p99_latency(), parallel.p99_latency());
        prop_assert_eq!(serial.wall, parallel.wall);
        prop_assert_eq!(serial.outstanding_max, parallel.outstanding_max);
        for (a, b) in serial.devices.iter().zip(&parallel.devices) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(a.queries, b.queries);
            prop_assert_eq!(a.max_outstanding, b.max_outstanding);
            match (&a.report, &b.report) {
                (Some(ra), Some(rb)) => {
                    prop_assert_eq!(ra.query_latencies(), rb.query_latencies());
                    prop_assert_eq!(ra.wall, rb.wall);
                    prop_assert_eq!(ra.busy, rb.busy);
                }
                (None, None) => {}
                _ => prop_assert!(false, "device {} ran in one mode only", a.id),
            }
        }
    }

    /// The busy-period replay is invisible at fleet scale: a windowed
    /// LC-only fleet reports the same bytes with the replay on and off —
    /// every device report, the per-service merges and the dispatcher's
    /// accounting. The guard is drawn on or off: a guard turns the
    /// replays off, so only unguarded cases feed the windows by busy
    /// segment, and guarded cases check that the switch changes nothing
    /// there.
    #[test]
    fn fleet_reports_are_replay_invariant(
        seed in 0u64..1000,
        gemm_m in 1024u64..4096,
        policy_ix in 0usize..4,
        devices in 1usize..4,
        guarded in 0u8..2,
    ) {
        let lcs = [lc_service(gemm_m), lc_service(gemm_m / 2 + 512)];
        let config = ExperimentConfig::default()
            .with_queries(16)
            .with_seed(seed)
            .with_jobs(1);
        let run = |fast: bool| {
            let mut fleet = FleetRun::new(heterogeneous_fleet(devices), &config, &lcs)
                .expect("fleet")
                .device_policy(Policy::LcOnly)
                .dispatch_policy(DispatchPolicy::ALL[policy_ix]);
            if guarded == 1 {
                fleet = fleet.guarded(GuardConfig::default());
            }
            fleet
                .windowed(tacker_kernel::SimTime::from_millis(1))
                .steady_fast_path(fast)
                .run()
                .expect("fleet")
        };
        let text = |r: &FleetReport| {
            let mut t = format!("{r:?}");
            for dev in r.devices.iter().filter_map(|d| d.report.as_ref()) {
                t.push_str(&dev.prometheus_text());
            }
            t
        };
        prop_assert_eq!(text(&run(true)), text(&run(false)));
    }
}

/// Unobserved LC-only fleets (no guard, windows or timeline), pinned byte
/// for byte under every dispatch policy: with no observer every device
/// serves its busy periods from the replay, and the dispatcher's
/// in-flight and warm-set bookkeeping shows in the routing and in the
/// outstanding counts each report carries. Two services at a queueing
/// load over three mixed GPUs, with a QoS target a few solo queries long,
/// so busy periods hold several queries and some of them violate.
#[test]
fn unobserved_fleet_reports_are_pinned() {
    let lcs = [lc_service(2048), lc_service(1536)];
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let profiler = tacker::KernelProfiler::new(device);
    let solo = lcs
        .each_ref()
        .map(|lc| tacker::server::solo_query_duration(&profiler, lc).expect("solo"));
    let loads: Vec<ServiceLoad> = lcs
        .iter()
        .zip(solo)
        .enumerate()
        .map(|(i, (lc, solo))| ServiceLoad {
            lc: lc.clone(),
            mean_interarrival: solo.mul_f64(0.5),
            seed: 41 + i as u64,
        })
        .collect();
    let mut config = ExperimentConfig::default()
        .with_queries(60)
        .with_seed(41)
        .with_jobs(1);
    config.qos_target = (solo[0] + solo[1]).mul_f64(1.2);
    let pins: [u64; 4] = [
        16_866_084_324_086_479_160,
        13_639_558_109_546_329_259,
        17_176_464_496_155_714_830,
        14_413_926_253_098_782_002,
    ];
    for (policy, pin) in DispatchPolicy::ALL.into_iter().zip(pins) {
        let r = FleetRun::new(heterogeneous_fleet(3), &config, &lcs)
            .expect("fleet")
            .device_policy(Policy::LcOnly)
            .dispatch_policy(policy)
            .with_loads(&loads)
            .run()
            .expect("fleet");
        assert!(r.outstanding_max > 1, "{policy}: no queueing at dispatch");
        assert!(
            r.devices
                .iter()
                .filter_map(|d| d.report.as_ref())
                .any(|d| d.violation_log.iter().any(|v| v.queue_depth > 0)),
            "{policy}: no queued violation"
        );
        let mut hash = tacker_kernel::StableHasher::new();
        hash.write_str(&format!("{r:?}"));
        for dev in r.devices.iter().filter_map(|d| d.report.as_ref()) {
            hash.write_str(&dev.prometheus_text());
        }
        assert_eq!(hash.finish(), pin, "{policy} fleet report drifted");
    }
}
