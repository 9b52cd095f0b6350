//! Integration tests for the streaming telemetry subsystem: quantile
//! sketch accuracy and merge determinism, `LatencyStats` spill behavior,
//! a byte-exact Prometheus golden file, windowed serve runs whose rows
//! must sum back to the report aggregates, violation attribution, and the
//! telemetry-purity invariant (observers never change scheduling).

use std::sync::Arc;

use proptest::prelude::*;
use tacker::prelude::*;
use tacker::DEFAULT_EXACT_LIMIT;
use tacker_kernel::{SimTime, StableHasher};
use tacker_sim::{Device, GpuSpec};
use tacker_trace::{
    nearest_rank, prometheus_text, summarize, timeseries_jsonl, MetricsRegistry, QuantileSketch,
    RingSink, TraceEvent, TraceSink,
};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;
use tacker_workloads::{BeApp, Intensity, LcService};

// ---------------------------------------------------------------------------
// Quantile sketch: rank-error bound and merge determinism
// ---------------------------------------------------------------------------

/// The exact nearest-rank quantile of integer samples.
fn exact_quantile(samples: &[u64], p: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[nearest_rank(sorted.len() as u64, p) as usize - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every sketch quantile stays within the documented relative error
    /// of the exact nearest-rank sample quantile.
    #[test]
    fn sketch_percentile_within_rank_error_bound(
        samples in proptest::collection::vec(1u64..100_000_000_000, 1..400),
        p_mil in 1u32..1000,
    ) {
        let p = f64::from(p_mil) / 1000.0;
        let mut sketch = QuantileSketch::new();
        for s in &samples {
            sketch.observe(*s);
        }
        let exact = exact_quantile(&samples, p);
        let approx = sketch.percentile(p).expect("non-empty");
        let rel = (approx as f64 - exact as f64).abs() / exact as f64;
        prop_assert!(
            rel <= QuantileSketch::RELATIVE_ERROR + 1e-9,
            "p={p}: approx {approx} vs exact {exact} (rel {rel})"
        );
    }

    /// Merging per-stream sketches is bit-identical to observing the
    /// concatenated stream, in any merge order — the property that makes
    /// per-service sketches aggregate exactly into the run-level one.
    #[test]
    fn sketch_merge_is_order_invariant_and_lossless(
        streams in proptest::collection::vec(
            proptest::collection::vec(1u64..10_000_000, 0..120),
            1..5,
        ),
    ) {
        let mut whole = QuantileSketch::new();
        for s in streams.iter().flatten() {
            whole.observe(*s);
        }
        let parts: Vec<QuantileSketch> = streams
            .iter()
            .map(|stream| {
                let mut sk = QuantileSketch::new();
                for s in stream {
                    sk.observe(*s);
                }
                sk
            })
            .collect();
        let mut forward = QuantileSketch::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = QuantileSketch::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        prop_assert!(forward == whole, "forward merge differs from the union stream");
        prop_assert!(backward == whole, "merge order changed the sketch");
    }
}

// ---------------------------------------------------------------------------
// LatencyStats: exact mode, spill, bounded memory
// ---------------------------------------------------------------------------

#[test]
fn latency_stats_spills_to_sketch_at_limit_and_memory_stays_flat() {
    let mut stats = LatencyStats::with_limit(64);
    for i in 1..=64u64 {
        stats.observe(SimTime::from_micros(i * 100));
    }
    assert!(!stats.is_sketch(), "under the limit stays exact");
    assert_eq!(stats.samples().len(), 64);
    let exact_p50 = stats.percentile(50.0).expect("non-empty");
    assert_eq!(
        exact_p50,
        SimTime::from_micros(3200),
        "nearest rank ⌈0.5·64⌉ = 32"
    );

    stats.observe(SimTime::from_micros(6500));
    assert!(stats.is_sketch(), "limit + 1 spills to the sketch");
    assert!(stats.samples().is_empty(), "sketch mode retains no samples");
    assert_eq!(stats.count(), 65, "spill replays every retained sample");

    // After the spill, memory no longer grows with observations.
    let spilled = stats.retained_bytes();
    for i in 0..10_000u64 {
        stats.observe(SimTime::from_micros(100 + i % 6000));
    }
    assert_eq!(stats.retained_bytes(), spilled, "sketch memory is fixed");
    assert!(stats.peak_bytes() >= spilled);
    assert_eq!(stats.count(), 10_065);
}

#[test]
fn latency_stats_sketch_percentile_tracks_exact_within_bound() {
    let mut exact = LatencyStats::exact();
    let mut sketch = LatencyStats::with_limit(0);
    assert_eq!(DEFAULT_EXACT_LIMIT, 4096);
    for i in 0..5000u64 {
        let v = SimTime::from_micros(500 + (i * 7919) % 90_000);
        exact.observe(v);
        sketch.observe(v);
    }
    assert!(!exact.is_sketch());
    assert!(sketch.is_sketch());
    for p in [50.0, 90.0, 99.0, 99.9] {
        let e = exact.percentile(p).expect("non-empty").as_nanos() as f64;
        let s = sketch.percentile(p).expect("non-empty").as_nanos() as f64;
        let rel = (s - e).abs() / e;
        assert!(
            rel <= QuantileSketch::RELATIVE_ERROR + 1e-9,
            "p{p}: sketch {s} vs exact {e} (rel {rel})"
        );
    }
}

// ---------------------------------------------------------------------------
// Prometheus golden file
// ---------------------------------------------------------------------------

/// Byte-exact golden of the Prometheus text exposition: family grouping,
/// `tacker_` namespace, per-service labels, summary quantiles, and the
/// deterministic BTreeMap ordering are all load-bearing for scrapers.
#[test]
fn prometheus_text_matches_golden() {
    let registry = MetricsRegistry::new();
    registry.counter("serve_decisions").add(42);
    registry.counter("qos_violations.Resnet50").add(3);
    registry.gauge("inject_budget_ns").set(1500.5);
    let mut latency = QuantileSketch::new();
    for ns in [100_000, 200_000, 300_000, 400_000] {
        latency.observe(ns);
    }
    let text = prometheus_text(
        &registry,
        &[("query_latency_us.Resnet50".to_string(), latency)],
    );
    let golden = "\
# TYPE tacker_qos_violations counter
tacker_qos_violations{service=\"Resnet50\"} 3
# TYPE tacker_serve_decisions counter
tacker_serve_decisions 42
# TYPE tacker_inject_budget_ns gauge
tacker_inject_budget_ns 1500.500000
# TYPE tacker_query_latency_us summary
tacker_query_latency_us{service=\"Resnet50\",quantile=\"0.5\"} 199.806
tacker_query_latency_us{service=\"Resnet50\",quantile=\"0.9\"} 400.000
tacker_query_latency_us{service=\"Resnet50\",quantile=\"0.99\"} 400.000
tacker_query_latency_us{service=\"Resnet50\",quantile=\"0.999\"} 400.000
tacker_query_latency_us_sum{service=\"Resnet50\"} 1000.000
tacker_query_latency_us_count{service=\"Resnet50\"} 4
";
    assert_eq!(
        text, golden,
        "Prometheus exposition drifted from the golden"
    );
    // And the summarizer accepts its own exporter's output.
    summarize(&text).expect("summarize(prometheus) succeeds");
}

// ---------------------------------------------------------------------------
// Windowed serve: rows sum to report aggregates, events reach the sink
// ---------------------------------------------------------------------------

fn drill_lc() -> LcService {
    let gemm = tacker_workloads::dnn::compile::shared_gemm();
    LcService::new(
        "drill",
        8,
        vec![
            gemm_workload(&gemm, GemmShape::new(2048, 1024, 512)),
            tacker_workloads::dnn::elementwise::elementwise_workload(
                &tacker_workloads::dnn::elementwise::relu(),
                2_000_000,
            ),
        ],
    )
}

fn drill_be() -> Vec<BeApp> {
    let bench = Benchmark::Fft;
    vec![BeApp::new(bench.name(), Intensity::Compute, bench.task())]
}

#[test]
fn windowed_serve_rows_sum_to_report_aggregates() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = drill_lc();
    let be = drill_be();
    let config = ExperimentConfig::default().with_queries(16).with_seed(3);
    let sink: Arc<RingSink> = Arc::new(RingSink::unbounded());
    let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
        .expect("run")
        .policy(Policy::Tacker)
        .arrivals(ArrivalSpec::Poisson)
        .faults(FaultPlan::mispredicting(3.0, 0.4).with_seed(5))
        .windowed(SimTime::from_millis(1))
        .traced(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run()
        .expect("run");

    assert!(!report.windows.is_empty(), "a windowed run collects rows");
    let arrivals: u64 = report.windows.iter().map(|r| r.arrivals).sum();
    let completions: u64 = report.windows.iter().map(|r| r.completions).sum();
    let violations: u64 = report.windows.iter().map(|r| r.violations).sum();
    let fused: u64 = report.windows.iter().map(|r| r.fused_launches).sum();
    assert_eq!(arrivals, 16, "every admission lands in exactly one window");
    assert_eq!(
        completions, 16,
        "every completion lands in exactly one window"
    );
    assert_eq!(violations, report.qos_violations() as u64);
    assert_eq!(fused, report.fused_launches);
    // The device started cold, so its fused-plan counters are this run's
    // traffic: cold pair preparation inside decisions plus fused launches.
    // Every hit and miss lands in some window.
    let cache_hits: u64 = report.windows.iter().map(|r| r.fused_cache_hits).sum();
    let cache_misses: u64 = report.windows.iter().map(|r| r.fused_cache_misses).sum();
    let (dev_hits, dev_misses) = device.fused_cache_stats();
    assert!(dev_misses > 0, "cold preparation measures fused candidates");
    assert_eq!((cache_hits, cache_misses), (dev_hits, dev_misses));
    for row in &report.windows {
        assert!(row.index * row.width().as_nanos() == row.start.as_nanos());
        assert!(
            row.busy <= row.width(),
            "busy time cannot exceed the window"
        );
        assert!(row.sm_utilization() <= 1.0 + 1e-9);
    }
    // Indices strictly increase (gaps where windows were empty are fine).
    for pair in report.windows.windows(2) {
        assert!(pair[0].index < pair[1].index);
    }

    // Every collected row was also emitted as a WindowStats trace event,
    // in the same order.
    let emitted: Vec<_> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::WindowStats { row } => Some(row),
            _ => None,
        })
        .collect();
    assert_eq!(emitted, report.windows);

    // The JSONL exporter round-trips through the summarizer.
    let jsonl = timeseries_jsonl(&report.windows);
    assert_eq!(jsonl.lines().count(), report.windows.len());
    summarize(&jsonl).expect("summarize(jsonl) succeeds");
    summarize("not-a-metrics-file").expect_err("junk is rejected");
}

/// Cold pair preparation happens inside decisions even when no fusion is
/// ever accepted: with a QoS target too tight for any headroom, every
/// decision runs the LC kernel, yet the fused candidates measured while
/// preparing pairs must still land in the windows.
#[test]
fn windows_count_fused_cache_traffic_of_unaccepted_pairs() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = drill_lc();
    let be = drill_be();
    let mut config = ExperimentConfig::default().with_queries(4).with_seed(3);
    config.qos_target = SimTime::from_micros(1);
    let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
        .expect("run")
        .policy(Policy::Tacker)
        .windowed(SimTime::from_millis(1))
        .run()
        .expect("run");
    assert_eq!(report.fused_launches, 0, "no headroom, no fusion");
    let misses: u64 = report.windows.iter().map(|r| r.fused_cache_misses).sum();
    let hits: u64 = report.windows.iter().map(|r| r.fused_cache_hits).sum();
    let (dev_hits, dev_misses) = device.fused_cache_stats();
    assert!(dev_misses > 0, "decisions prepared fused pairs");
    assert_eq!((hits, misses), (dev_hits, dev_misses));
}

#[test]
fn faulted_run_attributes_every_violation() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    // The tiny drill service never violates even under heavy faults; the
    // `gates serve` fault-drill workload (Resnet50 + fft) reliably does.
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("Resnet50");
    let be = drill_be();
    let config = ExperimentConfig::default()
        .with_queries(60)
        .with_seed(11)
        .with_load(0.95);
    let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
        .expect("run")
        .policy(Policy::Tacker)
        .arrivals(ArrivalSpec::Poisson)
        .faults(FaultPlan::mispredicting(1.5, 0.2).with_seed(11))
        .guarded(GuardConfig::default())
        .run()
        .expect("run");

    assert!(
        report.qos_violations() > 0,
        "the drill must actually violate"
    );
    assert_eq!(
        report.violation_log.len(),
        report.qos_violations(),
        "one attribution record per violation"
    );
    for rec in &report.violation_log {
        assert_eq!(rec.service, "Resnet50");
        assert!(rec.latency > rec.target, "recorded latency must breach QoS");
        assert!(rec.guard_level.is_some(), "guarded run records the rung");
        let json = rec.to_json();
        assert!(json.contains("\"service\":\"Resnet50\""), "{json}");
        assert!(json.contains("\"queue_depth\":"), "{json}");
    }
    assert!(
        report.violation_log.iter().any(|r| !r.faults.is_empty()),
        "under this fault plan some violation names the faults in flight"
    );
    // The guard stepped at least once under this fault plan, and each
    // step left an audit record.
    assert!(report.guard_steps > 0);
    assert_eq!(report.guard_log.len(), report.guard_steps as usize);
    for audit in &report.guard_log {
        assert!(audit.from != audit.to, "audit records real transitions");
        assert!(!audit.reason.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Telemetry purity: observers never change scheduling
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A zero-fault windowed + sketch-limited serve still reproduces the
    /// batch run bit for bit: telemetry options are pure observers.
    #[test]
    fn windowed_zero_fault_serve_is_still_the_batch_run(
        seed in 0u64..500,
        window_us in 1u64..5_000,
    ) {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let lc = drill_lc();
        let be = drill_be();
        let config = ExperimentConfig::default().with_queries(10).with_seed(seed);
        let batch = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
            .expect("batch").policy(Policy::Tacker).run().expect("batch");
        let serve = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
            .expect("serve")
            .policy(Policy::Tacker)
            .arrivals(ArrivalSpec::Poisson)
            .faults(FaultPlan::none())
            .windowed(SimTime::from_micros(window_us))
            .run()
            .expect("serve");
        prop_assert_eq!(batch.query_latencies(), serve.query_latencies());
        prop_assert_eq!(batch.wall, serve.wall);
        prop_assert_eq!(batch.fused_launches, serve.fused_launches);
        prop_assert!(!serve.windows.is_empty());

        // Per-service sketches merged together equal the run-level stats
        // sketch — determinism pinned end to end.
        let mut merged = QuantileSketch::new();
        for svc in serve.per_service() {
            merged.merge(&svc.latency.to_sketch());
        }
        prop_assert!(merged == serve.latency.to_sketch());
    }
}

// ---------------------------------------------------------------------------
// Pinned bytes: a faulted run and the replays
// ---------------------------------------------------------------------------

/// Hashes everything a run reports: its `Debug` rendering and Prometheus
/// text, each window row and timeline entry, and every trace event's JSON.
fn run_digest(hash: &mut StableHasher, report: &RunReport, events: &[TraceEvent]) {
    hash.write_str(&format!("{report:?}\n{}", report.prometheus_text()));
    for row in &report.windows {
        hash.write_str(&row.to_json());
    }
    for entry in report.timeline.iter().flat_map(|tl| tl.entries()) {
        hash.write_str(&format!("{entry:?}"));
    }
    for ev in events {
        hash.write_str(&ev.to_json());
    }
}

/// The solo time of one drill query on a fresh device.
fn drill_solo() -> SimTime {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let profiler = tacker::KernelProfiler::new(device);
    tacker::server::solo_query_duration(&profiler, &drill_lc()).expect("solo")
}

/// A traced Tacker run of the drill pair under every fault class at once
/// (mispredictions, stragglers, two BE floods, a predictor outage), with
/// the guard, windows and the timeline on, is pinned byte for byte: the
/// loop's per-launch bookkeeping (spans, retire events, guard
/// observations, fault scaling, timeline) must not move.
#[test]
fn faulted_drill_run_bytes_are_pinned() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = drill_lc();
    let be = drill_be();
    let solo = drill_solo();
    let mut config = ExperimentConfig::default()
        .with_queries(24)
        .with_seed(17)
        .with_timeline();
    config.qos_target = solo.mul_f64(12.0);
    let faults = FaultPlan::mispredicting(1.6, 0.5)
        .with_straggler(2.0, 0.15)
        .with_flood(solo.mul_f64(3.0), 5)
        .with_flood(solo.mul_f64(11.0), 3)
        .with_outage(solo.mul_f64(6.0), solo.mul_f64(5.0))
        .with_seed(23);
    let sink: Arc<RingSink> = Arc::new(RingSink::unbounded());
    let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &be)
        .expect("run")
        .policy(Policy::Tacker)
        .at(solo.mul_f64(4.0))
        .faults(faults)
        .guarded(GuardConfig::default())
        .windowed(SimTime::from_micros(500))
        .traced(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .run()
        .expect("run");
    // Every launch arm and fault class is exercised.
    assert!(report.fused_launches > 0, "fused launches");
    assert!(report.reordered_launches > 0, "reordered BE launches");
    assert!(report.guard_steps > 0, "guard steps");
    let events = sink.events();
    for kind in ["mispredict", "straggler", "be_flood", "predictor_outage"] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::FaultInjected { kind: k, .. } if &**k == kind)),
            "no {kind} fault injected"
        );
    }
    let mut hash = StableHasher::new();
    run_digest(&mut hash, &report, &events);
    assert_eq!(
        hash.finish(),
        16_190_780_787_989_293_496,
        "faulted drill run drifted"
    );
}

/// The digest of two untraced zero-fault runs with windows and the
/// timeline on, under the guard or without it: an LC-only run at a
/// queueing load and a Tacker run with BE work and idle gaps.
fn replayed_runs_digest(guarded: bool) -> u64 {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = drill_lc();
    let solo = drill_solo();
    let mut config = ExperimentConfig::default()
        .with_queries(40)
        .with_seed(29)
        .with_timeline();
    config.qos_target = solo.mul_f64(3.0);
    let run = |bes: &[BeApp], gap: f64| {
        let mut run = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), bes)
            .expect("run")
            .policy(Policy::Tacker)
            .at(solo.mul_f64(gap))
            .windowed(SimTime::from_micros(500));
        if guarded {
            run = run.guarded(GuardConfig::default());
        }
        run.run().expect("run")
    };
    let busy = run(&[], 0.8);
    let idle = run(&drill_be(), 3.0);
    assert!(busy.violation_log.iter().any(|v| v.queue_depth > 0));
    assert!(idle.be_kernels > idle.fused_launches + idle.reordered_launches);
    let mut hash = StableHasher::new();
    run_digest(&mut hash, &busy, &[]);
    run_digest(&mut hash, &idle, &[]);
    hash.finish()
}

/// [`replayed_runs_digest`] under the guard, pinned byte for byte. A
/// guard turns the replays off, so both runs decide every kernel.
#[test]
fn replayed_run_bytes_are_pinned() {
    assert_eq!(
        replayed_runs_digest(true),
        3_406_979_854_237_126_045,
        "replayed runs drifted"
    );
}

/// [`replayed_runs_digest`] without the guard, pinned byte for byte: the
/// busy-period segments serve the LC-only run, and the idle segments the
/// Tacker run's idle periods, while feeding the windows and the timeline
/// every kernel the decision loop would.
#[test]
fn windowed_segment_run_bytes_are_pinned() {
    assert_eq!(
        replayed_runs_digest(false),
        9_164_469_313_518_040_009,
        "windowed segment runs drifted"
    );
}
