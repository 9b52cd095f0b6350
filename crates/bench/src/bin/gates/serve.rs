//! Serve gate: the adaptive QoS guard must earn its keep, and the
//! telemetry and steady-state paths must stay cheap.
//!
//! The drill co-locates Resnet50 with fft at high load and injects a
//! duration-misprediction fault (predictions low by 1.5x on 20% of the LC
//! kernels — the §V-B failure mode Tacker's gate is most sensitive to).
//! Mispredictions make the Equation 8/9 headroom check optimistic, so the
//! unguarded runtime keeps fusing into headroom it does not have and
//! violates QoS. The guard watches the predicted-vs-actual error per
//! kernel, inflates its safety margin, and steps down the degradation
//! ladder (fuse → reorder-only → LC-only) until pressure subsides. The
//! drill is meaningless unless the guard stepped and faults were
//! injected, so both are gates too.

use std::sync::Arc;
use std::time::Instant;

use tacker::prelude::*;
use tacker_kernel::SimTime;
use tacker_sim::Device;
use tacker_trace::{timeseries_jsonl, RingSink, TraceEvent, TraceSink};
use tacker_workloads::{BeApp, LcService};

use crate::Bound::{AtLeast, AtMost, Below, Within};
use crate::{best_time, Gate, Json, Report};

const QUERIES: usize = 60;
const SEEDS: [u64; 3] = [11, 29, 47];
const MISPREDICT_MULTIPLIER: f64 = 1.5;
const MISPREDICT_FRACTION: f64 = 0.2;
const LOAD: f64 = 0.95;
/// The telemetry overhead gate (per cent of the plain run's time).
const TELEMETRY_OVERHEAD_GATE_PCT: f64 = 3.0;
/// The sketch-vs-exact p99 gate (relative error).
const SKETCH_P99_GATE: f64 = 0.01;
/// Pinned pre-fast-path steady-state throughput (queries/s): best of
/// three invocations of this exact scenario (tiny two-kernel service,
/// 700µs spacing, sketch-mode latency, no BE) at commit 905ea47 on the
/// reference host. The best observed run is pinned — a conservative
/// floor for the speedup gate.
const BASELINE_STEADY_QPS: f64 = 603_191.0;
/// Steady-state throughput must clear this multiple of the baseline.
const STEADY_SPEEDUP_FLOOR: f64 = 3.0;
/// Queries per timed steady-state run.
const STEADY_QUERIES: usize = 20_000;
/// Flatness bounds on memory when the query count grows 100×.
const FLAT: (f64, f64) = (0.9, 1.1);

/// A run of `lc` against `be` on `device`, under Tacker (the default).
fn colocate<'a>(
    device: &'a Arc<Device>,
    config: &ExperimentConfig,
    lc: &LcService,
    be: &[BeApp],
) -> ColocationRun<'a> {
    ColocationRun::new(device, config, std::slice::from_ref(lc), be).expect("serve gate run")
}

fn drill_config(seed: u64) -> ExperimentConfig {
    tacker_bench::eval_config()
        .with_queries(QUERIES)
        .with_seed(seed)
        .with_load(LOAD)
}

fn drill_faults(seed: u64) -> FaultPlan {
    FaultPlan::mispredicting(MISPREDICT_MULTIPLIER, MISPREDICT_FRACTION).with_seed(seed)
}

/// A drill run's report and its guard-step, fault and violation trace
/// event counts.
type Drill = (RunReport, [u64; 3]);

fn drill(device: &Arc<Device>, lc: &LcService, be: &[BeApp], seed: u64, guarded: bool) -> Drill {
    let ring = Arc::new(RingSink::unbounded());
    let mut run = colocate(device, &drill_config(seed), lc, be)
        .faults(drill_faults(seed))
        .traced(ring.clone() as Arc<dyn TraceSink>);
    if guarded {
        run = run.guarded(GuardConfig::default());
    }
    let report = run.run().expect("drill");
    let events = ring.events();
    let count = |pred: fn(&TraceEvent) -> bool| events.iter().filter(|e| pred(e)).count() as u64;
    let events = [
        count(|e| matches!(e, TraceEvent::GuardStep { .. })),
        count(|e| matches!(e, TraceEvent::FaultInjected { .. })),
        count(|e| matches!(e, TraceEvent::QosViolation { .. })),
    ];
    (report, events)
}

/// Relative error of the sketch-mode p99 versus the exact p99 on the
/// faulted drill workload (guard off, first drill seed).
fn sketch_p99_rel_error(device: &Arc<Device>, lc: &LcService, be: &[BeApp]) -> f64 {
    let config = drill_config(SEEDS[0]);
    let p99 = |exact_limit: usize| {
        let run = colocate(device, &config, lc, be)
            .faults(drill_faults(SEEDS[0]))
            .latency_exact_limit(exact_limit);
        run.run()
            .expect("accuracy run")
            .p99_latency()
            .expect("p99")
            .as_nanos() as f64
    };
    let exact = p99(usize::MAX);
    (p99(0) - exact).abs() / exact
}

/// A sketch-mode serve of `n` warm queries of `lc` at a comfortable
/// 700µs spacing (every query alone in flight, served by the busy-period
/// replay), with no BE; `replayed` feeds the arrivals as a trace.
fn steady_run(device: &Arc<Device>, lc: &LcService, n: usize, replayed: bool) -> RunReport {
    let config = tacker_bench::eval_config().with_queries(n).with_seed(5);
    let mut run = colocate(device, &config, lc, &[])
        .at(SimTime::from_micros(700))
        .latency_exact_limit(0);
    if replayed {
        let arrivals = (0..n).map(|i| SimTime::from_micros(1 + 700 * i as u64));
        run = run.arrivals(ArrivalSpec::Replay(vec![arrivals.collect()]));
    }
    let report = run.run().expect("steady run");
    assert_eq!(report.query_count(), n, "steady queries must complete");
    report
}

/// A tiny service for the bounded-memory checks: two kernels per query,
/// everything memoized after the first query.
fn tiny_lc() -> LcService {
    use tacker_workloads::{dnn, gemm};
    let gemm_kernel = gemm::gemm_workload(
        &dnn::compile::shared_gemm(),
        gemm::GemmShape::new(2048, 1024, 512),
    );
    let relu = dnn::elementwise::elementwise_workload(&dnn::elementwise::relu(), 4_000_000);
    LcService::new("tiny", 8, vec![gemm_kernel, relu])
}

/// Overhead (per cent) of the in-engine telemetry path — windowed
/// time-series plus sketch-mode latency stats — versus the plain NoopSink
/// run, plus the cost in milliseconds of rendering both exporters from
/// the final report.
///
/// Measured as a paired-difference test: each iteration times one plain
/// run and one telemetry run back to back (alternating order), and the
/// statistic is the *median of the per-pair deltas* over the median plain
/// time. Pairing matters — the two runs of a pair share the same machine
/// epoch (frequency state, load, allocator layout), so slow drift cancels
/// inside every pair instead of landing on whichever side sampled the bad
/// seconds. Comparing marginal statistics (sums, medians, percentiles, or
/// the summed CPU-tick batches the Criterion trace gate uses for its much
/// larger 2% budget) swings several per cent between invocations at this
/// resolution, which would make a 3% gate flap on noise alone.
///
/// The exporter renders are deliberately outside the gated loop: they run
/// once per serve invocation when `--metrics-out`/`--timeseries-out` is
/// given, not once per query, so amplifying them per run would gate a
/// cost nobody pays on the hot path. Their price is still reported.
fn telemetry_overhead_pct(device: &Arc<Device>, lc: &LcService, be: &[BeApp]) -> (f64, f64) {
    let config = tacker_bench::eval_config().with_queries(20).with_seed(7);
    let run = |telemetry: bool| {
        let mut run = colocate(device, &config, lc, be);
        if telemetry {
            run = run.windowed(SimTime::from_millis(1)).latency_exact_limit(0);
        }
        std::hint::black_box(run.run().expect("telemetry run"))
    };
    // Warm the device's memoized simulations so neither path pays them.
    run(false);
    let report = run(true);
    let render = |()| (report.prometheus_text(), timeseries_jsonl(&report.windows));
    let (render_s, _) = best_time(|| (), render);
    let timed = |telemetry: bool| {
        let start = Instant::now();
        run(telemetry);
        start.elapsed().as_secs_f64()
    };
    const PAIRS: usize = 300;
    let mut plain_times = Vec::with_capacity(PAIRS);
    let mut deltas = Vec::with_capacity(PAIRS);
    for i in 0..PAIRS {
        let (p, t) = if i % 2 == 0 {
            let p = timed(false);
            (p, timed(true))
        } else {
            let t = timed(true);
            (timed(false), t)
        };
        plain_times.push(p);
        deltas.push(t - p);
    }
    plain_times.sort_by(f64::total_cmp);
    deltas.sort_by(f64::total_cmp);
    let (plain_med, delta_med) = (plain_times[PAIRS / 2], deltas[PAIRS / 2]);
    (100.0 * delta_med / plain_med, render_s * 1e3)
}

/// The process's peak resident set (VmHWM) in kB, from /proc. `None` off
/// Linux — the RSS gate is skipped there.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// A zero-fault serve must be the batch run, bit for bit.
fn zero_fault_identity(device: &Arc<Device>, lc: &LcService, be: &[BeApp]) -> bool {
    let config = tacker_bench::eval_config().with_queries(20).with_seed(7);
    let batch = colocate(device, &config, lc, be).run().expect("batch");
    let serve = colocate(device, &config, lc, be)
        .arrivals(ArrivalSpec::Poisson)
        .faults(FaultPlan::none())
        .guarded(GuardConfig::default())
        .run()
        .expect("serve");
    batch.query_latencies() == serve.query_latencies()
        && batch.be_work == serve.be_work
        && batch.wall == serve.wall
        && serve.guard_steps == 0
}

pub fn run() -> Report {
    let device = tacker_bench::rtx2080ti();
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("LC");
    let be = vec![tacker_workloads::be_app("fft").expect("BE")];

    eprintln!("zero-fault identity ...");
    let identical = zero_fault_identity(&device, &lc, &be);

    let (mut off, mut on) = (Vec::new(), Vec::new());
    for seed in SEEDS {
        eprintln!("drill seed {seed} (guard off, then on) ...");
        off.push(drill(&device, &lc, &be, seed, false));
        on.push(drill(&device, &lc, &be, seed, true));
    }
    let sum = |drills: &[Drill], f: &dyn Fn(&Drill) -> u64| drills.iter().map(f).sum::<u64>();
    let both = |f: &dyn Fn(&Drill) -> u64| sum(&off, f) + sum(&on, f);
    let queries = sum(&off, &|(r, _)| r.query_count() as u64);
    let violations = |drills| sum(drills, &|(r, _)| r.qos_violations() as u64);
    let (off_violations, on_violations) = (violations(&off), violations(&on));
    let (rate_off, rate_on) = (
        off_violations as f64 / queries as f64,
        on_violations as f64 / queries as f64,
    );
    let guard_steps = sum(&on, &|(r, _)| r.guard_steps);
    let events = |i: usize| move |(_, e): &Drill| e[i];
    let attribution: Vec<String> = off
        .iter()
        .chain(&on)
        .flat_map(|(r, _)| r.violation_log.iter().map(tacker::ViolationRecord::to_json))
        .collect();

    eprintln!("telemetry ...");
    let sketch_rel_err = sketch_p99_rel_error(&device, &lc, &be);
    let tiny = tiny_lc();
    let peak_bytes = |n| steady_run(&device, &tiny, n, true).latency.peak_bytes();
    let (peak_bytes_base, peak_bytes_100x) = (peak_bytes(50), peak_bytes(5000));
    let growth = peak_bytes_100x as f64 / peak_bytes_base as f64;
    let (overhead_pct, render_ms) = telemetry_overhead_pct(&device, &lc, &be);

    eprintln!("steady state ...");
    let steady = |()| steady_run(&device, &tiny, STEADY_QUERIES, false);
    let queries_per_sec = STEADY_QUERIES as f64 / best_time(|| (), steady).0;
    // RSS flatness at 100× queries: snapshot the peak RSS after a
    // 1,000-query steady run, grow the query count 100×, and require
    // the peak to stay within 10%. The high-water mark is monotonic, so
    // a pass means the big run allocated (almost) nothing new.
    steady_run(&device, &tiny, 1_000, false);
    let rss_base_kb = vm_hwm_kb();
    steady_run(&device, &tiny, 100_000, false);
    let rss_100x_kb = vm_hwm_kb();

    let mut gates = vec![
        Gate("guarded_violation_rate", rate_on, Below(rate_off)),
        Gate::holds("guard_stepped", guard_steps > 0 && sum(&on, &events(0)) > 0),
        Gate::holds(
            "faults_injected",
            both(&|(r, _)| r.faults_injected) > 0 && both(&events(1)) > 0,
        ),
        Gate::holds("zero_fault_serve_identical_to_batch", identical),
        Gate::holds(
            "violations_attributed",
            attribution.len() as u64 == off_violations + on_violations
                && attribution
                    .iter()
                    .all(|r| r.contains("\"service\":") && r.contains("\"queue_depth\":")),
        ),
        Gate("sketch_p99_rel_err", sketch_rel_err, Below(SKETCH_P99_GATE)),
        Gate("sketch_memory_growth", growth, Within(FLAT.0, FLAT.1)),
        Gate(
            "telemetry_overhead_pct",
            overhead_pct,
            Below(TELEMETRY_OVERHEAD_GATE_PCT),
        ),
        Gate(
            "steady_speedup_vs_baseline",
            queries_per_sec / BASELINE_STEADY_QPS,
            AtLeast(STEADY_SPEEDUP_FLOOR),
        ),
    ];
    if let (Some(base), Some(big)) = (rss_base_kb, rss_100x_kb) {
        let rss_growth = big as f64 / base.max(1) as f64;
        gates.push(Gate("rss_growth", rss_growth, AtMost(FLAT.1)));
    }
    Report {
        jobs: (1, 1),
        gates,
        fields: members![
            "scenario": obj! {"lc": "Resnet50", "be": "fft", "policy": "Tacker",
                "queries": QUERIES, "seeds": SEEDS.to_vec(), "load": LOAD},
            "fault_plan": obj! {"mispredict_multiplier": MISPREDICT_MULTIPLIER,
                "mispredict_fraction": MISPREDICT_FRACTION},
            "violation_rate_guard_off": rate_off,
            "violation_rate_guard_on": rate_on,
            "guard_steps": guard_steps,
            "faults_injected": both(&|(r, _)| r.faults_injected),
            "guard_final_levels": on.iter()
                .map(|(r, _)| r.guard_level.map_or("off", |l| l.name()))
                .collect::<Vec<_>>(),
            "trace_events": obj! {"guard_step": sum(&on, &events(0)),
                "fault_injected": both(&events(1)), "qos_violation": both(&events(2))},
            "telemetry": obj! {"export_render_ms": render_ms,
                "sketch_peak_bytes_base": peak_bytes_base,
                "sketch_peak_bytes_100x": peak_bytes_100x},
            "steady_state": obj! {"queries_per_sec": queries_per_sec,
                "baseline_queries_per_sec": BASELINE_STEADY_QPS,
                "rss_hwm_base_kb": rss_base_kb, "rss_hwm_100x_kb": rss_100x_kb},
            "attribution": attribution.into_iter().map(Json::Raw).collect::<Vec<_>>(),
        ],
    }
}
