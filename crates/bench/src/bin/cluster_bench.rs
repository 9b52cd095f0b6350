//! Wall-clock benchmark of fleet-scale serving: the same workload served
//! by one device and by two devices, timed in host wall-clock, plus a
//! per-dispatch-policy comparison in the simulated domain. Seeds the
//! repo's perf trajectory as `results/BENCH_cluster.json`.
//!
//! Methodology:
//!
//! * **Identity gate** (always asserted): a fleet of one node with zero
//!   dispatch latency must reproduce the single-device `ColocationRun`
//!   bit for bit — same latencies, wall, busy time and BE accounting.
//!   The scaling numbers are only meaningful on top of that equivalence.
//! * **Scaling**: the same two-service workload is served by one and by
//!   two identical RTX 2080 Ti nodes. Total queries are fixed, so the
//!   host-wall ratio *is* the aggregate warm-query throughput ratio
//!   (queries per second of host time). Each configuration is timed
//!   twice after a calibration warm-up and the minimum is kept.
//! * **Serial fallback**: per-device engines fan out over the
//!   `tacker-par` pool; on a single-core host (or `jobs = 1`) both
//!   configurations execute serially, the ratio would only measure
//!   noise, and the speedup is reported as `1.0` by construction with
//!   `serial_fallback: true` recorded in the artifact — mirroring
//!   `sweep_bench`.
//! * **Policy comparison**: a heterogeneous four-node fleet (2080 Ti /
//!   V100 alternating) runs once per dispatch policy over identical
//!   arrival streams; the JSON records violation rate, p99, load-balance
//!   skew and per-device utilization per policy. These are simulated-
//!   domain numbers — host timing plays no part.
//!
//! Provenance: the JSON records `host_cores`, the requested worker count,
//! the count the two-device fleet actually uses
//! ([`FleetRun::jobs_used`]: 1 when it serves inline), and the fallback
//! flag, so the artifact explains its own gate.
//!
//! Usage: `cargo run --release -p tacker-bench --bin cluster_bench
//! [-- <out.json>] [-- --check]` (default `results/BENCH_cluster.json`).
//! `--check` exits non-zero if the identity gate fails or the 1→2 device
//! throughput ratio misses the floor for the host class (≥ 1.8 at 4+
//! cores, ≥ 1.0 below — always met under the serial fallback).

use std::sync::Arc;
use std::time::Instant;

use tacker::fleet::{heterogeneous_fleet, DispatchPolicy, FleetNode, FleetReport, FleetRun};
use tacker::prelude::*;
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::LcService;

const LC_NAMES: [&str; 2] = ["Resnet50", "VGG16"];
const QUERIES: usize = 30;
const SEED: u64 = 0x7ac4e2;

fn services() -> Vec<LcService> {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    LC_NAMES
        .iter()
        .map(|n| tacker_workloads::lc_service(n, &device).expect("LC service"))
        .collect()
}

fn config(jobs: usize) -> ExperimentConfig {
    ExperimentConfig::default()
        .with_queries(QUERIES)
        .with_seed(SEED)
        .with_jobs(jobs)
}

fn homogeneous(n: usize) -> Vec<FleetNode> {
    (0..n)
        .map(|i| FleetNode::new(format!("gpu-{i}"), GpuSpec::rtx2080ti()))
        .collect()
}

fn run_fleet(devices: usize, jobs: usize, lcs: &[LcService]) -> (FleetReport, f64) {
    let start = Instant::now();
    let report = FleetRun::new(homogeneous(devices), &config(jobs), lcs)
        .expect("fleet")
        .run()
        .expect("fleet");
    (report, start.elapsed().as_secs_f64() * 1e3)
}

/// The identity gate: fleet-of-1 with zero dispatch latency reproduces
/// the single-device serving runtime bit for bit.
fn identity_gate(lcs: &[LcService]) {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let solo = ColocationRun::new(&device, &config(1), lcs, &[])
        .expect("solo")
        .run()
        .expect("solo");
    let fleet = FleetRun::new(homogeneous(1), &config(1), lcs)
        .expect("fleet")
        .run()
        .expect("fleet");
    let dev = fleet.devices[0].report.as_ref().expect("device ran");
    assert_eq!(
        dev.query_latencies(),
        solo.query_latencies(),
        "identity gate: fleet-of-1 latencies diverged from single-device serve"
    );
    assert_eq!(dev.qos_violations(), solo.qos_violations());
    assert_eq!(dev.wall, solo.wall);
    assert_eq!(dev.busy, solo.busy);
    assert_eq!(dev.fused_launches, solo.fused_launches);
    assert_eq!(fleet.mean_latency(), solo.mean_latency());
    assert_eq!(fleet.p99_latency(), solo.p99_latency());
}

fn policy_rows(lcs: &[LcService], jobs: usize) -> Vec<String> {
    let run = FleetRun::new(heterogeneous_fleet(4), &config(jobs), lcs).expect("fleet");
    let rows = run.run_policies(&DispatchPolicy::ALL).expect("policies");
    rows.iter()
        .map(|(policy, r)| {
            let per_device: Vec<String> = r
                .devices
                .iter()
                .map(|d| {
                    format!(
                        "{{\"id\": \"{}\", \"gpu\": \"{}\", \"queries\": {}, \
                         \"utilization\": {:.4}, \"sim_qps\": {:.1}}}",
                        d.id,
                        d.gpu,
                        d.queries,
                        d.utilization(),
                        d.sim_queries_per_sec()
                    )
                })
                .collect();
            format!(
                "    {{\"policy\": \"{}\", \"violation_rate\": {:.4}, \
                 \"p99_ms\": {:.3}, \"skew\": {:.3}, \"max_outstanding\": {}, \
                 \"sim_qps\": {:.1}, \"devices\": [{}]}}",
                policy.name(),
                r.violation_rate(),
                r.p99_latency().map_or(0.0, |t| t.as_millis_f64()),
                r.outstanding_skew(),
                r.outstanding_max,
                r.sim_queries_per_sec(),
                per_device.join(", ")
            )
        })
        .collect()
}

fn main() {
    let mut out = "results/BENCH_cluster.json".to_string();
    let mut check = false;
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out = arg;
        }
    }
    let host_cores = tacker_par::available_jobs();
    let jobs_requested = host_cores.max(2);
    // Two device tasks at most: the pool runs min(jobs, cores, devices)
    // workers, so a single-core host executes both configurations on the
    // identical serial path.
    let serial_fallback = jobs_requested.min(host_cores).min(2) <= 1;

    let lcs = services();
    let jobs_used = FleetRun::new(homogeneous(2), &config(jobs_requested), &lcs)
        .expect("fleet")
        .jobs_used();

    eprintln!("identity gate (fleet-of-1 == single device) ...");
    identity_gate(&lcs);

    // Warm-up: populate the process-global calibration cache so neither
    // timed configuration pays it for the other.
    eprintln!("warm-up (calibration) ...");
    let _ = run_fleet(2, jobs_requested, &lcs);

    eprintln!("timing 1 device ...");
    let (report_1, ms_1a) = run_fleet(1, jobs_requested, &lcs);
    let (_, ms_1b) = run_fleet(1, jobs_requested, &lcs);
    let wall_1 = ms_1a.min(ms_1b);
    eprintln!("timing 2 devices (jobs used: {jobs_used}) ...");
    let (report_2, ms_2a) = run_fleet(2, jobs_requested, &lcs);
    let (_, ms_2b) = run_fleet(2, jobs_requested, &lcs);
    let wall_2 = ms_2a.min(ms_2b);

    let total_queries = report_1.query_count();
    assert_eq!(
        total_queries,
        report_2.query_count(),
        "both configurations must serve the same workload"
    );
    // Same total queries in both configurations: the host-wall ratio is
    // the aggregate warm-query throughput ratio. 1.0 by construction
    // under the serial fallback (both configs ran the same serial path).
    let throughput_ratio = if serial_fallback {
        1.0
    } else {
        wall_1 / wall_2.max(1e-9)
    };
    let qps_1 = total_queries as f64 / (wall_1 / 1e3).max(1e-9);
    let qps_2 = total_queries as f64 / (wall_2 / 1e3).max(1e-9);

    eprintln!("policy comparison (4-device heterogeneous fleet) ...");
    let policies = policy_rows(&lcs, jobs_requested);

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"cluster_serve\",\n",
            "  \"workload\": {{\"lc\": {lc:?}, \"queries_per_service\": {queries}, ",
            "\"seed\": {seed}}},\n",
            "  \"host_cores\": {cores},\n",
            "  \"jobs_requested\": {requested},\n",
            "  \"jobs_used\": {used},\n",
            "  \"serial_fallback\": {fallback},\n",
            "  \"identity_gate\": \"passed\",\n",
            "  \"wall_ms_1_device\": {w1:.1},\n",
            "  \"wall_ms_2_devices\": {w2:.1},\n",
            "  \"host_queries_per_sec_1_device\": {qps1:.1},\n",
            "  \"host_queries_per_sec_2_devices\": {qps2:.1},\n",
            "  \"throughput_ratio_1_to_2\": {ratio:.2},\n",
            "  \"policies\": [\n{policies}\n  ]\n",
            "}}\n"
        ),
        lc = LC_NAMES,
        queries = QUERIES,
        seed = SEED,
        cores = host_cores,
        requested = jobs_requested,
        used = jobs_used,
        fallback = serial_fallback,
        w1 = wall_1,
        w2 = wall_2,
        qps1 = qps_1,
        qps2 = qps_2,
        ratio = throughput_ratio,
        policies = policies.join(",\n"),
    );
    std::fs::write(&out, &json).expect("write BENCH_cluster.json");
    print!("{json}");
    eprintln!(
        "1 device: {wall_1:.0} ms, 2 devices: {wall_2:.0} ms \
         ({throughput_ratio:.2}x throughput on {host_cores} core(s)); wrote {out}"
    );

    if check {
        let floor = if host_cores >= 4 { 1.8 } else { 1.0 };
        assert!(
            throughput_ratio >= floor,
            "--check: 1→2 device throughput ratio {throughput_ratio:.2} is under the \
             {floor:.1}x floor for a {host_cores}-core host"
        );
        eprintln!(
            "--check passed: identity gate ok, throughput ratio {throughput_ratio:.2} >= \
             {floor:.1} on {host_cores} core(s)"
        );
    }
}
