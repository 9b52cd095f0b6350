//! Cluster gate: fleet-scale serving timed in host wall-clock, plus a
//! per-dispatch-policy comparison in the simulated domain.
//!
//! * **Identity**: a fleet of one node with zero dispatch latency must
//!   reproduce the single-device `ColocationRun` bit for bit; the scaling
//!   number is only meaningful on top of that equivalence.
//! * **Scaling**: the same two-service workload on one and on two RTX
//!   2080 Ti nodes. Total queries are fixed, so the host-wall ratio *is*
//!   the throughput ratio. On a single-core host both configurations run
//!   serially, so the ratio is 1.0 by construction. On a multi-core host
//!   the two devices serve side by side on the pool
//!   ([`FleetRun::jobs_used`] reads 2), and the ratio counts.
//! * **Policies**: a heterogeneous four-node fleet runs once per dispatch
//!   policy over identical arrival streams (simulated-domain numbers).

use tacker::fleet::{heterogeneous_fleet, DispatchPolicy, FleetNode, FleetReport, FleetRun};
use tacker::prelude::*;
use tacker_sim::GpuSpec;
use tacker_workloads::LcService;

use crate::Bound::AtLeast;
use crate::{best_time, Gate, Json, Report};

const LC_NAMES: [&str; 2] = ["Resnet50", "VGG16"];
const QUERIES: usize = 30;
const SEED: u64 = 0x7ac4e2;

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

fn run_fleet(devices: usize, jobs: usize, lcs: &[LcService]) -> FleetReport {
    FleetRun::new(homogeneous(devices), &config(jobs), lcs)
        .expect("fleet")
        .run()
        .expect("fleet")
}

/// Fleet-of-1 with zero dispatch latency reproduces the single-device
/// serving runtime bit for bit.
fn fleet_of_one_identity(lcs: &[LcService]) -> bool {
    let device = tacker_bench::rtx2080ti();
    let solo = ColocationRun::new(&device, &config(1), lcs, &[])
        .expect("solo")
        .run()
        .expect("solo");
    let fleet = run_fleet(1, 1, lcs);
    let dev = fleet.devices[0].report.as_ref().expect("device ran");
    dev.query_latencies() == solo.query_latencies()
        && dev.qos_violations() == solo.qos_violations()
        && dev.wall == solo.wall
        && dev.busy == solo.busy
        && dev.fused_launches == solo.fused_launches
        && fleet.mean_latency() == solo.mean_latency()
        && fleet.p99_latency() == solo.p99_latency()
}

fn policy_rows(lcs: &[LcService], jobs: usize) -> Vec<Json> {
    let run = FleetRun::new(heterogeneous_fleet(4), &config(jobs), lcs).expect("fleet");
    let rows = run.run_policies(&DispatchPolicy::ALL).expect("policies");
    rows.iter()
        .map(|(policy, r)| {
            let devices: Vec<_> = r
                .devices
                .iter()
                .map(|d| {
                    obj! {"id": d.id.as_str(), "gpu": d.gpu.to_string(), "queries": d.queries,
                    "utilization": d.utilization(), "sim_qps": d.sim_queries_per_sec()}
                })
                .collect();
            obj! {
                "policy": policy.name(),
                "violation_rate": r.violation_rate(),
                "p99_ms": r.p99_latency().map_or(0.0, |t| t.as_millis_f64()),
                "skew": r.outstanding_skew(),
                "max_outstanding": r.outstanding_max,
                "sim_qps": r.sim_queries_per_sec(),
                "devices": devices,
            }
        })
        .collect()
}

pub fn run() -> Report {
    let host_cores = tacker_par::available_jobs();
    let jobs_requested = host_cores.max(2);
    // Two device tasks at most: the pool runs min(jobs, cores, devices)
    // workers, so a single-core host executes both configurations on the
    // identical serial path.
    let serial_fallback = jobs_requested.min(host_cores).min(2) <= 1;

    let device = tacker_bench::rtx2080ti();
    let lc = |n: &&str| tacker_workloads::lc_service(n, &device).expect("LC service");
    let lcs: Vec<LcService> = LC_NAMES.iter().map(lc).collect();
    let jobs_used = FleetRun::new(homogeneous(2), &config(jobs_requested), &lcs)
        .expect("fleet")
        .jobs_used();

    eprintln!("identity (fleet-of-1 == single device) ...");
    let identical = fleet_of_one_identity(&lcs);

    eprintln!("timing 1 and 2 devices (jobs used: {jobs_used}) ...");
    let (secs_1, report_1) = best_time(|| (), |()| run_fleet(1, jobs_requested, &lcs));
    let (secs_2, report_2) = best_time(|| (), |()| run_fleet(2, jobs_requested, &lcs));
    let total_queries = report_1.query_count();
    assert_eq!(
        total_queries,
        report_2.query_count(),
        "both configurations must serve the same workload"
    );
    let throughput_ratio = if serial_fallback {
        1.0
    } else {
        secs_1 / secs_2.max(1e-12)
    };
    let floor = if host_cores >= 4 { 1.8 } else { 1.0 };

    eprintln!("policy comparison (4-device heterogeneous fleet) ...");
    Report {
        jobs: (jobs_requested, jobs_used),
        gates: vec![
            Gate::holds("fleet_of_one_identity", identical),
            Gate("throughput_ratio_1_to_2", throughput_ratio, AtLeast(floor)),
        ],
        fields: members![
            "workload": obj! {"lc": LC_NAMES.to_vec(), "queries_per_service": QUERIES,
                "seed": SEED},
            "serial_fallback": serial_fallback,
            "wall_ms_1_device": secs_1 * 1e3,
            "wall_ms_2_devices": secs_2 * 1e3,
            "host_queries_per_sec_1_device": total_queries as f64 / secs_1,
            "host_queries_per_sec_2_devices": total_queries as f64 / secs_2,
            "policies": policy_rows(&lcs, jobs_requested),
        ],
    }
}
