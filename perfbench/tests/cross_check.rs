//! Tests of the benchmark itself, at a small size: the trace-derived
//! counts must equal the program's own report counters, the attributed
//! layer times plus `serve.other_s` must add up to the traced wall time,
//! and the metric lists must match `BENCHMARK.json`.

use std::sync::Arc;

use tacker::{heterogeneous_fleet, ColocationRun, ExperimentConfig, FleetRun, Policy};
use tacker_perfbench::attrib::LayerSink;
use tacker_perfbench::common::{LayerValues, END_TO_END, PER_LAYER};
use tacker_perfbench::host;
use tacker_perfbench::traced_layers;
use tacker_sim::{Device, GpuSpec};

fn config() -> ExperimentConfig {
    ExperimentConfig::default()
        .with_queries(40)
        .with_seed(42)
        .with_jobs(1)
}

/// `serve.other_s` closes the books: wall = attributed + other, and it
/// matches the time the sink itself left unattributed.
fn assert_adds_up(v: &LayerValues, a: &tacker_perfbench::attrib::Attribution, wall: f64) {
    let m = v.metrics();
    let get = |n: &str| m.get(n).expect("metric present");
    let parts = [
        "manager.decide_s",
        "sim.device.run_s",
        "predictor.refit_s",
        "serve.account_s",
        "fleet.prepare_s",
        "fleet.dispatch_s",
        "fleet.replay_s",
        "serve.other_s",
    ];
    let sum: f64 = parts.iter().map(|p| get(p)).sum();
    assert!(
        (sum - wall).abs() <= 1e-9 * wall.max(1.0),
        "{sum} != {wall}"
    );
    let other = get("serve.other_s") + get("fleet.replay_s");
    assert!(other >= 0.0, "attributed more than the wall time: {other}");
    // The only time outside the sink's view is the timing wrapper itself
    // (microseconds; the margin absorbs a preemption on a loaded host).
    assert!(
        (other - a.unattributed_s).abs() < 0.05,
        "other {other} vs sink-unattributed {}",
        a.unattributed_s
    );
}

#[test]
fn colocation_trace_counts_match_the_report() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("Resnet50");
    let be = tacker_workloads::be_app("cutcp").expect("cutcp");
    let sink = Arc::new(LayerSink::default());
    let (r, wall, _) = host::timed(|| {
        sink.begin();
        let r = ColocationRun::new(&device, &config(), &[lc], &[be])
            .expect("run")
            .policy(Policy::Tacker)
            .traced(sink.clone())
            .run()
            .expect("run");
        sink.end();
        r
    });
    let a = sink.snapshot();
    assert!(r.fused_launches > 0, "the pair fuses");
    assert_eq!(a.fused, r.fused_launches);
    assert_eq!(a.refreshes, r.model_refreshes);
    assert_eq!(a.completed as usize, r.query_count());
    assert_eq!(r.query_count(), 40);
    let mut v = LayerValues::default();
    traced_layers(&mut v, &a, wall, r.model_refreshes, 0.0);
    assert_adds_up(&v, &a, wall);
}

#[test]
fn fleet_trace_counts_match_the_report() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lcs: Vec<_> = ["Resnet50", "VGG16"]
        .iter()
        .map(|n| tacker_workloads::lc_service(n, &device).expect("LC"))
        .collect();
    let sink = Arc::new(LayerSink::default());
    let (r, wall, _) = host::timed(|| {
        sink.begin();
        let r = FleetRun::new(heterogeneous_fleet(2), &config(), &lcs)
            .expect("fleet")
            .device_policy(Policy::LcOnly)
            .traced(sink.clone())
            .run()
            .expect("fleet");
        sink.end();
        r
    });
    let a = sink.snapshot();
    assert_eq!(r.query_count(), 80);
    assert_eq!(a.dispatched as usize, r.query_count());
    let mut v = LayerValues::default();
    traced_layers(&mut v, &a, wall, 0, a.last_tail_s);
    assert_adds_up(&v, &a, wall);
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let end = body.find(']').expect("array ends");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted").to_string())
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(&json, "end_to_end"), e2e);
    assert_eq!(names(&json, "per_layer"), layers);
    assert_eq!(names(&json, "workloads"), ["grid", "colocate", "fleet"]);
}
