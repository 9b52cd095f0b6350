//! Integration tests for the tracing layer: golden output of the Chrome
//! trace exporter and an end-to-end traced co-location run.

use std::sync::Arc;

use tacker::prelude::*;
use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_trace::{chrome_trace, DecisionKind, RingSink, TraceEvent, TraceSink};

// ---------------------------------------------------------------------------
// Chrome exporter golden test
// ---------------------------------------------------------------------------

/// A minimal JSON well-formedness checker (no serde in the workspace):
/// consumes one value and returns the rest of the input.
fn skip_json_value(s: &str) -> Result<&str, String> {
    let s = s.trim_start();
    let mut chars = s.char_indices();
    match chars.next().map(|(_, c)| c) {
        Some('{') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix('}') {
                return Ok(r);
            }
            loop {
                rest = skip_json_value(rest)?; // key
                rest = rest.trim_start().strip_prefix(':').ok_or("expected ':'")?;
                rest = skip_json_value(rest)?; // value
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest
                        .strip_prefix('}')
                        .ok_or("expected '}'".into())
                        .map_err(|e: String| e);
                }
            }
        }
        Some('[') => {
            let mut rest = s[1..].trim_start();
            if let Some(r) = rest.strip_prefix(']') {
                return Ok(r);
            }
            loop {
                rest = skip_json_value(rest)?;
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else {
                    return rest
                        .strip_prefix(']')
                        .ok_or("expected ']'".into())
                        .map_err(|e: String| e);
                }
            }
        }
        Some('"') => {
            let mut escaped = false;
            for (i, c) in chars {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    return Ok(&s[i + 1..]);
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            Ok(&s[end..])
        }
        _ => ["true", "false", "null"]
            .iter()
            .find_map(|lit| s.strip_prefix(lit))
            .ok_or_else(|| format!("unexpected token at {:?}", &s[..s.len().min(20)])),
    }
}

fn assert_valid_json(doc: &str) {
    let rest = skip_json_value(doc).expect("well-formed JSON");
    assert!(rest.trim().is_empty(), "trailing garbage: {rest:?}");
}

fn golden_events() -> Vec<TraceEvent> {
    vec![
        TraceEvent::Decision {
            at: SimTime::from_micros(5),
            kind: DecisionKind::Fuse,
            kernel: "fused_gemm_mriq".into(),
            headroom: SimTime::from_micros(100),
            reorder_headroom: SimTime::from_micros(60),
            predicted: SimTime::from_micros(40),
            x_tc: Some(SimTime::from_micros(30)),
            x_cd: Some(SimTime::from_micros(25)),
            t_lc: Some(SimTime::from_micros(30)),
            t_gain: Some(SimTime::from_micros(15)),
        },
        TraceEvent::KernelRetired {
            kernel: "fused_gemm_mriq".into(),
            label: "FUSED".into(),
            start: SimTime::from_micros(5),
            end: SimTime::from_micros(47),
            tc_util: 0.70,
            cd_util: 0.55,
            predicted: SimTime::from_micros(40),
            actual: SimTime::from_micros(42),
        },
        TraceEvent::QueryCompleted {
            service: "Resnet50".into(),
            arrival: SimTime::from_micros(1),
            latency: SimTime::from_micros(50),
            violated: false,
        },
    ]
}

/// The exporter's byte-exact output for a fixed event stream: field order,
/// metadata header, track assignment and the decision/retirement join are
/// all pinned.
#[test]
fn chrome_export_is_golden() {
    let golden = concat!(
        "{\"traceEvents\":[",
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"Tacker device\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"Tensor Cores\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"CUDA Cores\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"Scheduler\"}},",
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":4,\"args\":{\"name\":\"LC Queries\"}},",
        "{\"name\":\"decide:fuse\",\"cat\":\"scheduler\",\"ph\":\"i\",\"ts\":5.000,\"pid\":1,\"tid\":3,\"s\":\"t\",\"args\":{\"kind\":\"fuse\",\"kernel\":\"fused_gemm_mriq\",\"headroom_us\":100.000,\"predicted_us\":40.000,\"actual_us\":42.000,\"t_gain_us\":15.000}},",
        "{\"name\":\"fused_gemm_mriq\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":5.000,\"dur\":42.000,\"pid\":1,\"tid\":1,\"args\":{\"label\":\"FUSED\",\"tc_util\":0.700,\"cd_util\":0.550,\"predicted_us\":40.000,\"actual_us\":42.000}},",
        "{\"name\":\"fused_gemm_mriq\",\"cat\":\"kernel\",\"ph\":\"X\",\"ts\":5.000,\"dur\":42.000,\"pid\":1,\"tid\":2,\"args\":{\"label\":\"FUSED\",\"tc_util\":0.700,\"cd_util\":0.550,\"predicted_us\":40.000,\"actual_us\":42.000}},",
        "{\"name\":\"pipeline_utilization\",\"cat\":\"utilization\",\"ph\":\"C\",\"ts\":47.000,\"pid\":1,\"tid\":0,\"args\":{\"tensor\":0.700,\"cuda\":0.550}},",
        "{\"name\":\"query:Resnet50\",\"cat\":\"qos\",\"ph\":\"i\",\"ts\":51.000,\"pid\":1,\"tid\":4,\"s\":\"t\",\"args\":{\"latency_us\":50.000,\"violated\":false}}",
        "],\"displayTimeUnit\":\"ms\"}"
    );
    let json = chrome_trace(&golden_events());
    assert_eq!(json, golden);
    assert_valid_json(&json);
}

/// `ts` values of the exported timeline events are non-decreasing.
#[test]
fn chrome_export_timestamps_are_monotone() {
    let json = chrome_trace(&golden_events());
    let ts: Vec<f64> = json
        .match_indices("\"ts\":")
        .map(|(i, _)| {
            let rest = &json[i + 5..];
            let end = rest.find(',').unwrap();
            rest[..end].parse().unwrap()
        })
        .collect();
    assert!(!ts.is_empty());
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
}

/// JSON-lines serialization of every event variant is itself valid JSON.
#[test]
fn event_json_lines_are_valid_json() {
    for ev in golden_events() {
        assert_valid_json(&ev.to_json());
    }
}

// ---------------------------------------------------------------------------
// End-to-end traced co-location
// ---------------------------------------------------------------------------

/// A traced run records scheduler decisions and kernel retirements, and
/// the Chrome export carries a decision instant joining predicted and
/// actual durations — the acceptance shape for `--trace`.
#[test]
fn traced_colocation_exports_decisions_with_predicted_vs_actual() {
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = tacker_workloads::lc_service("Resnet50", &device).expect("service");
    let be = tacker_workloads::be_app("sgemm").expect("app");
    let config = ExperimentConfig::default().with_queries(8);
    let ring = Arc::new(RingSink::unbounded());
    let report = tacker::ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[be])
        .expect("traced run")
        .policy(Policy::Tacker)
        .traced(ring.clone() as Arc<dyn TraceSink>)
        .run()
        .expect("traced run");

    let events = ring.events();
    let decisions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Decision { .. }))
        .count();
    let retired = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::KernelRetired { .. }))
        .count();
    assert!(decisions > 0, "no decisions traced");
    assert!(retired > 0, "no retirements traced");
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::QueryCompleted { .. })));

    // The metrics mirror the stream: one decision counter tick per
    // decision event, and the exported latency summary counts every query.
    assert_eq!(report.metrics.counter("decisions").get(), decisions as u64);
    assert!(report.prometheus_text().contains(&format!(
        "tacker_query_latency_us_count {}\n",
        report.query_count()
    )));

    let json = chrome_trace(&events);
    assert_valid_json(&json);
    assert!(
        json.contains("\"cat\":\"scheduler\""),
        "no scheduler instants"
    );
    assert!(json.contains("\"ph\":\"X\""), "no kernel slices");
    // At least one decision instant joined to its retirement.
    let joined = json
        .split("\"cat\":\"scheduler\"")
        .skip(1)
        .filter(|chunk| {
            let args = &chunk[..chunk.find('}').map(|i| i + 1).unwrap_or(chunk.len())];
            args.contains("predicted_us") && args.contains("actual_us")
        })
        .count();
    assert!(joined > 0, "no decision carries predicted vs actual");
}
