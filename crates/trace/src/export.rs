//! Metric exporters: Prometheus text exposition and JSONL time-series,
//! plus a summarizer for both (the `stats` CLI subcommand).
//!
//! Everything here is hand-rolled (the workspace has no serde) and
//! deterministic: metric families render in `BTreeMap` name order, window
//! rows render in timeline order, and all floating-point formatting uses
//! fixed precision — two identical runs produce byte-identical files.
//!
//! # Naming convention
//!
//! Registry metric names may carry a per-service suffix after the first
//! `.` (e.g. `query_latency_us.Resnet50`). The Prometheus renderer splits
//! that into family `tacker_query_latency_us` with a `service="Resnet50"`
//! label, so per-service series share one `# TYPE` family as Prometheus
//! requires. Latency sketches are exposed as summaries with
//! `quantile="0.5|0.9|0.99|0.999"` series plus `_sum`/`_count`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::MetricsRegistry;
use crate::quantile::QuantileSketch;
use crate::timeseries::WindowRow;

/// Quantiles every summary family exposes.
const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Sanitizes a metric name into the Prometheus charset `[a-zA-Z0-9_:]`
/// and prefixes the exporter namespace.
fn family_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 7);
    out.push_str("tacker_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format.
fn label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Splits a registry name into `(family, service label)` at the first `.`.
fn split_service(raw: &str) -> (String, Option<String>) {
    match raw.split_once('.') {
        Some((family, svc)) => (family_name(family), Some(label_value(svc))),
        None => (family_name(raw), None),
    }
}

fn series_name(family: &str, service: &Option<String>, extra: Option<(&str, &str)>) -> String {
    let mut labels = Vec::new();
    if let Some(svc) = service {
        labels.push(format!("service=\"{svc}\""));
    }
    if let Some((k, v)) = extra {
        labels.push(format!("{k}=\"{v}\""));
    }
    if labels.is_empty() {
        family.to_string()
    } else {
        format!("{family}{{{}}}", labels.join(","))
    }
}

/// Renders the registry in the Prometheus text exposition format
/// (v0.0.4), counters and gauges as-is, plus one summary series per
/// `(name, sketch)` in `latencies`: nanosecond samples exposed in
/// microseconds (the `_us` families), under the registry's naming
/// convention. A run report renders its latency statistics this way.
/// Deterministic for a given registry state and sketch list.
pub fn prometheus_text(
    registry: &MetricsRegistry,
    latencies: &[(String, QuantileSketch)],
) -> String {
    let mut out = String::new();

    // Group (family -> series) so `# TYPE` renders once per family even
    // when per-service metrics share it.
    let mut counter_families: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, c) in registry.counters() {
        let (family, svc) = split_service(&name);
        let line = format!("{} {}", series_name(&family, &svc, None), c.get());
        counter_families.entry(family).or_default().push(line);
    }
    for (family, lines) in counter_families {
        let _ = writeln!(out, "# TYPE {family} counter");
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
    }

    let mut gauge_families: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, g) in registry.gauges() {
        let (family, svc) = split_service(&name);
        let line = format!("{} {:.6}", series_name(&family, &svc, None), g.get());
        gauge_families.entry(family).or_default().push(line);
    }
    for (family, lines) in gauge_families {
        let _ = writeln!(out, "# TYPE {family} gauge");
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
    }

    let mut summary_families: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let us = |ns: u64| ns as f64 / 1e3;
    for (name, sketch) in latencies {
        let (family, svc) = split_service(name);
        let mut lines = Vec::with_capacity(QUANTILES.len() + 2);
        for (q, tag) in QUANTILES {
            lines.push(format!(
                "{} {:.3}",
                series_name(&family, &svc, Some(("quantile", tag))),
                sketch.percentile(q).map_or(0.0, us)
            ));
        }
        lines.push(format!(
            "{} {:.3}",
            series_name(&format!("{family}_sum"), &svc, None),
            sketch.sum() as f64 / 1e3
        ));
        lines.push(format!(
            "{} {}",
            series_name(&format!("{family}_count"), &svc, None),
            sketch.count()
        ));
        summary_families.entry(family).or_default().extend(lines);
    }
    for (family, lines) in summary_families {
        let _ = writeln!(out, "# TYPE {family} summary");
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
    }

    out
}

/// Renders window rows as JSON lines, one row per line, in timeline
/// order — the `--timeseries-out` file format.
pub fn timeseries_jsonl(rows: &[WindowRow]) -> String {
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json());
        out.push('\n');
    }
    out
}

/// Extracts the numeric value following `"key":` in a JSON line produced
/// by [`WindowRow::to_json`] (self-produced format; no general parser
/// needed).
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-' || c == '.' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the string value following `"key":"` in a JSON line (values
/// in our own output never contain escaped quotes for the keys we read).
fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    rest.find('"').map(|end| &rest[..end])
}

fn summarize_jsonl(text: &str) -> String {
    let mut windows = 0u64;
    let mut width_ns = 0.0f64;
    let mut span_start = f64::INFINITY;
    let mut span_end = 0.0f64;
    let mut arrivals = 0.0;
    let mut completions = 0.0;
    let mut violations = 0.0;
    let mut lc = 0.0;
    let mut be = 0.0;
    let mut fused = 0.0;
    let mut hits = 0.0;
    let mut misses = 0.0;
    let mut sm_sum = 0.0;
    let mut sm_peak = 0.0f64;
    let mut tc_sum = 0.0;
    let mut cd_sum = 0.0;
    let mut depth_max = 0.0f64;
    let mut headroom_min = f64::INFINITY;
    let mut guards: Vec<String> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        windows += 1;
        let start = json_num(line, "start").unwrap_or(0.0);
        let end = json_num(line, "end").unwrap_or(0.0);
        width_ns = end - start;
        span_start = span_start.min(start);
        span_end = span_end.max(end);
        arrivals += json_num(line, "arrivals").unwrap_or(0.0);
        completions += json_num(line, "completions").unwrap_or(0.0);
        violations += json_num(line, "violations").unwrap_or(0.0);
        lc += json_num(line, "lc_launches").unwrap_or(0.0);
        be += json_num(line, "be_launches").unwrap_or(0.0);
        fused += json_num(line, "fused_launches").unwrap_or(0.0);
        hits += json_num(line, "cache_hits").unwrap_or(0.0);
        misses += json_num(line, "cache_misses").unwrap_or(0.0);
        let sm = json_num(line, "sm_util").unwrap_or(0.0);
        sm_sum += sm;
        sm_peak = sm_peak.max(sm);
        tc_sum += json_num(line, "tc_util").unwrap_or(0.0);
        cd_sum += json_num(line, "cd_util").unwrap_or(0.0);
        depth_max = depth_max.max(json_num(line, "queue_depth_max").unwrap_or(0.0));
        if let Some(h) = json_num(line, "headroom_min") {
            headroom_min = headroom_min.min(h);
        }
        if let Some(g) = json_str(line, "guard") {
            if !guards.iter().any(|seen| seen == g) {
                guards.push(g.to_string());
            }
        }
    }
    if windows == 0 {
        return "timeseries: empty\n".to_string();
    }
    let n = windows as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "timeseries: {windows} windows of {:.1} us covering {:.1} us",
        width_ns / 1e3,
        (span_end - span_start) / 1e3
    );
    let _ = writeln!(
        out,
        "queries: {arrivals:.0} arrived, {completions:.0} completed, {violations:.0} violations"
    );
    let _ = writeln!(
        out,
        "launches: {lc:.0} lc, {be:.0} be, {fused:.0} fused; fused-cache {hits:.0} hits / {misses:.0} misses"
    );
    let _ = writeln!(
        out,
        "utilization: sm mean {:.3} peak {:.3}, tc mean {:.3}, cd mean {:.3}",
        sm_sum / n,
        sm_peak,
        tc_sum / n,
        cd_sum / n
    );
    let _ = writeln!(out, "queue depth max: {depth_max:.0}");
    if headroom_min.is_finite() {
        let _ = writeln!(out, "min qos headroom: {:.1} us", headroom_min / 1e3);
    }
    if !guards.is_empty() {
        let _ = writeln!(out, "guard levels seen: {}", guards.join(", "));
    }
    out
}

fn summarize_prometheus(text: &str) -> String {
    let mut counters = 0u64;
    let mut gauges = 0u64;
    let mut summaries = 0u64;
    let mut lines_out = Vec::new();
    let mut current_kind = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let _family = parts.next().unwrap_or("");
            current_kind = match parts.next() {
                Some("counter") => {
                    counters += 1;
                    "counter"
                }
                Some("gauge") => {
                    gauges += 1;
                    "gauge"
                }
                Some("summary") => {
                    summaries += 1;
                    "summary"
                }
                _ => "",
            };
            continue;
        }
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        // Echo counters/gauges verbatim and the interesting summary
        // series (p50/p99/count).
        let keep = match current_kind {
            "counter" | "gauge" => true,
            "summary" => {
                line.contains("quantile=\"0.5\"")
                    || line.contains("quantile=\"0.99\"")
                    || line.contains("_count")
            }
            _ => false,
        };
        if keep {
            lines_out.push(line.to_string());
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "prometheus: {counters} counter, {gauges} gauge, {summaries} summary families"
    );
    for line in lines_out {
        let _ = writeln!(out, "  {line}");
    }
    out
}

/// Summarizes a metrics artifact: auto-detects JSONL time-series (first
/// non-empty line starts with `{`) versus Prometheus text exposition.
pub fn summarize(text: &str) -> Result<String, String> {
    let first = text.lines().find(|l| !l.trim().is_empty());
    match first {
        None => Err("empty input".to_string()),
        Some(l) if l.trim_start().starts_with('{') => Ok(summarize_jsonl(text)),
        Some(l) if l.starts_with('#') || l.contains(' ') => Ok(summarize_prometheus(text)),
        Some(l) => Err(format!(
            "unrecognized metrics format (first line {:?})",
            &l[..l.len().min(40)]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::{SpanKind, WindowSeries};
    use tacker_kernel::SimTime;

    #[test]
    fn prometheus_families_group_services() {
        let reg = MetricsRegistry::new();
        reg.counter("qos_violations.svcB").add(2);
        reg.counter("qos_violations.svcA").inc();
        reg.gauge("be_work_rate").set(0.25);
        let mut sketch = QuantileSketch::new();
        sketch.observe(100_000);
        sketch.observe(200_000);
        let latencies = [("query_latency_us.svcA".to_string(), sketch)];
        let text = prometheus_text(&reg, &latencies);
        // One TYPE line per family even with two services.
        assert_eq!(
            text.matches("# TYPE tacker_qos_violations counter").count(),
            1
        );
        assert!(
            text.contains("tacker_qos_violations{service=\"svcA\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("tacker_qos_violations{service=\"svcB\"} 2"),
            "{text}"
        );
        assert!(text.contains("# TYPE tacker_be_work_rate gauge"), "{text}");
        assert!(
            text.contains("# TYPE tacker_query_latency_us summary"),
            "{text}"
        );
        assert!(
            text.contains("tacker_query_latency_us{service=\"svcA\",quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("tacker_query_latency_us_count{service=\"svcA\"} 2"),
            "{text}"
        );
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, prometheus_text(&reg, &latencies));
    }

    #[test]
    fn latency_sketches_render_as_microsecond_summaries() {
        let reg = MetricsRegistry::new();
        reg.counter("decisions").inc();
        let mut sketch = QuantileSketch::new();
        for ns in [100_000u64, 200_000, 300_000, 400_000] {
            sketch.observe(ns);
        }
        let text = prometheus_text(&reg, &[("query_latency_us.svcA".into(), sketch)]);
        assert!(text.starts_with(&prometheus_text(&reg, &[])), "{text}");
        assert!(
            text.contains("tacker_query_latency_us{service=\"svcA\",quantile=\"0.999\"} 400.000"),
            "{text}"
        );
        assert!(
            text.contains("tacker_query_latency_us_sum{service=\"svcA\"} 1000.000"),
            "{text}"
        );
        assert!(
            text.contains("tacker_query_latency_us_count{service=\"svcA\"} 4"),
            "{text}"
        );
        assert!(summarize(&text).is_ok());
    }

    #[test]
    fn summarize_roundtrips_both_formats() {
        let mut ws = WindowSeries::new(SimTime::from_micros(100));
        let mut emit = |_: &crate::timeseries::WindowRow| {};
        ws.on_arrivals(SimTime::from_micros(5), 4, &mut emit);
        ws.on_span(
            SimTime::from_micros(10),
            SimTime::from_micros(60),
            0.5,
            0.5,
            SpanKind::Lc,
            &mut emit,
        );
        ws.on_completion(SimTime::from_micros(150), false, &mut emit);
        let rows = ws.finish(&mut emit);
        let jsonl = timeseries_jsonl(&rows);
        let summary = summarize(&jsonl).expect("jsonl summary");
        assert!(summary.contains("2 windows"), "{summary}");
        assert!(summary.contains("4 arrived, 1 completed"), "{summary}");

        let reg = MetricsRegistry::new();
        reg.counter("decisions").add(9);
        let prom = prometheus_text(&reg, &[]);
        let summary = summarize(&prom).expect("prom summary");
        assert!(summary.contains("1 counter"), "{summary}");
        assert!(summary.contains("tacker_decisions 9"), "{summary}");

        assert!(summarize("").is_err());
    }
}
