//! The CI gates, one subcommand each:
//!
//! ```sh
//! cargo run --release -p tacker-bench --bin gates -- <engine|serve|cluster|sweep> \
//!     [--check] [--out PATH]
//! ```
//!
//! A gate measures its workloads and returns named JSON fields plus its
//! gates (value, bound, verdict). This `main` writes them to `--out`
//! (default `results/BENCH_<name>.json`) under a provenance block —
//! commit, host cores, jobs requested and used — prints one line per
//! gate, and with `--check` exits 1 if any gate fails. The JSON is
//! written first in every case, so a red gate leaves its numbers behind.
//!
//! Every wall-clock timing goes through [`best_time`]; the serve
//! telemetry gate keeps its own paired-difference estimator.

/// A JSON object's members: `members!["key": value, ...]`.
macro_rules! members {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key, $crate::Json::from($value))),*]
    };
}

/// A JSON object: `obj!{"key": value, ...}`.
macro_rules! obj {
    ($($body:tt)*) => {
        $crate::Json::Obj(members![$($body)*])
    };
}

mod cluster;
mod engine;
mod serve;
mod sweep;

use std::sync::Arc;
use std::time::Instant;

use tacker::prelude::*;
use tacker_sim::Device;
use tacker_workloads::{BeApp, LcService};

const USAGE: &str = "usage: gates <engine|serve|cluster|sweep> [--check] [--out PATH]";

/// A gate's measurement.
type Run = fn() -> Report;

/// Every gate by name.
const GATES: [(&str, Run); 4] = [
    ("engine", engine::run),
    ("serve", serve::run),
    ("cluster", cluster::run),
    ("sweep", sweep::run),
];

/// Windows per timing.
const WINDOWS: usize = 5;
/// Timed seconds a window fills before it closes.
const WINDOW_S: f64 = 0.2;

/// Times `sample` the way every gate times work: one untimed warm-up
/// sample (it also fills the process-global calibration cache), then
/// [`WINDOWS`] windows, each repeating the sample until its timed part
/// has run for [`WINDOW_S`]. Returns the fastest window's mean seconds
/// per sample and the last sample's output. The samples are
/// deterministic, so host noise only ever slows a window, and a sample
/// far shorter than a window is timed often enough to read the code
/// rather than the host's state at one instant. `prepare` builds each
/// sample's input off the clock, and an output is dropped off it too.
fn best_time<P, T>(mut prepare: impl FnMut() -> P, mut sample: impl FnMut(P) -> T) -> (f64, T) {
    let mut last = sample(prepare());
    let mut best = f64::INFINITY;
    for _ in 0..WINDOWS {
        let (mut secs, mut samples) = (0.0, 0u32);
        while secs < WINDOW_S {
            let input = prepare();
            let start = Instant::now();
            let output = std::hint::black_box(sample(input));
            secs += start.elapsed().as_secs_f64();
            samples += 1;
            last = output;
        }
        best = best.min(secs / f64::from(samples));
    }
    (best, last)
}

/// The engine and sweep gates' workload: a reduced LC × BE grid under
/// Baymax and Tacker on one fresh 2080 Ti, its services compiled on that
/// device.
struct ReducedSweep {
    device: Arc<Device>,
    lcs: Vec<LcService>,
    bes: Vec<BeApp>,
    config: ExperimentConfig,
}

const SWEEP_POLICIES: [Policy; 2] = [Policy::Baymax, Policy::Tacker];

impl ReducedSweep {
    fn new(lcs: &[&str], bes: &[&str], queries: usize) -> Self {
        let device = tacker_bench::rtx2080ti();
        let lc = |n: &&str| tacker_workloads::lc_service(n, &device).expect("LC service");
        ReducedSweep {
            lcs: lcs.iter().map(lc).collect(),
            bes: bes
                .iter()
                .map(|n| tacker_workloads::be_app(n).expect("BE app"))
                .collect(),
            config: ExperimentConfig::default().with_queries(queries),
            device,
        }
    }

    fn run(&self, jobs: usize) -> Vec<SweepCell> {
        run_pair_sweep(
            &self.device,
            &self.lcs,
            &self.bes,
            &SWEEP_POLICIES,
            &self.config,
            jobs,
        )
        .expect("reduced sweep")
    }

    fn describe(&self) -> Json {
        obj! {
            "lc": self.lcs.iter().map(LcService::name).collect::<Vec<_>>(),
            "be": self.bes.iter().map(BeApp::name).collect::<Vec<_>>(),
            "policies": SWEEP_POLICIES.iter().map(|p| format!("{p:?}")).collect::<Vec<_>>(),
            "queries": self.config.queries,
        }
    }
}

/// `v` to six decimals: every reported value keeps its precision, and
/// float noise past it does not churn the committed files.
fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// A cache's `(hits, misses)` with its hit rate.
fn cache_json((hits, misses): (u64, u64)) -> Json {
    obj! {"hits": hits, "misses": misses, "hit_rate": hits as f64 / (hits + misses).max(1) as f64}
}

/// What a gate's value must satisfy.
#[derive(Clone, Copy)]
enum Bound {
    AtLeast(f64),
    Above(f64),
    AtMost(f64),
    Below(f64),
    Within(f64, f64),
    /// The value is 1 (a check that held) rather than 0.
    Holds,
}

impl Bound {
    /// Whether `v` satisfies the bound, and how the bound reads.
    fn check(self, v: f64) -> (bool, String) {
        match self {
            Bound::AtLeast(b) => (v >= b, format!(">= {}", round6(b))),
            Bound::Above(b) => (v > b, format!("> {}", round6(b))),
            Bound::AtMost(b) => (v <= b, format!("<= {}", round6(b))),
            Bound::Below(b) => (v < b, format!("< {}", round6(b))),
            Bound::Within(lo, hi) => ((lo..=hi).contains(&v), format!("{lo}..={hi}")),
            Bound::Holds => (v == 1.0, "holds".to_string()),
        }
    }
}

/// One gated value: its name, value and bound.
struct Gate(&'static str, f64, Bound);

impl Gate {
    fn holds(name: &'static str, ok: bool) -> Self {
        Gate(name, f64::from(u8::from(ok)), Bound::Holds)
    }

    fn check(&self) -> (bool, String) {
        self.2.check(self.1)
    }
}

/// What one gate run measured.
struct Report {
    /// Worker threads requested and actually used by the gate's parallel
    /// part (1 and 1 for a serial gate).
    jobs: (usize, usize),
    gates: Vec<Gate>,
    fields: Vec<(&'static str, Json)>,
}

impl Report {
    fn into_json(self, name: &str) -> Json {
        let gates = self
            .gates
            .iter()
            .map(|g| {
                let (pass, bound) = g.check();
                obj! {"name": g.0, "value": g.1, "bound": bound, "pass": pass}
            })
            .collect::<Vec<_>>();
        let mut top = members![
            "gate": name,
            "provenance": obj! {"commit": commit(), "host_cores": tacker_par::available_jobs(),
                "jobs_requested": self.jobs.0, "jobs_used": self.jobs.1},
            "gates": gates,
        ];
        top.extend(self.fields);
        Json::Obj(top)
    }
}

/// The checked-out commit, read from `.git` without spawning git;
/// `"unknown"` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON value, as much of JSON as the gate reports need.
enum Json {
    Null,
    Num(f64),
    Bool(bool),
    Str(String),
    /// Already-serialized JSON.
    Raw(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

/// The values a gate reports, as JSON; no count here nears 2^53.
macro_rules! json_from {
    ($($t:ty => $into:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                ($into)(v)
            }
        }
    )*};
}
json_from! {
    f64 => Json::Num,
    u64 => |v: u64| Json::Num(v as f64),
    usize => |v: usize| Json::Num(v as f64),
    bool => Json::Bool,
    &str => |v: &str| Json::Str(v.to_string()),
    String => Json::Str,
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Renders `self` at nesting `depth`. The top level's members and
    /// the records of its arrays go one per line; everything deeper
    /// stays on its line.
    fn render(&self, depth: usize) -> String {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Num(v) if v.is_finite() => return round6(*v).to_string(),
            Json::Null | Json::Num(_) => return "null".to_string(),
            Json::Bool(b) => return b.to_string(),
            Json::Str(s) => return quote(s),
            Json::Raw(s) => return s.clone(),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let records = members
            .iter()
            .any(|(_, v)| matches!(v, Json::Obj(_) | Json::Raw(_)));
        let lines = depth == 0 || (depth == 1 && open == '[' && records);
        let indent = |depth: usize| format!("\n{}", "  ".repeat(depth));
        let (pad, end, sep) = match (lines, members.is_empty()) {
            (true, false) => (indent(depth + 1), indent(depth), ","),
            _ => (String::new(), String::new(), ", "),
        };
        let body: Vec<String> = members
            .iter()
            .map(|(key, value)| {
                let key = key.map_or(String::new(), |k| format!("{}: ", quote(k)));
                format!("{pad}{key}{}", value.render(depth + 1))
            })
            .collect();
        format!("{open}{}{end}{close}", body.join(sep))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed command line.
struct Args {
    name: &'static str,
    run: Run,
    check: bool,
    out: Option<String>,
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut gate = None;
    let mut check = false;
    let mut out = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => {
                let path = args.next().filter(|p| !p.starts_with('-'));
                out = Some(path.ok_or("--out needs a path")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if gate.is_none() => {
                let found = GATES.iter().find(|(n, _)| *n == name);
                gate = Some(found.ok_or_else(|| format!("unknown gate {name}"))?);
            }
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    let &(name, run) = gate.ok_or("missing gate")?;
    Ok(Args {
        name,
        run,
        check,
        out,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(1);
    });
    let report = (args.run)();
    let failed = report.gates.iter().any(|g| !g.check().0);
    for g in &report.gates {
        let (pass, bound) = g.check();
        let verdict = if pass { "PASS" } else { "FAIL" };
        println!("{verdict} {}/{}: {} ({bound})", args.name, g.0, round6(g.1));
    }
    let out = args
        .out
        .unwrap_or_else(|| format!("results/BENCH_{}.json", args.name));
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    let json = report.into_json(args.name).render(0) + "\n";
    std::fs::write(&out, json).expect("write the gate JSON");
    eprintln!("wrote {out}");
    if args.check && failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parser_rejects_malformed_command_lines() {
        for bad in [
            &["sweep", "--chek"][..],
            &["engine", "--out"],
            &["engine", "--out", "--check"],
            &[],
            &["--check"],
            &["bogus"],
            &["engine", "sweep"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} parsed");
        }
        let args = parse_strs(&["--check", "cluster", "--out", "x.json"]).expect("valid");
        assert_eq!(
            (args.name, args.check, args.out.as_deref()),
            ("cluster", true, Some("x.json"))
        );
        let args = parse_strs(&["serve"]).expect("valid");
        assert_eq!((args.name, args.check, args.out), ("serve", false, None));
    }

    #[test]
    fn json_renders_nested_values() {
        let json = obj! {
            "a": 0.1 + 0.2,
            "b": vec![obj! {"s": "q\"\\", "n": Option::<f64>::None}],
            "c": obj! {"x": f64::NAN, "t": true},
        };
        assert_eq!(
            json.render(0),
            "{\n  \"a\": 0.3,\n  \"b\": [\n    {\"s\": \"q\\\"\\\\\", \"n\": null}\n  ],\n  \
             \"c\": {\"x\": null, \"t\": true}\n}"
        );
    }
}
