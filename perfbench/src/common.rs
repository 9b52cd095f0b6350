//! Shared plumbing: arguments, output checks, metric lists, digests, and
//! the timing loop every workload measures with.

use std::fmt::Write as _;
use std::time::Instant;

use tacker::RunReport;
use tacker_kernel::SimTime;

use crate::host;

/// The eval seed: the default workload seed when `--seed` is absent.
pub const EVAL_SEED: u64 = 0x7ac4e2;

/// Set-up samples per untraced run (this process plus fresh children).
pub const SETUP_SAMPLES: usize = 3;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 14 grid, cold device.
    Grid,
    /// One long warm Resnet50 + cutcp run under Tacker.
    Colocate,
    /// Six LC services over a heterogeneous 4-device fleet.
    Fleet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Colocate, Workload::Fleet];

    /// Whether the measured phase runs on one thread (`colocate`).
    pub fn serial(self) -> bool {
        self == Workload::Colocate
    }

    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Colocate => "colocate",
            Workload::Fleet => "fleet",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; arrival and cell seeds derive from it.
    pub seed: u64,
    /// Minimum host seconds of the measured phase.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Worker threads for the parallel phases: every core.
    pub jobs: usize,
    /// Only set up, print `setup_s <value>` and exit (used for the
    /// repeated set-up samples).
    pub setup_only: bool,
}

/// The usage line printed with argument errors.
pub const USAGE: &str = "usage: tacker-perfbench --workload grid|colocate|fleet \
     [--seed N] [--seconds S] [--trace 0|1]";

impl Args {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values, unknown workloads and unparsable
    /// numbers.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut out = Args {
            workload: Workload::Grid,
            seed: EVAL_SEED,
            seconds: 10.0,
            trace: false,
            jobs: host::nproc(),
            setup_only: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--setup-only" {
                out.setup_only = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: bad number `{v}`"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => out.seed = num(&value)?,
                "--seconds" => {
                    out.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: bad value `{value}`"))?;
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                    };
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        out.workload = workload.ok_or("--workload is required")?;
        Ok(out)
    }

    /// The flags that reproduce this run (for the set-up children).
    pub fn to_flags(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ]
    }
}

/// Per-run output checks: counts runs attempted and runs that failed
/// (returned `Err` or failed a check), printing every failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
    /// Failures that are not tied to one run (digest mismatches, trace
    /// cross-checks).
    pub other_failures: u64,
}

impl Checks {
    /// Records one run: `problems` lists every failed check (empty = ok).
    pub fn run(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                println!("check failed: {label}: {p}");
            }
        }
    }

    /// Records `n` runs that returned an error.
    pub fn errored(&mut self, label: &str, n: u64, err: &str) {
        self.attempted += n;
        self.failed += n;
        println!("check failed: {label}: {n} run(s) returned an error: {err}");
    }

    /// A check that is not tied to a single run.
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            self.other_failures += 1;
            println!("check failed: {what}");
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.other_failures == 0 && self.attempted > 0
    }
}

/// The checks every co-location run gets: its query count and finite
/// numbers; `p99_cap` bounds its p99 latency when given.
pub fn run_problems(report: &RunReport, queries: usize, p99_cap: Option<SimTime>) -> Vec<String> {
    let mut problems = Vec::new();
    if report.query_count() != queries {
        problems.push(format!(
            "completed {} of {queries} queries",
            report.query_count()
        ));
    }
    let numbers = [
        report.be_work_rate(),
        report.utilization(),
        report.wall.as_secs_f64(),
        report
            .p99_latency()
            .map_or(f64::NAN, SimTime::as_millis_f64),
        report
            .mean_latency()
            .map_or(f64::NAN, SimTime::as_millis_f64),
    ];
    if numbers.iter().any(|v| !v.is_finite()) {
        problems.push(format!("non-finite number in {numbers:?}"));
    }
    if let (Some(cap), Some(p99)) = (p99_cap, report.p99_latency()) {
        if p99 > cap {
            problems.push(format!("p99 {p99} over the {cap} cap"));
        }
    }
    problems
}

/// One line of a workload's output digest: the simulated outcome of a
/// run (latency p50/p99, BE work, fused launches and refits).
pub fn digest_line(label: &str, report: &RunReport) -> String {
    let ns = |t: Option<SimTime>| t.map_or(0, SimTime::as_nanos);
    format!(
        "{label} p50={} p99={} be_work={} fused={} refits={}\n",
        ns(report.latency.percentile(50.0)),
        ns(report.p99_latency()),
        report.be_work.as_nanos(),
        report.fused_launches,
        report.model_refreshes
    )
}

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value; non-finite values become `null`.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Prints the provenance line every output starts with.
pub fn print_provenance(args: &Args, jobs_used: usize, config: &str) {
    println!(
        "provenance: commit={} nproc={} jobs_requested={} jobs_used={} seed={} \
         workload={} trace={} config_digest={:016x}",
        host::commit(),
        host::nproc(),
        args.jobs,
        jobs_used,
        args.seed,
        args.workload.name(),
        u8::from(args.trace),
        host::digest(config),
    );
    println!("config: {config}");
}

/// Prints the final result line (the last line of standard output).
pub fn print_result(checks: &Checks, metrics: &Metrics) {
    let finite = metrics.0.iter().all(|m| m.1.is_finite());
    if !finite {
        println!("check failed: a reported metric is not finite");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.correct() && finite,
        checks.attempted.max(1),
        checks.failed,
        metrics.json()
    );
}

/// Per-repetition host times of a measured phase.
#[derive(Debug, Default, Clone)]
pub struct Reps {
    /// Wall seconds per repetition.
    pub wall: Vec<f64>,
    /// CPU seconds per repetition.
    pub cpu: Vec<f64>,
    /// The host's [`host::Pacer::slowdown`] during each repetition.
    pub slowdown: Vec<f64>,
}

impl Reps {
    /// Runs `rep` until at least `seconds` of host wall time have passed
    /// and at least `min_reps` repetitions have run, reading the host's
    /// speed during each from `pacer`.
    pub fn measure(
        seconds: f64,
        min_reps: usize,
        pacer: &host::Pacer,
        mut rep: impl FnMut(),
    ) -> Reps {
        let start = Instant::now();
        let mut reps = Reps::default();
        while reps.wall.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < seconds {
            let t0 = Instant::now();
            let ((), wall, cpu) = host::timed(&mut rep);
            reps.slowdown.push(pacer.slowdown(t0, Instant::now()));
            reps.wall.push(wall);
            reps.cpu.push(cpu);
        }
        reps
    }

    /// Wall seconds of one repetition at the reference host's speed: the
    /// median over repetitions of wall ÷ slowdown.
    pub fn wall_s(&self) -> f64 {
        Self::normalised(&self.wall, &self.slowdown)
    }

    /// CPU seconds of one repetition at the reference host's speed, as
    /// for [`Reps::wall_s`].
    pub fn cpu_s(&self) -> f64 {
        Self::normalised(&self.cpu, &self.slowdown)
    }

    fn normalised(times: &[f64], slowdown: &[f64]) -> f64 {
        let v: Vec<f64> = times.iter().zip(slowdown).map(|(t, s)| t / s).collect();
        host::median(&v)
    }
}

/// The end-to-end numbers one untraced run produces.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Median speed-normalised set-up seconds over [`SETUP_SAMPLES`]
    /// set-ups.
    pub setup_s: f64,
    /// The repetitions of the measured phase.
    pub reps: Reps,
    /// LC queries completed by one repetition.
    pub queries_per_rep: f64,
    /// Mean Tacker-over-Baymax BE gain, percent (`grid` only).
    pub be_gain_pct: Option<f64>,
    /// BE work rate (sim s of BE work per sim s).
    pub be_rate: f64,
    /// LC p99 latency, sim ms.
    pub lc_p99_ms: f64,
    /// LC queries over the QoS target over queries attempted.
    pub qos_violation_rate: f64,
}

/// Names and units of the end-to-end metrics on the result line, in
/// `BENCHMARK.json` order: the host-measured ones. The simulated ones
/// (`be_gain_pct`, `be_rate`, `lc_p99_ms`, `qos_violation_rate`) repeat
/// exactly for a seed and are zero or undefined on some workloads, so
/// they are printed beside them but not compared run to run; `error_rate`
/// is the result line's `failed / attempted`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_qps", "queries/s"),
    ("peak_rss_mb", "MB"),
];

/// Prints every end-to-end number with its unit (including those not on
/// the result line) and returns the result-line metrics.
pub fn end_to_end_metrics(e: &EndToEnd, checks: &Checks) -> Metrics {
    let wall = e.reps.wall_s();
    let mut m = Metrics::default();
    m.push("setup_s", e.setup_s, "s");
    m.push("wall_s", wall, "s");
    m.push("cpu_s", e.reps.cpu_s(), "s");
    m.push("sim_qps", e.queries_per_rep / wall, "queries/s");
    m.push("peak_rss_mb", host::peak_rss_mb(), "MB");
    let mut all = m.clone();
    all.push("lc_p99_ms", e.lc_p99_ms, "ms");
    all.push("be_gain_pct", e.be_gain_pct.unwrap_or(f64::NAN), "%");
    all.push("be_rate", e.be_rate, "sim_s/sim_s");
    all.push("qos_violation_rate", e.qos_violation_rate, "share");
    let runs = checks.attempted.max(1) as f64;
    all.push("error_rate", checks.failed as f64 / runs, "share");
    println!(
        "end_to_end: reps={} host_wall_s={:?} host_cpu_s={:?} slowdown={:?} {}",
        e.reps.wall.len(),
        e.reps.wall,
        e.reps.cpu,
        e.reps.slowdown,
        all.json()
    );
    m
}

/// The speed-normalised set-up time of this process: from the pacer's
/// start (the process start) to now, divided by the host's slowdown.
pub fn own_setup(pacer: &host::Pacer) -> f64 {
    let now = Instant::now();
    now.duration_since(pacer.started()).as_secs_f64() / pacer.slowdown(pacer.started(), now)
}

/// Speed-normalised set-up seconds of `SETUP_SAMPLES - 1` fresh child
/// processes of this benchmark (`--setup-only`), run one after another.
///
/// # Errors
///
/// When a child cannot start, fails, or prints no set-up time.
pub fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let child = std::process::Command::new(&exe)
            .args(args.to_flags())
            .arg("--setup-only")
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        if !child.status.success() {
            return Err(format!("set-up child exited with {}", child.status));
        }
        let text = String::from_utf8_lossy(&child.stdout);
        let v = text
            .lines()
            .find_map(|l| l.strip_prefix("setup_s "))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .ok_or("set-up child printed no setup_s")?;
        out.push(v);
    }
    Ok(out)
}

/// The per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("predictor.refits", "count"),
    ("predictor.refit_s", "s"),
    ("predictor.refit_share", "share"),
    ("sim.engine.events_per_s", "1/s"),
    ("sim.plan.lower_ns", "ns"),
    ("sim.device.misses", "count"),
    ("sim.device.fused_misses", "count"),
    ("fuser.calls", "count"),
    ("fuser.fuse_ns", "ns"),
    ("library.prepare_s", "s"),
    ("library.pairs", "count"),
    ("library.fused_pairs", "count"),
    ("manager.decisions", "count"),
    ("manager.fused", "count"),
    ("manager.reordered", "count"),
    ("manager.decide_s", "s"),
    ("manager.rejects.no_orientation", "count"),
    ("manager.rejects.not_prepared", "count"),
    ("manager.rejects.blacklisted", "count"),
    ("manager.rejects.parallel_loses", "count"),
    ("manager.rejects.exceeds_headroom", "count"),
    ("manager.rejects.no_gain", "count"),
    ("manager.fuse_accept_ratio", "ratio"),
    ("sim.device.hits", "count"),
    ("sim.device.hit_rate", "ratio"),
    ("sim.device.fused_hits", "count"),
    ("sim.device.fused_hit_rate", "ratio"),
    ("sim.device.probe_ns", "ns"),
    ("sim.device.run_s", "s"),
    ("kernel.launch_ns", "ns"),
    ("serve.be_kernels", "count"),
    ("serve.account_s", "s"),
    ("serve.other_s", "s"),
    ("fleet.prepare_s", "s"),
    ("fleet.dispatch_s", "s"),
    ("fleet.dispatch_ns", "ns"),
    ("fleet.replay_s", "s"),
    ("fleet.skew", "ratio"),
    ("fleet.util_min", "ratio"),
    ("fleet.util_max", "ratio"),
    ("par.jobs_used", "count"),
    ("par.cpu_per_wall", "ratio"),
    ("sweep.cell_median_ms", "ms"),
    ("sweep.cell_max_share", "share"),
    ("sweep.top5_share", "share"),
    ("sweep.digest_match", "bool"),
    ("workloads.build_s", "s"),
    ("server.calibrate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.attributed_share", "share"),
];

/// Per-layer values by name; [`LayerValues::metrics`] emits every name of
/// [`PER_LAYER`], with 0 for a layer the workload does not exercise.
#[derive(Debug, Default)]
pub struct LayerValues(pub Vec<(&'static str, f64)>);

impl LayerValues {
    /// Sets one value.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    /// Every per-layer metric, in [`PER_LAYER`] order.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        for (name, unit) in PER_LAYER {
            let v = self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |e| e.1);
            m.push(name, v, unit);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_flags() {
        let a = parse("--workload fleet --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Fleet);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        let again = Args::parse(a.to_flags()).unwrap();
        assert_eq!(
            (again.workload, again.seed, again.trace),
            (Workload::Fleet, 7, true)
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload grid --trace 2").is_err());
        assert!(parse("--workload grid --seed x").is_err());
        assert!(parse("--workload grid --bogus 1").is_err());
        assert!(parse("--workload grid --seed").is_err());
    }

    #[test]
    fn layer_values_cover_every_name() {
        let mut v = LayerValues::default();
        v.set("fleet.skew", 1.5);
        let m = v.metrics();
        assert_eq!(m.0.len(), PER_LAYER.len());
        assert_eq!(m.get("fleet.skew"), Some(1.5));
        assert_eq!(m.get("predictor.refits"), Some(0.0));
    }

    #[test]
    fn metric_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("a", 0.1 + 0.2, "s");
        m.push("b", f64::NAN, "s");
        assert_eq!(
            m.json(),
            "{\"a\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}, \
             \"b\": {\"value\": null, \"unit\": \"s\"}}"
        );
    }
}
