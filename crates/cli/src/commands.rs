//! Subcommand implementations.

use std::sync::Arc;

use tacker::prelude::*;
use tacker::profile::KernelProfiler;
use tacker_fuser::{enumerate_configs, fuse_flexible, to_ptb, PackPriority};
use tacker_kernel::SimTime;
use tacker_sim::{Device, ExecutablePlan, GpuSpec, PowerModel};
use tacker_trace::{chrome_trace, RingSink, TraceEvent};
use tacker_workloads::gemm::{gemm_workload, gemm_workload_64, GemmShape};
use tacker_workloads::parboil::Benchmark;

use crate::args::Flags;

/// Top-level usage text.
pub const USAGE: &str = "\
tacker-cli — Tensor-CUDA core kernel fusion with QoS (HPCA'22 reproduction)

USAGE:
  tacker-cli list
  tacker-cli colocate --lc <service> --be <app>
             [--policy tacker|baymax|fusion-only] [--queries N] [--seed N]
             [--gpu 2080ti|v100] [--jobs N] [--json] [--trace <out.json>]
  tacker-cli multi    --lc <svc,svc,...> --be <app> [--queries N] [--seed N]
             [--gpu 2080ti|v100] [--jobs N] [--trace <out.json>]
  tacker-cli serve    --lc <service> --be <app> [--policy ...] [--queries N]
             [--seed N] [--jobs N] [--faults <plan>] [--arrivals poisson|bursty:N]
             [--guard] [--gpu 2080ti|v100] [--json] [--trace <out.json>]
             [--metrics-out <prom.txt>] [--timeseries-out <out.jsonl>]
             [--window-us N]
  tacker-cli cluster  --lc <svc,svc,...> [--devices N] [--be <app>]
             [--policy round-robin|least-outstanding|qos-headroom|cache-affinity]
             [--device-policy tacker|baymax|fusion-only|lc-only]
             [--dispatch-us N] [--compare] [--queries N] [--seed N]
             [--jobs N] [--json]
  tacker-cli stats    --in <prom.txt | out.jsonl>
  tacker-cli sweep    --lc <svc,svc,...> --be <app,app,...>
             [--policy tacker|baymax|fusion-only] [--queries N] [--seed N]
             [--gpu 2080ti|v100] [--jobs N] [--json]
  tacker-cli trace    --lc <service> --be <app> [--policy ...] [--queries N]
             [--seed N] [--jobs N] [--out <out.json>] [--gpu 2080ti|v100]
  tacker-cli fuse     --cd <parboil> [--m N --n N --k N] [--impl 128|64]
             [--gpu 2080ti|v100]
  tacker-cli codegen  --cd <parboil> [--ratio AxB]
  tacker-cli power    --lc <service> [--gpu 2080ti|v100]
  tacker-cli model    --name <service> [--batch N] [--rows N]

`--trace <path>` records scheduler decisions, kernel retirements and query
completions, and writes a Chrome trace-event JSON loadable in Perfetto
(https://ui.perfetto.dev) or chrome://tracing.

`--jobs N` sets the worker-thread count for the parallel phases (sweep
cells, fusion-candidate measurement, serve-mode load calibration) on
colocate/multi/sweep/serve. `--jobs 0` (the default) auto-detects every
core; when the flag is omitted the `TACKER_JOBS` environment variable is
consulted with the same convention (0 = auto). Small batches fall back
to serial automatically, so `--jobs` is always safe to leave at auto.
Any jobs count produces bit-identical results: simulation is pure and
each run's RNG stream is derived from its (pair, policy) coordinates.

`serve` runs the online serving runtime. `--faults` takes a comma-separated
plan: `mispredict:<mult>:<frac>`, `straggler:<mult>:<frac>`,
`flood:<at_ms>:<kernels>`, `outage:<start_ms>:<dur_ms>`, `seed:<n>`, or
`none` (e.g. `--faults mispredict:1.5:0.2,outage:30:10`). `--guard` enables
the adaptive QoS guard (headroom-margin inflation + the fuse → reorder-only
→ LC-only degradation ladder).

`cluster` serves the LC services across a fleet of `--devices N` simulated
GPUs (alternating RTX 2080 Ti / V100 profiles), routing each query through
the global dispatcher under `--policy` (a *dispatch* policy; the on-device
scheduler is picked with `--device-policy`). `--be <app>` makes the BE
application resident on every node. `--dispatch-us N` charges a constant
dispatcher hop per query. `--compare` runs all four dispatch policies over
identical arrival streams and prints one row per policy.

`--metrics-out <path>` writes the run's metrics (counters, gauges and
latency summaries) as Prometheus text exposition. `--timeseries-out
<path>` enables windowed telemetry and writes one JSON object per non-empty
window (utilization, headroom, guard level, arrivals/violations, cache hit
rate); `--window-us N` sets the window width (default 1000, implies
windowed telemetry). `stats` summarizes either export format.
";

/// A subcommand's implementation.
type Command = fn(&Flags) -> Result<(), String>;

/// Dispatches a command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, or
/// runtime failures.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".to_string());
    };
    let flags = Flags::parse(rest)?;
    // Every command with the flags it reads: anything else is an error,
    // not a silently ignored typo.
    let (run, accepted): (Command, &str) = match cmd.as_str() {
        "list" => (|_| list(), ""),
        "colocate" => (colocate, "lc be policy queries seed gpu jobs json trace"),
        "multi" => (multi, "lc be queries seed gpu jobs trace"),
        "serve" => (
            serve,
            "lc be policy queries seed gpu jobs faults arrivals guard json trace \
             metrics-out timeseries-out window-us",
        ),
        "cluster" => (
            cluster,
            "lc devices be policy device-policy dispatch-us compare queries seed jobs json",
        ),
        "stats" => (stats, "in"),
        "sweep" => (sweep, "lc be policy queries seed gpu jobs json"),
        "trace" => (trace, "lc be policy queries seed jobs out gpu"),
        "fuse" => (fuse, "cd m n k impl gpu"),
        "codegen" => (codegen, "cd ratio"),
        "power" => (power, "lc gpu"),
        "model" => (model, "name batch rows"),
        other => return Err(format!("unknown command `{other}`")),
    };
    flags
        .only(accepted)
        .map_err(|e| format!("{e} for `{cmd}`"))?;
    run(&flags)
}

fn device_for(flags: &Flags) -> Result<Arc<Device>, String> {
    match flags.get("gpu").unwrap_or("2080ti") {
        "2080ti" => Ok(Arc::new(Device::new(GpuSpec::rtx2080ti()))),
        "v100" => Ok(Arc::new(Device::new(GpuSpec::v100()))),
        other => Err(format!("unknown GPU `{other}` (2080ti or v100)")),
    }
}

fn parse_policy(name: &str) -> Result<Policy, String> {
    match name {
        "tacker" => Ok(Policy::Tacker),
        "baymax" => Ok(Policy::Baymax),
        "fusion-only" => Ok(Policy::FusionOnly),
        "lc-only" => Ok(Policy::LcOnly),
        other => Err(format!("unknown policy `{other}`")),
    }
}

fn policy_for(flags: &Flags) -> Result<Policy, String> {
    parse_policy(flags.get("policy").unwrap_or("tacker"))
}

/// Worker-count resolution for colocate/multi/sweep/serve: the `--jobs`
/// flag wins, then the shared [`tacker_par::env_jobs`] convention
/// (`TACKER_JOBS`, then `0` = auto-detect every core).
fn jobs_for(flags: &Flags) -> Result<usize, String> {
    let flag = match flags.get("jobs") {
        Some(_) => Some(flags.get_u64("jobs", 0)? as usize),
        None => None,
    };
    tacker_par::env_jobs(flag)
}

fn config_for(flags: &Flags) -> Result<ExperimentConfig, String> {
    let mut config = ExperimentConfig::default()
        .with_queries(flags.get_u64("queries", 100)? as usize)
        .with_jobs(jobs_for(flags)?);
    if let Some(seed) = flags.get("seed") {
        config = config.with_seed(seed.parse().map_err(|_| "--seed expects a number")?);
    }
    Ok(config)
}

fn parboil_for(name: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown Parboil kernel `{name}` (one of: {})",
                Benchmark::ALL
                    .iter()
                    .map(|b| b.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn list() -> Result<(), String> {
    println!("LC services (Table II batch sizes):");
    for m in tacker_workloads::dnn::DnnModel::ALL {
        println!("  {:<10} batch {}", m.name(), m.table_ii_batch());
    }
    println!("\nBE applications:");
    for app in tacker_workloads::be_apps() {
        println!("  {:<8} {}", app.name(), app.intensity());
    }
    println!("\nParboil kernels (fusion partners):");
    for b in Benchmark::ALL {
        println!("  {}", b.name());
    }
    Ok(())
}

/// Milliseconds of an optional latency percentile (0 when no query
/// completed).
fn ms(t: Option<SimTime>) -> f64 {
    t.map_or(0.0, |t| t.as_millis_f64())
}

/// Runs a traced co-location and writes the Perfetto-compatible trace to
/// `path`; returns the report.
fn traced_colocation(
    device: &Arc<Device>,
    lc: &tacker_workloads::LcService,
    be: tacker_workloads::BeApp,
    policy: Policy,
    config: &ExperimentConfig,
    path: &str,
) -> Result<RunReport, String> {
    let ring = Arc::new(RingSink::unbounded());
    let report = ColocationRun::new(device, config, std::slice::from_ref(lc), &[be])
        .map_err(|e| e.to_string())?
        .policy(policy)
        .traced(ring.clone() as Arc<dyn tacker_trace::TraceSink>)
        .run()
        .map_err(|e| e.to_string())?;
    write_chrome_trace(&ring, path)?;
    Ok(report)
}

fn write_chrome_trace(ring: &RingSink, path: &str) -> Result<(), String> {
    let events = ring.events();
    std::fs::write(path, chrome_trace(&events)).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "wrote {} trace events to {path} (open in https://ui.perfetto.dev)",
        events.len()
    );
    Ok(())
}

fn colocate(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let lc = tacker_workloads::lc_service(flags.require("lc")?, &device)
        .ok_or("unknown LC service (see `tacker list`)")?;
    let be = tacker_workloads::be_app(flags.require("be")?)
        .ok_or("unknown BE app (see `tacker list`)")?;
    let policy = policy_for(flags)?;
    let config = config_for(flags)?;
    let report = match flags.get("trace") {
        Some(path) => traced_colocation(&device, &lc, be, policy, &config, path)?,
        None => ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[be])
            .map_err(|e| e.to_string())?
            .policy(policy)
            .run()
            .map_err(|e| e.to_string())?,
    };
    if flags.has("json") {
        println!("{}", report_json(lc.name(), &report));
    } else {
        println!(
            "{} under {:?} on {}:",
            lc.name(),
            policy,
            device.spec().name
        );
        println!(
            "  queries {} | mean {:.2} ms | p99 {:.2} ms | QoS {}",
            report.query_count(),
            ms(report.mean_latency()),
            ms(report.p99_latency()),
            if report.qos_met() { "met" } else { "VIOLATED" }
        );
        println!(
            "  BE work rate {:.3} | {} BE kernels ({} fused, {} reordered)",
            report.be_work_rate(),
            report.be_kernels,
            report.fused_launches,
            report.reordered_launches
        );
    }
    Ok(())
}

/// `trace`: a traced co-location whose primary output is the Perfetto
/// JSON; prints a digest of the recorded events.
fn trace(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let lc = tacker_workloads::lc_service(flags.require("lc")?, &device)
        .ok_or("unknown LC service (see `tacker list`)")?;
    let be = tacker_workloads::be_app(flags.require("be")?)
        .ok_or("unknown BE app (see `tacker list`)")?;
    let policy = policy_for(flags)?;
    let config = config_for(flags)?;
    let path = flags.get("out").unwrap_or("trace.json");
    let ring = Arc::new(RingSink::unbounded());
    let report = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[be])
        .map_err(|e| e.to_string())?
        .policy(policy)
        .traced(ring.clone() as Arc<dyn tacker_trace::TraceSink>)
        .run()
        .map_err(|e| e.to_string())?;
    let events = ring.events();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    println!(
        "{} + {} under {:?}:",
        lc.name(),
        flags.require("be")?,
        policy
    );
    println!(
        "  {} events: {} decisions, {} fusion rejections, {} kernel retirements, {} queries",
        events.len(),
        count(|e| matches!(e, TraceEvent::Decision { .. })),
        count(|e| matches!(e, TraceEvent::FusionRejected { .. })),
        count(|e| matches!(e, TraceEvent::KernelRetired { .. })),
        count(|e| matches!(e, TraceEvent::QueryCompleted { .. })),
    );
    println!(
        "  p99 {:.2} ms | QoS {} | BE work rate {:.3}",
        ms(report.p99_latency()),
        if report.qos_met() { "met" } else { "VIOLATED" },
        report.be_work_rate()
    );
    print!("{}", report.metrics.render());
    write_chrome_trace(&ring, path)
}

fn multi(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let names = flags.require("lc")?;
    let mut lcs = Vec::new();
    for name in names.split(',') {
        lcs.push(
            tacker_workloads::lc_service(name.trim(), &device)
                .ok_or_else(|| format!("unknown LC service `{name}`"))?,
        );
    }
    let be = tacker_workloads::be_app(flags.require("be")?)
        .ok_or("unknown BE app (see `tacker list`)")?;
    let config = config_for(flags)?;
    let report = match flags.get("trace") {
        Some(path) => {
            let ring = Arc::new(RingSink::unbounded());
            let report = ColocationRun::new(&device, &config, &lcs, &[be])
                .map_err(|e| e.to_string())?
                .traced(ring.clone() as Arc<dyn tacker_trace::TraceSink>)
                .run()
                .map_err(|e| e.to_string())?;
            write_chrome_trace(&ring, path)?;
            report
        }
        None => ColocationRun::new(&device, &config, &lcs, &[be])
            .map_err(|e| e.to_string())?
            .run()
            .map_err(|e| e.to_string())?,
    };
    for svc in report.per_service() {
        println!(
            "{:<10} mean {:.2} ms  p99 {:.2} ms  violations {}",
            svc.name,
            ms(svc.mean_latency()),
            ms(svc.p99_latency()),
            svc.qos_violations
        );
    }
    println!(
        "BE work rate {:.3}, fused launches {}",
        report.be_work_rate(),
        report.fused_launches
    );
    Ok(())
}

/// `serve`: the online serving runtime — streaming arrivals, optional
/// fault injection, optional adaptive QoS guard.
fn serve(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let lc = tacker_workloads::lc_service(flags.require("lc")?, &device)
        .ok_or("unknown LC service (see `tacker list`)")?;
    let be = tacker_workloads::be_app(flags.require("be")?)
        .ok_or("unknown BE app (see `tacker list`)")?;
    let policy = policy_for(flags)?;
    let config = config_for(flags)?;
    let faults = tacker::FaultPlan::parse(flags.get("faults").unwrap_or("none"))
        .map_err(|e| e.to_string())?;
    let arrivals = match flags.get("arrivals").unwrap_or("poisson") {
        "poisson" => ArrivalSpec::Poisson,
        spec => match spec.split_once(':') {
            Some(("bursty", n)) => ArrivalSpec::Bursty {
                burst: n
                    .parse()
                    .map_err(|_| "--arrivals bursty:<N> expects a number")?,
            },
            _ => {
                return Err(format!(
                    "unknown arrival spec `{spec}` (poisson or bursty:N)"
                ))
            }
        },
    };
    let mut run = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[be])
        .map_err(|e| e.to_string())?
        .policy(policy)
        .arrivals(arrivals)
        .faults(faults);
    if flags.has("guard") {
        run = run.guarded(GuardConfig::default());
    }
    // Windowed telemetry: on when a time-series output is requested or a
    // window width is given explicitly.
    let window_us = flags.get_u64("window-us", 1000)?.max(1);
    if flags.get("timeseries-out").is_some() || flags.get("window-us").is_some() {
        run = run.windowed(SimTime::from_micros(window_us));
    }
    let ring = flags.get("trace").map(|_| Arc::new(RingSink::unbounded()));
    if let Some(ring) = &ring {
        run = run.traced(Arc::clone(ring) as Arc<dyn tacker_trace::TraceSink>);
    }
    let report = run.run().map_err(|e| e.to_string())?;
    if let (Some(ring), Some(path)) = (&ring, flags.get("trace")) {
        write_chrome_trace(ring, path)?;
    }
    if let Some(path) = flags.get("metrics-out") {
        std::fs::write(path, report.prometheus_text())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Prometheus metrics to {path}");
    }
    if let Some(path) = flags.get("timeseries-out") {
        std::fs::write(path, tacker_trace::timeseries_jsonl(&report.windows))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "wrote {} telemetry windows ({window_us} us wide) to {path}",
            report.windows.len()
        );
    }
    if flags.has("json") {
        println!("{}", serve_json(lc.name(), &report));
    } else {
        println!(
            "{} served under {:?} on {}:",
            lc.name(),
            policy,
            device.spec().name
        );
        println!(
            "  queries {} | mean {:.2} ms | p99 {:.2} ms | violations {} | QoS {}",
            report.query_count(),
            ms(report.mean_latency()),
            ms(report.p99_latency()),
            report.qos_violations(),
            if report.qos_met() { "met" } else { "VIOLATED" }
        );
        println!(
            "  BE work rate {:.3} | {} BE kernels ({} fused, {} reordered)",
            report.be_work_rate(),
            report.be_kernels,
            report.fused_launches,
            report.reordered_launches
        );
        println!(
            "  faults injected {} | guard steps {}{}",
            report.faults_injected,
            report.guard_steps,
            report
                .guard_level
                .map(|l| format!(" | guard level {}", l.name()))
                .unwrap_or_default()
        );
        if !report.violation_log.is_empty() {
            println!(
                "  violations attributed {} (guard rung, faults in flight, BE co-runner, \
                 queue depth)",
                report.violation_log.len()
            );
        }
    }
    Ok(())
}

/// `cluster`: fleet-scale serving — N heterogeneous devices behind a
/// global dispatcher with a pluggable per-query routing policy.
fn cluster(flags: &Flags) -> Result<(), String> {
    // Service construction needs a device handle only for kernel
    // compilation; the fleet builds its own per-node devices.
    let scratch = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let mut lcs = Vec::new();
    for name in flags.require("lc")?.split(',') {
        lcs.push(
            tacker_workloads::lc_service(name.trim(), &scratch)
                .ok_or_else(|| format!("unknown LC service `{name}`"))?,
        );
    }
    let devices = (flags.get_u64("devices", 2)? as usize).max(1);
    let dispatch_policy = DispatchPolicy::parse(flags.get("policy").unwrap_or("round-robin"))
        .map_err(|e| e.to_string())?;
    let device_policy = parse_policy(flags.get("device-policy").unwrap_or("tacker"))?;
    let config = config_for(flags)?;
    let mut nodes = heterogeneous_fleet(devices);
    if let Some(name) = flags.get("be") {
        let be = tacker_workloads::be_app(name).ok_or("unknown BE app (see `tacker list`)")?;
        for node in &mut nodes {
            node.be.push(be.clone());
        }
    }
    let hop = SimTime::from_micros(flags.get_u64("dispatch-us", 0)?);
    let run = FleetRun::new(nodes, &config, &lcs)
        .map_err(|e| e.to_string())?
        .device_policy(device_policy)
        .dispatch_policy(dispatch_policy)
        .dispatch_model(DispatchModel::constant(hop));
    if flags.has("compare") {
        let rows = run
            .run_policies(&DispatchPolicy::ALL)
            .map_err(|e| e.to_string())?;
        if flags.has("json") {
            for (_, report) in &rows {
                println!("{}", fleet_json(report));
            }
        } else {
            println!(
                "{} queries over {devices} devices, per dispatch policy:",
                rows[0].1.query_count()
            );
            println!(
                "{:<18} {:>9} {:>9} {:>11} {:>6} {:>10}",
                "policy", "mean(ms)", "p99(ms)", "violations", "skew", "makespan"
            );
            for (policy, report) in &rows {
                println!(
                    "{:<18} {:>9.2} {:>9.2} {:>4} ({:>4.1}%) {:>6.2} {:>8.1}ms",
                    policy.name(),
                    ms(report.mean_latency()),
                    ms(report.p99_latency()),
                    report.qos_violations(),
                    100.0 * report.violation_rate(),
                    report.outstanding_skew(),
                    report.wall.as_millis_f64()
                );
            }
        }
        return Ok(());
    }
    let report = run.run().map_err(|e| e.to_string())?;
    if flags.has("json") {
        println!("{}", fleet_json(&report));
        return Ok(());
    }
    println!(
        "{} service(s) over {devices} devices, {} dispatch ({:?} on-device):",
        report.services.len(),
        report.dispatch_policy,
        report.device_policy
    );
    println!(
        "  queries {} | mean {:.2} ms | p99 {:.2} ms | violations {} ({:.1}%) | skew {:.2}",
        report.query_count(),
        ms(report.mean_latency()),
        ms(report.p99_latency()),
        report.qos_violations(),
        100.0 * report.violation_rate(),
        report.outstanding_skew()
    );
    println!(
        "  {:<8} {:<11} {:>8} {:>7} {:>10} {:>8}",
        "node", "gpu", "queries", "util", "q/s(sim)", "max-out"
    );
    for dev in &report.devices {
        println!(
            "  {:<8} {:<11} {:>8} {:>6.1}% {:>10.1} {:>8}",
            dev.id,
            dev.gpu,
            dev.queries,
            100.0 * dev.utilization(),
            dev.sim_queries_per_sec(),
            dev.max_outstanding
        );
    }
    println!(
        "  aggregate {:.1} q/s (sim) over a {:.1} ms makespan",
        report.sim_queries_per_sec(),
        report.wall.as_millis_f64()
    );
    Ok(())
}

/// `stats`: summarize a Prometheus text or telemetry JSONL export
/// produced by `serve --metrics-out` / `serve --timeseries-out`.
fn stats(flags: &Flags) -> Result<(), String> {
    let path = flags.require("in")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    print!("{}", tacker_trace::summarize(&text)?);
    Ok(())
}

/// `sweep`: every (LC, BE) pair of the given lists as one parallel grid,
/// fanned out over `--jobs` workers. Each cell's RNG seed is derived from
/// its coordinates, so any jobs count produces identical rows.
fn sweep(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let mut lcs = Vec::new();
    for name in flags.require("lc")?.split(',') {
        lcs.push(
            tacker_workloads::lc_service(name.trim(), &device)
                .ok_or_else(|| format!("unknown LC service `{name}`"))?,
        );
    }
    let mut bes = Vec::new();
    for name in flags.require("be")?.split(',') {
        bes.push(
            tacker_workloads::be_app(name.trim())
                .ok_or_else(|| format!("unknown BE app `{name}`"))?,
        );
    }
    let policy = policy_for(flags)?;
    let config = config_for(flags)?;
    let jobs = config.jobs;
    let cells = tacker::run_pair_sweep(&device, &lcs, &bes, &[policy], &config, jobs)
        .map_err(|e| e.to_string())?;
    if flags.has("json") {
        for cell in &cells {
            println!(
                "{}",
                report_json(&format!("{}+{}", cell.lc, cell.be), &cell.report)
            );
        }
    } else {
        println!(
            "{} pairs under {:?} on {} (jobs {}):",
            cells.len(),
            policy,
            device.spec().name,
            tacker::sweep_jobs_used(jobs, &lcs, &bes, &[policy], &config),
        );
        println!(
            "{:<10} {:>8} {:>9} {:>9} {:>6} {:>8} {:>7}",
            "LC", "BE", "mean(ms)", "p99(ms)", "QoS", "BE-rate", "fused"
        );
        for cell in &cells {
            println!(
                "{:<10} {:>8} {:>9.2} {:>9.2} {:>6} {:>8.3} {:>7}",
                cell.lc,
                cell.be,
                ms(cell.report.mean_latency()),
                ms(cell.report.p99_latency()),
                if cell.report.qos_met() { "met" } else { "MISS" },
                cell.report.be_work_rate(),
                cell.report.fused_launches
            );
        }
        let (hits, misses) = device.cache_stats();
        let (fused_hits, fused_misses) = device.fused_cache_stats();
        println!(
            "device cache: {hits} hits / {misses} misses ({:.1}% hit rate); \
             fused launches: {fused_hits} hits / {fused_misses} misses ({:.1}% hit rate)",
            100.0 * device.cache_hit_rate(),
            100.0 * device.fused_cache_hit_rate()
        );
    }
    Ok(())
}

fn fuse(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let spec = device.spec().clone();
    let bench = parboil_for(flags.require("cd")?)?;
    let shape = GemmShape::new(
        flags.get_u64("m", 4096)?,
        flags.get_u64("n", 4096)?,
        flags.get_u64("k", 512)?,
    );
    let tc = match flags.get("impl").unwrap_or("128") {
        "128" => gemm_workload(&tacker_workloads::dnn::compile::shared_gemm(), shape),
        "64" => gemm_workload_64(shape),
        other => return Err(format!("unknown GEMM implementation `{other}` (128 or 64)")),
    };
    let mut cd = bench.task()[0].clone();
    let t_tc = device
        .run_launch(&tc.launch())
        .map_err(|e| e.to_string())?
        .duration;
    let t_cd = device
        .run_launch(&cd.launch())
        .map_err(|e| e.to_string())?
        .duration;
    cd.grid = ((cd.grid as f64 * t_tc.ratio(t_cd)).round() as u64).max(1);
    let t_cd = device
        .run_launch(&cd.launch())
        .map_err(|e| e.to_string())?
        .duration;
    println!(
        "GEMM {}x{}x{} solo {t_tc}; {} solo {t_cd}; sequential {}",
        shape.m,
        shape.n,
        shape.k,
        bench.name(),
        t_tc + t_cd
    );
    println!(
        "{:>9} {:>5} {:>12} {:>9}",
        "config", "occ", "fused", "vs seq"
    );
    for cfg in enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst) {
        let fused = fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm).map_err(|e| e.to_string())?;
        let launch = fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
        let plan = ExecutablePlan::from_launch(&spec, &launch).map_err(|e| e.to_string())?;
        let run = device.run_plan(&plan).map_err(|e| e.to_string())?;
        println!(
            "{:>9} {:>5} {:>12} {:>8.0}%",
            cfg.to_string(),
            plan.occupancy(&spec),
            run.duration.to_string(),
            100.0 * run.duration.ratio(t_tc + t_cd)
        );
    }
    Ok(())
}

fn codegen(flags: &Flags) -> Result<(), String> {
    let bench = parboil_for(flags.require("cd")?)?;
    let cd = bench.kernel();
    let ptb = to_ptb(&cd).map_err(|e| e.to_string())?;
    println!("// ===== PTB transform of {} =====", bench.name());
    println!("{}", tacker_kernel::source::render(&ptb));
    let ratio = flags.get("ratio").unwrap_or("1x1");
    let (a, b) = ratio
        .split_once('x')
        .ok_or("--ratio expects AxB, e.g. 2x1")?;
    let config = tacker_fuser::FusionConfig {
        tc_blocks: a.parse().map_err(|_| "bad ratio")?,
        cd_blocks: b.parse().map_err(|_| "bad ratio")?,
    };
    let gemm = tacker_workloads::gemm::gemm_kernel();
    let fused =
        fuse_flexible(&gemm, &cd, config, &GpuSpec::rtx2080ti().sm).map_err(|e| e.to_string())?;
    println!("// ===== fused GEMM + {} at {} =====", bench.name(), config);
    println!("{}", tacker_kernel::source::render(fused.def()));
    Ok(())
}

fn power(flags: &Flags) -> Result<(), String> {
    let device = device_for(flags)?;
    let lc =
        tacker_workloads::lc_service(flags.require("lc")?, &device).ok_or("unknown LC service")?;
    let profiler = KernelProfiler::new(Arc::clone(&device));
    let model = PowerModel::for_spec(device.spec());
    println!(
        "# §V-D power estimates for {} on {} (TDP {} W)",
        lc.name(),
        device.spec().name,
        model.tdp_w
    );
    let mut shown = std::collections::HashSet::new();
    for wk in lc.query_kernels() {
        if !shown.insert(wk.def.id()) {
            continue;
        }
        profiler.measure(wk).map_err(|e| e.to_string())?;
        let run = device.run_launch(&wk.launch()).map_err(|e| e.to_string())?;
        println!(
            "  {:<55} {:>6.0} W{}",
            wk.def.name(),
            model.estimate(device.spec(), &run),
            if model.at_limit(device.spec(), &run) {
                "  (at board limit)"
            } else {
                ""
            }
        );
    }
    Ok(())
}

fn model(flags: &Flags) -> Result<(), String> {
    use tacker_workloads::dnn::DnnModel;
    let name = flags.require("name")?;
    let m = DnnModel::ALL
        .into_iter()
        .find(|m| m.name() == name)
        .ok_or_else(|| format!("unknown model `{name}` (see `tacker list`)"))?;
    let batch = flags.get_u64("batch", m.table_ii_batch() as u64)?;
    let g = m.graph(batch);
    println!(
        "{} @ batch {batch}: {} layers, {} convolutions, {:.2} GMAC/query, {:.1} M params",
        m.name(),
        g.layers().len(),
        g.conv_count(),
        g.total_macs() as f64 / 1e9,
        g.total_params() as f64 / 1e6
    );
    println!("{:>4} {:<18} {:>16} {:>16}", "#", "layer", "in", "out");
    for (i, l) in g
        .layers()
        .iter()
        .enumerate()
        .take(flags.get_u64("rows", 24)? as usize)
    {
        println!(
            "{:>4} {:<18} {:>16} {:>16}",
            i,
            l.layer.to_string(),
            l.input.to_string(),
            l.output.to_string()
        );
    }
    if g.layers().len() > 24 {
        println!(
            "   … ({} more layers; pass --rows N for more)",
            g.layers().len() - 24
        );
    }
    Ok(())
}

fn report_json(lc: &str, r: &RunReport) -> String {
    format!(
        concat!(
            "{{\"lc\":\"{}\",\"policy\":\"{:?}\",\"queries\":{},",
            "\"mean_latency_ms\":{:.3},\"p99_latency_ms\":{:.3},",
            "\"qos_violations\":{},\"be_work_rate\":{:.4},",
            "\"be_kernels\":{},\"fused_launches\":{},\"reordered_launches\":{}}}"
        ),
        lc,
        r.policy,
        r.query_count(),
        ms(r.mean_latency()),
        ms(r.p99_latency()),
        r.qos_violations(),
        r.be_work_rate(),
        r.be_kernels,
        r.fused_launches,
        r.reordered_launches
    )
}

fn fleet_json(r: &FleetReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        concat!(
            "{{\"dispatch_policy\":\"{}\",\"device_policy\":\"{:?}\",",
            "\"devices\":{},\"queries\":{},\"mean_latency_ms\":{:.3},",
            "\"p99_latency_ms\":{:.3},\"qos_violations\":{},",
            "\"violation_rate\":{:.4},\"dispatch_latency_ms\":{:.3},",
            "\"outstanding_skew\":{:.3},\"makespan_ms\":{:.3},",
            "\"sim_queries_per_sec\":{:.1},\"per_device\":["
        ),
        r.dispatch_policy,
        r.device_policy,
        r.devices.len(),
        r.query_count(),
        ms(r.mean_latency()),
        ms(r.p99_latency()),
        r.qos_violations(),
        r.violation_rate(),
        r.dispatch_latency.as_millis_f64(),
        r.outstanding_skew(),
        r.wall.as_millis_f64(),
        r.sim_queries_per_sec()
    );
    for (i, dev) in r.devices.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            concat!(
                "{{\"id\":\"{}\",\"gpu\":\"{}\",\"queries\":{},",
                "\"utilization\":{:.4},\"sim_queries_per_sec\":{:.1},",
                "\"max_outstanding\":{}}}"
            ),
            dev.id,
            dev.gpu,
            dev.queries,
            dev.utilization(),
            dev.sim_queries_per_sec(),
            dev.max_outstanding
        );
    }
    out.push_str("]}");
    out
}

fn serve_json(lc: &str, r: &RunReport) -> String {
    let base = report_json(lc, r);
    format!(
        concat!(
            "{},\"faults_injected\":{},\"guard_steps\":{},\"guard_level\":\"{}\",",
            "\"violations_attributed\":{},\"windows\":{}}}"
        ),
        base.trim_end_matches('}'),
        r.faults_injected,
        r.guard_steps,
        r.guard_level.map_or("off", |l| l.name()),
        r.violation_log.len(),
        r.windows.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch(&argv("frobnicate")).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn list_works() {
        assert!(dispatch(&argv("list")).is_ok());
    }

    #[test]
    fn codegen_works() {
        assert!(dispatch(&argv("codegen --cd fft --ratio 1x2")).is_ok());
        assert!(dispatch(&argv("codegen --cd nope")).is_err());
        assert!(dispatch(&argv("codegen --cd fft --ratio bogus")).is_err());
    }

    #[test]
    fn fuse_explores_ratios() {
        assert!(dispatch(&argv("fuse --cd cutcp --m 2048 --n 1024 --k 256")).is_ok());
        assert!(dispatch(&argv("fuse --cd cutcp --m 2048 --n 1024 --k 256 --impl 64")).is_ok());
        assert!(dispatch(&argv("fuse --cd cutcp --impl 32")).is_err());
    }

    #[test]
    fn model_describes_architectures() {
        assert!(dispatch(&argv("model --name VGG16")).is_ok());
        assert!(dispatch(&argv("model --name VGG16 --batch 4 --rows 5")).is_ok());
        assert!(dispatch(&argv("model --name GPT5")).is_err());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(dispatch(&argv("colocate --lc Resnet50")).is_err()); // missing --be
        assert!(dispatch(&argv("colocate --lc Resnet50 --be fft --gpu tpu")).is_err());
        assert!(dispatch(&argv("colocate --lc Resnet50 --be fft --policy magic")).is_err());
        assert!(dispatch(&argv("colocate --lc Resnet50 --be fft --jobs many")).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        // Neither flag exists: they must not be silently dropped.
        let err = dispatch(&argv("colocate --lc Resnet50 --be cutcp --bogus 1")).unwrap_err();
        assert_eq!(err, "unknown flag `--bogus` for `colocate`");
        assert!(dispatch(&argv("colocate --lc Resnet50 --be cutcp --load 0")).is_err());
        assert!(dispatch(&argv("list --json")).is_err());
        assert!(dispatch(&argv("multi --lc Resnet50 --be fft --json")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --gpu v100")).is_err());
        assert!(dispatch(&argv("codegen --cd fft --ratio 1x2 --m 4")).is_err());
    }

    #[test]
    fn sweep_flags_are_validated() {
        assert!(dispatch(&argv("sweep --lc Resnet50")).is_err()); // missing --be
        assert!(dispatch(&argv("sweep --be fft,sgemm")).is_err()); // missing --lc
        assert!(dispatch(&argv("sweep --lc NopeNet --be fft")).is_err());
        assert!(dispatch(&argv("sweep --lc Resnet50 --be nope")).is_err());
        assert!(dispatch(&argv("sweep --lc Resnet50 --be fft --policy magic")).is_err());
    }

    #[test]
    fn serve_flags_are_validated() {
        assert!(dispatch(&argv("serve --lc Resnet50")).is_err()); // missing --be
        assert!(dispatch(&argv("serve --lc Resnet50 --be fft --faults bogus:1")).is_err());
        assert!(dispatch(&argv("serve --lc Resnet50 --be fft --arrivals sometimes")).is_err());
        assert!(dispatch(&argv("serve --lc Resnet50 --be fft --arrivals bursty:x")).is_err());
        assert!(dispatch(&argv("serve --lc Resnet50 --be fft --window-us x")).is_err());
    }

    #[test]
    fn cluster_flags_are_validated() {
        assert!(dispatch(&argv("cluster")).is_err()); // missing --lc
        assert!(dispatch(&argv("cluster --lc NopeNet")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --policy fifo")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --device-policy magic")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --be nope")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --devices x")).is_err());
        assert!(dispatch(&argv("cluster --lc Resnet50 --dispatch-us x")).is_err());
        // The dispatch hop must leave QoS budget (target is 50 ms).
        assert!(dispatch(&argv(
            "cluster --lc Resnet50 --queries 5 --dispatch-us 60000"
        ))
        .is_err());
    }

    #[test]
    fn cluster_serves_a_small_fleet() {
        assert!(dispatch(&argv(
            "cluster --lc Resnet50 --devices 2 --queries 8 --policy qos-headroom --json"
        ))
        .is_ok());
        assert!(dispatch(&argv(
            "cluster --lc Resnet50 --devices 2 --queries 8 --compare"
        ))
        .is_ok());
    }

    #[test]
    fn stats_summarizes_both_export_formats() {
        assert!(dispatch(&argv("stats")).is_err()); // missing --in
        assert!(dispatch(&argv("stats --in /nonexistent/tacker.prom")).is_err());
        let dir = std::env::temp_dir();
        // Prometheus text exposition.
        let registry = tacker_trace::MetricsRegistry::new();
        registry.counter("decisions").inc();
        let mut latency = tacker_trace::QuantileSketch::new();
        latency.observe(1_234_000);
        let prom = dir.join("tacker_cli_stats_test.prom");
        let text =
            tacker_trace::prometheus_text(&registry, &[("query_latency_us".into(), latency)]);
        std::fs::write(&prom, text).unwrap();
        assert!(dispatch(&["stats".into(), "--in".into(), prom.display().to_string()]).is_ok());
        // Telemetry JSONL.
        let mut ws = tacker_trace::WindowSeries::new(SimTime::from_micros(100));
        let mut emit = |_: &tacker_trace::WindowRow| {};
        ws.on_arrivals(SimTime::from_micros(5), 2, &mut emit);
        let rows = ws.finish(&mut emit);
        let jsonl = dir.join("tacker_cli_stats_test.jsonl");
        std::fs::write(&jsonl, tacker_trace::timeseries_jsonl(&rows)).unwrap();
        assert!(dispatch(&["stats".into(), "--in".into(), jsonl.display().to_string()]).is_ok());
        // Neither format.
        let junk = dir.join("tacker_cli_stats_test.junk");
        std::fs::write(&junk, "not-an-export\n").unwrap();
        assert!(dispatch(&["stats".into(), "--in".into(), junk.display().to_string()]).is_err());
        for p in [prom, jsonl, junk] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn json_shape() {
        // A real (tiny) run: RunReport is built by the engine only.
        let device = Arc::new(tacker_sim::Device::new(tacker_sim::GpuSpec::rtx2080ti()));
        let gemm = tacker_workloads::dnn::compile::shared_gemm();
        let lc = tacker_workloads::LcService::new(
            "tiny",
            4,
            vec![tacker_workloads::gemm::gemm_workload(
                &gemm,
                GemmShape::new(1024, 1024, 512),
            )],
        );
        let config = ExperimentConfig::default().with_queries(5);
        let r = ColocationRun::new(&device, &config, std::slice::from_ref(&lc), &[])
            .unwrap()
            .at(SimTime::from_millis(2))
            .run()
            .unwrap();
        let j = report_json("X", &r);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"queries\":5"));
        assert!(j.contains("\"fused_launches\":0"));
        let s = serve_json("X", &r);
        assert!(s.ends_with('}'));
        assert!(s.contains("\"guard_level\":\"off\""));
        assert!(s.contains("\"faults_injected\":0"));
    }
}
