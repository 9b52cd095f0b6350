//! `colocate`: one long warm Resnet50 + cutcp run under Tacker at 0.8 of
//! the calibrated peak load. Set-up calibrates and makes one warm-up run,
//! so the device cache is full before timing. The peak is a property of
//! the service, so it is calibrated on the eval seed's arrivals; the
//! workload seed drives the measured run's arrivals.

use std::sync::Arc;
use std::time::Instant;

use tacker::{ColocationRun, ExperimentConfig, Policy, RunReport};
use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_trace::TraceSink;
use tacker_workloads::{BeApp, LcService};

use crate::attrib::LayerSink;
use crate::common::{
    digest_line, end_to_end_metrics, print_provenance, print_result, run_problems, Args, Checks,
    EndToEnd, LayerValues, Reps, EVAL_SEED,
};
use crate::{host, layers};

/// LC queries per run.
pub const QUERIES: usize = 1200;

/// Everything the measured phase needs, built in set-up.
pub struct Setup {
    device: Arc<Device>,
    lc: LcService,
    be: BeApp,
    config: ExperimentConfig,
    mean_interarrival: SimTime,
    build_s: f64,
    calibrate_s: f64,
}

/// Builds the pair, calibrates its peak load and makes one warm-up run.
///
/// # Errors
///
/// Unknown workloads, calibration and warm-up failures.
pub fn setup(args: &Args) -> Result<Setup, String> {
    let t = Instant::now();
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc = tacker_workloads::lc_service("Resnet50", &device).ok_or("unknown LC Resnet50")?;
    let be = tacker_workloads::be_app("cutcp").ok_or("unknown BE cutcp")?;
    let build_s = t.elapsed().as_secs_f64();
    // Serial: a single co-location run; the fusion library prepares its
    // candidates on the calling thread.
    let config = ExperimentConfig::default()
        .with_queries(QUERIES)
        .with_seed(args.seed)
        .with_jobs(1);
    let t = Instant::now();
    let peak = tacker::server::calibrate_peak_interarrival(
        &device,
        &lc,
        &config.clone().with_seed(EVAL_SEED),
    )
    .map_err(|e| format!("calibration: {e}"))?;
    let calibrate_s = t.elapsed().as_secs_f64();
    let s = Setup {
        device,
        lc,
        be,
        mean_interarrival: peak.mul_f64(1.0 / config.load_factor),
        config,
        build_s,
        calibrate_s,
    };
    one_run(&s, None).map_err(|e| format!("warm-up run: {e}"))?;
    Ok(s)
}

fn one_run(s: &Setup, sink: Option<Arc<dyn TraceSink>>) -> Result<RunReport, tacker::TackerError> {
    let mut run = ColocationRun::new(
        &s.device,
        &s.config,
        std::slice::from_ref(&s.lc),
        std::slice::from_ref(&s.be),
    )?
    .policy(Policy::Tacker)
    .at(s.mean_interarrival);
    if let Some(sink) = sink {
        run = run.traced(sink);
    }
    run.run()
}

fn check_run(s: &Setup, checks: &mut Checks, r: &Result<RunReport, tacker::TackerError>) -> String {
    match r {
        Ok(r) => {
            checks.run(
                "colocate",
                run_problems(r, QUERIES, Some(s.config.qos_target)),
            );
            digest_line("Resnet50/cutcp/Tacker", r)
        }
        Err(e) => {
            checks.errored("colocate", 1, &e.to_string());
            String::new()
        }
    }
}

fn config_text(args: &Args) -> String {
    format!(
        "colocate lc=Resnet50 be=cutcp policy=Tacker queries={QUERIES} load=0.8 gpu=RTX2080Ti \
         device=warm calibration_seed={EVAL_SEED} seed={} jobs=1",
        args.seed
    )
}

/// The untraced end-to-end run.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args, pacer: &host::Pacer) -> Result<(), String> {
    let s = setup(args)?;
    let own_setup = crate::common::own_setup(pacer);
    print_provenance(args, 1, &config_text(args));
    let mut checks = Checks::default();
    let mut outcomes: Vec<(String, Option<RunReport>)> = Vec::new();
    let reps = Reps::measure(args.seconds, 3, pacer, || {
        let r = one_run(&s, None);
        let d = check_run(&s, &mut checks, &r);
        outcomes.push((d, r.ok()));
    });
    let digests: Vec<u64> = outcomes.iter().map(|o| host::digest(&o.0)).collect();
    println!(
        "digest: colocate {:016x} (reps: {digests:016x?})",
        digests[0]
    );
    checks.expect(
        digests.iter().all(|d| *d == digests[0]),
        "every colocate repetition simulates the same outcome",
    );
    let mut setups = crate::common::child_setups(args)?;
    setups.push(own_setup);
    println!("setup_samples_s: {setups:?}");
    let r = outcomes[0].1.as_ref();
    let e = EndToEnd {
        setup_s: host::median(&setups),
        reps,
        queries_per_rep: r.map_or(0.0, |r| r.query_count() as f64),
        be_gain_pct: None,
        be_rate: r.map_or(f64::NAN, RunReport::be_work_rate),
        lc_p99_ms: r
            .and_then(RunReport::p99_latency)
            .map_or(f64::NAN, |t| t.as_millis_f64()),
        qos_violation_rate: r.map_or(f64::NAN, |r| r.qos_violations() as f64 / QUERIES as f64),
    };
    if let Some(r) = r {
        println!(
            "colocate: fused={} refits={} be_kernels={} reordered={}",
            r.fused_launches, r.model_refreshes, r.be_kernels, r.reordered_launches
        );
    }
    let metrics = end_to_end_metrics(&e, &checks);
    print_result(&checks, &metrics);
    Ok(())
}

/// The traced per-layer run.
///
/// # Errors
///
/// Set-up and direct-call failures.
pub fn run_traced(args: &Args) -> Result<(), String> {
    let s = setup(args)?;
    print_provenance(args, 1, &config_text(args));
    let mut checks = Checks::default();

    let (r, wall, cpu) = host::timed(|| one_run(&s, None));
    let untraced = check_run(&s, &mut checks, &r);

    let sink = Arc::new(LayerSink::default());
    s.device.reset_stats();
    let (r, traced_wall, traced_cpu) = host::timed(|| {
        sink.begin();
        let r = one_run(&s, Some(sink.clone()));
        sink.end();
        r
    });
    let (hits, misses) = s.device.cache_stats();
    let (fused_hits, fused_misses) = s.device.fused_cache_stats();
    let traced = check_run(&s, &mut checks, &r);
    println!(
        "digest: colocate {:016x}; traced {:016x}",
        host::digest(&untraced),
        host::digest(&traced)
    );
    checks.expect(
        untraced == traced,
        "the traced run simulates the untraced outcome",
    );
    let a = sink.snapshot();
    let mut v = LayerValues::default();
    if let Ok(r) = &r {
        checks.expect(
            a.fused == r.fused_launches,
            "trace Decision{Fuse} count equals fused_launches",
        );
        checks.expect(
            a.refreshes == r.model_refreshes,
            "trace ModelRefresh count equals model_refreshes",
        );
        checks.expect(
            a.completed as usize == r.query_count(),
            "trace QueryCompleted count equals query_count",
        );
        v.set("serve.be_kernels", r.be_kernels as f64);
        crate::traced_layers(&mut v, &a, traced_wall, r.model_refreshes, 0.0);
    }
    v.set("par.jobs_used", 1.0);
    v.set("par.cpu_per_wall", cpu / wall);
    v.set("trace.overhead_pct", 100.0 * (traced_cpu / cpu - 1.0));
    v.set("sim.device.hits", hits as f64);
    v.set("sim.device.misses", misses as f64);
    v.set(
        "sim.device.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.set("sim.device.fused_hits", fused_hits as f64);
    v.set("sim.device.fused_misses", fused_misses as f64);
    v.set(
        "sim.device.fused_hit_rate",
        fused_hits as f64 / (fused_hits + fused_misses).max(1) as f64,
    );
    v.set("workloads.build_s", s.build_s);
    v.set("server.calibrate_s", s.calibrate_s);
    layers::measure(&s.device, s.lc.query_kernels(), s.be.task_kernels(), &mut v)?;
    print_result(&checks, &v.metrics());
    Ok(())
}
