//! `fleet`: the six Table II LC services served LC-only over
//! `heterogeneous_fleet(4)` (2080Ti / V100 alternating) under
//! `DispatchPolicy::QosHeadroom` at jobs = `nproc`. Per-service loads
//! total 0.8 of the fleet's summed peak; they are calibrated once in
//! set-up (on the eval seed's arrivals: a peak is a property of the
//! service and GPU) and passed with `with_loads`, so the measured phase
//! calibrates nothing. The workload seed drives the arrivals.

use std::sync::Arc;
use std::time::Instant;

use tacker::{
    heterogeneous_fleet, DispatchPolicy, ExperimentConfig, FleetReport, FleetRun, Policy,
    ServiceLoad,
};
use tacker_kernel::SimTime;
use tacker_sim::{Device, GpuSpec};
use tacker_trace::TraceSink;
use tacker_workloads::LcService;

use crate::attrib::LayerSink;
use crate::common::{
    end_to_end_metrics, print_provenance, print_result, Args, Checks, EndToEnd, LayerValues, Reps,
    EVAL_SEED,
};
use crate::grid::LC_NAMES;
use crate::{host, layers};

/// Devices in the fleet.
pub const DEVICES: usize = 4;

/// Queries per service per run.
pub const QUERIES: usize = 12_000;

/// Queries per service of each peak-load calibration.
pub const CALIBRATION_QUERIES: usize = 500;

/// Share of the fleet's summed peak the six services offer together.
pub const LOAD: f64 = 0.8;

/// Everything the measured phase needs, built in set-up.
pub struct Setup {
    lcs: Vec<LcService>,
    loads: Vec<ServiceLoad>,
    config: ExperimentConfig,
    build_s: f64,
    calibrate_s: f64,
}

/// Builds the services and calibrates each one's peak on both GPU
/// profiles of the fleet.
///
/// # Errors
///
/// Unknown services and calibration errors.
pub fn setup(args: &Args) -> Result<Setup, String> {
    let t = Instant::now();
    let scratch = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lcs = LC_NAMES
        .iter()
        .map(|n| tacker_workloads::lc_service(n, &scratch).ok_or(format!("unknown LC {n}")))
        .collect::<Result<Vec<_>, _>>()?;
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let nodes = heterogeneous_fleet(DEVICES);
    let cal_config = ExperimentConfig::default()
        .with_queries(CALIBRATION_QUERIES)
        .with_seed(EVAL_SEED)
        .with_jobs(1);
    // One calibration per (service, GPU profile); the fleet's peak rate
    // for a service is the sum of its nodes' peak rates.
    let specs = [GpuSpec::rtx2080ti(), GpuSpec::v100()];
    let jobs: Vec<(LcService, GpuSpec)> = lcs
        .iter()
        .flat_map(|lc| specs.iter().map(move |g| (lc.clone(), g.clone())))
        .collect();
    let peaks = tacker_par::try_pool_map(args.jobs, jobs, move |_, (lc, spec)| {
        let device = Arc::new(Device::new(spec.clone()));
        tacker::server::calibrate_peak_interarrival(&device, lc, &cal_config)
    })
    .map_err(|e| format!("calibration: {e}"))?;
    let loads = lcs
        .iter()
        .enumerate()
        .map(|(i, lc)| {
            let fleet_rate: f64 = nodes
                .iter()
                .map(|n| {
                    let g = specs
                        .iter()
                        .position(|s| s.name == n.spec.name)
                        .expect("fleet GPU");
                    1.0 / peaks[i * specs.len() + g].as_secs_f64()
                })
                .sum();
            ServiceLoad {
                lc: lc.clone(),
                mean_interarrival: SimTime::from_secs_f64(
                    LC_NAMES.len() as f64 / (LOAD * fleet_rate),
                ),
                seed: args.seed.wrapping_add(i as u64),
            }
        })
        .collect();
    Ok(Setup {
        lcs,
        loads,
        config: ExperimentConfig::default()
            .with_queries(QUERIES)
            .with_seed(args.seed),
        build_s,
        calibrate_s: t.elapsed().as_secs_f64(),
    })
}

fn one_run(
    s: &Setup,
    jobs: usize,
    sink: Option<Arc<dyn TraceSink>>,
) -> Result<FleetReport, tacker::TackerError> {
    let mut run = FleetRun::new(
        heterogeneous_fleet(DEVICES),
        &s.config.clone().with_jobs(jobs),
        &s.lcs,
    )?
    .device_policy(Policy::LcOnly)
    .dispatch_policy(DispatchPolicy::QosHeadroom)
    .with_loads(&s.loads);
    if let Some(sink) = sink {
        run = run.traced(sink);
    }
    run.run()
}

/// Checks one fleet run and returns its digest text.
fn check_run(
    s: &Setup,
    checks: &mut Checks,
    r: &Result<FleetReport, tacker::TackerError>,
) -> String {
    let r = match r {
        Ok(r) => r,
        Err(e) => {
            checks.errored("fleet", 1, &e.to_string());
            return String::new();
        }
    };
    let total = QUERIES * LC_NAMES.len();
    let mut problems = Vec::new();
    if r.query_count() != total {
        problems.push(format!("completed {} of {total} queries", r.query_count()));
    }
    let p99 = r.p99_latency();
    let numbers = [
        r.violation_rate(),
        r.outstanding_skew(),
        r.sim_queries_per_sec(),
        p99.map_or(f64::NAN, SimTime::as_millis_f64),
    ];
    if numbers.iter().any(|v| !v.is_finite()) {
        problems.push(format!("non-finite number in {numbers:?}"));
    }
    if let Some(p) = p99.filter(|p| *p > s.config.qos_target) {
        problems.push(format!("p99 {p} over the {} target", s.config.qos_target));
    }
    checks.run("fleet", problems);
    let ns = |t: Option<SimTime>| t.map_or(0, SimTime::as_nanos);
    let mut d = format!("fleet p99={} wall={}\n", ns(p99), r.wall.as_nanos());
    for dev in &r.devices {
        let rep = dev.report.as_ref();
        d.push_str(&format!(
            "{} queries={} p50={} p99={} busy={}\n",
            dev.id,
            dev.queries,
            ns(rep.and_then(|x| x.latency.percentile(50.0))),
            ns(rep.and_then(tacker::RunReport::p99_latency)),
            rep.map_or(0, |x| x.busy.as_nanos())
        ));
    }
    d
}

fn config_text(args: &Args) -> String {
    format!(
        "fleet lcs={LC_NAMES:?} nodes=heterogeneous_fleet({DEVICES}) dispatch=qos-headroom \
         device_policy=LcOnly queries_per_service={QUERIES} load={LOAD} \
         calibration_queries={CALIBRATION_QUERIES} calibration_seed={EVAL_SEED} seed={} jobs={}",
        args.seed, args.jobs
    )
}

fn jobs_used(jobs: usize) -> usize {
    tacker_par::planned_jobs(jobs, DEVICES, u64::MAX)
}

/// The untraced end-to-end run.
///
/// # Errors
///
/// Set-up failures.
pub fn run(args: &Args, pacer: &host::Pacer) -> Result<(), String> {
    let s = setup(args)?;
    let own_setup = crate::common::own_setup(pacer);
    print_provenance(args, jobs_used(args.jobs), &config_text(args));
    let mut checks = Checks::default();
    let mut outcomes: Vec<(String, Option<FleetReport>)> = Vec::new();
    let reps = Reps::measure(args.seconds, 3, pacer, || {
        let r = one_run(&s, args.jobs, None);
        let d = check_run(&s, &mut checks, &r);
        outcomes.push((d, r.ok()));
    });
    let digests: Vec<u64> = outcomes.iter().map(|o| host::digest(&o.0)).collect();
    println!("digest: fleet {:016x} (reps: {digests:016x?})", digests[0]);
    checks.expect(
        digests.iter().all(|d| *d == digests[0]),
        "every fleet repetition simulates the same outcome",
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
        be_rate: 0.0,
        lc_p99_ms: r
            .and_then(FleetReport::p99_latency)
            .map_or(f64::NAN, |t| t.as_millis_f64()),
        qos_violation_rate: r.map_or(f64::NAN, |r| {
            r.qos_violations() as f64 / (QUERIES * LC_NAMES.len()) as f64
        }),
    };
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
    print_provenance(args, jobs_used(args.jobs), &config_text(args));
    let mut checks = Checks::default();

    let (r, wall, cpu) = host::timed(|| one_run(&s, args.jobs, None));
    let untraced = check_run(&s, &mut checks, &r);

    // Traced at jobs = 1: the dispatcher is the only traced layer, and the
    // per-device replays run one after another.
    let sink = Arc::new(LayerSink::default());
    let (r, traced_wall, traced_cpu) = host::timed(|| {
        sink.begin();
        let r = one_run(&s, 1, Some(sink.clone()));
        sink.end();
        r
    });
    let traced = check_run(&s, &mut checks, &r);
    println!(
        "digest: fleet {:016x}; traced {:016x}",
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
            a.dispatched as usize == r.query_count(),
            "trace QueryDispatched count equals FleetReport::query_count",
        );
        let utils: Vec<f64> = r.devices.iter().map(|d| d.utilization()).collect();
        v.set("fleet.skew", r.outstanding_skew());
        v.set(
            "fleet.util_min",
            utils.iter().copied().fold(f64::INFINITY, f64::min),
        );
        v.set("fleet.util_max", utils.iter().copied().fold(0.0, f64::max));
        v.set(
            "serve.be_kernels",
            r.devices
                .iter()
                .filter_map(|d| d.report.as_ref())
                .map(|x| x.be_kernels)
                .sum::<u64>() as f64,
        );
        let refits = r
            .devices
            .iter()
            .filter_map(|d| d.report.as_ref())
            .map(|x| x.model_refreshes)
            .sum();
        crate::traced_layers(&mut v, &a, traced_wall, refits, a.last_tail_s);
    }
    v.set("par.jobs_used", jobs_used(args.jobs) as f64);
    v.set("par.cpu_per_wall", cpu / wall);
    v.set("trace.overhead_pct", 100.0 * (traced_cpu / cpu - 1.0));
    v.set("workloads.build_s", s.build_s);
    v.set("server.calibrate_s", s.calibrate_s);
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
    let lc_kernels: Vec<_> = s
        .lcs
        .iter()
        .flat_map(|l| l.query_kernels().to_vec())
        .collect();
    layers::measure(&device, &lc_kernels, &[], &mut v)?;
    print_result(&checks, &v.metrics());
    Ok(())
}
