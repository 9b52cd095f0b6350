//! Co-location (§VIII-B to §VIII-E): the 2080Ti grid and its three views
//! (Figs. 14, 16 and 19's comparison), the V100 grid, Fig. 15's
//! timelines, batch-size sensitivity and two LC services at once.

use std::fmt::{self, Write};

use tacker::prelude::*;
use tacker::server::calibrate_peak_interarrival;
use tacker_workloads::dnn::compile::{compile, ConvPolicy};
use tacker_workloads::dnn::DnnModel;
use tacker_workloads::{Intensity, LcService};

use crate::{mean, Ctx, SweepRow};

/// The LC services of Fig. 19.
const FIG19_LCS: [&str; 3] = ["Resnet50", "VGG16", "Densenet"];

/// Every improvement of a grid, then those of its compute- and
/// memory-intensive BE applications.
type Improvements = (Vec<f64>, Vec<f64>, Vec<f64>);

/// Renders an improvement grid under `title`: one row per LC service,
/// one column per BE application.
fn improvement_grid(
    ctx: &Ctx,
    title: &str,
    sweep: &[SweepRow],
    out: &mut String,
) -> Result<Improvements, fmt::Error> {
    write!(out, "{title}\n{:<10}", "LC \\ BE")?;
    for be in &ctx.bes {
        write!(out, "{:>9}", be.name())?;
    }
    let (mut all, mut compute, mut memory) = (Vec::new(), Vec::new(), Vec::new());
    for row in sweep.chunks(ctx.bes.len()) {
        write!(out, "\n{:<10}", row[0].0)?;
        for ((_, _, imp, _, _), be) in row.iter().zip(&ctx.bes) {
            write!(out, "{imp:>8.1}%")?;
            all.push(*imp);
            match be.intensity() {
                Intensity::Compute => compute.push(*imp),
                Intensity::Memory => memory.push(*imp),
            }
        }
    }
    writeln!(out, "\n")?;
    Ok((all, compute, memory))
}

/// The largest of `v`.
fn max(v: &[f64]) -> f64 {
    v.iter().cloned().fold(f64::MIN, f64::max)
}

/// Figure 14: BE throughput improvement of Tacker over Baymax for all
/// 6 LC × 12 BE co-location pairs on the RTX 2080Ti.
///
/// Paper: average 18.6%, up to 41.1%; compute-intensive BE applications
/// gain more than memory-intensive ones.
pub fn fig14(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let sweep = ctx.rtx_sweep();
    for (lc, be, _, _, tacker) in sweep {
        let p99 = tacker.p99_latency().expect("queries completed");
        let qos_met = p99 <= ctx.config.qos_target.mul_f64(1.02);
        assert!(qos_met, "{lc}+{be}: p99 {p99} exceeds QoS");
    }
    let title = "# Figure 14: BE throughput improvement over Baymax (2080Ti)";
    let (all, compute, memory) = improvement_grid(ctx, title, sweep, out)?;
    let (avg, max, compute, memory) = (mean(&all), max(&all), mean(&compute), mean(&memory));
    writeln!(
        out,
        "pairs: {}\n\
         average improvement: {avg:.1}%   (paper: 18.6%)\n\
         max improvement:     {max:.1}%   (paper: 41.1%)\n\
         compute-intensive avg: {compute:.1}%  >  memory-intensive avg: {memory:.1}%  \
         (paper: compute > memory)",
        all.len()
    )
}

/// Figure 15: active timelines of the two core types *with Tacker* for
/// Resnet50+sgemm and Resnet50+fft.
///
/// Paper: Tacker's fused kernels keep both core types active at once, and
/// the compute-intensive partner (fft) overlaps for longer than the
/// memory-intensive one (sgemm).
pub fn fig15(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let config = ctx.config.clone().with_queries(40).with_timeline();
    let lc = std::slice::from_ref(ctx.lc("Resnet50"));
    writeln!(out, "# Figure 15: active timelines with Tacker")?;
    let mut overlaps = Vec::new();
    for be in ["sgemm", "fft"] {
        let report = ctx.colocate(&config, lc, be, Policy::Tacker);
        let tl = report.timeline.expect("timeline recorded");
        let fused = report.fused_launches;
        writeln!(out, "\n## Resnet50 + {be} (fused launches: {fused})")?;
        write!(out, "{}", tl.render_ascii(100))?;
        let both = tl.both_active_time();
        writeln!(out, "both core types active simultaneously: {both}")?;
        overlaps.push(both);
    }
    assert!(overlaps.iter().all(|&t| t > SimTime::ZERO));
    let (sgemm, fft) = (overlaps[0], overlaps[1]);
    assert!(
        fft > sgemm,
        "fft (compute-intensive) should co-run longer than sgemm (paper §VIII-C)"
    );
    writeln!(
        out,
        "\nco-run time: fft {fft} > sgemm {sgemm}  (paper: same ordering)"
    )
}

/// Figure 16: average and 99%-ile latencies of the LC services across all
/// 72 co-location pairs under Tacker — Fig. 14's Tacker runs.
///
/// Paper: QoS (50 ms) is met in every pair; 99%-ile latencies are close to
/// the target (headroom is used up), averages are similar across
/// co-locations.
pub fn fig16(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let qos = ctx.config.qos_target;
    let [lc, be, avg, p99, met] = ["LC", "BE", "avg(ms)", "p99(ms)", "QoS"];
    writeln!(
        out,
        "# Figure 16: LC latencies under Tacker (QoS target {qos})\n\
         {lc:<10} {be:>8} {avg:>10} {p99:>10} {met:>6}"
    )?;
    let mut all_ok = true;
    for (lc, be, _, _, r) in ctx.rtx_sweep() {
        let avg = r.mean_latency().expect("queries completed").as_millis_f64();
        let p99 = r.p99_latency().expect("queries completed");
        let ok = p99 <= qos.mul_f64(1.02);
        all_ok &= ok;
        let (p99, met) = (p99.as_millis_f64(), if ok { "met" } else { "MISS" });
        writeln!(out, "{lc:<10} {be:>8} {avg:>10.2} {p99:>10.2} {met:>6}")?;
    }
    assert!(all_ok, "every pair must meet QoS");
    writeln!(out, "\nQoS met in all 72 co-locations (paper: same).")
}

/// Figure 19: BE throughput improvement on the V100.
///
/// Paper: average 23.3% (up to 40.4%) across Resnet50/VGG16/Densenet × 12
/// BE apps; memory-intensive BE applications gain *more* on V100 than on
/// the 2080Ti thanks to the 96 KB shared memory per SM.
pub fn fig19(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let lc = |name| tacker_workloads::lc_service(name, &ctx.v100).expect("LC service");
    let lcs: Vec<LcService> = FIG19_LCS.map(lc).to_vec();
    let sweep = run_improvement_sweep(&ctx.v100, &lcs, &ctx.bes, &ctx.config, ctx.jobs)
        .expect("V100 sweep");
    let title = "# Figure 19: improvement over Baymax on V100";
    let (all, _, mem_v100) = improvement_grid(ctx, title, &sweep, out)?;
    // Memory-intensive comparison against the 2080Ti for the same rows.
    let mem_2080: Vec<f64> = ctx
        .rtx_sweep()
        .iter()
        .zip(ctx.bes.iter().cycle())
        .filter(|((lc, ..), be)| {
            FIG19_LCS.contains(&lc.as_str()) && be.intensity() == Intensity::Memory
        })
        .map(|((_, _, imp, _, _), _)| *imp)
        .collect();
    let (avg, max, mem_v100, mem_2080) = (mean(&all), max(&all), mean(&mem_v100), mean(&mem_2080));
    writeln!(
        out,
        "V100 average improvement: {avg:.1}%  (paper: 23.3%)\n\
         V100 max improvement:     {max:.1}%  (paper: 40.4%)\n\
         memory-intensive BE avg: V100 {mem_v100:.1}% vs 2080Ti {mem_2080:.1}%  \
         (paper: V100 higher — 96 KB smem)"
    )?;
    assert!(
        mem_v100 > mem_2080,
        "memory-intensive BEs must gain more on V100"
    );
    Ok(())
}

/// §VIII-C batch-size sensitivity: with batch size 1 the LC kernels are
/// tiny, so the co-located BE application gets more raw throughput (more
/// idle + headroom) but the *fusion technique's* gain over Baymax shrinks
/// (the LC duration bounds the fusion potential).
///
/// Paper: +17.4% more BE throughput at batch 1, but only +5.5% improvement
/// over Baymax (vs the batch-32 gain).
pub fn fig_batch(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let config = ctx.config.clone().with_queries(100);
    let be = std::slice::from_ref(ctx.be("mriq"));
    let [batch, baymax, tacker, imp] = ["batch", "baymax rate", "tacker rate", "improvement"];
    writeln!(
        out,
        "# Batch-size sensitivity (Resnet50 + mriq)\n\
         {batch:>6} {baymax:>12} {tacker:>12} {imp:>12}"
    )?;
    // The paper varies the batch size at a fixed query rate: calibrate the
    // load once for the Table II batch (32) and reuse it.
    let interarrival = calibrate_peak_interarrival(device, ctx.lc("Resnet50"), &config)
        .expect("calibration")
        .mul_f64(1.0 / config.load_factor);
    let mut rows = Vec::new();
    for batch in [1u32, 8, 32] {
        let graph = DnnModel::Resnet50.graph(batch as u64);
        let compiled = compile(&graph, device, ConvPolicy::Profitable(0.15));
        let lc = LcService::new(format!("Resnet50-b{batch}"), batch, compiled.kernels);
        let run = |policy| {
            ColocationRun::new(device, &config, std::slice::from_ref(&lc), be)
                .and_then(|run| run.policy(policy).at(interarrival).run())
                .expect("colocation")
        };
        let (baymax, tacker) = (run(Policy::Baymax), run(Policy::Tacker));
        assert!(tacker.qos_met(), "batch {batch}: QoS violated");
        let (baymax, tacker) = (baymax.be_work_rate(), tacker.be_work_rate());
        let imp = 100.0 * (tacker / baymax - 1.0);
        writeln!(out, "{batch:>6} {baymax:>12.3} {tacker:>12.3} {imp:>11.1}%")?;
        rows.push((baymax, imp));
    }
    // Smaller batches → more raw BE throughput; fusion's edge shrinks.
    assert!(
        rows[0].0 > rows[2].0,
        "batch 1 should leave more raw BE throughput than batch 32"
    );
    assert!(
        rows[0].1 < rows[2].1 + 1e-9,
        "fusion's improvement should shrink at batch 1 (paper: 5.5% vs larger)"
    );
    writeln!(
        out,
        "\nbatch 1 has more raw BE throughput but a smaller fusion gain (paper: same)."
    )
}

/// Extension experiment (§VII-B-2 at service granularity): two LC services
/// co-located with one BE application. Equation 9 reserves the remaining
/// GPU time of every active query across services, so both keep their QoS
/// while Tacker still fuses.
pub fn multi_lc(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let config = ctx.config.clone().with_queries(100);
    let lcs = [ctx.lc("Resnet50").clone(), ctx.lc("Densenet").clone()];
    let title = "Multiple LC services: Resnet50 + Densenet, with mriq as BE";
    writeln!(out, "# {title}")?;
    let mut rates = Vec::new();
    for policy in [Policy::Baymax, Policy::Tacker] {
        let r = ctx.colocate(&config, &lcs, "mriq", policy);
        writeln!(out, "## {policy:?}")?;
        for svc in r.per_service() {
            let mean = svc.mean_latency().expect("queries completed");
            let p99 = svc.p99_latency().expect("queries completed");
            let (name, violations) = (&svc.name, svc.qos_violations);
            writeln!(
                out,
                "  {name:<10} mean {:>7.2} ms  p99 {:>7.2} ms  violations {violations}",
                mean.as_millis_f64(),
                p99.as_millis_f64()
            )?;
            // Cross-service bursts are invisible to each service's own
            // calibration; require the p99 to meet QoS and at most 1%
            // stragglers.
            assert!(p99 <= config.qos_target, "{name} p99 {p99} exceeds QoS");
            assert!(violations <= config.queries / 100 + 1);
        }
        let (rate, fused) = (r.be_work_rate(), r.fused_launches);
        writeln!(out, "  BE work rate {rate:.3}, fused {fused}")?;
        rates.push(rate);
    }
    writeln!(
        out,
        "\nTacker improves BE throughput by {:.1}% with both services' QoS intact.",
        100.0 * (rates[1] / rates[0] - 1.0)
    )?;
    assert!(rates[1] >= rates[0]);
    Ok(())
}
