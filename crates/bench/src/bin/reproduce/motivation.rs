//! The motivation (§III): Table I's microbenchmarks, the false high
//! utilization of Figs. 1 and 2, and Fig. 3's direct fusion.

use std::fmt::{self, Write};
use std::sync::Arc;

use tacker::prelude::*;
use tacker_fuser::{fuse_direct, fuse_flexible, FusionConfig};
use tacker_sim::ExecutablePlan;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::microbench::{kc, kt, micro_launch};
use tacker_workloads::parboil::Benchmark::*;

use crate::{fused_duration, mean, Ctx};

/// Table I: the motivation microbenchmarks.
///
/// Bench-A fuses the Tensor microkernel Kt with the CUDA microkernel Kc
/// (equal solo durations): the fused kernel takes ≈1.03× one solo run.
/// Bench-B (Kt+Kt) and Bench-C (Kc+Kc) take 2× — same-pipeline fusion
/// buys nothing.
pub fn table1(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let (kt_def, kc_def) = (Arc::new(kt()), Arc::new(kc()));
    let (iters, blocks_per_sm) = (256, 2);
    let solo = |def, blocks| {
        let wk = micro_launch(def, blocks, iters);
        device.run_launch(&wk.launch()).expect("solo run").duration
    };
    let t_kt = solo(&kt_def, blocks_per_sm);
    let t_kc = solo(&kc_def, blocks_per_sm);
    writeln!(
        out,
        "# Table I: microbenchmark durations (normalized to Kt solo)"
    )?;
    writeln!(
        out,
        "Kt solo: {t_kt}; Kc solo: {t_kc} (tuned equal: ratio {:.3})",
        t_kc.ratio(t_kt)
    )?;

    // Bench-A: Kt fused with Kc at 1:1.
    let fused_a = fuse_flexible(
        &kt_def,
        &kc_def,
        FusionConfig::ONE_TO_ONE,
        &device.spec().sm,
    )
    .expect("bench-a fuses");
    let wk_t = micro_launch(&kt_def, blocks_per_sm, iters);
    let wk_c = micro_launch(&kc_def, blocks_per_sm, iters);
    let t_a = fused_duration(device, &fused_a, &wk_t, &wk_c, wk_c.grid);
    // Bench-B: two Kt back to back (same pipeline — fusing buys nothing,
    // measure sequential execution of twice the work). Bench-C: two Kc.
    let t_b = solo(&kt_def, 2 * blocks_per_sm);
    let t_c = solo(&kc_def, 2 * blocks_per_sm);

    writeln!(out)?;
    writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>8}",
        "bench", "1st half", "2nd half", "norm"
    )?;
    for (bench, first, second, t) in [
        ("Bench-A", "Kt", "Kc", t_a),
        ("Bench-B", "Kt", "Kt", t_b),
        ("Bench-C", "Kc", "Kc", t_c),
    ] {
        writeln!(
            out,
            "{bench:<10} {first:>10} {second:>12} {:>8.2}",
            t.ratio(t_kt)
        )?;
    }
    writeln!(out, "\npaper: Bench-A 1.03, Bench-B 2.00, Bench-C 2.00")?;
    let (a, b, c) = (t_a.ratio(t_kt), t_b.ratio(t_kt), t_c.ratio(t_kt));
    assert!(a < 1.25, "Bench-A should be near 1.0, got {a:.2}");
    assert!((b - 2.0).abs() < 0.25, "Bench-B should be ≈2, got {b:.2}");
    assert!((c - 2.0).abs() < 0.25, "Bench-C should be ≈2, got {c:.2}");
    Ok(())
}

/// Figure 1: the *false high utilization* problem — Tensor/CUDA core
/// active timelines when Baymax co-locates Resnet50 (LC) with sgemm (BE).
///
/// Paper: the GPU looks computation-busy, yet at any instant either the
/// Tensor Cores or the CUDA Cores are idle (the two rows never overlap).
pub fn fig01(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let config = ctx.config.clone().with_queries(12).with_timeline();
    let lc = std::slice::from_ref(ctx.lc("Resnet50"));
    let report = ctx.colocate(&config, lc, "sgemm", Policy::Baymax);
    let tl = report.timeline.expect("timeline recorded");

    writeln!(
        out,
        "# Figure 1: active timeline under Baymax (Resnet50 + sgemm)"
    )?;
    write!(out, "{}", tl.render_ascii(100))?;
    let both = tl.both_active_time();
    writeln!(out, "\nTC active: {}", tl.tc_active_time())?;
    writeln!(out, "CD active: {}", tl.cd_active_time())?;
    writeln!(
        out,
        "both active simultaneously: {both}  (paper: never — false high utilization)"
    )?;
    assert_eq!(
        both,
        SimTime::ZERO,
        "Baymax must never use both core types at once"
    );
    Ok(())
}

/// Figure 2: stacked Tensor-kernel and CUDA-kernel active time under
/// Baymax for 6 LC services × 5 BE applications, normalized to the QoS
/// target.
///
/// Paper: the two stacked parts sum to ≈ the QoS target for every pair —
/// the cores are busy all the time, but never simultaneously.
pub fn fig02(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let config = ctx.config.clone().with_queries(40).with_timeline();
    writeln!(
        out,
        "# Figure 2: TC/CD kernel active time under Baymax (normalized to QoS window)"
    )?;
    writeln!(
        out,
        "{:<10} {:>7} {:>9} {:>9} {:>9} {:>8}",
        "LC", "BE", "TC part", "CD part", "sum", "overlap"
    )?;
    for lc in &ctx.lcs {
        for be in ["sgemm", "fft", "lbm", "cutcp", "mriq"] {
            let report = ctx.colocate(&config, std::slice::from_ref(lc), be, Policy::Baymax);
            let tl = report.timeline.expect("timeline");
            // Normalize active times to the total busy window.
            let busy = tl.tc_active_time() + tl.cd_active_time();
            let tc = tl.tc_active_time().ratio(busy);
            let cd = tl.cd_active_time().ratio(busy);
            let overlap = tl.both_active_time();
            let name = lc.name();
            writeln!(
                out,
                "{name:<10} {be:>7} {tc:>8.2} {cd:>9.2} {:>9.2} {overlap:>8}",
                tc + cd
            )?;
            assert_eq!(overlap, SimTime::ZERO);
        }
    }
    out.push_str(
        "\nEvery row: TC part + CD part = 1.00 of the busy window, overlap = 0 —\n\
         the false high utilization problem (paper: same conclusion).\n",
    );
    Ok(())
}

/// Figure 3: *direct* (1:1, input-specific) fusion of the Tensor-Core GEMM
/// with each Parboil kernel.
///
/// Paper: most directly fused kernels take ≈2× (no parallel-utilization
/// win), because naive fusion halves occupancy and contends for
/// resources — the motivation for flexible PTB fusion.
pub fn fig03(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let gemm_wk = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let t_gemm = device.run_launch(&gemm_wk.launch()).expect("gemm").duration;

    out.push_str(
        "# Figure 3: direct kernel fusion of GEMM with Parboil kernels\n\
         (durations normalized so each kernel's solo run = 1; sequential = 2)\n",
    );
    writeln!(
        out,
        "{:<9} {:>9} {:>9} {:>10}",
        "kernel", "solo(us)", "fused(us)", "norm"
    )?;
    let mut norms = Vec::new();
    for b in [Sgemm, Cutcp, Mriq, Fft, Lbm, Mrif, Stencil, Regtile, Cp] {
        let mut cd = b.task()[0].clone();
        // Tune the CD workload to the GEMM's duration (paper normalizes
        // both components to equal solo runs).
        let t_unit = device.run_launch(&cd.launch()).expect("cd").duration;
        cd.grid = ((cd.grid as f64 * t_gemm.ratio(t_unit)).round() as u64).max(1);
        let t_cd = device.run_launch(&cd.launch()).expect("cd scaled").duration;
        let (name, solo) = (b.name(), t_cd.as_micros_f64());

        match fuse_direct(&gemm_def, &cd.def, gemm_wk.grid, cd.grid, &device.spec().sm) {
            Ok(fused) => {
                let launch = fused.launch(&gemm_wk.bindings, &cd.bindings);
                let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
                let t_fused = device.run_plan(&plan).expect("fused run").duration;
                // Normalize to the mean solo duration, as in the figure.
                let norm =
                    2.0 * t_fused.as_nanos() as f64 / (t_gemm.as_nanos() + t_cd.as_nanos()) as f64;
                let fused = t_fused.as_micros_f64();
                writeln!(out, "{name:<9} {solo:>9.0} {fused:>9.0} {norm:>10.2}")?;
                norms.push(norm);
            }
            Err(e) => {
                // Resource overflow = cannot even fuse directly: counts as
                // sequential (2.0).
                writeln!(out, "{name:<9} {solo:>9.0} {:>9} {:>10}", "-", "2.00*")?;
                writeln!(out, "          (*{e})")?;
                norms.push(2.0);
            }
        }
    }
    let avg = mean(&norms);
    writeln!(
        out,
        "\naverage normalized duration: {avg:.2}  (paper: ~1.8-2.0 — direct fusion is inefficient)"
    )?;
    assert!(
        avg > 1.4,
        "direct fusion should show poor efficiency, got {avg:.2}"
    );
    Ok(())
}
