//! The duration models (§VI): the fused-kernel curves of Figs. 10 and 11
//! and the prediction errors of Figs. 17 and 18.

use std::fmt::{self, Write};
use std::sync::Arc;

use tacker::library::FusionLibrary;
use tacker::profile::KernelProfiler;
use tacker_predictor::{FusedPairModel, LinReg};
use tacker_workloads::dnn::elementwise as ew;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark::{self, *};
use tacker_workloads::WorkloadKernel;

use crate::{fused_duration, mean, Ctx};

/// Figure 10: fused-kernel duration versus load ratio at fixed Tensor-part
/// work — the two-stage linear curve with an inflection.
///
/// Paper: below the opportune load ratio the duration grows with a shallow
/// slope (the co-run absorbs extra CUDA work); beyond it the slope
/// steepens to ≈1 (the CUDA part solo-runs after the co-run).
pub fn fig10(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = Arc::clone(&ctx.rtx);
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = FusionLibrary::new(Arc::clone(&profiler));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let cd = Fft.task()[0].clone();
    let entry = library.prepare(&tc, &cd).expect("prepare");
    let entry = entry.expect("GEMM+fft fuses");
    let fused = entry.lock().expect("entry").fused.clone();
    let x_tc = profiler.measure(&tc).expect("tc solo");
    let t_cd_unit = profiler.measure(&cd).expect("cd solo");

    writeln!(
        out,
        "# Figure 10: fused duration vs load ratio (GEMM + fft, X_tc fixed = {x_tc})"
    )?;
    writeln!(out, "{:>6} {:>12} {:>10}", "ratio", "T_fuse(us)", "T/X_tc")?;
    // The 20 load points are independent measurements: fan them out over
    // the work pool and join in ratio order.
    let ratios: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
    let durations = tacker_par::pool_map(ctx.jobs, ratios.clone(), move |_, &r| {
        let cd_grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
        fused_duration(&device, &fused, &tc, &cd, cd_grid)
    });
    let mut points = Vec::new();
    for (&r, t) in ratios.iter().zip(&durations) {
        let norm = t.ratio(x_tc);
        writeln!(out, "{:>6.2} {:>12.1} {:>10.3}", r, t.as_micros_f64(), norm)?;
        points.push((r, norm));
    }
    // Fit a fresh two-stage model on the sweep and report the inflection.
    let model = FusedPairModel::fit("sweep", &points).expect("fit");
    let (before, after) = (model.lines().0.slope(), model.lines().1.slope());
    let inflection = model.opportune_load_ratio();
    writeln!(
        out,
        "\ntwo-stage fit: slope {before:.3} before inflection, {after:.3} after; \
         inflection at ratio {inflection:.2}\n\
         paper: shallow slope, then slope ≈ 1 past the opportune load ratio"
    )?;
    assert!(
        after > before + 0.2,
        "the post-inflection slope must be sharper"
    );
    let in_range = (0.2..=1.9).contains(&inflection);
    assert!(in_range, "inflection in range, got {inflection}");
    Ok(())
}

/// Figure 11: fused-kernel duration versus the Tensor part's original time
/// at several fixed load ratios.
///
/// Paper: at a fixed load ratio the fused duration is linear in the
/// Tensor kernel's original duration.
pub fn fig11(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&ctx.rtx)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let cd0 = Fft.task()[0].clone();

    let title = "# Figure 11: fused duration vs X_tc at fixed load ratios (GEMM + fft)";
    writeln!(out, "{title}")?;
    let sizes = [1024u64, 2048, 3072, 4096, 6144, 8192];
    for ratio in [0.4f64, 0.8, 1.2, 1.6] {
        writeln!(out, "## load ratio {ratio:.1}")?;
        writeln!(out, "{:>10} {:>12}", "X_tc(us)", "T_fuse(us)")?;
        // Each GEMM size is an independent prepare + measurement; fan them
        // out and join in size order.
        let (device, profiler, library, gemm_def, cd0) = (
            Arc::clone(&ctx.rtx),
            Arc::clone(&profiler),
            Arc::clone(&library),
            Arc::clone(&gemm_def),
            cd0.clone(),
        );
        let samples: Vec<(f64, f64)> =
            tacker_par::pool_map(ctx.jobs, sizes.to_vec(), move |_, &m| {
                let tc = gemm_workload(&gemm_def, GemmShape::new(m, 4096, 512));
                let entry = library.prepare(&tc, &cd0).expect("prepare").expect("fuses");
                let fused = entry.lock().expect("entry").fused.clone();
                let x_tc = profiler.measure(&tc).expect("tc");
                let t_cd_unit = profiler.measure(&cd0).expect("cd");
                let cd_grid =
                    ((cd0.grid as f64 * ratio * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
                let t = fused_duration(&device, &fused, &tc, &cd0, cd_grid);
                (x_tc.as_micros_f64(), t.as_micros_f64())
            });
        for (x_tc, t) in &samples {
            writeln!(out, "{:>10.1} {:>12.1}", x_tc, t)?;
        }
        let lr = LinReg::fit(&samples).expect("fit");
        let r2 = lr.r2(&samples);
        writeln!(out, "linear fit r² = {r2:.4} (paper: linear)")?;
        assert!(
            r2 > 0.98,
            "duration must be linear in X_tc at fixed ratio, r²={r2}"
        );
    }
    Ok(())
}

/// Figure 17: duration prediction error of the per-kernel LR models on
/// single PTB kernels.
///
/// Paper: at most 3% error, below 2% on average, across the Parboil
/// kernels and the DNN operator kernels (ReLU, Scale, BN, Pooling).
pub fn fig17(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&ctx.rtx)));
    let title = "# Figure 17: PTB-kernel duration prediction error (held-out launches)";
    writeln!(out, "{title}\n{:>9} {:>10}", "kernel", "error")?;
    // Assemble every (train, held-out) case, then evaluate the cases on
    // the work pool — each is an independent model fit + error probe — and
    // print in case order.
    let mut cases: Vec<(String, WorkloadKernel, Vec<WorkloadKernel>)> = Vec::new();
    for b in Benchmark::ALL {
        let held = [3, 5, 7].map(|s| b.task_scaled(s)[0].clone()).to_vec();
        cases.push((b.name().to_string(), b.task()[0].clone(), held));
    }
    // The four DNN operator kernels the paper calls out.
    for (name, def) in [
        ("ReLU", ew::relu()),
        ("Scale", ew::scale()),
        ("BN", ew::batch_norm()),
    ] {
        let train = ew::elementwise_workload(&def, 4_000_000);
        let held = [1_000_000, 9_000_000, 17_000_000]
            .map(|n| ew::elementwise_workload(&def, n))
            .to_vec();
        cases.push((name.to_string(), train, held));
    }
    cases.push((
        "Pooling".to_string(),
        ew::pool_workload(2_000_000, 9),
        vec![
            ew::pool_workload(6_000_000, 9),
            ew::pool_workload(3_000_000, 18),
        ],
    ));
    let cases = Arc::new(cases);
    let errors: Vec<f64> = {
        let cases = Arc::clone(&cases);
        tacker_par::pool_map(ctx.jobs, (0..cases.len()).collect(), move |_, &i| {
            let (_, train, held) = &cases[i];
            profiler.ensure_model(train).expect("profiling");
            let error = |wk| profiler.prediction_error(wk).expect("error");
            held.iter().fold(0.0f64, |worst, wk| worst.max(error(wk)))
        })
    };
    for ((name, _, _), worst) in cases.iter().zip(&errors) {
        writeln!(out, "{name:>9} {:>9.2}%", 100.0 * worst)?;
    }

    let (avg, max) = (mean(&errors), errors.iter().cloned().fold(0.0, f64::max));
    writeln!(out, "\naverage error: {:.2}%  (paper: <2%)", 100.0 * avg)?;
    writeln!(out, "max error:     {:.2}%  (paper: ≤3%)", 100.0 * max)?;
    assert!(avg < 0.04, "average prediction error too high: {avg}");
    assert!(max < 0.08, "max prediction error too high: {max}");
    Ok(())
}

/// Figure 18: prediction error of the two-stage LR model for fused
/// kernels, split by stage (before / after the inflection point).
///
/// Paper: below 8% in both stages.
pub fn fig18(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = Arc::clone(&ctx.rtx);
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = FusionLibrary::new(Arc::clone(&profiler));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();

    writeln!(
        out,
        "# Figure 18: two-stage model error on held-out load ratios"
    )?;
    writeln!(out, "{:>9} {:>10} {:>10}", "pair", "before", "after")?;
    let benchmarks = [Fft, Cutcp, Mriq, Cp, Stencil, Sgemm];
    // One worker per pair: each pair owns its library entry, so the warm-up
    // observations never cross between workers. Rows join in pair order.
    let rows = tacker_par::pool_map(ctx.jobs, benchmarks.to_vec(), move |_, &b| {
        let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
        let cd = b.task()[0].clone();
        let entry = library.prepare(&tc, &cd).expect("prepare")?;
        let fused = entry.lock().expect("entry").fused.clone();
        let x_tc = profiler.measure(&tc).expect("tc");
        let t_cd_unit = profiler.measure(&cd).expect("cd");
        // The fused launch at load ratio `r`: its CD part's predicted
        // duration and its measured duration.
        let run_at = |r: f64| {
            let mut cd_scaled = cd.clone();
            cd_scaled.grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
            let x_cd = profiler.predict(&cd_scaled).expect("cd pred");
            (
                x_cd,
                fused_duration(&device, &fused, &tc, &cd, cd_scaled.grid),
            )
        };
        // Warm the model with a few online observations first — the paper
        // builds the *initial* model from four ratios and then "uses
        // online co-running data to update the model" (§VI-C).
        for r in [0.45f64, 0.95, 1.35] {
            let (x_cd, actual) = run_at(r);
            entry
                .lock()
                .expect("entry")
                .model
                .observe(x_tc, x_cd, actual);
        }
        // Held-out ratios between the training points.
        let held: Vec<(f64, f64)> = [0.35f64, 0.55, 0.75, 1.15, 1.45, 1.65]
            .into_iter()
            .map(|r| {
                let (x_cd, actual) = run_at(r);
                (x_cd.ratio(x_tc), actual.ratio(x_tc))
            })
            .collect();
        let model = &entry.lock().expect("entry").model;
        Some(model.validation_error_by_stage(&held))
    });
    let mut before_all = Vec::new();
    let mut after_all = Vec::new();
    for (b, row) in benchmarks.iter().zip(rows) {
        let Some((before, after)) = row else {
            writeln!(out, "{:>9} {:>10} {:>10}", b.name(), "-", "-")?;
            continue;
        };
        let (before_pct, after_pct) = (100.0 * before, 100.0 * after);
        writeln!(out, "{:>9} {before_pct:>9.2}% {after_pct:>9.2}%", b.name())?;
        if before > 0.0 {
            before_all.push(before);
        }
        if after > 0.0 {
            after_all.push(after);
        }
    }
    let (before, after) = (mean(&before_all), mean(&after_all));
    writeln!(
        out,
        "\naverage: before inflection {:.2}%, after inflection {:.2}%  (paper: <8%)",
        100.0 * before,
        100.0 * after
    )?;
    assert!(before < 0.10, "before-inflection error too high");
    assert!(after < 0.10, "after-inflection error too high");
    Ok(())
}
