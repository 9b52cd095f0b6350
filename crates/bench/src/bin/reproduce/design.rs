//! The design against its alternatives: Fig. 20's co-running interfaces,
//! §VIII-I's overheads and the DESIGN.md §5 ablations.

use std::fmt::{self, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tacker::baselines::{overlap_experiment, CorunInterface};
use tacker::manager::{Head, KernelManager};
use tacker::prelude::*;
use tacker::profile::KernelProfiler;
use tacker_fuser::{enumerate_configs, fuse_flexible, to_ptb, FusionConfig, PackPriority};
use tacker_predictor::{FusedPairModel, LinReg};
use tacker_sim::ExecutablePlan;
use tacker_workloads::gemm::{gemm_workload, gemm_workload_64, GemmShape};
use tacker_workloads::parboil::Benchmark::{self, *};
use tacker_workloads::WorkloadKernel;

use crate::{mean, Ctx};

/// Figure 20: overlap rate of Tacker's kernel fusion versus MPS+PTB and
/// Stream+PTB across GEMM × Parboil pairs.
///
/// Paper: Tacker achieves the highest overlap in every pair; MPS is poor
/// in many cases and Stream is unstable on several benchmarks.
pub fn fig20(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let profiler = KernelProfiler::new(Arc::clone(device));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    // Two NVIDIA GEMM implementations, as in the paper: the 128-tile
    // CUTLASS-style kernel and the 64-tile cudaTensorCoreGemm-style one.
    let gemms = [
        ("gemm1", GemmShape::new(4096, 4096, 512), false),
        ("gemm2", GemmShape::new(2048, 2048, 2048), true),
    ];
    let kernels = [
        Mriq, Fft, Mrif, Cutcp, Cp, Sgemm, Lbm, Stencil, Tpacf, Regtile,
    ];
    writeln!(
        out,
        "# Figure 20: overlap rate (Equation 11) by co-running interface"
    )?;
    writeln!(
        out,
        "{:<12} {:>16} {:>16} {:>8}",
        "pair", "Stream+PTB", "MPS+PTB", "Tacker"
    )?;
    let mut wins = 0;
    let mut total = 0;
    let mut black_box_spread = Vec::new();
    for (gname, shape, use_64) in gemms {
        for b in kernels {
            let tc = if use_64 {
                gemm_workload_64(shape)
            } else {
                gemm_workload(&gemm_def, shape)
            };
            // Tune the CD kernel's solo time to match the GEMM's (paper
            // tunes for the highest possible overlap rate).
            let mut cd = b.task()[0].clone();
            let t_tc = profiler.measure(&tc).expect("tc");
            let t_cd = profiler.measure(&cd).expect("cd");
            cd.grid = ((cd.grid as f64 * t_tc.ratio(t_cd)).round() as u64).max(1);
            // The black-box interfaces are *unstable*: sample several runs
            // and report mean ± spread. Tacker's fusion is deterministic.
            let overlap = |interface, seed| {
                overlap_experiment(device, &tc, &cd, interface, seed)
                    .expect("corun")
                    .overlap
            };
            let sample = |interface| {
                let overlaps: Vec<f64> = (0..5).map(|seed| overlap(interface, 17 + seed)).collect();
                let mean = mean(&overlaps);
                let spread = overlaps.iter().fold(0.0f64, |m, v| m.max((v - mean).abs()));
                (mean, spread)
            };
            let (stream, stream_spread) = sample(CorunInterface::StreamPtb);
            let (mps, mps_spread) = sample(CorunInterface::MpsPtb);
            let tacker = overlap(CorunInterface::TackerFusion, 17);
            let pct = |v: f64| 100.0 * v;
            writeln!(
                out,
                "{:<12} {:>8.1}% ±{:>4.1}% {:>8.1}% ±{:>4.1}% {:>7.1}%",
                format!("{}:{gname}", b.name()),
                pct(stream),
                pct(stream_spread),
                pct(mps),
                pct(mps_spread),
                pct(tacker)
            )?;
            total += 1;
            wins += usize::from(
                tacker >= mps + mps_spread - 1e-9 && tacker >= stream + stream_spread - 1e-9,
            );
            black_box_spread.push(stream_spread.max(mps_spread));
        }
    }
    let avg_spread = 100.0 * black_box_spread.iter().sum::<f64>() / black_box_spread.len() as f64;
    writeln!(
        out,
        "\nTacker highest in {wins}/{total} pairs (paper: all pairs)\n\
         black-box interfaces vary by ±{avg_spread:.1}% across runs; Tacker is deterministic\n\
         (paper: \"not suitable … due to the unstable performance\")"
    )?;
    assert!(
        wins * 10 >= total * 9,
        "Tacker should win (almost) everywhere"
    );
    Ok(())
}

/// What `ablation` samples a fused kernel with: its config, X_tc and the
/// CD kernel's solo duration.
type Probe = (FusionConfig, SimTime, SimTime);

/// The mean wall-clock time of `iters` calls of `f`.
fn time_per_call(iters: u32, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters
}

/// §VIII-I: scheduling and compilation overheads (real wall-clock of this
/// implementation; see also `cargo bench -p tacker-bench`).
///
/// Paper: online fuse decision over 50 candidate pairs ≈ 1.2 ms; static
/// (reorder-only) scheduling ≈ 0.5 ms; offline fusion of one BE task
/// ≈ 0.9 s; duration-model training ≈ 20 ms.
pub fn overheads(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(device)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let lc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));

    // 50 ready BE kernels, as in the paper's 10 LC × 50 BE scenario.
    let be_heads: Vec<Option<WorkloadKernel>> = (0..50)
        .map(|i| {
            let b = Benchmark::BE_APPS[i % Benchmark::BE_APPS.len()];
            let mut wk = b.task()[0].clone();
            wk.grid += i as u64; // distinct inputs
            Some(wk)
        })
        .collect();

    // Heads are resolved once per run, as the serving engine does.
    let lc_head = Head::new(&lc);
    let heads: Vec<Option<Head<'_>>> = be_heads.iter().map(|k| k.as_ref().map(Head::new)).collect();

    // Warm the models and the library (offline phase).
    let manager = KernelManager::new(Arc::clone(&profiler), Arc::clone(&library), Policy::Tacker);
    let headroom = SimTime::from_millis(20);
    manager
        .decide(&[lc_head], headroom, headroom, &heads)
        .expect("warmup");

    writeln!(
        out,
        "# §VIII-I overheads (wall-clock of this implementation)"
    )?;
    let mut row = |label: &str, paper: &str, per: Duration| {
        writeln!(out, "{label:<42} {per:>12.2?}   (paper: {paper})")
    };

    let decide = |manager: &KernelManager| {
        time_per_call(20, || {
            let _ = manager
                .decide(&[lc_head], headroom, headroom, &heads)
                .expect("decide");
        })
    };
    row(
        "online fuse decision, 50 candidate pairs",
        "1.2 ms",
        decide(&manager),
    )?;
    let baymax = KernelManager::new(Arc::clone(&profiler), Arc::clone(&library), Policy::Baymax);
    let per = decide(&baymax);
    row(
        "static (reorder-only) scheduling, 50 kernels",
        "0.5 ms",
        per,
    )?;

    let cd = Fft.task()[0].clone();
    let spec = device.spec().clone();
    let per = time_per_call(5, || {
        let ptb = to_ptb(&cd.def).expect("ptb");
        let _ = tacker_kernel::source::render(&ptb);
        for cfg in enumerate_configs(&gemm_def, &cd.def, &spec.sm, PackPriority::TensorFirst) {
            let fused = fuse_flexible(&gemm_def, &cd.def, cfg, &spec.sm).expect("fuse");
            let _ = tacker_kernel::source::render(fused.def());
        }
    });
    row(
        "offline fusion of one BE task (all ratios + codegen)",
        "0.9 s",
        per,
    )?;

    let two_stage = |r: f64| {
        if r < 1.0 {
            1.0 + 0.1 * r
        } else {
            1.1 + (r - 1.0)
        }
    };
    let samples: Vec<(f64, f64)> = (1..=40)
        .map(|i| i as f64 * 0.05)
        .map(|r| (r, two_stage(r)))
        .collect();
    let per = time_per_call(50, || {
        let _ = FusedPairModel::fit("pair", &samples).expect("fit");
    });
    row("duration-model training (two-stage LR fit)", "20 ms", per)?;
    out.push_str(
        "\nSame ordering as §VIII-I (decision < model fit < offline fusion); the\n\
         absolute numbers are smaller because our kernels are ASTs, not nvcc\n\
         invocations — the paper's 0.9 s is dominated by nvcc compiling CUDA.\n",
    );
    Ok(())
}

/// Ablations of DESIGN.md §5: the value of flexible ratios, TC-first
/// packing, measured best-of selection, the two-stage predictor, and the
/// fusion+reorder policy combination.
pub fn ablation(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let profiler = KernelProfiler::new(Arc::clone(device));
    let spec = device.spec().clone();
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    // The fused (tc, cd) kernel at `cfg`, launched with `cd_grid` CD blocks.
    let run_fused = |cd: &WorkloadKernel, cfg, cd_grid| -> Option<SimTime> {
        let fused = fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm).ok()?;
        let launch = fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings);
        let plan = ExecutablePlan::from_launch(&spec, &launch).ok()?;
        Some(device.run_plan(&plan).ok()?.duration)
    };
    let first_config =
        |cd: &WorkloadKernel, pack| enumerate_configs(&tc.def, &cd.def, &spec.sm, pack)[0];

    writeln!(
        out,
        "# Ablation 1: flexible fusion ratio vs naive 1:1 (fused duration, lower is better)"
    )?;
    let [partner, one_to_one, best, config, gain] =
        ["partner", "1:1(us)", "best(us)", "config", "gain"];
    writeln!(
        out,
        "{partner:>9} {one_to_one:>10} {best:>10} {config:>10} {gain:>8}"
    )?;
    for b in [Fft, Cutcp, Mriq, Lbm] {
        let mut cd = b.task()[0].clone();
        let t_tc = profiler.measure(&tc).expect("tc");
        let t_cd = profiler.measure(&cd).expect("cd");
        cd.grid = ((cd.grid as f64 * t_tc.ratio(t_cd)).round() as u64).max(1);
        let run = |cfg: FusionConfig| run_fused(&cd, cfg, cd.grid);
        let naive = run(FusionConfig::ONE_TO_ONE).expect("1:1 runs");
        let (best_cfg, best) =
            enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst)
                .into_iter()
                .filter_map(|c| run(c).map(|d| (c, d)))
                .min_by_key(|(_, d)| *d)
                .expect("some config runs");
        let (naive_us, best_us) = (naive.as_micros_f64(), best.as_micros_f64());
        let (config, gain) = (best_cfg.to_string(), 100.0 * (1.0 - best.ratio(naive)));
        let name = b.name();
        writeln!(
            out,
            "{name:>9} {naive_us:>10.1} {best_us:>10.1} {config:>10} {gain:>7.1}%"
        )?;
        assert!(best <= naive);
    }

    writeln!(
        out,
        "\n# Ablation 2: packing priority — duration of the first-enumerated config"
    )?;
    for b in [Fft, Cutcp] {
        let cd = b.task()[0].clone();
        let first = |p: PackPriority| -> SimTime {
            run_fused(&cd, first_config(&cd, p), cd.grid).expect("fused run")
        };
        let tf = first(PackPriority::TensorFirst);
        let cf = first(PackPriority::CudaFirst);
        let wins = if tf <= cf {
            "tensor-first wins"
        } else {
            "cuda-first wins"
        };
        writeln!(
            out,
            "  {}: tensor-first {tf} vs cuda-first {cf} ({wins})",
            b.name()
        )?;
    }

    // The first tensor-first config of (tc, cd), with X_tc and cd's solo
    // duration: what `normalized_at` samples the fused kernel with.
    let probe = |cd: &WorkloadKernel| {
        let cfg = first_config(cd, PackPriority::TensorFirst);
        let x_tc = profiler.measure(&tc).expect("tc");
        (cfg, x_tc, profiler.measure(cd).expect("cd"))
    };
    // The probed fused kernel at load ratio `r`: `(r, T_fuse / X_tc)`.
    let normalized_at = |cd: &WorkloadKernel, (cfg, x_tc, t_cd_unit): Probe, r: f64| {
        let cd_grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
        let t = run_fused(cd, cfg, cd_grid).expect("fused run");
        (r, t.ratio(x_tc))
    };

    writeln!(
        out,
        "\n# Ablation 3: two-stage vs single-line duration model (validation error)"
    )?;
    {
        // Ground-truth sweep from the simulator (as in Fig. 10).
        let cd = Fft.task()[0].clone();
        let probed = probe(&cd);
        let sample_at = |r| normalized_at(&cd, probed, r);
        let mut sweep = Vec::new();
        let mut r = 0.1;
        while r <= 2.0 {
            sweep.push(sample_at(r));
            r += 0.1;
        }
        let nearest = |tr: f64| {
            let distance = |p: &&(f64, f64)| (p.0 - tr).abs();
            *sweep
                .iter()
                .min_by(|a, b| distance(a).total_cmp(&distance(b)))
                .expect("sweep")
        };
        let train: Vec<(f64, f64)> = [0.1, 0.2, 1.8, 1.9].map(nearest).to_vec();
        let two_stage = FusedPairModel::fit("ab", &train).expect("fit");
        let single = LinReg::fit(&train).expect("fit");
        let err = |pred: &dyn Fn(f64) -> f64| -> f64 {
            let errors = sweep.iter().map(|(x, y)| ((pred(*x) - y) / y).abs());
            errors.sum::<f64>() / sweep.len() as f64
        };
        let e2 = 100.0 * err(&|x| two_stage.predict_norm(x));
        let e1 = 100.0 * err(&|x| single.predict(x));
        writeln!(out, "  two-stage: {e2:.2}%   single LR: {e1:.2}%")?;
        assert!(e2 < e1, "the two-stage model must beat a single line");
    }

    writeln!(
        out,
        "\n# Ablation 5: initial-model profiling ratios (paper's 4 vs our 7)"
    )?;
    {
        let cd = Cutcp.task()[0].clone();
        let probed = probe(&cd);
        let at = |ratios: &[f64]| -> Vec<(f64, f64)> {
            ratios
                .iter()
                .map(|&r| normalized_at(&cd, probed, r))
                .collect()
        };
        let four = at(&[0.1, 0.2, 1.8, 1.9]);
        let seven = at(&[0.1, 0.2, 0.7, 1.0, 1.3, 1.8, 1.9]);
        let held = at(&[0.45, 0.85, 1.15, 1.55]);
        let err = |m: &FusedPairModel| -> f64 {
            let errors = held
                .iter()
                .map(|(r, y)| ((m.predict_norm(*r) - y) / y).abs());
            errors.sum::<f64>() / held.len() as f64
        };
        let m4 = FusedPairModel::fit("four", &four).expect("fit 4");
        let m7 = FusedPairModel::fit("seven", &seven).expect("fit 7");
        writeln!(
            out,
            "  initial-model error on held-out ratios: 4 points {:.1}%  vs  7 points {:.1}%",
            100.0 * err(&m4),
            100.0 * err(&m7)
        )?;
        // The mid-curve points can only help; allow fitting noise.
        assert!(err(&m7) <= err(&m4) + 0.02);
    }

    writeln!(out, "\n# Ablation 6: policy (Resnet50 + fft, BE work rate)")?;
    let config = ctx.config.clone().with_queries(80);
    let lc = std::slice::from_ref(ctx.lc("Resnet50"));
    for policy in [Policy::Baymax, Policy::FusionOnly, Policy::Tacker] {
        let r = ctx.colocate(&config, lc, "fft", policy);
        let p99 = r.p99_latency().expect("queries completed").as_millis_f64();
        let (rate, fused, reordered) = (r.be_work_rate(), r.fused_launches, r.reordered_launches);
        writeln!(
            out,
            "  {:<12} be-rate {rate:.3}  fused {fused}  reordered {reordered}  p99 {p99:.1} ms",
            format!("{policy:?}")
        )?;
    }
    Ok(())
}
