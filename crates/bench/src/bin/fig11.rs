//! Figure 11: fused-kernel duration versus the Tensor part's original time
//! at several fixed load ratios.
//!
//! Paper: at a fixed load ratio the fused duration is linear in the
//! Tensor kernel's original duration.

use std::sync::Arc;
use tacker::library::FusionLibrary;
use tacker::profile::KernelProfiler;
use tacker_bench::rtx2080ti;
use tacker_predictor::LinReg;
use tacker_sim::ExecutablePlan;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let cd0 = Benchmark::Fft.task()[0].clone();

    println!("# Figure 11: fused duration vs X_tc at fixed load ratios (GEMM + fft)");
    let sizes = [1024u64, 2048, 3072, 4096, 6144, 8192];
    for ratio in [0.4f64, 0.8, 1.2, 1.6] {
        println!("## load ratio {ratio:.1}");
        println!("{:>10} {:>12}", "X_tc(us)", "T_fuse(us)");
        // Each GEMM size is an independent prepare + measurement; fan them
        // out and join in size order.
        let (device, profiler, library, gemm_def, cd0) = (
            Arc::clone(&device),
            Arc::clone(&profiler),
            Arc::clone(&library),
            Arc::clone(&gemm_def),
            cd0.clone(),
        );
        let samples: Vec<(f64, f64)> =
            tacker_bench::pool_map(tacker_bench::bench_jobs(), sizes.to_vec(), move |_, &m| {
                let tc = gemm_workload(&gemm_def, GemmShape::new(m, 4096, 512));
                let entry = library.prepare(&tc, &cd0).expect("prepare").expect("fuses");
                let x_tc = profiler.measure(&tc).expect("tc");
                let t_cd_unit = profiler.measure(&cd0).expect("cd");
                let cd_grid =
                    ((cd0.grid as f64 * ratio * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
                let launch = {
                    let e = entry.lock().expect("entry");
                    e.fused
                        .launch(tc.grid, cd_grid, &tc.bindings, &cd0.bindings)
                };
                let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
                let t = device.run_plan(&plan).expect("fused").duration;
                (x_tc.as_micros_f64(), t.as_micros_f64())
            });
        for (x_tc, t) in &samples {
            println!("{:>10.1} {:>12.1}", x_tc, t);
        }
        let lr = LinReg::fit(&samples).expect("fit");
        let r2 = lr.r2(&samples);
        println!("linear fit r² = {r2:.4} (paper: linear)");
        assert!(
            r2 > 0.98,
            "duration must be linear in X_tc at fixed ratio, r²={r2}"
        );
    }
}
