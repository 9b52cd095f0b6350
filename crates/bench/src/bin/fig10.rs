//! Figure 10: fused-kernel duration versus load ratio at fixed Tensor-part
//! work — the two-stage linear curve with an inflection.
//!
//! Paper: below the opportune load ratio the duration grows with a shallow
//! slope (the co-run absorbs extra CUDA work); beyond it the slope
//! steepens to ≈1 (the CUDA part solo-runs after the co-run).

use std::sync::Arc;
use tacker::library::FusionLibrary;
use tacker::profile::KernelProfiler;
use tacker_bench::rtx2080ti;
use tacker_predictor::FusedPairModel;
use tacker_sim::ExecutablePlan;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = FusionLibrary::new(Arc::clone(&profiler));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let cd = Benchmark::Fft.task()[0].clone();
    let entry = library
        .prepare(&tc, &cd)
        .expect("prepare")
        .expect("GEMM+fft fuses");
    let x_tc = profiler.measure(&tc).expect("tc solo");
    let t_cd_unit = profiler.measure(&cd).expect("cd solo");

    println!("# Figure 10: fused duration vs load ratio (GEMM + fft, X_tc fixed = {x_tc})");
    println!("{:>6} {:>12} {:>10}", "ratio", "T_fuse(us)", "T/X_tc");
    // The 20 load points are independent measurements: fan them out over
    // the work pool and join in ratio order.
    let ratios: Vec<f64> = (1..=20).map(|i| i as f64 * 0.1).collect();
    let durations = {
        let (device, entry, tc, cd) = (
            Arc::clone(&device),
            Arc::clone(&entry),
            tc.clone(),
            cd.clone(),
        );
        tacker_bench::pool_map(tacker_bench::bench_jobs(), ratios.clone(), move |_, &r| {
            let cd_grid = ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
            let launch = {
                let e = entry.lock().expect("entry");
                e.fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings)
            };
            let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
            device.run_plan(&plan).expect("fused").duration
        })
    };
    let mut points = Vec::new();
    for (&r, t) in ratios.iter().zip(&durations) {
        let norm = t.ratio(x_tc);
        println!("{:>6.2} {:>12.1} {:>10.3}", r, t.as_micros_f64(), norm);
        points.push((r, norm));
    }
    // Fit a fresh two-stage model on the sweep and report the inflection.
    let model = FusedPairModel::fit("sweep", &points).expect("fit");
    let (before, after) = model.lines();
    println!();
    println!(
        "two-stage fit: slope {:.3} before inflection, {:.3} after; inflection at ratio {:.2}",
        before.slope(),
        after.slope(),
        model.opportune_load_ratio()
    );
    println!("paper: shallow slope, then slope ≈ 1 past the opportune load ratio");
    assert!(
        after.slope() > before.slope() + 0.2,
        "the post-inflection slope must be sharper"
    );
    assert!(
        (0.2..=1.9).contains(&model.opportune_load_ratio()),
        "inflection in range, got {}",
        model.opportune_load_ratio()
    );
}
