//! Figure 18: prediction error of the two-stage LR model for fused
//! kernels, split by stage (before / after the inflection point).
//!
//! Paper: below 8% in both stages.

use std::sync::Arc;
use tacker::library::FusionLibrary;
use tacker::profile::KernelProfiler;
use tacker_bench::rtx2080ti;
use tacker_sim::ExecutablePlan;
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    let library = Arc::new(FusionLibrary::new(Arc::clone(&profiler)));
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();

    println!("# Figure 18: two-stage model error on held-out load ratios");
    println!("{:>9} {:>10} {:>10}", "pair", "before", "after");
    let benchmarks = [
        Benchmark::Fft,
        Benchmark::Cutcp,
        Benchmark::Mriq,
        Benchmark::Cp,
        Benchmark::Stencil,
        Benchmark::Sgemm,
    ];
    // One worker per pair: each pair owns its library entry, so the warm-up
    // observations never cross between workers. Rows join in pair order.
    let rows = {
        let (device, profiler, library) = (
            Arc::clone(&device),
            Arc::clone(&profiler),
            Arc::clone(&library),
        );
        tacker_bench::pool_map(
            tacker_bench::bench_jobs(),
            benchmarks.to_vec(),
            move |_, &b| {
                let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
                let cd = b.task()[0].clone();
                let entry = library.prepare(&tc, &cd).expect("prepare")?;
                let x_tc = profiler.measure(&tc).expect("tc");
                let t_cd_unit = profiler.measure(&cd).expect("cd");
                // Warm the model with a few online observations first — the paper
                // builds the *initial* model from four ratios and then "uses
                // online co-running data to update the model" (§VI-C).
                for r in [0.45f64, 0.95, 1.35] {
                    let cd_grid =
                        ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
                    let (launch, x_cd) = {
                        let e = entry.lock().expect("entry");
                        let mut cd_scaled = cd.clone();
                        cd_scaled.grid = cd_grid;
                        (
                            e.fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings),
                            profiler.predict(&cd_scaled).expect("cd pred"),
                        )
                    };
                    let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
                    let actual = device.run_plan(&plan).expect("fused").duration;
                    entry
                        .lock()
                        .expect("entry")
                        .model
                        .observe(x_tc, x_cd, actual);
                }
                // Held-out ratios between the training points.
                let mut held = Vec::new();
                for r in [0.35f64, 0.55, 0.75, 1.15, 1.45, 1.65] {
                    let cd_grid =
                        ((cd.grid as f64 * r * x_tc.ratio(t_cd_unit)).round() as u64).max(1);
                    let (launch, x_cd) = {
                        let e = entry.lock().expect("entry");
                        let mut cd_scaled = cd.clone();
                        cd_scaled.grid = cd_grid;
                        (
                            e.fused.launch(tc.grid, cd_grid, &tc.bindings, &cd.bindings),
                            profiler.predict(&cd_scaled).expect("cd pred"),
                        )
                    };
                    let plan = ExecutablePlan::from_launch(device.spec(), &launch).expect("plan");
                    let actual = device.run_plan(&plan).expect("fused").duration;
                    held.push((x_cd.ratio(x_tc), actual.ratio(x_tc)));
                }
                let e = entry.lock().expect("entry");
                Some(e.model.validation_error_by_stage(&held))
            },
        )
    };
    let mut before_all = Vec::new();
    let mut after_all = Vec::new();
    for (b, row) in benchmarks.iter().zip(rows) {
        let Some((before, after)) = row else {
            println!("{:>9} {:>10} {:>10}", b.name(), "-", "-");
            continue;
        };
        println!(
            "{:>9} {:>9.2}% {:>9.2}%",
            b.name(),
            100.0 * before,
            100.0 * after
        );
        if before > 0.0 {
            before_all.push(before);
        }
        if after > 0.0 {
            after_all.push(after);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!();
    println!(
        "average: before inflection {:.2}%, after inflection {:.2}%  (paper: <8%)",
        100.0 * avg(&before_all),
        100.0 * avg(&after_all)
    );
    assert!(avg(&before_all) < 0.10, "before-inflection error too high");
    assert!(avg(&after_all) < 0.10, "after-inflection error too high");
}
