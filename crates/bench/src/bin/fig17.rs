//! Figure 17: duration prediction error of the per-kernel LR models on
//! single PTB kernels.
//!
//! Paper: at most 3% error, below 2% on average, across the Parboil
//! kernels and the DNN operator kernels (ReLU, Scale, BN, Pooling).

use std::sync::Arc;
use tacker::profile::KernelProfiler;
use tacker_bench::rtx2080ti;
use tacker_workloads::dnn::elementwise as ew;
use tacker_workloads::parboil::Benchmark;
use tacker_workloads::WorkloadKernel;

fn main() {
    let device = rtx2080ti();
    let profiler = Arc::new(KernelProfiler::new(Arc::clone(&device)));
    println!("# Figure 17: PTB-kernel duration prediction error (held-out launches)");
    println!("{:>9} {:>10}", "kernel", "error");
    // Assemble every (train, held-out) case, then evaluate the cases on
    // the work pool — each is an independent model fit + error probe — and
    // print in case order.
    let mut cases: Vec<(String, WorkloadKernel, Vec<WorkloadKernel>)> = Vec::new();
    for b in Benchmark::ALL {
        let held = [3u32, 5, 7]
            .iter()
            .map(|&s| b.task_scaled(s)[0].clone())
            .collect();
        cases.push((b.name().to_string(), b.task()[0].clone(), held));
    }
    // The four DNN operator kernels the paper calls out.
    for (name, def) in [
        ("ReLU", ew::relu()),
        ("Scale", ew::scale()),
        ("BN", ew::batch_norm()),
    ] {
        let train = ew::elementwise_workload(&def, 4_000_000);
        let held = [1_000_000u64, 9_000_000, 17_000_000]
            .iter()
            .map(|&n| ew::elementwise_workload(&def, n))
            .collect();
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
        let (profiler, cases) = (Arc::clone(&profiler), Arc::clone(&cases));
        tacker_bench::pool_map(
            tacker_bench::bench_jobs(),
            (0..cases.len()).collect(),
            move |_, &i| {
                let (_, train, held) = &cases[i];
                profiler.ensure_model(train).expect("profiling");
                let mut worst = 0.0f64;
                for wk in held {
                    let e = profiler.prediction_error(wk).expect("error");
                    worst = worst.max(e);
                }
                worst
            },
        )
    };
    for ((name, _, _), worst) in cases.iter().zip(&errors) {
        println!("{name:>9} {:>9.2}%", 100.0 * worst);
    }

    let avg = errors.iter().sum::<f64>() / errors.len() as f64;
    let max = errors.iter().cloned().fold(0.0, f64::max);
    println!();
    println!("average error: {:.2}%  (paper: <2%)", 100.0 * avg);
    println!("max error:     {:.2}%  (paper: ≤3%)", 100.0 * max);
    assert!(avg < 0.04, "average prediction error too high: {avg}");
    assert!(max < 0.08, "max prediction error too high: {max}");
}
