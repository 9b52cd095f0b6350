//! Criterion benches for model fitting, prediction and the online refit
//! (the paper's "model training completes in 20 ms" claim, and §VI-C's
//! retrain after every prediction that misses by more than 10%).

use criterion::{criterion_group, criterion_main, Criterion};
use tacker_kernel::SimTime;
use tacker_predictor::{FusedPairModel, KernelDurationModel, LinReg, MultiLinReg};

fn bench_predictor(c: &mut Criterion) {
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
    c.bench_function("fit_two_stage_model_40pts", |b| {
        b.iter(|| FusedPairModel::fit("p", &samples).expect("fit"))
    });
    c.bench_function("fit_linreg_40pts", |b| {
        b.iter(|| LinReg::fit(&samples).expect("fit"))
    });

    let rows: Vec<Vec<f64>> = (0..24).map(|i| vec![(i * 64) as f64, i as f64]).collect();
    let ys: Vec<f64> = rows
        .iter()
        .map(|r| 3.0 * r[0] + 100.0 * r[1] + 5.0)
        .collect();
    c.bench_function("fit_multilinreg_24pts", |b| {
        b.iter(|| MultiLinReg::fit(&rows, &ys).expect("fit"))
    });

    let profile: Vec<(u64, SimTime)> = (1..=8)
        .map(|i| (i * 128, SimTime::from_micros(10 * i)))
        .collect();
    let model = KernelDurationModel::fit_blocks("k", &profile).expect("fit");
    c.bench_function("predict_kernel_duration", |b| {
        b.iter(|| model.predict(640.0))
    });
    let fused = FusedPairModel::fit("p", &samples).expect("fit");
    c.bench_function("predict_fused_duration", |b| {
        b.iter(|| fused.predict(SimTime::from_micros(100), SimTime::from_micros(70)))
    });

    // A model holding 4096 online samples, fed one observation that misses
    // by more than 10%, so it refits on the whole history. Each iteration
    // also clones the model (a 64 KiB copy) to start from the same state.
    let history: Vec<(f64, f64)> = (0..4096)
        .map(|i| {
            let r = 0.05 + (i * 7919 % 4096) as f64 * (2.4 / 4096.0);
            let noise = ((i * 37 % 11) as f64 - 5.0) * 0.002;
            let norm = if r < 1.0 {
                1.0 + 0.1 * r
            } else {
                1.1 + (r - 1.0)
            };
            (r, norm + noise)
        })
        .collect();
    let big = FusedPairModel::fit("p", &history).expect("fit");
    let (x_tc, x_cd) = (SimTime::from_micros(100), SimTime::from_micros(50));
    let miss = big.predict(x_tc, x_cd) * 2;
    c.bench_function("observe_refit_4k", |b| {
        b.iter(|| {
            let mut m = big.clone();
            assert!(m.observe(x_tc, x_cd, miss));
            m
        })
    });
}

criterion_group!(benches, bench_predictor);
criterion_main!(benches);
