//! Criterion benches for the discrete-event engine: solo and fused kernel
//! simulation throughput, and the cost of a warm device-cache hit.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tacker_fuser::{fuse_flexible, FusionConfig};
use tacker_sim::{simulate, Device, ExecutablePlan, GpuSpec};
use tacker_workloads::gemm::{gemm_workload, GemmShape};
use tacker_workloads::parboil::Benchmark;

fn bench_engine(c: &mut Criterion) {
    let spec = GpuSpec::rtx2080ti();
    let gemm_def = tacker_workloads::dnn::compile::shared_gemm();
    let tc = gemm_workload(&gemm_def, GemmShape::new(4096, 4096, 512));
    let plan = ExecutablePlan::from_launch(&spec, &tc.launch()).expect("plan");
    c.bench_function("simulate_gemm_4096", |b| {
        b.iter(|| simulate(&spec, &plan).expect("run"))
    });

    let cd = Benchmark::Fft.task()[0].clone();
    let cd_plan = ExecutablePlan::from_launch(&spec, &cd.launch()).expect("plan");
    c.bench_function("simulate_fft", |b| {
        b.iter(|| simulate(&spec, &cd_plan).expect("run"))
    });

    let fused = fuse_flexible(
        &tc.def,
        &cd.def,
        FusionConfig {
            tc_blocks: 1,
            cd_blocks: 2,
        },
        &spec.sm,
    )
    .expect("fuse");
    let launch = fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
    let fused_plan = ExecutablePlan::from_launch(&spec, &launch).expect("plan");
    c.bench_function("simulate_fused_gemm_fft", |b| {
        b.iter(|| simulate(&spec, &fused_plan).expect("run"))
    });

    // What the serve loop pays per launch once the cache is warm: one
    // fingerprint hash plus one shard probe, no lowering.
    let device = Device::new(spec.clone());
    let warm = tc.launch();
    device.run_launch(&warm).expect("cold run");
    c.bench_function("warm_run_launch_hit", |b| {
        b.iter(|| device.run_launch(black_box(&warm)).expect("hit"))
    });
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
