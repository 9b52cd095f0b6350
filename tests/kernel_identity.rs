//! Content-derived kernel identity: the same structural definition must
//! fingerprint identically across independent builds (and therefore across
//! runs and processes), and fused launches must replay from the device
//! cache on a repeated sweep instead of re-simulating.

use std::sync::Arc;

use proptest::prelude::*;
use tacker::prelude::*;
use tacker::KernelProfiler;
use tacker_kernel::ast::{Expr, Stmt};
use tacker_kernel::{Dim3, KernelDef, KernelKind, ResourceUsage};
use tacker_sim::{Device, GpuSpec};
use tacker_workloads::parboil::Benchmark;
use tacker_workloads::{BeApp, Intensity, LcService, WorkloadKernel};

fn tc_kernel() -> WorkloadKernel {
    let def = tacker_workloads::dnn::compile::shared_gemm();
    tacker_workloads::gemm::gemm_workload(
        &def,
        tacker_workloads::gemm::GemmShape::new(2048, 2048, 1024),
    )
}

/// Two independent `FusionLibrary` builds (fresh devices, fresh profilers)
/// of the same (TC, CD) pair must produce fused kernels with the same
/// `KernelId` and the same launch fingerprint — the property that lets a
/// later run (or another process) hit the execution cache entries a
/// previous run populated.
#[test]
fn fused_defs_fingerprint_identically_across_library_builds() {
    let build = || {
        let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));
        let profiler = Arc::new(KernelProfiler::new(device));
        let lib = FusionLibrary::new(profiler);
        let tc = tc_kernel();
        let cd = Benchmark::Cutcp.task()[0].clone();
        let entry = lib.prepare(&tc, &cd).unwrap().expect("pair fuses");
        let e = entry.lock().unwrap();
        let launch = e.fused.launch(tc.grid, cd.grid, &tc.bindings, &cd.bindings);
        (e.fused.def().id(), e.fused.config(), launch.fingerprint())
    };
    let (id_a, cfg_a, fp_a) = build();
    let (id_b, cfg_b, fp_b) = build();
    assert_eq!(cfg_a, cfg_b, "offline selection must be deterministic");
    assert_eq!(id_a, id_b, "fused KernelId must be content-derived");
    assert_eq!(fp_a, fp_b, "fused launch fingerprint must be stable");
}

/// A repeated identical sweep on a shared device replays *fused* launches
/// from the cache: the second run must report fused cache hits and add no
/// new misses.
#[test]
fn second_sweep_run_hits_fused_cache() {
    let gemm = tacker_workloads::dnn::compile::shared_gemm();
    let mut kernels = Vec::new();
    for _ in 0..2 {
        kernels.push(tacker_workloads::gemm::gemm_workload(
            &gemm,
            tacker_workloads::gemm::GemmShape::new(2048, 1024, 512),
        ));
    }
    let lcs = vec![LcService::new("svc", 8, kernels)];
    let bes = vec![BeApp::new(
        "cutcp",
        Intensity::Compute,
        Benchmark::Cutcp.task(),
    )];
    let config = ExperimentConfig::default().with_queries(12).with_seed(3);
    let device = Arc::new(Device::new(GpuSpec::rtx2080ti()));

    let cold = run_pair_sweep(&device, &lcs, &bes, &[Policy::Tacker], &config, 1).unwrap();
    assert!(
        cold.iter().any(|c| c.report.fused_launches > 0),
        "scenario must exercise fusion for this test to be meaningful"
    );
    let (fused_hits_cold, fused_misses_cold) = device.fused_cache_stats();
    assert!(fused_misses_cold > 0, "cold run must simulate fused plans");

    let warm = run_pair_sweep(&device, &lcs, &bes, &[Policy::Tacker], &config, 1).unwrap();
    let (fused_hits_warm, fused_misses_warm) = device.fused_cache_stats();
    assert!(
        fused_hits_warm > fused_hits_cold,
        "second sweep reported no fused cache hits"
    );
    assert_eq!(
        fused_misses_warm, fused_misses_cold,
        "second identical sweep re-simulated fused launches"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.report.query_latencies(), w.report.query_latencies());
    }
}

fn gen_kernel(name: &str, warps: u32, iters: u64, ops: u64, smem_kb: u64, regs: u32) -> KernelDef {
    KernelDef::builder(name, KernelKind::Cuda)
        .block_dim(Dim3::x(warps * 32))
        .resources(ResourceUsage::new(regs, smem_kb * 1024))
        .param("n")
        .body(vec![
            Stmt::loop_over(
                "i",
                Expr::lit(iters),
                vec![
                    Stmt::global_load("x", Expr::lit(16), 0.5),
                    Stmt::sync_threads(),
                    Stmt::compute_cd(Expr::lit(ops), "fma"),
                ],
            ),
            Stmt::global_store("y", Expr::lit(8), 0.0),
        ])
        .build()
        .expect("generated kernel is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structurally-equal definitions share a fingerprint; perturbing any
    /// single content field (name, block shape, loop count, op count,
    /// shared memory, registers) changes it.
    #[test]
    fn content_equal_defs_fingerprint_equal_and_perturbations_differ(
        warps in 1u32..=8,
        iters in 1u64..=32,
        ops in 1u64..=512,
        smem_kb in 0u64..=16,
        regs in 16u32..=64,
    ) {
        let a = gen_kernel("gen", warps, iters, ops, smem_kb, regs);
        let b = gen_kernel("gen", warps, iters, ops, smem_kb, regs);
        prop_assert_eq!(a.id(), b.id());

        let perturbed = [
            gen_kernel("gen2", warps, iters, ops, smem_kb, regs),
            gen_kernel("gen", warps + 1, iters, ops, smem_kb, regs),
            gen_kernel("gen", warps, iters + 1, ops, smem_kb, regs),
            gen_kernel("gen", warps, iters, ops + 1, smem_kb, regs),
            gen_kernel("gen", warps, iters, ops, smem_kb + 1, regs),
            gen_kernel("gen", warps, iters, ops, smem_kb, regs + 1),
        ];
        for p in perturbed {
            prop_assert!(a.id() != p.id(), "perturbed def {} aliased {}", p.name(), a.name());
        }
    }
}

/// Every registered workload kernel's keyed fingerprints agree with the
/// fingerprint of the launch it builds: `WorkloadKernel::fingerprint` and
/// the `Head` a run resolves it into key the device cache and the
/// profiler history exactly as the launch would.
#[test]
fn workload_fingerprints_equal_their_launch_fingerprints() {
    let device = Device::new(GpuSpec::rtx2080ti());
    let lc = tacker_workloads::lc_services(&device);
    let be = tacker_workloads::be_apps();
    let kernels = lc
        .iter()
        .flat_map(LcService::query_kernels)
        .chain(be.iter().flat_map(BeApp::task_kernels));
    let mut checked = 0;
    for wk in kernels {
        let fp = wk.launch().fingerprint();
        assert_eq!(wk.fingerprint(), fp, "{wk}");
        assert_eq!(tacker::Head::new(wk).fp(), fp, "{wk}");
        checked += 1;
    }
    assert!(checked > 100, "only {checked} kernels checked");
}
