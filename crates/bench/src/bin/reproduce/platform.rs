//! The platform: Table II's specification and the cuDNN kernels of
//! Table III and Figs. 21 and 22 (§VIII-H).

use std::fmt::{self, Write};

use tacker_workloads::dnn::compile::{compile, CompiledModel, ConvPolicy};
use tacker_workloads::dnn::cudnn::{parse_kernel_name, TURING_IMPLS, VOLTA_IMPLS};
use tacker_workloads::dnn::DnnModel;
use tacker_workloads::{Intensity, WorkloadKernel};

use crate::Ctx;

/// Table II: the experimental specification, as encoded in this
/// reproduction.
pub fn table2(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let (t, v, cfg) = (ctx.rtx.spec(), ctx.v100.spec(), &ctx.config);
    writeln!(
        out,
        "# Table II: experimental specification (as reproduced)"
    )?;
    let (smem, bandwidth) = (
        t.sm.shared_mem_bytes / 1024,
        t.dram_bytes_per_cycle * t.clock_ghz,
    );
    writeln!(
        out,
        "GPU (main):  {} — {} SMs, {smem} KiB smem/SM, {bandwidth:.0} GB/s",
        t.name, t.sm_count
    )?;
    let smem = v.sm.shared_mem_bytes / 1024;
    writeln!(
        out,
        "GPU (alt):   {} — {} SMs, {smem} KiB smem/SM",
        v.name, v.sm_count
    )?;
    writeln!(out, "QoS target:  {}", cfg.qos_target)?;
    writeln!(
        out,
        "LC load:     {:.0}% of peak supported load, Poisson arrivals",
        cfg.load_factor * 100.0
    )?;
    writeln!(out, "\nLC services (batch size):")?;
    for m in DnnModel::ALL {
        writeln!(out, "  {:<10} (batch {:>2})", m.name(), m.table_ii_batch())?;
    }
    writeln!(out, "\nBE applications:")?;
    for app in &ctx.bes {
        let intensity = match app.intensity() {
            Intensity::Compute => "compute-intensive",
            Intensity::Memory => "memory-intensive",
        };
        writeln!(out, "  {:<8} {intensity}", app.name())?;
    }
    Ok(())
}

/// Table III: resource usage of the cuDNN convolution implementations
/// (black-box kernels profiled by the paper; reproduced verbatim as the
/// catalog that drives our cuDNN kernel models).
pub fn table3(_: &Ctx, out: &mut String) -> fmt::Result {
    writeln!(out, "# Table III: cuDNN convolution kernel resource usage")?;
    writeln!(
        out,
        "{:<5} {:>10} {:>12} {:>10} {:>7}  kernel name (Fig. 22 convention)",
        "impl", "reg (%)", "smem (%)", "DRAM (%)", "FP32(%)"
    )?;
    for ci in TURING_IMPLS.iter().chain(VOLTA_IMPLS.iter()) {
        writeln!(
            out,
            "{:<5} {:>10.1} {:>12.1} {:>10.1} {:>7.2}  {}",
            ci.short, ci.register_pct, ci.shared_pct, ci.dram_pct, ci.fp32_pct, ci.name
        )?;
    }
    out.push_str(
        "\nAll implementations leave DRAM bandwidth below 71% and the FP32\n\
         pipeline essentially unused — the idle resources Tacker exploits\n\
         (paper: same observation).\n",
    );
    Ok(())
}

/// Figure 21: normalized performance of the im2col+GEMM implementation
/// over the cuDNN convolution kernels of Resnet50.
///
/// Paper: the gap is below 15% for 39.6% of Resnet50's convolutions;
/// transforming only those keeps the end-to-end slowdown under 2%.
pub fn fig21(ctx: &Ctx, out: &mut String) -> fmt::Result {
    let device = &ctx.rtx;
    let model = DnnModel::Resnet50;
    let graph = model.graph(model.table_ii_batch() as u64);
    let compiled = compile(&graph, device, ConvPolicy::Profitable(0.15));

    writeln!(
        out,
        "# Figure 21: im2col+GEMM vs cuDNN per Resnet50 convolution"
    )?;
    writeln!(
        out,
        "{:>5} {:>9} {:>7} {:>7} {:>10} {:>12}",
        "conv", "M", "N", "K", "rel perf", "transformed"
    )?;
    for r in &compiled.convs {
        let (m, n, k) = (r.gemm.m, r.gemm.n, r.gemm.k);
        let transformed = if r.transformed { "yes" } else { "" };
        let rel = r.rel_perf;
        writeln!(
            out,
            "{:>5} {m:>9} {n:>7} {k:>7} {rel:>10.3} {transformed:>12}",
            r.index
        )?;
    }
    let within_15 = compiled
        .convs
        .iter()
        .filter(|r| r.rel_perf >= 1.0 / 1.15)
        .count();
    let frac = 100.0 * within_15 as f64 / compiled.convs.len() as f64;
    writeln!(out)?;
    writeln!(
        out,
        "convs with <15% gap: {}/{} = {:.1}%  (paper: 39.6%)",
        within_15,
        compiled.convs.len(),
        frac
    )?;
    writeln!(
        out,
        "transformed fraction: {:.1}%  (paper: 55.4% of TC kernels usable for fusion)",
        100.0 * compiled.transformed_fraction()
    )?;

    // End-to-end cost of the transformation (paper: <2%).
    let all_cudnn = compile(&graph, device, ConvPolicy::Cudnn);
    let total = |c: &CompiledModel| -> f64 {
        let run = |k: &WorkloadKernel| device.run_launch(&k.launch()).expect("kernel runs");
        c.kernels
            .iter()
            .map(|k| run(k).duration.as_nanos() as f64)
            .sum()
    };
    let loss = total(&compiled) / total(&all_cudnn) - 1.0;
    writeln!(
        out,
        "end-to-end slowdown from transformation: {:+.2}%  (paper: <2%)",
        100.0 * loss
    )?;
    assert!(loss < 0.05, "transformation must be nearly free end-to-end");
    assert!(
        (20.0..=90.0).contains(&frac),
        "a real fraction of convs must convert well"
    );
    Ok(())
}

/// Figure 22: the cuDNN convolution kernel naming convention — decoded
/// for every implementation in the Table III catalog.
///
/// Paper: `<arch>_h<884|1688>cudnn_<tile>_…_<size class>_…`, where the
/// architecture prefix, the HMMA shape (Tensor-Core use) and the
/// input-shape-related size class are the semantically meaningful parts.
pub fn fig22(_: &Ctx, out: &mut String) -> fmt::Result {
    writeln!(out, "# Figure 22: cuDNN kernel name decoding")?;
    writeln!(
        out,
        "{:<5} {:>7} {:>6} {:>9} {:>9}  name",
        "impl", "arch", "hmma", "tile", "class"
    )?;
    for ci in TURING_IMPLS.iter().chain(VOLTA_IMPLS.iter()) {
        let d = parse_kernel_name(ci.name).expect("catalog names decode");
        writeln!(
            out,
            "{:<5} {:>7} {:>6} {:>4}x{:<4} {:>9}  {}",
            ci.short, d.arch, d.hmma, d.tile.0, d.tile.1, d.size_class, ci.name
        )?;
        // Fig. 22's annotation: 884 or 1688 indicate Tensor-Core use.
        assert!(d.hmma == "884" || d.hmma == "1688");
    }
    out.push_str(
        "\nAll 12 implementations use HMMA (Tensor Cores) — and none exposes\n\
         source, which is why the im2col+GEMM transformation exists (§VIII-H).\n",
    );
    Ok(())
}
