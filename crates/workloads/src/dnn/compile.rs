//! Compiling a model graph into its kernel launch sequence.
//!
//! This is where the §VIII-H transformation decision happens: each
//! convolution either stays a black-box cuDNN Tensor-Core kernel or is
//! rewritten to `cudnnIm2col` + the open wmma GEMM. Under
//! [`ConvPolicy::Profitable`], both paths are *measured* on the simulated
//! device and the transformation is kept only when its slowdown is within
//! the threshold (15% in the paper) — reproducing Fig. 21's per-conv
//! relative performance and the "55.4% of TC kernels usable for fusion"
//! statistic.

use tacker_kernel::SimTime;
use tacker_sim::Device;

use crate::app::WorkloadKernel;
use crate::gemm::{gemm_workload, GemmShape};

use super::cudnn;
use super::elementwise as ew;
use super::graph::ModelGraph;
use super::im2col;
use super::layer::Layer;

/// How convolutions are implemented.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConvPolicy {
    /// Every conv stays on cuDNN (nothing fusable).
    Cudnn,
    /// Every conv is transformed to im2col + GEMM.
    Im2colAll,
    /// Measure both; transform when the slowdown is below the threshold
    /// (the paper uses 0.15).
    Profitable(f64),
}

/// Per-convolution compilation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvReport {
    /// Index among the model's convolutions.
    pub index: usize,
    /// The implicit/im2col GEMM shape.
    pub gemm: GemmShape,
    /// Whether the conv was transformed to im2col + GEMM.
    pub transformed: bool,
    /// Normalized performance of im2col+GEMM over cuDNN
    /// (`t_cudnn / t_path`, ≤ 1 when cuDNN is faster) — the Fig. 21 metric.
    pub rel_perf: f64,
}

/// A compiled model: the per-query kernel sequence plus conv reports.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// Model name.
    pub name: String,
    /// Kernels in launch order.
    pub kernels: Vec<WorkloadKernel>,
    /// One report per convolution.
    pub convs: Vec<ConvReport>,
}

impl CompiledModel {
    /// Fraction of convolutions transformed to im2col + GEMM.
    pub fn transformed_fraction(&self) -> f64 {
        if self.convs.is_empty() {
            return 0.0;
        }
        self.convs.iter().filter(|c| c.transformed).count() as f64 / self.convs.len() as f64
    }
}

/// The shared wmma GEMM definition used by every transformed conv and FC
/// layer.
pub fn shared_gemm() -> std::sync::Arc<tacker_kernel::KernelDef> {
    static DEF: std::sync::OnceLock<std::sync::Arc<tacker_kernel::KernelDef>> =
        std::sync::OnceLock::new();
    std::sync::Arc::clone(DEF.get_or_init(|| std::sync::Arc::new(crate::gemm::gemm_kernel())))
}

fn measure(device: &Device, wk: &WorkloadKernel) -> SimTime {
    wk.run_on(device)
        .map(|r| r.duration)
        .unwrap_or(SimTime::from_millis(1_000))
}

/// Compiles a graph into its kernel sequence under the given policy.
pub fn compile(graph: &ModelGraph, device: &Device, policy: ConvPolicy) -> CompiledModel {
    let sm = &device.spec().sm;
    let gemm_def = shared_gemm();
    let mut kernels = Vec::new();
    let mut convs = Vec::new();
    let mut conv_idx = 0usize;

    for inst in graph.layers() {
        match inst.layer {
            Layer::Conv(spec) => {
                let gemm = spec.gemm_shape(inst.input);
                let cudnn_wk = cudnn::conv_workload(gemm, spec.kernel, sm);
                let mut path: Vec<WorkloadKernel> = Vec::new();
                if !spec.is_pointwise() {
                    path.push(im2col::im2col_workload(gemm));
                }
                path.push(gemm_workload(&gemm_def, gemm));

                let (transformed, rel_perf) = match policy {
                    ConvPolicy::Cudnn => (false, 1.0),
                    ConvPolicy::Im2colAll => (true, 1.0),
                    ConvPolicy::Profitable(threshold) => {
                        let t_cudnn = measure(device, &cudnn_wk);
                        let t_path: SimTime = path.iter().map(|wk| measure(device, wk)).sum();
                        let rel = t_cudnn.ratio(t_path);
                        (
                            t_path.as_nanos() as f64
                                <= t_cudnn.as_nanos() as f64 * (1.0 + threshold),
                            rel,
                        )
                    }
                };
                convs.push(ConvReport {
                    index: conv_idx,
                    gemm,
                    transformed,
                    rel_perf,
                });
                conv_idx += 1;
                if transformed {
                    kernels.extend(path);
                } else {
                    kernels.push(cudnn_wk);
                }
            }
            Layer::BatchNorm => {
                kernels.push(ew::elementwise_workload(
                    &ew::batch_norm(),
                    inst.output.elems(),
                ));
            }
            Layer::ReLU => {
                kernels.push(ew::elementwise_workload(&ew::relu(), inst.output.elems()));
            }
            Layer::Scale => {
                kernels.push(ew::elementwise_workload(&ew::scale(), inst.output.elems()));
            }
            Layer::Add => {
                kernels.push(ew::elementwise_workload(&ew::add(), inst.output.elems()));
            }
            Layer::MaxPool { k, .. } | Layer::AvgPool { k, .. } => {
                kernels.push(ew::pool_workload(
                    inst.output.elems(),
                    (k as u64) * (k as u64),
                ));
            }
            Layer::GlobalAvgPool => {
                kernels.push(ew::pool_workload(inst.output.elems(), inst.input.spatial()));
            }
            Layer::FullyConnected { out } => {
                let k = inst.input.elems() / inst.input.n.max(1);
                let gemm = GemmShape::new(inst.input.n, out, k);
                kernels.push(gemm_workload(&gemm_def, gemm));
            }
        }
    }

    CompiledModel {
        name: graph.name().to_string(),
        kernels,
        convs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnn::DnnModel;
    use tacker_sim::GpuSpec;

    #[test]
    fn cudnn_policy_keeps_all_convs_black_box() {
        let device = Device::new(GpuSpec::rtx2080ti());
        let g = DnnModel::Vgg16.graph(2);
        let c = compile(&g, &device, ConvPolicy::Cudnn);
        assert_eq!(c.convs.len(), 13);
        assert_eq!(c.transformed_fraction(), 0.0);
        // cuDNN kernels are named per Fig. 22.
        assert!(c.kernels.iter().any(|k| k.def.name().contains("cudnn")));
        assert!(!c.kernels.iter().any(|k| k.def.name() == "cudnnIm2col"));
    }

    #[test]
    fn im2col_all_transforms_everything() {
        let device = Device::new(GpuSpec::rtx2080ti());
        let g = DnnModel::Vgg16.graph(2);
        let c = compile(&g, &device, ConvPolicy::Im2colAll);
        assert_eq!(c.transformed_fraction(), 1.0);
        // Every non-pointwise conv contributes an im2col kernel.
        let im2cols = c
            .kernels
            .iter()
            .filter(|k| k.def.name() == "cudnnIm2col")
            .count();
        assert_eq!(im2cols, 13, "VGG16 has no pointwise convs");
    }

    #[test]
    fn profitable_policy_transforms_a_real_fraction() {
        let device = Device::new(GpuSpec::rtx2080ti());
        let g = DnnModel::Resnet50.graph(4);
        let c = compile(&g, &device, ConvPolicy::Profitable(0.15));
        let f = c.transformed_fraction();
        assert!(f > 0.2 && f < 1.0, "transformed fraction {f}");
        // Reports carry the Fig. 21 metric.
        assert!(c.convs.iter().all(|r| r.rel_perf > 0.0));
        assert_eq!(c.convs.len(), 53);
    }

    #[test]
    fn kernel_stream_mixes_tc_and_cd() {
        let device = Device::new(GpuSpec::rtx2080ti());
        let g = DnnModel::Resnet50.graph(2);
        let c = compile(&g, &device, ConvPolicy::Cudnn);
        let tc = c.kernels.iter().filter(|k| k.is_tensor()).count();
        let cd = c.kernels.iter().filter(|k| k.is_cuda()).count();
        assert!(tc >= 50, "tc kernels {tc}");
        assert!(cd >= 100, "cd kernels {cd}");
    }
}
