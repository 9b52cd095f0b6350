//! Direct calls into single layers, timed from outside with each
//! workload's own kernels as inputs: launch construction and
//! fingerprinting (`kernel`), lowering (`sim.plan`), cold simulation
//! (`sim.engine`), warm cache probes (`sim.device`), fused-kernel
//! construction (`fuser`) and fusion-library preparation (`library`).

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use tacker::{FusionLibrary, KernelProfiler};
use tacker_fuser::{enumerate_configs, fuse_flexible, PackPriority};
use tacker_sim::{Device, ExecutablePlan};
use tacker_workloads::WorkloadKernel;

use crate::common::LayerValues;

/// Host seconds each timing loop runs for (at least one full pass).
const LOOP_SECONDS: f64 = 0.15;

/// Cold simulations timed for `sim.engine`, at most.
const ENGINE_BUDGET_SECONDS: f64 = 1.0;

/// Oriented (TC, CD) pairs the library prepares, at most.
const LIBRARY_PAIRS: usize = 48;

/// Distinct kernels by launch fingerprint, in first-seen order.
fn distinct(kernels: impl IntoIterator<Item = WorkloadKernel>) -> Vec<WorkloadKernel> {
    let mut seen = HashSet::new();
    kernels
        .into_iter()
        .filter(|k| seen.insert(k.launch().fingerprint()))
        .collect()
}

/// Nanoseconds per call of `f` over `items`, repeating whole passes for
/// at least [`LOOP_SECONDS`].
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed().as_secs_f64() < LOOP_SECONDS {
        for item in items {
            f(black_box(item));
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Every (TC, CD) orientation of an LC kernel with a BE kernel, fusable
/// in principle (neither side opaque), distinct by launch pair.
fn oriented_pairs(
    lc: &[WorkloadKernel],
    be: &[WorkloadKernel],
) -> Vec<(WorkloadKernel, WorkloadKernel)> {
    let mut seen = HashSet::new();
    let mut pairs = Vec::new();
    for a in lc {
        for b in be {
            let Some((tc, cd)) = FusionLibrary::orient(a, b) else {
                continue;
            };
            if tc.def.is_opaque() || cd.def.is_opaque() {
                continue;
            }
            if seen.insert((tc.launch().fingerprint(), cd.launch().fingerprint())) {
                pairs.push((tc.clone(), cd.clone()));
            }
        }
    }
    pairs
}

/// Times the direct layer calls on `device` (already warm from the
/// workload) and records them into `out`. `be` is empty for LC-only
/// workloads, which then make no fuser or library calls.
///
/// # Errors
///
/// Lowering, simulation and library errors.
pub fn measure(
    device: &Arc<Device>,
    lc: &[WorkloadKernel],
    be: &[WorkloadKernel],
    out: &mut LayerValues,
) -> Result<(), String> {
    let spec = device.spec().clone();
    let kernels = distinct(lc.iter().chain(be).cloned());

    out.set(
        "kernel.launch_ns",
        ns_per_call(&kernels, |k| {
            black_box(black_box(k.launch()).fingerprint());
        }),
    );

    let launches: Vec<_> = kernels.iter().map(WorkloadKernel::launch).collect();
    out.set(
        "sim.plan.lower_ns",
        ns_per_call(&launches, |l| {
            black_box(ExecutablePlan::from_launch(&spec, l).expect("lowered once already"));
        }),
    );
    let plans = launches
        .iter()
        .map(|l| ExecutablePlan::from_launch(&spec, l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("lowering: {e}"))?;

    for p in &plans {
        device.run_plan(p).map_err(|e| format!("warm probe: {e}"))?;
    }
    out.set(
        "sim.device.probe_ns",
        ns_per_call(&plans, |p| {
            black_box(device.run_plan(p).expect("simulated once already"));
        }),
    );

    let (mut events, mut secs) = (0u64, 0.0f64);
    for p in &plans {
        let t = Instant::now();
        let run =
            tacker_sim::simulate(&spec, black_box(p)).map_err(|e| format!("simulate: {e}"))?;
        secs += t.elapsed().as_secs_f64();
        events += run.events;
        if secs >= ENGINE_BUDGET_SECONDS {
            break;
        }
    }
    out.set("sim.engine.events_per_s", events as f64 / secs.max(1e-12));

    let pairs = oriented_pairs(lc, be);
    let mut defs = HashSet::new();
    let (mut calls, t) = (0u64, Instant::now());
    for (tc, cd) in &pairs {
        if !defs.insert((tc.def.id(), cd.def.id())) {
            continue;
        }
        for cfg in enumerate_configs(&tc.def, &cd.def, &spec.sm, PackPriority::TensorFirst) {
            let _ = black_box(fuse_flexible(&tc.def, &cd.def, cfg, &spec.sm));
            calls += 1;
        }
    }
    let fuse_s = t.elapsed().as_secs_f64();
    out.set("fuser.calls", calls as f64);
    out.set(
        "fuser.fuse_ns",
        if calls > 0 {
            fuse_s * 1e9 / calls as f64
        } else {
            0.0
        },
    );

    let library =
        FusionLibrary::new(Arc::new(KernelProfiler::new(Arc::clone(device)))).with_jobs(1);
    let t = Instant::now();
    for (tc, cd) in pairs.iter().take(LIBRARY_PAIRS) {
        library
            .prepare(tc, cd)
            .map_err(|e| format!("library prepare: {e}"))?;
    }
    out.set("library.prepare_s", t.elapsed().as_secs_f64());
    out.set("library.pairs", library.prepared_pairs() as f64);
    out.set("library.fused_pairs", library.fused_pairs() as f64);
    Ok(())
}
