//! Engine gate: DES throughput, macro-step coalescing and fused-plan
//! cache reuse.
//!
//! * **Throughput (A/B)**: micro-events per second on uncached
//!   simulations of representative plans, under the reference engine
//!   (binary heap, event by event) and the default one (calendar queue
//!   with macro-stepping). The micro-event count is the same under both,
//!   so the two rates divide into an honest in-process speedup.
//! * **Coalescing**: one deterministic pass over the same plans; the
//!   ratio `(events - pops) / events` is the share of queue transactions
//!   macro-stepping eliminated.
//! * **Repeated sweep**: the reduced sweep (`Resnet50 × {fft, cutcp}`,
//!   Baymax + Tacker, 30 queries, `jobs = 1`) on a device a cold run has
//!   warmed, so every launch, fused ones included, replays from the
//!   sharded execution cache.

use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};
use tacker_sim::{
    simulate_with_options, EngineOptions, ExecutablePlan, GpuSpec, KernelRun, QueueKind,
};
use tacker_trace::NoopSink;

use crate::Bound::AtLeast;
use crate::{best_time, cache_json, Gate, ReducedSweep, Report};

/// Baseline pinned at commit 986d3c1 (calendar queue + macro-stepping
/// before the occupancy bitmap, bucket-width retune and persistent pool),
/// re-measured by rebuilding that commit and running it back to back
/// with its successor on the same host; `results/README.md` keeps the
/// pin history and why the original pin was replaced.
const BASELINE_COMMIT: &str = "986d3c1";
const BASELINE_EVENTS_PER_SEC: f64 = 26_739_882.0;
const BASELINE_REPEATED_MS: f64 = 48.3;

const LC_NAMES: [&str; 1] = ["Resnet50"];
const BE_NAMES: [&str; 2] = ["fft", "cutcp"];
const QUERIES: usize = 30;

/// Fused-launch cache hit-rate floor on the repeated sweep.
const FUSED_HIT_FLOOR: f64 = 0.5;
/// Absolute-throughput backstop: the default engine must process at
/// least this multiple of `BASELINE_EVENTS_PER_SEC`. ±15–40 % window
/// variance from background load has been observed on shared hosts, so
/// this floor only catches catastrophic regressions and the ratio floor
/// below does the real guarding.
const THROUGHPUT_FLOOR: f64 = 0.9;
/// Repeated-sweep regression floor: `1 − repeated_ms /
/// BASELINE_REPEATED_MS` must not go negative, i.e. the repeated sweep
/// runs at least as fast as the pinned commit re-measured on this host.
const IMPROVEMENT_FLOOR: f64 = 0.0;
/// In-process heap-vs-calendar speedup floor. Both engines are measured
/// back-to-back, so host noise mostly cancels and the ratio is stable
/// where absolute rates are not: across windows whose absolute rates
/// swung 37–44 M ev/s, this ratio held at 1.32–1.46×. The engine shipped
/// before the bucket-width retune measured 1.19× — a regression to it
/// trips this gate.
const HEAP_SPEEDUP_FLOOR: f64 = 1.25;
/// Floor on the deterministic coalesce ratio.
const COALESCE_FLOOR: f64 = 0.5;

/// Reference configuration: the pre-change engine (heap, event-by-event).
const REFERENCE: EngineOptions = EngineOptions {
    queue: QueueKind::Heap,
    macro_step: false,
};

fn role(name: &str, warps: u32, ops: Vec<Op>, original_blocks: u64) -> WarpRole {
    WarpRole {
        name: name.into(),
        warps,
        program: WarpProgram::new(ops),
        original_blocks,
    }
}

fn plan_of(name: &str, roles: Vec<WarpRole>, issued: u64) -> ExecutablePlan {
    let block = BlockProgram::new(roles);
    let threads = block.threads();
    let resources = ResourceUsage::new(32, 0);
    ExecutablePlan::assemble(name, false, block, issued, resources, threads, None)
}

/// Representative plans for the throughput microbench: compute-bound,
/// fused-shape (two roles + a named barrier on the loop), memory-bound,
/// and an occupancy-tail phase (a lone long-running warp, the regime
/// where warp macro-stepping collapses whole runs of events inline).
fn engine_plans() -> Vec<ExecutablePlan> {
    let compute = |unit, ops| Op::Compute { unit, ops };
    let read = |space, bytes, locality| Op::Memory {
        dir: MemDir::Read,
        space,
        bytes,
        locality,
    };
    let cuda = compute(ComputeUnit::Cuda, 4_096);
    let tensor = compute(ComputeUnit::Tensor, 32_768);
    vec![
        plan_of(
            "bench_cd",
            vec![role("cd", 8, vec![cuda.clone()], 68 * 64)],
            68 * 4,
        ),
        plan_of(
            "bench_fused",
            vec![
                role("tc", 4, vec![tensor, Op::Barrier { id: 1 }], 68 * 32),
                role("cd", 4, vec![cuda], 68 * 32),
            ],
            68 * 4,
        ),
        plan_of(
            "bench_mem",
            vec![role(
                "mem",
                8,
                vec![read(MemSpace::Global, 4 * 1024, 0.5)],
                68 * 32,
            )],
            68 * 4,
        ),
        // Serial tail: one warp, one block, a mixed program iterated many
        // times — models the low-occupancy phases (kernel tails, serial LC
        // stages) where the event queue holds a single pending event.
        plan_of(
            "bench_tail",
            vec![role(
                "tail",
                1,
                vec![
                    compute(ComputeUnit::Cuda, 512),
                    read(MemSpace::Shared, 1024, 0.0),
                    read(MemSpace::Global, 2 * 1024, 0.9),
                ],
                512,
            )],
            1,
        ),
    ]
}

fn simulate(plans: &[ExecutablePlan], options: EngineOptions) -> Vec<KernelRun> {
    let spec = GpuSpec::rtx2080ti();
    plans
        .iter()
        .map(|plan| {
            simulate_with_options(&spec, plan, spec.sm_count, &NoopSink, options)
                .expect("bench plan simulates")
        })
        .collect()
}

pub fn run() -> Report {
    let plans = engine_plans();
    let runs = simulate(&plans, EngineOptions::default());
    let sum = |f: fn(&KernelRun) -> u64| runs.iter().map(f).sum::<u64>();
    let (events, pops) = (sum(|r| r.events), sum(|r| r.pops));
    eprintln!("timing engine A/B ...");
    // Micro-events per second: the count is the same under every option.
    let eps = |options| events as f64 / best_time(|| (), |()| simulate(&plans, options)).0;
    let (heap_eps, calendar_eps) = (eps(REFERENCE), eps(EngineOptions::default()));

    eprintln!("timing the repeated sweep ...");
    let sweep = ReducedSweep::new(&LC_NAMES, &BE_NAMES, QUERIES);
    sweep.run(1);
    // One repeated sweep's cache traffic, then the timing.
    let ((h0, m0), (fh0, fm0)) = (sweep.device.cache_stats(), sweep.device.fused_cache_stats());
    sweep.run(1);
    let ((h1, m1), (fh1, fm1)) = (sweep.device.cache_stats(), sweep.device.fused_cache_stats());
    let (fused_hits, fused_misses) = (fh1 - fh0, fm1 - fm0);
    let (repeated_s, _) = best_time(|| (), |()| sweep.run(1));
    let repeated_ms = repeated_s * 1e3;
    let speedup = calendar_eps / heap_eps;
    let coalesce = (events - pops) as f64 / events.max(1) as f64;
    let fused_rate = fused_hits as f64 / (fused_hits + fused_misses).max(1) as f64;

    Report {
        jobs: (1, 1),
        gates: vec![
            Gate(
                "throughput_vs_baseline",
                calendar_eps / BASELINE_EVENTS_PER_SEC,
                AtLeast(THROUGHPUT_FLOOR),
            ),
            Gate("speedup_vs_heap", speedup, AtLeast(HEAP_SPEEDUP_FLOOR)),
            Gate("coalesce_ratio", coalesce, AtLeast(COALESCE_FLOOR)),
            Gate("fused_hit_rate", fused_rate, AtLeast(FUSED_HIT_FLOOR)),
            Gate(
                "improvement_vs_baseline",
                1.0 - repeated_ms / BASELINE_REPEATED_MS,
                AtLeast(IMPROVEMENT_FLOOR),
            ),
        ],
        fields: members![
            "engine": obj! {"heap_events_per_sec": heap_eps,
                "calendar_macro_events_per_sec": calendar_eps,
                "coalesce": obj! {"events": events, "pops": pops,
                    "macro_runs": sum(|r| r.macro_runs)}},
            "sweep_grid": sweep.describe(),
            "repeated_sweep": obj! {"repeated_ms": repeated_ms,
                "device_cache": cache_json((h1 - h0, m1 - m0)),
                "fused_cache": cache_json((fused_hits, fused_misses))},
            "baseline": obj! {"commit": BASELINE_COMMIT,
                "events_per_sec": BASELINE_EVENTS_PER_SEC, "repeated_ms": BASELINE_REPEATED_MS},
        ],
    }
}
