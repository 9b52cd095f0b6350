//! Golden pin of the component-core engine against the pre-refactor
//! event-by-event engine.
//!
//! The golden constants below were captured from the engine *before* it
//! was rewritten onto the component/event-handler kernel, on a mixed
//! plan exercising every behaviour class at once: Tensor and CUDA
//! compute, a partial-arrival barrier, a global access with a DRAM
//! stage, and PTB-style iteration (fewer issued blocks than original
//! blocks, so warps loop). Any drift in the trace stream or the
//! `KernelRun` under the component engine is a determinism regression.

use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};
use tacker_sim::{simulate_with_options, EngineOptions, ExecutablePlan, GpuSpec, QueueKind};
use tacker_trace::{NoopSink, RingSink};

/// The pinned plan: a fused-style block with a TC role (compute →
/// barrier → global access with 50% locality) and a CD role, issued as
/// one persistent 136-block wave over larger original grids, so every
/// warp iterates PTB-style.
fn mixed_ptb_plan() -> ExecutablePlan {
    let tc = WarpRole {
        name: "tc".into(),
        warps: 2,
        program: WarpProgram::new(vec![
            Op::Compute {
                unit: ComputeUnit::Tensor,
                ops: 8_192,
            },
            Op::Barrier { id: 1 },
            Op::Memory {
                dir: MemDir::Read,
                space: MemSpace::Global,
                bytes: 4 * 1024,
                locality: 0.5,
            },
        ]),
        original_blocks: 200,
    };
    let cd = WarpRole {
        name: "cd".into(),
        warps: 3,
        program: WarpProgram::new(vec![Op::Compute {
            unit: ComputeUnit::Cuda,
            ops: 2_048,
        }]),
        original_blocks: 137,
    };
    let block = BlockProgram::new(vec![tc, cd]);
    let threads = block.threads();
    ExecutablePlan::assemble(
        "golden_mixed_ptb",
        true,
        block,
        136,
        ResourceUsage::new(32, 0),
        threads,
        None,
    )
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Golden values captured from the pre-refactor engine (see module doc).
const GOLDEN_TRACE_FNV: u64 = 9_119_947_320_825_117_019;
const GOLDEN_TRACE_LEN: usize = 20;
const GOLDEN_CYCLES: u64 = 6_643;
const GOLDEN_EVENTS: u64 = 43;
const GOLDEN_DRAM_BYTES_BITS: u64 = 4_667_981_013_769_519_104;
const GOLDEN_TC_BUSY: u64 = 192;
const GOLDEN_CD_BUSY: u64 = 576;

#[test]
fn golden_trace_and_run_match_pre_refactor_engine() {
    let spec = GpuSpec::rtx2080ti();
    let plan = mixed_ptb_plan();
    let sink = RingSink::unbounded();
    let run = simulate_with_options(&spec, &plan, 68, &sink, EngineOptions::default())
        .expect("golden plan simulates");
    let events = sink.events();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for ev in &events {
        fnv1a(&mut hash, format!("{ev:?}").as_bytes());
    }
    assert_eq!(
        (hash, events.len()),
        (GOLDEN_TRACE_FNV, GOLDEN_TRACE_LEN),
        "RingSink event stream drifted from the pre-refactor engine"
    );
    assert_eq!(
        (
            run.cycles.get(),
            run.events,
            run.dram_bytes.to_bits(),
            run.activity.tc_busy.get(),
            run.activity.cd_busy.get(),
        ),
        (
            GOLDEN_CYCLES,
            GOLDEN_EVENTS,
            GOLDEN_DRAM_BYTES_BITS,
            GOLDEN_TC_BUSY,
            GOLDEN_CD_BUSY,
        )
    );
    // Traced runs force macro-stepping off: one pop per micro-event.
    assert_eq!(run.pops, run.events);

    // Every untraced configuration reproduces the same KernelRun.
    for (queue, macro_step) in [
        (QueueKind::Heap, false),
        (QueueKind::Heap, true),
        (QueueKind::Calendar, false),
        (QueueKind::Calendar, true),
    ] {
        let opts = EngineOptions::default()
            .with_queue(queue)
            .with_macro_step(macro_step);
        let r = simulate_with_options(&spec, &plan, 68, &NoopSink, opts).unwrap();
        assert_eq!(r.cycles.get(), GOLDEN_CYCLES, "{opts:?}");
        assert_eq!(r.events, GOLDEN_EVENTS, "{opts:?}");
        assert_eq!(r.dram_bytes.to_bits(), GOLDEN_DRAM_BYTES_BITS, "{opts:?}");
    }
}
