//! Identity tests for the engine's event core: every (queue kind,
//! macro-stepping) combination must produce **bit-identical** results.
//!
//! Randomly generated plans — mixed TC/CD roles, shared and global
//! memory ops, partial-arrival barriers, PTB-style iteration counts —
//! run through the reference configuration (binary heap, no
//! macro-stepping) and every other combination. The runs must agree on
//! the full `KernelRun` (makespan, busy intervals, per-role finish,
//! DRAM bytes) and on the micro-event count; with macro-stepping off,
//! pop counts must equal event counts. Traced runs must additionally
//! emit identical event streams into a recording sink.
//!
//! A family of fused launches run through `Device::run_family` must
//! return, launch for launch, what independent simulations return, and
//! move the device's counters as the same launches run one by one would.
//! (The engine-level family property, over both queue kinds, lives next
//! to the crate-private family engine in `tacker-sim`.)

use proptest::prelude::*;
use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};

use tacker_fuser::{fuse_flexible, FusionConfig};
use tacker_kernel::ast::{Expr, Stmt};
use tacker_kernel::{Bindings, Dim3, KernelDef, KernelKind, KernelLaunch};
use tacker_sim::{
    simulate, simulate_with_options, Device, EngineOptions, ExecutablePlan, GpuSpec, KernelRun,
    QueueKind, SimError,
};
use tacker_trace::{NoopSink, RingSink};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Builds a random mixed plan from `seed`: 1–3 roles, each with 1–4
/// warps, 1–5 ops drawn from {TC compute, CD compute, shared access,
/// global access, barrier}, and its own PTB original-block count. Each
/// role's barrier (if any) expects exactly that role's warps, so the
/// plan always terminates.
fn random_plan(seed: u64) -> ExecutablePlan {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let n_roles = 1 + (xorshift(&mut s) % 3) as usize;
    let mut roles = Vec::new();
    let mut barrier_expect: Vec<(u16, u32)> = Vec::new();
    for ri in 0..n_roles {
        let warps = 1 + (xorshift(&mut s) % 4) as u32;
        let n_ops = 1 + (xorshift(&mut s) % 5) as usize;
        let mut ops = Vec::new();
        for _ in 0..n_ops {
            let op = match xorshift(&mut s) % 5 {
                0 => Op::Compute {
                    unit: ComputeUnit::Tensor,
                    ops: 256 + xorshift(&mut s) % 65_536,
                },
                1 => Op::Compute {
                    unit: ComputeUnit::Cuda,
                    ops: 64 + xorshift(&mut s) % 8_192,
                },
                2 => Op::Memory {
                    dir: MemDir::Read,
                    space: MemSpace::Shared,
                    bytes: 128 + xorshift(&mut s) % 4_096,
                    locality: 0.0,
                },
                3 => Op::Memory {
                    dir: MemDir::Read,
                    space: MemSpace::Global,
                    bytes: 256 + xorshift(&mut s) % 16_384,
                    locality: (xorshift(&mut s) % 5) as f64 * 0.25,
                },
                _ => {
                    let id = ri as u16 + 1;
                    barrier_expect.push((id, warps));
                    Op::Barrier { id }
                }
            };
            ops.push(op);
        }
        roles.push(WarpRole {
            name: format!("r{ri}").into(),
            warps,
            program: WarpProgram::new(ops),
            original_blocks: 1 + xorshift(&mut s) % 300,
        });
    }
    let mut block = BlockProgram::new(roles);
    for (id, expected) in barrier_expect {
        block.set_barrier_expectation(id, expected);
    }
    let threads = block.threads();
    ExecutablePlan::assemble(
        "identity",
        n_roles > 1,
        block,
        1 + xorshift(&mut s) % 200,
        ResourceUsage::new(32, 0),
        threads,
        None,
    )
}

fn all_options() -> [EngineOptions; 4] {
    [
        EngineOptions {
            queue: QueueKind::Heap,
            macro_step: false,
        },
        EngineOptions {
            queue: QueueKind::Heap,
            macro_step: true,
        },
        EngineOptions {
            queue: QueueKind::Calendar,
            macro_step: false,
        },
        EngineOptions {
            queue: QueueKind::Calendar,
            macro_step: true,
        },
    ]
}

/// Zeroes the configuration-dependent accounting (`pops`, `macro_runs`)
/// so behavioural equality can be asserted across configurations.
fn canon(mut run: KernelRun) -> KernelRun {
    run.pops = 0;
    run.macro_runs = 0;
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The full `KernelRun` is identical for every queue/macro
    /// combination, and the micro-event count is invariant.
    #[test]
    fn all_engine_configurations_agree(seed in 0u64..1_000_000) {
        let spec = GpuSpec::rtx2080ti();
        let plan = random_plan(seed);
        let reference = simulate_with_options(
            &spec,
            &plan,
            68,
            &NoopSink,
            EngineOptions { queue: QueueKind::Heap, macro_step: false },
        )
        .expect("reference run");
        prop_assert_eq!(reference.pops, reference.events);
        prop_assert_eq!(reference.macro_runs, 0);
        for opts in all_options() {
            let run = simulate_with_options(&spec, &plan, 68, &NoopSink, opts)
                .expect("variant run");
            prop_assert_eq!(run.events, reference.events, "{:?}", opts);
            if !opts.macro_step {
                prop_assert_eq!(run.pops, run.events, "{:?}", opts);
            }
            prop_assert_eq!(canon(run), canon(reference.clone()), "{:?}", opts);
        }
    }

    /// With a recording sink attached, every configuration emits the
    /// identical trace-event stream (macro-stepping auto-disables, so
    /// per-op events like barrier arrivals fire event-by-event).
    #[test]
    fn trace_streams_are_identical(seed in 0u64..1_000_000) {
        let spec = GpuSpec::rtx2080ti();
        let plan = random_plan(seed);
        let reference_sink = RingSink::unbounded();
        let reference = simulate_with_options(
            &spec,
            &plan,
            68,
            &reference_sink,
            EngineOptions { queue: QueueKind::Heap, macro_step: false },
        )
        .expect("reference run");
        let reference_events = reference_sink.events();
        prop_assert!(!reference_events.is_empty());
        for opts in all_options() {
            let sink = RingSink::unbounded();
            let run = simulate_with_options(&spec, &plan, 68, &sink, opts)
                .expect("variant run");
            // Tracing forces macro-stepping off: accounting matches the
            // reference exactly, not just canonically.
            prop_assert_eq!(run.macro_runs, 0, "{:?}", opts);
            prop_assert_eq!(run.clone(), reference.clone(), "{:?}", opts);
            prop_assert_eq!(sink.events(), reference_events.clone(), "{:?}", opts);
        }
    }
}

/// A random fused pair from `seed` and 2–7 launches of it that differ in
/// the CUDA grid (repeats, grids below `sm_count` and CUDA parts too small
/// to reach every SM-0 block included), or `None` when the random pair
/// does not fit the fusion ratio.
fn random_fused_family(spec: &GpuSpec, seed: u64) -> Option<Vec<KernelLaunch>> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let sync = |s: &mut u64| xorshift(s).is_multiple_of(2);
    let mut tc_body = vec![Stmt::global_load(
        "a",
        Expr::lit(16 + xorshift(&mut s) % 128),
        0.8,
    )];
    if sync(&mut s) {
        tc_body.push(Stmt::sync_threads());
    }
    tc_body.push(Stmt::compute_tc(
        Expr::lit(64 + xorshift(&mut s) % 512),
        "mma",
    ));
    if sync(&mut s) {
        tc_body.push(Stmt::sync_threads());
    }
    let tc = KernelDef::builder("tc", KernelKind::Tensor)
        .block_dim(Dim3::x(128))
        .resources(ResourceUsage::new(48, 1024 * (xorshift(&mut s) % 16)))
        .param("k_iters")
        .body(vec![Stmt::loop_over("k", Expr::param("k_iters"), tc_body)])
        .build()
        .expect("tc kernel");
    let mut cd_body = vec![
        Stmt::global_load("x", Expr::lit(8 + xorshift(&mut s) % 64), 0.5),
        Stmt::compute_cd(Expr::lit(16 + xorshift(&mut s) % 256), "butterfly"),
    ];
    if sync(&mut s) {
        cd_body.push(Stmt::sync_threads());
    }
    cd_body.push(Stmt::global_store(
        "y",
        Expr::lit(8 + xorshift(&mut s) % 64),
        0.0,
    ));
    let cd = KernelDef::builder("cd", KernelKind::Cuda)
        .block_dim(Dim3::x(if sync(&mut s) { 128 } else { 256 }))
        .resources(ResourceUsage::new(32, 1024 * (xorshift(&mut s) % 8)))
        .body(cd_body)
        .build()
        .expect("cd kernel");
    let config = FusionConfig {
        tc_blocks: 1 + (xorshift(&mut s) % 2) as u32,
        cd_blocks: 1 + (xorshift(&mut s) % 2) as u32,
    };
    let fused = fuse_flexible(&tc, &cd, config, &spec.sm).ok()?;
    let tc_grid = 1 + xorshift(&mut s) % 4_000;
    let mut tc_bindings = Bindings::new();
    tc_bindings.insert("k_iters".into(), 1 + xorshift(&mut s) % 8);
    let members = 2 + (xorshift(&mut s) % 6) as usize;
    let mut grids: Vec<u64> = Vec::new();
    for _ in 0..members {
        let grid = match (xorshift(&mut s) % 5, grids.last()) {
            (0, Some(&prev)) => prev,
            (1, _) => 1 + xorshift(&mut s) % 68,
            _ => 1 + xorshift(&mut s) % 8_000,
        };
        grids.push(grid);
    }
    Some(
        grids
            .into_iter()
            .map(|g| fused.launch(tc_grid, g, &tc_bindings, &Bindings::new()))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Device::run_family` returns each launch's own simulation and
    /// counts hits and misses as the launches run one by one would.
    #[test]
    fn device_families_match_independent_runs(seed in 0u64..1_000_000) {
        let spec = GpuSpec::rtx2080ti();
        let Some(launches) = random_fused_family(&spec, seed) else {
            return Ok(());
        };
        let family = Device::new(spec.clone());
        let one_by_one = Device::new(spec.clone());
        let runs = family.run_family(&launches);
        for (launch, got) in launches.iter().zip(runs) {
            let own = ExecutablePlan::from_launch(&spec, launch)
                .and_then(|plan| simulate(&spec, &plan));
            prop_assert_eq!(got.map(|run| KernelRun::clone(&run)), own);
            let _ = one_by_one.run_launch(launch);
        }
        prop_assert_eq!(family.cache_stats(), one_by_one.cache_stats());
        prop_assert_eq!(family.fused_cache_stats(), one_by_one.fused_cache_stats());
        // A second pass is all hits, shared with the first.
        for got in family.run_family(&launches) {
            prop_assert!(got.is_ok());
        }
        let (hits, misses) = family.cache_stats();
        prop_assert_eq!(misses, one_by_one.cache_stats().1);
        prop_assert_eq!(hits, one_by_one.cache_stats().0 + launches.len() as u64);
    }
}

/// Deadlocks are reported identically — same error, same pending
/// barrier ids — by every engine configuration.
#[test]
fn deadlock_identity_across_configurations() {
    let spec = GpuSpec::rtx2080ti();
    let mut block = BlockProgram::new(vec![
        WarpRole {
            name: "a".into(),
            warps: 2,
            program: WarpProgram::new(vec![
                Op::Compute {
                    unit: ComputeUnit::Cuda,
                    ops: 64,
                },
                Op::Barrier { id: 3 },
            ]),
            original_blocks: 68,
        },
        WarpRole {
            name: "b".into(),
            warps: 1,
            program: WarpProgram::new(vec![Op::Compute {
                unit: ComputeUnit::Cuda,
                ops: 64,
            }]),
            original_blocks: 68,
        },
    ]);
    // Barrier 3 expects the whole block, but role b never arrives.
    block.set_barrier_expectation(3, 3);
    let threads = block.threads();
    let plan = ExecutablePlan::assemble(
        "deadlock",
        true,
        block,
        68,
        ResourceUsage::new(32, 0),
        threads,
        None,
    );
    for opts in all_options() {
        let err = simulate_with_options(&spec, &plan, 68, &NoopSink, opts).unwrap_err();
        match err {
            SimError::Deadlock {
                ref pending_barriers,
                ..
            } => assert_eq!(pending_barriers, &vec![3], "{opts:?}"),
            other => panic!("expected deadlock, got {other:?} under {opts:?}"),
        }
    }
}
