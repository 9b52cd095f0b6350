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
//!
//! Launches and plans of equal and near-equal SM-0 workloads, driven
//! through every `Device` entry point in random order, must each return
//! their own simulation, share a run exactly when their SM-0 workloads
//! are equal, and count as they would on a device that simulates every
//! fingerprint miss.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};

use tacker_fuser::{fuse_flexible, FusedKernel, FusionConfig};
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

/// A random fused pair drawn from `s`, with its Tensor grid and
/// bindings, or `None` when the pair does not fit the fusion ratio.
fn random_fusion(spec: &GpuSpec, s: &mut u64) -> Option<(FusedKernel, u64, Bindings)> {
    let sync = |s: &mut u64| xorshift(s).is_multiple_of(2);
    let mut tc_body = vec![Stmt::global_load(
        "a",
        Expr::lit(16 + xorshift(s) % 128),
        0.8,
    )];
    if sync(s) {
        tc_body.push(Stmt::sync_threads());
    }
    tc_body.push(Stmt::compute_tc(Expr::lit(64 + xorshift(s) % 512), "mma"));
    if sync(s) {
        tc_body.push(Stmt::sync_threads());
    }
    let tc = KernelDef::builder("tc", KernelKind::Tensor)
        .block_dim(Dim3::x(128))
        .resources(ResourceUsage::new(48, 1024 * (xorshift(s) % 16)))
        .param("k_iters")
        .body(vec![Stmt::loop_over("k", Expr::param("k_iters"), tc_body)])
        .build()
        .expect("tc kernel");
    let mut cd_body = vec![
        Stmt::global_load("x", Expr::lit(8 + xorshift(s) % 64), 0.5),
        Stmt::compute_cd(Expr::lit(16 + xorshift(s) % 256), "butterfly"),
    ];
    if sync(s) {
        cd_body.push(Stmt::sync_threads());
    }
    cd_body.push(Stmt::global_store(
        "y",
        Expr::lit(8 + xorshift(s) % 64),
        0.0,
    ));
    let cd = KernelDef::builder("cd", KernelKind::Cuda)
        .block_dim(Dim3::x(if sync(s) { 128 } else { 256 }))
        .resources(ResourceUsage::new(32, 1024 * (xorshift(s) % 8)))
        .body(cd_body)
        .build()
        .expect("cd kernel");
    let config = FusionConfig {
        tc_blocks: 1 + (xorshift(s) % 2) as u32,
        cd_blocks: 1 + (xorshift(s) % 2) as u32,
    };
    let fused = fuse_flexible(&tc, &cd, config, &spec.sm).ok()?;
    let tc_grid = 1 + xorshift(s) % 4_000;
    let mut tc_bindings = Bindings::new();
    tc_bindings.insert("k_iters".into(), 1 + xorshift(s) % 8);
    Some((fused, tc_grid, tc_bindings))
}

/// A random fused pair from `seed` and 2–7 launches of it that differ in
/// the CUDA grid (repeats, grids below `sm_count` and CUDA parts too small
/// to reach every SM-0 block included), or `None` when the random pair
/// does not fit the fusion ratio.
fn random_fused_family(spec: &GpuSpec, seed: u64) -> Option<Vec<KernelLaunch>> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let (fused, tc_grid, tc_bindings) = random_fusion(spec, &mut s)?;
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

/// One lookup the SM-0 memo test drives through a shared device.
#[derive(Debug, Clone)]
enum Lookup {
    Launch(KernelLaunch),
    Plan(ExecutablePlan),
    Family(Vec<KernelLaunch>),
}

/// Iterations of a role over `original` blocks run by issued block `b`
/// of `issued`: the positions `p < original` with `p % issued == b`.
fn block_iters(original: u64, issued: u64, b: u64) -> u64 {
    (0..original)
        .skip(b as usize)
        .step_by(issued as usize)
        .count() as u64
}

/// A plan's SM-0 workload, spelled out independently of the device: the
/// names, each role's warps and program, the barrier table, the
/// occupancy inputs and every SM-0 block's per-role iteration count.
fn sm0_workload(spec: &GpuSpec, plan: &ExecutablePlan) -> String {
    let roles: Vec<_> = plan
        .block
        .roles
        .iter()
        .map(|r| (&r.name, r.warps, &r.program.ops))
        .collect();
    let iters: Vec<Vec<u64>> = (0..plan.issued_blocks)
        .step_by(spec.sm_count as usize)
        .map(|b| {
            plan.block
                .roles
                .iter()
                .map(|r| block_iters(r.original_blocks, plan.issued_blocks, b))
                .collect()
        })
        .collect();
    format!(
        "{:?}",
        (
            &plan.name,
            roles,
            &plan.block.barriers,
            plan.resources,
            plan.threads_per_block,
            iters
        )
    )
}

/// `plan` with its block, resources or name replaced, and no fingerprint.
fn variant(
    plan: &ExecutablePlan,
    name: &str,
    block: BlockProgram,
    resources: ResourceUsage,
) -> ExecutablePlan {
    ExecutablePlan::assemble(
        name,
        plan.fused,
        block,
        plan.issued_blocks,
        resources,
        plan.threads_per_block,
        None,
    )
}

/// The lookups of one SM-0 memo case from `seed`, in random order:
///
/// * plain launches, two of them in one `⌈grid/68⌉` bucket and one in
///   the next;
/// * PTB fused launches at a base CUDA grid, at the nearest larger grid
///   with the same SM-0 iterations and at the nearest with one SM-0
///   count off by one, also as one family with a repeat;
/// * the base plan with and without its fingerprint, and near misses of
///   it: renamed, a role renamed, another occupancy, and two barrier
///   tables over one program, one of which deadlocks;
/// * a few lookups repeated.
///
/// `None` when the random pair does not fit the fusion ratio.
fn memo_case(spec: &GpuSpec, seed: u64) -> Option<Vec<Lookup>> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let (fused, tc_grid, tc_bindings) = random_fusion(spec, &mut s)?;
    let mut lookups = Vec::new();

    let plain = KernelDef::builder("plain", KernelKind::Cuda)
        .block_dim(Dim3::x(128))
        .resources(ResourceUsage::new(32, 1024 * (xorshift(&mut s) % 8)))
        .body(vec![
            Stmt::global_load("x", Expr::lit(8 + xorshift(&mut s) % 64), 0.5),
            Stmt::compute_cd(Expr::lit(16 + xorshift(&mut s) % 256), "axpy"),
        ])
        .build()
        .expect("plain kernel");
    let plain = Arc::new(plain);
    let sms = u64::from(spec.sm_count);
    let bucket = xorshift(&mut s) % 4;
    for k in [bucket, bucket, bucket + 1] {
        let grid = sms * k + 1 + xorshift(&mut s) % sms;
        lookups.push(Lookup::Launch(KernelLaunch::new(
            Arc::clone(&plain),
            grid,
            Bindings::new(),
        )));
    }

    let launch = |cd_grid| fused.launch(tc_grid, cd_grid, &tc_bindings, &Bindings::new());
    let workload = |l: &KernelLaunch| {
        ExecutablePlan::from_launch(spec, l)
            .ok()
            .map(|p| sm0_workload(spec, &p))
    };
    let base_grid = 1 + xorshift(&mut s) % 6_000;
    let base = launch(base_grid);
    let base_workload = workload(&base);
    let mut fused_launches = vec![base.clone()];
    let mut twin = None;
    let mut near = None;
    for grid in base_grid + 1..base_grid + 1_024 {
        let l = launch(grid);
        if workload(&l) == base_workload {
            twin = twin.or(Some(l));
        } else {
            near = Some(l);
            break;
        }
    }
    fused_launches.extend(twin.into_iter().chain(near));
    for l in &fused_launches {
        lookups.push(Lookup::Launch(l.clone()));
    }
    let mut family = fused_launches.clone();
    family.push(base.clone());
    let rotate = (xorshift(&mut s) % family.len() as u64) as usize;
    family.rotate_left(rotate);
    lookups.push(Lookup::Family(family));

    if let Ok(plan) = ExecutablePlan::from_launch(spec, &base) {
        let mut unkeyed = plan.clone();
        unkeyed.fingerprint = None;
        lookups.push(Lookup::Plan(plan.clone()));
        lookups.push(Lookup::Plan(unkeyed));
        lookups.push(Lookup::Plan(variant(
            &plan,
            "renamed",
            plan.block.clone(),
            plan.resources,
        )));
        let mut block = plan.block.clone();
        block.roles[0].name = "renamed-role".into();
        lookups.push(Lookup::Plan(variant(
            &plan,
            &plan.name,
            block,
            plan.resources,
        )));
        let occupancy = plan.occupancy(spec);
        let other = (1..64u64)
            .map(|k| ResourceUsage {
                shared_mem_bytes: plan.resources.shared_mem_bytes + 1024 * k,
                ..plan.resources
            })
            .find(|r| {
                let o = spec.sm.blocks_per_sm(r, plan.threads_per_block);
                o != occupancy && o > 0
            });
        if let Some(resources) = other {
            lookups.push(Lookup::Plan(variant(
                &plan,
                &plan.name,
                plan.block.clone(),
                resources,
            )));
        }
        // One program, two barrier tables: barrier 9 expects role 0's
        // warps, or one more, which never arrives.
        let mut block = plan.block.clone();
        block.roles[0].program.ops.push(Op::Barrier { id: 9 });
        let warps = block.roles[0].warps;
        for expected in [warps, warps + 1] {
            let mut block = block.clone();
            block.set_barrier_expectation(9, expected);
            lookups.push(Lookup::Plan(variant(
                &plan,
                &plan.name,
                block,
                plan.resources,
            )));
        }
    }

    for i in (1..lookups.len()).rev() {
        let j = (xorshift(&mut s) % (i as u64 + 1)) as usize;
        lookups.swap(i, j);
    }
    for _ in 0..3 {
        let i = (xorshift(&mut s) % lookups.len() as u64) as usize;
        lookups.push(lookups[i].clone());
    }
    Some(lookups)
}

/// What one launch or plan lookup returned, with what it must equal.
struct Served {
    workload: Option<String>,
    fingerprint: Option<u64>,
    fused: bool,
    got: Result<Arc<KernelRun>, SimError>,
    own: Result<KernelRun, SimError>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The device's SM-0 memo is exact: every lookup, in any order and
    /// through any entry point, returns its own plan's simulation; runs
    /// are shared exactly between plans of one SM-0 workload; failures
    /// are never served from the memo; and the counters read as if every
    /// fingerprint miss had been simulated.
    #[test]
    fn sm0_memo_serves_exactly_its_own_workload(seed in 0u64..1_000_000) {
        let spec = GpuSpec::rtx2080ti();
        let Some(lookups) = memo_case(&spec, seed) else {
            return Ok(());
        };
        let device = Device::new(spec.clone());
        let launch_served = |l: &KernelLaunch, got| {
            let plan = ExecutablePlan::from_launch(&spec, l);
            Served {
                workload: plan.as_ref().ok().map(|p| sm0_workload(&spec, p)),
                fingerprint: Some(l.fingerprint()),
                fused: l.def.kind() == KernelKind::Fused,
                got,
                own: plan.and_then(|p| simulate(&spec, &p)),
            }
        };
        let mut served: Vec<Served> = Vec::new();
        for lookup in &lookups {
            match lookup {
                Lookup::Launch(l) => served.push(launch_served(l, device.run_launch(l))),
                Lookup::Family(ls) => {
                    for (l, got) in ls.iter().zip(device.run_family(ls)) {
                        served.push(launch_served(l, got));
                    }
                }
                Lookup::Plan(p) => served.push(Served {
                    workload: Some(sm0_workload(&spec, p)),
                    fingerprint: p.fingerprint,
                    fused: p.fused,
                    got: device.run_plan(p),
                    own: simulate(&spec, p),
                }),
            }
        }
        // The counts without a memo: a fingerprint's first successful
        // lookup misses and its later ones hit; a plan without a
        // fingerprint misses every time; failures count nothing.
        let mut seen = HashSet::new();
        let (mut plain, mut fused) = ((0u64, 0u64), (0u64, 0u64));
        for (i, x) in served.iter().enumerate() {
            let got = x.got.clone().map(|run| KernelRun::clone(&run));
            prop_assert_eq!(&got, &x.own, "lookup {}", i);
            let Ok(run) = &x.got else { continue };
            let hit = x.fingerprint.is_some_and(|fp| !seen.insert(fp));
            let count = |c: &mut (u64, u64)| if hit { c.0 += 1 } else { c.1 += 1 };
            count(&mut plain);
            if x.fused {
                count(&mut fused);
            }
            for (j, y) in served[..i].iter().enumerate() {
                if let Ok(other) = &y.got {
                    prop_assert_eq!(
                        Arc::ptr_eq(run, other),
                        x.workload == y.workload,
                        "lookups {} and {}", j, i
                    );
                }
            }
        }
        prop_assert_eq!(device.cache_stats(), plain);
        prop_assert_eq!(device.fused_cache_stats(), fused);
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
