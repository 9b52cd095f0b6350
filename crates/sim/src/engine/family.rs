//! Ratio families: plans that are equal but for their roles' work counts
//! (`original_blocks`), simulated as one forked run.
//!
//! The fusion library profiles a fused pair at several load ratios: the
//! same persistent fused kernel, issued as the same single wave, with
//! only the CUDA part's work count changed. On the representative SM the
//! runs then differ only in how many iterations each warp executes, and
//! a warp's remaining count is read by that warp alone, and only to test
//! it against zero. Two such runs are therefore identical, event for
//! event, until the first warp of the smaller one runs out of iterations.
//!
//! The family simulates its *dominant* member — the one whose every SM-0
//! warp has at least as many iterations as in any other member — and
//! forks each other member off at the last pop before that member could
//! diverge: the engine state (warp tables, servers with their intervals,
//! barrier board, queue and counters) is copied, each warp's count is
//! lowered by the member's deficit, and the member finishes from there on
//! the ordinary loop. Every member's result equals its own [`simulate`]
//! run, accounting included. DESIGN.md §3 (*Ratio families*) has the
//! argument.
//!
//! [`simulate`]: super::simulate

use super::*;

/// Simulates `plans` with default options, returning exactly what
/// [`super::simulate`] returns for each, in order. Plans that form a
/// family (same shape, one wave on SM 0, a dominant member) share the
/// simulation of their common prefix; every other plan runs alone.
pub(crate) fn simulate_family(
    spec: &GpuSpec,
    plans: &[&ExecutablePlan],
) -> Vec<Result<KernelRun, SimError>> {
    simulate_family_with(spec, plans, EngineOptions::default())
}

/// [`simulate_family`] under explicit engine options (untraced).
pub(super) fn simulate_family_with(
    spec: &GpuSpec,
    plans: &[&ExecutablePlan],
    options: EngineOptions,
) -> Vec<Result<KernelRun, SimError>> {
    let alone = |plan: &ExecutablePlan| {
        simulate_with_options(spec, plan, spec.sm_count, &tacker_trace::NoopSink, options)
    };
    let mut out: Vec<Option<Result<KernelRun, SimError>>> = vec![None; plans.len()];
    for i in 0..plans.len() {
        if out[i].is_some() {
            continue;
        }
        let class: Vec<usize> = (i..plans.len())
            .filter(|&j| out[j].is_none() && same_family(spec, plans[i], plans[j]))
            .collect();
        let dominant = class
            .iter()
            .copied()
            .find(|&d| class.iter().all(|&k| dominates(plans[d], plans[k])));
        let (Some(dominant), true) = (dominant, class.len() > 1) else {
            out[i] = Some(alone(plans[i]));
            continue;
        };
        let prog = plans[dominant].compiled_for(spec);
        let top = sm0_iters(spec, plans[dominant], &prog);
        let mut members = Vec::new();
        for &k in class.iter().filter(|&&k| k != dominant) {
            let iters = sm0_iters(spec, plans[k], &prog);
            // A warp with no work is never scheduled, so its block starts
            // out different: such a member has no common prefix.
            if iters.iter().zip(&top).any(|(&m, &d)| m == 0 && d > 0) {
                out[k] = Some(alone(plans[k]));
            } else {
                let deficit = top.iter().zip(&iters).map(|(d, m)| d - m).collect();
                members.push(Member {
                    plan: k,
                    deficit,
                    run: None,
                });
            }
        }
        if members.is_empty() {
            out[dominant] = Some(alone(plans[dominant]));
            continue;
        }
        let mut forks = Forks::new(plans, members, &prog);
        let run = with_scratch(|scratch| {
            run_with_scratch(
                scratch,
                spec,
                plans[dominant],
                spec.sm_count,
                &tacker_trace::NoopSink,
                options,
                Some(&mut forks),
            )
        });
        // A member that never forked never diverged: its run is this one.
        for (k, result) in forks.finish() {
            out[k] = Some(result.unwrap_or_else(|| run.clone()));
        }
        out[dominant] = Some(run);
    }
    out.into_iter()
        .map(|r| r.expect("every plan simulated"))
        .collect()
}

/// Whether `b` runs as `a` up to per-role work counts, and both issue a
/// single wave on SM 0 (every SM-0 block resident from the start).
fn same_family(spec: &GpuSpec, a: &ExecutablePlan, b: &ExecutablePlan) -> bool {
    let occupancy = a.occupancy(spec) as u64;
    occupancy > 0
        && a.issued_blocks.div_ceil(spec.sm_count as u64) <= occupancy
        && a.block.roles.iter().all(|r| r.warps > 0)
        && a.name == b.name
        && a.fused == b.fused
        && a.issued_blocks == b.issued_blocks
        && a.resources == b.resources
        && a.threads_per_block == b.threads_per_block
        && a.block.barriers == b.block.barriers
        && a.block.roles.len() == b.block.roles.len()
        && a.block
            .roles
            .iter()
            .zip(&b.block.roles)
            .all(|(x, y)| x.name == y.name && x.warps == y.warps && x.program == y.program)
}

/// Whether every role of `a` covers at least the work of `b`'s: then
/// every SM-0 warp of `a` has at least as many iterations.
fn dominates(a: &ExecutablePlan, b: &ExecutablePlan) -> bool {
    a.block
        .roles
        .iter()
        .zip(&b.block.roles)
        .all(|(x, y)| x.original_blocks >= y.original_blocks)
}

/// The iteration count of every SM-0 warp, in the engine's warp-id order
/// (blocks ascending, then roles, then warps); `0` for a warp the engine
/// completes at launch.
fn sm0_iters(spec: &GpuSpec, plan: &ExecutablePlan, prog: &CompiledProgram) -> Vec<u64> {
    let mut iters = Vec::new();
    for b in (0..plan.issued_blocks).step_by(spec.sm_count as usize) {
        for (role, &(pc0, pc1)) in plan.block.roles.iter().zip(&prog.role_span) {
            let n = if pc0 == pc1 {
                0
            } else {
                role_iters(role.original_blocks, plan.issued_blocks, b)
            };
            iters.extend(std::iter::repeat_n(n, role.warps as usize));
        }
    }
    iters
}

/// A non-dominant member of a family run.
struct Member {
    /// Index into the family's plans.
    plan: usize,
    /// Per SM-0 warp: the dominant member's iterations minus this one's.
    deficit: Vec<u64>,
    /// The member's run, once forked.
    run: Option<Result<KernelRun, SimError>>,
}

/// The non-dominant members of a family run and their results.
pub(super) struct Forks<'p> {
    plans: &'p [&'p ExecutablePlan],
    members: Vec<Member>,
    /// Per warp: the largest deficit among members not yet forked (`0`:
    /// no member can diverge on this warp).
    watch: Vec<u64>,
    /// Per role: its program length when barrier-free, `None` when it
    /// synchronizes.
    free_len: Vec<Option<u64>>,
    /// Debug builds: the popped warp, its count and its reach, checked
    /// against the dispatched event by [`Forks::after_dispatch`].
    probe: Option<(usize, u64, u64)>,
}

impl<'p> Forks<'p> {
    fn new(
        plans: &'p [&'p ExecutablePlan],
        members: Vec<Member>,
        prog: &CompiledProgram,
    ) -> Forks<'p> {
        let free_len = prog
            .role_span
            .iter()
            .map(|&(pc0, pc1)| {
                let ops = &prog.micro[pc0 as usize..pc1 as usize];
                let free = !ops.iter().any(|op| matches!(op, MicroOp::Barrier { .. }));
                free.then_some(u64::from(pc1 - pc0))
            })
            .collect();
        let mut forks = Forks {
            plans,
            members,
            watch: Vec::new(),
            free_len,
            probe: None,
        };
        forks.rewatch();
        forks
    }

    fn rewatch(&mut self) {
        let warps = self.members.first().map_or(0, |m| m.deficit.len());
        self.watch.clear();
        self.watch.resize(warps, 0);
        for m in self.members.iter().filter(|m| m.run.is_none()) {
            for (w, &d) in self.watch.iter_mut().zip(&m.deficit) {
                *w = (*w).max(d);
            }
        }
    }

    /// An upper bound on the iterations warp `w` can finish while
    /// handling one event popped at `now` with inline bound `hint`. The
    /// handler stops at a barrier, so a synchronizing role finishes at
    /// most one. A barrier-free role can macro-step many: every op takes
    /// at least one issue slot, and an op starts inline only below
    /// `hint`, so a full iteration fits only while `len × issue_cost`
    /// does (plus one partial iteration and one op that owes no issue
    /// slot — a pending DRAM stage — rounded up).
    fn reach(&self, eng: &WarpEngine<'_>, w: usize, now: f64, hint: f64) -> u64 {
        let role = eng.st.warp_meta[w].role as usize;
        match self.free_len[role] {
            Some(len) if eng.macro_on && hint > now => {
                let per_iter = len as f64 * eng.issue_cost;
                // Saturating: an empty calendar (`hint = ∞`) or a zero
                // issue cost leaves the whole run reachable.
                (((hint - now) / per_iter) as u64).saturating_add(3)
            }
            _ => 1,
        }
    }

    /// Called with the dominant run's next event popped, before it is
    /// dispatched: forks off every member whose count on the popped warp
    /// could reach zero while the event is handled. Until then its run
    /// and the dominant run are the same.
    pub(super) fn before_dispatch<Q: SimQueue + Clone>(
        &mut self,
        cal: &Calendar<&mut Q>,
        eng: &WarpEngine<'_>,
        time: f64,
        warp: u32,
        hint: f64,
    ) {
        let w = warp as usize;
        let watch = self.watch[w];
        let exec = eng.st.warp_exec[w];
        if cfg!(debug_assertions) && exec.pc != DONE_PC {
            self.probe = Some((w, exec.iters_left, self.reach(eng, w, time, hint)));
        }
        // A stale wake-up of a finished warp reads nothing.
        if watch == 0 || exec.pc == DONE_PC {
            return;
        }
        let reach = self.reach(eng, w, time, hint);
        if exec.iters_left > watch.saturating_add(reach) {
            return;
        }
        let plans = self.plans;
        for m in &mut self.members {
            if m.run.is_some()
                || m.deficit[w] == 0
                || exec.iters_left.saturating_sub(m.deficit[w]) > reach
            {
                continue;
            }
            let mut st = eng.st.clone();
            for (e, &d) in st.warp_exec.iter_mut().zip(&m.deficit) {
                debug_assert!(e.iters_left >= d, "member diverged before its fork");
                e.iters_left -= d;
            }
            let mut queue = (*cal.queue).clone();
            let mut member_cal = cal.resume_on(&mut queue);
            let mut member = eng.fork(plans[m.plan], &mut st);
            member.on_event(&mut member_cal, time, warp, hint);
            member.run(&mut member_cal);
            m.run = Some(member.into_run());
        }
        self.rewatch();
    }

    /// Debug builds: checks that the event just dispatched finished no
    /// more iterations of its warp than [`Forks::reach`] allowed, the
    /// bound every fork decision rests on. A synchronizing warp may also
    /// be released past its last op by its own arrival, which reads no
    /// count and so is allowed on top.
    pub(super) fn after_dispatch(&mut self, eng: &WarpEngine<'_>) {
        if let Some((w, before, reach)) = self.probe.take() {
            let role = eng.st.warp_meta[w].role as usize;
            let released = u64::from(self.free_len[role].is_none());
            let finished = before - eng.st.warp_exec[w].iters_left;
            debug_assert!(
                finished <= reach.saturating_add(released),
                "warp {w} finished {finished} iterations in one event, reach {reach}"
            );
        }
    }

    /// Each member's plan index and its run, `None` for a member that
    /// never forked.
    fn finish(self) -> impl Iterator<Item = (usize, Option<Result<KernelRun, SimError>>)> {
        self.members.into_iter().map(|m| (m.plan, m.run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
    use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn random_program(s: &mut u64, barrier: u16) -> Vec<Op> {
        let n_ops = 1 + (xorshift(s) % 5) as usize;
        (0..n_ops)
            .map(|_| match xorshift(s) % 5 {
                0 => Op::Compute {
                    unit: ComputeUnit::Tensor,
                    ops: 256 + xorshift(s) % 65_536,
                },
                1 => Op::Compute {
                    unit: ComputeUnit::Cuda,
                    ops: 64 + xorshift(s) % 8_192,
                },
                2 => Op::Memory {
                    dir: MemDir::Read,
                    space: MemSpace::Shared,
                    bytes: 128 + xorshift(s) % 4_096,
                    locality: 0.0,
                },
                3 => Op::Memory {
                    dir: MemDir::Read,
                    space: MemSpace::Global,
                    bytes: 256 + xorshift(s) % 16_384,
                    locality: (xorshift(s) % 5) as f64 * 0.25,
                },
                _ => Op::Barrier { id: barrier },
            })
            .collect()
    }

    /// A random two-role PTB family from `seed`: one shape (programs with
    /// partial barriers, warp counts, a single-wave issued grid, sometimes
    /// below `sm_count`), 2–7 members that differ in their roles' work
    /// counts — some equal, some with idle SM-0 warps — and, now and then,
    /// a barrier expectation no role can meet (every member deadlocks).
    fn random_family(spec: &GpuSpec, seed: u64) -> Vec<ExecutablePlan> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let tc_warps = 1 + (xorshift(&mut s) % 4) as u32;
        let cd_warps = 1 + (xorshift(&mut s) % 4) as u32;
        let tc_ops = random_program(&mut s, 1);
        let cd_ops = random_program(&mut s, 2);
        let deadlock = xorshift(&mut s).is_multiple_of(8);
        let threads = (tc_warps + cd_warps) * 32;
        let occupancy = spec.sm.blocks_per_sm(&ResourceUsage::new(32, 0), threads) as u64;
        let issued = 1 + xorshift(&mut s) % (occupancy * spec.sm_count as u64);
        let tc_blocks = 1 + xorshift(&mut s) % (3 * issued);
        let members = 2 + (xorshift(&mut s) % 6) as usize;
        let mut cd_blocks: Vec<u64> = Vec::new();
        for _ in 0..members {
            let grid = match (xorshift(&mut s) % 6, cd_blocks.last()) {
                (0, Some(&prev)) => prev,
                (1, _) => 1 + xorshift(&mut s) % issued,
                _ => 1 + xorshift(&mut s) % (16 * issued),
            };
            cd_blocks.push(grid);
        }
        cd_blocks
            .into_iter()
            .map(|cd| {
                let role = |name: &str, warps, ops: &[Op], original_blocks| WarpRole {
                    name: name.into(),
                    warps,
                    program: WarpProgram::new(ops.to_vec()),
                    original_blocks,
                };
                let mut block = BlockProgram::new(vec![
                    role("tc", tc_warps, &tc_ops, tc_blocks),
                    role("cd", cd_warps, &cd_ops, cd),
                ]);
                block.set_barrier_expectation(1, tc_warps);
                block.set_barrier_expectation(2, cd_warps + u32::from(deadlock));
                ExecutablePlan::assemble(
                    "family",
                    true,
                    block,
                    issued,
                    ResourceUsage::new(32, 0),
                    threads,
                    None,
                )
            })
            .collect()
    }

    fn all_options() -> impl Iterator<Item = EngineOptions> {
        [QueueKind::Heap, QueueKind::Calendar]
            .into_iter()
            .flat_map(|q| {
                [false, true].map(|m| EngineOptions::default().with_queue(q).with_macro_step(m))
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every member of a family run equals its own simulation —
        /// makespan, intervals, accounting, deadlock errors — under every
        /// queue kind and macro-stepping setting.
        #[test]
        fn family_members_equal_their_own_runs(seed in 0u64..1_000_000) {
            let spec = GpuSpec::rtx2080ti();
            let plans = random_family(&spec, seed);
            let refs: Vec<&ExecutablePlan> = plans.iter().collect();
            for options in all_options() {
                let family = simulate_family_with(&spec, &refs, options);
                for (plan, got) in plans.iter().zip(family) {
                    let own = simulate_with_options(
                        &spec, plan, spec.sm_count, &tacker_trace::NoopSink, options,
                    );
                    prop_assert_eq!(got, own, "{:?}", options);
                }
            }
        }
    }

    #[test]
    fn families_share_their_prefix_and_fork_late() {
        // Four load points of one barrier-free shape: the members fork off
        // the largest one, and each equals its own run.
        let spec = GpuSpec::rtx2080ti();
        let plans: Vec<ExecutablePlan> = [680u64, 1360, 2720, 5440]
            .iter()
            .map(|&cd| {
                let mut block = BlockProgram::new(vec![
                    WarpRole {
                        name: "tc".into(),
                        warps: 2,
                        program: WarpProgram::new(vec![Op::Compute {
                            unit: ComputeUnit::Tensor,
                            ops: 8_192,
                        }]),
                        original_blocks: 2720,
                    },
                    WarpRole {
                        name: "cd".into(),
                        warps: 2,
                        program: WarpProgram::new(vec![Op::Compute {
                            unit: ComputeUnit::Cuda,
                            ops: 1_024,
                        }]),
                        original_blocks: cd,
                    },
                ]);
                block.barriers.clear();
                ExecutablePlan::assemble(
                    "ratios",
                    true,
                    block,
                    136,
                    ResourceUsage::new(32, 0),
                    128,
                    None,
                )
            })
            .collect();
        let refs: Vec<&ExecutablePlan> = plans.iter().collect();
        let family = simulate_family(&spec, &refs);
        for (plan, got) in plans.iter().zip(family) {
            assert_eq!(got, simulate(&spec, plan));
        }
    }
}
