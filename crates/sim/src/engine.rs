//! The discrete-event SM engine.
//!
//! The engine simulates one *representative* SM — the busiest one — and
//! derives whole-device behaviour from it. This is accurate for the
//! launches Tacker deals in: grids are distributed round-robin over
//! identical SMs, and PTB kernels issue exactly one persistent wave, so
//! every SM sees (within one block) the same load.
//!
//! Each warp of each resident block is an actor executing its role's
//! [`Op`] sequence. Ops queue on FCFS servers:
//!
//! * the **Tensor pipeline** and the **CUDA pipeline** — the two independent
//!   compute units whose parallel use is the paper's whole point;
//! * the **issue slots** — shared instruction-issue bandwidth that makes
//!   co-resident heterogeneous warps a few percent slower than perfect
//!   overlap;
//! * the **L1/shared/DRAM servers** — bandwidth-limited memory stages, with
//!   the DRAM server fed by this SM's *share* of device bandwidth, so that
//!   memory-intensive kernels contend.
//!
//! Named barriers implement partial-arrival semantics: a barrier releases
//! when its expected warp count (from the lowering pass) arrives. A fused
//! kernel that kept a block-wide `__syncthreads()` therefore deadlocks, and
//! the engine reports it as [`SimError::Deadlock`].
//!
//! # Component structure
//!
//! The engine is three components over one event [`Calendar`]:
//!
//! * [`WarpEngine`] — the warp scheduler, the one *hot* component. Its
//!   event handler is generic over the queue, so event dispatch is
//!   monomorphized (zero virtual calls per event), and it is the
//!   component that macro-steps (below).
//! * [`ServerBank`] — the six pipeline servers, each an [`FcfsServer`].
//! * [`BarrierBoard`] — named-barrier arrival/release state, with a
//!   persistent waiter-vector pool so releases never allocate.
//!
//! Warp wake-ups drain from the calendar in `(time, seq)` order — see
//! [`crate::queue`]. Two interchangeable queues are provided
//! ([`QueueKind`]): the reference binary heap and a calendar/bucket queue
//! whose buckets are sized from the spec's issue cost. Both drain the
//! same total order, so results are bit-identical between them.
//!
//! Warp state is stored struct-of-arrays: the per-event execution fields
//! (`pc`/`iters`), the DRAM-stage bytes, the rarely-touched metadata and
//! the finish times live in parallel `Vec`s indexed by the dense warp id
//! — the same id the calendar uses as the event payload. The event
//! handler keeps a register-resident copy of the active warp's execution
//! state and writes it back only at run boundaries. All of that storage,
//! plus the queues themselves, lives in a per-thread scratch arena
//! reused across simulations, so a run allocates only its result; the
//! per-spec micro-op tables come pre-compiled from the plan's cache
//! ([`crate::compile`]).
//!
//! On top of the calendar sits **warp macro-stepping**: after processing
//! a warp's event, if the warp's *next* wake-up time is strictly below
//! the earliest other pending event
//! (the bound [`Calendar::pop`] returns), that wake-up is executed
//! inline instead of being pushed and re-popped — it would have been the
//! very next event anyway, so the collapse is exact, not approximate.
//! Runs end at barriers (which mutate cross-warp state and re-enter
//! through the calendar, per the lowering's run-length metadata), and
//! macro-stepping auto-disables when a trace sink is attached so per-op
//! event streams are identical to the pure event-by-event engine.
//! [`KernelRun::events`] counts *micro*-events (inline continuations
//! included) and is invariant across queue kinds and macro-stepping;
//! [`KernelRun::pops`] counts actual calendar transactions and shrinks
//! as runs coalesce.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::{DefaultHasher, Hash, Hasher};

use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
use tacker_kernel::{Cycles, Name, Op};
use tacker_trace::{Pipeline, ServerKind, TraceEvent, TraceSink};

use crate::compile::{CompiledProgram, MicroOp};
use crate::error::SimError;
use crate::plan::ExecutablePlan;
use crate::queue::{CalendarQueue, HeapQueue, SimQueue};
use crate::result::{merge_intervals, ActivitySummary, Interval, KernelRun};
use crate::spec::GpuSpec;

mod family;

pub(crate) use family::simulate_family;

/// Cycles charged for a barrier release.
const BARRIER_COST: f64 = 4.0;

/// Calendar bucket width as a multiple of the spec's per-op issue cost.
/// Wide buckets win twice on this engine's workloads: the whole active
/// window (bounded by warp slots, since each warp has at most one
/// pending event) usually fits in one or two buckets, so nearly every
/// pop is a drain-ring cursor bump instead of a bucket hop, and a full
/// drain ring yields *exact* `pop_with_hint` bounds, which is what lets
/// the macro-stepper coalesce. Measured on the workload kernels
/// (Resnet50/VGG16 query streams and the SPEC-style BE tasks), widths
/// of 256–1024 issue quanta are ~25–40% faster end to end than the
/// narrow widths that aim for one event per bucket; throughput
/// plateaus across that whole range, so the midpoint is pinned here.
const BUCKET_WIDTH_ISSUE_COSTS: f64 = 512.0;

/// Which event-queue implementation the engine drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The reference `BinaryHeap` min-queue.
    Heap,
    /// The calendar/bucket queue (default; same drain order, O(1) pushes).
    #[default]
    Calendar,
}

/// Engine tuning knobs. Results are identical for every combination; the
/// options trade only wall-clock speed (and [`KernelRun::pops`]
/// accounting) — which is what makes the A/B comparison in
/// the `gates engine` benchmark meaningful.
///
/// Follows the workspace options idiom: `Default` plus chained `with_*`
/// setters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Event-queue implementation.
    pub queue: QueueKind,
    /// Whether warp macro-stepping may coalesce event runs. Forced off
    /// while a trace sink is attached, so traced runs always emit the
    /// full per-event stream.
    pub macro_step: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            queue: QueueKind::Calendar,
            macro_step: true,
        }
    }
}

impl EngineOptions {
    /// Selects the event-queue implementation.
    #[must_use]
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Enables or disables warp macro-stepping.
    #[must_use]
    pub fn with_macro_step(mut self, macro_step: bool) -> Self {
        self.macro_step = macro_step;
        self
    }
}

/// Sentinel `pc` marking a completed warp, so the event handler's
/// staleness guard reads the exec record it already loaded instead of a
/// separate flag array. Real pcs index the compiled micro table, which
/// is always far smaller.
const DONE_PC: u32 = u32::MAX;

/// The per-event execution state of one warp: everything the handler
/// touches on every step, packed in one record so a pop costs a single
/// indexed load (the handler works on a local copy, see
/// [`WarpEngine::on_event`]).
#[derive(Debug, Clone, Copy, Default)]
struct WarpExec {
    /// Current position in the compiled flat micro-op table, or
    /// [`DONE_PC`] once the warp has completed.
    pc: u32,
    /// This warp's role start offset in the flat table.
    pc_start: u32,
    /// One past this warp's role's last op in the flat table.
    pc_end: u32,
    iters_left: u64,
    /// Pending DRAM-stage miss bytes; `> 0.0` means the warp finished
    /// the L1 stage of a global access and owes the DRAM stage.
    dram: f64,
}

/// The rarely-touched warp metadata, kept out of the per-event cache
/// lines.
#[derive(Debug, Clone, Copy, Default)]
struct WarpMeta {
    block: u32,
    role: u16,
}

/// The engine's event calendar: a queue (in practice a `&mut` borrow of
/// one in the scratch arena) plus the monotone sequence that breaks time
/// ties. Every event is one warp wake-up whose payload is the dense warp
/// id.
///
/// Events drain in ascending `(time, seq)` order — equal times fire in
/// the order they were scheduled — and both queue kinds drain that same
/// total order, so a run is a pure function of its `schedule` calls,
/// never of the queue choice.
#[derive(Debug)]
struct Calendar<Q> {
    queue: Q,
    seq: u64,
}

impl<Q: SimQueue> Calendar<Q> {
    /// A calendar over `queue` with no event scheduled yet.
    fn new(queue: Q) -> Self {
        Calendar { queue, seq: 0 }
    }

    /// Schedules warp `w` to wake at absolute time `time`.
    #[inline]
    fn schedule(&mut self, time: f64, w: u32) {
        self.seq += 1;
        self.queue.push(time, self.seq, w);
    }

    /// Pops the earliest wake-up as `(time, warp, inline_bound)`. The
    /// bound is a conservative lower bound on the earliest *other*
    /// pending event's time: the exact minimum when the queue knows it
    /// cheaply, `+∞` when the calendar went empty, `-∞` when an exact
    /// answer would cost a scan. The handler may process any wake-up
    /// strictly below it *inline* — it would have been the very next
    /// event popped anyway — which is what macro-stepping does. The
    /// bound stays valid only while nothing is scheduled, so coalesce
    /// first, push last.
    #[inline]
    fn pop(&mut self) -> Option<(f64, u32, f64)> {
        self.queue.pop_with_hint()
    }

    /// A calendar with this one's sequence counter over `queue`, which
    /// must hold a copy of this calendar's pending events: the two then
    /// continue identically from here.
    fn resume_on<R: SimQueue>(&self, queue: R) -> Calendar<R> {
        Calendar {
            queue,
            seq: self.seq,
        }
    }
}

/// A FCFS serial server with a service rate: requests occupy it
/// back-to-back, each completing `service` time units after the later of
/// its arrival and the server becoming free.
#[derive(Debug, Clone)]
struct FcfsServer {
    next_free: f64,
    busy: f64,
    intervals: Vec<Interval>,
    record: bool,
    /// Queue/wait accounting, maintained only when tracing is enabled
    /// (`track_stats`): op count, total cycles spent waiting for the
    /// server, in-flight completion times, and peak simultaneous depth.
    track_stats: bool,
    acquires: u64,
    wait: f64,
    inflight: VecDeque<f64>,
    max_depth: u32,
}

impl FcfsServer {
    /// A fresh idle server. `record` retains busy intervals (for
    /// activity summaries); `track_stats` maintains queue/wait
    /// statistics (for trace sinks).
    fn new(record: bool, track_stats: bool) -> FcfsServer {
        FcfsServer {
            next_free: 0.0,
            busy: 0.0,
            intervals: Vec::new(),
            record,
            track_stats,
            acquires: 0,
            wait: 0.0,
            inflight: VecDeque::new(),
            max_depth: 0,
        }
    }

    /// Occupies the server for `service` cycles starting no earlier than
    /// `now`; returns the completion time. `inline(always)`: the plain
    /// `#[inline]` hint loses to the engine run loop's size and leaves
    /// seven out-of-line calls in the hot path (measured via
    /// disassembly), where inlining also folds the constant
    /// `record`/`track_stats` flags per call site.
    #[inline(always)]
    fn acquire(&mut self, now: f64, service: f64) -> f64 {
        let start = now.max(self.next_free);
        let end = start + service;
        self.next_free = end;
        self.busy += service;
        if self.record && service > 0.0 {
            match self.intervals.last_mut() {
                Some(last) if start <= last.end + 1e-9 => last.end = end,
                _ => self.intervals.push(Interval { start, end }),
            }
        }
        if self.track_stats {
            self.acquires += 1;
            self.wait += start - now;
            while self.inflight.front().is_some_and(|&e| e <= now) {
                self.inflight.pop_front();
            }
            self.inflight.push_back(end);
            self.max_depth = self.max_depth.max(self.inflight.len() as u32);
        }
        end
    }

    /// Total busy time accumulated so far.
    fn busy(&self) -> f64 {
        self.busy
    }

    /// Takes the recorded busy intervals (empty unless `record`).
    fn take_intervals(&mut self) -> Vec<Interval> {
        std::mem::take(&mut self.intervals)
    }

    /// The server's queue/wait statistics as a trace event.
    fn stats_event(&self, kernel: &Name, kind: ServerKind) -> TraceEvent {
        TraceEvent::ServerStats {
            kernel: kernel.clone(),
            server: kind,
            acquires: self.acquires,
            busy_cycles: self.busy,
            wait_cycles: self.wait,
            max_queue_depth: self.max_depth,
        }
    }
}

/// The six FCFS pipeline servers of one SM.
#[derive(Debug, Clone)]
struct ServerBank {
    tc: FcfsServer,
    cd: FcfsServer,
    issue: FcfsServer,
    l1: FcfsServer,
    shared: FcfsServer,
    dram: FcfsServer,
}

impl ServerBank {
    /// Fresh idle servers; only the two compute pipelines record busy
    /// intervals (for activity summaries), and all six track queue/wait
    /// statistics when tracing.
    fn new(tracing: bool) -> ServerBank {
        ServerBank {
            tc: FcfsServer::new(true, tracing),
            cd: FcfsServer::new(true, tracing),
            issue: FcfsServer::new(false, tracing),
            l1: FcfsServer::new(false, tracing),
            shared: FcfsServer::new(false, tracing),
            dram: FcfsServer::new(false, tracing),
        }
    }
}

/// Named-barrier arrival/release state: arrived counts and parked warp
/// ids, flat-indexed `block × barrier_bound + id`. The waiter-vector
/// pool persists across runs (entries are cleared lazily at block
/// launch) so neither parking nor releasing allocates.
#[derive(Debug, Default)]
struct BarrierBoard {
    arrived: Vec<u32>,
    waiters: Vec<Vec<u32>>,
    /// Active prefix length of `waiters` (blocks × bound).
    len: usize,
    /// Scratch buffer reused across releases so each release does not
    /// allocate (and drop) a fresh waiter list.
    release_scratch: Vec<u32>,
}

/// A copy of the live board: the active waiter slots only, not the
/// pool's cleared tail or the release scratch.
impl Clone for BarrierBoard {
    fn clone(&self) -> Self {
        BarrierBoard {
            arrived: self.arrived.clone(),
            waiters: self.waiters[..self.len].to_vec(),
            len: self.len,
            release_scratch: Vec::new(),
        }
    }
}

impl BarrierBoard {
    fn reset(&mut self) {
        self.arrived.clear();
        self.len = 0;
    }

    /// Claims (and lazily clears) `bound` waiter slots for a newly
    /// launched block from the persistent pool.
    fn claim_block(&mut self, bound: usize) {
        self.arrived.resize(self.arrived.len() + bound, 0);
        for _ in 0..bound {
            if self.len < self.waiters.len() {
                self.waiters[self.len].clear();
            } else {
                self.waiters.push(Vec::new());
            }
            self.len += 1;
        }
    }

    /// Records warp `w` arriving at `slot`. Returns the arrival count
    /// and, when `expected` is met, the full released waiter set
    /// (including `w`) in a recycled buffer — return it via
    /// [`BarrierBoard::recycle`].
    fn arrive(&mut self, slot: usize, w: u32, expected: u32) -> (u32, Option<Vec<u32>>) {
        self.arrived[slot] += 1;
        let arrived_now = self.arrived[slot];
        if arrived_now >= expected {
            self.arrived[slot] = 0;
            // Drain waiters into a reused scratch buffer and keep the
            // (now empty) Vec in the pool, so neither release nor the
            // next parking round allocates.
            let mut waiters = std::mem::take(&mut self.release_scratch);
            waiters.clear();
            waiters.append(&mut self.waiters[slot]);
            waiters.push(w);
            (arrived_now, Some(waiters))
        } else {
            self.waiters[slot].push(w);
            (arrived_now, None)
        }
    }

    /// Returns a release buffer to the scratch slot.
    fn recycle(&mut self, waiters: Vec<u32>) {
        self.release_scratch = waiters;
    }

    /// Barrier ids (mod `bound`) that still hold parked warps — the
    /// deadlock witnesses. Released barriers leave an empty slot; only
    /// barriers with parked warps count as stuck.
    fn stuck(&self, bound: usize) -> Vec<u16> {
        let mut pending: Vec<u16> = self.waiters[..self.len]
            .iter()
            .enumerate()
            .filter(|(_, ws)| !ws.is_empty())
            .map(|(slot, _)| (slot % bound) as u16)
            .collect();
        pending.sort_unstable();
        pending.dedup();
        pending
    }
}

/// Per-thread reusable engine storage: warp/block tables in
/// struct-of-arrays form plus the barrier board. Reused across
/// simulations so a run's setup clears vectors instead of allocating
/// them; see [`EngineScratch`].
#[derive(Debug, Default, Clone)]
struct EngineState {
    /// Per warp, indexed by the dense warp id (= calendar event payload).
    warp_exec: Vec<WarpExec>,
    warp_meta: Vec<WarpMeta>,
    warp_finish: Vec<f64>,
    /// Per launched block: global issued-block index and live warps.
    block_index: Vec<u64>,
    block_live: Vec<u32>,
    /// The named-barrier component's state.
    barriers: BarrierBoard,
    /// Remaining assigned issued-block indices not yet launched.
    pending: Vec<u64>,
    role_finish: Vec<f64>,
}

impl EngineState {
    fn reset(&mut self, n_roles: usize) {
        self.warp_exec.clear();
        self.warp_meta.clear();
        self.warp_finish.clear();
        self.block_index.clear();
        self.block_live.clear();
        self.barriers.reset();
        self.pending.clear();
        self.role_finish.clear();
        self.role_finish.resize(n_roles, 0.0);
    }
}

/// One thread's engine arena: the reusable state plus one instance of
/// each queue kind, so switching queue implementations between runs
/// never reallocates the calendar's bucket ring.
#[derive(Debug)]
struct EngineScratch {
    state: EngineState,
    heap: HeapQueue,
    calendar: CalendarQueue,
}

impl Default for EngineScratch {
    fn default() -> Self {
        EngineScratch {
            state: EngineState::default(),
            heap: HeapQueue::new(),
            calendar: CalendarQueue::new(1.0),
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch::default());
}

/// Iterations of a role's program executed by issued block `b`:
/// the number of original block positions `p < original` with
/// `p % issued == b`.
fn role_iters(original: u64, issued: u64, b: u64) -> u64 {
    if b >= issued || b >= original {
        return 0;
    }
    (original - b - 1) / issued + 1
}

/// The SM-0 workload of `plan` on `spec` as a 128-bit digest: everything
/// an untraced run reads from the plan except the launch's grid. That is
/// the plan and role names (the run carries them), each role's warp count
/// and op program, the barrier table, the occupancy inputs (resources and
/// threads per block) and, for every SM-0 block in launch order, each
/// role's iteration count. The engine places the SM-0 blocks only, and it
/// reads the issued grid and the roles' work counts through [`role_iters`]
/// alone, so two plans with one workload simulate to the same run on the
/// same spec, or fail with the same error (DESIGN.md §8, *Kernel identity
/// & caching*).
pub(crate) fn workload_key(spec: &GpuSpec, plan: &ExecutablePlan) -> u128 {
    let mut h = Digest128::default();
    h.str(&plan.name);
    h.word(plan.block.roles.len() as u64);
    for role in &plan.block.roles {
        h.str(&role.name);
        h.word(u64::from(role.warps));
        h.word(role.program.ops.len() as u64);
        for op in &role.program.ops {
            match *op {
                Op::Compute { unit, ops } => {
                    h.word(match unit {
                        ComputeUnit::Tensor => 0,
                        ComputeUnit::Cuda => 1,
                    });
                    h.word(ops);
                }
                Op::Memory {
                    dir,
                    space,
                    bytes,
                    locality,
                } => {
                    h.word(
                        2 + u64::from(dir == MemDir::Write)
                            + 2 * u64::from(space == MemSpace::Shared),
                    );
                    h.word(bytes);
                    h.word(locality.to_bits());
                }
                Op::Barrier { id } => {
                    h.word(6);
                    h.word(u64::from(id));
                }
            }
        }
    }
    h.word(plan.block.barriers.len() as u64);
    for barrier in &plan.block.barriers {
        h.word(u64::from(barrier.id));
        h.word(u64::from(barrier.expected_warps));
    }
    let r = &plan.resources;
    h.word(u64::from(r.registers_per_thread));
    h.word(r.shared_mem_bytes);
    h.word(u64::from(r.barriers));
    h.word(u64::from(plan.threads_per_block));
    for b in (0..plan.issued_blocks).step_by(spec.sm_count as usize) {
        for role in &plan.block.roles {
            h.word(role_iters(role.original_blocks, plan.issued_blocks, b));
        }
    }
    h.finish()
}

/// Two domain-separated SipHash lanes read as one 128-bit digest.
/// `DefaultHasher::new` is fixed within a process, which is all an
/// in-memory memo key needs.
struct Digest128([DefaultHasher; 2]);

impl Default for Digest128 {
    fn default() -> Self {
        Digest128([0u8, 1].map(|lane| {
            let mut h = DefaultHasher::new();
            h.write_u8(lane);
            h
        }))
    }
}

impl Digest128 {
    fn word(&mut self, w: u64) {
        for lane in &mut self.0 {
            lane.write_u64(w);
        }
    }

    fn str(&mut self, s: &str) {
        for lane in &mut self.0 {
            s.hash(lane);
        }
    }

    fn finish(&self) -> u128 {
        (u128::from(self.0[0].finish()) << 64) | u128::from(self.0[1].finish())
    }
}

/// The SM warp scheduler: the hot component. Owns the warp tables, the
/// [`ServerBank`] and the [`BarrierBoard`]; every [`Calendar`] event is
/// one warp wake-up whose payload is the dense warp id.
struct WarpEngine<'a> {
    spec: &'a GpuSpec,
    plan: &'a ExecutablePlan,
    /// The plan's program compiled against `spec` (cached on the plan).
    prog: &'a CompiledProgram,
    st: &'a mut EngineState,
    servers: ServerBank,
    dram_bytes: f64,
    /// Reciprocal of this SM's DRAM bandwidth share (cycles/byte),
    /// hoisted so the hot loop multiplies instead of divides.
    inv_dram_rate: f64,
    /// Per-op issue occupancy (cycles), hoisted.
    issue_cost: f64,
    /// Inline continuations absorbed by macro-stepping. Micro-events
    /// processed = `pops + coalesced`; that sum is invariant across
    /// queue kinds and macro-stepping.
    coalesced: u64,
    /// Actual calendar pops (heap transactions in the reference engine).
    pops: u64,
    /// Pops whose processing coalesced at least one inline continuation.
    macro_runs: u64,
    /// Macro-stepping active (off under tracing or by options).
    macro_on: bool,
    /// Latest processed instant (pop times and inline continuations).
    last_time: f64,
    sink: &'a dyn TraceSink,
    /// `sink.enabled()` hoisted once at construction so the disabled path
    /// costs a local-bool branch per emission site, never a virtual call.
    tracing: bool,
}

impl<'a> WarpEngine<'a> {
    /// An engine continuing this one's run, with its servers and counters,
    /// over `st` (a copy of this engine's state) for `plan` (this plan up
    /// to per-role work counts). Untraced: families never trace.
    fn fork<'b>(&self, plan: &'b ExecutablePlan, st: &'b mut EngineState) -> WarpEngine<'b>
    where
        'a: 'b,
    {
        WarpEngine {
            spec: self.spec,
            plan,
            prog: self.prog,
            st,
            servers: self.servers.clone(),
            dram_bytes: self.dram_bytes,
            inv_dram_rate: self.inv_dram_rate,
            issue_cost: self.issue_cost,
            coalesced: self.coalesced,
            pops: self.pops,
            macro_runs: self.macro_runs,
            macro_on: self.macro_on,
            last_time: self.last_time,
            sink: self.sink,
            tracing: self.tracing,
        }
    }

    /// Launches the next pending block, if any. `inline(always)`: the
    /// first wave and `finish_warp` both call it, and with two call sites
    /// LLVM keeps it out of line, which cost the calendar engine about 12%
    /// of its events/s in `gates engine`.
    #[inline(always)]
    fn launch_next_block(&mut self, cal: &mut Calendar<impl SimQueue>, now: f64) {
        let Some(index) = self.st.pending.pop() else {
            return;
        };
        let start = now + self.spec.block_launch_overhead;
        let block_slot = self.st.block_index.len() as u32;
        let mut live = 0u32;
        for (ri, role) in self.plan.block.roles.iter().enumerate() {
            let iters = role_iters(role.original_blocks, self.plan.issued_blocks, index);
            let (pc0, pc1) = self.prog.role_span[ri];
            for _ in 0..role.warps {
                let wid = self.st.warp_exec.len() as u32;
                let done = iters == 0 || pc0 == pc1;
                self.st.warp_exec.push(WarpExec {
                    pc: if done { DONE_PC } else { pc0 },
                    pc_start: pc0,
                    pc_end: pc1,
                    iters_left: iters,
                    dram: 0.0,
                });
                self.st.warp_meta.push(WarpMeta {
                    block: block_slot,
                    role: ri as u16,
                });
                self.st.warp_finish.push(start);
                if !done {
                    live += 1;
                    cal.schedule(start, wid);
                }
            }
        }
        let bound = self.prog.barrier_expected.len();
        self.st.block_index.push(index);
        self.st.block_live.push(live);
        self.st.barriers.claim_block(bound);
        // A block whose roles all had zero work completes immediately.
        if live == 0 {
            self.launch_next_block(cal, start);
        }
    }

    fn finish_warp(&mut self, cal: &mut Calendar<impl SimQueue>, now: f64, w: u32) {
        let wi = w as usize;
        let meta = self.st.warp_meta[wi];
        self.st.warp_exec[wi].pc = DONE_PC;
        self.st.warp_finish[wi] = now;
        let rf = &mut self.st.role_finish[meta.role as usize];
        *rf = rf.max(now);
        let b = meta.block as usize;
        self.st.block_live[b] -= 1;
        if self.st.block_live[b] == 0 {
            self.launch_next_block(cal, now);
        }
    }

    /// Handles a warp arriving at barrier `id`: parks it on the
    /// [`BarrierBoard`], or releases every waiter when the expectation
    /// is met. The arriving warp's stored state must be current (the
    /// event handler writes its local copy back first), because a
    /// release advances every waiter's pc — including the arriver's.
    fn arrive_barrier(&mut self, cal: &mut Calendar<impl SimQueue>, now: f64, w: u32, id: u16) {
        let bound = self.prog.barrier_expected.len();
        let expected = self.prog.barrier_expected[id as usize];
        let block = self.st.warp_meta[w as usize].block as usize;
        let slot = block * bound + id as usize;
        let (arrived_now, released) = self.st.barriers.arrive(slot, w, expected);
        if self.tracing {
            self.sink.record(TraceEvent::BarrierArrival {
                kernel: self.plan.name.clone(),
                block: self.st.block_index[block],
                barrier: id,
                arrived: arrived_now,
                expected,
                at_cycles: now,
            });
        }
        if let Some(waiters) = released {
            if self.tracing {
                self.sink.record(TraceEvent::BarrierRelease {
                    kernel: self.plan.name.clone(),
                    block: self.st.block_index[block],
                    barrier: id,
                    released: waiters.len() as u32,
                    at_cycles: now,
                });
            }
            for &wi in &waiters {
                let exec = &mut self.st.warp_exec[wi as usize];
                exec.pc += 1;
                if exec.pc >= exec.pc_end {
                    exec.pc = exec.pc_start;
                    exec.iters_left -= 1;
                }
                cal.schedule(now + BARRIER_COST, wi);
            }
            self.st.barriers.recycle(waiters);
        }
    }

    /// Finishes the run after the calendar drained: deadlock check and
    /// result assembly.
    fn into_run(mut self) -> Result<KernelRun, SimError> {
        let bound = self.prog.barrier_expected.len();
        if self.st.warp_exec.iter().any(|e| e.pc != DONE_PC) {
            let pending = self.st.barriers.stuck(bound);
            if self.tracing {
                self.sink.record(TraceEvent::Deadlock {
                    kernel: self.plan.name.clone(),
                    pending_barriers: pending.clone(),
                    stuck_warps: self.st.warp_exec.iter().filter(|e| e.pc != DONE_PC).count()
                        as u64,
                });
            }
            return Err(SimError::Deadlock {
                kernel: self.plan.name.clone(),
                pending_barriers: pending,
            });
        }
        let makespan = self
            .st
            .warp_finish
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
            .max(self.last_time)
            + self.spec.kernel_launch_overhead;
        let gap = makespan * 0.005;
        let duration_cycles = Cycles::new(makespan.round() as u64);
        let role_finish = self
            .plan
            .block
            .roles
            .iter()
            .zip(&self.st.role_finish)
            .map(|(r, f)| (r.name.clone(), Cycles::new(f.round() as u64)))
            .collect();
        let tc_intervals = merge_intervals(self.servers.tc.take_intervals(), gap);
        let cd_intervals = merge_intervals(self.servers.cd.take_intervals(), gap);
        let occupancy = self.plan.occupancy(self.spec);
        if self.tracing {
            self.emit_run_events(duration_cycles, occupancy, &tc_intervals, &cd_intervals);
        }
        Ok(KernelRun {
            name: self.plan.name.clone(),
            name_id: self.plan.name_id,
            cycles: duration_cycles,
            duration: self.spec.cycles_to_time(duration_cycles),
            activity: ActivitySummary {
                tc_busy: Cycles::new(self.servers.tc.busy().round() as u64),
                cd_busy: Cycles::new(self.servers.cd.busy().round() as u64),
            },
            tc_intervals,
            cd_intervals,
            role_finish,
            occupancy,
            dram_bytes: self.dram_bytes,
            events: self.pops + self.coalesced,
            pops: self.pops,
            macro_runs: self.macro_runs,
            summary: crate::result::RunSummary::default(),
        }
        .finalized())
    }

    /// Emits the end-of-run event batch: per-pipeline busy intervals,
    /// per-server queue/wait statistics, and the completion summary.
    fn emit_run_events(
        &self,
        cycles: Cycles,
        occupancy: u32,
        tc_intervals: &[Interval],
        cd_intervals: &[Interval],
    ) {
        let name = &self.plan.name;
        for (pipeline, intervals) in [
            (Pipeline::Tensor, tc_intervals),
            (Pipeline::Cuda, cd_intervals),
        ] {
            for iv in intervals {
                self.sink.record(TraceEvent::PipelineInterval {
                    kernel: name.clone(),
                    pipeline,
                    start_cycles: iv.start,
                    end_cycles: iv.end,
                });
            }
        }
        for (kind, server) in [
            (ServerKind::Tensor, &self.servers.tc),
            (ServerKind::Cuda, &self.servers.cd),
            (ServerKind::Issue, &self.servers.issue),
            (ServerKind::L1, &self.servers.l1),
            (ServerKind::Shared, &self.servers.shared),
            (ServerKind::Dram, &self.servers.dram),
        ] {
            self.sink.record(server.stats_event(name, kind));
        }
        self.sink.record(TraceEvent::KernelComplete {
            kernel: name.clone(),
            cycles: cycles.get(),
            tc_busy_cycles: self.servers.tc.busy().round() as u64,
            cd_busy_cycles: self.servers.cd.busy().round() as u64,
            occupancy,
            events: self.pops + self.coalesced,
        });
    }
}

impl<'a> WarpEngine<'a> {
    /// Drains `cal`, handing every wake-up to [`WarpEngine::on_event`].
    #[inline]
    fn run<Q: SimQueue>(&mut self, cal: &mut Calendar<Q>) {
        while let Some((time, w, inline_bound)) = cal.pop() {
            self.on_event(cal, time, w, inline_bound);
        }
    }

    /// One wake-up of warp `w` at `time` (plus any macro-stepped inline
    /// continuations below `inline_bound`, see [`Calendar::pop`]).
    #[inline]
    fn on_event<Q: SimQueue>(
        &mut self,
        cal: &mut Calendar<Q>,
        time: f64,
        w: u32,
        inline_bound: f64,
    ) {
        // Copies of the shared-reference fields and spec scalars. The
        // references are `Copy`, so these locals borrow nothing from
        // `self` — and being immutable borrows, their targets are
        // known not to alias the engine's stores, letting the loads
        // below stay in registers across the coalescing loop.
        let prog = self.prog;
        let micro = prog.micro.as_slice();
        let run_ok = prog.run_ok.as_slice();
        let issue_cost = self.issue_cost;
        let inv_dram_rate = self.inv_dram_rate;
        let dram_latency = self.spec.dram_latency;
        let shared_latency = self.spec.shared_latency;
        let l1_latency = self.spec.l1_latency;
        self.pops += 1;
        let wi = w as usize;
        let mut now = time;
        // Pops drain in ascending time order and a coalesced run never
        // passes the pending-event bound while the calendar is
        // non-empty, so a plain store (not a max) is correct here; the
        // inline-continuation paths below do take the max, which covers
        // the final run against an empty calendar.
        self.last_time = time;
        // The earliest *other* pending event bounds how far this warp
        // may be advanced inline: while the warp's next wake-up is
        // strictly below it, that wake-up would be the next event popped
        // anyway, so processing it here is exact. The calendar hands the
        // bound over with the pop itself ([`Calendar::pop`]); it is
        // untouched during a pure run, so the bound stays valid for the
        // whole coalesced run.
        let qmin = if self.macro_on {
            inline_bound
        } else {
            f64::NEG_INFINITY
        };
        let mut coalesced = false;
        // Register-resident copy of the warp's execution state for the
        // whole (possibly macro-stepped) run; written back at every exit
        // that leaves per-warp state behind.
        let mut exec = self.st.warp_exec[wi];
        if exec.pc == DONE_PC {
            // Staleness guard: a completed warp has no work left.
            return;
        }
        loop {
            // A warp with no iterations left after advancing is done.
            if exec.iters_left == 0 {
                self.st.warp_exec[wi] = exec;
                self.finish_warp(cal, now, w);
                break;
            }
            let next: f64;
            // Handle a pending DRAM stage first.
            if exec.dram > 0.0 {
                let end = self.servers.dram.acquire(now, exec.dram * inv_dram_rate);
                self.dram_bytes += exec.dram;
                exec.dram = 0.0;
                exec.pc += 1;
                if exec.pc >= exec.pc_end {
                    exec.pc = exec.pc_start;
                    exec.iters_left -= 1;
                }
                next = end + dram_latency;
            } else {
                match micro[exec.pc as usize] {
                    MicroOp::Tc { service } => {
                        let issue_end = self.servers.issue.acquire(now, issue_cost);
                        next = self.servers.tc.acquire(issue_end, service);
                    }
                    MicroOp::Cd { service } => {
                        let issue_end = self.servers.issue.acquire(now, issue_cost);
                        next = self.servers.cd.acquire(issue_end, service);
                    }
                    MicroOp::Shared { service } => {
                        let issue_end = self.servers.issue.acquire(now, issue_cost);
                        next = self.servers.shared.acquire(issue_end, service) + shared_latency;
                    }
                    MicroOp::Global {
                        service,
                        miss_bytes,
                    } => {
                        let issue_end = self.servers.issue.acquire(now, issue_cost);
                        let l1_end = self.servers.l1.acquire(issue_end, service);
                        if miss_bytes > 0.0 {
                            exec.dram = miss_bytes;
                            next = l1_end;
                        } else {
                            next = l1_end + l1_latency;
                        }
                        if miss_bytes > 0.0 {
                            // pc advances after the DRAM stage.
                            let eligible = next < qmin;
                            if eligible {
                                self.coalesced += 1;
                                coalesced = true;
                                now = next;
                                self.last_time = self.last_time.max(now);
                                continue;
                            }
                            self.st.warp_exec[wi] = exec;
                            cal.schedule(next, w);
                            break;
                        }
                    }
                    MicroOp::Barrier { id } => {
                        // Barrier arrivals mutate cross-warp state and
                        // re-enter through the calendar: write the local
                        // copy back first (the release advances this
                        // warp's stored pc).
                        self.st.warp_exec[wi] = exec;
                        self.arrive_barrier(cal, now, w, id);
                        break;
                    }
                }
                // Advance past the completed op (DRAM-stage entries
                // returned above; barriers broke out).
                exec.pc += 1;
                if exec.pc >= exec.pc_end {
                    exec.pc = exec.pc_start;
                    exec.iters_left -= 1;
                }
            }
            let eligible = next < qmin && (exec.iters_left == 0 || run_ok[exec.pc as usize]);
            if eligible {
                // Inline continuation: absorb the push/pop.
                self.coalesced += 1;
                coalesced = true;
                now = next;
                self.last_time = self.last_time.max(now);
            } else {
                self.st.warp_exec[wi] = exec;
                cal.schedule(next, w);
                break;
            }
        }
        if coalesced {
            self.macro_runs += 1;
        }
    }
}

/// Validates the plan, resets the scratch arena, launches the first wave
/// of blocks and drains the calendar — monomorphized per queue
/// kind. With `forks`, the run is a family's dominant member and checks
/// before every dispatch whether another member must fork off here.
/// (The argument list is the engine's full context on purpose: bundling
/// it into a struct would just move the same fields one level down.)
#[allow(clippy::too_many_arguments)]
fn simulate_on<Q: SimQueue + Clone>(
    spec: &GpuSpec,
    plan: &ExecutablePlan,
    active_sms: u32,
    sink: &dyn TraceSink,
    options: EngineOptions,
    prog: &CompiledProgram,
    st: &mut EngineState,
    queue: &mut Q,
    forks: Option<&mut family::Forks<'_>>,
) -> Result<KernelRun, SimError> {
    let occupancy = plan.occupancy(spec);
    if occupancy == 0 {
        return Err(SimError::LaunchFailure {
            kernel: plan.name.clone(),
            reason: "block does not fit on an SM".to_string(),
        });
    }
    if plan.block.roles.iter().any(|r| r.warps == 0) {
        return Err(SimError::LaunchFailure {
            kernel: plan.name.clone(),
            reason: "role with zero warps".to_string(),
        });
    }
    st.reset(plan.block.roles.len());
    // Blocks assigned to the representative (busiest) SM: indices
    // congruent to 0 mod sm_count.
    st.pending
        .extend((0..plan.issued_blocks).step_by(spec.sm_count as usize));
    st.pending.reverse();
    let tracing = sink.enabled();
    let issue_cost = spec.issue_cost_per_op / spec.issue_slots_per_cycle;
    let dram_rate = spec.dram_bytes_per_cycle_per_sm(active_sms);
    let mut cal = Calendar::new(&mut *queue);
    let mut eng = WarpEngine {
        spec,
        plan,
        prog,
        st,
        servers: ServerBank::new(tracing),
        dram_bytes: 0.0,
        inv_dram_rate: 1.0 / dram_rate,
        issue_cost,
        coalesced: 0,
        pops: 0,
        macro_runs: 0,
        // Per-op trace events must fire exactly as in the
        // event-by-event engine, so tracing forces macro-stepping off.
        macro_on: options.macro_step && !tracing,
        last_time: 0.0,
        sink,
        tracing,
    };
    for _ in 0..occupancy {
        if eng.st.pending.is_empty() {
            break;
        }
        eng.launch_next_block(&mut cal, 0.0);
    }
    match forks {
        None => eng.run(&mut cal),
        Some(forks) => {
            while let Some((time, w, hint)) = cal.pop() {
                forks.before_dispatch(&cal, &eng, time, w, hint);
                eng.on_event(&mut cal, time, w, hint);
                forks.after_dispatch(&eng);
            }
        }
    }
    eng.into_run()
}

fn run_with_scratch(
    scratch: &mut EngineScratch,
    spec: &GpuSpec,
    plan: &ExecutablePlan,
    active_sms: u32,
    sink: &dyn TraceSink,
    options: EngineOptions,
    forks: Option<&mut family::Forks<'_>>,
) -> Result<KernelRun, SimError> {
    let prog = plan.compiled_for(spec);
    let issue_cost = spec.issue_cost_per_op / spec.issue_slots_per_cycle;
    let EngineScratch {
        state,
        heap,
        calendar,
    } = scratch;
    match options.queue {
        QueueKind::Heap => {
            heap.reset();
            simulate_on(
                spec, plan, active_sms, sink, options, &prog, state, heap, forks,
            )
        }
        QueueKind::Calendar => {
            calendar.reset(issue_cost * BUCKET_WIDTH_ISSUE_COSTS);
            simulate_on(
                spec, plan, active_sms, sink, options, &prog, state, calendar, forks,
            )
        }
    }
}

/// Simulates a plan on the device, assuming all SMs are active (the common
/// case for the paper's workloads).
///
/// ```
/// use std::sync::Arc;
/// use tacker_kernel::{ast::*, Bindings, Dim3, KernelDef, KernelKind, KernelLaunch};
/// use tacker_sim::{simulate, ExecutablePlan, GpuSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = GpuSpec::rtx2080ti();
/// let def = KernelDef::builder("axpy", KernelKind::Cuda)
///     .block_dim(Dim3::x(128))
///     .body(vec![Stmt::compute_cd(Expr::lit(64), "y[i] += a * x[i]")])
///     .build()?;
/// let launch = KernelLaunch::new(Arc::new(def), 680, Bindings::new());
/// let plan = ExecutablePlan::from_launch(&spec, &launch)?;
/// let run = simulate(&spec, &plan)?;
/// assert!(run.duration > tacker_kernel::SimTime::ZERO);
/// assert!(run.activity.cd_busy > tacker_kernel::Cycles::ZERO);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`SimError::LaunchFailure`] when the plan cannot be placed and
/// [`SimError::Deadlock`] when barrier expectations can never be met.
pub fn simulate(spec: &GpuSpec, plan: &ExecutablePlan) -> Result<KernelRun, SimError> {
    simulate_with_options(
        spec,
        plan,
        spec.sm_count,
        &tacker_trace::NoopSink,
        EngineOptions::default(),
    )
}

/// [`simulate`] with every knob explicit: `active_sms` SMs contend for
/// DRAM, `sink` receives engine events, and `options` choose the queue
/// kind and macro-stepping.
///
/// The sink receives pipeline busy intervals, FCFS-server queue/wait
/// statistics, barrier arrivals/releases, deadlock context, and the
/// completion summary. With a disabled sink (e.g.
/// [`tacker_trace::NoopSink`]) this is the same hot path as [`simulate`]:
/// `enabled()` is hoisted into a bool once at engine construction and no
/// event is ever built. With an *enabled* sink, macro-stepping is forced
/// off so the per-event stream (barrier arrivals, server statistics) is
/// identical to the event-by-event reference engine.
///
/// Every option combination produces identical results (and an identical
/// [`KernelRun::events`] count); only wall-clock speed and the
/// [`KernelRun::pops`]/[`KernelRun::macro_runs`] accounting differ.
///
/// # Errors
///
/// As [`simulate`].
pub fn simulate_with_options(
    spec: &GpuSpec,
    plan: &ExecutablePlan,
    active_sms: u32,
    sink: &dyn TraceSink,
    options: EngineOptions,
) -> Result<KernelRun, SimError> {
    with_scratch(|scratch| run_with_scratch(scratch, spec, plan, active_sms, sink, options, None))
}

/// Runs `f` on this thread's engine arena.
fn with_scratch<R>(f: impl FnOnce(&mut EngineScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        // A trace sink that re-enters the simulator mid-run finds the
        // thread-local busy; fall back to a fresh arena for the nested
        // run rather than failing.
        Err(_) => f(&mut EngineScratch::default()),
    })
}
#[cfg(test)]
mod tests {
    use super::*;
    use tacker_kernel::ast::{ComputeUnit, MemDir, MemSpace};
    use tacker_kernel::{BlockProgram, Op, ResourceUsage, WarpProgram, WarpRole};

    fn plan_of(roles: Vec<WarpRole>, issued: u64) -> ExecutablePlan {
        let block = BlockProgram::new(roles);
        let threads = block.threads();
        ExecutablePlan::assemble(
            "test",
            false,
            block,
            issued,
            ResourceUsage::new(32, 0),
            threads,
            None,
        )
    }

    fn role(name: &str, warps: u32, ops: Vec<Op>, original_blocks: u64) -> WarpRole {
        WarpRole {
            name: name.into(),
            warps,
            program: WarpProgram::new(ops),
            original_blocks,
        }
    }

    fn compute(unit: ComputeUnit, ops: u64) -> Op {
        Op::Compute { unit, ops }
    }

    /// Every (queue, macro) combination for identity checks.
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

    /// Strips the configuration-dependent accounting so runs from
    /// different engine options can be compared for behavioural equality.
    fn canon(mut run: KernelRun) -> KernelRun {
        run.pops = 0;
        run.macro_runs = 0;
        run
    }

    #[test]
    fn role_iters_partitions_exactly() {
        // 10 original blocks over 4 issued blocks: 3,3,2,2.
        let iters: Vec<u64> = (0..4).map(|b| role_iters(10, 4, b)).collect();
        assert_eq!(iters, vec![3, 3, 2, 2]);
        assert_eq!(iters.iter().sum::<u64>(), 10);
        // Fewer originals than issued: trailing blocks idle.
        assert_eq!(role_iters(2, 4, 3), 0);
        assert_eq!(role_iters(2, 4, 1), 1);
    }

    #[test]
    fn role_iters_edge_cases() {
        // The last original block position runs exactly once.
        assert_eq!(role_iters(10, 10, 9), 1);
        assert_eq!(role_iters(7, 16, 6), 1);
        // b == original - 1 with original > issued still lands in range.
        assert_eq!(role_iters(5, 4, 3), 1); // positions 3, (7 ≥ 5 excluded)
                                            // issued > original: blocks at or past `original` are idle, the
                                            // covered prefix runs once each, and totals are conserved.
        for issued in [5u64, 8, 64] {
            let total: u64 = (0..issued).map(|b| role_iters(4, issued, b)).sum();
            assert_eq!(total, 4, "issued {issued}");
            assert_eq!(role_iters(4, issued, 4), 0);
        }
        // b >= issued never executes, even if b < original.
        assert_eq!(role_iters(100, 4, 4), 0);
    }

    #[test]
    fn compute_bound_duration_scales_with_work() {
        let spec = GpuSpec::rtx2080ti();
        let mk = |ops| {
            plan_of(
                vec![role("cd", 4, vec![compute(ComputeUnit::Cuda, ops)], 68)],
                68,
            )
        };
        let d1 = simulate(&spec, &mk(64_000)).unwrap().cycles.get();
        let d2 = simulate(&spec, &mk(128_000)).unwrap().cycles.get();
        // Subtract the fixed launch overhead before comparing scaling.
        let oh = spec.kernel_launch_overhead as u64 + spec.block_launch_overhead as u64;
        let w1 = d1 - oh;
        let w2 = d2 - oh;
        let ratio = w2 as f64 / w1 as f64;
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn tensor_and_cuda_roles_overlap() {
        let spec = GpuSpec::rtx2080ti();
        // Equal-duration TC and CD work in separate kernels...
        let tc_ops = 512_000; // 1000 cycles of TC time
        let cd_ops = 64_000; // 1000 cycles of CD time
        let solo_tc = plan_of(
            vec![role(
                "tc",
                4,
                vec![compute(ComputeUnit::Tensor, tc_ops)],
                68,
            )],
            68,
        );
        let solo_cd = plan_of(
            vec![role("cd", 4, vec![compute(ComputeUnit::Cuda, cd_ops)], 68)],
            68,
        );
        let fused = plan_of(
            vec![
                role("tc", 4, vec![compute(ComputeUnit::Tensor, tc_ops)], 68),
                role("cd", 4, vec![compute(ComputeUnit::Cuda, cd_ops)], 68),
            ],
            68,
        );
        let t = simulate(&spec, &solo_tc).unwrap().cycles.get() as f64;
        let c = simulate(&spec, &solo_cd).unwrap().cycles.get() as f64;
        let f = simulate(&spec, &fused).unwrap().cycles.get() as f64;
        // The fused kernel overlaps the two pipelines: far faster than
        // sequential, within ~15% of the slower component.
        assert!(f < 0.7 * (t + c), "f={f} t={t} c={c}");
        assert!(f < 1.2 * t.max(c), "f={f} t={t} c={c}");
    }

    #[test]
    fn partial_barriers_work_sync_threads_deadlocks_in_fused() {
        let spec = GpuSpec::rtx2080ti();
        // Two roles; role A synchronizes on barrier 1 expecting only its own
        // warps — fine.
        let ok = plan_of(
            vec![
                role(
                    "a",
                    2,
                    vec![compute(ComputeUnit::Cuda, 64), Op::Barrier { id: 1 }],
                    68,
                ),
                role("b", 2, vec![compute(ComputeUnit::Cuda, 64)], 68),
            ],
            68,
        );
        assert!(simulate(&spec, &ok).is_ok());

        // Same structure, but the barrier expects the whole block (a kept
        // __syncthreads()) — deadlock, as §V-D predicts. Every engine
        // configuration reports the same pending barrier. The mutated
        // clone shares the original's compiled-program cache, which must
        // re-verify the block contents and recompile.
        let mut bad = ok.clone();
        bad.block.set_barrier_expectation(1, 4);
        for opts in all_options() {
            let err =
                simulate_with_options(&spec, &bad, 68, &tacker_trace::NoopSink, opts).unwrap_err();
            assert!(
                matches!(err, SimError::Deadlock { ref pending_barriers, .. }
                if pending_barriers.contains(&1)),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn dram_contention_slows_memory_bound_kernels() {
        let spec = GpuSpec::rtx2080ti();
        let mem_op = Op::Memory {
            dir: MemDir::Read,
            space: MemSpace::Global,
            bytes: 64 * 1024,
            locality: 0.0,
        };
        let plan = plan_of(vec![role("m", 4, vec![mem_op], 68)], 68);
        let at = |sms| {
            simulate_with_options(
                &spec,
                &plan,
                sms,
                &tacker_trace::NoopSink,
                EngineOptions::default(),
            )
        };
        let (few, many) = (at(17).unwrap(), at(68).unwrap());
        assert!(many.cycles > few.cycles);
        assert!(many.dram_bytes > 0.0);
    }

    #[test]
    fn activity_summary_reflects_pipeline_use() {
        let spec = GpuSpec::rtx2080ti();
        let plan = plan_of(
            vec![role(
                "tc",
                2,
                vec![compute(ComputeUnit::Tensor, 51_200)],
                68,
            )],
            68,
        );
        let run = simulate(&spec, &plan).unwrap();
        assert!(run.activity.tc_busy > Cycles::ZERO);
        assert_eq!(run.activity.cd_busy, Cycles::ZERO);
        assert!(!run.tc_intervals.is_empty());
        assert!(run.cd_intervals.is_empty());
    }

    #[test]
    fn blocks_backfill_when_occupancy_limited() {
        let spec = GpuSpec::rtx2080ti();
        // 512 threads/block → only 2 resident; 6 blocks per SM must run in
        // 3 waves, taking ~3× the single-wave time.
        let mk = |blocks_per_sm: u64| {
            let block = BlockProgram::new(vec![role(
                "cd",
                16,
                vec![compute(ComputeUnit::Cuda, 64_000)],
                blocks_per_sm * 68,
            )]);
            ExecutablePlan::assemble(
                "wave",
                false,
                block,
                blocks_per_sm * 68,
                ResourceUsage::new(32, 0),
                512,
                None,
            )
        };
        let one = simulate(&spec, &mk(2)).unwrap().cycles.get() as f64;
        let three = simulate(&spec, &mk(6)).unwrap().cycles.get() as f64;
        let ratio = three / one;
        assert!(ratio > 2.5 && ratio < 3.5, "ratio {ratio}");
    }

    #[test]
    fn empty_role_blocks_complete() {
        let spec = GpuSpec::rtx2080ti();
        // More issued blocks than original blocks: trailing blocks idle
        // (Fig. 6's last two blocks) and the run still terminates.
        let plan = plan_of(
            vec![role("cd", 2, vec![compute(ComputeUnit::Cuda, 640)], 34)],
            68,
        );
        let run = simulate(&spec, &plan).unwrap();
        assert!(run.cycles > Cycles::ZERO);
    }

    #[test]
    fn locality_reduces_dram_traffic() {
        let spec = GpuSpec::rtx2080ti();
        let mk = |loc| {
            plan_of(
                vec![role(
                    "m",
                    4,
                    vec![Op::Memory {
                        dir: MemDir::Read,
                        space: MemSpace::Global,
                        bytes: 32 * 1024,
                        locality: loc,
                    }],
                    68,
                )],
                68,
            )
        };
        let cold = simulate(&spec, &mk(0.0)).unwrap();
        let warm = simulate(&spec, &mk(0.9)).unwrap();
        assert!(warm.cycles < cold.cycles);
        assert!(warm.dram_bytes < cold.dram_bytes * 0.2);
    }

    #[test]
    fn queue_kinds_and_macro_stepping_agree() {
        let spec = GpuSpec::rtx2080ti();
        // Mixed plan: two pipelines, a barrier, a global access with a
        // DRAM stage, and uneven iteration counts.
        let plan = plan_of(
            vec![
                role(
                    "tc",
                    2,
                    vec![
                        compute(ComputeUnit::Tensor, 8_192),
                        Op::Barrier { id: 1 },
                        Op::Memory {
                            dir: MemDir::Read,
                            space: MemSpace::Global,
                            bytes: 4 * 1024,
                            locality: 0.5,
                        },
                    ],
                    200,
                ),
                role("cd", 3, vec![compute(ComputeUnit::Cuda, 2_048)], 137),
            ],
            136,
        );
        let reference = simulate_with_options(
            &spec,
            &plan,
            68,
            &tacker_trace::NoopSink,
            EngineOptions {
                queue: QueueKind::Heap,
                macro_step: false,
            },
        )
        .unwrap();
        // Reference engine: one pop per micro-event, nothing coalesced.
        assert_eq!(reference.pops, reference.events);
        assert_eq!(reference.macro_runs, 0);
        for opts in all_options() {
            let run =
                simulate_with_options(&spec, &plan, 68, &tacker_trace::NoopSink, opts).unwrap();
            assert_eq!(canon(run.clone()), canon(reference.clone()), "{opts:?}");
            assert_eq!(run.events, reference.events, "{opts:?}");
            if opts.macro_step {
                assert!(run.pops <= run.events, "{opts:?}");
            } else {
                assert_eq!(run.pops, run.events, "{opts:?}");
            }
        }
    }

    #[test]
    fn macro_stepping_coalesces_lone_warp_runs() {
        let spec = GpuSpec::rtx2080ti();
        // One warp, many iterations, no barrier: once alone, the whole
        // remaining program collapses into inline continuations.
        let plan = plan_of(
            vec![role("cd", 1, vec![compute(ComputeUnit::Cuda, 640)], 64)],
            1,
        );
        let run = simulate(&spec, &plan).unwrap();
        assert!(run.macro_runs > 0);
        assert!(
            run.pops < run.events / 8,
            "pops {} events {}",
            run.pops,
            run.events
        );
    }

    #[test]
    fn tracing_disables_macro_stepping() {
        let spec = GpuSpec::rtx2080ti();
        let plan = plan_of(
            vec![role("cd", 1, vec![compute(ComputeUnit::Cuda, 640)], 64)],
            1,
        );
        let sink = tacker_trace::RingSink::unbounded();
        let run = simulate_with_options(&spec, &plan, 68, &sink, EngineOptions::default()).unwrap();
        assert_eq!(run.macro_runs, 0);
        assert_eq!(run.pops, run.events);
        assert!(!sink.is_empty());
    }

    /// The scratch arena must come back clean after an aborted
    /// (deadlocked) run: parked waiters and half-drained queues from the
    /// failure may not leak into the next simulation on the thread.
    #[test]
    fn scratch_recovers_after_deadlock() {
        let spec = GpuSpec::rtx2080ti();
        let clean = plan_of(
            vec![role("cd", 2, vec![compute(ComputeUnit::Cuda, 640)], 68)],
            68,
        );
        let baseline = simulate(&spec, &clean).unwrap();
        let mut dead = plan_of(
            vec![role(
                "a",
                2,
                vec![compute(ComputeUnit::Cuda, 64), Op::Barrier { id: 1 }],
                68,
            )],
            68,
        );
        dead.block.set_barrier_expectation(1, 99);
        for opts in all_options() {
            let err = simulate_with_options(&spec, &dead, 68, &tacker_trace::NoopSink, opts);
            assert!(matches!(err, Err(SimError::Deadlock { .. })), "{opts:?}");
            let after =
                simulate_with_options(&spec, &clean, 68, &tacker_trace::NoopSink, opts).unwrap();
            assert_eq!(canon(after), canon(baseline.clone()), "{opts:?}");
        }
    }
}
