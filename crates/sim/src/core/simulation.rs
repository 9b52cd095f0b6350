//! The simulation kernel: event calendar and dispatch.

use crate::queue::SimQueue;

/// One dispatched event: the simulated time it fires at and a compact
/// opaque payload. Payloads are deliberately `u32` — the calendar queue
/// packs the whole event (time, sequence, payload) into one `u128` key,
/// so an event is a machine word append, never an allocation. Components
/// that need richer event data keep it in their own state and use the
/// payload as an index (the warp engine indexes its warp table).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time (cycles or nanoseconds — the driver picks the unit).
    pub time: f64,
    /// Opaque component-defined payload.
    pub payload: u32,
}

/// A component that consumes events from a [`Simulation`].
///
/// The trait is generic over the queue so dispatch is monomorphized:
/// the warp engine's hot loop pays no virtual call per event.
pub trait EventHandler<Q: SimQueue> {
    /// Handles one event. New events are scheduled through `ctx`; the
    /// context also exposes the queue's inline-continuation bound for
    /// handlers that coalesce (see [`SimulationContext::inline_bound`]).
    fn on_event(&mut self, event: Event, ctx: &mut SimulationContext<'_, Q>);
}

/// Anything that can accept a scheduled event: the [`Simulation`] itself
/// (outside dispatch, e.g. while seeding the initial wave) or the
/// [`SimulationContext`] handed to a handler (during dispatch).
pub trait Schedule {
    /// Schedules `payload` to fire at absolute time `time`.
    fn schedule(&mut self, time: f64, payload: u32);
}

/// The simulation kernel: owns the event queue and the monotone event
/// sequence (the deterministic tie-breaker for equal times). The clock is
/// the time of the event being dispatched.
///
/// `Q` is any [`SimQueue`] — the reference binary heap or the
/// calendar/bucket queue — or a `&mut` borrow of one living in a scratch
/// arena. Both drain the same total `(time, seq)` order, so results are
/// a pure function of the schedule calls, never of the queue choice.
#[derive(Debug)]
pub struct Simulation<Q> {
    queue: Q,
    seq: u64,
}

impl<Q: SimQueue> Simulation<Q> {
    /// A kernel over `queue` with no event scheduled yet.
    pub fn new(queue: Q) -> Simulation<Q> {
        Simulation { queue, seq: 0 }
    }

    /// Dispatches events to `handler` until the calendar is empty.
    ///
    /// Events drain in ascending `(time, seq)` order — equal times fire
    /// in the order they were scheduled — so a run is bit-reproducible
    /// regardless of queue kind or handler registration order.
    #[inline]
    pub fn run<H: EventHandler<Q>>(&mut self, handler: &mut H) {
        while let Some((time, payload, hint)) = self.queue.pop_with_hint() {
            let mut ctx = SimulationContext {
                inline_bound: hint,
                sim: self,
            };
            handler.on_event(Event { time, payload }, &mut ctx);
        }
    }

    /// Pops the earliest event together with its inline-continuation
    /// bound: the first half of one [`Simulation::run`]
    /// step, for drivers that inspect the kernel between pop and dispatch.
    #[inline]
    pub(crate) fn pop_hinted(&mut self) -> Option<(Event, f64)> {
        let (time, payload, hint) = self.queue.pop_with_hint()?;
        Some((Event { time, payload }, hint))
    }

    /// Dispatches an event popped by [`Simulation::pop_hinted`] (the second
    /// half of a [`Simulation::run`] step).
    #[inline]
    pub(crate) fn dispatch<H: EventHandler<Q>>(
        &mut self,
        handler: &mut H,
        event: Event,
        hint: f64,
    ) {
        let mut ctx = SimulationContext {
            inline_bound: hint,
            sim: self,
        };
        handler.on_event(event, &mut ctx);
    }

    /// The pending-event queue.
    pub(crate) fn queue(&self) -> &Q {
        &self.queue
    }

    /// A kernel with this one's sequence counter over `queue`, which
    /// must hold a copy of this kernel's pending events: the two then
    /// continue identically from here.
    pub(crate) fn resume_on<R: SimQueue>(&self, queue: R) -> Simulation<R> {
        Simulation {
            queue,
            seq: self.seq,
        }
    }
}

impl<Q: SimQueue> Schedule for Simulation<Q> {
    #[inline]
    fn schedule(&mut self, time: f64, payload: u32) {
        self.seq += 1;
        self.queue.push(time, self.seq, payload);
    }
}

/// A handler's view of the kernel during dispatch: schedule follow-up
/// events and read the inline-continuation bound.
#[derive(Debug)]
pub struct SimulationContext<'a, Q> {
    sim: &'a mut Simulation<Q>,
    inline_bound: f64,
}

impl<'a, Q: SimQueue> SimulationContext<'a, Q> {
    /// A conservative lower bound on the earliest *other* pending
    /// event's time, delivered with the pop itself: the exact minimum
    /// when the queue knows it cheaply, `+∞` when the calendar went
    /// empty, `-∞` when an exact answer would cost a scan. A handler may
    /// process any wake-up strictly below this bound *inline* — it would
    /// have been the very next event dispatched anyway — which is what
    /// the warp engine's macro-stepper does. The bound stays valid only
    /// while the handler does not schedule, so coalesce first, push
    /// last.
    pub fn inline_bound(&self) -> f64 {
        self.inline_bound
    }
}

impl<'a, Q: SimQueue> Schedule for SimulationContext<'a, Q> {
    #[inline]
    fn schedule(&mut self, time: f64, payload: u32) {
        self.sim.schedule(time, payload);
    }
}
