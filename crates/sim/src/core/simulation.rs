//! The simulation kernel: clock, event calendar, seeded RNG, dispatch.

use crate::queue::SimQueue;

/// One dispatched event: the simulated time it fires at and a compact
/// opaque payload. Payloads are deliberately `u32` — the calendar queue
/// packs the whole event (time, sequence, payload) into one `u128` key,
/// so an event is a machine word append, never an allocation. Components
/// that need richer event data keep it in their own state and use the
/// payload as an index (the warp engine indexes its warp table; the
/// serve arrival process indexes its merged arrival list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time (cycles or nanoseconds — the driver picks the unit).
    pub time: f64,
    /// Opaque component-defined payload (routed events reserve the high
    /// bits for the destination component, see [`crate::core::Router`]).
    pub payload: u32,
}

/// A component that consumes events from a [`Simulation`].
///
/// The trait is generic over the queue so dispatch is monomorphized:
/// the warp engine's hot loop pays no virtual call per event. Coarser
/// actors (arrival processes, dispatchers, devices) can be boxed behind
/// `dyn EventHandler<Q>` and routed by a [`crate::core::Router`], where
/// one virtual call per *query* is noise.
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

/// The simulation kernel: owns the event queue, the monotone event
/// sequence (the deterministic tie-breaker for equal times), the clock,
/// and a seeded [SplitMix64] RNG for components that need deterministic
/// randomness.
///
/// `Q` is any [`SimQueue`] — the reference binary heap or the
/// calendar/bucket queue — or a `&mut` borrow of one living in a scratch
/// arena. Both drain the same total `(time, seq)` order, so results are
/// a pure function of the schedule calls, never of the queue choice.
///
/// [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
#[derive(Debug)]
pub struct Simulation<Q> {
    queue: Q,
    seq: u64,
    clock: f64,
    rng: u64,
}

impl<Q: SimQueue> Simulation<Q> {
    /// A kernel over `queue` with RNG seed 0.
    pub fn new(queue: Q) -> Simulation<Q> {
        Simulation::seeded(queue, 0)
    }

    /// A kernel over `queue` with an explicit RNG seed.
    pub fn seeded(queue: Q, seed: u64) -> Simulation<Q> {
        Simulation {
            queue,
            seq: 0,
            clock: 0.0,
            rng: seed,
        }
    }

    /// Current simulated time: the time of the last dispatched event.
    pub fn time(&self) -> f64 {
        self.clock
    }

    /// Total events scheduled so far.
    pub fn scheduled(&self) -> u64 {
        self.seq
    }

    /// Next SplitMix64 draw from the kernel's seeded stream.
    pub fn rand_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn rand_f64(&mut self) -> f64 {
        (self.rand_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Pops the earliest pending event, advancing the clock. `None` when
    /// the calendar is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<Event> {
        let (time, payload, _) = self.queue.pop_with_hint()?;
        self.clock = time;
        Some(Event { time, payload })
    }

    /// Earliest pending event time without popping, if any.
    #[inline]
    pub fn peek_time(&mut self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Dispatches events to `handler` until the calendar is empty.
    ///
    /// Events drain in ascending `(time, seq)` order — equal times fire
    /// in the order they were scheduled — so a run is bit-reproducible
    /// regardless of queue kind or handler registration order.
    #[inline]
    pub fn run<H: EventHandler<Q>>(&mut self, handler: &mut H) {
        while let Some((time, payload, hint)) = self.queue.pop_with_hint() {
            self.clock = time;
            let mut ctx = SimulationContext {
                inline_bound: hint,
                sim: self,
            };
            handler.on_event(Event { time, payload }, &mut ctx);
        }
    }

    /// Dispatches every event with `time <= bound` to `handler`, leaving
    /// later events pending. Used by drivers that interleave a component
    /// calendar with an outer clock (the serve loop drains its arrival
    /// process up to the engine's current instant).
    pub fn run_until<H: EventHandler<Q>>(&mut self, bound: f64, handler: &mut H) {
        while self.queue.peek_time().is_some_and(|t| t <= bound) {
            let Some((time, payload, hint)) = self.queue.pop_with_hint() else {
                break;
            };
            self.clock = time;
            let mut ctx = SimulationContext {
                inline_bound: hint,
                sim: self,
            };
            handler.on_event(Event { time, payload }, &mut ctx);
        }
    }
}

impl<Q: SimQueue> Simulation<Q> {
    /// Pops the earliest event together with its inline-continuation
    /// bound, advancing the clock: the first half of one [`Simulation::run`]
    /// step, for drivers that inspect the kernel between pop and dispatch.
    #[inline]
    pub(crate) fn pop_hinted(&mut self) -> Option<(Event, f64)> {
        let (time, payload, hint) = self.queue.pop_with_hint()?;
        self.clock = time;
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
        self.clock = event.time;
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

    /// A kernel with this one's sequence counter, clock and RNG state
    /// over `queue`, which must hold a copy of this kernel's pending
    /// events: the two then continue identically from here.
    pub(crate) fn resume_on<R: SimQueue>(&self, queue: R) -> Simulation<R> {
        Simulation {
            queue,
            seq: self.seq,
            clock: self.clock,
            rng: self.rng,
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
/// events, read the clock, draw randomness, and read the
/// inline-continuation bound.
#[derive(Debug)]
pub struct SimulationContext<'a, Q> {
    sim: &'a mut Simulation<Q>,
    inline_bound: f64,
}

impl<'a, Q: SimQueue> SimulationContext<'a, Q> {
    /// The dispatched event's time (the kernel clock).
    pub fn time(&self) -> f64 {
        self.sim.clock
    }

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

    /// Next SplitMix64 draw from the kernel's seeded stream.
    pub fn rand_u64(&mut self) -> u64 {
        self.sim.rand_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn rand_f64(&mut self) -> f64 {
        self.sim.rand_f64()
    }
}

impl<'a, Q: SimQueue> Schedule for SimulationContext<'a, Q> {
    #[inline]
    fn schedule(&mut self, time: f64, payload: u32) {
        self.sim.schedule(time, payload);
    }
}
