//! `tacker-sim::core` — the event kernel the SM engine runs on
//! (DSLab-style: an event queue and dispatch).
//!
//! * [`Simulation`] owns the event calendar (any [`crate::queue::SimQueue`]
//!   — the reference heap or the u128-packed calendar/bucket queue) and
//!   the monotone event sequence that breaks time ties deterministically;
//!   the clock is the time of the event being dispatched.
//! * [`SimulationContext`] is the handle a handler holds during dispatch:
//!   schedule follow-ups and read the queue's inline-continuation bound
//!   (what powers warp macro-stepping).
//! * [`EventHandler`] is the handler trait. It is generic over the queue,
//!   so the warp engine dispatches monomorphically — zero virtual calls
//!   per event.
//! * [`FcfsServer`] is the pipeline-stage server the engine instantiates
//!   per SM pipeline.
//!
//! Event payloads are compact `u32`s (an index into handler state), never
//! boxed values: the calendar packs `(time, seq, payload)` into one
//! `u128`, so scheduling is an integer append. The one production user is
//! the SM warp engine ([`crate::engine`], including the forked
//! simulations of [`crate::Device::run_family`]); DESIGN.md §3 describes
//! it.

mod server;
mod simulation;

pub use server::FcfsServer;
pub use simulation::{Event, EventHandler, Schedule, Simulation, SimulationContext};
