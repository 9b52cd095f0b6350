//! Host-time attribution from outside the program: a [`TraceSink`] that
//! stamps every event with `Instant::now()` and charges the host time
//! since the previous event to the layer that emitted the closing event.
//!
//! | closing event                      | layer        |
//! |------------------------------------|--------------|
//! | `Decision`, `FusionRejected`       | `manager`    |
//! | `KernelRetired`                    | `sim.device` |
//! | `ModelRefresh`                     | `predictor`  |
//! | `QueryCompleted`                   | `serve`      |
//! | `QueryDispatched`                  | `fleet`      |
//!
//! Gaps closed by any other event, and the time between the last event
//! and [`LayerSink::end`], are kept as unattributed time; the caller
//! reports wall time minus the attributed sum, so nothing is dropped.

use std::sync::Mutex;
use std::time::Instant;

use tacker_trace::{DecisionKind, FusionRejectReason, TraceEvent, TraceSink};

/// Every rejection reason, in the order of [`Attribution::rejects`].
pub const REJECT_REASONS: [FusionRejectReason; 6] = [
    FusionRejectReason::NoOrientation,
    FusionRejectReason::NotPrepared,
    FusionRejectReason::Blacklisted,
    FusionRejectReason::ParallelLoses,
    FusionRejectReason::ExceedsHeadroom,
    FusionRejectReason::NoGain,
];

/// Attributed host seconds and event counts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Attribution {
    /// Gaps closed by `Decision` / `FusionRejected`.
    pub manager_s: f64,
    /// Gaps closed by `KernelRetired`.
    pub device_s: f64,
    /// Gaps closed by `ModelRefresh`.
    pub predictor_s: f64,
    /// Gaps closed by `QueryCompleted`.
    pub serve_s: f64,
    /// Gaps closed by the first `QueryDispatched` after [`LayerSink::begin`]:
    /// fleet preparation before routing starts.
    pub fleet_prepare_s: f64,
    /// Gaps closed by every later `QueryDispatched`.
    pub fleet_dispatch_s: f64,
    /// Gaps closed by events outside the table above, plus the tails
    /// between the last event and [`LayerSink::end`].
    pub unattributed_s: f64,
    /// The tail of the most recent [`LayerSink::end`].
    pub last_tail_s: f64,
    /// `Decision` events.
    pub decisions: u64,
    /// `Decision { kind: Fuse }` events.
    pub fused: u64,
    /// `Decision { kind: Reorder }` events.
    pub reordered: u64,
    /// `FusionRejected` events by reason ([`REJECT_REASONS`] order).
    pub rejects: [u64; 6],
    /// `ModelRefresh` events.
    pub refreshes: u64,
    /// `QueryCompleted` events.
    pub completed: u64,
    /// `QueryDispatched` events.
    pub dispatched: u64,
}

impl Attribution {
    /// Host seconds charged to a named layer.
    pub fn attributed_s(&self) -> f64 {
        self.manager_s
            + self.device_s
            + self.predictor_s
            + self.serve_s
            + self.fleet_prepare_s
            + self.fleet_dispatch_s
    }

    /// Fusion rejections over every reason.
    pub fn rejected(&self) -> u64 {
        self.rejects.iter().sum()
    }
}

#[derive(Debug)]
struct State {
    last: Instant,
    dispatched_since_begin: bool,
    a: Attribution,
}

/// The attributing sink. Use one per traced measurement, bracket each
/// traced call with [`LayerSink::begin`] / [`LayerSink::end`], and feed it
/// events from one thread (jobs = 1) so gaps are well defined.
#[derive(Debug)]
pub struct LayerSink {
    state: Mutex<State>,
}

impl Default for LayerSink {
    fn default() -> Self {
        LayerSink {
            state: Mutex::new(State {
                last: Instant::now(),
                dispatched_since_begin: false,
                a: Attribution::default(),
            }),
        }
    }
}

impl LayerSink {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("layer sink poisoned")
    }

    /// Starts a traced call: the next event's gap is measured from now.
    pub fn begin(&self) {
        let mut s = self.lock();
        s.last = Instant::now();
        s.dispatched_since_begin = false;
    }

    /// Ends a traced call: the time since the last event is unattributed
    /// (and kept as [`Attribution::last_tail_s`]).
    pub fn end(&self) {
        let mut s = self.lock();
        let now = Instant::now();
        let tail = now.duration_since(s.last).as_secs_f64();
        s.last = now;
        s.a.unattributed_s += tail;
        s.a.last_tail_s = tail;
    }

    /// A snapshot of everything attributed so far.
    pub fn snapshot(&self) -> Attribution {
        self.lock().a.clone()
    }
}

impl TraceSink for LayerSink {
    fn record(&self, event: TraceEvent) {
        let now = Instant::now();
        let mut guard = self.lock();
        let State {
            last,
            dispatched_since_begin,
            a,
        } = &mut *guard;
        let gap = now.duration_since(*last).as_secs_f64();
        *last = now;
        match event {
            TraceEvent::Decision { kind, .. } => {
                a.manager_s += gap;
                a.decisions += 1;
                match kind {
                    DecisionKind::Fuse => a.fused += 1,
                    DecisionKind::Reorder => a.reordered += 1,
                    _ => {}
                }
            }
            TraceEvent::FusionRejected { reason, .. } => {
                a.manager_s += gap;
                let i = REJECT_REASONS
                    .iter()
                    .position(|r| *r == reason)
                    .expect("every reason is listed");
                a.rejects[i] += 1;
            }
            TraceEvent::KernelRetired { .. } => a.device_s += gap,
            TraceEvent::ModelRefresh { .. } => {
                a.predictor_s += gap;
                a.refreshes += 1;
            }
            TraceEvent::QueryCompleted { .. } => {
                a.serve_s += gap;
                a.completed += 1;
            }
            TraceEvent::QueryDispatched { .. } => {
                if *dispatched_since_begin {
                    a.fleet_dispatch_s += gap;
                } else {
                    a.fleet_prepare_s += gap;
                }
                a.dispatched += 1;
                *dispatched_since_begin = true;
            }
            _ => a.unattributed_s += gap,
        }
    }
}
