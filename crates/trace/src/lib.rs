//! Structured tracing and metrics for the Tacker reproduction.
//!
//! The paper's core claims are *observability* claims: Figs. 1/2/15 exist
//! to expose "false high utilization" and fused-kernel pipeline overlap,
//! and §VII's manager is judged by predicted-vs-actual duration error.
//! This crate is the cross-cutting layer that makes those signals
//! first-class instead of post-hoc:
//!
//! * [`TraceSink`] — where typed [`TraceEvent`]s go. [`NoopSink`] is the
//!   zero-overhead default (emission sites hoist `enabled()` into a bool
//!   checked before constructing any event), [`RingSink`] keeps the last N
//!   events in memory for tests and exporters, [`JsonLinesSink`] streams
//!   events as JSON lines to any writer.
//! * [`TraceEvent`] — the event vocabulary of the three layers that
//!   matter: the discrete-event engine (pipeline busy intervals, FCFS
//!   server queue/wait statistics, barrier arrivals and releases, deadlock
//!   context), the QoS manager (every fuse/reorder/LC decision with its
//!   headroom, Equation-8 inputs, predicted `T_fuse` and `T_gain`), and
//!   the profiler (prediction error per kernel, model-refresh triggers).
//! * [`MetricsRegistry`] — named [`Counter`]s and [`Gauge`]s.
//! * [`chrome`] — a Chrome trace-event (Perfetto-compatible) exporter
//!   rendering the device timeline, per-pipeline utilization counters, and
//!   scheduler decisions as instant events.
//! * [`quantile`] — the workspace's single rank definition plus
//!   [`QuantileSketch`], a mergeable fixed-memory DDSketch-style quantile
//!   sketch that backs `LatencyStats` in the serving runtime — the one
//!   structure latency distributions stream into, so they never require
//!   retaining and sorting every sample.
//! * [`timeseries`] — fixed-width simulated-time windows aggregating
//!   pipeline utilization, QoS headroom, guard state, arrival/completion
//!   rates and fused-cache hit rate, emitted as [`TraceEvent::WindowStats`].
//! * [`export`] — Prometheus text exposition of a [`MetricsRegistry`]
//!   with latency sketches as summaries, JSONL rendering of window rows, plus a summarizer for both formats
//!   (the `stats` CLI subcommand).

pub mod chrome;
pub mod event;
pub mod export;
pub mod metrics;
pub mod quantile;
pub mod sink;
pub mod timeseries;

pub use chrome::chrome_trace;
pub use event::{DecisionKind, FusionRejectReason, Pipeline, ServerKind, TraceEvent};
pub use export::{prometheus_text, summarize, timeseries_jsonl};
pub use metrics::{Counter, Gauge, MetricsRegistry};
pub use quantile::{nearest_rank, QuantileSketch};
pub use sink::{JsonLinesSink, NoopSink, RingSink, TraceSink};
pub use timeseries::{SpanKind, WindowRow, WindowSeries};

/// Utilization above which a pipeline counts as *active* on a timeline
/// entry. Shared by `tacker-sim`'s [`TimelineEntry`] activity queries and
/// the [`chrome`] exporter so both agree on what lands on a pipeline
/// track (Figs. 1/2/15's notion of a busy pipeline).
///
/// [`TimelineEntry`]: https://docs.rs/tacker-sim
pub const PIPELINE_ACTIVE_THRESHOLD: f64 = 0.05;
