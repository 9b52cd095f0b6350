//! Fixed-width simulated-time windows over the serving timeline.
//!
//! The serving runtime feeds every launch span, arrival, completion and
//! guard observation into a [`WindowSeries`]; the series slices them into
//! fixed-width windows of simulated time and produces one [`WindowRow`]
//! per *non-empty* window with:
//!
//! * SM busy time and per-pipeline (Tensor / CUDA) busy time, from which
//!   the row derives utilization fractions — launch spans that straddle a
//!   window boundary are apportioned by overlap;
//! * QoS headroom (Equation 8/9 margin): the *minimum* headroom observed
//!   at any scheduling point inside the window;
//! * the guard ladder level in effect at the window's close
//!   (last-write-wins inside the window);
//! * arrival / completion / violation counts and launch counts by kind
//!   (LC, BE, fused), plus fused-plan cache hit/miss deltas;
//! * the maximum queue depth seen at any admission in the window.
//!
//! Windows with no activity at all are **omitted** (the row index still
//! advances, so gaps are visible in the emitted series); this keeps long
//! idle tails free. Closed rows are handed to an emit callback — the
//! runtime forwards them as [`TraceEvent::WindowStats`](crate::TraceEvent)
//! through the active sink — and collected for the final report.

use tacker_kernel::SimTime;

use crate::event::{push_str_field, push_time_field};

/// What kind of launch a span records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A solo latency-critical kernel.
    Lc,
    /// A solo best-effort kernel.
    Be,
    /// A fused (LC, BE) kernel.
    Fused,
}

/// One closed telemetry window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRow {
    /// Window index (`start = index * width`); indices of all-empty
    /// windows are skipped.
    pub index: u64,
    /// Window start instant (inclusive).
    pub start: SimTime,
    /// Window end instant (exclusive).
    pub end: SimTime,
    /// Time any kernel occupied the SM inside the window.
    pub busy: SimTime,
    /// Tensor-pipeline busy time inside the window (span duration scaled
    /// by the span's Tensor utilization).
    pub tc_busy: SimTime,
    /// CUDA-pipeline busy time inside the window.
    pub cd_busy: SimTime,
    /// Queries admitted inside the window.
    pub arrivals: u64,
    /// Queries completed inside the window.
    pub completions: u64,
    /// Completions that missed their QoS target.
    pub violations: u64,
    /// Solo LC launches started inside the window.
    pub lc_launches: u64,
    /// Solo BE launches started inside the window.
    pub be_launches: u64,
    /// Fused launches started inside the window.
    pub fused_launches: u64,
    /// Fused-plan cache hits accrued inside the window.
    pub fused_cache_hits: u64,
    /// Fused-plan cache misses accrued inside the window.
    pub fused_cache_misses: u64,
    /// Maximum queue depth observed at any admission inside the window.
    pub queue_depth_max: u64,
    /// Minimum Equation 8/9 QoS headroom observed at any scheduling point
    /// inside the window (`None` if no scheduling point fell here).
    pub headroom_min: Option<SimTime>,
    /// Guard ladder level in effect when the window closed (`None` when
    /// the guard is disarmed).
    pub guard_level: Option<&'static str>,
}

impl WindowRow {
    /// Whether anything at all was recorded in this window.
    pub fn has_activity(&self) -> bool {
        self.busy > SimTime::ZERO
            || self.arrivals > 0
            || self.completions > 0
            || self.violations > 0
            || self.lc_launches > 0
            || self.be_launches > 0
            || self.fused_launches > 0
            || self.fused_cache_hits > 0
            || self.fused_cache_misses > 0
            || self.headroom_min.is_some()
    }

    /// Window width.
    pub fn width(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }

    /// Fraction of the window any kernel occupied the SM.
    pub fn sm_utilization(&self) -> f64 {
        self.busy.ratio(self.width())
    }

    /// Tensor-pipeline utilization over the window.
    pub fn tc_utilization(&self) -> f64 {
        self.tc_busy.ratio(self.width())
    }

    /// CUDA-pipeline utilization over the window.
    pub fn cd_utilization(&self) -> f64 {
        self.cd_busy.ratio(self.width())
    }

    /// Fused-plan cache hit rate inside the window (`None` when the cache
    /// was not consulted).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.fused_cache_hits + self.fused_cache_misses;
        (total > 0).then(|| self.fused_cache_hits as f64 / total as f64)
    }

    /// Appends this row's fields (comma-first, stable order) to a JSON
    /// object under construction — shared by
    /// [`TraceEvent::WindowStats`](crate::TraceEvent) and the JSONL
    /// exporter.
    pub(crate) fn push_json_fields(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(out, ",\"index\":{}", self.index);
        push_time_field(out, "start", self.start);
        push_time_field(out, "end", self.end);
        push_time_field(out, "busy", self.busy);
        push_time_field(out, "tc_busy", self.tc_busy);
        push_time_field(out, "cd_busy", self.cd_busy);
        let _ = write!(
            out,
            ",\"sm_util\":{:.4},\"tc_util\":{:.4},\"cd_util\":{:.4}",
            self.sm_utilization(),
            self.tc_utilization(),
            self.cd_utilization()
        );
        let _ = write!(
            out,
            ",\"arrivals\":{},\"completions\":{},\"violations\":{}",
            self.arrivals, self.completions, self.violations
        );
        let _ = write!(
            out,
            ",\"lc_launches\":{},\"be_launches\":{},\"fused_launches\":{}",
            self.lc_launches, self.be_launches, self.fused_launches
        );
        let _ = write!(
            out,
            ",\"cache_hits\":{},\"cache_misses\":{}",
            self.fused_cache_hits, self.fused_cache_misses
        );
        let _ = write!(out, ",\"queue_depth_max\":{}", self.queue_depth_max);
        if let Some(h) = self.headroom_min {
            push_time_field(out, "headroom_min", h);
        }
        if let Some(level) = self.guard_level {
            push_str_field(out, "guard", level);
        }
    }

    /// This row as one standalone JSON object (the JSONL line format,
    /// identical to the `"ev":"window"` trace event).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"ev\":\"window\"");
        self.push_json_fields(&mut out);
        out.push('}');
        out
    }
}

/// The in-progress window's counters. They live outside any
/// [`WindowRow`] while the window is open, so a rotation resets a few
/// words instead of rebuilding and moving a row; the row is built once,
/// in place, when the window closes with activity.
#[derive(Debug, Default)]
struct WindowAcc {
    busy_ns: u64,
    /// Pipeline busy time as f64 nanoseconds, summed per span in arrival
    /// order and truncated into the row on close — per-span float↔integer
    /// round trips are measurable on the serving hot path.
    tc_acc: f64,
    cd_acc: f64,
    arrivals: u64,
    completions: u64,
    violations: u64,
    lc_launches: u64,
    be_launches: u64,
    fused_launches: u64,
    fused_cache_hits: u64,
    fused_cache_misses: u64,
    queue_depth_max: u64,
    headroom_min: Option<SimTime>,
}

impl WindowAcc {
    /// [`WindowRow::has_activity`] of the row these counters build.
    fn has_activity(&self) -> bool {
        self.busy_ns > 0
            || self.arrivals > 0
            || self.completions > 0
            || self.violations > 0
            || self.lc_launches > 0
            || self.be_launches > 0
            || self.fused_launches > 0
            || self.fused_cache_hits > 0
            || self.fused_cache_misses > 0
            || self.headroom_min.is_some()
    }
}

/// A stream slicer: feeds of spans and instants come in simulated-time
/// order; closed non-empty [`WindowRow`]s come out through the emit
/// callback passed to each feed method.
#[derive(Debug)]
pub struct WindowSeries {
    width: SimTime,
    rows: Vec<WindowRow>,
    /// Index and bounds (`[start, end)`, nanoseconds) of the in-progress
    /// window.
    index: u64,
    start_ns: u64,
    end_ns: u64,
    acc: WindowAcc,
    /// Guard level carried across window boundaries (the level persists
    /// until the guard steps again).
    guard_level: Option<&'static str>,
}

impl WindowSeries {
    /// A new series with the given window width (clamped to ≥ 1 ns).
    pub fn new(width: SimTime) -> Self {
        let width = width.max(SimTime::from_nanos(1));
        WindowSeries {
            width,
            rows: Vec::with_capacity(128),
            index: 0,
            start_ns: 0,
            end_ns: width.as_nanos(),
            acc: WindowAcc::default(),
            guard_level: None,
        }
    }

    /// Window width.
    pub fn width(&self) -> SimTime {
        self.width
    }

    /// Builds the in-progress window's row and, if the window saw
    /// anything, collects and emits it. The activity check runs on the
    /// counters so the row is written once, straight into the collected
    /// vector: building it first and moving it in costs as much as the
    /// rest of a rotation.
    fn flush(&mut self, emit: &mut impl FnMut(&WindowRow)) {
        let a = &self.acc;
        if !a.has_activity() {
            return;
        }
        self.rows.push(WindowRow {
            index: self.index,
            start: SimTime::from_nanos(self.start_ns),
            end: SimTime::from_nanos(self.end_ns),
            busy: SimTime::from_nanos(a.busy_ns),
            tc_busy: SimTime::from_nanos(a.tc_acc as u64),
            cd_busy: SimTime::from_nanos(a.cd_acc as u64),
            arrivals: a.arrivals,
            completions: a.completions,
            violations: a.violations,
            lc_launches: a.lc_launches,
            be_launches: a.be_launches,
            fused_launches: a.fused_launches,
            fused_cache_hits: a.fused_cache_hits,
            fused_cache_misses: a.fused_cache_misses,
            queue_depth_max: a.queue_depth_max,
            headroom_min: a.headroom_min,
            guard_level: self.guard_level,
        });
        emit(self.rows.last().expect("row just pushed"));
    }

    /// Closes the in-progress window and opens the one at `index`.
    // Window rotation is rare next to the per-launch feeds below, which
    // are forced inline into the serving loop; rotation stays out of line.
    #[cold]
    #[inline(never)]
    fn rotate(&mut self, index: u64, emit: &mut impl FnMut(&WindowRow)) {
        self.flush(emit);
        let width = self.width.as_nanos();
        self.index = index;
        self.start_ns = index * width;
        self.end_ns = self.start_ns + width;
        self.acc = WindowAcc::default();
    }

    /// Advances the series so `t` falls inside the current window,
    /// closing (and emitting) every window that ends at or before `t`.
    /// All-empty windows between the current one and `t`'s are skipped
    /// without a row.
    #[inline(always)]
    pub fn seek(&mut self, t: SimTime, emit: &mut impl FnMut(&WindowRow)) {
        // Hot path: the instant falls in the current window — one compare,
        // no division. The serving engine seeks several times per launch.
        if t.as_nanos() < self.end_ns {
            return;
        }
        // Close the in-progress window, then jump straight to the target:
        // the windows in between saw nothing.
        self.rotate(t.as_nanos() / self.width.as_nanos(), emit);
    }

    /// Records one launch span `[start, end)` with the given pipeline
    /// utilizations, apportioning busy time across every window the span
    /// overlaps and counting the launch in the window containing `start`.
    #[inline(always)]
    pub fn on_span(
        &mut self,
        start: SimTime,
        end: SimTime,
        tc_util: f64,
        cd_util: f64,
        kind: SpanKind,
        emit: &mut impl FnMut(&WindowRow),
    ) {
        self.seek(start, emit);
        match kind {
            SpanKind::Lc => self.acc.lc_launches += 1,
            SpanKind::Be => self.acc.be_launches += 1,
            SpanKind::Fused => self.acc.fused_launches += 1,
        }
        let tc_util = tc_util.clamp(0.0, 1.0);
        let cd_util = cd_util.clamp(0.0, 1.0);
        let (mut s, end) = (start.as_nanos().max(self.start_ns), end.as_nanos());
        while s < end {
            let seg_end = end.min(self.end_ns);
            let d = seg_end - s;
            self.acc.busy_ns += d;
            let d_ns = d as f64;
            self.acc.tc_acc += d_ns * tc_util;
            self.acc.cd_acc += d_ns * cd_util;
            if seg_end == end {
                break;
            }
            self.rotate(self.index + 1, emit);
            s = self.start_ns;
        }
    }

    /// Records `n` query admissions at instant `t`.
    pub fn on_arrivals(&mut self, t: SimTime, n: u64, emit: &mut impl FnMut(&WindowRow)) {
        self.seek(t, emit);
        self.acc.arrivals += n;
    }

    /// Records one query completion at instant `t`.
    pub fn on_completion(&mut self, t: SimTime, violated: bool, emit: &mut impl FnMut(&WindowRow)) {
        self.seek(t, emit);
        self.acc.completions += 1;
        self.acc.violations += u64::from(violated);
    }

    /// Records the queue depth at an admission in the current window.
    pub fn on_queue_depth(&mut self, depth: u64) {
        self.acc.queue_depth_max = self.acc.queue_depth_max.max(depth);
    }

    /// Records the Equation 8/9 QoS headroom at a scheduling point.
    #[inline(always)]
    pub fn observe_headroom(
        &mut self,
        t: SimTime,
        headroom: SimTime,
        emit: &mut impl FnMut(&WindowRow),
    ) {
        self.seek(t, emit);
        self.acc.headroom_min = Some(self.acc.headroom_min.map_or(headroom, |h| h.min(headroom)));
    }

    /// Records the guard ladder level in effect (sticky across windows).
    pub fn set_guard(&mut self, level: Option<&'static str>) {
        self.guard_level = level;
    }

    /// Records fused-plan cache hit/miss deltas accrued since the last
    /// call, attributed to the current window.
    pub fn on_cache(&mut self, hits: u64, misses: u64) {
        self.acc.fused_cache_hits += hits;
        self.acc.fused_cache_misses += misses;
    }

    /// Closes the final in-progress window (if non-empty) and returns
    /// every collected row. Final rows keep the uniform window width.
    pub fn finish(mut self, emit: &mut impl FnMut(&WindowRow)) -> Vec<WindowRow> {
        self.flush(emit);
        self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn spans_apportion_across_window_boundaries() {
        let mut ws = WindowSeries::new(us(100));
        let mut emitted = Vec::new();
        let mut emit = |r: &WindowRow| emitted.push(r.clone());
        // A 150us span starting at 50us: 50us in window 0, 100us in
        // window 1.
        ws.on_span(us(50), us(200), 0.5, 1.0, SpanKind::Fused, &mut emit);
        let rows = ws.finish(&mut emit);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].busy, us(50));
        assert_eq!(rows[0].tc_busy, us(25));
        assert_eq!(rows[0].cd_busy, us(50));
        assert_eq!(rows[0].fused_launches, 1);
        assert_eq!(rows[1].busy, us(100));
        assert_eq!(rows[1].fused_launches, 0, "launch counted once");
        assert!((rows[1].sm_utilization() - 1.0).abs() < 1e-12);
        assert_eq!(emitted, rows);
    }

    #[test]
    fn empty_windows_are_skipped_with_index_gap() {
        let mut ws = WindowSeries::new(us(10));
        let mut emit = |_: &WindowRow| {};
        ws.on_arrivals(us(5), 1, &mut emit);
        // Jump far ahead: windows 1..=99 are all empty.
        ws.on_arrivals(us(1000), 2, &mut emit);
        let rows = ws.finish(&mut emit);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].index, 0);
        assert_eq!(rows[1].index, 100);
        assert_eq!(rows[1].start, us(1000));
        assert_eq!(rows[1].arrivals, 2);
    }

    #[test]
    fn headroom_min_and_guard_are_tracked() {
        let mut ws = WindowSeries::new(us(100));
        let mut emit = |_: &WindowRow| {};
        ws.set_guard(Some("fuse"));
        ws.observe_headroom(us(10), us(500), &mut emit);
        ws.observe_headroom(us(20), us(200), &mut emit);
        ws.observe_headroom(us(30), us(900), &mut emit);
        // Guard persists into later windows until changed.
        ws.on_completion(us(150), true, &mut emit);
        let rows = ws.finish(&mut emit);
        assert_eq!(rows[0].headroom_min, Some(us(200)));
        assert_eq!(rows[0].guard_level, Some("fuse"));
        assert_eq!(rows[1].guard_level, Some("fuse"));
        assert_eq!(rows[1].violations, 1);
        assert_eq!(rows[1].completions, 1);
    }

    #[test]
    fn json_row_is_stable() {
        let mut ws = WindowSeries::new(us(100));
        let mut emit = |_: &WindowRow| {};
        ws.set_guard(Some("reorder_only"));
        ws.on_arrivals(us(1), 3, &mut emit);
        ws.on_queue_depth(7);
        ws.on_cache(4, 1);
        let rows = ws.finish(&mut emit);
        let json = rows[0].to_json();
        assert!(json.starts_with("{\"ev\":\"window\",\"index\":0"), "{json}");
        assert!(json.contains("\"arrivals\":3"), "{json}");
        assert!(json.contains("\"queue_depth_max\":7"), "{json}");
        assert!(
            json.contains("\"cache_hits\":4,\"cache_misses\":1"),
            "{json}"
        );
        assert!(json.contains("\"guard\":\"reorder_only\""), "{json}");
        assert!(json.ends_with('}'), "{json}");
    }

    #[test]
    fn totals_are_preserved_across_windows() {
        let mut ws = WindowSeries::new(us(7));
        let mut emit = |_: &WindowRow| {};
        let mut total_busy = SimTime::ZERO;
        for i in 0..40u64 {
            let start = us(i * 13);
            let end = start + us(9);
            total_busy += us(9);
            let kind = match i % 3 {
                0 => SpanKind::Lc,
                1 => SpanKind::Be,
                _ => SpanKind::Fused,
            };
            ws.on_span(start, end, 0.3, 0.6, kind, &mut emit);
        }
        let rows = ws.finish(&mut emit);
        let busy: u64 = rows.iter().map(|r| r.busy.as_nanos()).sum();
        assert_eq!(busy, total_busy.as_nanos());
        let launches: u64 = rows
            .iter()
            .map(|r| r.lc_launches + r.be_launches + r.fused_launches)
            .sum();
        assert_eq!(launches, 40);
    }
}
