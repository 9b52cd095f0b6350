//! Event queues for the discrete-event engine.
//!
//! The engine drains events in a **total order**: ascending `time`, ties
//! broken by ascending `seq` (scheduling order). Because every event
//! carries a unique `seq`, the order is total — so any correct priority
//! queue drains the same stream, and the engine's results are independent
//! of the queue implementation. Two implementations are provided behind
//! the [`SimQueue`] trait (the engine is monomorphized over it, so the
//! hot loop pays no per-event dispatch):
//!
//! * [`HeapQueue`] — the reference `BinaryHeap` (min-heap via reversed
//!   comparator), `O(log n)` per transaction;
//! * [`CalendarQueue`] — a calendar/bucket queue over **packed events**:
//!   the whole event `(time, seq, warp)` lives in one `u128` whose
//!   unsigned order equals the event total order (the `total_cmp` bit
//!   transform of the time in the high 64 bits, then `seq`, then the
//!   warp id — see [`pack_key`]). A bucket is a flat `Vec<u128>`: a push
//!   is one 16-byte append, a bucket sort compares machine words with no
//!   indirection, and a pop reconstructs the time from the key
//!   bit-exactly (the transform is a bijection). There is no per-event
//!   allocation anywhere — buckets, the drain ring and the overflow
//!   rung all recycle their storage across runs via [`CalendarQueue::reset`].
//!
//! The calendar drains **batched**: when the window cursor reaches a
//! non-empty bucket, the whole bucket is swapped into a scratch drain
//! ring and sorted once (descending, minimum at the back); subsequent
//! pops are `Vec::pop` plus a single rung check, instead of a per-pop
//! ladder walk. Bucket boundaries never reorder events — the bucket
//! index is monotone in `time` and the in-bucket sort uses the full
//! packed key — so the drain order is **bit-identical** to the heap's.
//!
//! [`SimQueue::pop_with_hint`] pairs each pop with a conservative lower
//! bound on the next pending time, which the engine's macro-stepper
//! uses as its safety bound: a warp may only be advanced inline while
//! its next event would still be the global minimum.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Maps `f64` to `u64` such that unsigned integer order equals
/// [`f64::total_cmp`] order (the sign-magnitude to two's-complement
/// transform, then a sign-bit flip for unsigned comparison). Bijective;
/// [`time_from_key_bits`] inverts it exactly.
#[inline]
fn time_key_bits(time: f64) -> u64 {
    let mut b = time.to_bits() as i64;
    b ^= (((b >> 63) as u64) >> 1) as i64;
    (b as u64) ^ (1u64 << 63)
}

/// Inverse of [`time_key_bits`]: recovers the exact `f64` bit pattern.
/// (The transform never touches the sign bit, so the same mask that
/// encoded the low bits decodes them.)
#[inline]
fn time_from_key_bits(k: u64) -> f64 {
    let mut b = (k ^ (1u64 << 63)) as i64;
    b ^= (((b >> 63) as u64) >> 1) as i64;
    f64::from_bits(b as u64)
}

/// Packs a whole event into one `u128` whose unsigned order equals the
/// event total order: ascending `total_cmp` time (high 64 bits), then
/// ascending `seq` (middle 32), then the warp id (low 32, never reached
/// as a tiebreak because seqs are unique). `seq` must fit in 32 bits —
/// the engine resets its counter every run and no simulation approaches
/// 2³² scheduled events; [`CalendarQueue::push`] asserts it.
#[inline]
fn pack_key(time: f64, seq: u64, warp: u32) -> u128 {
    ((time_key_bits(time) as u128) << 64) | ((seq as u128) << 32) | warp as u128
}

#[inline]
fn key_warp(key: u128) -> u32 {
    key as u32
}

#[inline]
fn key_time(key: u128) -> f64 {
    time_from_key_bits((key >> 64) as u64)
}

/// The queue interface the engine's hot loop is monomorphized over.
///
/// Contract: `pop` returns `(time, warp)` in ascending `(time, seq)`
/// order; `seq` values are unique, monotonically increasing across
/// pushes, and below `2³²`.
pub trait SimQueue {
    fn push(&mut self, time: f64, seq: u64, warp: u32);
    /// Reference single-event pop; the engine's hot loop uses
    /// [`Self::pop_with_hint`] instead, so this (and `peek_time`) serve
    /// the queue-equivalence tests.
    #[allow(dead_code)]
    fn pop(&mut self) -> Option<(f64, u32)>;
    /// Earliest pending event time, if any. May advance internal
    /// cursors (monotone, amortized against future pops).
    #[allow(dead_code)]
    fn peek_time(&mut self) -> Option<f64>;
    /// Pops the minimum event, returning `(time, warp, next_hint)`.
    /// `next_hint` is a **conservative lower bound** on the next
    /// pending event's time: the exact minimum when it is cheaply
    /// known, `f64::INFINITY` when the queue is now empty, and
    /// `f64::NEG_INFINITY` when an exact answer would cost a cursor
    /// advance (callers treat that as "no headroom"). The engine's
    /// macro-stepper compares candidate wake-ups strictly against this
    /// bound, so an underestimate only forgoes a coalesce — it can
    /// never reorder events.
    fn pop_with_hint(&mut self) -> Option<(f64, u32, f64)>;
}

/// Forwarding impl so the engine's calendar can borrow a queue from a
/// scratch arena (`Calendar<&mut CalendarQueue>`) instead of owning it.
impl<Q: SimQueue + ?Sized> SimQueue for &mut Q {
    #[inline]
    fn push(&mut self, time: f64, seq: u64, warp: u32) {
        (**self).push(time, seq, warp);
    }
    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        (**self).pop()
    }
    #[inline]
    fn peek_time(&mut self) -> Option<f64> {
        (**self).peek_time()
    }
    #[inline]
    fn pop_with_hint(&mut self) -> Option<(f64, u32, f64)> {
        (**self).pop_with_hint()
    }
}

/// One pending warp wake-up, as stored by the reference heap.
#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    warp: u32,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed (time, seq) so `BinaryHeap` acts as a min-heap: the
        // earliest time wins, and at equal times the smallest seq wins.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference min-queue over `(time, seq)`.
#[derive(Debug, Default, Clone)]
pub struct HeapQueue {
    heap: BinaryHeap<Event>,
}

impl HeapQueue {
    pub fn new() -> Self {
        HeapQueue::default()
    }

    /// Clears the queue for reuse, keeping its allocation.
    pub fn reset(&mut self) {
        self.heap.clear();
    }
}

impl SimQueue for HeapQueue {
    #[inline]
    fn push(&mut self, time: f64, seq: u64, warp: u32) {
        self.heap.push(Event { time, seq, warp });
    }

    #[inline]
    fn pop(&mut self) -> Option<(f64, u32)> {
        self.heap.pop().map(|e| (e.time, e.warp))
    }

    #[inline]
    fn peek_time(&mut self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    #[inline]
    fn pop_with_hint(&mut self) -> Option<(f64, u32, f64)> {
        // The heap's minimum is its root: the hint is always exact.
        self.heap.pop().map(|e| {
            let next = self.heap.peek().map_or(f64::INFINITY, |n| n.time);
            (e.time, e.warp, next)
        })
    }
}

/// Number of fixed-width buckets in the calendar window. Power of two so
/// ring indexing is a mask. Sized so the window spans typical scheduling
/// horizons; the engine reuses one calendar per thread (see the engine's
/// scratch), so the ring is allocated once per thread, not per run.
const CALENDAR_BUCKETS: usize = 512;

/// A calendar/bucket event queue over packed `u128` events.
///
/// The window covers `CALENDAR_BUCKETS × width` cycles starting at
/// `base_bucket × width`. Events inside the window append their packed
/// key to the bucket; events beyond it go to the `overflow` rung. When
/// the cursor reaches a non-empty bucket the bucket is swapped into the
/// `drain` ring and sorted once (descending, min at the back); a push
/// landing in the already-drained head bucket binary-searches its slot
/// in the ring so order is preserved. When every in-window bucket
/// drains, the window jumps to the earliest overflow event and the
/// overflow rung is re-dealt — each far-future event is touched once
/// per ladder hop, never per pop.
///
/// An event parked on the rung can come to lie *inside* the window as
/// `base_bucket` advances, while newer pushes land in buckets beyond it
/// — so bucket position alone does not order the rung against the
/// window. Every pop/peek therefore compares the drain-ring minimum
/// with the rung minimum (the rung is kept lazily sorted) and takes the
/// global key minimum, keeping the drain order exactly the heap's. The
/// rung is empty for typical plans, so the check is one branch.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    width: f64,
    /// `1 / width`: bucketing multiplies instead of divides. Any
    /// monotone map from time to bucket index preserves the drain order
    /// (events in a strictly earlier bucket have strictly smaller
    /// times), so the multiply's rounding differences vs division are
    /// harmless.
    inv_width: f64,
    buckets: Vec<Vec<u128>>,
    /// Occupancy bitmap over the bucket ring, one bit per slot: set iff
    /// the bucket is non-empty. The cursor advance finds the next
    /// occupied bucket with `trailing_zeros` over at most eight words
    /// instead of probing empty buckets one by one — with realistic
    /// service times consecutive events skip many buckets, and that
    /// per-pop probe walk dominated the queue's cost.
    occupied: [u64; CALENDAR_BUCKETS / 64],
    /// Absolute bucket index of ring slot `head`.
    base_bucket: u64,
    /// Ring slot holding bucket `base_bucket`.
    head: usize,
    /// Events resident in window buckets (excluding the drain ring).
    in_buckets: usize,
    /// The current head bucket's contents, sorted ascending; the live
    /// region is `drain[drain_pos..]` (popping advances the cursor
    /// instead of shifting memory). Buckets fill in roughly ascending
    /// time order, so the ascending sort runs near-linear on the
    /// already-sorted runs pdqsort detects. Valid only when
    /// `head_drained`.
    drain: Vec<u128>,
    drain_pos: usize,
    /// Whether bucket `base_bucket` has been swapped into `drain`.
    head_drained: bool,
    /// Events past the window at push time (absolute bucket ≥
    /// `base_bucket + CALENDAR_BUCKETS` when pushed).
    overflow: Vec<u128>,
    /// Whether `overflow` is currently sorted descending.
    overflow_sorted: bool,
}

impl CalendarQueue {
    /// Creates a queue with the given bucket width in cycles. Widths are
    /// clamped to a small positive minimum so degenerate specs cannot
    /// produce a zero-width (infinite-bucket-index) calendar.
    pub fn new(width: f64) -> Self {
        let width = clamp_width(width);
        CalendarQueue {
            width,
            inv_width: 1.0 / width,
            buckets: (0..CALENDAR_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; CALENDAR_BUCKETS / 64],
            base_bucket: 0,
            head: 0,
            in_buckets: 0,
            drain: Vec::new(),
            drain_pos: 0,
            head_drained: false,
            overflow: Vec::new(),
            overflow_sorted: true,
        }
    }

    /// Clears the queue for reuse with a (possibly new) bucket width,
    /// keeping every allocation: the bucket ring, the drain ring and
    /// the rung.
    pub fn reset(&mut self, width: f64) {
        let width = clamp_width(width);
        self.width = width;
        self.inv_width = 1.0 / width;
        // After a clean drain every bucket is already empty
        // (`in_buckets` counts bucket residents); only an aborted run
        // (deadlock) leaves stragglers. Skipping the 512-slot sweep on
        // the clean path matters for short simulations, where reset is
        // a visible share of the per-run cost.
        if self.in_buckets != 0 {
            for bucket in &mut self.buckets {
                bucket.clear();
            }
        }
        self.occupied = [0; CALENDAR_BUCKETS / 64];
        self.base_bucket = 0;
        self.head = 0;
        self.in_buckets = 0;
        self.drain.clear();
        self.drain_pos = 0;
        self.head_drained = false;
        self.overflow.clear();
        self.overflow_sorted = true;
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.in_buckets == 0 && self.drain_pos == self.drain.len() && self.overflow.is_empty()
    }

    #[inline]
    fn bucket_of(&self, time: f64) -> u64 {
        // Times are non-negative cycles; casts saturate safely for the
        // magnitudes the engine produces.
        (time * self.inv_width) as u64
    }

    /// Routes one packed event to the drain ring, a window bucket, or
    /// the rung. Shared by [`SimQueue::push`] and the ladder re-deal.
    /// `inline(always)`: a plain hint leaves this as an out-of-line
    /// call on the push path once the engine loop grows.
    #[inline(always)]
    fn place(&mut self, key: u128, time: f64) {
        // Scheduled times never precede the drain cursor, but clamp for
        // float-edge safety so no event can land behind the window.
        let b = self.bucket_of(time).max(self.base_bucket);
        let idx = (b - self.base_bucket) as usize;
        if idx >= CALENDAR_BUCKETS {
            self.overflow.push(key);
            self.overflow_sorted = false;
            return;
        }
        if idx == 0 && self.head_drained {
            // The head bucket already lives in the drain ring: insert
            // into the live (ascending) region so the ring stays
            // sorted. Keys behind the cursor are already popped and
            // strictly smaller, so the search starts at the cursor.
            let pos = self.drain_pos + self.drain[self.drain_pos..].partition_point(|&k| k < key);
            self.drain.insert(pos, key);
            return;
        }
        let ring = (self.head + idx) & (CALENDAR_BUCKETS - 1);
        self.buckets[ring].push(key);
        self.occupied[ring >> 6] |= 1 << (ring & 63);
        self.in_buckets += 1;
    }

    /// Ring distance (0..512) from `head` to the nearest occupied
    /// bucket, scanning the bitmap a word at a time. Requires
    /// `in_buckets > 0`.
    #[inline]
    fn next_occupied_distance(&self) -> usize {
        const WORDS: usize = CALENDAR_BUCKETS / 64;
        let wi = self.head >> 6;
        let bit = self.head & 63;
        let first = self.occupied[wi] >> bit;
        if first != 0 {
            return first.trailing_zeros() as usize;
        }
        for k in 1..=WORDS {
            let w = self.occupied[(wi + k) & (WORDS - 1)];
            if w != 0 {
                // For `k == WORDS` this re-reads `head`'s own word:
                // its bits at or above `bit` were just seen to be
                // clear, so a hit here is a low bit — ring distance
                // still below `CALENDAR_BUCKETS`.
                return (64 - bit) + (k - 1) * 64 + w.trailing_zeros() as usize;
            }
        }
        unreachable!("in_buckets > 0 guarantees an occupied bucket")
    }

    /// Advances the cursor until the drain ring is ready (non-empty),
    /// hopping the overflow ladder when the window is dry. Requires
    /// `len() > 0`.
    fn advance(&mut self) {
        loop {
            if self.drain_pos < self.drain.len() {
                return;
            }
            if self.in_buckets == 0 {
                // Window dry: hop the ladder to the earliest overflow
                // event and re-deal the rung.
                debug_assert!(!self.overflow.is_empty());
                let min_bucket = self
                    .overflow
                    .iter()
                    .map(|&k| self.bucket_of(key_time(k)))
                    .min()
                    .expect("overflow non-empty");
                self.base_bucket = min_bucket;
                self.head = 0;
                self.head_drained = false;
                let pending = std::mem::take(&mut self.overflow);
                self.overflow_sorted = true; // now empty; pushes may refill
                for key in pending {
                    self.place(key, key_time(key));
                }
                continue;
            }
            // Jump the cursor straight to the next occupied bucket
            // (the bitmap guarantees one while `in_buckets > 0`), then
            // swap it into the drain ring and sort it once; pops are
            // then a cursor bump.
            let dist = self.next_occupied_distance();
            self.head = (self.head + dist) & (CALENDAR_BUCKETS - 1);
            self.base_bucket += dist as u64;
            self.drain.clear();
            self.drain_pos = 0;
            std::mem::swap(&mut self.drain, &mut self.buckets[self.head]);
            self.occupied[self.head >> 6] &= !(1 << (self.head & 63));
            self.in_buckets -= self.drain.len();
            self.head_drained = true;
            self.drain.sort_unstable();
            return;
        }
    }

    /// Whether the overflow rung's minimum drains before the drain
    /// ring's minimum. Sorts the rung lazily. Requires a non-empty
    /// drain ring (i.e. call after [`Self::advance`]).
    #[inline]
    fn rung_min_first(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        if !self.overflow_sorted {
            self.overflow.sort_unstable_by(|a, b| b.cmp(a));
            self.overflow_sorted = true;
        }
        match (self.overflow.last(), self.drain.get(self.drain_pos)) {
            (Some(&o), Some(&d)) => o < d,
            _ => unreachable!("rung_min_first called with an empty drain ring"),
        }
    }
}

impl SimQueue for CalendarQueue {
    #[inline(always)]
    fn push(&mut self, time: f64, seq: u64, warp: u32) {
        // The packed layout gives seq 32 bits; see `pack_key`.
        assert!(seq <= u32::MAX as u64, "event seq overflows packed key");
        self.place(pack_key(time, seq, warp), time);
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        self.pop_with_hint().map(|(time, warp, _)| (time, warp))
    }

    #[inline]
    fn peek_time(&mut self) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        self.advance();
        let key = if self.rung_min_first() {
            *self.overflow.last().expect("rung min exists")
        } else {
            self.drain[self.drain_pos]
        };
        Some(key_time(key))
    }

    #[inline(always)]
    fn pop_with_hint(&mut self) -> Option<(f64, u32, f64)> {
        // Fast path — the overwhelmingly common transaction: the drain
        // ring has the minimum and the rung is empty. One combined
        // branch guards it, and the bounds checks below are dominated
        // by the guard, so the whole path is a handful of loads.
        let pos = self.drain_pos;
        if pos < self.drain.len() && self.overflow.is_empty() {
            let key = self.drain[pos];
            self.drain_pos = pos + 1;
            let hint = if pos + 1 < self.drain.len() {
                key_time(self.drain[pos + 1])
            } else if self.in_buckets > 0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            };
            return Some((key_time(key), key_warp(key), hint));
        }
        self.pop_slow()
    }
}

impl CalendarQueue {
    /// The out-of-line remainder of [`SimQueue::pop_with_hint`]: drain
    /// ring exhausted (cursor advance / ladder hop needed) or a
    /// non-empty overflow rung to arbitrate against.
    #[cold]
    fn pop_slow(&mut self) -> Option<(f64, u32, f64)> {
        if self.is_empty() {
            return None;
        }
        self.advance();
        let key = if self.rung_min_first() {
            self.overflow.pop().expect("rung min exists")
        } else {
            let key = self.drain[self.drain_pos];
            self.drain_pos += 1;
            key
        };
        // The hint: exact whenever the answer is already at hand (the
        // drain ring still holds events, or only the — sorted — rung
        // remains), `NEG_INFINITY` when finding it would mean scanning
        // buckets (the next pop pays that scan exactly once either way).
        let hint = match self.drain.get(self.drain_pos) {
            Some(&d) => {
                // `rung_min_first` above sorted a non-empty rung.
                match self.overflow.last() {
                    Some(&o) => key_time(d.min(o)),
                    None => key_time(d),
                }
            }
            None if self.in_buckets > 0 => f64::NEG_INFINITY,
            None => match self.overflow.last() {
                Some(&o) => key_time(o),
                None => f64::INFINITY,
            },
        };
        Some((key_time(key), key_warp(key), hint))
    }
}

#[inline]
fn clamp_width(width: f64) -> f64 {
    if width.is_finite() && width > 1e-9 {
        width
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(q: &mut impl SimQueue, time: f64, seq: u64) {
        // Tests tag each event's payload (warp) with its seq so drain
        // order is observable through the returned warp ids.
        q.push(time, seq, seq as u32);
    }

    fn pop_seq(q: &mut impl SimQueue) -> Option<u64> {
        q.pop().map(|(_, warp)| warp as u64)
    }

    #[test]
    fn packed_key_order_matches_time_then_seq() {
        let samples = [0.0, 1.0, 1.5, 1e7, f64::MAX];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    time_key_bits(a).cmp(&time_key_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
                // The transform is a bijection: times survive a pack /
                // unpack round trip bit-exactly.
                assert_eq!(time_from_key_bits(time_key_bits(a)).to_bits(), a.to_bits());
            }
        }
        assert!(pack_key(1.0, 5, 9) < pack_key(1.0, 6, 0));
        assert!(pack_key(1.0, 6, 0) < pack_key(2.0, 0, 0));
        assert_eq!(key_warp(pack_key(3.5, 7, 42)), 42);
        assert_eq!(key_time(pack_key(3.5, 7, 42)), 3.5);
    }

    /// Pins the event total order: ascending time, ties broken by
    /// ascending seq (scheduling order). The calendar queue's drain
    /// order is specified to be exactly this.
    #[test]
    fn event_order_is_time_then_seq() {
        let mut heap = HeapQueue::new();
        for (time, seq) in [(5.0, 4), (1.0, 3), (5.0, 1), (1.0, 7), (0.0, 9)] {
            push(&mut heap, time, seq);
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|(time, warp)| (time as u64, warp as u64))
            .collect();
        assert_eq!(order, [(0, 9), (1, 3), (1, 7), (5, 1), (5, 4)]);
    }

    #[test]
    fn calendar_matches_heap_on_random_stream() {
        // Deterministic pseudo-random interleaving of pushes and pops.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut heap = HeapQueue::new();
        let mut cal = CalendarQueue::new(2.0);
        let mut seq = 0u64;
        let mut cursor = 0.0f64; // pops never go backwards in time
        for _ in 0..20_000 {
            let r = next();
            if r % 5 < 3 {
                // Push at cursor + jittered offset; occasionally far
                // future so the overflow ladder engages.
                let off = if r % 97 == 0 {
                    (r % 100_000) as f64
                } else if r % 89 == 0 {
                    // Straddles the window edge (512 × 2.0 cycles), so
                    // rung events later fall inside the sliding window.
                    (r % 8_192) as f64
                } else {
                    (r % 512) as f64 * 0.25
                };
                seq += 1;
                push(&mut heap, cursor + off, seq);
                push(&mut cal, cursor + off, seq);
            } else {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(
                    a.map(|(t, w)| (t.to_bits(), w)),
                    b.map(|(t, w)| (t.to_bits(), w))
                );
                if let Some((t, _)) = a {
                    cursor = t;
                }
            }
        }
        // Drain the rest: identical tails.
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(
                a.map(|(t, w)| (t.to_bits(), w)),
                b.map(|(t, w)| (t.to_bits(), w))
            );
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_handles_ties_in_one_bucket() {
        let mut cal = CalendarQueue::new(4.0);
        push(&mut cal, 8.0, 2);
        push(&mut cal, 8.0, 1);
        push(&mut cal, 9.0, 3);
        assert_eq!(cal.peek_time(), Some(8.0));
        // Insert into the already-drained head bucket: order holds.
        push(&mut cal, 8.5, 4);
        let seqs: Vec<u64> = std::iter::from_fn(|| pop_seq(&mut cal)).collect();
        assert_eq!(seqs, [1, 2, 4, 3]);
    }

    #[test]
    fn overflow_ladder_promotes_far_future_events() {
        let mut cal = CalendarQueue::new(1.0);
        // Far beyond the window: lands on the overflow rung.
        push(&mut cal, 1e7, 1);
        push(&mut cal, 1e7 + 0.5, 2);
        push(&mut cal, 3.0, 3);
        assert_eq!(pop_seq(&mut cal), Some(3));
        assert_eq!(cal.peek_time(), Some(1e7));
        assert_eq!(pop_seq(&mut cal), Some(1));
        assert_eq!(pop_seq(&mut cal), Some(2));
        assert_eq!(pop_seq(&mut cal), None);
    }

    /// Regression: an event pushed onto the overflow rung stays there
    /// as the window slides over its bucket. A newer in-window event
    /// beyond it must not drain first — pop compares the rung minimum
    /// against the drain ring.
    #[test]
    fn rung_event_inside_window_drains_in_order() {
        let mut cal = CalendarQueue::new(1.0);
        // Bucket 3000 lies beyond the initial window [0, 512): rung.
        push(&mut cal, 3000.0, 1);
        push(&mut cal, 250.0, 2);
        assert_eq!(pop_seq(&mut cal), Some(2));
        // The window can slide over bucket 3000, but seq 1 is still on
        // the rung; this newer push lands in an in-window bucket.
        push(&mut cal, 3100.0, 3);
        assert_eq!(cal.peek_time(), Some(3000.0));
        assert_eq!(pop_seq(&mut cal), Some(1));
        assert_eq!(pop_seq(&mut cal), Some(3));
        assert_eq!(pop_seq(&mut cal), None);
    }

    #[test]
    fn degenerate_width_is_clamped() {
        let mut cal = CalendarQueue::new(0.0);
        push(&mut cal, 10.0, 1);
        assert_eq!(pop_seq(&mut cal), Some(1));
        let mut cal = CalendarQueue::new(f64::NAN);
        push(&mut cal, 2.0, 1);
        push(&mut cal, 1.0, 2);
        assert_eq!(pop_seq(&mut cal), Some(2));
    }

    /// The pop hint is a conservative lower bound: exact when the drain
    /// ring has the answer, `INFINITY` on empty, `NEG_INFINITY` instead
    /// of a bucket scan.
    #[test]
    fn pop_hint_bounds_the_next_event() {
        let mut cal = CalendarQueue::new(2.0);
        push(&mut cal, 1.0, 1);
        push(&mut cal, 1.5, 2); // same bucket: exact hint
        push(&mut cal, 100.0, 3); // far bucket: hidden behind a scan
        let (t, _, hint) = cal.pop_with_hint().unwrap();
        assert_eq!(t, 1.0);
        assert_eq!(hint, 1.5);
        let (t, _, hint) = cal.pop_with_hint().unwrap();
        assert_eq!(t, 1.5);
        assert_eq!(hint, f64::NEG_INFINITY); // bucket scan not paid here
        let (t, _, hint) = cal.pop_with_hint().unwrap();
        assert_eq!(t, 100.0);
        assert_eq!(hint, f64::INFINITY);
        assert!(cal.pop_with_hint().is_none());
    }

    /// Reset clears every region — buckets, drain ring, rung — even
    /// after a partially drained (aborted) run, and keeps the queue
    /// usable with a new width.
    #[test]
    fn reset_recycles_a_partially_drained_queue() {
        let mut cal = CalendarQueue::new(2.0);
        push(&mut cal, 1.0, 1);
        push(&mut cal, 1e7, 2); // rung
        push(&mut cal, 5.0, 3);
        assert_eq!(pop_seq(&mut cal), Some(1)); // leaves drain + rung populated
        cal.reset(4.0);
        assert_eq!(cal.pop(), None);
        push(&mut cal, 2.0, 4);
        push(&mut cal, 1.0, 5);
        assert_eq!(pop_seq(&mut cal), Some(5));
        assert_eq!(pop_seq(&mut cal), Some(4));
        assert_eq!(cal.pop(), None);
    }
}
