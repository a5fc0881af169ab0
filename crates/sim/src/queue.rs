//! Event-queue implementations for the simulator core.
//!
//! The simulator's contract is strict: events execute in ascending
//! `(time, sequence)` order, where the sequence number is assigned at push
//! time — same-timestamp events run in FIFO order. Two implementations
//! honor it:
//!
//! * [`CalendarQueue`] — the production queue. A ring of unit-time buckets
//!   (all simulator delays are small integers: hop latencies and short
//!   timers), with a binary-heap overflow for events beyond the current
//!   bucket window and geometric window growth under overflow pressure.
//!   Push and pop are O(1) amortized, against `BTreeMap`'s O(log n) with
//!   node churn on every operation.
//! * [`BTreeQueue`] — the reference implementation (the simulator's
//!   original `BTreeMap<(SimTime, u64), Event>` core), kept as the
//!   behavioral oracle: property tests drive both with identical op
//!   sequences, and the determinism suite runs whole scenarios through
//!   each and asserts byte-identical reports.
//!
//! [`QueueKind`] selects between them at `Sim` construction time.

use crate::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Which event-queue implementation a [`Sim`](crate::Sim) uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Bucketed calendar queue (production default).
    #[default]
    Calendar,
    /// `BTreeMap` reference queue — the pre-calendar event core, kept as
    /// the ordering oracle for determinism cross-checks.
    BTree,
}

/// Initial bucket-window width (must be a power of two). Typical delays
/// are a handful of ticks, so almost everything lands in the window.
const INITIAL_SPAN: u64 = 1024;

/// Bucket windows stop doubling here; overflow beyond this span stays in
/// the heap (bounded memory for pathological far-future schedules).
const MAX_SPAN: u64 = 1 << 22;

/// An event parked in the overflow heap, ordered by `(at, seq)` only.
#[derive(Debug)]
struct Parked<T> {
    at: SimTime,
    seq: u64,
    ev: T,
}

impl<T> PartialEq for Parked<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Parked<T> {}
impl<T> PartialOrd for Parked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Parked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest first
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Bucketed calendar queue with unit-time buckets and an overflow heap.
///
/// Invariants:
/// * every bucketed event has `at` in the window `[cursor, cursor + span)`,
///   so each bucket holds at most one distinct timestamp at any moment and
///   per-bucket FIFO order is global `(at, seq)` order;
/// * `cursor` never exceeds the earliest queued event's time, and never
///   moves backwards;
/// * overflow events migrate into buckets (in `(at, seq)` order, which
///   preserves FIFO because their sequence numbers predate any bucketed
///   event they join) before any push or pop that could observe them.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `buckets[t & mask]` holds the events scheduled at time `t` for the
    /// window times; entries are `(at, seq, event)` in push order.
    buckets: Vec<VecDeque<(SimTime, u64, T)>>,
    /// `buckets.len() - 1`; the length is a power of two.
    mask: u64,
    /// Scan position: a lower bound on the earliest queued event time.
    cursor: SimTime,
    /// Number of events currently in buckets.
    bucketed: usize,
    /// Events at or beyond `cursor + span`.
    overflow: BinaryHeap<Parked<T>>,
    /// Next sequence number (FIFO tiebreak for equal timestamps).
    seq: u64,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::with_span(INITIAL_SPAN)
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with an explicit initial window width (rounded up to a
    /// power of two). Mainly for tests that want to exercise window
    /// growth; production code uses `Default`.
    pub fn with_span(span: u64) -> Self {
        let span = span.next_power_of_two().max(2);
        CalendarQueue {
            buckets: (0..span).map(|_| VecDeque::new()).collect(),
            mask: span - 1,
            cursor: 0,
            bucketed: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
        }
    }

    fn span(&self) -> u64 {
        self.buckets.len() as u64
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.bucketed + self.overflow.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` at `at`, after every already-queued event with the
    /// same timestamp.
    ///
    /// `at` must not precede an already-popped event (the simulator never
    /// schedules into the past); pushing earlier than the last popped time
    /// would violate the bucket-window invariant.
    pub fn push(&mut self, at: SimTime, ev: T) {
        let seq = self.seq;
        self.seq += 1;
        self.push_seq(at, seq, ev);
    }

    /// Schedules `ev` at `at` under an externally assigned sequence
    /// number. Within any timestamp, successive pushes must carry
    /// strictly increasing `seq`, which preserves the per-bucket FIFO
    /// invariant.
    pub fn push_seq(&mut self, at: SimTime, seq: u64, ev: T) {
        debug_assert!(
            at >= self.cursor,
            "push into the past: {at} < {}",
            self.cursor
        );
        if at.saturating_sub(self.cursor) >= self.span() {
            self.overflow.push(Parked { at, seq, ev });
            if self.overflow.len() > self.buckets.len() && self.span() < MAX_SPAN {
                self.grow();
            }
        } else {
            // keep FIFO: older (smaller-seq) overflow twins of this
            // timestamp must enter the bucket first
            self.migrate_due();
            self.bucket_insert(at, seq, ev);
        }
    }

    fn bucket_insert(&mut self, at: SimTime, seq: u64, ev: T) {
        let b = &mut self.buckets[(at & self.mask) as usize];
        debug_assert!(b.back().is_none_or(|&(t, s, _)| (t, s) < (at, seq)));
        b.push_back((at, seq, ev));
        self.bucketed += 1;
    }

    /// Moves every overflow event that now fits the window into its bucket.
    ///
    /// The window is `[cursor, cursor + span)`. Near the top of the time
    /// domain `cursor + span` overflows `u64`; a saturating add would pin
    /// the horizon at `u64::MAX` and the strict `<` comparison would then
    /// refuse to migrate an event scheduled *at* `u64::MAX` forever — the
    /// queue would report itself nonempty while the pop scan finds no
    /// bucketed event and runs off the end of time. `checked_add`
    /// distinguishes the two cases: `None` means the window already
    /// covers everything up to and including `u64::MAX` (its true size,
    /// `u64::MAX − cursor + 1`, is ≤ span exactly when the add overflows,
    /// so the one-timestamp-per-bucket invariant still holds).
    fn migrate_due(&mut self) {
        let horizon = self.cursor.checked_add(self.span());
        while self
            .overflow
            .peek()
            .is_some_and(|p| horizon.is_none_or(|h| p.at < h))
        {
            let Parked { at, seq, ev } = self.overflow.pop().expect("peeked");
            self.bucket_insert(at, seq, ev);
        }
    }

    /// Doubles the bucket window and re-homes everything.
    fn grow(&mut self) {
        let new_span = (self.span() * 2).min(MAX_SPAN);
        let mut all: Vec<(SimTime, u64, T)> = Vec::with_capacity(self.len());
        for b in &mut self.buckets {
            all.extend(b.drain(..));
        }
        all.extend(
            std::mem::take(&mut self.overflow)
                .into_iter()
                .map(|p| (p.at, p.seq, p.ev)),
        );
        all.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        self.buckets = (0..new_span).map(|_| VecDeque::new()).collect();
        self.mask = new_span - 1;
        self.bucketed = 0;
        // same overflow-aware horizon as `migrate_due`: a `None` means the
        // widened window reaches the end of the time domain, so nothing
        // may be parked back into overflow (an event at u64::MAX would
        // otherwise bounce between grow() and a migrate that never fires)
        let horizon = self.cursor.checked_add(new_span);
        for (at, seq, ev) in all {
            if horizon.is_some_and(|h| at >= h) {
                self.overflow.push(Parked { at, seq, ev });
            } else {
                self.bucket_insert(at, seq, ev);
            }
        }
    }

    /// Pops the earliest event if its time is `<= deadline`.
    ///
    /// Returns `None` when the queue is empty or the next event lies
    /// beyond the deadline (the queue is left untouched in both cases,
    /// though the internal scan cursor may advance up to the earliest
    /// event time).
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        self.pop_seq_until(deadline).map(|(at, _seq, ev)| (at, ev))
    }

    /// [`pop_next_until`](Self::pop_next_until), additionally exposing the
    /// event's sequence number.
    pub fn pop_seq_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        if self.is_empty() {
            return None;
        }
        self.migrate_due();
        if self.bucketed == 0 {
            // everything lives beyond the window: jump straight there
            let t = self.overflow.peek().expect("len > 0").at;
            if t > deadline {
                return None;
            }
            self.cursor = t;
            self.migrate_due();
        }
        // scan unit buckets from the cursor; bounded by the window width
        // because at least one bucketed event exists. The cursor only
        // advances on an actual pop: a deadline miss must leave every
        // time >= the last popped event legal for future pushes.
        let mut t = self.cursor;
        loop {
            let b = &mut self.buckets[(t & self.mask) as usize];
            if let Some(&(at, _, _)) = b.front() {
                debug_assert_eq!(at, t, "one timestamp per bucket inside the window");
                if t > deadline {
                    return None;
                }
                self.cursor = t;
                let (at, seq, ev) = b.pop_front().expect("front observed");
                self.bucketed -= 1;
                return Some((at, seq, ev));
            }
            t += 1;
            debug_assert!(
                t - self.cursor <= self.span(),
                "bucketed > 0 guarantees a hit within one window"
            );
        }
    }

    /// The timestamp of the earliest queued event without removing it.
    ///
    /// `&mut` because due overflow events migrate into buckets first (an
    /// order-preserving internal reshuffle); the scan itself leaves the
    /// cursor untouched, so a subsequent push at any time `>=` the last
    /// popped event remains legal.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        if self.is_empty() {
            return None;
        }
        self.migrate_due();
        if self.bucketed == 0 {
            return Some(self.overflow.peek().expect("len > 0").at);
        }
        let mut t = self.cursor;
        loop {
            if let Some(&(at, _, _)) = self.buckets[(t & self.mask) as usize].front() {
                debug_assert_eq!(at, t, "one timestamp per bucket inside the window");
                return Some(t);
            }
            t += 1;
            debug_assert!(
                t - self.cursor <= self.span(),
                "bucketed > 0 guarantees a hit within one window"
            );
        }
    }

    /// Pops the earliest event unconditionally.
    pub fn pop_next(&mut self) -> Option<(SimTime, T)> {
        self.pop_next_until(SimTime::MAX)
    }
}

/// Reference queue: the original `BTreeMap` event core.
#[derive(Debug)]
pub struct BTreeQueue<T> {
    map: BTreeMap<(SimTime, u64), T>,
    seq: u64,
}

impl<T> Default for BTreeQueue<T> {
    fn default() -> Self {
        BTreeQueue {
            map: BTreeMap::new(),
            seq: 0,
        }
    }
}

impl<T> BTreeQueue<T> {
    /// Total queued events.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Schedules `ev` at `at` (FIFO among equal timestamps).
    pub fn push(&mut self, at: SimTime, ev: T) {
        self.map.insert((at, self.seq), ev);
        self.seq += 1;
    }

    /// Schedules `ev` at `at` under an externally assigned sequence
    /// number (see [`CalendarQueue::push_seq`]).
    pub fn push_seq(&mut self, at: SimTime, seq: u64, ev: T) {
        self.map.insert((at, seq), ev);
    }

    /// Pops the earliest event if its time is `<= deadline`.
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        self.pop_seq_until(deadline).map(|(at, _seq, ev)| (at, ev))
    }

    /// [`pop_next_until`](Self::pop_next_until) with the sequence number.
    pub fn pop_seq_until(&mut self, deadline: SimTime) -> Option<(SimTime, u64, T)> {
        let (&(t, _), _) = self.map.iter().next()?;
        if t > deadline {
            return None;
        }
        let ((t, seq), ev) = self.map.pop_first().expect("nonempty");
        Some((t, seq, ev))
    }

    /// The timestamp of the earliest queued event without removing it
    /// (`&mut` only for signature parity with [`CalendarQueue`]).
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.map.keys().next().map(|&(t, _)| t)
    }

    /// Pops the earliest event unconditionally.
    pub fn pop_next(&mut self) -> Option<(SimTime, T)> {
        self.pop_next_until(SimTime::MAX)
    }
}

/// Runtime-selected queue implementation used by `Sim`.
#[derive(Debug)]
pub(crate) enum EventQueue<T> {
    Calendar(CalendarQueue<T>),
    BTree(BTreeQueue<T>),
}

impl<T> EventQueue<T> {
    pub(crate) fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(CalendarQueue::default()),
            QueueKind::BTree => EventQueue::BTree(BTreeQueue::default()),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::BTree(q) => q.len(),
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: T) {
        match self {
            EventQueue::Calendar(q) => q.push(at, ev),
            EventQueue::BTree(q) => q.push(at, ev),
        }
    }

    pub(crate) fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        match self {
            EventQueue::Calendar(q) => q.pop_next_until(deadline),
            EventQueue::BTree(q) => q.pop_next_until(deadline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = CalendarQueue::default();
        q.push(5, "a");
        q.push(5, "b");
        q.push(3, "c");
        q.push(5, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, vec![(3, "c"), (5, "a"), (5, "b"), (5, "d")]);
    }

    #[test]
    fn deadline_leaves_later_events_queued() {
        let mut q = CalendarQueue::default();
        q.push(10, 1u32);
        q.push(20, 2);
        assert_eq!(q.pop_next_until(15), Some((10, 1)));
        assert_eq!(q.pop_next_until(15), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_next_until(25), Some((20, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_come_back() {
        let mut q = CalendarQueue::with_span(4);
        q.push(2, "near");
        q.push(1_000_000, "far");
        q.push(500, "mid");
        assert_eq!(q.pop_next(), Some((2, "near")));
        assert_eq!(q.pop_next(), Some((500, "mid")));
        assert_eq!(q.pop_next(), Some((1_000_000, "far")));
        assert_eq!(q.pop_next(), None);
    }

    #[test]
    fn overflow_pressure_grows_the_window() {
        let mut q = CalendarQueue::with_span(2);
        for i in 0..64u64 {
            q.push(10 + i * 7, i);
        }
        assert!(q.span() > 2, "overflow pressure must widen the window");
        let mut last = None;
        while let Some((t, _)) = q.pop_next() {
            assert!(last.is_none_or(|l| l <= t));
            last = Some(t);
        }
    }

    #[test]
    fn interleaved_pushes_at_a_migrated_timestamp_stay_fifo() {
        // regression for the overflow/bucket FIFO race: an event parked in
        // overflow for time T must still pop before a later push at T.
        // With span 4 and cursor 0, t=5 parks in overflow; popping t=2
        // advances the cursor to 2 (window now [2, 6)) WITHOUT migrating
        // the parked event — the next push at t=5 takes the bucket path
        // and must migrate the older overflow twin first.
        let mut q = CalendarQueue::with_span(4);
        q.push(5, "early-seq"); // 5 - 0 >= span: parked in overflow
        q.push(2, "near");
        assert_eq!(q.pop_next(), Some((2, "near"))); // cursor -> 2
        q.push(5, "late-seq"); // 5 - 2 < span: bucket insert at a due time
        assert_eq!(q.pop_next(), Some((5, "early-seq")));
        assert_eq!(q.pop_next(), Some((5, "late-seq")));
    }

    /// Satellite regression (PR 8): `migrate_due`'s horizon used to be
    /// `cursor.saturating_add(span)`, which pins at `u64::MAX` — an event
    /// scheduled *at* `u64::MAX` then never satisfied the strict `<` and
    /// never migrated out of overflow, so the queue claimed to be
    /// nonempty while `pop_next_until(u64::MAX)` found nothing bucketed
    /// and ran its scan cursor off the end of time. Both `QueueKind`s
    /// must drain events at the saturation boundary.
    #[test]
    fn events_at_the_end_of_time_still_pop() {
        let mut cal = CalendarQueue::default();
        let mut bt = BTreeQueue::default();
        for q in [
            &mut cal as &mut dyn FnPush,
            &mut bt as &mut dyn FnPush, // both kinds, same sequence
        ] {
            q.do_push(3, 0);
            q.do_push(u64::MAX - 1, 1);
            q.do_push(u64::MAX, 2);
            q.do_push(u64::MAX, 3); // FIFO twin at the last representable tick
        }
        for q in [&mut cal as &mut dyn FnPush, &mut bt as &mut dyn FnPush] {
            assert_eq!(q.do_pop(u64::MAX), Some((3, 0)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX - 1, 1)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX, 2)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX, 3)));
            assert_eq!(q.do_pop(u64::MAX), None);
        }
    }

    /// Object-safe push/pop facade so the boundary tests can drive both
    /// queue kinds through one code path (mirrors `EventQueue`'s match).
    trait FnPush {
        fn do_push(&mut self, at: SimTime, v: u32);
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)>;
    }
    impl FnPush for CalendarQueue<u32> {
        fn do_push(&mut self, at: SimTime, v: u32) {
            self.push(at, v);
        }
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
            self.pop_next_until(deadline)
        }
    }
    impl FnPush for BTreeQueue<u32> {
        fn do_push(&mut self, at: SimTime, v: u32) {
            self.push(at, v);
        }
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
            self.pop_next_until(deadline)
        }
    }

    /// Explicit-sequence pushes must honor
    /// the externally assigned order, and `peek_next_time` must report the
    /// earliest event without disturbing pop order or legal push times.
    #[test]
    fn explicit_seq_push_and_peek() {
        let mut cal = CalendarQueue::with_span(4);
        let mut bt = BTreeQueue::default();
        // coordinator-assigned seqs: ascending per timestamp, but sparse
        for (at, seq) in [(7u64, 10u64), (7, 42), (3, 5), (900, 17)] {
            cal.push_seq(at, seq, seq);
            bt.push_seq(at, seq, seq);
        }
        assert_eq!(cal.peek_next_time(), Some(3));
        assert_eq!(bt.peek_next_time(), Some(3));
        for q in [&mut cal as &mut dyn FnPopSeq, &mut bt as &mut dyn FnPopSeq] {
            assert_eq!(q.do_pop_seq(u64::MAX), Some((3, 5, 5)));
            assert_eq!(q.do_pop_seq(u64::MAX), Some((7, 10, 10)));
            assert_eq!(q.do_pop_seq(u64::MAX), Some((7, 42, 42)));
        }
        // peek after pops sees the overflow-parked event; a later push at
        // a nearer time is still legal (the peek scan left the cursor put)
        assert_eq!(cal.peek_next_time(), Some(900));
        cal.push_seq(8, 50, 50);
        assert_eq!(cal.pop_seq_until(u64::MAX), Some((8, 50, 50)));
        assert_eq!(cal.pop_seq_until(u64::MAX), Some((900, 17, 17)));
        assert_eq!(cal.peek_next_time(), None);
    }

    trait FnPopSeq {
        fn do_pop_seq(&mut self, deadline: SimTime) -> Option<(SimTime, u64, u64)>;
    }
    impl FnPopSeq for CalendarQueue<u64> {
        fn do_pop_seq(&mut self, deadline: SimTime) -> Option<(SimTime, u64, u64)> {
            self.pop_seq_until(deadline)
        }
    }
    impl FnPopSeq for BTreeQueue<u64> {
        fn do_pop_seq(&mut self, deadline: SimTime) -> Option<(SimTime, u64, u64)> {
            self.pop_seq_until(deadline)
        }
    }

    /// A deadline below the far event must leave it queued — and the
    /// cursor parked — even when the event sits at `u64::MAX`.
    #[test]
    fn deadline_below_the_boundary_leaves_the_last_event_queued() {
        let mut q = CalendarQueue::with_span(4);
        q.push(u64::MAX, "omega");
        assert_eq!(q.pop_next_until(u64::MAX - 1), None);
        assert_eq!(q.len(), 1, "the boundary event must not be lost");
        assert_eq!(q.pop_next_until(u64::MAX), Some((u64::MAX, "omega")));
        assert!(q.is_empty());
    }

    /// Pushing at `u64::MAX` once the cursor itself sits at `u64::MAX`
    /// takes the bucket path (distance 0 < span); the overflow twin
    /// parked earlier must still pop first (FIFO by sequence).
    #[test]
    fn push_at_a_saturated_cursor_keeps_fifo_with_parked_twins() {
        let mut q = CalendarQueue::with_span(4);
        q.push(u64::MAX, "first");
        q.push(10, "near");
        assert_eq!(q.pop_next(), Some((10, "near")));
        // cursor advances to u64::MAX on the next pop's overflow jump;
        // push another twin before that pop to exercise push-side
        // migration at the pinned horizon
        q.push(u64::MAX, "second");
        assert_eq!(q.pop_next(), Some((u64::MAX, "first")));
        assert_eq!(q.pop_next(), Some((u64::MAX, "second")));
        assert_eq!(q.pop_next(), None);
    }

    /// Window growth with the cursor near the top of the time domain:
    /// `grow()`'s re-homing horizon overflows `u64`, and everything —
    /// including events at `u64::MAX` — must land in buckets, not bounce
    /// back into overflow forever.
    #[test]
    fn window_growth_at_the_boundary_rehomes_everything() {
        let mut q = CalendarQueue::with_span(2);
        let base = u64::MAX - 64;
        q.push(base, 0u64);
        assert_eq!(q.pop_next(), Some((base, 0)), "advance cursor near MAX");
        // flood the overflow heap to force grow() while cursor ~ MAX
        for i in 1..=64u64 {
            q.push(base + i, i);
        }
        assert!(q.span() > 2, "overflow pressure must widen the window");
        for i in 1..=64u64 {
            assert_eq!(q.pop_next(), Some((base + i, i)));
        }
        assert_eq!(q.pop_next(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn calendar_matches_btreemap_oracle(
            ops in prop::collection::vec((0u8..5, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            let mut cal = CalendarQueue::with_span(span);
            let mut oracle = BTreeQueue::default();
            let mut now = 0u64;
            let mut val = 0u64;
            for &(kind, x) in &ops {
                match kind {
                    0 => { // near-future push
                        cal.push(now + x % 16, val);
                        oracle.push(now + x % 16, val);
                        val += 1;
                    }
                    1 => { // mid-range push, crosses windows
                        cal.push(now + x % 5000, val);
                        oracle.push(now + x % 5000, val);
                        val += 1;
                    }
                    2 => { // far-future push: overflow + window growth
                        let at = now + 1_000 + x % (1 << 30);
                        cal.push(at, val);
                        oracle.push(at, val);
                        val += 1;
                    }
                    3 => { // drain up to a bounded deadline
                        let deadline = now + x % 64;
                        loop {
                            let a = cal.pop_next_until(deadline);
                            let b = oracle.pop_next_until(deadline);
                            prop_assert_eq!(a, b);
                            match a {
                                Some((t, _)) => now = t,
                                None => break,
                            }
                        }
                    }
                    _ => { // single pop
                        let a = cal.pop_next();
                        let b = oracle.pop_next();
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(cal.len(), oracle.len());
            }
            // full drain must agree event by event
            loop {
                let a = cal.pop_next();
                let b = oracle.pop_next();
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
