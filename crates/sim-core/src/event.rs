//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with a strict
//! total order: events scheduled for the same instant pop in the order they
//! were pushed (FIFO tie-break via a monotone sequence number). This makes
//! every simulation replayable bit-for-bit from a seed.
//!
//! ## Implementation
//!
//! A **two-level scheduler** over a **generation-stamped slab**:
//!
//! * a **calendar ring** (timing-wheel-style array of time buckets) holds
//!   the *near-horizon* events that dominate the simulator — path
//!   readiness, chunk completions, ticks. Push is O(1) (compute the bucket,
//!   append); pop scans forward from the clock's bucket, which is O(1)
//!   amortised when the bucket width matches the event spacing;
//! * a **4-ary min-heap** absorbs the *far-future* overflow — failure
//!   windows, recovery timers, session deadlines. Heap roots migrate into
//!   the ring as the clock approaches them, so the ring always holds the
//!   earliest events and a non-empty ring never needs to consult the heap
//!   on pop;
//! * the **bucket width adapts** to the observed workload: it is re-derived
//!   from the average inter-pop spacing every few hundred pops (so sparse
//!   timer patterns get wide buckets and dense ones narrow buckets), and a
//!   push that finds the ring overfull narrows it immediately. Width only
//!   affects *speed* — the pop order is the strict `(time, seq)` total
//!   order for every width, which is what lets the width adapt freely
//!   without perturbing replays (asserted by the differential test);
//! * cancellation is **O(1)**: it flips the slab slot's state to a
//!   tombstone that `pop` discards (and reclaims) when the entry surfaces.
//!   There is no side `HashSet` — the pop path does zero hash lookups — and
//!   slots are recycled through a free list, so memory stays bounded by the
//!   peak number of pending events;
//! * slot reuse bumps a generation counter, so a stale [`EventId`] can
//!   never cancel an unrelated later event;
//! * [`EventQueue::reset`] returns the queue to its pristine state while
//!   keeping every allocation (ring buckets, heap, slab) *and* the adapted
//!   bucket width, so drivers that run many sessions back-to-back (batch
//!   hosts, sweep workers) pay the warm-up once.
//!
//! ## Reference
//!
//! The seed implementation (`BinaryHeap + HashSet` lazy cancellation)
//! survives test-only as `legacy::LegacyQueue`. One randomized differential
//! test drives both queues through the same wide-horizon schedule
//! (same-bucket, near, seconds-out and minutes-out pushes, past-scheduled
//! saturation, stale cancels, peeks) and asserts identical behaviour at
//! every step.

use crate::time::SimTime;

/// A handle identifying a scheduled event, usable for cancellation.
///
/// Internally a `(slot, generation)` pair; the generation stamp makes
/// handles single-use — once the event fires or is cancelled, the handle
/// goes stale and [`EventQueue::cancel`] returns `false` for it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// Operation counts maintained by [`EventQueue`] since its last
/// [`EventQueue::reset`] (see [`EventQueue::op_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueOps {
    /// Events scheduled (both [`EventQueue::push`] and
    /// [`EventQueue::push_saturating`]).
    pub pushes: u64,
    /// Events delivered by [`EventQueue::pop`] (tombstone skips excluded).
    pub pops: u64,
    /// Successful [`EventQueue::cancel`] calls.
    pub cancels: u64,
}

/// Ring/heap entry: ordering key inline, payload in the slab.
#[derive(Clone, Copy)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

enum Slot<E> {
    /// Pending event.
    Occupied(E),
    /// Cancelled; its ring/heap entry has not surfaced yet.
    Tombstone,
    /// Recyclable (not referenced by any entry).
    Free,
}

const ARITY: usize = 4;

/// Initial (and minimum) calendar bucket count; the ring covers
/// `buckets.len() << shift` microseconds ahead of the clock. The count
/// doubles when occupancy outgrows it (classic calendar-queue resizing),
/// up to [`MAX_BUCKETS`], so big pending sets stay ring-resident.
const MIN_BUCKETS: usize = 128;

/// Bucket-count ceiling (2^16 `Vec` headers ≈ 1.5 MB; beyond this the far
/// heap absorbs the excess).
const MAX_BUCKETS: usize = 65_536;

/// Initial bucket width exponent: 2^13 µs ≈ 8 ms buckets, ≈ 1 s horizon.
const DEFAULT_SHIFT: u32 = 13;

/// Bucket width bounds: 2^3 µs = 8 µs … 2^24 µs ≈ 16.8 s.
const MIN_SHIFT: u32 = 3;
const MAX_SHIFT: u32 = 24;

/// Pops between width re-derivations from the observed inter-pop spacing.
const ADAPT_EVERY: u64 = 256;

/// A push that lands in a bucket already holding this many entries
/// narrows the bucket width immediately (a burst denser than the adapted
/// width would otherwise degrade pops into linear bucket scans until the
/// next pop-side adaptation).
const BUCKET_OVERFULL: usize = 64;

/// A deterministic two-level priority queue of timestamped events.
///
/// ```
/// use msim_core::event::EventQueue;
/// use msim_core::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "second");
/// q.push(SimTime::from_secs(1), "first");
/// assert_eq!(q.pop().unwrap().1, "first");
/// assert_eq!(q.pop().unwrap().1, "second");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Near-horizon calendar ring (`buckets.len()` is a power of two that
    /// adapts to occupancy). Bucket `b` holds entries whose "day"
    /// (`at >> shift`) satisfies `day % buckets.len() == b` and lies within
    /// `[cursor_day, cursor_day + buckets.len())`; within one such window
    /// the mapping day → bucket is bijective, so a bucket never mixes days.
    buckets: Vec<Vec<Entry>>,
    /// Entries currently in the ring (live + tombstoned).
    near_len: usize,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// The clock's day: `now >> shift`. Only advances.
    cursor_day: u64,
    /// Far-future overflow: 4-ary min-heap on `(at, seq)`. Invariant: every
    /// entry's day is `>= cursor_day + buckets.len()` (maintained by
    /// migration on cursor advance), so the ring always wins while
    /// non-empty.
    far: Vec<Entry>,
    slots: Vec<(u32, Slot<E>)>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    now: SimTime,
    saturated_pushes: u64,
    /// Lifetime operation counts (pushes / pops / cancels) since the last
    /// [`EventQueue::reset`]. Plain integers on purpose: they are always
    /// maintained (the cost is one add per op) so batch drivers can
    /// publish per-session deltas into the telemetry registry without the
    /// queue depending on it.
    ops: QueueOps,
    /// Adaptation state: inter-pop spacing accumulator.
    pops_since_adapt: u64,
    gap_sum_us: u64,
    last_pop_us: u64,
    /// Scratch for re-bucketing (kept to reuse its allocation).
    scratch: Vec<Entry>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` pending events before
    /// reallocating the slab.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            near_len: 0,
            shift: DEFAULT_SHIFT,
            cursor_day: 0,
            far: Vec::new(),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            saturated_pushes: 0,
            ops: QueueOps::default(),
            pops_since_adapt: 0,
            gap_sum_us: 0,
            last_pop_us: 0,
            scratch: Vec::new(),
        }
    }

    /// Empties the queue and rewinds the clock to zero, keeping every
    /// allocation (ring buckets, heap, slab, free list) and the adapted
    /// bucket width. Batch drivers call this between sessions so bucket
    /// storage is reused; the width carries over because it influences only
    /// speed, never pop order.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.near_len = 0;
        self.cursor_day = 0;
        self.far.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.saturated_pushes = 0;
        self.ops = QueueOps::default();
        self.pops_since_adapt = 0;
        self.gap_sum_us = 0;
        self.last_pop_us = 0;
    }

    /// Pre-allocates slab room for `cap` pending events (capacity hint for
    /// drivers that know their session shape).
    pub fn reserve(&mut self, cap: usize) {
        self.slots.reserve(cap.saturating_sub(self.slots.len()));
    }

    /// The current simulated instant: the timestamp of the most recently
    /// popped event (zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event is *saturated* to fire
    /// "now" (at the current clock) to keep the clock monotone, and the
    /// [`EventQueue::saturated_pushes`] counter records the rewrite so
    /// callers/tests can detect the condition instead of it passing
    /// silently.
    pub fn push(&mut self, at: SimTime, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: at={at:?} now={:?}",
            self.now
        );
        self.push_saturating(at, payload).0
    }

    /// Like [`EventQueue::push`], but reports saturation instead of only
    /// counting it: returns `(id, true)` when `at` lay in the past and was
    /// rewritten to "now". Does not panic in debug builds — this is the
    /// checked entry point for callers that handle the condition.
    pub fn push_saturating(&mut self, at: SimTime, payload: E) -> (EventId, bool) {
        self.ops.pushes += 1;
        let saturated = at < self.now;
        if saturated {
            self.saturated_pushes += 1;
        }
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;

        let slot = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize].1 = Slot::Occupied(payload);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slab exhausted");
                self.slots.push((0, Slot::Occupied(payload)));
                idx
            }
        };
        let gen = self.slots[slot as usize].0;
        self.live += 1;

        let target_bucket = self.insert_entry(Entry { at, seq, slot });
        // Two push-side pressure valves (the pop-side adaptation handles
        // the steady state):
        // * a single overfull bucket means the width is far too wide for a
        //   burst — narrow immediately so pops don't degrade into linear
        //   bucket scans (same-instant events can't be separated by any
        //   width; MIN_SHIFT bounds the cascade);
        // * a ring outgrown overall doubles its bucket count so the
        //   pending set stays ring-resident (classic calendar-queue
        //   resizing); at the count ceiling, narrow the width instead
        //   (excess spills to the heap and migrates back as the clock
        //   advances).
        if let Some(b) = target_bucket {
            if self.buckets[b].len() > BUCKET_OVERFULL && self.shift > MIN_SHIFT {
                // Derive the width from the burst's measured span (aim for
                // ~8 entries per bucket) so one redistribution absorbs the
                // density regime instead of a cascade of fixed steps.
                let bucket = &self.buckets[b];
                let (mut lo, mut hi) = (u64::MAX, 0u64);
                for e in bucket {
                    let us = e.at.as_micros();
                    lo = lo.min(us);
                    hi = hi.max(us);
                }
                let per_bucket = (hi - lo) * 8 / bucket.len() as u64;
                let target = if per_bucket == 0 {
                    MIN_SHIFT
                } else {
                    (64 - per_bucket.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT)
                };
                if target < self.shift {
                    self.rebucket(target, self.buckets.len());
                }
            }
        }
        if self.near_len > 2 * self.buckets.len() {
            if self.buckets.len() < MAX_BUCKETS {
                let nb = self.buckets.len() * 2;
                self.rebucket(self.shift, nb);
            } else if self.shift > MIN_SHIFT {
                self.rebucket(self.shift - 1, self.buckets.len());
            }
        }
        (EventId { slot, gen }, saturated)
    }

    /// Number of release-mode past-scheduled pushes rewritten to "now" over
    /// the queue's lifetime (always 0 when callers are well-behaved).
    pub fn saturated_pushes(&self) -> u64 {
        self.saturated_pushes
    }

    /// Operation counts (pushes / pops / cancels) since the last
    /// [`EventQueue::reset`]. Batch drivers publish these as per-session
    /// deltas into the [`crate::telemetry`] registry.
    pub fn op_counts(&self) -> QueueOps {
        self.ops
    }

    /// Cancels a previously scheduled event. Returns `true` if the event was
    /// still pending (it will be silently skipped when its time comes).
    /// O(1): no ring or heap restructuring, no hashing.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some((gen, slot)) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if *gen != id.gen || !matches!(slot, Slot::Occupied(_)) {
            return false;
        }
        *slot = Slot::Tombstone;
        self.live -= 1;
        self.ops.cancels += 1;
        true
    }

    /// Removes and returns the earliest pending event, advancing the clock
    /// to its timestamp. Returns `None` when the queue is drained (all
    /// remaining tombstones are reclaimed before returning `None`, so
    /// push/cancel churn cannot grow memory).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            if self.near_len > 0 {
                if let Some(entry) = self.take_near_min() {
                    let payload = self
                        .release_slot(entry.slot)
                        .expect("near min is checked live");
                    self.live -= 1;
                    self.ops.pops += 1;
                    self.advance_now(entry.at);
                    return Some((entry.at, payload));
                }
                // The ring held only tombstones; they are reclaimed now.
                continue;
            }
            let entry = self.far_pop_root()?;
            match self.release_slot(entry.slot) {
                Some(payload) => {
                    self.live -= 1;
                    self.ops.pops += 1;
                    self.advance_now(entry.at);
                    return Some((entry.at, payload));
                }
                None => continue, // tombstone: slot recycled, skip
            }
        }
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Pure (`&self`): peeking skips tombstones without reclaiming them —
    /// reclamation happens on `pop`.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // Ring first: within the current window, bucket order is day order,
        // so the first bucket containing a live entry holds the ring's min.
        if self.near_len > 0 {
            let nb = self.buckets.len() as u64;
            for k in 0..nb {
                let day = self.cursor_day.saturating_add(k);
                let bucket = &self.buckets[(day & (nb - 1)) as usize];
                let min = bucket
                    .iter()
                    .filter(|e| self.slot_is_live(e.slot))
                    .map(|e| e.key())
                    .min();
                if let Some((at, _)) = min {
                    return Some(at);
                }
            }
        }
        // Far heap: linear scan over live entries (the heap may have a
        // tombstoned root, which a pure peek cannot rotate away).
        self.far
            .iter()
            .filter(|e| self.slot_is_live(e.slot))
            .map(|e| e.key())
            .min()
            .map(|(at, _)| at)
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The current bucket width in microseconds (exposed for tests and the
    /// micro benches; adapts to the observed event spacing).
    pub fn bucket_width_us(&self) -> u64 {
        1 << self.shift
    }

    /// The current calendar bucket count (exposed for tests; doubles as
    /// occupancy outgrows the ring and shrinks back when it drains).
    pub fn ring_buckets(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn slot_is_live(&self, slot: u32) -> bool {
        matches!(self.slots[slot as usize].1, Slot::Occupied(_))
    }

    /// Frees `slot`, bumping its generation; returns the payload if it was
    /// still occupied (`None` for tombstones).
    fn release_slot(&mut self, slot: u32) -> Option<E> {
        let cell = &mut self.slots[slot as usize];
        cell.0 = cell.0.wrapping_add(1);
        let payload = match std::mem::replace(&mut cell.1, Slot::Free) {
            Slot::Occupied(p) => Some(p),
            Slot::Tombstone => None,
            Slot::Free => unreachable!("slot freed twice"),
        };
        self.free.push(slot);
        payload
    }

    /// Routes an entry to the ring (within the horizon) or the far heap.
    /// Returns the ring bucket it landed in, if any.
    #[inline]
    fn insert_entry(&mut self, entry: Entry) -> Option<usize> {
        let day = entry.at.as_micros() >> self.shift;
        debug_assert!(day >= self.cursor_day, "entry behind the clock");
        let nb = self.buckets.len() as u64;
        if day < self.cursor_day.saturating_add(nb) {
            let b = (day & (nb - 1)) as usize;
            self.buckets[b].push(entry);
            self.near_len += 1;
            Some(b)
        } else {
            self.far.push(entry);
            self.far_sift_up(self.far.len() - 1);
            None
        }
    }

    /// Removes and returns the ring's earliest live entry, reclaiming every
    /// tombstone encountered on the way. `None` when the ring held only
    /// tombstones (all reclaimed; `near_len` is 0 afterwards).
    fn take_near_min(&mut self) -> Option<Entry> {
        let nb = self.buckets.len() as u64;
        for k in 0..nb {
            if self.near_len == 0 {
                return None;
            }
            let day = self.cursor_day.saturating_add(k);
            let b = (day & (nb - 1)) as usize;
            // Reclaim tombstones first so the min scan sees only live
            // entries.
            let mut i = 0;
            while i < self.buckets[b].len() {
                let slot = self.buckets[b][i].slot;
                if self.slot_is_live(slot) {
                    i += 1;
                } else {
                    self.buckets[b].swap_remove(i);
                    self.near_len -= 1;
                    self.release_slot(slot);
                }
            }
            let bucket = &self.buckets[b];
            if bucket.is_empty() {
                continue;
            }
            let mut min_i = 0;
            for j in 1..bucket.len() {
                if bucket[j].key() < bucket[min_i].key() {
                    min_i = j;
                }
            }
            let entry = self.buckets[b].swap_remove(min_i);
            self.near_len -= 1;
            return Some(entry);
        }
        None
    }

    /// Advances the clock to `at` (a just-popped timestamp): moves the ring
    /// cursor, migrates far-heap roots that came within the horizon, and
    /// periodically re-derives the bucket width from the observed inter-pop
    /// spacing.
    fn advance_now(&mut self, at: SimTime) {
        let at_us = at.as_micros();
        self.gap_sum_us += at_us.saturating_sub(self.last_pop_us);
        self.last_pop_us = at_us;
        self.pops_since_adapt += 1;
        self.now = at;
        let day = at_us >> self.shift;
        if day != self.cursor_day {
            self.cursor_day = day;
            self.migrate_far();
        }
        if self.pops_since_adapt >= ADAPT_EVERY {
            let avg_gap = (self.gap_sum_us / self.pops_since_adapt).max(1);
            self.pops_since_adapt = 0;
            self.gap_sum_us = 0;
            // Bucket width ≈ 2× the average spacing: ~2 events per bucket,
            // few empty-bucket hops. Re-derived with hysteresis — a
            // one-step disagreement is left alone, so a spacing average
            // that hovers near a power-of-two boundary cannot flap the
            // width (each flap is an O(ring) redistribution). A ring left
            // oversized by a past burst shrinks back (bounded below by
            // MIN_BUCKETS).
            let target = (64 - avg_gap.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
            let mut nb = self.buckets.len();
            while nb > MIN_BUCKETS && self.near_len < nb / 4 {
                nb /= 2;
            }
            if target.abs_diff(self.shift) >= 2 || nb != self.buckets.len() {
                self.rebucket(target, nb);
            }
        }
    }

    /// Restores the far-heap invariant after a cursor advance: roots whose
    /// day entered the horizon move into the ring (tombstoned ones are
    /// reclaimed on the way).
    fn migrate_far(&mut self) {
        let nb = self.buckets.len() as u64;
        let horizon = self.cursor_day.saturating_add(nb);
        while let Some(root) = self.far.first() {
            if root.at.as_micros() >> self.shift >= horizon {
                break;
            }
            let entry = self.far_pop_root().expect("checked non-empty");
            if self.slot_is_live(entry.slot) {
                let b = ((entry.at.as_micros() >> self.shift) & (nb - 1)) as usize;
                self.buckets[b].push(entry);
                self.near_len += 1;
            } else {
                self.release_slot(entry.slot);
            }
        }
    }

    /// Changes the bucket width to `1 << new_shift` µs and/or the bucket
    /// count, redistributing every ring entry (some may spill to the far
    /// heap under a narrower horizon).
    fn rebucket(&mut self, new_shift: u32, new_buckets: usize) {
        debug_assert!(new_buckets.is_power_of_two());
        let mut entries = std::mem::take(&mut self.scratch);
        for b in &mut self.buckets {
            entries.append(b);
        }
        if new_buckets > self.buckets.len() {
            self.buckets.resize_with(new_buckets, Vec::new);
        } else {
            self.buckets.truncate(new_buckets);
        }
        self.near_len = 0;
        self.shift = new_shift;
        self.cursor_day = self.now.as_micros() >> new_shift;
        for entry in entries.drain(..) {
            self.insert_entry(entry);
        }
        self.scratch = entries;
        // A wider width or a bigger ring also widens the horizon: pull in
        // far roots that now fit.
        self.migrate_far();
    }

    /// Removes the far heap's root entry, restoring the heap property.
    fn far_pop_root(&mut self) -> Option<Entry> {
        let last = self.far.pop()?;
        if self.far.is_empty() {
            return Some(last);
        }
        let root = std::mem::replace(&mut self.far[0], last);
        self.far_sift_down(0);
        Some(root)
    }

    #[inline]
    fn far_sift_up(&mut self, mut i: usize) {
        let entry = self.far[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.far[parent].key() <= entry.key() {
                break;
            }
            self.far[i] = self.far[parent];
            i = parent;
        }
        self.far[i] = entry;
    }

    #[inline]
    fn far_sift_down(&mut self, mut i: usize) {
        let len = self.far.len();
        let entry = self.far[i];
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut min_child = first_child;
            let mut min_key = self.far[first_child].key();
            let last_child = (first_child + ARITY - 1).min(len - 1);
            for c in first_child + 1..=last_child {
                let k = self.far[c].key();
                if k < min_key {
                    min_key = k;
                    min_child = c;
                }
            }
            if entry.key() <= min_key {
                break;
            }
            self.far[i] = self.far[min_child];
            i = min_child;
        }
        self.far[i] = entry;
    }
}

#[cfg(test)]
mod legacy {
    //! The seed implementation (`BinaryHeap<Entry> + HashSet<EventId>` lazy
    //! cancellation), preserved verbatim in behaviour as the reference the
    //! hybrid queue is differential-tested against.

    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    pub struct LegacyId(u64);

    struct Entry<E> {
        at: SimTime,
        seq: u64,
        id: LegacyId,
        payload: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    pub struct LegacyQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        next_id: u64,
        cancelled: std::collections::HashSet<LegacyId>,
        now: SimTime,
        saturated_pushes: u64,
    }

    impl<E> LegacyQueue<E> {
        pub fn new() -> Self {
            LegacyQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                next_id: 0,
                cancelled: std::collections::HashSet::new(),
                now: SimTime::ZERO,
                saturated_pushes: 0,
            }
        }

        /// Same contract as `EventQueue::push_saturating`: a past `at` is
        /// clamped to "now", flagged and counted.
        pub fn push_saturating(&mut self, at: SimTime, payload: E) -> (LegacyId, bool) {
            let saturated = at < self.now;
            self.saturated_pushes += u64::from(saturated);
            (self.push(at, payload), saturated)
        }

        pub fn saturated_pushes(&self) -> u64 {
            self.saturated_pushes
        }

        pub fn push(&mut self, at: SimTime, payload: E) -> LegacyId {
            let at = at.max(self.now);
            let id = LegacyId(self.next_id);
            self.next_id += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                at,
                seq,
                id,
                payload,
            });
            id
        }

        pub fn cancel(&mut self, id: LegacyId) -> bool {
            if id.0 >= self.next_id {
                return false;
            }
            // One deliberate deviation from the seed: cancelling an id that
            // already fired returned `true` there (and leaked the id into
            // `cancelled` forever). The slab queue returns `false` for stale
            // handles; align so the differential test can assert outcomes.
            if self.cancelled.contains(&id) || !self.pending(id) {
                return false;
            }
            self.cancelled.insert(id)
        }

        fn pending(&self, id: LegacyId) -> bool {
            self.heap.iter().any(|e| e.id == id)
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            while let Some(entry) = self.heap.pop() {
                if self.cancelled.remove(&entry.id) {
                    continue;
                }
                self.now = entry.at;
                return Some((entry.at, entry.payload));
            }
            None
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap
                .iter()
                .filter(|e| !self.cancelled.contains(&e.id))
                .map(|e| (e.at, e.seq))
                .min()
                .map(|(at, _)| at)
        }

        pub fn len(&self) -> usize {
            self.heap.len() - self.cancelled.len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::legacy::LegacyQueue;
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 3u32);
        q.push(SimTime::from_secs(1), 1u32);
        q.push(SimTime::from_secs(2), 2u32);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        let _b = q.push(SimTime::from_secs(2), "b");
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel is rejected");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn stale_and_unknown_ids_are_not_cancellable() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_secs(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(!q.cancel(a), "popped event's id is stale");
        // The slot gets recycled by the next push; the old id must still be
        // rejected thanks to the generation stamp.
        let b = q.push(SimTime::from_secs(2), "b");
        assert!(!q.cancel(a), "stale id cannot cancel the recycled slot");
        assert!(q.cancel(b));
        let c = EventId { slot: 999, gen: 0 };
        assert!(!q.cancel(c), "out-of-range id is not cancellable");
    }

    #[test]
    fn peek_is_pure_and_does_not_advance_clock() {
        let mut q = EventQueue::new();
        let id = q.push(SimTime::from_secs(1), ());
        q.push(SimTime::from_secs(2), ());
        // peek takes &self: a shared reference suffices.
        let q_ref: &EventQueue<()> = &q;
        assert_eq!(q_ref.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.now(), SimTime::ZERO);
        q.cancel(id);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "idempotent");
    }

    #[test]
    fn peek_sees_through_far_horizon() {
        let mut q = EventQueue::new();
        // Far beyond the default ring horizon (~1 s): lives in the heap.
        let far = q.push(SimTime::from_secs(3600), 1u32);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3600)));
        // Cancelled far root: peek must skip it without mutating.
        q.push(SimTime::from_secs(7200), 2u32);
        assert!(q.cancel(far));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7200)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(7200), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        q.push(t + SimDuration::from_secs(1), 2u32);
        q.push(t + SimDuration::from_millis(500), 3u32);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }

    #[test]
    fn past_push_saturates_and_is_reported() {
        // Covers the release-mode semantics of `push` via the checked entry
        // point (which never panics, so this test runs in both build modes):
        // a past-scheduled event fires "now" and the rewrite is observable.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 0u32);
        q.pop();
        assert_eq!(q.saturated_pushes(), 0);
        let (_, saturated) = q.push_saturating(SimTime::from_secs(1), 1u32);
        assert!(saturated, "past schedule is flagged");
        assert_eq!(q.saturated_pushes(), 1);
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert_eq!(at, SimTime::from_secs(5), "event rewritten to now");
        // An on-time push is not flagged.
        let (_, saturated) = q.push_saturating(SimTime::from_secs(6), 2u32);
        assert!(!saturated);
        assert_eq!(q.saturated_pushes(), 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_push_saturates_silently_but_counts() {
        // In release builds the plain `push` rewrites past events to "now"
        // (monotone clock) and the counter is the only trace.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 0u32);
        q.pop();
        q.push(SimTime::from_secs(1), 1u32);
        assert_eq!(q.saturated_pushes(), 1);
        let (at, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert_eq!(at, SimTime::from_secs(5));
    }

    #[test]
    fn slots_are_recycled_bounded() {
        // Push/cancel churn must not grow memory: tombstones are reclaimed
        // as pops sweep past them, slots and entries are reused.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let t = SimTime::from_micros(round + 1_000_000);
            let a = q.push(t, round);
            let b = q.push(t, round + 1);
            assert!(q.cancel(a));
            assert_eq!(q.pop().unwrap().1, round + 1);
            let _ = b;
        }
        assert!(q.slots.len() <= 4, "slab stays tiny: {}", q.slots.len());
        assert!(q.near_len <= 4, "ring stays tiny: {}", q.near_len);
        assert!(q.far.len() <= 4, "far heap stays tiny: {}", q.far.len());
    }

    #[test]
    fn drain_after_mass_cancel_reclaims_everything() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..500u64)
            .map(|i| q.push(SimTime::from_micros(i * 50_000), i))
            .collect();
        for id in ids {
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None, "pop reclaims all tombstones");
        assert_eq!(q.near_len, 0);
        assert_eq!(q.far.len(), 0);
        assert_eq!(q.free.len(), q.slots.len(), "every slot is free again");
    }

    #[test]
    fn reset_keeps_storage_but_clears_state() {
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.push(SimTime::from_micros(i * 10_000), i);
        }
        for _ in 0..100 {
            q.pop();
        }
        let slab_cap = q.slots.capacity();
        q.reset();
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.pop(), None);
        assert!(q.slots.capacity() >= slab_cap, "slab storage kept");
        // A fresh session on the reset queue behaves like a new queue.
        q.push(SimTime::from_secs(1), 7u64);
        q.push(SimTime::from_millis(500), 3u64);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 7);
    }

    #[test]
    fn far_events_migrate_into_the_ring() {
        // Events far beyond the horizon start in the heap and must pop in
        // exact order as the clock reaches them.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for i in 0..50u64 {
            // Mix of near (µs–ms) and far (minutes) events.
            let at = if i % 3 == 0 {
                SimTime::from_secs(60 + i)
            } else {
                SimTime::from_millis(i * 7)
            };
            q.push(at, i);
            expect.push((at, i));
        }
        expect.sort_by_key(|&(at, i)| (at, i));
        let got: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        // Same-time FIFO: pushes were in i order, so (at, i) sort matches.
        assert_eq!(got, expect);
    }

    #[test]
    fn width_adapts_to_observed_spacing() {
        // Dense sub-millisecond events: the push-side overfull check plus
        // the pop-side spacing rule must narrow the default ~8 ms buckets.
        let mut q = EventQueue::new();
        let w0 = q.bucket_width_us();
        let mut t = SimTime::ZERO;
        for i in 0..2000u64 {
            q.push(SimTime::from_micros(i * 20), i);
        }
        for _ in 0..1500 {
            let (at, _) = q.pop().unwrap();
            t = at;
        }
        assert!(
            q.bucket_width_us() < w0,
            "width narrowed: {} -> {}",
            w0,
            q.bucket_width_us()
        );
        // Sparse multi-second events afterwards: width grows back.
        for i in 0..600u64 {
            q.push(t + SimDuration::from_secs(1 + i), i);
        }
        while q.pop().is_some() {}
        assert!(
            q.bucket_width_us() > 1 << MIN_SHIFT,
            "width re-widened: {}",
            q.bucket_width_us()
        );
    }

    /// Drives the hybrid queue and the seed `BinaryHeap + HashSet`
    /// reference through one randomized wide-horizon schedule, asserting
    /// identical observable behaviour at every step. `past_pushes`
    /// additionally exercises past-scheduled saturation via
    /// `push_saturating`.
    fn differential_vs_legacy(seed: u64, steps: usize, past_pushes: bool) {
        let mut rng = crate::rng::Prng::new(seed);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        // Parallel handle lists: (new_id, legacy_id).
        let mut handles = Vec::new();
        let mut payload = 0u64;

        for _step in 0..steps {
            match rng.below(12) {
                // 0-4: push with a spread of horizons so entries land in
                // both the ring and the far heap (and survive re-bucketing).
                0..=4 => {
                    let spread = match rng.below(4) {
                        0 => rng.below(50),          // same-bucket dense
                        1 => rng.below(10_000),      // near horizon
                        2 => rng.below(5_000_000),   // seconds out
                        _ => rng.below(600_000_000), // minutes out (far)
                    };
                    let at = new_q.now() + SimDuration::from_micros(spread);
                    payload += 1;
                    let a = new_q.push(at, payload);
                    let b = ref_q.push(at, payload);
                    handles.push((a, b));
                }
                // 5: past-scheduled push (saturates to "now").
                5 => {
                    if past_pushes {
                        let back = rng.below(1_000_000);
                        let at = SimTime::from_micros(new_q.now().as_micros().saturating_sub(back));
                        payload += 1;
                        let (a, sat_a) = new_q.push_saturating(at, payload);
                        let (b, sat_b) = ref_q.push_saturating(at, payload);
                        assert_eq!(sat_a, sat_b, "saturation flag");
                        handles.push((a, b));
                    }
                }
                // 6-7: cancel a random (possibly stale) handle.
                6 | 7 => {
                    if !handles.is_empty() {
                        let i = rng.below(handles.len() as u64) as usize;
                        let (a, b) = handles[i];
                        assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel outcome");
                    }
                }
                // 8-9: pop.
                8 | 9 => {
                    assert_eq!(new_q.pop(), ref_q.pop(), "pop");
                }
                // 10-11: peek.
                _ => {
                    assert_eq!(new_q.peek_time(), ref_q.peek_time(), "peek");
                }
            }
            assert_eq!(new_q.len(), ref_q.len(), "len");
            assert_eq!(new_q.is_empty(), ref_q.is_empty(), "is_empty");
            assert_eq!(
                new_q.saturated_pushes(),
                ref_q.saturated_pushes(),
                "saturation count"
            );
        }
        // Drain both; full remaining order must match.
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn differential_hybrid_vs_legacy_wide_horizon() {
        for seed in 1..=20u64 {
            differential_vs_legacy(seed, 2000, false);
        }
        for seed in 100..=110u64 {
            differential_vs_legacy(seed, 2000, true);
        }
    }

    #[test]
    fn rebucket_pulls_far_events_under_the_widened_horizon() {
        // The schedule the random differential never draws: the
        // `migrate_far()` that ends `rebucket` is the only thing that moves
        // the 1.2 s event into the ring here, because the clock never
        // advances (so no cursor-day migration runs). Without it the ring
        // would serve the later 1.5 s event first.
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        let at = SimTime::from_millis(1_200);
        new_q.push(at, 0); // beyond the initial ≈1.05 s horizon: far heap
        ref_q.push(at, 0);
        let mut handles = Vec::new();
        for i in 0..300u64 {
            // Occupancy doubles the ring to 256 buckets: horizon ≈2.1 s.
            let at = SimTime::from_millis(1 + 3 * i);
            handles.push((new_q.push(at, 1 + i), ref_q.push(at, 1 + i)));
        }
        assert!(new_q.ring_buckets() > MIN_BUCKETS, "the ring grew");
        for (a, b) in handles {
            assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel outcome");
        }
        let at = SimTime::from_millis(1_500); // inside the widened horizon
        new_q.push(at, 1_000);
        ref_q.push(at, 1_000);
        assert_eq!(new_q.peek_time(), Some(SimTime::from_millis(1_200)));
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn legacy_reference_clamps_past_pushes_to_now_and_counts_them() {
        // Pins the reference itself: the differential test is only as good
        // as the queue it compares against.
        let mut q: LegacyQueue<u32> = LegacyQueue::new();
        q.push(SimTime::from_secs(5), 0);
        q.pop();
        let (_, saturated) = q.push_saturating(SimTime::from_secs(6), 1);
        assert!(!saturated, "an on-time push is not flagged");
        assert_eq!(q.saturated_pushes(), 0);
        let (_, saturated) = q.push_saturating(SimTime::from_secs(1), 2);
        assert!(saturated, "past schedule is flagged");
        assert_eq!(q.saturated_pushes(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)), "clamped to now");
        assert_eq!(q.pop(), Some((SimTime::from_secs(6), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn ring_grows_with_occupancy_and_shrinks_back() {
        let mut q = EventQueue::new();
        assert_eq!(q.ring_buckets(), MIN_BUCKETS);
        // A big pending set must not degrade into the far heap: the ring
        // doubles until the set is ring-resident.
        for i in 0..4096u64 {
            q.push(SimTime::from_micros(i * 300), i);
        }
        assert!(
            q.ring_buckets() >= 2048,
            "ring grew: {} buckets",
            q.ring_buckets()
        );
        // Drain; the pop-side adaptation shrinks the drained ring back.
        while q.pop().is_some() {}
        for i in 0..600u64 {
            q.push(SimTime::from_secs(2 + i), i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.ring_buckets(), MIN_BUCKETS, "ring shrank back");
    }

    #[test]
    fn large_queue_pops_sorted() {
        let mut q = EventQueue::new();
        let mut rng = crate::rng::Prng::new(42);
        for i in 0..10_000u64 {
            q.push(SimTime::from_micros(rng.below(1_000_000)), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
