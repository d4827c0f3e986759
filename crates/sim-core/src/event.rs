//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with a strict
//! total order: events scheduled for the same instant pop in the order they
//! were pushed (FIFO tie-break via a monotone sequence number). This makes
//! every simulation replayable bit-for-bit from a seed.
//!
//! ## Implementation
//!
//! An **intrusive calendar queue** (Brown 1988) over a
//! **generation-stamped slab**:
//!
//! * every pending event is **one slab node** holding its ordering key
//!   `(at, seq)`, its list link, its generation, its liveness and its
//!   payload, so whatever touches an event touches one cache line;
//! * the **ring** is a `Vec<u32>` of list heads, one per *day* (a
//!   `1 << shift` µs slice of simulated time). Push computes the day and
//!   prepends the node: O(1), no comparison, no allocation;
//! * the **cursor day**'s events sit in a small 4-ary min-heap (`today`),
//!   filled when the cursor reaches a bucket, so a bucket is ordered once,
//!   on arrival, however crowded it is: 10⁵ events at one instant cost
//!   O(log n) each, not a rescan per pop. Pop takes the heap's root; when
//!   it runs dry the cursor walks the heads to the next occupied day;
//! * a second 4-ary heap (`far`) keeps `(at, seq, slot)` for events
//!   beyond the ring's *year* (`buckets × width`); its roots are relinked
//!   into the ring as the cursor approaches them, so `today` < ring <
//!   `far` in time and pop never compares across tiers;
//! * **sizing follows the pending set.** The bucket count is the power of
//!   two above twice the live count `L` (a head costs 4 bytes) and the
//!   width is the power of two above the mean inter-pop gap `g`, or one
//!   step wider (`g < width ≤ 4g`, ≈ 2 events a bucket). By Little's law
//!   the mean scheduling distance is `L·g`, so the year spans at least 2×
//!   (typically 4×) that distance: almost every push lands in the ring and
//!   is handled once. Both are re-derived at most once per
//!   `max(ADAPT_EVERY, L)` pops, and a re-derivation relinks only what
//!   the ring holds (`L` nodes plus unreclaimed tombstones), so
//!   redistribution is ≤ 1 relink per pop amortised whatever the workload
//!   does (a push-side growth step, taken when `L` outgrows the ring, adds
//!   ≤ 2 relinks per push of a pure fill). Sizing only affects *speed*:
//!   the pop order is the strict `(time, seq)` order for every width and
//!   count (asserted by the differential tests);
//! * **two regimes.** A calendar earns its day arithmetic when thousands
//!   of events are pending; a session holds one to four. While at most
//!   `DIRECT_MAX` (8) entries are pending, tombstones included, the queue
//!   is in its **direct regime**: they all sit in `today` whatever their
//!   day, a push is one `heap_push` and a pop one `heap_pop`, and the
//!   ring, the far heap, the cursor and the sizing are not touched. The
//!   ninth pending entry starts the **ring regime** described above: the
//!   cursor is set from the clock and `today` is re-placed through the
//!   same routing every re-bucketing uses. The queue goes back when a pop
//!   finds nothing pending at all, or on `reset`, so a fleet leaves at its
//!   ninth arrival and stays out, and a session never leaves. Which regime
//!   holds is one more sizing decision: each keeps every pending entry in
//!   exactly one tier with `today` < ring < `far` in time, so it too
//!   affects speed only;
//! * cancellation is **O(1)**: it flips the node to a tombstone, which is
//!   reclaimed when the cursor reaches its day. Slots are recycled through
//!   a free list, so memory stays bounded by the peak pending count, and
//!   slot reuse bumps the generation, so a stale [`EventId`] can never
//!   cancel an unrelated later event;
//! * **slot reuse is LIFO**, which drivers may rely on: a push takes the
//!   slot freed last, a fresh slab hands slots out in push order, so a
//!   driver pushing at most one event per pop keeps each chain of events
//!   in one slot (the fluid fleet lays its slab out by this);
//! * **a timer held outside** ([`EventQueue::reserve_seq`],
//!   [`EventQueue::pop_before`]) fires where its push would have popped;
//! * [`EventQueue::reset`] returns the queue to its pristine state while
//!   keeping every allocation (heads, heaps, slab) *and* the adapted
//!   sizing, so drivers that run many sessions back-to-back (batch hosts,
//!   sweep workers) pay the warm-up once.
//!
//! ## Reference
//!
//! The seed implementation (`BinaryHeap + HashSet` lazy cancellation)
//! survives test-only as `legacy::LegacyQueue`. Randomized differential
//! tests drive both queues in lockstep through a wide-horizon session
//! schedule (same-bucket, near, seconds-out and minutes-out pushes,
//! past-scheduled saturation, stale cancels, peeks), a fleet-shaped one
//! (50 000 live, every pop re-arms), a stalled-population one (bursts
//! of near-simultaneous wakes) and one held at or under eight pending
//! (the direct regime, with a `reset` mid-stream), asserting identical
//! behaviour at every step.

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

impl EventId {
    /// The slab slot the event occupies, for debug checks of LIFO reuse.
    #[doc(hidden)]
    pub fn slot(&self) -> u32 {
        self.slot
    }
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

/// Heap entry: a node's ordering key beside its slab index.
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
    /// Cancelled; still linked in the ring or held by a heap entry.
    Tombstone,
    /// Recyclable (referenced by nothing).
    Free,
}

/// One slab cell: everything the queue knows about one event.
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// Next node of the same ring bucket ([`NIL`] ends the list).
    next: u32,
    gen: u32,
    slot: Slot<E>,
}

/// End of a bucket list / empty bucket.
const NIL: u32 = u32::MAX;

const ARITY: usize = 4;

/// Initial (and minimum) bucket count; the ring covers
/// `buckets.len() << shift` microseconds ahead of the clock.
const MIN_BUCKETS: usize = 128;

/// Initial bucket width exponent: 2^13 µs ≈ 8 ms buckets, ≈ 1 s horizon.
const DEFAULT_SHIFT: u32 = 13;

/// Bucket width bounds: 2^3 µs = 8 µs … 2^24 µs ≈ 16.8 s.
const MIN_SHIFT: u32 = 3;
const MAX_SHIFT: u32 = 24;

/// Fewest pops between two re-derivations of the ring's sizing (a queue
/// with more live events than this waits for that many pops instead).
const ADAPT_EVERY: u64 = 256;

/// Most pending entries (live and tombstoned) the direct regime holds: up
/// to here `today` alone is the queue, and the next push spreads it over
/// the calendar. A session's queue holds one to four events; a 4-ary heap
/// of eight is two levels.
const DIRECT_MAX: usize = 8;

/// A deterministic priority queue of timestamped events; a push reuses the
/// slab slot freed last (the module doc's LIFO slot reuse).
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
    /// Calendar ring: the head node of each bucket's list (`buckets.len()`
    /// is a power of two). Bucket `b` links the nodes whose day
    /// (`at >> shift`) satisfies `day % buckets.len() == b` and lies in
    /// `(cursor_day, cursor_day + buckets.len())`; within one such window
    /// the mapping day → bucket is bijective, so a bucket never mixes days.
    buckets: Vec<u32>,
    /// Nodes currently linked in the ring (live + tombstoned).
    near_len: usize,
    /// Bucket width is `1 << shift` microseconds.
    shift: u32,
    /// The last day `today` holds: `now >> shift`, or later once
    /// [`EventQueue::pop_before`] declined short of it (ring regime only).
    cursor_day: u64,
    /// The events up to the cursor day: 4-ary min-heap on `(at, seq)`. In
    /// the direct regime, every pending entry whatever its day.
    today: Vec<Entry>,
    /// The direct regime: everything pending sits in `today` (at most
    /// [`DIRECT_MAX`] entries), the ring and `far` are empty, and
    /// `cursor_day` and the adaptation state are not maintained.
    direct: bool,
    /// Events beyond the ring: 4-ary min-heap on `(at, seq)`. Invariant:
    /// every entry's day is `>= cursor_day + buckets.len()` (maintained by
    /// migration on cursor advance).
    far: Vec<Entry>,
    slots: Vec<Node<E>>,
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
    /// Adaptation state: pops since the sizing was last re-derived, and the
    /// clock at that moment (their quotient is the mean inter-pop gap).
    pops_since_adapt: u64,
    adapted_at_us: u64,
    /// Entries re-placed by [`EventQueue::rebucket`] (the amortisation
    /// bound's test reads it).
    #[cfg(test)]
    relinked: u64,
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

    /// Creates an empty queue with room for `cap` pending events in its
    /// slab and free list and, if `cap > 0`, the direct regime's in `today`.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            buckets: vec![NIL; MIN_BUCKETS],
            near_len: 0,
            shift: DEFAULT_SHIFT,
            cursor_day: 0,
            today: Vec::with_capacity(if cap > 0 { DIRECT_MAX } else { 0 }),
            direct: true,
            far: Vec::new(),
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            saturated_pushes: 0,
            ops: QueueOps::default(),
            pops_since_adapt: 0,
            adapted_at_us: 0,
            #[cfg(test)]
            relinked: 0,
        }
    }

    /// Empties the queue and rewinds the clock to zero, keeping every
    /// allocation (ring, heaps, slab, free list) and the adapted sizing.
    /// Batch drivers call this between sessions so storage is reused; the
    /// sizing carries over because it influences only speed, never pop
    /// order.
    pub fn reset(&mut self) {
        self.buckets.fill(NIL);
        self.near_len = 0;
        self.cursor_day = 0;
        self.today.clear();
        self.direct = true;
        self.far.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        self.saturated_pushes = 0;
        self.ops = QueueOps::default();
        self.pops_since_adapt = 0;
        self.adapted_at_us = 0;
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
                let node = &mut self.slots[idx as usize];
                (node.at, node.seq, node.slot) = (at, seq, Slot::Occupied(payload));
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&idx| idx != NIL)
                    .expect("event slab exhausted");
                self.slots.push(Node {
                    at,
                    seq,
                    next: NIL,
                    gen: 0,
                    slot: Slot::Occupied(payload),
                });
                idx
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.live += 1;
        self.place(Entry { at, seq, slot });
        // A pending set that outgrew the ring would pile into the far heap
        // and be handled twice: grow now rather than at the next pop-side
        // re-derivation (a fill pushes before it pops).
        if self.live > self.buckets.len() {
            self.rebucket(self.shift, (2 * self.live).next_power_of_two());
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
        let Some(node) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if node.gen != id.gen || !matches!(node.slot, Slot::Occupied(_)) {
            return false;
        }
        node.slot = Slot::Tombstone;
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
            let Some(entry) = heap_pop(&mut self.today) else {
                if self.next_day() {
                    continue;
                }
                return None;
            };
            // A tombstone's slot is recycled here, where it surfaces.
            if let Some(payload) = self.release_slot(entry.slot) {
                self.live -= 1;
                self.ops.pops += 1;
                self.advance_now(entry.at);
                return Some((entry.at, payload));
            }
        }
    }

    /// Takes the next push's sequence number, for a timer held outside.
    pub fn reserve_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Pops the earliest live event if it sorts before the outside timer
    /// `(at, seq)`; otherwise the timer is due: the clock moves to `at` and
    /// the call returns `None`.
    pub fn pop_before(&mut self, at: SimTime, seq: u64) -> Option<(SimTime, E)> {
        loop {
            match self.today.first().copied() {
                None if self.next_day() => {}
                // A tombstone sorting before the timer is reclaimed, as `pop`
                // would; whatever sorts after the timer leaves it due.
                Some(root) if root.key() < (at, seq) => {
                    if self.live_at(root.slot).is_some() {
                        return self.pop();
                    }
                    heap_pop(&mut self.today);
                    self.release_slot(root.slot);
                }
                _ => break,
            }
        }
        self.now = at;
        None
    }

    /// Timestamp of the next live event without popping it.
    ///
    /// Pure (`&self`): peeking skips tombstones without reclaiming them —
    /// reclamation happens on `pop`.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.live == 0 {
            return None;
        }
        // `today` < ring < `far` in time, and within the ring bucket order
        // is day order: the first tier (and bucket) holding a live event
        // holds the earliest. Heaps are scanned whole because a pure peek
        // cannot rotate a tombstoned root away.
        let heap_min = |heap: &[Entry]| heap.iter().filter_map(|e| self.live_at(e.slot)).min();
        if let Some(at) = heap_min(&self.today) {
            return Some(at);
        }
        if self.near_len > 0 {
            let nb = self.buckets.len() as u64;
            for day in self.cursor_day + 1..self.cursor_day + nb {
                let mut slot = self.buckets[(day & (nb - 1)) as usize];
                let mut min = None;
                while slot != NIL {
                    min = self.live_at(slot).into_iter().chain(min).min();
                    slot = self.slots[slot as usize].next;
                }
                if min.is_some() {
                    return min;
                }
            }
        }
        heap_min(&self.far)
    }

    /// Number of live (non-cancelled) events still pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The current bucket width in microseconds (for tests; adapts to the
    /// observed event spacing).
    #[cfg(test)]
    fn bucket_width_us(&self) -> u64 {
        1 << self.shift
    }

    /// The current calendar bucket count (for tests; follows the number of
    /// pending events up and back down).
    #[cfg(test)]
    fn ring_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The timestamp of `slot`'s event unless it was cancelled.
    #[inline]
    fn live_at(&self, slot: u32) -> Option<SimTime> {
        let node = &self.slots[slot as usize];
        matches!(node.slot, Slot::Occupied(_)).then_some(node.at)
    }

    /// Frees `slot`, bumping its generation; returns the payload if it was
    /// still occupied (`None` for tombstones).
    fn release_slot(&mut self, slot: u32) -> Option<E> {
        let node = &mut self.slots[slot as usize];
        node.gen = node.gen.wrapping_add(1);
        let payload = match std::mem::replace(&mut node.slot, Slot::Free) {
            Slot::Occupied(p) => Some(p),
            Slot::Tombstone => None,
            Slot::Free => unreachable!("slot freed twice"),
        };
        self.free.push(slot);
        payload
    }

    /// Routes an entry by its day: `today`, a ring bucket, or the far heap.
    /// In the direct regime there are no days: the entry joins `today`,
    /// unless it is the one that fills it past [`DIRECT_MAX`].
    #[inline]
    fn place(&mut self, entry: Entry) {
        if self.direct {
            if self.today.len() < DIRECT_MAX {
                return heap_push(&mut self.today, entry);
            }
            self.leave_direct();
        }
        let day = entry.at.as_micros() >> self.shift;
        let nb = self.buckets.len() as u64;
        if day <= self.cursor_day {
            heap_push(&mut self.today, entry);
        } else if day - self.cursor_day < nb {
            let head = &mut self.buckets[(day & (nb - 1)) as usize];
            self.slots[entry.slot as usize].next = *head;
            *head = entry.slot;
            self.near_len += 1;
        } else {
            heap_push(&mut self.far, entry);
        }
    }

    /// Ends the direct regime: `today` (full, [`DIRECT_MAX`] entries) is
    /// spread over the calendar from the clock's day, as [`Self::rebucket`]
    /// re-places it, and the spacing average starts from here.
    #[cold]
    fn leave_direct(&mut self) {
        self.direct = false;
        self.cursor_day = self.now.as_micros() >> self.shift;
        self.pops_since_adapt = 0;
        self.adapted_at_us = self.now.as_micros();
        let held = <[Entry; DIRECT_MAX]>::try_from(&self.today[..]).expect("a full `today`");
        self.today.clear();
        for entry in held {
            self.place(entry);
        }
    }

    /// With `today` drained, moves the cursor to the next day that holds
    /// anything and loads it. `false` when nothing is pending at all, which
    /// (re-)enters the direct regime.
    fn next_day(&mut self) -> bool {
        if self.near_len == 0 {
            // Empty ring: jump to the far root, which migrates into `today`.
            let Some(root) = self.far.first() else {
                self.direct = true;
                return false;
            };
            self.cursor_day = root.at.as_micros() >> self.shift;
        } else {
            let mask = self.buckets.len() as u64 - 1;
            let mut slot = NIL;
            while slot == NIL {
                self.cursor_day += 1;
                slot = std::mem::replace(&mut self.buckets[(self.cursor_day & mask) as usize], NIL);
            }
            // Tombstones are reclaimed here, off the node the walk has in
            // cache anyway, so only live events pay for ordering.
            while slot != NIL {
                let node = &self.slots[slot as usize];
                let (at, seq, next) = (node.at, node.seq, node.next);
                if matches!(node.slot, Slot::Occupied(_)) {
                    heap_push(&mut self.today, Entry { at, seq, slot });
                } else {
                    self.release_slot(slot);
                }
                self.near_len -= 1;
                slot = next;
            }
        }
        self.migrate_far();
        true
    }

    /// Records a pop at `at` and, once per `max(ADAPT_EVERY, live)` pops,
    /// re-derives the ring's sizing from what it has seen since.
    fn advance_now(&mut self, at: SimTime) {
        self.now = at;
        if self.direct {
            return;
        }
        self.pops_since_adapt += 1;
        if self.pops_since_adapt < ADAPT_EVERY.max(self.live as u64) {
            return;
        }
        let at_us = at.as_micros();
        let avg_gap = ((at_us - self.adapted_at_us) / self.pops_since_adapt).max(1);
        self.pops_since_adapt = 0;
        self.adapted_at_us = at_us;
        // Bucket width: the power of two above the average spacing. A
        // width one step wider than that is left alone, so a spacing
        // average that hovers near a power-of-two boundary does not
        // redistribute the ring at every re-derivation; a narrower one is
        // not, because it would shorten the year below the scheduling
        // distance. The bucket count follows twice the live count up and
        // down (bounded below by MIN_BUCKETS).
        let mut shift = (64 - avg_gap.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        if self.shift == shift + 1 {
            shift = self.shift;
        }
        let nb = (2 * self.live).next_power_of_two().max(MIN_BUCKETS);
        if shift != self.shift || nb != self.buckets.len() {
            self.rebucket(shift, nb);
        }
    }

    /// Restores the far-heap invariant after a cursor advance: roots whose
    /// day entered the ring's window are relinked into it.
    fn migrate_far(&mut self) {
        let horizon = self.cursor_day + self.buckets.len() as u64;
        while let Some(root) = self.far.first() {
            if root.at.as_micros() >> self.shift >= horizon {
                break;
            }
            let entry = heap_pop(&mut self.far).expect("checked non-empty");
            self.place(entry);
        }
    }

    /// Changes the bucket width to `1 << new_shift` µs and/or the bucket
    /// count, re-placing `today` and relinking every ring node (some may
    /// spill to the far heap under a narrower horizon).
    fn rebucket(&mut self, new_shift: u32, new_buckets: usize) {
        debug_assert!(new_buckets.is_power_of_two());
        let old = std::mem::replace(&mut self.buckets, vec![NIL; new_buckets]);
        let today = std::mem::take(&mut self.today);
        #[cfg(test)]
        {
            self.relinked += (today.len() + self.near_len) as u64;
        }
        self.near_len = 0;
        self.shift = new_shift;
        self.cursor_day = self.now.as_micros() >> new_shift;
        for entry in today {
            self.place(entry);
        }
        for mut slot in old {
            while slot != NIL {
                let node = &self.slots[slot as usize];
                let (at, seq, next) = (node.at, node.seq, node.next);
                self.place(Entry { at, seq, slot });
                slot = next;
            }
        }
        // A wider width or a bigger ring also widens the horizon: pull in
        // far roots that now fit.
        self.migrate_far();
    }
}

/// Adds `entry` to a 4-ary min-heap on `(at, seq)`.
#[inline]
fn heap_push(heap: &mut Vec<Entry>, entry: Entry) {
    let mut i = heap.len();
    heap.push(entry);
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[parent].key() <= entry.key() {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = entry;
}

/// Removes the heap's root entry, restoring the heap property.
#[inline]
fn heap_pop(heap: &mut Vec<Entry>) -> Option<Entry> {
    let entry = heap.pop()?;
    let len = heap.len();
    if len == 0 {
        return Some(entry);
    }
    let root = heap[0];
    let mut i = 0;
    loop {
        let first_child = i * ARITY + 1;
        if first_child >= len {
            break;
        }
        let mut min_child = first_child;
        for c in first_child + 1..(first_child + ARITY).min(len) {
            if heap[c].key() < heap[min_child].key() {
                min_child = c;
            }
        }
        if entry.key() <= heap[min_child].key() {
            break;
        }
        heap[i] = heap[min_child];
        i = min_child;
    }
    heap[i] = entry;
    Some(root)
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
    fn slots_are_reused_last_freed_first_in_both_regimes() {
        for pending in [4u64, 1_000] {
            let mut q = EventQueue::new();
            // A fresh slab hands out slots in push order; payload = slot.
            for k in 0..pending {
                let id = q.push(SimTime::from_millis(k), k);
                assert_eq!(u64::from(id.slot()), k);
            }
            assert_eq!(q.direct, pending <= DIRECT_MAX as u64);
            // One push after each pop: every chain keeps its slot, however
            // the ring re-buckets under it.
            for _ in 0..3 * pending {
                let (now, k) = q.pop().expect("the population never drains");
                let id = q.push(now + SimDuration::from_millis(pending), k);
                assert_eq!(u64::from(id.slot()), k, "{pending} pending");
            }
            // Two pops, then two pushes: the slot freed last is taken first.
            let (_, a) = q.pop().unwrap();
            let (now, b) = q.pop().unwrap();
            assert_eq!(u64::from(q.push(now, b).slot()), b);
            assert_eq!(u64::from(q.push(now, a).slot()), a);
            assert_eq!(q.slots.len() as u64, pending, "no slot was added");
            assert_eq!(ring_untouched(&q), pending <= DIRECT_MAX as u64);
        }
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
        // Dense sub-millisecond events: the pop-side spacing rule must
        // narrow the default ~8 ms buckets.
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

    /// The other differential schedule: a constant population of `live`
    /// wakes, where every pop re-arms its session at `wake(rng, now)` and
    /// `cancel_per_mille` of pops also supersede (cancel and re-arm) a
    /// random session's wake. Lockstep against the reference for `pops`
    /// pops, then drained; returns the drained queue for its counters.
    fn differential_wake_cycle(
        live: u64,
        pops: usize,
        cancel_per_mille: u64,
        wake: impl Fn(&mut crate::rng::Prng, SimTime) -> SimTime,
    ) -> EventQueue<u64> {
        let mut rng = crate::rng::Prng::new(live ^ pops as u64);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        let mut handles: Vec<_> = (0..live)
            .map(|s| {
                let at = wake(&mut rng, SimTime::ZERO);
                (new_q.push(at, s), ref_q.push(at, s))
            })
            .collect();
        for _ in 0..pops {
            let popped = new_q.pop();
            assert_eq!(popped, ref_q.pop(), "pop");
            let (now, s) = popped.expect("the population never drains");
            let at = wake(&mut rng, now);
            handles[s as usize] = (new_q.push(at, s), ref_q.push(at, s));
            if rng.below(1000) < cancel_per_mille {
                let s = rng.below(live);
                let (a, b) = handles[s as usize];
                assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel outcome");
                let at = wake(&mut rng, now);
                handles[s as usize] = (new_q.push(at, s), ref_q.push(at, s));
            }
            assert_eq!(new_q.len(), ref_q.len(), "len");
        }
        assert_eq!(new_q.peek_time(), ref_q.peek_time(), "peek");
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                return new_q;
            }
        }
    }

    /// Bursts of wakes inside one millisecond, two quiet seconds apart: the
    /// mean inter-pop gap says nothing about where the events are.
    fn stalled_wake(rng: &mut crate::rng::Prng, now: SimTime) -> SimTime {
        const PERIOD_US: u64 = 2_000_000;
        let next_burst = (now.as_micros() / PERIOD_US + 1) * PERIOD_US;
        SimTime::from_micros(next_burst + rng.below(1_000))
    }

    #[test]
    fn differential_vs_legacy_fleet_shaped() {
        // 50 000 live wakes, every pop re-arms 0.1 ms–30 s out, no cancels.
        differential_wake_cycle(50_000, 150_000, 0, |rng, now| {
            now + SimDuration::from_micros(100 + rng.below(30_000_000))
        });
    }

    #[test]
    fn redistribution_is_amortised_constant() {
        // The stalled schedule (1 % cancels) is the one whose spacing
        // average swings by orders of magnitude between a burst and the
        // quiet after it: same pop order as the reference, and the sizing
        // never costs more than one relink per pop.
        let q = differential_wake_cycle(8_000, 80_000, 10, stalled_wake);
        let pops = q.op_counts().pops;
        assert!(
            q.relinked <= pops,
            "re-buckets relinked {} nodes over {pops} pops",
            q.relinked
        );
    }

    #[test]
    fn same_instant_burst_drains_fifo_in_near_linear_time() {
        // A flash crowd: 10⁵ events at one instant, and every thousandth
        // pop schedules one more for that same instant, which must queue
        // behind the whole crowd.
        const CROWD: u64 = 100_000;
        let t = SimTime::from_secs(1);
        let started = std::time::Instant::now();
        let mut q = EventQueue::with_capacity(CROWD as usize);
        for i in 0..CROWD {
            q.push(t, i);
        }
        let mut next = CROWD;
        let mut expect = 0;
        while let Some((at, i)) = q.pop() {
            assert_eq!((at, i), (t, expect), "FIFO among equal timestamps");
            expect += 1;
            if i < CROWD && i % 1_000 == 0 {
                q.push(t, next);
                next += 1;
            }
        }
        assert_eq!(expect, CROWD + CROWD / 1_000);
        // Work stays linear: ≤ 2 relinks per push while the ring grows
        // under the fill, ≤ 1 per pop while it shrinks under the drain.
        assert!(q.relinked <= 3 * CROWD, "relinked {}", q.relinked);
        if !cfg!(debug_assertions) {
            let took = started.elapsed();
            assert!(took.as_secs_f64() < 1.0, "drained in {took:?}");
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
            // Occupancy grows the ring to 512 buckets: horizon ≈4.2 s.
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

    /// True while the queue has never used the calendar since it (re-)entered
    /// the direct regime: nothing linked, nothing far, nothing re-placed.
    fn ring_untouched<E>(q: &EventQueue<E>) -> bool {
        q.direct && q.near_len == 0 && q.far.is_empty() && q.relinked == 0
    }

    /// Lockstep against the reference with the pending set (tombstones
    /// included) held at or under [`DIRECT_MAX`], so every operation runs in
    /// the direct regime: same-instant FIFO, cancels of live, stale and
    /// unknown ids, pure peeks, saturated past pushes and a `reset`
    /// mid-stream.
    fn differential_direct_regime(seed: u64, steps: usize) {
        let mut rng = crate::rng::Prng::new(seed);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        let mut handles = Vec::new();
        let mut payload = 0u64;
        for _step in 0..steps {
            match rng.below(16) {
                // Pushes from the same instant to minutes out: days apart
                // under any width, one heap here.
                0..=5 if new_q.today.len() < DIRECT_MAX => {
                    let spread = match rng.below(4) {
                        0 => 0,
                        1 => rng.below(10_000),
                        2 => rng.below(5_000_000),
                        _ => rng.below(600_000_000),
                    };
                    let at = new_q.now() + SimDuration::from_micros(spread);
                    payload += 1;
                    handles.push((new_q.push(at, payload), ref_q.push(at, payload)));
                }
                6 if new_q.today.len() < DIRECT_MAX => {
                    let back = rng.below(1_000_000);
                    let at = SimTime::from_micros(new_q.now().as_micros().saturating_sub(back));
                    payload += 1;
                    let (a, sat_a) = new_q.push_saturating(at, payload);
                    let (b, sat_b) = ref_q.push_saturating(at, payload);
                    assert_eq!(sat_a, sat_b, "saturation flag");
                    handles.push((a, b));
                }
                // Any handle ever issued since the last reset: most are stale.
                7..=9 if !handles.is_empty() => {
                    let (a, b) = handles[rng.below(handles.len() as u64) as usize];
                    assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel outcome");
                }
                10 => {
                    let unknown = EventId {
                        slot: 900 + rng.below(100) as u32,
                        gen: 0,
                    };
                    assert!(!new_q.cancel(unknown), "unknown id");
                }
                11 | 12 => assert_eq!(new_q.peek_time(), ref_q.peek_time(), "peek"),
                // Handles do not outlive a reset (the slab restarts), so the
                // list restarts with it.
                13 if rng.below(40) == 0 => {
                    new_q.reset();
                    ref_q = LegacyQueue::new();
                    handles.clear();
                }
                _ => assert_eq!(new_q.pop(), ref_q.pop(), "pop"),
            }
            assert_eq!(new_q.len(), ref_q.len(), "len");
            assert_eq!(
                new_q.saturated_pushes(),
                ref_q.saturated_pushes(),
                "saturation count"
            );
            assert!(ring_untouched(&new_q), "left the direct regime");
        }
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
        assert!(ring_untouched(&new_q));
    }

    #[test]
    fn differential_vs_legacy_direct_regime() {
        for seed in 1..=20u64 {
            differential_direct_regime(seed, 3000);
        }
    }

    #[test]
    fn ninth_pending_entry_spreads_to_the_ring_and_a_full_drain_re_enters() {
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        let push = |new_q: &mut EventQueue<u64>, ref_q: &mut LegacyQueue<u64>, ms, i| {
            let at = SimTime::from_millis(ms);
            (new_q.push(at, i), ref_q.push(at, i))
        };
        // Eight entries from the clock's day out past the default year: all
        // direct, whatever their day.
        let times = [0, 0, 700, 20, 90_000, 20, 40, 3_000];
        for (i, ms) in times.into_iter().enumerate() {
            push(&mut new_q, &mut ref_q, ms, i as u64);
        }
        assert!(ring_untouched(&new_q));
        assert_eq!(new_q.today.len(), DIRECT_MAX);
        // The ninth spreads them: today, ring and far heap each get theirs.
        push(&mut new_q, &mut ref_q, 20, 8);
        assert!(!new_q.direct);
        assert_eq!(new_q.today.len(), 2, "the two at the clock's day");
        assert_eq!(new_q.near_len, 5);
        assert_eq!(new_q.far.len(), 2);
        assert_eq!(new_q.peek_time(), ref_q.peek_time());
        // Order is kept across the move, and draining re-enters only when
        // nothing at all is pending.
        for left in (0..9).rev() {
            assert_eq!(new_q.pop(), ref_q.pop());
            assert_eq!(new_q.len(), left);
            assert!(!new_q.direct, "{left} still pending");
        }
        assert_eq!(new_q.pop(), None);
        assert!(new_q.direct);

        // Tombstones count towards the eight: four live events and four
        // cancelled ones fill the regime, so the next push leaves it.
        let now = new_q.now().as_micros() / 1_000;
        let handles: Vec<_> = (0..8)
            .map(|i| push(&mut new_q, &mut ref_q, now + 10 * i, 10 + i))
            .collect();
        for (a, b) in handles.into_iter().step_by(2) {
            assert_eq!(new_q.cancel(a), ref_q.cancel(b));
        }
        assert_eq!(new_q.len(), 4);
        assert!(new_q.direct);
        push(&mut new_q, &mut ref_q, now + 1, 18);
        assert!(!new_q.direct);
        // `reset` re-enters from the ring regime too.
        let mut other: EventQueue<u64> = EventQueue::new();
        for i in 0..20 {
            other.push(SimTime::from_millis(i * 50), i);
        }
        assert!(!other.direct);
        other.reset();
        assert!(other.direct);
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
        assert!(new_q.direct);
    }

    #[test]
    fn a_session_shaped_schedule_never_touches_the_ring() {
        // A session's events with its tick pushed through the queue: one
        // coalesced tick (cancel + re-arm when superseded), one completion
        // per path, now and then a recovery timer seconds out. 300 pushes,
        // a handful pending at a time, microseconds to seconds apart (so
        // days apart under any width), and the calendar is never used.
        const TICK: u64 = 0;
        let mut rng = crate::rng::Prng::new(22);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
        let arm = |new_q: &mut EventQueue<u64>, ref_q: &mut LegacyQueue<u64>, after_us, ev| {
            let at = new_q.now() + SimDuration::from_micros(after_us);
            (new_q.push(at, ev), ref_q.push(at, ev))
        };
        let mut tick = arm(&mut new_q, &mut ref_q, 100_000, TICK);
        for path in 1..=2 {
            arm(&mut new_q, &mut ref_q, 30_000 * path, path);
        }
        let mut peak = 0;
        while new_q.op_counts().pushes < 300 {
            let popped = new_q.pop();
            assert_eq!(popped, ref_q.pop(), "pop");
            let (_, ev) = popped.expect("a session always has a timer pending");
            if ev == TICK {
                tick = arm(&mut new_q, &mut ref_q, 100_000, TICK);
            } else if ev <= 2 {
                // A chunk landed: request the next one, and one time in
                // three the player moves its tick up.
                arm(&mut new_q, &mut ref_q, 5_000 + rng.below(200_000), ev);
                if rng.below(3) == 0 {
                    assert_eq!(new_q.cancel(tick.0), ref_q.cancel(tick.1), "cancel");
                    tick = arm(&mut new_q, &mut ref_q, rng.below(50_000), TICK);
                }
                if rng.below(20) == 0 && new_q.len() < 5 {
                    arm(&mut new_q, &mut ref_q, 8_000_000, 3);
                }
            }
            assert_eq!(new_q.peek_time(), ref_q.peek_time(), "peek");
            peak = peak.max(new_q.today.len());
            assert!(ring_untouched(&new_q), "{} pending", new_q.today.len());
        }
        assert!((3..=DIRECT_MAX).contains(&peak), "peak pending {peak}");
        assert!(new_q.op_counts().cancels > 20);
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "drain");
            if a.is_none() {
                break;
            }
        }
        assert!(ring_untouched(&new_q));
    }

    /// A timer held outside the queue (`reserve_seq` when it is set,
    /// `pop_before` to deliver it) fires exactly where the reference's
    /// pushed timer pops (cancel and push on re-arm), same-instant ties
    /// included, with cancelled events in the way. Populations of 2 and 5
    /// stay in the direct regime; 40 and 300 run the ring, where a
    /// declining `pop_before` can leave the clock short of the cursor day
    /// and the handler then pushes behind it.
    #[test]
    fn a_timer_held_outside_the_queue_pops_where_its_push_would() {
        const TIMER: u64 = 0;
        let (mut behind_the_cursor, mut reclaimed) = (0, 0);
        for (seed, population) in [(1u64, 2u64), (2, 5), (3, 40), (4, 300)] {
            let mut rng = crate::rng::Prng::new(seed);
            let mut new_q: EventQueue<u64> = EventQueue::new();
            let mut ref_q: LegacyQueue<u64> = LegacyQueue::new();
            // Whole milliseconds, so timer and queue instants often tie;
            // now and then seconds out, so the ring's days run empty.
            let later = |rng: &mut crate::rng::Prng, now: SimTime| {
                let us = match rng.below(10) {
                    0 => rng.below(3_000_000),
                    _ => 1_000 * rng.below(8),
                };
                now + SimDuration::from_micros(us)
            };
            let mut handles = Vec::new();
            for payload in 1..=population {
                let at = later(&mut rng, SimTime::ZERO);
                handles.push((new_q.push(at, payload), ref_q.push(at, payload)));
            }
            let (mut timer, mut ref_timer) = (None, None);
            for step in 0..6_000u64 {
                let root = new_q.today.first();
                reclaimed += u64::from(timer.is_some_and(|(at, seq)| {
                    root.is_some_and(|r| r.key() < (at, seq) && new_q.live_at(r.slot).is_none())
                }));
                let popped = match timer {
                    Some((at, seq)) => new_q.pop_before(at, seq).or_else(|| {
                        timer = None;
                        Some((at, TIMER))
                    }),
                    None => new_q.pop(),
                };
                assert_eq!(popped, ref_q.pop(), "pop");
                let Some((now, payload)) = popped else {
                    break;
                };
                assert_eq!(new_q.now(), now, "clock");
                let cursor_ahead = new_q.cursor_day > now.as_micros() >> new_q.shift;
                behind_the_cursor += u64::from(!new_q.direct && cursor_ahead);
                // Three pops in four re-push their event, and the timer's
                // handler tops the population up: both may push at `now`.
                let refill = (new_q.len() as u64) < population;
                let again = payload != TIMER && (rng.below(4) > 0 || new_q.len() < 2);
                if again || (payload == TIMER && refill) {
                    let at = later(&mut rng, now);
                    let payload = if refill {
                        step + population + 1
                    } else {
                        payload
                    };
                    handles.push((new_q.push(at, payload), ref_q.push(at, payload)));
                }
                // Now and then an event is cancelled (or a stale handle tried).
                if rng.below(8) == 0 {
                    let (a, b) = handles[rng.below(handles.len() as u64) as usize];
                    assert_eq!(new_q.cancel(a), ref_q.cancel(b), "cancel");
                }
                if payload == TIMER {
                    ref_timer = None;
                }
                // Re-arm: the timer's handler sets it two times in three, any
                // other event one time in three (a new instant overwrites).
                if rng.below(3) < 1 + u64::from(payload == TIMER) {
                    let at = later(&mut rng, now);
                    if timer.is_none_or(|(t, _)| t != at) {
                        if let Some(id) = ref_timer {
                            assert!(ref_q.cancel(id), "a pending timer");
                        }
                        ref_timer = Some(ref_q.push(at, TIMER));
                        timer = Some((at, new_q.reserve_seq()));
                    }
                }
            }
        }
        assert!(behind_the_cursor > 0, "no pop_before left the clock short");
        assert!(reclaimed > 0, "no tombstone sorted before the timer");
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
