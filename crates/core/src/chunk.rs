//! The chunk ledger: which byte ranges are assigned, in flight, completed,
//! and playable.
//!
//! MSPlayer partitions the video into variable-size chunks fetched over two
//! paths. The ledger enforces the paper's memory rule — "allows at most one
//! out-of-order chunk to be stored" (§2) — by exposing
//! [`ChunkLedger::ooo_completed`] for the player's gating decision, and
//! handles re-assignment of holes left by failed transfers (robustness,
//! §2).

use msim_http::ByteRange;

/// Index of a chunk in issue order.
pub type ChunkIndex = u64;

/// A path identifier (0 = first/WiFi, 1 = second/LTE by convention).
pub type PathId = usize;

/// A chunk assignment handed to a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkAssignment {
    /// Issue-order index.
    pub index: ChunkIndex,
    /// The byte range to request.
    pub range: ByteRange,
    /// The path responsible.
    pub path: PathId,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    index: ChunkIndex,
    start: u64,
    len: u64,
    path: PathId,
}

/// Ledger over a resource of `total_len` bytes.
#[derive(Debug)]
pub struct ChunkLedger {
    total_len: u64,
    /// Next never-assigned byte offset.
    frontier_unassigned: u64,
    next_index: ChunkIndex,
    in_flight: Vec<InFlight>,
    /// Completed ranges ahead of the prefix, sorted by start offset
    /// (non-overlapping). The paper's memory rule keeps at most a couple of
    /// out-of-order chunks alive, so a flat sorted vec beats a tree map:
    /// no per-node allocation, and the fold loop walks a cache line.
    completed: Vec<(u64, u64)>,
    /// Bytes contiguous from offset 0 (the playable prefix).
    contiguous: u64,
    /// Holes from aborted transfers, to re-assign first: (start, len).
    holes: Vec<(u64, u64)>,
}

impl ChunkLedger {
    /// Creates a ledger for a `total_len`-byte resource.
    pub fn new(total_len: u64) -> ChunkLedger {
        ChunkLedger {
            total_len,
            frontier_unassigned: 0,
            next_index: 0,
            in_flight: Vec::new(),
            completed: Vec::new(),
            contiguous: 0,
            holes: Vec::new(),
        }
    }

    /// Total resource size.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Bytes playable from the start of the resource.
    pub fn contiguous_bytes(&self) -> u64 {
        self.contiguous
    }

    /// True when every byte of the resource has been fetched.
    pub fn is_complete(&self) -> bool {
        self.contiguous >= self.total_len
    }

    /// The assignment frontier: the lowest byte offset never handed to any
    /// path. Holes from aborted transfers sit *below* the frontier and are
    /// refilled at their original planning (a closed-loop ABR switch
    /// re-plans only the region at and beyond the frontier).
    pub fn frontier(&self) -> u64 {
        self.frontier_unassigned
    }

    /// Re-plans the un-assigned tail of the resource to a new total length
    /// (closed-loop ABR itag switch: the remaining video is re-costed at
    /// the new rung's bytes-per-second). Everything at or below the
    /// frontier — completed ranges, in-flight requests, holes — is
    /// untouched, which is what lets in-flight chunks complete at the old
    /// rung. Panics if `new_total` would cut into already-assigned bytes.
    pub fn retarget_total(&mut self, new_total: u64) {
        assert!(
            new_total >= self.frontier_unassigned,
            "retarget below the assignment frontier ({new_total} < {})",
            self.frontier_unassigned
        );
        self.total_len = new_total;
    }

    /// Bytes not yet assigned to any path (excludes in-flight).
    pub fn unassigned_bytes(&self) -> u64 {
        let hole_bytes: u64 = self.holes.iter().map(|&(_, l)| l).sum();
        (self.total_len - self.frontier_unassigned.min(self.total_len)) + hole_bytes
    }

    /// Whether `path` already has an outstanding chunk (the player keeps at
    /// most one request in flight per path — sequential range requests on a
    /// persistent connection).
    pub fn has_in_flight(&self, path: PathId) -> bool {
        self.in_flight.iter().any(|f| f.path == path)
    }

    /// Number of *completed* chunks that are not yet playable because an
    /// earlier range is still missing. This is the quantity the player
    /// compares against the out-of-order cap.
    pub fn ooo_completed(&self) -> usize {
        self.completed.len()
    }

    /// Would a new assignment to `path` necessarily be out of order?
    /// True iff some earlier bytes are in flight on another path
    /// (i.e. the new chunk cannot be the hole-filler).
    pub fn next_would_be_ooo(&self, path: PathId) -> bool {
        let next_start = self
            .holes
            .first()
            .map(|&(s, _)| s)
            .unwrap_or(self.frontier_unassigned);
        self.in_flight
            .iter()
            .any(|f| f.path != path && f.start < next_start)
    }

    /// Assigns the next chunk of `len` bytes to `path` (holes first, then
    /// the frontier). Returns `None` when nothing remains to assign.
    /// Panics if `path` already has an in-flight chunk.
    pub fn assign(&mut self, path: PathId, len: u64) -> Option<ChunkAssignment> {
        assert!(
            !self.has_in_flight(path),
            "path {path} already has a chunk in flight"
        );
        assert!(len > 0, "zero-length assignment");
        let (start, take) = if let Some((hole_start, hole_len)) = self.holes.first().copied() {
            let take = hole_len.min(len);
            if take == hole_len {
                self.holes.remove(0);
            } else {
                self.holes[0] = (hole_start + take, hole_len - take);
            }
            (hole_start, take)
        } else {
            if self.frontier_unassigned >= self.total_len {
                return None;
            }
            let take = len.min(self.total_len - self.frontier_unassigned);
            let start = self.frontier_unassigned;
            self.frontier_unassigned += take;
            (start, take)
        };
        let index = self.next_index;
        self.next_index += 1;
        self.in_flight.push(InFlight {
            index,
            start,
            len: take,
            path,
        });
        Some(ChunkAssignment {
            index,
            range: ByteRange::from_offset_len(start, take),
            path,
        })
    }

    /// Marks the chunk with `index` complete. Returns the new contiguous
    /// byte count.
    pub fn complete(&mut self, index: ChunkIndex) -> u64 {
        let pos = self
            .in_flight
            .iter()
            .position(|f| f.index == index)
            .unwrap_or_else(|| panic!("completing unknown chunk {index}"));
        let f = self.in_flight.swap_remove(pos);
        let at = self.completed.partition_point(|&(s, _)| s < f.start);
        self.completed.insert(at, (f.start, f.len));
        // Fold newly contiguous ranges into the prefix.
        let mut folded = 0;
        for &(start, len) in &self.completed {
            if start == self.contiguous {
                self.contiguous += len;
                folded += 1;
            } else {
                break;
            }
        }
        self.completed.drain(..folded);
        self.contiguous
    }

    /// Aborts the in-flight chunk on `path` (transfer failed); its range
    /// becomes a hole that the next assignment (on any path) fills first.
    /// Returns the aborted assignment if one existed.
    pub fn abort_in_flight(&mut self, path: PathId) -> Option<ChunkAssignment> {
        let pos = self.in_flight.iter().position(|f| f.path == path)?;
        let f = self.in_flight.swap_remove(pos);
        self.holes.push((f.start, f.len));
        self.holes.sort_unstable();
        Some(ChunkAssignment {
            index: f.index,
            range: ByteRange::from_offset_len(f.start, f.len),
            path: f.path,
        })
    }

    /// The in-flight assignment on `path`, if any.
    pub fn in_flight_on(&self, path: PathId) -> Option<ChunkAssignment> {
        self.in_flight
            .iter()
            .find(|f| f.path == path)
            .map(|f| ChunkAssignment {
                index: f.index,
                range: ByteRange::from_offset_len(f.start, f.len),
                path: f.path,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_assignment_single_path() {
        let mut l = ChunkLedger::new(1000);
        let a = l.assign(0, 300).unwrap();
        assert_eq!(a.range.start, 0);
        assert_eq!(a.range.len(), 300);
        l.complete(a.index);
        assert_eq!(l.contiguous_bytes(), 300);
        let b = l.assign(0, 300).unwrap();
        assert_eq!(b.range.start, 300);
        l.complete(b.index);
        let c = l.assign(0, 500).unwrap();
        assert_eq!(c.range.len(), 400, "clamped to resource end");
        l.complete(c.index);
        assert!(l.is_complete());
        assert!(l.assign(0, 100).is_none(), "nothing left");
    }

    #[test]
    fn out_of_order_accounting() {
        let mut l = ChunkLedger::new(10_000);
        let a = l.assign(0, 1000).unwrap(); // [0,1000)
        let b = l.assign(1, 1000).unwrap(); // [1000,2000)
        assert_eq!(b.range.start, 1000);
        // Path 1 finishes first: chunk b is out of order.
        l.complete(b.index);
        assert_eq!(l.contiguous_bytes(), 0);
        assert_eq!(l.ooo_completed(), 1);
        // Path 0 finishes: both fold into the prefix.
        l.complete(a.index);
        assert_eq!(l.contiguous_bytes(), 2000);
        assert_eq!(l.ooo_completed(), 0);
    }

    #[test]
    fn next_would_be_ooo_logic() {
        let mut l = ChunkLedger::new(100_000);
        let _a = l.assign(0, 1000).unwrap();
        // Path 1 considering a new chunk: path 0 holds earlier bytes.
        assert!(l.next_would_be_ooo(1));
        // Path 0's own next chunk would start at 1000 with its old one...
        // (not applicable while it has one in flight, but the query itself:)
        assert!(!l.next_would_be_ooo(0), "own in-flight does not count");
    }

    #[test]
    fn abort_creates_hole_filled_first() {
        let mut l = ChunkLedger::new(10_000);
        let a = l.assign(0, 1000).unwrap(); // [0,1000) on path 0
        let b = l.assign(1, 1000).unwrap(); // [1000,2000) on path 1
        l.complete(b.index);
        // Path 0 dies; its range becomes a hole.
        let aborted = l.abort_in_flight(0).unwrap();
        assert_eq!(aborted.index, a.index);
        assert_eq!(l.ooo_completed(), 1, "b is stranded");
        // Path 1 picks up work: gets the hole, not the frontier.
        let c = l.assign(1, 4000).unwrap();
        assert_eq!(c.range.start, 0);
        assert_eq!(c.range.len(), 1000, "hole fill clamps to hole size");
        l.complete(c.index);
        assert_eq!(l.contiguous_bytes(), 2000, "hole + b fold together");
    }

    #[test]
    fn partial_hole_fill() {
        let mut l = ChunkLedger::new(10_000);
        let a = l.assign(0, 4000).unwrap();
        l.abort_in_flight(0).unwrap();
        // Refill with smaller chunks.
        let h1 = l.assign(0, 1500).unwrap();
        assert_eq!((h1.range.start, h1.range.len()), (0, 1500));
        let h2 = l.assign(1, 1500).unwrap();
        assert_eq!((h2.range.start, h2.range.len()), (1500, 1500));
        l.complete(h1.index);
        l.complete(h2.index);
        let h3 = l.assign(0, 1500).unwrap();
        assert_eq!((h3.range.start, h3.range.len()), (3000, 1000), "hole tail");
        l.complete(h3.index);
        assert_eq!(l.contiguous_bytes(), 4000);
        assert_eq!(a.range.len(), 4000);
    }

    #[test]
    #[should_panic(expected = "already has a chunk in flight")]
    fn double_assign_same_path_panics() {
        let mut l = ChunkLedger::new(10_000);
        l.assign(0, 100).unwrap();
        l.assign(0, 100).unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown chunk")]
    fn completing_unknown_chunk_panics() {
        let mut l = ChunkLedger::new(10_000);
        l.complete(7);
    }

    #[test]
    fn retarget_replans_only_the_unassigned_tail() {
        let mut l = ChunkLedger::new(10_000);
        let a = l.assign(0, 1000).unwrap(); // [0,1000)
        let b = l.assign(1, 1000).unwrap(); // [1000,2000)
        assert_eq!(l.frontier(), 2000);
        // Down-switch: remaining video costs fewer bytes.
        l.retarget_total(5000);
        assert_eq!(l.total_len(), 5000);
        assert_eq!(l.unassigned_bytes(), 3000);
        // In-flight chunks complete at their original ranges.
        l.complete(a.index);
        l.complete(b.index);
        assert_eq!(l.contiguous_bytes(), 2000);
        // The tail streams to the new total.
        let c = l.assign(0, 10_000).unwrap();
        assert_eq!((c.range.start, c.range.len()), (2000, 3000));
        l.complete(c.index);
        assert!(l.is_complete());
    }

    #[test]
    #[should_panic(expected = "retarget below the assignment frontier")]
    fn retarget_cannot_cut_assigned_bytes() {
        let mut l = ChunkLedger::new(10_000);
        l.assign(0, 4000).unwrap();
        l.retarget_total(3000);
    }

    #[test]
    fn unassigned_accounting() {
        let mut l = ChunkLedger::new(10_000);
        assert_eq!(l.unassigned_bytes(), 10_000);
        let a = l.assign(0, 4000).unwrap();
        assert_eq!(l.unassigned_bytes(), 6_000);
        l.abort_in_flight(0).unwrap();
        assert_eq!(l.unassigned_bytes(), 10_000, "hole returns to pool");
        let _ = a;
    }

    #[test]
    fn in_flight_queries() {
        let mut l = ChunkLedger::new(10_000);
        assert!(l.in_flight_on(0).is_none());
        let a = l.assign(0, 500).unwrap();
        assert!(l.has_in_flight(0));
        assert!(!l.has_in_flight(1));
        assert_eq!(l.in_flight_on(0).unwrap(), a);
        l.complete(a.index);
        assert!(!l.has_in_flight(0));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever interleaving of assign/complete/abort happens, the
            /// ledger never loses or duplicates bytes: once everything
            /// completes, contiguous == total.
            #[test]
            fn no_bytes_lost(
                total in 1_000u64..100_000,
                chunk_sizes in prop::collection::vec(64u64..8192, 1..64),
                abort_mask in any::<u64>(),
            ) {
                let mut l = ChunkLedger::new(total);
                let mut step = 0usize;
                loop {
                    if l.is_complete() {
                        break;
                    }
                    for path in 0..2 {
                        if !l.has_in_flight(path) {
                            let len = chunk_sizes[step % chunk_sizes.len()];
                            let _ = l.assign(path, len);
                            step += 1;
                        }
                    }
                    // Abort sometimes, complete otherwise; always make
                    // progress by completing at least one path.
                    let bit = (abort_mask >> (step % 64)) & 1;
                    if bit == 1 {
                        let _ = l.abort_in_flight(1);
                    }
                    if let Some(f) = l.in_flight_on(0) {
                        l.complete(f.index);
                    } else if let Some(f) = l.in_flight_on(1) {
                        l.complete(f.index);
                    }
                    prop_assert!(step < 50_000, "runaway loop");
                }
                prop_assert_eq!(l.contiguous_bytes(), total);
                prop_assert_eq!(l.ooo_completed(), 0);
                prop_assert_eq!(l.unassigned_bytes(), 0);
            }
        }
    }
}
