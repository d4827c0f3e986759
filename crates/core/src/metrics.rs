//! Session metrics: everything the paper's tables and figures report.

use crate::abr::SwitchReason;
use crate::buffer::RefillRecord;
use crate::chunk::PathId;
use msim_core::time::{SimDuration, SimTime};

/// Version of the [`SessionMetrics::digest`] definition. Bump it on any
/// change to the field order, a field's encoding, or the fold itself:
/// digests of different epochs are unrelated numbers, and everything that
/// stores or exchanges them (the sampling corpus, sweep manifests'
/// fingerprints, the cluster handshake) refuses a mismatching epoch
/// instead of comparing them. Epoch 1 was FNV-1a over the `Debug`
/// rendering; epoch 2 still folded three transfer-engine counters that
/// could only read 0.
pub const DIGEST_EPOCH: u32 = 3;

/// The digest state: FNV-1a's xor-multiply taken a 64-bit word at a time,
/// followed by a high-to-low xor-shift so that a difference confined to a
/// word's top bits (an `f64` sign or exponent) reaches the low bits too.
/// Each step is a bijection of the state for a fixed word, so changing a
/// single word of an otherwise equal stream always changes the result.
struct Fold(u64);

impl Fold {
    fn new() -> Fold {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        self.0 = x ^ (x >> 32);
    }

    #[inline]
    fn time(&mut self, t: SimTime) {
        self.word(t.as_micros());
    }

    #[inline]
    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// An `Option` is its tag, then the payload if there is one.
    #[inline]
    fn opt_time(&mut self, t: Option<SimTime>) {
        match t {
            None => self.word(0),
            Some(t) => {
                self.word(1);
                self.time(t);
            }
        }
    }

    /// A `Vec` is its length, then its elements — so no sequence of
    /// fields is a prefix of another and elements cannot migrate between
    /// neighbouring `Vec`s unnoticed.
    #[inline]
    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }
}

/// One ABR quality decision that selected a (new) ladder rung (see
/// [`crate::config::AbrLadderConfig`]). The trace records the `Initial`
/// pick and every rung change; `Hold` decisions are not recorded (the
/// full per-decision trace, holds included, is
/// [`AbrTrace::decisions`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrSwitch {
    /// When the decision was taken.
    pub at: SimTime,
    /// The selected format (itag).
    pub itag: u32,
    /// Why the adapter moved.
    pub reason: SwitchReason,
}

/// One entry of the full ABR decision trace: every decision the policy
/// took, `Hold`s included, with the inputs it saw.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrDecision {
    /// When the decision was taken.
    pub at: SimTime,
    /// The selected format (itag) after the decision.
    pub itag: u32,
    /// The aggregate bandwidth estimate the policy consumed (bits/s; 0
    /// before any path has a measurement).
    pub estimate_bps: f64,
    /// The playout-buffer level the policy consumed (seconds).
    pub buffer_secs: f64,
    /// Why the policy chose this rung.
    pub reason: SwitchReason,
    /// Whether the decision actually switched the streamed itag (always
    /// `false` in shadow mode).
    pub switched: bool,
}

/// First-class QoE accounting for a closed-loop ABR session.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AbrQoe {
    /// Time-weighted average streamed bitrate (bits/s) over the session:
    /// each rung weighted by how long it was the streaming target. Equals
    /// the fixed format's bitrate when no switch fired.
    pub time_weighted_bitrate_bps: f64,
    /// Number of mid-session itag switches performed.
    pub switches: u32,
    /// Σ |Δ bitrate| over the switches (bits/s) — the oscillation
    /// magnitude penalised by standard QoE models.
    pub switch_magnitude_bps: f64,
    /// Stall time attributable to a switch (episodes beginning within
    /// [`crate::abr::SWITCH_REBUFFER_ATTRIBUTION`] of a switch).
    pub switch_rebuffer: SimDuration,
}

/// Phase tag for per-path traffic accounting (Table 1 splits traffic by
/// pre-buffering vs re-buffering phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficPhase {
    /// Before the pre-buffer target was reached.
    PreBuffering,
    /// After (steady-state ON/OFF cycles).
    ReBuffering,
}

/// One completed chunk transfer, for traces and traffic accounting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChunkRecord {
    /// Path that carried the chunk.
    pub path: PathId,
    /// Bytes delivered.
    pub bytes: u64,
    /// Request issue time.
    pub requested_at: SimTime,
    /// When the chunk's first byte arrived.
    pub first_byte_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// Which phase the chunk completed in.
    pub phase: TrafficPhase,
}

impl ChunkRecord {
    /// Measured goodput (bits/s): §3.3's throughput sample `w = S / T`, `T`
    /// from the first byte to the last; the player feeds it to its scheduler.
    #[inline]
    pub fn goodput_bps(&self) -> f64 {
        let t = self.completed_at.saturating_since(self.first_byte_at);
        self.bytes as f64 * 8.0 / t.as_secs_f64()
    }
}

/// A chunk trace records chunks of fewer bytes than this (2^48; no chunk is
/// longer than its stream, and [`Player::new`](crate::player::Player::new)
/// refuses a longer stream).
pub const MAX_TRACE_CHUNK_BYTES: u64 = 1 << 48;
/// A chunk trace tells this many paths apart (2^15);
/// [`SessionSpec::validate`](crate::sim::SessionSpec::validate) refuses a
/// spec with more.
pub const MAX_TRACE_PATHS: usize = 1 << 15;
/// A chunk trace records chunks completed before this instant (2^48 µs,
/// ≈ 8.9 years; a simulated session ends by its 4 h ceiling, and the
/// socket driver's clock starts at the session's start).
pub const MAX_TRACE_COMPLETED_AT: SimTime = SimTime::from_micros(1 << 48);
/// A chunk trace records a request or first byte less than this (2^39 µs,
/// ≈ 6.4 days) before or after the chunk's completion.
pub const MAX_TRACE_GAP: SimDuration = SimDuration::from_micros(1 << 39);

/// A [`ChunkRecord`] in 24 bytes instead of 48. The 128 bits of `times`
/// hold, from the low end, `completed_at` (48 bits), then `completed_at −
/// requested_at` and `completed_at − first_byte_at` as signed 40-bit µs
/// gaps; `bytes` (low 48 bits), `path` (next 15) and `phase` (top bit) share
/// the third word.
#[derive(Clone, Copy, PartialEq)]
struct PackedChunk {
    times: [u64; 2],
    bytes_path_phase: u64,
}

const _: () = assert!(std::mem::size_of::<PackedChunk>() == 24);

impl PackedChunk {
    fn pack(c: ChunkRecord) -> PackedChunk {
        assert!(
            c.bytes < MAX_TRACE_CHUNK_BYTES,
            "chunk of {} bytes overflows the trace's 48-bit bytes field",
            c.bytes
        );
        assert!(
            c.path < MAX_TRACE_PATHS,
            "path {} overflows the trace's 15-bit path field ({MAX_TRACE_PATHS} paths)",
            c.path
        );
        assert!(
            c.completed_at < MAX_TRACE_COMPLETED_AT,
            "completion at {} overflows the trace's 48-bit time field",
            c.completed_at
        );
        let completed = c.completed_at.as_micros();
        let gap = |t: SimTime, what: &str| {
            let g = i128::from(completed) - i128::from(t.as_micros());
            assert!(
                g.unsigned_abs() < u128::from(MAX_TRACE_GAP.as_micros()),
                "{what} {t} overflows the 40-bit gap field"
            );
            g as u128 & ((1 << 40) - 1)
        };
        let times = u128::from(completed)
            | gap(c.requested_at, "request") << 48
            | gap(c.first_byte_at, "first byte") << 88;
        PackedChunk {
            times: [times as u64, (times >> 64) as u64],
            bytes_path_phase: c.bytes | ((c.path as u64) << 48) | ((c.phase as u64) << 63),
        }
    }

    fn unpack(&self) -> ChunkRecord {
        let times = u128::from(self.times[0]) | u128::from(self.times[1]) << 64;
        let completed = times as u64 & (MAX_TRACE_COMPLETED_AT.as_micros() - 1);
        // The 40-bit gap at `shift`, sign-extended, back from `completed`.
        let back = |shift: u32| {
            let g = ((times >> shift) as i64) << 24 >> 24;
            SimTime::from_micros(completed.wrapping_sub(g as u64))
        };
        let w = self.bytes_path_phase;
        ChunkRecord {
            path: (w >> 48) as PathId & (MAX_TRACE_PATHS - 1),
            bytes: w & (MAX_TRACE_CHUNK_BYTES - 1),
            requested_at: back(48),
            first_byte_at: back(88),
            completed_at: SimTime::from_micros(completed),
            phase: if w >> 63 == 0 {
                TrafficPhase::PreBuffering
            } else {
                TrafficPhase::ReBuffering
            },
        }
    }
}

/// A session's completed chunks, in completion order, at 24 bytes a
/// record. Reads hand out [`ChunkRecord`]s by value; `Debug` renders and
/// `PartialEq` compares exactly as a `Vec<ChunkRecord>` would. A record
/// that does not fit ([`MAX_TRACE_PATHS`], [`MAX_TRACE_CHUNK_BYTES`],
/// [`MAX_TRACE_COMPLETED_AT`], [`MAX_TRACE_GAP`]) makes `push` and `set`
/// panic; nothing is truncated.
#[derive(Clone, Default, PartialEq)]
pub struct ChunkTrace(Vec<PackedChunk>);

impl ChunkTrace {
    /// Appends `chunk`.
    #[inline]
    pub fn push(&mut self, chunk: ChunkRecord) {
        self.0.push(PackedChunk::pack(chunk));
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no chunk was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Records the trace can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// The `i`-th record.
    pub fn get(&self, i: usize) -> Option<ChunkRecord> {
        self.0.get(i).map(PackedChunk::unpack)
    }

    /// The last record.
    pub fn last(&self) -> Option<ChunkRecord> {
        self.0.last().map(PackedChunk::unpack)
    }

    /// Every record, in order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = ChunkRecord> + ExactSizeIterator + '_ {
        self.0.iter().map(PackedChunk::unpack)
    }

    /// Replaces the `i`-th record (panics if `i` is out of bounds).
    pub fn set(&mut self, i: usize, chunk: ChunkRecord) {
        self.0[i] = PackedChunk::pack(chunk);
    }

    /// Swaps two records.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.0.swap(a, b);
    }

    /// Removes and returns the last record.
    pub fn pop(&mut self) -> Option<ChunkRecord> {
        self.0.pop().map(|c| c.unpack())
    }

    /// Removes every record, keeping the capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl std::fmt::Debug for ChunkTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What one path did in a session: its first video byte (§3.2's head start
/// is the gap between two paths' first bytes) and its failovers (§2).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PathMetrics {
    /// When the path delivered its first video byte.
    pub first_byte_at: Option<SimTime>,
    /// Failovers the path performed.
    pub failovers: u32,
}

const _: () = assert!(std::mem::size_of::<PathMetrics>() == 24);

/// The ABR traces of a session that ran with an
/// [`AbrLadderConfig`](crate::config::AbrLadderConfig).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AbrTrace {
    /// The initial pick and every rung change.
    pub switches: Vec<AbrSwitch>,
    /// One entry per decision interval, `Hold`s included, with the
    /// estimate/buffer inputs each decision consumed.
    pub decisions: Vec<AbrDecision>,
    /// QoE accounting of a closed-loop ladder (`None` in shadow mode).
    pub qoe: Option<AbrQoe>,
}

/// Metrics of one streaming session.
///
/// Derives `PartialEq` so determinism tests can assert bit-identical
/// replays (every field, including the ABR trace's `f64`s, must match
/// exactly).
///
/// **Exact-size contract.** A record is 152 bytes plus its traces. One
/// handed out by [`Player::into_metrics`](crate::player::Player::into_metrics)
/// or a [`SessionHost`](crate::sim::SessionHost) run holds what the session
/// recorded and nothing more: every `Vec`, and the [`ChunkTrace`], has
/// `capacity() == len()`. The per-event traces (`chunks`, and the
/// [`AbrTrace`]'s `switches` and `decisions`) grow in buffers the driver
/// lends the player and are copied out at their final length, so holding N
/// finished sessions costs 152 bytes each plus the sum of their traces (24
/// bytes a chunk record, 24 a path, 88 plus its two traces for a session
/// that ran a ladder), whatever their chunk size or stop condition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionMetrics {
    /// When the player was started.
    pub started_at: SimTime,
    /// One record per path (sized by the player at construction).
    pub paths: Vec<PathMetrics>,
    /// When the pre-buffer target was reached (Figs. 2–4 endpoint).
    pub prebuffer_done_at: Option<SimTime>,
    /// Completed refill cycles (Fig. 5).
    pub refills: Vec<RefillRecord>,
    /// Stall episodes.
    pub stalls: Vec<(SimTime, Option<SimTime>)>,
    /// Every completed chunk.
    pub chunks: ChunkTrace,
    /// When the session ended.
    pub ended_at: Option<SimTime>,
    /// Simulator events processed while producing this session (drivers
    /// fill this in; 0 outside the simulator). Feeds the bench harness's
    /// events/sec figure.
    pub events: u64,
    /// The ABR traces (`None` unless the player ran with an
    /// [`AbrLadderConfig`](crate::config::AbrLadderConfig)).
    pub abr: Option<Box<AbrTrace>>,
}

const _: () = assert!(std::mem::size_of::<SessionMetrics>() == 152);

impl SessionMetrics {
    /// An empty metrics record with per-path slots for `n_paths` paths.
    pub fn for_paths(n_paths: usize, started_at: SimTime) -> SessionMetrics {
        SessionMetrics {
            started_at,
            paths: vec![PathMetrics::default(); n_paths],
            ..SessionMetrics::default()
        }
    }

    /// Number of per-path slots this record was sized for.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// The deterministic 64-bit digest of this record, [`DIGEST_EPOCH`]
    /// version: every field folded in declaration order as 64-bit words —
    /// times and durations as microseconds, `f64`s as their bit patterns,
    /// enums as discriminants, a length before every `Vec` and a tag
    /// before every `Option` — with two exceptions of placement. `paths` is
    /// folded as two lists, each with its length: the first-byte instants
    /// in its place, the failover counts after `chunks`. The ABR trace is
    /// folded as its switches, its decisions and its QoE tag, where an
    /// absent trace folds as two empty lists and no QoE. The encoding is
    /// prefix-free, so two records digest equal only if they are
    /// bit-identical or the 64-bit fold collides, but for two cases: an
    /// `abr` of empty lists and no QoE digests like `None`, and a chunk's
    /// `first_byte_at` is folded as its [`ChunkRecord::goodput_bps`],
    /// which is blind to it when the chunk has 0 bytes or its first byte
    /// is not before its completion. Bit identity is stricter than
    /// `PartialEq`: `0.0` and `-0.0` differ, as do NaNs with different
    /// payloads. Nothing is formatted or allocated, and the value does not
    /// depend on the toolchain's float printing.
    ///
    /// Every struct is destructured without `..`: a new field does not
    /// compile until it is folded in (and [`DIGEST_EPOCH`] bumped).
    pub fn digest(&self) -> u64 {
        let SessionMetrics {
            started_at,
            paths,
            prebuffer_done_at,
            refills,
            stalls,
            chunks,
            ended_at,
            events,
            abr,
        } = self;
        let mut h = Fold::new();
        h.time(*started_at);
        h.len(paths.len());
        for PathMetrics {
            first_byte_at,
            failovers: _,
        } in paths
        {
            h.opt_time(*first_byte_at);
        }
        h.opt_time(*prebuffer_done_at);
        h.len(refills.len());
        for RefillRecord {
            started_at,
            completed_at,
            bytes,
        } in refills
        {
            h.time(*started_at);
            h.time(*completed_at);
            h.word(*bytes);
        }
        h.len(stalls.len());
        for (from, until) in stalls {
            h.time(*from);
            h.opt_time(*until);
        }
        h.len(chunks.len());
        for c in chunks.iter() {
            let ChunkRecord {
                path,
                bytes,
                requested_at,
                first_byte_at: _,
                completed_at,
                phase,
            } = c;
            h.word(path as u64);
            h.word(bytes);
            h.time(requested_at);
            h.time(completed_at);
            h.float(c.goodput_bps());
            h.word(phase as u64);
        }
        h.len(paths.len());
        for PathMetrics {
            first_byte_at: _,
            failovers,
        } in paths
        {
            h.word(u64::from(*failovers));
        }
        h.opt_time(*ended_at);
        h.word(*events);
        let no_abr = AbrTrace::default();
        let AbrTrace {
            switches,
            decisions,
            qoe,
        } = abr.as_deref().unwrap_or(&no_abr);
        h.len(switches.len());
        for AbrSwitch { at, itag, reason } in switches {
            h.time(*at);
            h.word(u64::from(*itag));
            h.word(*reason as u64);
        }
        h.len(decisions.len());
        for AbrDecision {
            at,
            itag,
            estimate_bps,
            buffer_secs,
            reason,
            switched,
        } in decisions
        {
            h.time(*at);
            h.word(u64::from(*itag));
            h.float(*estimate_bps);
            h.float(*buffer_secs);
            h.word(*reason as u64);
            h.word(u64::from(*switched));
        }
        match qoe {
            None => h.word(0),
            Some(AbrQoe {
                time_weighted_bitrate_bps,
                switches,
                switch_magnitude_bps,
                switch_rebuffer,
            }) => {
                h.word(1);
                h.float(*time_weighted_bitrate_bps);
                h.word(u64::from(*switches));
                h.float(*switch_magnitude_bps);
                h.word(switch_rebuffer.as_micros());
            }
        }
        h.0
    }

    /// Pre-buffering download time (session start → target reached).
    pub fn prebuffer_time(&self) -> Option<SimDuration> {
        self.prebuffer_done_at
            .map(|t| t.saturating_since(self.started_at))
    }

    /// Total bytes delivered over `path` during `phase`.
    pub fn bytes_on(&self, path: PathId, phase: TrafficPhase) -> u64 {
        self.chunks
            .iter()
            .filter(|c| c.path == path && c.phase == phase)
            .map(|c| c.bytes)
            .sum()
    }

    /// Fraction of `phase` traffic carried by `path` (Table 1's statistic,
    /// with path 0 = WiFi). `None` when the phase saw no traffic.
    pub fn traffic_fraction(&self, path: PathId, phase: TrafficPhase) -> Option<f64> {
        let on_path = self.bytes_on(path, phase) as f64;
        let total: u64 = self
            .chunks
            .iter()
            .filter(|c| c.phase == phase)
            .map(|c| c.bytes)
            .sum();
        (total > 0).then(|| on_path / total as f64)
    }

    /// The head start observed: difference between the first two paths'
    /// first video bytes (§3.2's π₂ − π₁).
    pub fn observed_head_start(&self) -> Option<SimDuration> {
        let first = self.paths.first().and_then(|p| p.first_byte_at);
        let second = self.paths.get(1).and_then(|p| p.first_byte_at);
        match (first, second) {
            (Some(a), Some(b)) => Some(if a <= b {
                b.saturating_since(a)
            } else {
                a.saturating_since(b)
            }),
            _ => None,
        }
    }

    /// Total stall time (rebuffering outages visible to the viewer).
    pub fn total_stall_time(&self) -> SimDuration {
        self.stalls
            .iter()
            .filter_map(|(s, e)| e.map(|e| e.saturating_since(*s)))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }

    /// Number of chunks fetched per path.
    pub fn chunk_count(&self, path: PathId) -> usize {
        self.chunks.iter().filter(|c| c.path == path).count()
    }

    /// The session's scalar QoE under [`qoe_score`], given the encoding
    /// rate it streamed at. Startup is the pre-buffer time (the full
    /// session length when the pre-buffer target was never reached).
    pub fn qoe(&self, bitrate: msim_core::units::BitRate) -> f64 {
        let startup = self
            .prebuffer_time()
            .or_else(|| self.ended_at.map(|e| e.saturating_since(self.started_at)))
            .unwrap_or(SimDuration::ZERO)
            .as_secs_f64();
        qoe_score(
            bitrate.as_mbps(),
            startup,
            self.total_stall_time().as_secs_f64(),
        )
    }
}

/// The linear QoE model used by the fleet layer's cost-vs-QoE frontier:
/// reward the encoding rate, charge startup delay at 0.5 points/s and
/// stalls at 2 points/s (the standard Yin/Jiang-style weighting — stalls
/// hurt far more than resolution). Pure and unit-free so both the exact
/// per-chunk backend and the fluid backend score sessions identically.
pub fn qoe_score(bitrate_mbps: f64, startup_secs: f64, stall_secs: f64) -> f64 {
    bitrate_mbps - 0.5 * startup_secs - 2.0 * stall_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(path: PathId, bytes: u64, phase: TrafficPhase) -> ChunkRecord {
        ChunkRecord {
            path,
            bytes,
            requested_at: SimTime::ZERO,
            first_byte_at: SimTime::ZERO,
            completed_at: SimTime::from_secs(1),
            phase,
        }
    }

    fn trace(records: &[ChunkRecord]) -> ChunkTrace {
        let mut trace = ChunkTrace::default();
        records.iter().for_each(|&c| trace.push(c));
        trace
    }

    #[test]
    fn traffic_fractions() {
        let mut m = SessionMetrics::default();
        m.chunks.push(record(0, 600, TrafficPhase::PreBuffering));
        m.chunks.push(record(1, 400, TrafficPhase::PreBuffering));
        m.chunks.push(record(0, 100, TrafficPhase::ReBuffering));
        m.chunks.push(record(1, 300, TrafficPhase::ReBuffering));
        assert_eq!(m.traffic_fraction(0, TrafficPhase::PreBuffering), Some(0.6));
        assert_eq!(m.traffic_fraction(0, TrafficPhase::ReBuffering), Some(0.25));
        assert_eq!(m.bytes_on(1, TrafficPhase::ReBuffering), 300);
        assert_eq!(m.chunk_count(0), 2);
    }

    #[test]
    fn empty_phase_has_no_fraction() {
        let m = SessionMetrics::default();
        assert_eq!(m.traffic_fraction(0, TrafficPhase::PreBuffering), None);
    }

    /// §3.3: a chunk's goodput is its bytes over the time from its first
    /// byte to its last, not from its request.
    #[test]
    fn goodput_runs_from_first_byte_to_last() {
        let c = ChunkRecord {
            requested_at: SimTime::from_millis(200),
            first_byte_at: SimTime::from_millis(600),
            completed_at: SimTime::from_millis(1_000),
            ..record(0, 50_000, TrafficPhase::PreBuffering)
        };
        assert_eq!(c.goodput_bps(), 50_000.0 * 8.0 / 0.4);
    }

    // ---- ChunkTrace --------------------------------------------------------

    /// The widest gap a trace holds, in microseconds (either sign).
    const GAP: i64 = MAX_TRACE_GAP.as_micros() as i64 - 1;
    /// The latest completion a trace holds, in microseconds.
    const LAST: i64 = MAX_TRACE_COMPLETED_AT.as_micros() as i64 - 1;

    /// A record `(completed, request gap, first-byte gap)` in microseconds.
    fn timed(completed: i64, request_gap: i64, first_byte_gap: i64) -> ChunkRecord {
        let at = |us: i64| SimTime::from_micros(us as u64);
        ChunkRecord {
            requested_at: at(completed - request_gap),
            first_byte_at: at(completed - first_byte_gap),
            completed_at: at(completed),
            ..record(0, 1, TrafficPhase::PreBuffering)
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every field comes back as pushed, the packed fields at both
            /// ends of their widths: the request and the first byte each
            /// up to 2^39 − 1 µs either side of the completion.
            #[test]
            fn chunk_trace_round_trips_every_field_at_its_bounds(
                path in prop_oneof![Just(0), Just(MAX_TRACE_PATHS - 1), 0..MAX_TRACE_PATHS],
                bytes in prop_oneof![
                    Just(1),
                    Just(MAX_TRACE_CHUNK_BYTES - 1),
                    1..MAX_TRACE_CHUNK_BYTES
                ],
                phase in prop::sample::select(vec![
                    TrafficPhase::PreBuffering,
                    TrafficPhase::ReBuffering,
                ]),
                completed in prop_oneof![Just(0), Just(LAST), 0..LAST],
                gaps in (
                    prop_oneof![Just(-GAP), Just(0), Just(GAP), -GAP..GAP],
                    prop_oneof![Just(-GAP), Just(0), Just(GAP), -GAP..GAP],
                ),
            ) {
                // No instant lies before zero: a completion earlier than
                // a positive gap is raised to it.
                let completed = completed.max(gaps.0).max(gaps.1);
                let c = ChunkRecord {
                    path,
                    bytes,
                    phase,
                    ..timed(completed, gaps.0, gaps.1)
                };
                let mut trace = ChunkTrace::default();
                trace.push(record(1, 7, TrafficPhase::ReBuffering));
                trace.push(c);
                let back = trace.get(1).expect("pushed");
                prop_assert_eq!(back.path, path);
                prop_assert_eq!(back.bytes, bytes);
                prop_assert_eq!(back.phase, phase);
                prop_assert_eq!(back.requested_at, c.requested_at);
                prop_assert_eq!(back.first_byte_at, c.first_byte_at);
                prop_assert_eq!(back.completed_at, c.completed_at);
                prop_assert_eq!(back.goodput_bps().to_bits(), c.goodput_bps().to_bits());
                prop_assert_eq!(trace.get(0), Some(record(1, 7, TrafficPhase::ReBuffering)));
            }
        }
    }

    /// The goodput a record reads back is, bit for bit, the sample the
    /// player computed when the chunk completed: the one its scheduler
    /// was fed (all but each path's warm-up chunk reach the scheduler).
    #[test]
    fn chunk_goodput_bits_are_the_samples_a_real_session_computed() {
        use crate::config::PlayerConfig;
        use crate::player::PlayerEvent;
        use crate::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};
        use msim_core::event::EventQueue;
        let player = PlayerConfig::msplayer().with_prebuffer_secs(10.0);
        let spec = SessionSpec::new(7, PathSetup::testbed_pair(), player);
        let mut host = SessionHost::new(ServiceSpec::testbed());
        let mut queue = EventQueue::new();
        let mut session = host.start(7, &spec, &mut queue).expect("valid spec");
        let mut samples = Vec::new();
        let end = loop {
            let Some((now, event)) = session.next_event(&mut queue) else {
                break queue.now();
            };
            if let PlayerEvent::ChunkComplete {
                path,
                bytes,
                first_byte_at,
                ..
            } = event
            {
                let duration = now.saturating_since(first_byte_at).as_secs_f64();
                if duration > 0.0 && bytes > 0 {
                    samples.push((path, (bytes as f64 * 8.0 / duration).to_bits()));
                }
            }
            if host.step(&mut session, &mut queue, now, event) {
                break now;
            }
        };
        let m = host.finish(session, end);
        let recorded: Vec<_> = m
            .chunks
            .iter()
            .map(|c| (c.path, c.goodput_bps().to_bits()))
            .collect();
        assert!(recorded.len() > 10, "{} chunks", recorded.len());
        assert!(recorded.iter().any(|&(path, _)| path == 1));
        assert_eq!(recorded, samples);
    }

    #[test]
    #[should_panic(expected = "48-bit bytes field")]
    fn chunk_trace_refuses_a_chunk_of_2_pow_48_bytes() {
        ChunkTrace::default().push(record(0, MAX_TRACE_CHUNK_BYTES, TrafficPhase::PreBuffering));
    }

    #[test]
    #[should_panic(expected = "15-bit path field (32768 paths)")]
    fn chunk_trace_refuses_path_32768() {
        ChunkTrace::default().push(record(MAX_TRACE_PATHS, 1, TrafficPhase::PreBuffering));
    }

    #[test]
    #[should_panic(expected = "48-bit time field")]
    fn chunk_trace_refuses_a_completion_at_2_pow_48_micros() {
        ChunkTrace::default().push(timed(LAST + 1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "request")]
    fn chunk_trace_refuses_a_request_2_pow_39_micros_before_completion() {
        ChunkTrace::default().push(timed(LAST, GAP + 1, 0));
    }

    #[test]
    #[should_panic(expected = "request")]
    fn chunk_trace_refuses_a_request_2_pow_39_micros_after_completion() {
        ChunkTrace::default().push(timed(LAST - GAP - 1, -GAP - 1, 0));
    }

    #[test]
    #[should_panic(expected = "first byte")]
    fn chunk_trace_refuses_a_first_byte_2_pow_39_micros_before_completion() {
        ChunkTrace::default().push(timed(LAST, 0, GAP + 1));
    }

    #[test]
    #[should_panic(expected = "first byte")]
    fn chunk_trace_refuses_a_first_byte_2_pow_39_micros_after_completion() {
        let mut trace = trace(&[record(0, 1, TrafficPhase::PreBuffering)]);
        trace.set(0, timed(0, 0, -GAP - 1));
    }

    #[test]
    fn chunk_trace_debug_and_eq_are_those_of_a_vec_of_records() {
        let records = vec![
            record(0, 600, TrafficPhase::PreBuffering),
            ChunkRecord {
                path: MAX_TRACE_PATHS - 1,
                bytes: MAX_TRACE_CHUNK_BYTES - 1,
                phase: TrafficPhase::ReBuffering,
                ..timed(LAST, GAP, -GAP)
            },
        ];
        let trace = trace(&records);
        assert_eq!(format!("{trace:?}"), format!("{records:?}"));
        assert_eq!(format!("{trace:#?}"), format!("{records:#?}"));
        assert_eq!(trace.iter().collect::<Vec<_>>(), records);
        let mut moved = trace.clone();
        moved.set(0, timed(1_000_000, 0, 1));
        assert_ne!(moved, trace);
        let mut swapped = trace.clone();
        swapped.swap(0, 1);
        assert_ne!(swapped, trace);
        assert_eq!(swapped.pop(), Some(records[0]));
        assert_eq!(swapped.len(), 1);
    }

    #[test]
    fn prebuffer_time_subtracts_start() {
        let m = SessionMetrics {
            started_at: SimTime::from_secs(5),
            prebuffer_done_at: Some(SimTime::from_secs(12)),
            ..SessionMetrics::default()
        };
        assert_eq!(m.prebuffer_time(), Some(SimDuration::from_secs(7)));
    }

    #[test]
    fn head_start_is_symmetric() {
        let first_byte = |ms| PathMetrics {
            first_byte_at: Some(SimTime::from_millis(ms)),
            failovers: 0,
        };
        let mut m = SessionMetrics {
            paths: vec![first_byte(500), first_byte(900)],
            ..SessionMetrics::default()
        };
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.paths.swap(0, 1);
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.paths[1].first_byte_at = None;
        assert_eq!(m.observed_head_start(), None);
    }

    #[test]
    fn stall_time_ignores_open_episodes() {
        let mut m = SessionMetrics::default();
        m.stalls
            .push((SimTime::from_secs(10), Some(SimTime::from_secs(13))));
        m.stalls.push((SimTime::from_secs(20), None));
        assert_eq!(m.total_stall_time(), SimDuration::from_secs(3));
    }

    // ---- SessionMetrics::digest ------------------------------------------

    /// The epoch-1 digest (FNV-1a over the `Debug` rendering), kept as the
    /// test-local reference the structural digest must partition like.
    fn debug_digest(m: &SessionMetrics) -> u64 {
        format!("{m:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
    }

    /// A record with every trace populated and every `Option` set, so each
    /// field has something to perturb.
    fn full_record() -> SessionMetrics {
        let t = SimTime::from_millis;
        let path = |first_byte_at, failovers| PathMetrics {
            first_byte_at,
            failovers,
        };
        SessionMetrics {
            started_at: t(10),
            paths: vec![path(Some(t(120)), 0), path(None, 2), path(Some(t(140)), 1)],
            prebuffer_done_at: Some(t(4_000)),
            refills: vec![
                RefillRecord {
                    started_at: t(9_000),
                    completed_at: t(11_000),
                    bytes: 4_000_000,
                },
                RefillRecord {
                    started_at: t(20_000),
                    completed_at: t(23_000),
                    bytes: 5_000_000,
                },
            ],
            stalls: vec![(t(30_000), Some(t(31_000))), (t(40_000), None)],
            chunks: trace(&[
                ChunkRecord {
                    path: 0,
                    bytes: 262_144,
                    requested_at: t(100),
                    first_byte_at: t(150),
                    completed_at: t(400),
                    phase: TrafficPhase::PreBuffering,
                },
                ChunkRecord {
                    path: 1,
                    bytes: 131_072,
                    requested_at: t(9_100),
                    first_byte_at: t(9_180),
                    completed_at: t(9_600),
                    phase: TrafficPhase::ReBuffering,
                },
            ]),
            ended_at: Some(t(60_000)),
            events: 1234,
            abr: Some(Box::new(AbrTrace {
                switches: vec![
                    AbrSwitch {
                        at: t(10),
                        itag: 18,
                        reason: SwitchReason::Initial,
                    },
                    AbrSwitch {
                        at: t(5_000),
                        itag: 22,
                        reason: SwitchReason::RateUp,
                    },
                ],
                decisions: vec![
                    AbrDecision {
                        at: t(10),
                        itag: 18,
                        estimate_bps: 0.0,
                        buffer_secs: 0.0,
                        reason: SwitchReason::Initial,
                        switched: false,
                    },
                    AbrDecision {
                        at: t(5_000),
                        itag: 22,
                        estimate_bps: 8.5e6,
                        buffer_secs: 12.25,
                        reason: SwitchReason::RateUp,
                        switched: true,
                    },
                ],
                qoe: Some(AbrQoe {
                    time_weighted_bitrate_bps: 1.9e6,
                    switches: 1,
                    switch_magnitude_bps: 1.5e6,
                    switch_rebuffer: SimDuration::from_millis(750),
                }),
            })),
        }
    }

    /// `full_record`'s ABR trace, to edit.
    fn abr(m: &mut SessionMetrics) -> &mut AbrTrace {
        m.abr.as_deref_mut().expect("full_record has an ABR trace")
    }

    /// `full_record`'s closed-loop QoE, to edit.
    fn qoe(m: &mut SessionMetrics) -> &mut AbrQoe {
        abr(m).qoe.as_mut().expect("full_record has QoE")
    }

    type Perturb = (&'static str, fn(&mut SessionMetrics));

    fn tick(t: &mut SimTime) {
        *t += SimDuration::from_micros(1);
    }

    fn ulp(x: &mut f64) {
        *x = f64::from_bits(x.to_bits() + 1);
    }

    /// Edits the `i`-th chunk record in place (read, change, `set`).
    fn edit_chunk(m: &mut SessionMetrics, i: usize, edit: impl FnOnce(&mut ChunkRecord)) {
        let mut c = m.chunks.get(i).expect("chunk index in range");
        edit(&mut c);
        m.chunks.set(i, c);
    }

    /// One perturbation per scalar field, per element field of each
    /// `Vec`, per `Option` tag, per `Vec` length, plus elements moved
    /// between neighbouring `Vec`s. Every one is visible to `Debug` too.
    fn perturbations() -> Vec<Perturb> {
        vec![
            ("started_at", |m| tick(&mut m.started_at)),
            ("paths[0].first_byte_at", |m| {
                tick(m.paths[0].first_byte_at.as_mut().unwrap())
            }),
            ("paths[0].first_byte_at tag", |m| {
                m.paths[0].first_byte_at = None
            }),
            ("paths[1].first_byte_at tag", |m| {
                m.paths[1].first_byte_at = Some(SimTime::ZERO)
            }),
            ("paths len", |m| m.paths.push(PathMetrics::default())),
            ("prebuffer_done_at", |m| {
                tick(m.prebuffer_done_at.as_mut().unwrap())
            }),
            ("prebuffer_done_at tag", |m| m.prebuffer_done_at = None),
            ("refills[1].started_at", |m| {
                tick(&mut m.refills[1].started_at)
            }),
            ("refills[1].completed_at", |m| {
                tick(&mut m.refills[1].completed_at)
            }),
            ("refills[0].bytes", |m| m.refills[0].bytes += 1),
            ("refills len", |m| {
                m.refills.pop();
            }),
            ("stalls[0].0", |m| tick(&mut m.stalls[0].0)),
            ("stalls[0].1", |m| tick(m.stalls[0].1.as_mut().unwrap())),
            ("stalls[1].1 tag", |m| m.stalls[1].1 = Some(SimTime::ZERO)),
            ("stalls len", |m| {
                m.stalls.pop();
            }),
            ("chunks[0].path", |m| edit_chunk(m, 0, |c| c.path += 1)),
            ("chunks[1].bytes", |m| edit_chunk(m, 1, |c| c.bytes += 1)),
            ("chunks[0].requested_at", |m| {
                edit_chunk(m, 0, |c| tick(&mut c.requested_at))
            }),
            ("chunks[1].completed_at", |m| {
                edit_chunk(m, 1, |c| tick(&mut c.completed_at))
            }),
            ("chunks[0].first_byte_at", |m| {
                edit_chunk(m, 0, |c| tick(&mut c.first_byte_at))
            }),
            ("chunks[0].phase", |m| {
                edit_chunk(m, 0, |c| c.phase = TrafficPhase::ReBuffering)
            }),
            ("chunks swapped", |m| m.chunks.swap(0, 1)),
            ("chunks len", |m| {
                m.chunks.pop();
            }),
            ("paths[1].failovers", |m| m.paths[1].failovers += 1),
            // The two per-path lists are folded apart: a path's failovers
            // do not stand in for another's.
            ("paths[1], paths[2] failovers swapped", |m| {
                m.paths[2].failovers = 2;
                m.paths[1].failovers = 1;
            }),
            ("ended_at", |m| tick(m.ended_at.as_mut().unwrap())),
            ("ended_at tag", |m| m.ended_at = None),
            ("events", |m| m.events += 1),
            ("abr tag", |m| m.abr = None),
            ("abr.switches[1].at", |m| tick(&mut abr(m).switches[1].at)),
            ("abr.switches[1].itag", |m| abr(m).switches[1].itag += 1),
            ("abr.switches[1].reason", |m| {
                abr(m).switches[1].reason = SwitchReason::BufferComfort
            }),
            ("abr.switches len", |m| {
                abr(m).switches.pop();
            }),
            ("abr.decisions[1].at", |m| tick(&mut abr(m).decisions[1].at)),
            ("abr.decisions[1].itag", |m| abr(m).decisions[1].itag += 1),
            ("abr.decisions[1].estimate_bps ulp", |m| {
                ulp(&mut abr(m).decisions[1].estimate_bps)
            }),
            ("abr.decisions[1].buffer_secs ulp", |m| {
                ulp(&mut abr(m).decisions[1].buffer_secs)
            }),
            ("abr.decisions[0].estimate_bps -0.0", |m| {
                abr(m).decisions[0].estimate_bps = -0.0
            }),
            ("abr.decisions[1].reason", |m| {
                abr(m).decisions[1].reason = SwitchReason::Hold
            }),
            ("abr.decisions[1].switched", |m| {
                abr(m).decisions[1].switched = false
            }),
            ("abr.qoe tag", |m| abr(m).qoe = None),
            ("abr.qoe.time_weighted_bitrate_bps ulp", |m| {
                ulp(&mut qoe(m).time_weighted_bitrate_bps)
            }),
            ("abr.qoe.switches", |m| qoe(m).switches += 1),
            ("abr.qoe.switch_magnitude_bps ulp", |m| {
                ulp(&mut qoe(m).switch_magnitude_bps)
            }),
            ("abr.qoe.switch_rebuffer", |m| {
                qoe(m).switch_rebuffer += SimDuration::from_micros(1)
            }),
            // An element leaves one `Vec` and its values join the next:
            // the payload words barely move, the length words must.
            ("refills -> stalls", |m| {
                let r = m.refills.pop().unwrap();
                m.stalls.insert(0, (r.started_at, Some(r.completed_at)));
            }),
            ("abr.switches -> abr.decisions", |m| {
                let s = abr(m).switches.pop().unwrap();
                abr(m).decisions.insert(
                    0,
                    AbrDecision {
                        at: s.at,
                        itag: s.itag,
                        estimate_bps: 0.0,
                        buffer_secs: 0.0,
                        reason: s.reason,
                        switched: false,
                    },
                );
            }),
        ]
    }

    #[test]
    fn digest_sees_every_field_and_partitions_like_the_debug_rendering() {
        let base = full_record();
        assert_eq!(base.digest(), base.clone().digest(), "pure function");
        let mut seen = vec![("base", base.digest(), debug_digest(&base))];
        for (name, perturb) in perturbations() {
            let mut m = base.clone();
            perturb(&mut m);
            seen.push((name, m.digest(), debug_digest(&m)));
        }
        // Every pair: equal under one digest iff equal under the other
        // (here: all distinct — each perturbation is a different record).
        for (i, (a, a_new, a_old)) in seen.iter().enumerate() {
            for (b, b_new, b_old) in &seen[i + 1..] {
                assert_eq!(
                    a_new == b_new,
                    a_old == b_old,
                    "{a:?} vs {b:?}: structural and Debug digests partition differently"
                );
                assert_ne!(a_new, b_new, "{a:?} and {b:?} collide");
            }
        }
    }

    /// The digest of a full record and of a one-path record without a
    /// ladder, as the layout with two per-path lists and three inline ABR
    /// fields computed them: the layout moved, the fold did not.
    #[test]
    fn full_record_digest_is_pinned() {
        assert_eq!(full_record().digest(), 0x0d25_25d5_6e0c_31f2);
        let one_path = SessionMetrics {
            paths: vec![PathMetrics {
                first_byte_at: Some(SimTime::from_millis(120)),
                failovers: 2,
            }],
            abr: None,
            ..full_record()
        };
        assert_eq!(one_path.digest(), 0x363a_e46c_32a2_7b8b);
    }

    #[test]
    fn digest_is_bit_identity_stricter_than_partial_eq() {
        let base = full_record();
        let with = |x: f64| {
            let mut m = base.clone();
            abr(&mut m).decisions[1].estimate_bps = x;
            m
        };
        // PartialEq calls the zeros equal; the digest (like Debug) does not.
        assert_eq!(with(0.0), with(-0.0));
        assert_ne!(with(0.0).digest(), with(-0.0).digest());
        assert_ne!(debug_digest(&with(0.0)), debug_digest(&with(-0.0)));
        // NaN payloads: invisible to Debug ("NaN"), distinct bit patterns.
        let quiet = f64::NAN;
        let payload = f64::from_bits(quiet.to_bits() | 1);
        assert!(payload.is_nan());
        assert_ne!(with(quiet).digest(), with(payload).digest());
        assert_eq!(with(quiet).digest(), with(quiet).digest());
    }

    #[test]
    fn digest_of_real_sessions_follows_the_seed() {
        use crate::config::PlayerConfig;
        use crate::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};
        let player = PlayerConfig::msplayer().with_prebuffer_secs(10.0);
        let spec = SessionSpec::new(0, PathSetup::testbed_pair(), player);
        let run = |seed| {
            SessionHost::new(ServiceSpec::testbed())
                .run(&spec.clone().with_seed(seed))
                .expect("valid spec")
        };
        let (a, a_again, b) = (run(7), run(7), run(8));
        assert!(!a.chunks.is_empty());
        assert_eq!(a.digest(), a_again.digest(), "same seed, same digest");
        assert_ne!(a.digest(), b.digest(), "another seed, another session");
        assert_eq!(
            SessionMetrics::default().digest(),
            SessionMetrics::default().digest()
        );
        assert_ne!(a.digest(), SessionMetrics::default().digest());
    }
}
