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
/// [`SessionMetrics::abr_decisions`]).
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
    /// Completion time.
    pub completed_at: SimTime,
    /// Measured goodput (bits/s).
    pub goodput_bps: f64,
    /// Which phase the chunk completed in.
    pub phase: TrafficPhase,
}

/// A chunk trace records chunks of fewer bytes than this (2^48; no chunk is
/// longer than its stream, and [`Player::new`](crate::player::Player::new)
/// refuses a longer stream).
pub const MAX_TRACE_CHUNK_BYTES: u64 = 1 << 48;
/// A chunk trace tells this many paths apart (2^15);
/// [`SessionSpec::validate`](crate::sim::SessionSpec::validate) refuses a
/// spec with more.
pub const MAX_TRACE_PATHS: usize = 1 << 15;

/// A [`ChunkRecord`] in 32 bytes instead of 48: the three full words, then
/// `bytes` (low 48 bits), `path` (next 15) and `phase` (top bit) in one.
#[derive(Clone, Copy, PartialEq)]
struct PackedChunk {
    requested_at: SimTime,
    completed_at: SimTime,
    goodput_bps: f64,
    bytes_path_phase: u64,
}

const _: () = assert!(std::mem::size_of::<PackedChunk>() == 32);

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
        PackedChunk {
            requested_at: c.requested_at,
            completed_at: c.completed_at,
            goodput_bps: c.goodput_bps,
            bytes_path_phase: c.bytes | ((c.path as u64) << 48) | ((c.phase as u64) << 63),
        }
    }

    fn unpack(&self) -> ChunkRecord {
        let w = self.bytes_path_phase;
        ChunkRecord {
            path: (w >> 48) as PathId & (MAX_TRACE_PATHS - 1),
            bytes: w & (MAX_TRACE_CHUNK_BYTES - 1),
            requested_at: self.requested_at,
            completed_at: self.completed_at,
            goodput_bps: self.goodput_bps,
            phase: if w >> 63 == 0 {
                TrafficPhase::PreBuffering
            } else {
                TrafficPhase::ReBuffering
            },
        }
    }
}

/// A session's completed chunks, in completion order, at 32 bytes a
/// record. Reads hand out [`ChunkRecord`]s by value; `Debug` renders and
/// `PartialEq` compares exactly as a `Vec<ChunkRecord>` would. A record
/// whose path or byte count does not fit ([`MAX_TRACE_PATHS`],
/// [`MAX_TRACE_CHUNK_BYTES`]) makes `push` and `set` panic; nothing is
/// truncated.
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

/// Metrics of one streaming session.
///
/// Derives `PartialEq` so determinism tests can assert bit-identical
/// replays (every field, including the `f64` goodputs, must match
/// exactly).
///
/// **Exact-size contract.** A record handed out by
/// [`Player::into_metrics`](crate::player::Player::into_metrics) or a
/// [`SessionHost`](crate::sim::SessionHost) run holds what the session
/// recorded and nothing more: every `Vec`, and the [`ChunkTrace`], has
/// `capacity() == len()`. The per-event traces (`chunks`, `abr_decisions`,
/// `abr_switches`) grow in buffers the driver lends the player and are
/// copied out at their final length, so holding N finished sessions costs
/// the sum of their traces (32 bytes a chunk record), whatever their chunk
/// size or stop condition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionMetrics {
    /// When the player was started.
    pub started_at: SimTime,
    /// When each path delivered its first video byte (one slot per path;
    /// sized by the player at construction).
    pub first_byte_at: Vec<Option<SimTime>>,
    /// When the pre-buffer target was reached (Figs. 2–4 endpoint).
    pub prebuffer_done_at: Option<SimTime>,
    /// Completed refill cycles (Fig. 5).
    pub refills: Vec<RefillRecord>,
    /// Stall episodes.
    pub stalls: Vec<(SimTime, Option<SimTime>)>,
    /// Every completed chunk.
    pub chunks: ChunkTrace,
    /// Failovers performed per path.
    pub failovers: Vec<u32>,
    /// When the session ended.
    pub ended_at: Option<SimTime>,
    /// Simulator events processed while producing this session (drivers
    /// fill this in; 0 outside the simulator). Feeds the bench harness's
    /// events/sec figure.
    pub events: u64,
    /// ABR switch trace: the initial pick and every rung change (empty
    /// unless the player ran with an
    /// [`AbrLadderConfig`](crate::config::AbrLadderConfig)).
    pub abr_switches: Vec<AbrSwitch>,
    /// Full ABR decision trace: one entry per decision interval, `Hold`s
    /// included, with the estimate/buffer inputs each decision consumed.
    pub abr_decisions: Vec<AbrDecision>,
    /// QoE accounting for closed-loop ABR sessions (`None` for fixed-rate
    /// and shadow sessions).
    pub abr_qoe: Option<AbrQoe>,
}

impl SessionMetrics {
    /// An empty metrics record with per-path slots for `n_paths` paths.
    pub fn for_paths(n_paths: usize, started_at: SimTime) -> SessionMetrics {
        SessionMetrics {
            started_at,
            first_byte_at: vec![None; n_paths],
            failovers: vec![0; n_paths],
            ..SessionMetrics::default()
        }
    }

    /// Number of per-path slots this record was sized for.
    pub fn num_paths(&self) -> usize {
        self.first_byte_at.len()
    }

    /// The deterministic 64-bit digest of this record, [`DIGEST_EPOCH`]
    /// version: every field folded in declaration order as 64-bit words —
    /// times and durations as microseconds, `f64`s as their bit patterns,
    /// enums as discriminants, a length before every `Vec` and a tag
    /// before every `Option`. The encoding is prefix-free, so two records
    /// digest equal only if they are bit-identical or the 64-bit fold
    /// collides. Bit identity is stricter than `PartialEq`: `0.0` and
    /// `-0.0` differ, as do NaNs with different payloads. Nothing is
    /// formatted or allocated, and the value does not depend on the
    /// toolchain's float printing.
    ///
    /// Every struct is destructured without `..`: a new field does not
    /// compile until it is folded in (and [`DIGEST_EPOCH`] bumped).
    pub fn digest(&self) -> u64 {
        let SessionMetrics {
            started_at,
            first_byte_at,
            prebuffer_done_at,
            refills,
            stalls,
            chunks,
            failovers,
            ended_at,
            events,
            abr_switches,
            abr_decisions,
            abr_qoe,
        } = self;
        let mut h = Fold::new();
        h.time(*started_at);
        h.len(first_byte_at.len());
        for t in first_byte_at {
            h.opt_time(*t);
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
        for ChunkRecord {
            path,
            bytes,
            requested_at,
            completed_at,
            goodput_bps,
            phase,
        } in chunks.iter()
        {
            h.word(path as u64);
            h.word(bytes);
            h.time(requested_at);
            h.time(completed_at);
            h.float(goodput_bps);
            h.word(phase as u64);
        }
        h.len(failovers.len());
        for n in failovers {
            h.word(u64::from(*n));
        }
        h.opt_time(*ended_at);
        h.word(*events);
        h.len(abr_switches.len());
        for AbrSwitch { at, itag, reason } in abr_switches {
            h.time(*at);
            h.word(u64::from(*itag));
            h.word(*reason as u64);
        }
        h.len(abr_decisions.len());
        for AbrDecision {
            at,
            itag,
            estimate_bps,
            buffer_secs,
            reason,
            switched,
        } in abr_decisions
        {
            h.time(*at);
            h.word(u64::from(*itag));
            h.float(*estimate_bps);
            h.float(*buffer_secs);
            h.word(*reason as u64);
            h.word(u64::from(*switched));
        }
        match abr_qoe {
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
        let first = self.first_byte_at.first().copied().flatten();
        let second = self.first_byte_at.get(1).copied().flatten();
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
            completed_at: SimTime::from_secs(1),
            goodput_bps: bytes as f64 * 8.0,
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

    // ---- ChunkTrace --------------------------------------------------------

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every field comes back as pushed, the packed fields at both
            /// ends of their widths.
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
                times in (any::<u64>(), any::<u64>()),
                goodput_bits in any::<u64>(),
            ) {
                let c = ChunkRecord {
                    path,
                    bytes,
                    requested_at: SimTime::from_micros(times.0),
                    completed_at: SimTime::from_micros(times.1),
                    goodput_bps: f64::from_bits(goodput_bits),
                    phase,
                };
                let mut trace = ChunkTrace::default();
                trace.push(record(1, 7, TrafficPhase::ReBuffering));
                trace.push(c);
                let back = trace.get(1).expect("pushed");
                prop_assert_eq!(back.path, path);
                prop_assert_eq!(back.bytes, bytes);
                prop_assert_eq!(back.phase, phase);
                prop_assert_eq!(back.requested_at, c.requested_at);
                prop_assert_eq!(back.completed_at, c.completed_at);
                prop_assert_eq!(back.goodput_bps.to_bits(), goodput_bits);
                prop_assert_eq!(trace.get(0), Some(record(1, 7, TrafficPhase::ReBuffering)));
            }
        }
    }

    #[test]
    fn chunk_trace_keeps_goodput_bits_exactly() {
        let payload_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        for x in [
            f64::NAN,
            payload_nan,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            -f64::from_bits(1),
            f64::INFINITY,
        ] {
            let mut c = record(3, 100, TrafficPhase::PreBuffering);
            c.goodput_bps = x;
            let back = trace(&[c]).last().unwrap();
            assert_eq!(back.goodput_bps.to_bits(), x.to_bits());
        }
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
    fn chunk_trace_debug_and_eq_are_those_of_a_vec_of_records() {
        let records = vec![
            record(0, 600, TrafficPhase::PreBuffering),
            record(
                MAX_TRACE_PATHS - 1,
                MAX_TRACE_CHUNK_BYTES - 1,
                TrafficPhase::ReBuffering,
            ),
        ];
        let trace = trace(&records);
        assert_eq!(format!("{trace:?}"), format!("{records:?}"));
        assert_eq!(format!("{trace:#?}"), format!("{records:#?}"));
        assert_eq!(trace.iter().collect::<Vec<_>>(), records);
        // `f64 ==`, element by element: the zeros are equal, NaN is not.
        let with = |x: f64| {
            let mut t = trace.clone();
            let mut c = t.get(0).unwrap();
            c.goodput_bps = x;
            t.set(0, c);
            t
        };
        assert_eq!(with(0.0), with(-0.0));
        assert_ne!(with(f64::NAN), with(f64::NAN));
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
        let mut m = SessionMetrics {
            first_byte_at: vec![
                Some(SimTime::from_millis(500)),
                Some(SimTime::from_millis(900)),
            ],
            ..SessionMetrics::default()
        };
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.first_byte_at.swap(0, 1);
        assert_eq!(m.observed_head_start(), Some(SimDuration::from_millis(400)));
        m.first_byte_at[1] = None;
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
        SessionMetrics {
            started_at: t(10),
            first_byte_at: vec![Some(t(120)), None, Some(t(140))],
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
                    completed_at: t(400),
                    goodput_bps: 6.99e6,
                    phase: TrafficPhase::PreBuffering,
                },
                ChunkRecord {
                    path: 1,
                    bytes: 131_072,
                    requested_at: t(9_100),
                    completed_at: t(9_600),
                    goodput_bps: 2.1e6,
                    phase: TrafficPhase::ReBuffering,
                },
            ]),
            failovers: vec![0, 2, 1],
            ended_at: Some(t(60_000)),
            events: 1234,
            abr_switches: vec![
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
            abr_decisions: vec![
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
            abr_qoe: Some(AbrQoe {
                time_weighted_bitrate_bps: 1.9e6,
                switches: 1,
                switch_magnitude_bps: 1.5e6,
                switch_rebuffer: SimDuration::from_millis(750),
            }),
        }
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
            ("first_byte_at[0]", |m| {
                tick(m.first_byte_at[0].as_mut().unwrap())
            }),
            ("first_byte_at[0] tag", |m| m.first_byte_at[0] = None),
            ("first_byte_at[1] tag", |m| {
                m.first_byte_at[1] = Some(SimTime::ZERO)
            }),
            ("first_byte_at len", |m| m.first_byte_at.push(None)),
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
            ("chunks[0].goodput_bps ulp", |m| {
                edit_chunk(m, 0, |c| ulp(&mut c.goodput_bps))
            }),
            ("chunks[0].phase", |m| {
                edit_chunk(m, 0, |c| c.phase = TrafficPhase::ReBuffering)
            }),
            ("chunks swapped", |m| m.chunks.swap(0, 1)),
            ("chunks len", |m| {
                m.chunks.pop();
            }),
            ("failovers[1]", |m| m.failovers[1] += 1),
            ("failovers len", |m| m.failovers.push(0)),
            ("ended_at", |m| tick(m.ended_at.as_mut().unwrap())),
            ("ended_at tag", |m| m.ended_at = None),
            ("events", |m| m.events += 1),
            ("abr_switches[1].at", |m| tick(&mut m.abr_switches[1].at)),
            ("abr_switches[1].itag", |m| m.abr_switches[1].itag += 1),
            ("abr_switches[1].reason", |m| {
                m.abr_switches[1].reason = SwitchReason::BufferUp
            }),
            ("abr_decisions[1].at", |m| tick(&mut m.abr_decisions[1].at)),
            ("abr_decisions[1].itag", |m| m.abr_decisions[1].itag += 1),
            ("abr_decisions[1].estimate_bps ulp", |m| {
                ulp(&mut m.abr_decisions[1].estimate_bps)
            }),
            ("abr_decisions[1].buffer_secs ulp", |m| {
                ulp(&mut m.abr_decisions[1].buffer_secs)
            }),
            ("abr_decisions[0].estimate_bps -0.0", |m| {
                m.abr_decisions[0].estimate_bps = -0.0
            }),
            ("abr_decisions[1].reason", |m| {
                m.abr_decisions[1].reason = SwitchReason::Hold
            }),
            ("abr_decisions[1].switched", |m| {
                m.abr_decisions[1].switched = false
            }),
            ("abr_qoe tag", |m| m.abr_qoe = None),
            ("abr_qoe.time_weighted_bitrate_bps ulp", |m| {
                ulp(&mut m.abr_qoe.as_mut().unwrap().time_weighted_bitrate_bps)
            }),
            ("abr_qoe.switches", |m| {
                m.abr_qoe.as_mut().unwrap().switches += 1
            }),
            ("abr_qoe.switch_magnitude_bps ulp", |m| {
                ulp(&mut m.abr_qoe.as_mut().unwrap().switch_magnitude_bps)
            }),
            ("abr_qoe.switch_rebuffer", |m| {
                m.abr_qoe.as_mut().unwrap().switch_rebuffer += SimDuration::from_micros(1)
            }),
            // An element leaves one `Vec` and its values join the next:
            // the payload words barely move, the length words must.
            ("refills -> stalls", |m| {
                let r = m.refills.pop().unwrap();
                m.stalls.insert(0, (r.started_at, Some(r.completed_at)));
            }),
            ("failovers -> first_byte_at", |m| {
                m.failovers.remove(0);
                m.first_byte_at.push(None);
            }),
            ("abr_switches -> abr_decisions", |m| {
                let s = m.abr_switches.pop().unwrap();
                m.abr_decisions.insert(
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

    #[test]
    fn digest_is_bit_identity_stricter_than_partial_eq() {
        let base = full_record();
        let with = |x: f64| {
            let mut m = base.clone();
            edit_chunk(&mut m, 0, |c| c.goodput_bps = x);
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
