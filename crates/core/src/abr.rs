//! Closed-loop adaptive bitrate streaming.
//!
//! The paper streams at a fixed itag and leaves rate adaptation as §7
//! future work ("exploring how rate adaption can be integrated with
//! MSPlayer"). This module supplies it: one [`AbrPolicy`] type
//! decides a ladder rung every [`DECISION_INTERVAL`] from the scheduler's
//! *aggregate* multi-path bandwidth estimate and the playout-buffer level,
//! and — in [`AbrMode::ClosedLoop`] — the player *actually switches the
//! streamed itag mid-session*:
//!
//! * the remaining chunk map is re-planned at the new rung (per-itag sizes
//!   derived from the catalog's format table via [`RungMap`]);
//! * in-flight chunk requests complete at the old rung (their byte ranges
//!   are already assigned and stay in the old rung's region of the mixed
//!   byte space);
//! * the scheduler's per-path assignment and the bandwidth estimators
//!   carry across the switch untouched;
//! * the playout buffer keeps counting the starting rung's bytes: the
//!   player maps the mixed byte space to video seconds and back out at
//!   the starting rate, so the switch leaves the buffer untouched.
//!
//! [`AbrMode::Shadow`] keeps the historical observe-only behaviour and is
//! the differential baseline: on a one-rung ladder, a closed-loop session
//! is bit-identical to the fixed-itag player (no switch can fire, so none
//! of the re-planning machinery runs — asserted by
//! `crates/bench/tests/abr_closed_loop.rs`).
//!
//! The policy is one type with one rule per [`AbrPolicyKind`]: `decide`
//! computes the shared budget and initial pick, then one `match` arm runs
//! the kind's rule (no per-kind structs, no boxing on the decision path):
//!
//! | kind | drives on | character |
//! |---|---|---|
//! | [`AbrPolicyKind::DampedRate`] | estimate + buffer overrides | FESTIVE-style headroom (`SAFETY × Σŵ`), hold-damped single-step upgrades, panic floor, comfort ride-out |
//! | [`AbrPolicyKind::Hybrid`] | both | immediate rate rule, gated by panic/comfort buffer thresholds |
//!
//! The rules share one set of thresholds, constants rather than
//! settings: [`SAFETY`], [`PANIC_SECS`], [`COMFORT_SECS`] and
//! [`MIN_HOLD_DECISIONS`].

use msim_core::time::{SimDuration, SimTime};
use msim_youtube::format::{by_itag, VideoFormat};

/// Interval between quality decisions (each one is a timer wakeup).
pub const DECISION_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// Fraction of the estimated aggregate bandwidth a stream may consume
/// (FESTIVE-style headroom; < 1 keeps the player TCP-friendly).
pub const SAFETY: f64 = 0.8;

/// Below this buffer level, seconds, the adapter drops straight to the
/// floor.
pub const PANIC_SECS: f64 = 5.0;

/// At or above this buffer level, seconds, one opportunistic upgrade step
/// is allowed.
pub const COMFORT_SECS: f64 = 30.0;

/// Decisions to hold before another upward switch.
pub const MIN_HOLD_DECISIONS: u32 = 3;

/// A quality decision with its reason (for traces and tests).
///
/// The session digest folds `reason as u64`, so each reason keeps its
/// number; 5 and 6 are unused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchReason {
    /// First decision of the session.
    Initial = 0,
    /// Throughput supports a higher format.
    RateUp = 1,
    /// Throughput no longer supports the current format.
    RateDown = 2,
    /// Buffer below panic threshold: emergency floor.
    BufferPanic = 3,
    /// Buffer very comfortable: opportunistic one-step upgrade.
    BufferComfort = 4,
    /// No change.
    Hold = 7,
}

/// Whether ABR decisions change what is streamed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbrMode {
    /// Observe-only: decisions are traced, the stream stays at the
    /// session's fixed itag (the historical behaviour, kept as the
    /// differential baseline).
    Shadow,
    /// Decisions re-plan the remaining chunk map at the selected rung and
    /// the streamed itag actually changes mid-session.
    ClosedLoop,
}

/// Which adaptation policy drives the decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbrPolicyKind {
    /// Hold-damped rate rule with buffer overrides (see [`AbrPolicy`]).
    DampedRate,
    /// Rate rule with buffer gates, no hold damping (see [`AbrPolicy`]).
    Hybrid,
}

impl AbrPolicyKind {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            AbrPolicyKind::DampedRate => "damped-rate",
            AbrPolicyKind::Hybrid => "hybrid",
        }
    }
}

/// Stall time within this window after a quality switch is attributed to
/// the switch in [`crate::metrics::AbrQoe::switch_rebuffer`] (an up-switch
/// inflates the bytes still to fetch; a stall shortly after is the cost).
pub const SWITCH_REBUFFER_ATTRIBUTION: SimDuration = SimDuration::from_secs(10);

/// The ABR policy over a shared ladder of formats.
///
/// `decide` consumes the aggregate bandwidth estimate (bits/s; `None`
/// until any path has a measurement) and the buffer level (seconds) and
/// returns the selected ladder rung index plus the reason. Both rules
/// share the FESTIVE-style rate rule — a rung's bitrate must fit within
/// `SAFETY × Σŵ` (harmonic-mean estimates, so bursts do not cause
/// up-switches; no estimate yet counts as zero) — and the initial pick
/// (the best affordable rung). After that each moves at most one rung per
/// decision (except to the panic floor), so the player can adopt the
/// returned rung directly:
///
/// * [`AbrPolicyKind::DampedRate`] — damped rate policy in the FESTIVE/BBA
///   lineage (the paper's \[19\]/\[21\] citations), built to avoid the
///   instability §1 criticises ("variable video quality, unfairness to
///   other players, and low bandwidth utilization"). Below [`PANIC_SECS`]
///   drop to the floor whatever the estimate; at or above
///   [`COMFORT_SECS`] ride out a rate dip; upgrade only after a higher
///   rung was affordable for more than [`MIN_HOLD_DECISIONS`] decisions
///   in a row, so a lone outlier cannot trigger one.
/// * [`AbrPolicyKind::Hybrid`] — the rate rule picks the target, the
///   buffer gates it: below [`PANIC_SECS`] drop straight to the floor, at
///   or above [`COMFORT_SECS`] allow one opportunistic rung beyond the
///   rate rule. Moves are immediate (no hold damping); the buffer gate is
///   the stabiliser.
pub struct AbrPolicy {
    kind: AbrPolicyKind,
    ladder: Vec<VideoFormat>,
    current: usize,
    /// Consecutive decisions in which a higher rung was affordable
    /// (`DampedRate` only; `Hybrid` leaves it at 0).
    up_evidence: u32,
    initialised: bool,
}

impl AbrPolicy {
    /// Builds the policy of `kind` over `ladder` (ascending bitrates; the
    /// caller validates — see `AbrLadderConfig::validate_ladder`, the sort
    /// here is the backstop for hand-built ladders).
    pub fn new(kind: AbrPolicyKind, mut ladder: Vec<VideoFormat>) -> Self {
        assert!(!ladder.is_empty(), "empty format ladder");
        ladder.sort_by(|a, b| {
            a.bitrate
                .as_bps()
                .partial_cmp(&b.bitrate.as_bps())
                .expect("finite bitrates")
        });
        AbrPolicy {
            kind,
            ladder,
            current: 0,
            up_evidence: 0,
            initialised: false,
        }
    }

    /// The ladder, ascending by bitrate.
    pub fn ladder(&self) -> &[VideoFormat] {
        &self.ladder
    }

    /// The currently selected rung index.
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// One decision from the aggregate estimate and the buffer level.
    pub fn decide(&mut self, estimate_bps: Option<f64>, buffer_secs: f64) -> (usize, SwitchReason) {
        let budget = SAFETY * estimate_bps.unwrap_or(0.0);
        // The highest rung that fits the budget, or the floor when none does.
        let affordable = self
            .ladder
            .iter()
            .rposition(|f| f.bitrate.as_bps() <= budget)
            .unwrap_or(0);
        if !self.initialised {
            self.initialised = true;
            self.current = affordable;
            return (self.current, SwitchReason::Initial);
        }
        let reason = match self.kind {
            AbrPolicyKind::DampedRate => {
                if buffer_secs < PANIC_SECS && self.current > 0 {
                    self.current = 0;
                    self.up_evidence = 0;
                    return (self.current, SwitchReason::BufferPanic);
                }
                if affordable > self.current {
                    self.up_evidence += 1;
                    if self.up_evidence > MIN_HOLD_DECISIONS {
                        self.current += 1;
                        self.up_evidence = 0;
                        SwitchReason::RateUp
                    } else {
                        SwitchReason::Hold
                    }
                } else if affordable < self.current {
                    self.up_evidence = 0;
                    // Downgrades are immediate but also single-step, unless
                    // the buffer is comfortable enough to ride it out.
                    if buffer_secs >= COMFORT_SECS {
                        SwitchReason::BufferComfort
                    } else {
                        self.current -= 1;
                        SwitchReason::RateDown
                    }
                } else {
                    self.up_evidence = 0;
                    SwitchReason::Hold
                }
            }
            AbrPolicyKind::Hybrid => {
                if buffer_secs < PANIC_SECS {
                    // Emergency floor — and *stay* there while the buffer
                    // is below the reservoir: falling through to the rate
                    // rule here would up-switch on the very next decision
                    // and oscillate floor↔floor+1 every interval until the
                    // buffer recovers.
                    let reason = if self.current > 0 {
                        self.current = 0;
                        SwitchReason::BufferPanic
                    } else {
                        SwitchReason::Hold
                    };
                    return (self.current, reason);
                }
                let target = if buffer_secs >= COMFORT_SECS {
                    (affordable + 1).min(self.ladder.len() - 1)
                } else {
                    affordable
                };
                match target.cmp(&self.current) {
                    std::cmp::Ordering::Greater => {
                        self.current += 1;
                        if target > affordable && self.current > affordable {
                            SwitchReason::BufferComfort
                        } else {
                            SwitchReason::RateUp
                        }
                    }
                    std::cmp::Ordering::Less => {
                        self.current -= 1;
                        SwitchReason::RateDown
                    }
                    std::cmp::Ordering::Equal => SwitchReason::Hold,
                }
            }
        };
        (self.current, reason)
    }
}

/// One constant-rate segment of a mixed-rung stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RungSegment {
    /// First byte (in the ledger's mixed byte space) this segment covers.
    pub start_byte: u64,
    /// Video time (seconds) at `start_byte`.
    pub start_secs: f64,
    /// Stream bytes per second of playback inside the segment.
    pub bytes_per_sec: f64,
    /// The itag streamed in this segment.
    pub itag: u32,
}

/// Piecewise byte → video-seconds map over the chunk ledger's mixed byte
/// space. A closed-loop session appends one segment per itag switch (at
/// the ledger's assignment frontier); everything below a segment boundary
/// keeps the rung it was planned at, which is what lets in-flight chunks
/// and aborted-chunk holes complete/refill at the old rung.
#[derive(Clone, Debug)]
pub struct RungMap {
    segs: Vec<RungSegment>,
}

impl RungMap {
    /// A single-rung map (no switch has fired).
    pub fn new(itag: u32, bytes_per_sec: f64) -> RungMap {
        RungMap {
            segs: vec![RungSegment {
                start_byte: 0,
                start_secs: 0.0,
                bytes_per_sec,
                itag,
            }],
        }
    }

    /// True while the map has one segment: no switch has fired, or only
    /// switches at byte 0, which rewrite that segment's rate (see
    /// [`RungMap::push`]).
    pub fn is_single(&self) -> bool {
        self.segs.len() == 1
    }

    /// The active (most recent) segment.
    pub fn current(&self) -> &RungSegment {
        self.segs.last().expect("at least one segment")
    }

    /// Appends a segment starting at `start_byte` (must be at or beyond
    /// the previous segment's start).
    pub fn push(&mut self, start_byte: u64, start_secs: f64, bytes_per_sec: f64, itag: u32) {
        let last = self.current();
        debug_assert!(start_byte >= last.start_byte, "segments must advance");
        // A switch at the exact same frontier as the previous one replaces
        // it (no bytes were planned at the superseded rung).
        if start_byte == last.start_byte {
            let last = self.segs.last_mut().expect("non-empty");
            last.bytes_per_sec = bytes_per_sec;
            last.itag = itag;
            return;
        }
        self.segs.push(RungSegment {
            start_byte,
            start_secs,
            bytes_per_sec,
            itag,
        });
    }

    fn seg_for(&self, byte: u64) -> &RungSegment {
        match self.segs.iter().rposition(|s| s.start_byte <= byte) {
            Some(i) => &self.segs[i],
            None => &self.segs[0],
        }
    }

    /// Video time (seconds) of `byte` in the mixed byte space.
    pub fn secs_at(&self, byte: u64) -> f64 {
        let seg = self.seg_for(byte);
        seg.start_secs + (byte.saturating_sub(seg.start_byte)) as f64 / seg.bytes_per_sec
    }

    /// The itag whose region `byte` falls in (the rung a range request
    /// starting at `byte` streams).
    pub fn itag_at(&self, byte: u64) -> u32 {
        self.seg_for(byte).itag
    }

    /// The segments, in byte order.
    pub fn segments(&self) -> &[RungSegment] {
        &self.segs
    }
}

/// Resolves a ladder of itags against the catalog's format table,
/// preserving order. Unknown itags are skipped (callers validate first;
/// this is the construction-time backstop).
pub fn resolve_ladder(itags: &[u32]) -> Vec<VideoFormat> {
    itags.iter().filter_map(|&i| by_itag(i).copied()).collect()
}

/// QoE bookkeeping for one closed-loop session: the streamed-rung
/// timeline and switch statistics the player folds into
/// [`crate::metrics::AbrQoe`] at session end.
#[derive(Clone, Debug)]
pub struct RungTimeline {
    /// `(since, bitrate_bps)` — each entry is a streamed rung taking
    /// effect; the first is the session's starting rung.
    pub entries: Vec<(SimTime, f64)>,
    /// Switches performed (timeline entries after the first).
    pub switches: u32,
    /// Σ |Δ bitrate| over the switches.
    pub switch_magnitude_bps: f64,
}

impl RungTimeline {
    /// A timeline starting at `at` on `bitrate_bps`.
    pub fn new(at: SimTime, bitrate_bps: f64) -> RungTimeline {
        RungTimeline {
            entries: vec![(at, bitrate_bps)],
            switches: 0,
            switch_magnitude_bps: 0.0,
        }
    }

    /// Records a switch to `bitrate_bps` at `at`.
    pub fn switch_to(&mut self, at: SimTime, bitrate_bps: f64) {
        let prev = self.entries.last().expect("non-empty").1;
        self.switches += 1;
        self.switch_magnitude_bps += (bitrate_bps - prev).abs();
        self.entries.push((at, bitrate_bps));
    }

    /// Time-weighted average streamed bitrate over `[start, end]`.
    pub fn time_weighted_bitrate_bps(&self, end: SimTime) -> f64 {
        let start = self.entries[0].0;
        let total = end.saturating_since(start).as_secs_f64();
        if total <= 0.0 {
            return self.entries[0].1;
        }
        let mut acc = 0.0;
        for (i, &(since, bps)) in self.entries.iter().enumerate() {
            let until = self
                .entries
                .get(i + 1)
                .map(|&(t, _)| t)
                .unwrap_or(end)
                .min(end);
            acc += bps * until.saturating_since(since).as_secs_f64();
        }
        acc / total
    }

    /// Stall time attributable to a switch: stall episodes beginning
    /// within [`SWITCH_REBUFFER_ATTRIBUTION`] of a switch instant. Open
    /// episodes are charged up to `end`.
    pub fn switch_rebuffer(
        &self,
        stalls: &[(SimTime, Option<SimTime>)],
        end: SimTime,
    ) -> SimDuration {
        let mut acc = SimDuration::ZERO;
        for &(s, e) in stalls {
            let attributable = self.entries[1..]
                .iter()
                .any(|&(t, _)| s >= t && s.saturating_since(t) <= SWITCH_REBUFFER_ATTRIBUTION);
            if attributable {
                acc += e.unwrap_or(end).saturating_since(s);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_youtube::format::ITAGS;

    fn ladder() -> Vec<VideoFormat> {
        ITAGS.to_vec()
    }

    #[test]
    fn hybrid_panic_floors_and_comfort_overshoots() {
        let mut p = AbrPolicy::new(AbrPolicyKind::Hybrid, ladder());
        // 0.8 × 4 Mb/s affords itag 22 (2.5 Mb/s).
        let (r, _) = p.decide(Some(4.0e6), 20.0);
        assert_eq!(ladder()[r].itag, 22);
        // Panic: straight to the floor, not one step.
        let (r, reason) = p.decide(Some(4.0e6), 1.0);
        assert_eq!((r, reason), (0, SwitchReason::BufferPanic));
        // Comfortable buffer allows one rung beyond the rate rule; moves
        // are single-step so it takes several decisions to climb back.
        let mut top = 0;
        for _ in 0..8 {
            let (r, _) = p.decide(Some(4.0e6), 40.0);
            top = r;
        }
        assert_eq!(
            ladder()[top].itag,
            37,
            "comfort allows one rung past affordable (22 → 37)"
        );
    }

    #[test]
    fn hybrid_holds_the_floor_while_the_buffer_is_below_panic() {
        let mut p = AbrPolicy::new(AbrPolicyKind::Hybrid, ladder());
        let _ = p.decide(Some(50e6), 20.0); // initial: affordable = top
        let (r, reason) = p.decide(Some(50e6), 1.0);
        assert_eq!(
            (r, reason),
            (0, SwitchReason::BufferPanic),
            "panic floors even with a rich estimate"
        );
        // While the buffer stays below PANIC_SECS, the policy must not
        // oscillate back up off the floor, decision after decision.
        for _ in 0..5 {
            let (r, reason) = p.decide(Some(50e6), 1.0);
            assert_eq!((r, reason), (0, SwitchReason::Hold));
        }
        // Once the buffer recovers past panic, the rate rule resumes.
        let (r, _) = p.decide(Some(50e6), 10.0);
        assert_eq!(r, 1, "recovery climbs single-step");
    }

    /// The damped policy over the full itag table.
    fn damped() -> AbrPolicy {
        AbrPolicy::new(AbrPolicyKind::DampedRate, ladder())
    }

    /// One decision, as the chosen format's label and the reason.
    fn label(p: &mut AbrPolicy, mbps: f64, buffer_secs: f64) -> (&'static str, SwitchReason) {
        let (rung, reason) = p.decide(Some(mbps * 1e6), buffer_secs);
        (p.ladder()[rung].quality_label, reason)
    }

    #[test]
    fn damped_initial_pick_fits_the_estimate_or_floors() {
        // 0.8 × 4 Mbit/s = 3.2 Mbit/s budget → 720p (2.5) fits, 1080p
        // (4.3) does not.
        assert_eq!(
            label(&mut damped(), 4.0, 0.0),
            ("720p", SwitchReason::Initial)
        );
        // 5 Mbit/s would afford 1080p without the headroom; 0.8 × 5 does not.
        assert_eq!(label(&mut damped(), 5.0, 0.0).0, "720p");
        assert_eq!(label(&mut damped(), 0.1, 0.0).0, "144p", "nothing fits");
        // No estimate yet counts as zero.
        assert_eq!(damped().decide(None, 0.0), (0, SwitchReason::Initial));
    }

    #[test]
    fn damped_upgrades_are_held_then_single_step() {
        let mut p = damped();
        let (start, _) = p.decide(Some(1.0e6), 20.0);
        // Bandwidth explodes; the first few decisions must hold.
        for _ in 0..3 {
            assert_eq!(p.decide(Some(50.0e6), 20.0), (start, SwitchReason::Hold));
        }
        assert_eq!(
            p.decide(Some(50.0e6), 20.0),
            (start + 1, SwitchReason::RateUp)
        );
    }

    #[test]
    fn damped_buffer_panic_floors_immediately() {
        let mut p = damped();
        assert_ne!(label(&mut p, 10.0, 20.0).0, "144p");
        assert_eq!(
            label(&mut p, 10.0, 2.0),
            ("144p", SwitchReason::BufferPanic)
        );
    }

    #[test]
    fn damped_comfortable_buffer_rides_out_rate_dips() {
        let mut p = damped();
        let (before, _) = p.decide(Some(4.0e6), 0.0);
        assert_eq!(p.ladder()[before].quality_label, "720p");
        // Estimate collapses but the buffer is deep: hold quality.
        assert_eq!(
            p.decide(Some(1.0e6), 40.0),
            (before, SwitchReason::BufferComfort)
        );
        // Same collapse with a shallow buffer: step down.
        assert_eq!(
            p.decide(Some(1.0e6), 12.0),
            (before - 1, SwitchReason::RateDown)
        );
    }

    #[test]
    fn damped_holds_under_stable_input_and_ignores_a_lone_outlier() {
        let mut p = damped();
        let _ = p.decide(Some(4.0e6), 20.0);
        for _ in 0..10 {
            assert_eq!(p.decide(Some(4.0e6), 20.0).1, SwitchReason::Hold);
        }
        // The policy consumes *estimates*; with harmonic-mean estimates a
        // single burst barely moves the input. But even a raw burst inside
        // the hold window yields no up-switch.
        let mut p = damped();
        let _ = p.decide(Some(1.0e6), 20.0);
        for i in 0..8 {
            let est = if i == 4 { 60.0e6 } else { 1.0e6 };
            assert_ne!(p.decide(Some(est), 20.0).1, SwitchReason::RateUp);
        }
    }

    #[test]
    #[should_panic(expected = "empty format ladder")]
    fn empty_ladder_rejected() {
        AbrPolicy::new(AbrPolicyKind::DampedRate, Vec::new());
    }

    #[test]
    fn rung_map_converts_across_switches() {
        // itag 22 (312 500 B/s) for the first 625 000 bytes (2 s of
        // video), then itag 18 (75 000 B/s).
        let mut map = RungMap::new(22, 312_500.0);
        assert!(map.is_single());
        map.push(625_000, 2.0, 75_000.0, 18);
        assert!(!map.is_single());
        assert_eq!(map.itag_at(0), 22);
        assert_eq!(map.itag_at(624_999), 22);
        assert_eq!(map.itag_at(625_000), 18);
        assert!((map.secs_at(625_000) - 2.0).abs() < 1e-12);
        // 75 000 bytes past the boundary = 1 more second at the new rung.
        assert!((map.secs_at(700_000) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rung_map_same_frontier_switch_replaces() {
        let mut map = RungMap::new(22, 312_500.0);
        map.push(1000, 0.0032, 75_000.0, 18);
        map.push(1000, 0.0032, 537_500.0, 37);
        assert_eq!(map.segments().len(), 2, "superseded segment replaced");
        assert_eq!(map.itag_at(1000), 37);
    }

    #[test]
    fn timeline_time_weighted_bitrate_and_magnitude() {
        let mut tl = RungTimeline::new(SimTime::ZERO, 2.5e6);
        tl.switch_to(SimTime::from_secs(10), 4.3e6);
        // 10 s at 2.5 + 10 s at 4.3 over 20 s.
        let twa = tl.time_weighted_bitrate_bps(SimTime::from_secs(20));
        assert!((twa - 3.4e6).abs() < 1.0, "{twa}");
        assert_eq!(tl.switches, 1);
        assert!((tl.switch_magnitude_bps - 1.8e6).abs() < 1.0);
    }

    #[test]
    fn switch_rebuffer_attribution_window() {
        let mut tl = RungTimeline::new(SimTime::ZERO, 2.5e6);
        tl.switch_to(SimTime::from_secs(100), 4.3e6);
        let stalls = vec![
            // 3 s stall right after the switch: attributable.
            (SimTime::from_secs(105), Some(SimTime::from_secs(108))),
            // Stall long after the window: not attributable.
            (SimTime::from_secs(200), Some(SimTime::from_secs(205))),
            // Stall before any switch: not attributable.
            (SimTime::from_secs(50), Some(SimTime::from_secs(55))),
        ];
        let attributed = tl.switch_rebuffer(&stalls, SimTime::from_secs(300));
        assert_eq!(attributed, SimDuration::from_secs(3));
    }
}
