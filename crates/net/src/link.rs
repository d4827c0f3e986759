//! A simulated access link: time-varying available bandwidth, RTT with
//! jitter, random loss, and optional outage windows (mobility).

use crate::mobility::OutageSchedule;
use msim_core::process::{Process, ProcessKind};
use msim_core::rng::{DeviateMode, DrawKind, DrawTable, Prng};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::BitRate;

/// A window over which a link is *provably boring*: constant rate, constant
/// RTT, zero per-round loss probability, no outage — and, crucially, no
/// randomness consumed by any per-round sampling inside it. The epoch-based
/// transfer engine ([`crate::tcp`]) steps TCP rounds inside such windows on
/// these constants without touching the link; see [`Link::stable_window`]
/// for the exact contract.
#[derive(Clone, Copy, Debug)]
pub struct StableWindow {
    /// The (effective, clamped) link rate holding over the window.
    pub rate: BitRate,
    /// The round-trip time holding over the window (no jitter by
    /// definition of stability).
    pub rtt: SimDuration,
    /// Exclusive end of the window: the guarantee covers `[t, until)`.
    pub until: SimTime,
}

/// One directional access link (WiFi or LTE attachment).
///
/// The available-bandwidth process is sampled per TCP round; RTT jitter is
/// drawn per round from a log-normal multiplier so that latency spikes are
/// occasionally large but never negative.
pub struct Link {
    /// Human-readable name, e.g. `"wifi"`.
    pub name: String,
    rate_process: ProcessKind,
    base_rtt: SimDuration,
    rtt_jitter_frac: f64,
    random_loss_per_round: f64,
    outages: Option<OutageSchedule>,
    rng: Prng,
    /// Per-round RTT jitter multipliers (full log-normal values, `exp`
    /// included, so the per-round draw is an indexed load). `None` on
    /// jitter-free links, which never draw.
    jitter: Option<DrawTable>,
}

impl Link {
    /// Assembles a link from its parts. `rate_process` yields Mbit/s.
    /// Concrete process types dispatch through [`ProcessKind`] (a
    /// predictable branch on the per-round hot path instead of a vtable);
    /// exotic implementations can still be passed as `Box<dyn Process>`.
    pub fn new(
        name: impl Into<String>,
        rate_process: impl Into<ProcessKind>,
        base_rtt: SimDuration,
        rtt_jitter_frac: f64,
        random_loss_per_round: f64,
        rng: Prng,
    ) -> Self {
        Self::with_mode(
            name,
            rate_process,
            base_rtt,
            rtt_jitter_frac,
            random_loss_per_round,
            rng,
            DeviateMode::default(),
        )
    }

    /// As [`Link::new`] with an explicit deviate-generation mode.
    pub fn with_mode(
        name: impl Into<String>,
        rate_process: impl Into<ProcessKind>,
        base_rtt: SimDuration,
        rtt_jitter_frac: f64,
        random_loss_per_round: f64,
        mut rng: Prng,
        mode: DeviateMode,
    ) -> Self {
        // Jittered links fork a dedicated stream for the multiplier table
        // so loss draws stay on `rng`; jitter-free links leave `rng`
        // untouched, preserving their (stable-path) draw sequence.
        let jitter = (rtt_jitter_frac > 0.0).then(|| {
            let sigma = rtt_jitter_frac;
            DrawTable::new(
                rng.fork(),
                DrawKind::LognormalMult {
                    mu: -0.5 * sigma * sigma,
                    sigma,
                },
                mode,
            )
        });
        Link {
            name: name.into(),
            rate_process: rate_process.into(),
            base_rtt,
            rtt_jitter_frac,
            random_loss_per_round,
            outages: None,
            rng,
            jitter,
        }
    }

    /// Attaches an outage schedule (mobility: the link is dead inside
    /// outage windows).
    pub fn with_outages(mut self, outages: OutageSchedule) -> Self {
        self.outages = Some(outages);
        self
    }

    /// Available bandwidth at time `t`; zero while in an outage.
    pub fn rate_at(&mut self, t: SimTime) -> BitRate {
        if let Some(o) = &self.outages {
            if !o.is_up(t) {
                return BitRate::ZERO;
            }
        }
        BitRate::mbps(self.rate_process.value_at(t).max(0.01))
    }

    /// Round-trip time at time `t` (base RTT × log-normal jitter, sigma
    /// chosen so that std/mean ≈ jitter_frac). The multiplier comes from
    /// the link's draw table, which refills a block at a time: an indexed
    /// load per round, with Box–Muller's `ln`/`sqrt`/`sincos` plus the
    /// `exp` paid in the batched refill.
    pub fn rtt_at(&mut self, _t: SimTime) -> SimDuration {
        match &mut self.jitter {
            None => self.base_rtt,
            Some(table) => self.base_rtt.mul_f64(table.draw().max(0.3)),
        }
    }

    /// The configured base (unjittered) RTT.
    pub fn base_rtt(&self) -> SimDuration {
        self.base_rtt
    }

    /// Draws whether a random (non-congestion) loss hits this round.
    pub fn random_loss(&mut self) -> bool {
        self.rng.chance(self.random_loss_per_round)
    }

    /// True when the link is usable at `t` (no outage in progress).
    pub fn is_up(&self, t: SimTime) -> bool {
        self.outages.as_ref().is_none_or(|o| o.is_up(t))
    }

    /// Next instant at or after `t` when the link comes back up, if it is
    /// currently down. Returns `None` when already up.
    pub fn next_up_after(&self, t: SimTime) -> Option<SimTime> {
        let o = self.outages.as_ref()?;
        if o.is_up(t) {
            None
        } else {
            Some(o.next_up(t))
        }
    }

    /// Draws and returns the next raw value of the link's own RNG stream.
    /// Test-only: differential tests use it to pin the stream *position*
    /// (not just past draws) after a transfer ran on each engine.
    #[doc(hidden)]
    pub fn rng_probe(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// False when [`Link::stable_window`] returns `None` at every `t`:
    /// jitter or a loss probability make every round consume randomness.
    /// Fixed at construction, so the transfer engine asks once per request
    /// instead of probing every round.
    pub(crate) fn can_be_stable(&self) -> bool {
        !(self.rtt_jitter_frac > 0.0 || self.random_loss_per_round > 0.0)
    }

    /// Probes for a [`StableWindow`] starting at `t`.
    ///
    /// When this returns `Some(w)`, the link guarantees that for every
    /// `t' ∈ [t, w.until)`:
    ///
    /// * [`Link::rate_at`]`(t')` returns exactly `w.rate`,
    /// * [`Link::rtt_at`]`(t')` returns exactly `w.rtt`,
    /// * [`Link::random_loss`]`()` returns `false`,
    ///
    /// **and none of those calls consumes randomness or observably mutates
    /// state** — so a caller may skip them entirely and every later sample
    /// on this link is bit-identical to the call-every-round execution.
    /// This is the foundation of the TCP fast path's bit-identity claim.
    ///
    /// The probe itself samples the rate at `t` (exactly as a per-round
    /// caller would), so callers must treat the probe as their sample for
    /// time `t`. Returns `None` when the link is jittered, lossy, in an
    /// outage, or its rate process cannot advertise a horizon.
    pub fn stable_window(&mut self, t: SimTime) -> Option<StableWindow> {
        if !self.can_be_stable() {
            return None;
        }
        let mut until = SimTime::MAX;
        if let Some(o) = &self.outages {
            if !o.is_up(t) {
                return None;
            }
            if let Some(next_down) = o.next_outage_after(t) {
                until = next_down;
            }
        }
        let rate = self.rate_at(t);
        until = until.min(self.rate_process.stable_until(t)?);
        if until <= t {
            return None;
        }
        Some(StableWindow {
            rate,
            rtt: self.base_rtt,
            until,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_core::process::Constant;

    fn test_link(jitter: f64) -> Link {
        Link::new(
            "test",
            Constant(10.0),
            SimDuration::from_millis(50),
            jitter,
            0.0,
            Prng::new(1),
        )
    }

    #[test]
    fn rate_comes_from_process() {
        let mut l = test_link(0.0);
        assert!((l.rate_at(SimTime::ZERO).as_mbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_without_jitter_is_base() {
        let mut l = test_link(0.0);
        assert_eq!(l.rtt_at(SimTime::ZERO), SimDuration::from_millis(50));
    }

    #[test]
    fn rtt_jitter_has_right_scale() {
        let mut l = test_link(0.2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n)
            .map(|_| l.rtt_at(SimTime::ZERO).as_secs_f64())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.050).abs() < 0.002, "mean rtt {mean}");
        assert!(samples.iter().all(|&s| s > 0.0), "rtt always positive");
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((0.1..0.35).contains(&cv), "cv {cv}");
    }

    #[test]
    fn outage_zeroes_rate() {
        use crate::mobility::OutageSchedule;
        let sched =
            OutageSchedule::from_windows(vec![(SimTime::from_secs(10), SimTime::from_secs(20))]);
        let mut l = test_link(0.0).with_outages(sched);
        assert!(l.rate_at(SimTime::from_secs(5)).as_mbps() > 0.0);
        assert_eq!(l.rate_at(SimTime::from_secs(15)).as_bps(), 0.0);
        assert!(!l.is_up(SimTime::from_secs(15)));
        assert_eq!(
            l.next_up_after(SimTime::from_secs(15)),
            Some(SimTime::from_secs(20))
        );
        assert_eq!(l.next_up_after(SimTime::from_secs(25)), None);
        assert!(l.rate_at(SimTime::from_secs(25)).as_mbps() > 0.0);
    }

    #[test]
    fn random_loss_frequency() {
        let mut l = Link::new(
            "lossy",
            Constant(10.0),
            SimDuration::from_millis(50),
            0.0,
            0.1,
            Prng::new(7),
        );
        let hits = (0..10_000).filter(|_| l.random_loss()).count();
        assert!((800..1200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn stable_window_on_quiet_constant_link() {
        let mut l = test_link(0.0);
        let w = l.stable_window(SimTime::from_secs(1)).expect("stable");
        assert_eq!(w.until, SimTime::MAX);
        assert_eq!(w.rtt, SimDuration::from_millis(50));
        assert!((w.rate.as_mbps() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_or_loss_defeat_stability() {
        let mut jittered = test_link(0.2);
        assert!(jittered.stable_window(SimTime::ZERO).is_none());
        let mut lossy = Link::new(
            "lossy",
            Constant(10.0),
            SimDuration::from_millis(50),
            0.0,
            0.01,
            Prng::new(7),
        );
        assert!(lossy.stable_window(SimTime::ZERO).is_none());
    }

    #[test]
    fn outages_bound_or_defeat_stability() {
        use crate::mobility::OutageSchedule;
        let sched =
            OutageSchedule::from_windows(vec![(SimTime::from_secs(10), SimTime::from_secs(20))]);
        let mut l = test_link(0.0).with_outages(sched);
        // Before the outage: window ends at the outage start.
        let w = l.stable_window(SimTime::from_secs(5)).expect("up + stable");
        assert_eq!(w.until, SimTime::from_secs(10));
        // Inside the outage: no stability at all.
        assert!(l.stable_window(SimTime::from_secs(15)).is_none());
        // After: unbounded again.
        let w = l.stable_window(SimTime::from_secs(25)).expect("up again");
        assert_eq!(w.until, SimTime::MAX);
    }

    #[test]
    fn stochastic_rate_process_defeats_stability() {
        use msim_core::process::Ou;
        let mut l = Link::new(
            "ou",
            Ou::new(10.0, 2.0, 1.0, Prng::new(9)),
            SimDuration::from_millis(40),
            0.0,
            0.0,
            Prng::new(10),
        );
        assert!(l.stable_window(SimTime::from_millis(10)).is_none());
        // The probe's own sample counts as the sample for that instant:
        // a subsequent rate_at at the same t must agree and not re-draw.
        let t = SimTime::from_millis(20);
        let _ = l.stable_window(t);
        let a = l.rate_at(t);
        let b = l.rate_at(t);
        assert_eq!(a.as_bps(), b.as_bps());
    }
}
