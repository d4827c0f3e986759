//! A simulated access link: time-varying available bandwidth, RTT with
//! jitter, random loss, and optional outage windows (mobility).
//!
//! What a TCP round costs here (the hottest calls in the repository):
//!
//! * [`Link::rtt_at`]: one indexed load from the jitter table and the µs
//!   rounding; the only per-round deviate left;
//! * [`Link::rate_at`]: the rate process lives on the time axis (see
//!   [`msim_core::process`]), so most rounds read the OU's current cell and
//!   the modulators' current episode, and nothing is drawn;
//! * [`Link::random_loss`]: a countdown. The number of clean rounds before
//!   the next loss is drawn once per loss, not a Bernoulli per round.
//!
//! The rate a link offers at `t` is a function of `(seed, t)`; RTT jitter
//! and loss are per-round sequences and depend on how many rounds ran.

use crate::mobility::OutageSchedule;
use msim_core::process::{Process, ProcessKind};
use msim_core::rng::{DeviateMode, DrawKind, DrawTable, Prng};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::BitRate;
use msim_core::vmath;

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
    /// `ln(1 − p)` for a per-round loss probability `p`: negative on a
    /// lossy link (−∞ at `p = 1`), `0.0` on one that never loses.
    ln_keep: f64,
    /// Clean rounds left before the next random loss.
    loss_gap: u64,
    outages: Option<OutageSchedule>,
    /// Loss gaps (one draw per loss); untouched on a loss-free link.
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
        // so loss draws stay on `rng`; a link with neither jitter nor loss
        // leaves `rng` where the caller's fork put it.
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
        let p = random_loss_per_round;
        let ln_keep = if p >= 1.0 {
            f64::NEG_INFINITY
        } else if p > 0.0 {
            vmath::ln(1.0 - p)
        } else {
            0.0
        };
        let mut link = Link {
            name: name.into(),
            rate_process: rate_process.into(),
            base_rtt,
            ln_keep,
            loss_gap: u64::MAX,
            outages: None,
            rng,
            jitter,
        };
        // A `p` so small that `1 − p` rounds to 1 never loses either.
        if link.ln_keep < 0.0 {
            link.loss_gap = link.draw_loss_gap();
        }
        link
    }

    /// Clean rounds before the next loss: `⌊ln U / ln(1 − p)⌋` for `U`
    /// uniform on `(0, 1]`, the geometric law `P(gap = k) = (1 − p)^k · p`
    /// that a Bernoulli(`p`) per round would produce.
    fn draw_loss_gap(&mut self) -> u64 {
        let u = (1.0 - self.rng.f64()).max(f64::MIN_POSITIVE);
        (vmath::ln(u) / self.ln_keep) as u64
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

    /// Whether a random (non-congestion) loss hits this round: counts the
    /// current gap down, and on the round it runs out draws the next one. A
    /// loss-free link holds `u64::MAX` and is never asked to draw.
    #[inline]
    pub fn random_loss(&mut self) -> bool {
        if self.loss_gap > 0 {
            self.loss_gap -= 1;
            return false;
        }
        self.loss_gap = self.draw_loss_gap();
        true
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
    /// Test-only: replay tests use it to pin the stream *position* (not
    /// just past draws) after a transfer ran.
    #[doc(hidden)]
    pub fn rng_probe(&mut self) -> u64 {
        self.rng.next_u64()
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

    fn lossy_link(p: f64, seed: u64) -> Link {
        Link::new(
            "lossy",
            Constant(10.0),
            SimDuration::from_millis(50),
            0.0,
            p,
            Prng::new(seed),
        )
    }

    #[test]
    fn loss_gaps_follow_the_geometric_law() {
        // Mean clean run between losses is (1 − p)/p.
        for p in [0.004, 0.05, 0.3] {
            let mut l = lossy_link(p, 11);
            let (mut losses, mut rounds) = (0u64, 0u64);
            while losses < 100_000 {
                rounds += 1;
                losses += u64::from(l.random_loss());
            }
            let mean_gap = (rounds - losses) as f64 / losses as f64;
            let want = (1.0 - p) / p;
            assert!(
                (mean_gap - want).abs() < 0.03 * want,
                "p {p}: mean gap {mean_gap}, want {want}"
            );
        }
    }

    #[test]
    fn certain_loss_hits_every_round_and_a_vanishing_one_never() {
        let mut always = lossy_link(1.0, 3);
        assert!((0..1_000).all(|_| always.random_loss()));
        // 1 − 1e-300 rounds to 1: no round can be told from a clean one.
        let mut never = lossy_link(1e-300, 3);
        assert!(!(0..1_000).any(|_| never.random_loss()));
    }

    #[test]
    fn quiet_link_never_touches_its_rng() {
        // No jitter and no loss: rounds, rates and RTTs leave the stream
        // where construction found it.
        let mut l = test_link(0.0);
        for i in 0..1_000 {
            let t = SimTime::from_millis(10 * i);
            l.rate_at(t);
            l.rtt_at(t);
            assert!(!l.random_loss());
        }
        assert_eq!(l.rng_probe(), Prng::new(1).next_u64());
    }

    #[test]
    fn rate_is_a_function_of_seed_and_time() {
        // Two links of one seed, sampled on different patterns, one of them
        // through an outage: the rate agrees wherever both are up.
        use crate::mobility::OutageSchedule;
        use crate::profile::PathProfile;
        let profile = PathProfile::lte_youtube();
        let mut steady = profile.build(&mut Prng::new(21));
        let sched =
            OutageSchedule::from_windows(vec![(SimTime::from_secs(30), SimTime::from_secs(70))]);
        let mut roaming = profile.build(&mut Prng::new(21)).with_outages(sched);
        for i in 1..=20_000u64 {
            let t = SimTime::from_millis(9 * i);
            let want = steady.rate_at(t);
            if i % 17 == 0 && roaming.is_up(t) {
                assert_eq!(roaming.rate_at(t).as_bps(), want.as_bps(), "at {t:?}");
            }
        }
    }
}
