//! A simulated access link: time-varying available bandwidth, RTT with
//! jitter, random loss, and optional outage windows (mobility). Links are
//! built by [`PathProfile::build`], the only way to make one.
//!
//! The rate is `clamp(level × bursts × congestion)` in Mbit/s, computed by
//! the link from three inline parts (see [`msim_core::process`]): an OU
//! level (or the profile's constant mean), an optional burst overlay and an
//! optional congestion modulator. A new rate feature is a profile field and
//! a link field.
//!
//! What a TCP round costs here (the hottest calls in the repository):
//!
//! * [`Link::rtt_at`]: one indexed load from the jitter table and the µs
//!   rounding; the only per-round deviate left;
//! * [`Link::rate_at`]: the three parts live on the time axis, so most
//!   rounds read the OU's current cell and the other parts' current
//!   episode, and nothing is drawn;
//! * [`Link::random_loss`]: a countdown. The number of clean rounds before
//!   the next loss is drawn once per loss, not a Bernoulli per round.
//!
//! The rate a link offers at `t` is a function of `(seed, t)`; RTT jitter
//! and loss are per-round sequences and depend on how many rounds ran.

use crate::mobility::OutageSchedule;
use crate::profile::PathProfile;
use msim_core::process::{Bursts, MarkovModulator, Ou};
use msim_core::rng::{DrawKind, DrawTable, Prng};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::BitRate;
use msim_core::vmath;

/// One directional access link (WiFi or LTE attachment).
///
/// The available-bandwidth process is sampled per TCP round; RTT jitter is
/// drawn per round from a log-normal multiplier so that latency spikes are
/// occasionally large but never negative.
pub struct Link {
    /// The mean-reverting rate level; `None` holds `mean` constant.
    level: Option<Ou>,
    /// Long-run mean rate, Mbit/s.
    mean: f64,
    bursts: Option<Bursts>,
    congestion: Option<MarkovModulator>,
    /// Rate clamp, Mbit/s.
    min_rate: f64,
    max_rate: f64,
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
    /// Builds the link `profile` describes. Streams are forked from `rng`
    /// in a fixed order: the level (only when the rate varies), the bursts,
    /// the congestion modulator, then the link's own stream.
    pub(crate) fn new(profile: &PathProfile, rng: &mut Prng) -> Self {
        let mode = profile.deviate_mode;
        let mean = profile.mean_rate.as_mbps();
        let (min_rate, max_rate) = (mean * profile.min_rate_frac, mean * profile.max_rate_frac);
        assert!(min_rate <= max_rate, "min rate above max rate");
        let level = (profile.rate_std_frac > 0.0).then(|| {
            let std = mean * profile.rate_std_frac;
            Ou::new(mean, std, profile.rate_tau_secs, rng.fork(), mode)
        });
        let bursts = profile.bursts.map(|b| {
            Bursts::new(
                b.mean_interarrival_secs,
                b.mean_duration_secs,
                b.shape,
                b.cap,
                b.down_cap,
                b.up_prob,
                rng.fork(),
                mode,
            )
        });
        let congestion = profile.markov.map(|m| {
            MarkovModulator::new(
                1.0,
                m.bad_mult,
                m.mean_good_secs,
                m.mean_bad_secs,
                rng.fork(),
                mode,
            )
        });
        let mut rng = rng.fork();
        // Jittered links fork a dedicated stream for the multiplier table
        // so loss draws stay on `rng`; a link with neither jitter nor loss
        // leaves `rng` where the caller's fork put it.
        let jitter = (profile.rtt_jitter_frac > 0.0).then(|| {
            let sigma = profile.rtt_jitter_frac;
            DrawTable::new(
                rng.fork(),
                DrawKind::LognormalMult {
                    mu: -0.5 * sigma * sigma,
                    sigma,
                },
                mode,
            )
        });
        let p = profile.random_loss_per_round;
        let ln_keep = if p >= 1.0 {
            f64::NEG_INFINITY
        } else if p > 0.0 {
            vmath::ln(1.0 - p)
        } else {
            0.0
        };
        let mut link = Link {
            level,
            mean,
            bursts,
            congestion,
            min_rate,
            max_rate,
            base_rtt: profile.base_rtt,
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
        let level = self.level.as_mut().map_or(self.mean, |ou| ou.value_at(t));
        let bursts = self.bursts.as_mut().map_or(1.0, |b| b.value_at(t));
        let congestion = self.congestion.as_mut().map_or(1.0, |m| m.value_at(t));
        // Bursts × congestion first, then the level: the order the pinned
        // sampling fingerprints were recorded with (`f64` products do not
        // reassociate bit for bit).
        let rate = (level * (bursts * congestion)).clamp(self.min_rate, self.max_rate);
        BitRate::mbps(rate.max(0.01))
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

    fn test_link(jitter: f64) -> Link {
        PathProfile {
            rtt_jitter_frac: jitter,
            ..PathProfile::stable(10.0, 50)
        }
        .build(&mut Prng::new(1))
    }

    fn lossy_link(p: f64, seed: u64) -> Link {
        PathProfile {
            random_loss_per_round: p,
            ..PathProfile::stable(10.0, 50)
        }
        .build(&mut Prng::new(seed))
    }

    #[test]
    fn constant_level_is_the_mean() {
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
        let mut l = lossy_link(0.1, 7);
        let hits = (0..10_000).filter(|_| l.random_loss()).count();
        assert!((800..1200).contains(&hits), "hits {hits}");
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
        // where construction found it. A stable profile forks nothing but
        // the link's own stream.
        let mut l = test_link(0.0);
        for i in 0..1_000 {
            let t = SimTime::from_millis(10 * i);
            l.rate_at(t);
            l.rtt_at(t);
            assert!(!l.random_loss());
        }
        assert_eq!(l.rng_probe(), Prng::new(1).fork().next_u64());
    }

    #[test]
    fn rate_is_a_function_of_seed_and_time() {
        // Two links of one seed, sampled on different patterns, one of them
        // through an outage: the rate agrees wherever both are up.
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

    #[test]
    fn a_closed_clamp_pins_the_rate() {
        // min == max: whatever the level, bursts and congestion do, the
        // rate is the clamp.
        let profile = PathProfile {
            min_rate_frac: 0.7,
            max_rate_frac: 0.7,
            ..PathProfile::lte_youtube()
        };
        let want = BitRate::mbps(profile.mean_rate.as_mbps() * 0.7);
        let mut link = profile.build(&mut Prng::new(2));
        for i in 0..20_000u64 {
            let t = SimTime::from_millis(13 * i);
            assert_eq!(link.rate_at(t).as_bps(), want.as_bps(), "at {t:?}");
        }
    }

    #[test]
    fn rate_is_level_times_bursts_times_congestion_clamped() {
        // Recompute the rate from the three parts built on the same forks
        // as `Link::new`, in the pinned order of operations.
        for profile in [
            PathProfile::wifi_testbed(),
            PathProfile::lte_testbed(),
            PathProfile::wifi_youtube(),
            PathProfile::lte_youtube(),
            PathProfile::ethernet_testbed(),
        ] {
            let mut rng = Prng::new(31);
            let mut link = profile.build(&mut rng.clone());
            let mode = profile.deviate_mode;
            let mean = profile.mean_rate.as_mbps();
            let mut level = Ou::new(
                mean,
                mean * profile.rate_std_frac,
                profile.rate_tau_secs,
                rng.fork(),
                mode,
            );
            let b = profile.bursts.expect("calibrated profiles burst");
            let mut bursts = Bursts::new(
                b.mean_interarrival_secs,
                b.mean_duration_secs,
                b.shape,
                b.cap,
                b.down_cap,
                b.up_prob,
                rng.fork(),
                mode,
            );
            let m = profile.markov.expect("calibrated profiles congest");
            let mut congestion = MarkovModulator::new(
                1.0,
                m.bad_mult,
                m.mean_good_secs,
                m.mean_bad_secs,
                rng.fork(),
                mode,
            );
            let (lo, hi) = (mean * profile.min_rate_frac, mean * profile.max_rate_frac);
            let mut jitter = Prng::new(32);
            let mut t = SimTime::ZERO;
            for _ in 0..100_000 {
                // Steps of 0 to 60 ms: repeats, in-cell reads and cell edges.
                t += SimDuration::from_micros(jitter.below(60_000));
                let product = level.value_at(t) * (bursts.value_at(t) * congestion.value_at(t));
                let want = BitRate::mbps(product.clamp(lo, hi).max(0.01));
                assert_eq!(
                    link.rate_at(t).as_bps().to_bits(),
                    want.as_bps().to_bits(),
                    "{} at {t:?}",
                    profile.name
                );
            }
        }
    }
}
