//! Mobility modelling: link outage schedules.
//!
//! The paper motivates MSPlayer with connections that "break down
//! temporarily due to mobility" (§1) and reports (without figures) that
//! MSPlayer sustains playback through such events. An [`OutageSchedule`] is
//! a set of half-open `[start, end)` windows during which a link is dead;
//! it can be fixed (scripted scenarios) or generated from a two-state
//! renewal process (random walking-around-town connectivity).

use msim_core::rng::Prng;
use msim_core::time::{SimDuration, SimTime};

/// A set of non-overlapping, sorted outage windows.
#[derive(Clone, Debug)]
pub struct OutageSchedule {
    /// Sorted `[start, end)` windows with a gap between any two, so the end
    /// of the window holding `t` is an instant the link is up.
    windows: Vec<(SimTime, SimTime)>,
}

/// Appends `w` (starting no earlier than the last window ends) to sorted
/// windows, merging the two when they touch: back-to-back outages are one.
fn push_merged(windows: &mut Vec<(SimTime, SimTime)>, w: (SimTime, SimTime)) {
    match windows.last_mut() {
        Some(last) if last.1 == w.0 => last.1 = w.1,
        _ => windows.push(w),
    }
}

impl OutageSchedule {
    /// Builds a schedule from explicit windows; they are sorted, must be
    /// well-formed and must not overlap. Windows that touch are merged.
    pub fn from_windows(mut windows: Vec<(SimTime, SimTime)>) -> Self {
        windows.sort_by_key(|w| w.0);
        for w in &windows {
            assert!(w.0 < w.1, "empty or inverted outage window {w:?}");
        }
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping outage windows");
        }
        let mut merged = Vec::with_capacity(windows.len());
        for w in windows {
            push_merged(&mut merged, w);
        }
        OutageSchedule { windows: merged }
    }

    /// Generates a schedule from a renewal process over `[0, horizon)`:
    /// up-times are exponential with mean `mean_up`, outages exponential
    /// with mean `mean_down`. An up-time that rounds to 0 µs merges two
    /// outages into one window.
    pub fn generate(
        horizon: SimTime,
        mean_up: SimDuration,
        mean_down: SimDuration,
        rng: &mut Prng,
    ) -> Self {
        let mut windows = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let up = SimDuration::from_secs_f64(rng.exponential(mean_up.as_secs_f64()));
            let start = t + up;
            if start >= horizon {
                break;
            }
            let down =
                SimDuration::from_secs_f64(rng.exponential(mean_down.as_secs_f64()).max(0.001));
            let end = start + down;
            push_merged(&mut windows, (start, end.min(horizon)));
            t = end;
            if t >= horizon {
                break;
            }
        }
        OutageSchedule { windows }
    }

    /// True when the link is up at `t`.
    pub fn is_up(&self, t: SimTime) -> bool {
        !self.windows.iter().any(|&(s, e)| s <= t && t < e)
    }

    /// The first instant at or after `t` when the link is up. If `t` is
    /// inside an outage this is that window's end, otherwise `t` itself.
    pub fn next_up(&self, t: SimTime) -> SimTime {
        for &(s, e) in &self.windows {
            if s <= t && t < e {
                return e;
            }
        }
        t
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }

    /// Total downtime inside `[0, horizon)`.
    pub fn downtime(&self, horizon: SimTime) -> SimDuration {
        self.windows
            .iter()
            .map(|&(s, e)| e.min(horizon).saturating_since(s.min(horizon)))
            .fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_windows_queries() {
        let s = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(10), SimTime::from_secs(12)),
            (SimTime::from_secs(20), SimTime::from_secs(25)),
        ]);
        assert!(s.is_up(SimTime::from_secs(5)));
        assert!(!s.is_up(SimTime::from_secs(11)));
        assert!(s.is_up(SimTime::from_secs(12)), "end is exclusive");
        assert_eq!(s.next_up(SimTime::from_secs(11)), SimTime::from_secs(12));
        assert_eq!(s.next_up(SimTime::from_secs(13)), SimTime::from_secs(13));
    }

    #[test]
    fn windows_are_sorted_on_construction() {
        let s = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(20), SimTime::from_secs(25)),
            (SimTime::from_secs(10), SimTime::from_secs(12)),
        ]);
        assert_eq!(s.windows()[0].0, SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_windows_rejected() {
        OutageSchedule::from_windows(vec![
            (SimTime::from_secs(10), SimTime::from_secs(15)),
            (SimTime::from_secs(14), SimTime::from_secs(20)),
        ]);
    }

    #[test]
    fn downtime_accounting() {
        let s = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(10), SimTime::from_secs(12)),
            (SimTime::from_secs(20), SimTime::from_secs(25)),
        ]);
        assert_eq!(
            s.downtime(SimTime::from_secs(100)),
            SimDuration::from_secs(7)
        );
        // Horizon truncates the second window.
        assert_eq!(
            s.downtime(SimTime::from_secs(22)),
            SimDuration::from_secs(4)
        );
    }

    #[test]
    fn generated_schedule_respects_horizon_and_means() {
        let mut rng = Prng::new(3);
        let horizon = SimTime::from_secs(10_000);
        let s = OutageSchedule::generate(
            horizon,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            &mut rng,
        );
        assert!(!s.windows().is_empty());
        for &(start, end) in s.windows() {
            assert!(start < end && end <= horizon);
        }
        // Duty cycle ≈ 100/110 up.
        let down_frac = s.downtime(horizon).as_secs_f64() / horizon.as_secs_f64();
        assert!(
            (0.04..0.16).contains(&down_frac),
            "down fraction {down_frac}"
        );
    }

    /// `next_up(t)` must be an instant the link is up, for every `t`.
    fn assert_next_up_is_up(s: &OutageSchedule, horizon: SimTime) {
        let mut t = SimTime::ZERO;
        while t <= horizon {
            assert!(s.is_up(s.next_up(t)), "next_up({t:?}) is down");
            t += SimDuration::from_micros(250);
        }
        for &(start, end) in s.windows() {
            for t in [start, end, end.saturating_add(SimDuration::from_micros(1))] {
                assert!(s.is_up(s.next_up(t)), "next_up({t:?}) is down");
            }
        }
    }

    #[test]
    fn touching_windows_are_one_outage() {
        let s = OutageSchedule::from_windows(vec![
            (SimTime::from_secs(12), SimTime::from_secs(15)),
            (SimTime::from_secs(10), SimTime::from_secs(12)),
        ]);
        assert_eq!(s.next_up(SimTime::from_secs(11)), SimTime::from_secs(15));
        assert_eq!(
            s.windows(),
            &[(SimTime::from_secs(10), SimTime::from_secs(15))]
        );
        assert_next_up_is_up(&s, SimTime::from_secs(20));
    }

    #[test]
    fn generated_windows_never_touch() {
        // Up-times of mean 1 µs round to 0 µs about 40 % of the time.
        let horizon = SimTime::from_secs(2);
        let s = OutageSchedule::generate(
            horizon,
            SimDuration::from_micros(1),
            SimDuration::from_millis(2),
            &mut Prng::new(4),
        );
        for pair in s.windows().windows(2) {
            assert!(pair[0].1 < pair[1].0, "touching windows {pair:?}");
        }
        assert_next_up_is_up(&s, horizon);
    }
}
