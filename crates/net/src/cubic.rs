//! CUBIC congestion control (RFC 8312), the algorithm the paper's testbed
//! servers run ("standard Linux 3.5 kernel with CUBIC congestion control",
//! §5).
//!
//! Only the pieces that shape *transfer durations* are modelled: the cubic
//! window growth function between loss events, the multiplicative decrease,
//! and the TCP-friendly (Reno-tracking) lower bound. Windows are tracked in
//! packets as `f64`, as in the kernel's implementation notes.

/// CUBIC state for one connection.
///
/// `PartialEq` compares every field bit-for-bit — the warm-connection
/// replay tests of the round loop rely on it.
#[derive(Clone, Debug, PartialEq)]
pub struct Cubic {
    /// Scaling constant C (RFC 8312 recommends 0.4).
    pub c: f64,
    /// Multiplicative decrease factor β (RFC 8312: 0.7).
    pub beta: f64,
    /// Window size (packets) just before the last reduction.
    w_max: f64,
    /// Time (s) for the cubic to return to `w_max` after a loss.
    k: f64,
    /// Seconds of congestion-avoidance time accumulated since the last loss.
    epoch_elapsed: f64,
    /// Whether a loss epoch has started (false until the first loss).
    epoch_started: bool,
}

impl Default for Cubic {
    fn default() -> Self {
        Cubic::new(0.4, 0.7)
    }
}

impl Cubic {
    /// Creates a CUBIC controller with explicit constants.
    pub fn new(c: f64, beta: f64) -> Self {
        assert!(c > 0.0, "C must be positive");
        assert!((0.0..1.0).contains(&beta), "beta must be in (0,1)");
        Cubic {
            c,
            beta,
            w_max: 0.0,
            k: 0.0,
            epoch_elapsed: 0.0,
            epoch_started: false,
        }
    }

    /// Registers a congestion event at current window `cwnd_pkts`.
    /// Returns the reduced window.
    pub fn on_loss(&mut self, cwnd_pkts: f64) -> f64 {
        // Fast convergence (RFC 8312 §4.6): if we lost below the previous
        // w_max, release bandwidth by remembering a slightly smaller peak.
        if self.epoch_started && cwnd_pkts < self.w_max {
            self.w_max = cwnd_pkts * (1.0 + self.beta) / 2.0;
        } else {
            self.w_max = cwnd_pkts;
        }
        self.k = (self.w_max * (1.0 - self.beta) / self.c).cbrt();
        self.epoch_elapsed = 0.0;
        self.epoch_started = true;
        (cwnd_pkts * self.beta).max(2.0)
    }

    /// Advances congestion-avoidance time by `dt_secs` and returns the target
    /// window, `max(W_cubic, W_est)` where `W_est` is the TCP-friendly
    /// (Reno) window estimate. `rtt_secs` is needed for `W_est`.
    ///
    /// Before any loss has occurred the caller should be in slow start; this
    /// function then just grows a cubic from the current point.
    pub fn advance(&mut self, dt_secs: f64, rtt_secs: f64, cwnd_pkts: f64) -> f64 {
        if !self.epoch_started {
            // No loss yet: initialise an epoch at the current window so the
            // cubic has an origin (mirrors kernel behaviour when entering CA
            // via ssthresh).
            self.w_max = cwnd_pkts;
            self.k = 0.0;
            self.epoch_elapsed = 0.0;
            self.epoch_started = true;
        }
        self.epoch_elapsed += dt_secs;
        // TCP-friendly region (RFC 8312 §4.2) is folded into `window_at`.
        self.window_at(self.epoch_elapsed, rtt_secs)
    }

    /// The target window at epoch time `t`: `max(W_cubic, W_est)`, never
    /// below two packets.
    fn window_at(&self, t: f64, rtt_secs: f64) -> f64 {
        let w_cubic = self.c * (t - self.k).powi(3) + self.w_max;
        let w_est = self.w_max * self.beta
            + 3.0 * (1.0 - self.beta) / (1.0 + self.beta) * (t / rtt_secs.max(1e-6));
        w_cubic.max(w_est).max(2.0)
    }

    /// The time constant K (seconds) of the current epoch.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The pre-loss window the cubic is converging back to.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_reduces_window_by_beta() {
        let mut c = Cubic::default();
        let reduced = c.on_loss(100.0);
        assert!((reduced - 70.0).abs() < 1e-9);
        assert_eq!(c.w_max(), 100.0);
    }

    #[test]
    fn window_returns_to_w_max_at_k() {
        let mut c = Cubic::default();
        let reduced = c.on_loss(100.0);
        // At t = K the cubic crosses w_max again. Use a long RTT so the
        // TCP-friendly (Reno) lower bound does not dominate the region.
        let k = c.k();
        assert!(k > 0.0);
        let w = c.advance(k, 0.5, reduced);
        assert!((w - 100.0).abs() < 2.0, "w at K = {w}");
    }

    #[test]
    fn growth_is_concave_then_convex() {
        let mut c = Cubic::default();
        let reduced = c.on_loss(100.0);
        let k = c.k();
        // Sample the window on both sides of K.
        let mut prev = reduced;
        let mut deltas = Vec::new();
        let steps = 40;
        let dt = 2.0 * k / steps as f64;
        let mut cc = c.clone();
        for _ in 0..steps {
            let w = cc.advance(dt, 0.5, prev);
            deltas.push(w - prev);
            prev = w;
        }
        // Concave region: growth rate decreasing; convex region: increasing.
        let first_half_trend = deltas[3] > deltas[steps / 2 - 2];
        let second_half_trend = deltas[steps - 2] > deltas[steps / 2 + 2];
        assert!(first_half_trend, "concave before K: {deltas:?}");
        assert!(second_half_trend, "convex after K: {deltas:?}");
    }

    #[test]
    fn tcp_friendly_floor_applies_at_small_windows() {
        let mut c = Cubic::default();
        let reduced = c.on_loss(4.0);
        // With a tiny w_max the Reno estimate quickly dominates.
        let w = c.advance(1.0, 0.05, reduced);
        let w_est = 4.0 * 0.7 + 3.0 * 0.3 / 1.7 * (1.0 / 0.05);
        assert!((w - w_est).abs() < 1e-6, "w {w} vs w_est {w_est}");
    }

    #[test]
    fn fast_convergence_shrinks_w_max() {
        let mut c = Cubic::default();
        c.on_loss(100.0);
        // Second loss below the previous peak → remembered peak shrinks.
        c.on_loss(50.0);
        assert!((c.w_max() - 50.0 * 1.7 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_never_below_two() {
        let mut c = Cubic::default();
        assert!(c.on_loss(1.0) >= 2.0);
        let w = c.advance(0.001, 0.05, 2.0);
        assert!(w >= 2.0);
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_rejected() {
        Cubic::new(0.4, 1.5);
    }
}
