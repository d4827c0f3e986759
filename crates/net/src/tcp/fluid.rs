//! Flow-level (fluid) transfer approximations of the round model's
//! slow-start ramp.
//!
//! The round loop ([`super::rounds`]) executes
//! every round of every *chunk* of a session. A fleet simulation coupling
//! 100k+ concurrent sessions cannot afford that: it models each session
//! as a *fluid* that downloads at the min of its access rate and its fair
//! share of a server's service rate, and only needs TCP for the one place
//! the fluid picture is wrong — connection startup, where slow start
//! keeps the flow below its steady rate for a few RTTs.
//!
//! [`startup_ramp`] is the doubling progression a window-limited slow
//! start steps through round by round: doubling round `j` offers
//! `iw · 2^(j-1)` packets, so after `r = ⌈log2(target / iw)⌉` rounds the
//! window covers the bandwidth-delay product and the flow runs at rate.
//! The helper returns that ramp's latency and byte deficit in closed form,
//! which a fluid session charges once as startup overhead instead of
//! simulating rounds.

use msim_core::time::SimDuration;
use msim_core::units::{BitRate, ByteSize};

use super::{TcpConfig, INITIAL_CWND_PKTS, MSS};

/// Closed-form startup cost of a fresh flow that will stream at `rate`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FluidRamp {
    /// Handshake + request + slow-start rounds until the window covers the
    /// bandwidth-delay product: the delay before the flow behaves like a
    /// fluid running at `rate`.
    pub latency: SimDuration,
    /// Bytes delivered *during* the doubling rounds — the flow is not idle
    /// while ramping, so callers credit these against the first transfer.
    pub ramp_bytes: ByteSize,
    /// Number of doubling rounds the ramp spans.
    pub rounds: u32,
}

/// How long a fresh connection needs before it streams at `rate`, and how
/// many bytes arrive while it gets there.
///
/// The model is the round model's slow-start geometry: the window starts
/// at `INITIAL_CWND_PKTS · MSS` bytes and doubles once per RTT until it
/// covers `min(BDP, rwnd)`; the handshake and the request each cost one
/// more RTT. Doubling round `j` delivers `iw · 2^(j-1)` bytes, so the
/// whole ramp delivers `iw · (2^r − 1)`, the geometric sum of the rounds
/// a transfer engine would step.
pub fn startup_ramp(cfg: &TcpConfig, rtt: SimDuration, rate: BitRate) -> FluidRamp {
    let iw_bytes = INITIAL_CWND_PKTS * f64::from(MSS);
    let bdp_bytes = (rate.bytes_per_sec() * rtt.as_secs_f64()).max(0.0);
    // The window never needs to exceed the receive window: a flow capped
    // by rwnd tops out below `rate` and the ramp is over when it gets there.
    let target = bdp_bytes.min(cfg.rwnd_bytes as f64);
    let mut rounds = 0u32;
    let mut window = iw_bytes;
    while window < target && rounds < 32 {
        window *= 2.0;
        rounds += 1;
    }
    let ramp_bytes = iw_bytes * (((1u64 << rounds) - 1) as f64);
    FluidRamp {
        latency: rtt.mul_f64(2.0 + f64::from(rounds)),
        ramp_bytes: ByteSize::bytes(ramp_bytes as u64),
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    #[test]
    fn no_doubling_when_bdp_fits_the_initial_window() {
        // 1 Mbps × 20 ms = 2.5 KB BDP, well under IW10 ≈ 14.5 KB.
        let ramp = startup_ramp(&cfg(), SimDuration::from_millis(20), BitRate::mbps(1.0));
        assert_eq!(ramp.rounds, 0);
        assert_eq!(ramp.ramp_bytes, ByteSize::ZERO);
        assert_eq!(ramp.latency, SimDuration::from_millis(40), "2 RTTs");
    }

    #[test]
    fn rounds_grow_logarithmically_with_rate() {
        let rtt = SimDuration::from_millis(50);
        let slow = startup_ramp(&cfg(), rtt, BitRate::mbps(10.0));
        let fast = startup_ramp(&cfg(), rtt, BitRate::mbps(40.0));
        assert_eq!(fast.rounds, slow.rounds + 2, "4x the rate = 2 doublings");
        assert!(fast.latency > slow.latency);
    }

    #[test]
    fn ramp_bytes_follow_the_geometric_sum() {
        let rtt = SimDuration::from_millis(50);
        let ramp = startup_ramp(&cfg(), rtt, BitRate::mbps(20.0));
        let iw = INITIAL_CWND_PKTS * f64::from(MSS);
        let expect = iw * (((1u64 << ramp.rounds) - 1) as f64);
        assert_eq!(ramp.ramp_bytes.as_u64(), expect as u64);
    }

    #[test]
    fn rwnd_caps_the_ramp() {
        let mut c = cfg();
        c.rwnd_bytes = 64 * 1024;
        let rtt = SimDuration::from_millis(100);
        let capped = startup_ramp(&c, rtt, BitRate::mbps(100.0));
        let free = startup_ramp(&cfg(), rtt, BitRate::mbps(100.0));
        assert!(capped.rounds < free.rounds);
    }
}
