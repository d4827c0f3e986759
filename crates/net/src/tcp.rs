//! Round-based TCP connection model and the loop that executes it.
//!
//! Every HTTP range request in the paper's system rides a persistent legacy
//! TCP connection. What determines a chunk's download time is:
//!
//! * one RTT of request latency ("packets start to arrive one RTT after the
//!   request is sent", §2),
//! * the congestion window ramp (slow start from IW10, CUBIC afterwards),
//! * the available bandwidth of the access link during the transfer,
//! * losses (queue overflow at the bottleneck + random wireless loss),
//! * slow-start restart after ON/OFF idle periods (RFC 2861), which matters
//!   in the re-buffering phase of Figs. 3/5.
//!
//! The model simulates these per RTT "round": each round delivers
//! `min(cwnd, BDP)` bytes, cwnd grows per slow start / CUBIC, and losses cut
//! it. This fluid approximation is standard for transfer-time studies and is
//! deterministic given the link's RNG streams.
//!
//! # One round loop
//!
//! [`rounds`] executes that model: one iteration per RTT, written as
//! plainly as the model reads. There is no fast path to fall off: what a
//! round costs is decided in [`crate::link`] (a cell read for the rate, a
//! countdown for the loss).

pub mod fluid;
pub mod rounds;

use crate::cubic::Cubic;
use crate::link::Link;
use msim_core::telemetry::LazyCounter;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::{BitRate, ByteSize};

static REQUESTS: LazyCounter = LazyCounter::new("msp_transfer_requests_total");

/// Maximum segment size in bytes.
pub const MSS: u32 = 1448;

/// Initial congestion window in packets (IW10 per RFC 6928).
pub const INITIAL_CWND_PKTS: f64 = 10.0;

/// Initial slow-start threshold in packets (effectively unbounded).
pub const INITIAL_SSTHRESH_PKTS: f64 = f64::INFINITY;

/// Window a connection restarts with after idle (RFC 2861), in packets.
pub const RESTART_CWND_PKTS: f64 = 10.0;

/// A transfer aborts once the link has been dead this long (an
/// application-level timeout on top of TCP retransmission).
pub const DEAD_LINK_TIMEOUT: SimDuration = SimDuration::from_secs(4);

/// The TCP model's settings that vary between paths and tests; the rest of
/// a Linux 3.5-era stack is the constants above.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Bottleneck queue capacity as a multiple of the instantaneous BDP.
    pub queue_bdp_factor: f64,
    /// Restart threshold: idle longer than this triggers slow-start restart
    /// (RFC 2861). `None` disables restart.
    pub idle_restart: Option<SimDuration>,
    /// Receiver window cap in bytes (e.g. default 3 MB auto-tuning ceiling).
    pub rwnd_bytes: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            queue_bdp_factor: 1.0,
            idle_restart: Some(SimDuration::from_millis(1_000)),
            rwnd_bytes: 3 * 1024 * 1024,
        }
    }
}

/// Why a transfer ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransferOutcome {
    /// All requested bytes delivered.
    Complete,
    /// The link stayed dead past [`DEAD_LINK_TIMEOUT`].
    TimedOut,
}

/// Engine telemetry of one transfer. Every field reads 0: the stable
/// windows and the closed-form solver they counted are gone. The fields
/// stay because `benchmark/src/entry.rs` reads them and `benchmark/` is
/// frozen; they go with its thaw.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Always 0.
    pub epochs: u32,
    /// Always 0.
    pub fast_rounds: u32,
    /// Always 0.
    pub solved_rounds: u32,
}

/// The result of simulating one request/response transfer.
#[derive(Clone, Debug)]
pub struct TransferResult {
    /// When the request was issued.
    pub requested_at: SimTime,
    /// When the first response byte arrived.
    pub first_byte_at: SimTime,
    /// When the last byte arrived (or the abort time on timeout).
    pub completed_at: SimTime,
    /// Bytes actually delivered.
    pub delivered: ByteSize,
    /// Number of TCP rounds the transfer took.
    pub rounds: u32,
    /// Congestion events experienced.
    pub losses: u32,
    /// How it ended.
    pub outcome: TransferOutcome,
    /// All zeros; see [`TransferStats`].
    pub stats: TransferStats,
}

impl TransferResult {
    /// Transfer duration as seen by the application: request to last byte.
    pub fn duration(&self) -> SimDuration {
        self.completed_at.saturating_since(self.requested_at)
    }

    /// Application-level goodput over the whole request.
    pub fn goodput(&self) -> BitRate {
        BitRate::from_transfer(self.delivered, self.duration())
    }
}

/// Connection state that persists across requests on a keep-alive
/// connection: the congestion window survives between chunks, subject to
/// slow-start restart after idleness.
pub struct TcpConnection {
    cfg: TcpConfig,
    cubic: Cubic,
    cwnd_pkts: f64,
    ssthresh_pkts: f64,
    /// Set once the 3WHS is done.
    established_at: Option<SimTime>,
    /// Completion time of the most recent activity.
    last_activity: SimTime,
    /// Total bytes delivered on this connection (for server pacing models).
    total_delivered: u64,
    /// Optional server-side pacing: (burst bytes sent unpaced, pace rate).
    pace: Option<(u64, BitRate)>,
}

impl TcpConnection {
    /// Creates an unconnected connection with the given config.
    pub fn new(cfg: TcpConfig) -> Self {
        TcpConnection {
            cfg,
            cubic: Cubic::default(),
            cwnd_pkts: INITIAL_CWND_PKTS,
            ssthresh_pkts: INITIAL_SSTHRESH_PKTS,
            established_at: None,
            last_activity: SimTime::ZERO,
            total_delivered: 0,
            pace: None,
        }
    }

    /// Applies a server-side pacing policy: the first `burst` bytes of the
    /// connection are sent at link speed, the remainder paced at `rate`.
    /// Models YouTube's Trickle-style rate limiting (cited as \[12\] in the
    /// paper).
    pub fn with_server_pacing(mut self, burst: ByteSize, rate: BitRate) -> Self {
        self.pace = Some((burst.as_u64(), rate));
        self
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> f64 {
        self.cwnd_pkts * f64::from(MSS)
    }

    /// Performs the TCP three-way handshake starting at `now`. The
    /// connection can carry a request after one RTT. Returns the instant at
    /// which the first request may be sent.
    pub fn connect(&mut self, link: &mut Link, now: SimTime) -> SimTime {
        let rtt = link.rtt_at(now);
        let done = now + rtt;
        self.established_at = Some(done);
        self.last_activity = done;
        done
    }

    /// Simulates a request for `size` bytes issued at `now` (which must be
    /// at or after the handshake completion). Returns the transfer record.
    ///
    /// The request consumes one upstream half-RTT; the first data packet
    /// arrives a full RTT after the request. Subsequent rounds deliver
    /// `min(cwnd, avail·RTT, rwnd, pace·RTT)` bytes each.
    ///
    /// The rounds themselves run in [`rounds`].
    pub fn request(&mut self, link: &mut Link, now: SimTime, size: ByteSize) -> TransferResult {
        assert!(self.established_at.is_some(), "request() before connect()");
        debug_assert!(size.as_u64() > 0, "zero-byte request");

        // Phase: slow-start restart after idle (RFC 2861), before any
        // round runs.
        self.idle_restart_phase(now);

        REQUESTS.add(1);
        rounds::run(self, link, now, size)
    }

    /// Resets the window if the connection idled past the restart
    /// threshold (RFC 2861).
    fn idle_restart_phase(&mut self, now: SimTime) {
        if let Some(idle_limit) = self.cfg.idle_restart {
            let idle = now.saturating_since(self.last_activity);
            if idle > idle_limit {
                self.cwnd_pkts = RESTART_CWND_PKTS;
                self.ssthresh_pkts = INITIAL_SSTHRESH_PKTS;
                self.cubic = Cubic::default();
            }
        }
    }

    /// A bit-exact snapshot of the warm-connection state that persists
    /// across keep-alive requests. The replay tests compare these to show
    /// that a chunk leaves the connection in exactly the same state every
    /// time it is served.
    pub fn snapshot(&self) -> ConnSnapshot {
        ConnSnapshot {
            cwnd_pkts: self.cwnd_pkts,
            ssthresh_pkts: self.ssthresh_pkts,
            total_delivered: self.total_delivered,
            last_activity: self.last_activity,
            cubic: self.cubic.clone(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        requested_at: SimTime,
        first_byte_at: SimTime,
        completed_at: SimTime,
        delivered: f64,
        rounds: u32,
        losses: u32,
        outcome: TransferOutcome,
    ) -> TransferResult {
        self.last_activity = completed_at;
        TransferResult {
            requested_at,
            first_byte_at,
            completed_at,
            delivered: ByteSize::bytes(delivered.max(0.0) as u64),
            rounds,
            losses,
            outcome,
            stats: TransferStats::default(),
        }
    }

    /// Link rate, additionally capped by server pacing once past the burst.
    fn effective_rate(&self, link: &mut Link, t: SimTime) -> BitRate {
        let link_rate = link.rate_at(t);
        match self.pace {
            Some((burst, pace_rate)) if self.total_delivered >= burst => {
                BitRate::bps(link_rate.as_bps().min(pace_rate.as_bps()))
            }
            _ => link_rate,
        }
    }
}

/// Warm-connection state observable across keep-alive requests — see
/// [`TcpConnection::snapshot`]. `PartialEq` is bit-exact (`f64` fields
/// compare by value, the CUBIC state field-by-field).
#[derive(Clone, Debug, PartialEq)]
pub struct ConnSnapshot {
    /// Congestion window, packets.
    pub cwnd_pkts: f64,
    /// Slow-start threshold, packets.
    pub ssthresh_pkts: f64,
    /// Lifetime bytes delivered (drives server pacing).
    pub total_delivered: u64,
    /// Completion time of the most recent activity (drives idle restart).
    pub last_activity: SimTime,
    /// Full CUBIC controller state.
    pub cubic: Cubic,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::PathProfile;
    use msim_core::rng::Prng;

    /// A constant-rate link with the given RTT jitter and per-round loss.
    fn stable_link(mbps: f64, rtt_ms: u64, jitter: f64, loss: f64, seed: u64) -> Link {
        PathProfile {
            rtt_jitter_frac: jitter,
            random_loss_per_round: loss,
            ..PathProfile::stable(mbps, rtt_ms)
        }
        .build(&mut Prng::new(seed))
    }

    fn quiet_link(mbps: f64, rtt_ms: u64) -> Link {
        stable_link(mbps, rtt_ms, 0.0, 0.0, 1)
    }

    fn connected(cfg: TcpConfig, link: &mut Link) -> (TcpConnection, SimTime) {
        let mut conn = TcpConnection::new(cfg);
        let ready = conn.connect(link, SimTime::ZERO);
        (conn, ready)
    }

    #[test]
    fn constants_match_a_linux_3_5_stack() {
        assert_eq!(MSS, 1448);
        assert_eq!(INITIAL_CWND_PKTS, 10.0, "IW10, RFC 6928");
        assert_eq!(INITIAL_SSTHRESH_PKTS, f64::INFINITY);
        assert_eq!(RESTART_CWND_PKTS, 10.0);
        assert_eq!(DEAD_LINK_TIMEOUT, SimDuration::from_secs(4));
    }

    #[test]
    fn handshake_costs_one_rtt() {
        let mut link = quiet_link(10.0, 50);
        let (_conn, ready) = connected(TcpConfig::default(), &mut link);
        assert_eq!(ready, SimTime::from_millis(50));
    }

    #[test]
    fn small_transfer_is_request_rtt_plus_drain() {
        let mut link = quiet_link(8.0, 50);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        // 10 KB fits in the initial window (10 * 1448 = 14 480 B).
        let res = conn.request(&mut link, ready, ByteSize::kb(10));
        assert_eq!(res.outcome, TransferOutcome::Complete);
        assert_eq!(res.delivered, ByteSize::kb(10));
        // 1 RTT for the request + partial round: strictly more than 1 RTT,
        // at most 2 RTT.
        let dur = res.duration().as_secs_f64();
        assert!((0.05..0.10).contains(&dur), "duration {dur}");
    }

    #[test]
    fn slow_start_doubles_per_round() {
        let mut link = quiet_link(1000.0, 100); // fat link so BDP is never binding
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        // 1 MB at IW10: rounds deliver ~10, 20, 40, 80, ... packets.
        let res = conn.request(&mut link, ready, ByteSize::mb(1));
        assert_eq!(res.outcome, TransferOutcome::Complete);
        // 1 MB = 724 packets → IW10 doubling: 10+20+40+80+160+320 = 630 in 6
        // rounds, finishing inside round 7. Request RTT adds 1.
        assert!((6..=8).contains(&res.rounds), "rounds {}", res.rounds);
    }

    #[test]
    fn throughput_approaches_link_rate_for_large_transfers() {
        let mut link = quiet_link(10.0, 30);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        let res = conn.request(&mut link, ready, ByteSize::mb(8));
        let goodput = res.goodput().as_mbps();
        assert!(
            (7.0..=10.0).contains(&goodput),
            "goodput {goodput} Mbit/s on a 10 Mbit/s link"
        );
    }

    #[test]
    fn persistent_connection_keeps_cwnd_across_requests() {
        let mut link = quiet_link(50.0, 40);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        let first = conn.request(&mut link, ready, ByteSize::mb(1));
        let warm_cwnd = conn.cwnd_bytes();
        // Second request right away: no idle restart, warm window.
        let second = conn.request(&mut link, first.completed_at, ByteSize::mb(1));
        assert!(second.duration() < first.duration(), "warm transfer faster");
        // The warm window may take congestion cuts, but stays well above IW10.
        assert!(conn.cwnd_bytes() >= warm_cwnd * 0.3);
        assert!(conn.cwnd_bytes() > 10.0 * 1448.0 * 2.0);
    }

    #[test]
    fn idle_restart_resets_window() {
        let mut link = quiet_link(50.0, 40);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        let first = conn.request(&mut link, ready, ByteSize::mb(1));
        let warm = conn.cwnd_bytes();
        assert!(warm > 10.0 * 1448.0);
        // Wait 5 s (ON/OFF gap) then request again: window restarts.
        let later = first.completed_at + SimDuration::from_secs(5);
        let second = conn.request(&mut link, later, ByteSize::mb(1));
        assert!(
            second.rounds >= first.rounds.saturating_sub(1),
            "cold again"
        );
    }

    #[test]
    fn random_loss_slows_transfers() {
        let mk = |loss: f64, seed: u64| {
            let mut link = stable_link(20.0, 40, 0.0, loss, seed);
            let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
            conn.request(&mut link, ready, ByteSize::mb(4)).duration()
        };
        let clean: f64 = (0..5).map(|s| mk(0.0, s).as_secs_f64()).sum();
        let lossy: f64 = (0..5).map(|s| mk(0.10, s).as_secs_f64()).sum();
        assert!(lossy > clean, "lossy {lossy} vs clean {clean}");
    }

    #[test]
    fn server_pacing_caps_goodput_after_burst() {
        let mut link = quiet_link(50.0, 30);
        let mut conn = TcpConnection::new(TcpConfig::default())
            .with_server_pacing(ByteSize::kb(256), BitRate::mbps(2.0));
        let ready = conn.connect(&mut link, SimTime::ZERO);
        let res = conn.request(&mut link, ready, ByteSize::mb(4));
        let goodput = res.goodput().as_mbps();
        assert!(goodput < 3.0, "paced goodput {goodput}");
    }

    #[test]
    fn outage_times_out_transfer() {
        use crate::mobility::OutageSchedule;
        let sched =
            OutageSchedule::from_windows(vec![(SimTime::from_millis(100), SimTime::from_secs(60))]);
        let mut link = quiet_link(10.0, 50).with_outages(sched);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        let res = conn.request(&mut link, ready, ByteSize::mb(8));
        assert_eq!(res.outcome, TransferOutcome::TimedOut);
        assert!(res.delivered < ByteSize::mb(8));
        // Abort happens within timeout + a couple of rounds.
        assert!(res.completed_at < SimTime::from_secs(10));
    }

    #[test]
    fn short_outage_recovers_and_completes() {
        use crate::mobility::OutageSchedule;
        let sched = OutageSchedule::from_windows(vec![(
            SimTime::from_millis(200),
            SimTime::from_millis(700),
        )]);
        let mut link = quiet_link(10.0, 50).with_outages(sched);
        let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
        let res = conn.request(&mut link, ready, ByteSize::mb(2));
        assert_eq!(res.outcome, TransferOutcome::Complete);
        assert!(res.losses >= 1, "outage registered as loss");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut link = stable_link(12.0, 35, 0.15, 0.01, 99);
            let (mut conn, ready) = connected(TcpConfig::default(), &mut link);
            conn.request(&mut link, ready, ByteSize::mb(3)).completed_at
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "before connect")]
    fn request_requires_connect() {
        let mut link = quiet_link(10.0, 50);
        let mut conn = TcpConnection::new(TcpConfig::default());
        conn.request(&mut link, SimTime::ZERO, ByteSize::kb(1));
    }
}
