//! The epoch-based transfer engine.
//!
//! The per-RTT model (see [`super::rounds`]) runs as **one round body**
//! fed from two sources, switched at explicit **epoch** boundaries:
//!
//! ```text
//!  request ──► request-latency ──► ┌────────── epoch loop ───────────┐
//!  (idle-restart already applied)  │ probe link.stable_window(t)     │
//!                                  │   ├─ None ──► sample rtt, rate  │
//!                                  │   │           and the loss draw │
//!                                  │   │           from the link     │
//!                                  │   └─ Some ──► until it expires: │
//!                                  │           the window's rtt, its │
//!                                  │           rate (paced), no loss │
//!                                  │           (link never touched)  │
//!                                  │                 ▼               │
//!                                  │   one round: dead-link wait or  │
//!                                  │   abort, delivery, cwnd update  │
//!                                  └─────────────────────────────────┘
//! ```
//!
//! A stable epoch ends when the link profile changes (the stability window
//! expires: Markov/burst state switch, scheduled outage) or the transfer
//! completes. A link with jitter or a loss probability consumes randomness
//! every round and never opens a window, so the engine asks
//! `Link::can_be_stable` once per request and then samples every round.
//!
//! # The bit-identity argument
//!
//! Inside a [`StableWindow`] the link guarantees that the per-round calls
//! (`rtt_at`, `rate_at`, `random_loss`) return `w.rtt`, `w.rate` and
//! `false`, consume **no randomness** and mutate nothing observable, so
//! handing the round body those constants instead of making the calls is
//! unobservable. Everything else a round does (the dead-link check, the
//! delivery arithmetic, the cwnd update, and their order) is the body both
//! arms share, and it evaluates the expressions of [`super::rounds`] in
//! that loop's order. `crates/net/tests/transfer_engines.rs` pins the
//! engine against the loop bit for bit.

use super::{TcpConnection, TransferOutcome, TransferResult, TransferStats};
use crate::link::{Link, StableWindow};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::{BitRate, ByteSize};

/// Runs one request through the epoch engine. The idle-restart phase has
/// already been applied by [`TcpConnection::request`].
pub(super) fn run(
    conn: &mut TcpConnection,
    link: &mut Link,
    now: SimTime,
    size: ByteSize,
) -> TransferResult {
    let mut x = Xfer {
        conn,
        link,
        now,
        size,
        t: now,
        remaining: size.as_u64() as f64,
        rounds: 0,
        losses: 0,
        dead_for: SimDuration::ZERO,
        first_byte_at: now,
        stats: TransferStats::default(),
    };
    x.run()
}

/// One in-flight transfer: the mutable state every round operates on.
struct Xfer<'a> {
    conn: &'a mut TcpConnection,
    link: &'a mut Link,
    now: SimTime,
    size: ByteSize,
    t: SimTime,
    remaining: f64,
    rounds: u32,
    losses: u32,
    dead_for: SimDuration,
    first_byte_at: SimTime,
    stats: TransferStats,
}

/// How one round ended.
enum Round {
    /// Bytes moved (delivery and cwnd update ran).
    Delivered,
    /// The effective rate was zero and the link came back within the
    /// timeout: the round waited the outage out.
    Waited,
    /// The effective rate was zero past `dead_link_timeout`.
    Aborted(TransferResult),
}

impl Xfer<'_> {
    fn run(&mut self) -> TransferResult {
        // Phase: request latency — the request packet travels one RTT
        // before data flows (may consume jitter randomness, identically
        // to the reference loop).
        let req_rtt = self.link.rtt_at(self.t);
        self.t += req_rtt;
        self.first_byte_at = self.t;

        // Jitter and loss probability are fixed per link: when either is
        // set no probe can ever succeed, so skip probing for the request.
        let can_be_stable = self.link.can_be_stable();
        while self.remaining > 0.0 {
            let window = if can_be_stable {
                self.link.stable_window(self.t)
            } else {
                None
            };
            match window {
                Some(w) => {
                    if let Some(res) = self.stable_epoch(w) {
                        return res;
                    }
                }
                None => {
                    // Unstable (jitter / loss probability / outage /
                    // stochastic rate): sample the link for this round.
                    let rtt = self.link.rtt_at(self.t);
                    let rate = self.conn.effective_rate(self.link, self.t);
                    if let Round::Aborted(res) = self.round(rtt, rate, Link::random_loss) {
                        return res;
                    }
                }
            }
        }

        self.conn.finish(
            self.now,
            self.first_byte_at,
            self.t,
            self.size.as_u64() as f64,
            self.rounds,
            self.losses,
            TransferOutcome::Complete,
            self.stats,
        )
    }

    /// Phase: a stable epoch. Runs rounds on the window's constants with
    /// every link interaction elided (provably a no-op inside `w`) until
    /// the window expires, the transfer completes, or it aborts (a zero
    /// pacing rate past the burst takes the round's dead-link arm, and
    /// `Some` is the aborted transfer).
    fn stable_epoch(&mut self, w: StableWindow) -> Option<TransferResult> {
        self.stats.epochs = self.stats.epochs.saturating_add(1);
        while self.remaining > 0.0 && self.t < w.until {
            let rate = self.conn.paced(w.rate);
            match self.round(w.rtt, rate, |_| false) {
                Round::Delivered => {
                    self.stats.fast_rounds = self.stats.fast_rounds.saturating_add(1);
                }
                Round::Waited => {}
                Round::Aborted(res) => return Some(res),
            }
        }
        None
    }

    /// One TCP round at the given RTT and effective rate, exactly as
    /// [`super::rounds`] executes it. `random_loss` is drawn only once the
    /// dead-link check has passed, where that loop draws it.
    #[inline]
    fn round(
        &mut self,
        rtt: SimDuration,
        rate: BitRate,
        random_loss: impl FnOnce(&mut Link) -> bool,
    ) -> Round {
        self.rounds += 1;
        if rate.as_bps() <= 0.0 {
            return self.dead_link_phase();
        }
        self.dead_for = SimDuration::ZERO;

        let mss = self.conn.cfg.mss as f64;
        let bdp_bytes = rate.bytes_per_sec() * rtt.as_secs_f64();
        let queue_bytes = bdp_bytes * self.conn.cfg.queue_bdp_factor;
        let cwnd_bytes = self.conn.cwnd_pkts * mss;

        let offered = cwnd_bytes
            .min(self.conn.cfg.rwnd_bytes as f64)
            .min(self.remaining.max(mss));
        let deliverable = bdp_bytes.max(mss);
        let sent = offered.min(self.remaining);
        let delivered = sent.min(deliverable);

        let overflow = offered > bdp_bytes + queue_bytes;
        let random_loss = random_loss(self.link);

        let round_time = if delivered >= self.remaining {
            let frac = (self.remaining / deliverable).min(1.0);
            rtt.mul_f64(frac.max(0.05))
        } else {
            rtt
        };

        self.remaining -= delivered;
        self.conn.total_delivered += delivered as u64;
        self.t += round_time;

        if self.remaining <= 0.0 {
            return Round::Delivered;
        }

        if overflow || random_loss {
            self.losses += 1;
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
        } else if self.conn.cwnd_pkts < self.conn.ssthresh_pkts {
            self.conn.cwnd_pkts += delivered / mss;
            if self.conn.cwnd_pkts >= self.conn.ssthresh_pkts {
                self.conn.cwnd_pkts = self.conn.ssthresh_pkts;
            }
        } else {
            self.conn.cwnd_pkts =
                self.conn
                    .cubic
                    .advance(rtt.as_secs_f64(), rtt.as_secs_f64(), self.conn.cwnd_pkts);
        }
        let rwnd_pkts = self.conn.cfg.rwnd_bytes as f64 / mss;
        self.conn.cwnd_pkts = self.conn.cwnd_pkts.min(rwnd_pkts).max(2.0);
        Round::Delivered
    }

    /// Phase: dead link. TCP retransmits silently; the application aborts
    /// after `dead_link_timeout`. Mirrors the reference loop's arm.
    fn dead_link_phase(&mut self) -> Round {
        if let Some(up_at) = self.link.next_up_after(self.t) {
            let wait = up_at.saturating_since(self.t);
            self.dead_for += wait;
            if self.dead_for >= self.conn.cfg.dead_link_timeout {
                let abort_at = self.t
                    + self
                        .conn
                        .cfg
                        .dead_link_timeout
                        .saturating_sub(self.dead_for.saturating_sub(wait));
                return Round::Aborted(self.abort(abort_at));
            }
            self.t = up_at;
            // Loss of a full window during the outage.
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
            self.losses += 1;
            return Round::Waited;
        }
        // No scheduled recovery: abort at the timeout.
        let abort_at = self.t + self.conn.cfg.dead_link_timeout;
        Round::Aborted(self.abort(abort_at))
    }

    fn abort(&mut self, abort_at: SimTime) -> TransferResult {
        self.conn.finish(
            self.now,
            self.first_byte_at,
            abort_at,
            self.size.as_u64() as f64 - self.remaining,
            self.rounds,
            self.losses,
            TransferOutcome::TimedOut,
            self.stats,
        )
    }
}
