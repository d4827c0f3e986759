//! The per-RTT round loop: the one body every transfer runs.
//!
//! The model in its plainest form, one loop iteration per TCP round:
//!
//! ```text
//!  request ──► request-latency ──► ┌────────── round loop ───────────┐
//!  (idle-restart already applied)  │ sample rtt and rate from the    │
//!                                  │ link at t                       │
//!                                  │                 ▼               │
//!                                  │ one round: dead-link wait or    │
//!                                  │ abort, else delivery, the loss  │
//!                                  │ countdown, cwnd update          │
//!                                  └─────────────────────────────────┘
//! ```
//!
//! There is one feed. A link without jitter or loss needs no separate
//! path: its RTT is a field read, its loss a countdown that never runs
//! out, and its rate the current cell of a process that lives on the time
//! axis. The link calls of a round are `rtt_at`, `rate_at`, and
//! `random_loss` only once the dead-link check has passed; their order is
//! part of the sampling stream (`STREAM_EPOCH`).

use super::{TcpConnection, TransferOutcome, TransferResult, DEAD_LINK_TIMEOUT, MSS};
use crate::link::Link;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;

/// Runs one request. The idle-restart phase has already been applied by
/// [`TcpConnection::request`].
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
}

impl Xfer<'_> {
    fn run(&mut self) -> TransferResult {
        // Phase: request latency — the request packet travels one RTT
        // before data flows (may consume jitter randomness).
        let req_rtt = self.link.rtt_at(self.t);
        self.t += req_rtt;
        self.first_byte_at = self.t;

        while self.remaining > 0.0 {
            if let Some(aborted) = self.round() {
                return aborted;
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
        )
    }

    /// One TCP round. `Some` is a transfer aborted on a dead link.
    #[inline]
    fn round(&mut self) -> Option<TransferResult> {
        self.rounds += 1;
        let rtt = self.link.rtt_at(self.t);
        let rate = self.conn.effective_rate(self.link, self.t);
        if rate.as_bps() <= 0.0 {
            return self.dead_link_phase();
        }
        self.dead_for = SimDuration::ZERO;

        let mss = f64::from(MSS);
        let bdp_bytes = rate.bytes_per_sec() * rtt.as_secs_f64();
        let queue_bytes = bdp_bytes * self.conn.cfg.queue_bdp_factor;
        let cwnd_bytes = self.conn.cwnd_pkts * mss;

        // Bytes the sender puts on the wire this round.
        let offered = cwnd_bytes
            .min(self.conn.cfg.rwnd_bytes as f64)
            .min(self.remaining.max(mss));
        // Bytes that fit through the bottleneck in one RTT.
        let deliverable = bdp_bytes.max(mss);
        let sent = offered.min(self.remaining);
        let delivered = sent.min(deliverable);

        // Congestion: window exceeded path capacity + queue.
        let overflow = offered > bdp_bytes + queue_bytes;
        let random_loss = self.link.random_loss();

        // Time for this round: a full RTT, or on the last round the
        // fraction needed to drain `remaining` at the deliverable rate.
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
            return None;
        }

        // Window evolution for the next round.
        if overflow || random_loss {
            self.losses += 1;
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
        } else if self.conn.cwnd_pkts < self.conn.ssthresh_pkts {
            // Slow start: cwnd grows by one MSS per ACKed segment.
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
        // The window never usefully exceeds what the receiver offers.
        let rwnd_pkts = self.conn.cfg.rwnd_bytes as f64 / mss;
        self.conn.cwnd_pkts = self.conn.cwnd_pkts.min(rwnd_pkts).max(2.0);
        None
    }

    /// Phase: dead link. TCP retransmits silently; the application aborts
    /// after [`DEAD_LINK_TIMEOUT`].
    fn dead_link_phase(&mut self) -> Option<TransferResult> {
        if let Some(up_at) = self.link.next_up_after(self.t) {
            let wait = up_at.saturating_since(self.t);
            self.dead_for += wait;
            if self.dead_for >= DEAD_LINK_TIMEOUT {
                let abort_at =
                    self.t + DEAD_LINK_TIMEOUT.saturating_sub(self.dead_for.saturating_sub(wait));
                return Some(self.abort(abort_at));
            }
            self.t = up_at;
            // Loss of a full window during the outage.
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
            self.losses += 1;
            return None;
        }
        // No scheduled recovery: abort at the timeout.
        let abort_at = self.t + DEAD_LINK_TIMEOUT;
        Some(self.abort(abort_at))
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
        )
    }
}
