//! The reference per-RTT round loop.
//!
//! The model in its plainest form: one loop iteration per TCP round, every
//! link interaction (`rtt_at`, `rate_at`, `random_loss`) performed
//! explicitly each round. It is the differential baseline for the epoch
//! engine: `crates/net/tests/transfer_engines.rs` pins the epoch engine
//! against this loop bit-for-bit — model result fields, RNG stream
//! positions, and warm-connection state — across randomized link profiles,
//! mobility handoffs, idle-restart gaps, and loss regimes.
//!
//! Select it per connection with
//! [`TransferEngine::RoundLoop`](super::TransferEngine::RoundLoop); it is
//! also the engine of choice when single-stepping a transfer under a
//! debugger.

use super::{TcpConnection, TransferOutcome, TransferResult};
use crate::link::Link;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;

/// Runs one request through the per-RTT loop. The idle-restart phase has
/// already been applied by [`TcpConnection::request`].
pub(super) fn run(
    conn: &mut TcpConnection,
    link: &mut Link,
    now: SimTime,
    size: ByteSize,
) -> TransferResult {
    let mss = conn.cfg.mss as f64;
    let mut t = now;
    let mut remaining = size.as_u64() as f64;
    let mut rounds: u32 = 0;
    let mut losses: u32 = 0;
    let mut first_byte_at: Option<SimTime> = None;
    let mut dead_for = SimDuration::ZERO;

    // The request packet travels for one RTT before data flows.
    let req_rtt = link.rtt_at(t);
    t += req_rtt;
    first_byte_at.get_or_insert(t);

    while remaining > 0.0 {
        rounds += 1;
        let rtt = link.rtt_at(t);
        let rate = conn.effective_rate(link, t);

        if rate.as_bps() <= 0.0 {
            // Link dead: TCP retransmits silently; the application aborts
            // after `dead_link_timeout`.
            if let Some(up_at) = link.next_up_after(t) {
                let wait = up_at.saturating_since(t);
                dead_for += wait;
                if dead_for >= conn.cfg.dead_link_timeout {
                    let abort_at = t + conn
                        .cfg
                        .dead_link_timeout
                        .saturating_sub(dead_for.saturating_sub(wait));
                    return conn.finish(
                        now,
                        first_byte_at.unwrap_or(abort_at),
                        abort_at,
                        size.as_u64() as f64 - remaining,
                        rounds,
                        losses,
                        TransferOutcome::TimedOut,
                    );
                }
                t = up_at;
                // Loss of a full window during the outage.
                conn.cwnd_pkts = conn.cubic.on_loss(conn.cwnd_pkts);
                conn.ssthresh_pkts = conn.cwnd_pkts;
                losses += 1;
                continue;
            }
            // No scheduled recovery: abort at the timeout.
            let abort_at = t + conn.cfg.dead_link_timeout;
            return conn.finish(
                now,
                first_byte_at.unwrap_or(abort_at),
                abort_at,
                size.as_u64() as f64 - remaining,
                rounds,
                losses,
                TransferOutcome::TimedOut,
            );
        }
        dead_for = SimDuration::ZERO;

        let bdp_bytes = rate.bytes_per_sec() * rtt.as_secs_f64();
        let queue_bytes = bdp_bytes * conn.cfg.queue_bdp_factor;
        let cwnd_bytes = conn.cwnd_pkts * mss;

        // Bytes the sender puts on the wire this round.
        let offered = cwnd_bytes
            .min(conn.cfg.rwnd_bytes as f64)
            .min(remaining.max(mss));
        // Bytes that fit through the bottleneck in one RTT.
        let deliverable = bdp_bytes.max(mss);
        let sent = offered.min(remaining);
        let delivered = sent.min(deliverable);

        // Congestion: window exceeded path capacity + queue.
        let overflow = offered > bdp_bytes + queue_bytes;
        let random_loss = link.random_loss();

        // Time for this round: a full RTT, or the fraction needed to
        // finish the remaining bytes at the deliverable rate.
        let round_time = if delivered >= remaining {
            // Last round: time to drain `remaining` at the line rate,
            // at most one RTT.
            let frac = (remaining / deliverable).min(1.0);
            rtt.mul_f64(frac.max(0.05))
        } else {
            rtt
        };

        remaining -= delivered;
        conn.total_delivered += delivered as u64;
        t += round_time;

        if remaining <= 0.0 {
            break;
        }

        // Window evolution for the next round.
        if overflow || random_loss {
            losses += 1;
            conn.cwnd_pkts = conn.cubic.on_loss(conn.cwnd_pkts);
            conn.ssthresh_pkts = conn.cwnd_pkts;
        } else if conn.cwnd_pkts < conn.ssthresh_pkts {
            // Slow start: cwnd grows by one MSS per ACKed segment.
            conn.cwnd_pkts += delivered / mss;
            if conn.cwnd_pkts >= conn.ssthresh_pkts {
                conn.cwnd_pkts = conn.ssthresh_pkts;
            }
        } else {
            conn.cwnd_pkts =
                conn.cubic
                    .advance(rtt.as_secs_f64(), rtt.as_secs_f64(), conn.cwnd_pkts);
        }
        // The window never usefully exceeds what the receiver offers.
        let rwnd_pkts = conn.cfg.rwnd_bytes as f64 / mss;
        conn.cwnd_pkts = conn.cwnd_pkts.min(rwnd_pkts).max(2.0);
    }

    conn.finish(
        now,
        first_byte_at.expect("first byte recorded"),
        t,
        size.as_u64() as f64,
        rounds,
        losses,
        TransferOutcome::Complete,
    )
}
