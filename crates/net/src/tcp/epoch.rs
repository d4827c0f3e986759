//! The epoch-based transfer engine.
//!
//! The per-RTT model (see [`super::rounds`]) is decomposed into composable
//! phases over explicit **epoch** boundaries:
//!
//! ```text
//!  request ──► request-latency ──► ┌────────── epoch loop ───────────┐
//!  (idle-restart already applied)  │ probe link.stable_window(t)     │
//!                                  │   ├─ None ──► reference round   │
//!                                  │   │           (incl. dead-link  │
//!                                  │   │            wait/abort phase)│
//!                                  │   └─ Some ──► stable phase:     │
//!                                  │        slow-start ramp (exact   │
//!                                  │        geometric solve)         │
//!                                  │        CUBIC growth (polynomial │
//!                                  │        solve, bit-exact replay) │
//!                                  │        pacing cross-over        │
//!                                  │        lean boundary rounds     │
//!                                  │        drain (final partial rtt)│
//!                                  └──────────────────────────────────┘
//! ```
//!
//! An epoch ends when the link profile changes (the stability window
//! expires: Markov/burst state switch, scheduled outage), when a loss
//! *can* fire (jitter or loss probability make rounds consume randomness —
//! then every round steps individually through the reference body), when
//! the rwnd/BDP caps change which term binds, when server pacing engages,
//! or when the transfer completes.
//!
//! # The bit-identity argument
//!
//! Inside a [`StableWindow`](crate::link::StableWindow) the link
//! guarantees that per-round calls (`rtt_at`, `rate_at`, `random_loss`)
//! return constants and consume **no randomness** — so eliding them is
//! unobservable. What remains per round is pure state arithmetic:
//!
//! * `remaining -= delivered` — replayed with the identical subtrahend
//!   (or, in the exact-integer slow-start case, provably equal one-shot
//!   arithmetic);
//! * `total_delivered += delivered as u64` — a constant per-round
//!   truncation, multiplied out;
//! * `t += rtt` — integer microseconds, multiplied out exactly;
//! * the cwnd update — slow-start additions replayed verbatim, or
//!   congestion-avoidance solved by
//!   [`Cubic::advance_closed_form`](crate::cubic::Cubic::advance_closed_form)
//!   (whose elapsed-time accumulator advances stepwise precisely so that
//!   fp addition order matches the reference loop).
//!
//! Closed-form **solves** only choose how many rounds are skipped; every
//! skipped round's branch outcome (no overflow, not the last round, same
//! slow-start/CA arm) is *guaranteed* by conservative bounds plus an end
//! verification with a relative guard much larger than the few-ulp wiggle
//! correctly-rounded fp can introduce, and anything unproven falls back to
//! lean single rounds using the same arithmetic. Differential tests pin
//! the whole construction against the reference loop.

use super::{TcpConnection, TransferOutcome, TransferResult, TransferStats};
use crate::link::{Link, StableWindow};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::{BitRate, ByteSize};

/// Minimum rounds a closed-form solve must cover to beat lean stepping.
const MIN_BULK: u64 = 4;
/// Lean rounds to run after a declined solve before attempting another —
/// a failed attempt costs real math (divisions, a cube root), so it is
/// amortized over a handful of cheap rounds. A loss resets the budget:
/// it restarts the CUBIC epoch and re-opens a long solvable stretch.
const LEAN_BUDGET: u32 = 8;
/// Relative guard for fp threshold comparisons in skip proofs — orders of
/// magnitude above the ulp-level wiggle of correctly rounded arithmetic,
/// orders of magnitude below any model-relevant margin.
const GUARD: f64 = 1e-9;
/// Sanity ceiling on one solve (keeps `n as u32` and replay loops tame).
const MAX_BULK: u64 = 1 << 30;

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

/// One in-flight transfer: the mutable state every phase operates on.
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

/// Constants of one stable epoch, hoisted out of the round arithmetic.
/// Two instances exist when server pacing may engage mid-epoch (unpaced /
/// paced variants); every value is computed with exactly the expression
/// the reference loop evaluates per round.
struct Consts {
    mss: f64,
    rtt: SimDuration,
    rtt_secs: f64,
    rwnd_f: f64,
    rwnd_pkts: f64,
    deliverable: f64,
    /// `bdp + queue`: the congestion-overflow threshold on `offered`.
    ovf: f64,
    /// Per-round delivery in the cap-limited regime:
    /// `min(rwnd, deliverable)`.
    d_cap: f64,
    /// The per-round `delivered as u64` truncation of `d_cap`.
    d_cap_u64: u64,
    /// Whether `d_cap` is an exactly representable integer (enables the
    /// one-shot delivery commit).
    d_cap_exact: bool,
    /// `fl(rwnd_pkts · mss)`: an exact upper bound on any clamped
    /// `cwnd · mss`; when it is ≤ `ovf`, overflow can never fire.
    rwnd_clamp_bytes: f64,
}

impl Consts {
    fn new(rate: BitRate, rtt: SimDuration, cfg: &super::TcpConfig) -> Consts {
        let mss = cfg.mss as f64;
        let bdp = rate.bytes_per_sec() * rtt.as_secs_f64();
        let queue = bdp * cfg.queue_bdp_factor;
        let rwnd_f = cfg.rwnd_bytes as f64;
        let rwnd_pkts = rwnd_f / mss;
        let deliverable = bdp.max(mss);
        let d_cap = rwnd_f.min(deliverable);
        Consts {
            mss,
            rtt,
            rtt_secs: rtt.as_secs_f64(),
            rwnd_f,
            rwnd_pkts,
            deliverable,
            ovf: bdp + queue,
            d_cap,
            d_cap_u64: d_cap as u64,
            d_cap_exact: exact_int(d_cap),
            rwnd_clamp_bytes: rwnd_pkts * mss,
        }
    }

    /// True when the overflow check can never trip: `offered ≤ cwnd·mss ≤
    /// fl(rwnd_pkts·mss)` holds exactly (single correctly-rounded
    /// multiplications are weakly monotone), so `rwnd_clamp_bytes ≤ ovf`
    /// proves `offered ≤ ovf` with no fp slack needed.
    fn overflow_impossible(&self) -> bool {
        self.rwnd_clamp_bytes <= self.ovf && self.rwnd_f <= self.ovf
    }
}

enum RoundOutcome {
    /// Keep transferring.
    Continue,
    /// The transfer ended inside the round (dead-link abort).
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
                    if let Some(res) = self.stable_phase(w) {
                        return res;
                    }
                }
                None => {
                    // Unstable epoch (jitter / loss probability / outage /
                    // stochastic rate): one reference round, dead-link
                    // phase included.
                    if let RoundOutcome::Aborted(res) = self.reference_round() {
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

    // ------------------------------------------------------------------
    // Unstable fallback: the reference round, verbatim.
    // ------------------------------------------------------------------

    /// One round exactly as [`super::rounds`] executes it, including the
    /// dead-link wait/abort phase. Used whenever the link cannot prove a
    /// stability window.
    fn reference_round(&mut self) -> RoundOutcome {
        self.rounds += 1;
        let rtt = self.link.rtt_at(self.t);
        let rate = self.conn.effective_rate(self.link, self.t);

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
        let random_loss = self.link.random_loss();

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
            return RoundOutcome::Continue;
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
        RoundOutcome::Continue
    }

    /// Phase: dead link. TCP retransmits silently; the application aborts
    /// after `dead_link_timeout`. Mirrors the reference loop's arm.
    fn dead_link_phase(&mut self) -> RoundOutcome {
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
                return RoundOutcome::Aborted(self.abort(abort_at));
            }
            self.t = up_at;
            // Loss of a full window during the outage.
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
            self.losses += 1;
            return RoundOutcome::Continue;
        }
        // No scheduled recovery: abort at the timeout.
        let abort_at = self.t + self.conn.cfg.dead_link_timeout;
        RoundOutcome::Aborted(self.abort(abort_at))
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

    // ------------------------------------------------------------------
    // Stable epoch: the fast path.
    // ------------------------------------------------------------------

    /// Phase: a stable epoch. Runs rounds with every link interaction
    /// elided (provably a no-op inside `w`), bulk-solving uniform
    /// stretches and stepping lean rounds at regime boundaries, until the
    /// window expires or the transfer completes. Returns `Some` when the
    /// transfer aborts inside the epoch (a zero effective pacing rate is
    /// the reference loop's dead-link arm).
    fn stable_phase(&mut self, w: StableWindow) -> Option<TransferResult> {
        self.stats.epochs = self.stats.epochs.saturating_add(1);
        let unpaced = Consts::new(w.rate, w.rtt, &self.conn.cfg);
        // Paced variant, built lazily if/when the pacing burst is crossed
        // (the rate expression matches `effective_rate` exactly).
        let mut paced: Option<Consts> = None;

        // Lean rounds left before the next solve attempt (attempts cost
        // real math; see `LEAN_BUDGET`).
        let mut lean_budget: u32 = 0;
        while self.remaining > 0.0 && self.t < w.until {
            let pace = self.conn.pace;
            let c: &Consts = match pace {
                Some((burst, pace_rate)) if self.conn.total_delivered >= burst => {
                    // A zero pacing rate zeroes the *effective* rate even
                    // though the link itself is up: that is the reference
                    // loop's dead-link arm (wait for an outage end that
                    // never comes, then abort), not a stable epoch — step
                    // reference rounds so the abort path stays
                    // bit-identical.
                    if w.rate.as_bps().min(pace_rate.as_bps()) <= 0.0 {
                        match self.reference_round() {
                            RoundOutcome::Aborted(res) => return Some(res),
                            RoundOutcome::Continue => continue,
                        }
                    }
                    if paced.is_none() {
                        let rate = BitRate::bps(w.rate.as_bps().min(pace_rate.as_bps()));
                        paced = Some(Consts::new(rate, w.rtt, &self.conn.cfg));
                    }
                    paced.as_ref().expect("just built")
                }
                _ => &unpaced,
            };

            if lean_budget == 0 {
                // How many further rounds this epoch can possibly cover
                // uniformly, before the solvers refine it.
                let cap = self.uniform_cap(c, w.until, pace);
                let cwnd_b = self.conn.cwnd_pkts * c.mss;
                let solved = if cwnd_b >= c.d_cap * (1.0 + GUARD) {
                    // Cap-limited delivery: every round moves exactly d_cap.
                    if self.conn.cwnd_pkts < self.conn.ssthresh_pkts {
                        self.solve_slow_start_capped(c, cap)
                    } else {
                        self.solve_cubic_growth(c, cap) || self.solve_ssthresh_oscillation(c, cap)
                    }
                } else if self.conn.cwnd_pkts < self.conn.ssthresh_pkts {
                    // Window-limited slow start: exact geometric doubling.
                    self.solve_slow_start_doubling(c, cap, pace)
                } else {
                    false
                };
                if solved {
                    continue;
                }
                lean_budget = LEAN_BUDGET;
            }
            let losses_before = self.losses;
            self.lean_round(c);
            lean_budget -= 1;
            if self.losses != losses_before {
                lean_budget = 0;
            }
        }
        None
    }

    /// Upper bound on uniformly skippable rounds, from the epoch-agnostic
    /// constraints: transfer length (stay strictly before the drain
    /// round), window horizon (every skipped round must start inside the
    /// stability window), and the server-pacing burst (the rate variant
    /// must not flip mid-solve).
    fn uniform_cap(&self, c: &Consts, until: SimTime, pace: Option<(u64, BitRate)>) -> u64 {
        // Length: after n rounds of d_cap, remaining must still exceed
        // d_cap (slack 2 keeps the drain round well clear of the solve).
        let n_rem = if c.d_cap > 0.0 {
            ((self.remaining / c.d_cap) as u64).saturating_sub(2)
        } else {
            0
        };
        // Horizon: round j runs at t + (j−1)·rtt, which must be < until.
        let n_win = {
            let span = until.as_micros().saturating_sub(self.t.as_micros());
            if span == 0 {
                0
            } else {
                // A zero-RTT round cannot bound the horizon.
                (span - 1)
                    .checked_div(c.rtt.as_micros())
                    .map_or(u64::MAX, |q| q + 1)
            }
        };
        // Pacing: rounds must all start on the current side of the burst.
        let n_pace = match pace {
            Some((burst, _)) if self.conn.total_delivered < burst => {
                let d = c.d_cap_u64.max(1);
                (burst - self.conn.total_delivered) / d
            }
            _ => u64::MAX,
        };
        n_rem.min(n_win).min(n_pace).min(MAX_BULK)
    }

    /// Commits `n` uniform cap-limited rounds: the delivery/time/counter
    /// side shared by the slow-start-capped and CUBIC solves. The
    /// subtraction is replayed per round (fp addition order is the
    /// contract); time and truncated byte counters multiply out exactly.
    fn commit_capped(&mut self, c: &Consts, n: u64) {
        if c.d_cap_exact && exact_int(self.remaining) {
            // All-integer case: every per-round subtraction is exact, so
            // one subtraction of the exact product is bit-identical.
            self.remaining -= (c.d_cap_u64 * n) as f64;
        } else {
            for _ in 0..n {
                self.remaining -= c.d_cap;
            }
        }
        self.conn.total_delivered += c.d_cap_u64 * n;
        self.t += c.rtt * n;
        self.rounds += n as u32;
        self.dead_for = SimDuration::ZERO;
        self.stats.fast_rounds = self.stats.fast_rounds.saturating_add(n as u32);
        self.stats.solved_rounds = self.stats.solved_rounds.saturating_add(n as u32);
    }

    /// Closed-form slow-start ramp while the BDP/rwnd cap binds: cwnd
    /// climbs linearly (`+ d_cap/mss` per round) while each round delivers
    /// `d_cap`. Solves the round count against the ssthresh and overflow
    /// ceilings, then replays the exact per-round arithmetic.
    fn solve_slow_start_capped(&mut self, c: &Consts, cap: u64) -> bool {
        let inc = c.d_cap / c.mss;
        if inc <= 0.0 {
            return false;
        }
        let mut n = cap;
        // Stay strictly in slow start: the round where the ssthresh clamp
        // fires runs lean.
        let ss_room = (self.conn.ssthresh_pkts - self.conn.cwnd_pkts) / inc;
        if ss_room.is_finite() {
            if ss_room < 1.0 {
                return false;
            }
            n = n.min((ss_room as u64).saturating_sub(2));
        }
        if !c.overflow_impossible() {
            let ovf_room = (c.ovf / c.mss * (1.0 - GUARD) - self.conn.cwnd_pkts) / inc;
            if ovf_room.is_nan() || ovf_room < 1.0 {
                return false;
            }
            n = n.min((ovf_room as u64).saturating_sub(2));
        }
        if n < MIN_BULK {
            return false;
        }
        // Exact replay of the n rounds' window arithmetic (growth is
        // monotone, so proving the end state proves every middle).
        let mut cwnd = self.conn.cwnd_pkts;
        for _ in 0..n {
            cwnd = (cwnd + inc).min(c.rwnd_pkts).max(2.0);
        }
        if cwnd >= self.conn.ssthresh_pkts {
            return false;
        }
        if !c.overflow_impossible() && cwnd * c.mss * (1.0 + GUARD) > c.ovf {
            return false;
        }
        self.conn.cwnd_pkts = cwnd;
        self.commit_capped(c, n);
        true
    }

    /// Closed-form CUBIC growth while the BDP/rwnd cap binds: each round
    /// delivers `d_cap` and the window follows the cubic polynomial —
    /// whose value never feeds delivery until it crosses the overflow
    /// threshold. Solves the crossing via
    /// [`Cubic::steps_below`](crate::cubic::Cubic::steps_below), verifies
    /// the end window with a guard, and advances the controller once.
    fn solve_cubic_growth(&mut self, c: &Consts, cap: u64) -> bool {
        let dt = c.rtt_secs;
        let e0 = self.conn.cubic.epoch_elapsed();
        let cwnd = self.conn.cwnd_pkts;
        // The skipped rounds must all take the congestion-avoidance arm:
        // right after a loss the polynomial can sit within ulps of (or
        // dip below) ssthresh, so prove the first skipped step clears it
        // with the guard (growth is monotone; middles inherit the proof).
        // Checked before the crossing solve: it is the cheap common
        // reject in the post-loss oscillation regime.
        let w1 = self.conn.cubic.projected_window(e0 + dt, dt, cwnd);
        if w1.min(c.rwnd_pkts) < self.conn.ssthresh_pkts * (1.0 + GUARD) {
            return false;
        }
        let mut n = cap;
        if !c.overflow_impossible() {
            let target = c.ovf / c.mss * (1.0 - GUARD);
            n = n.min(self.conn.cubic.steps_below(target, dt, dt, cwnd));
        }
        if n < MIN_BULK {
            return false;
        }
        // Verify the end state analytically (GUARD dwarfs the drift
        // between the analytic elapsed and the committed stepwise one),
        // halving the candidate until it proves safe.
        loop {
            let w_end = self
                .conn
                .cubic
                .projected_window(e0 + n as f64 * dt, dt, cwnd);
            let end_bytes = w_end.min(c.rwnd_pkts).max(2.0) * c.mss;
            let ovf_ok = c.overflow_impossible() || end_bytes * (1.0 + GUARD) <= c.ovf;
            let cap_ok = end_bytes >= c.d_cap * (1.0 + GUARD);
            if ovf_ok && cap_ok {
                break;
            }
            n /= 2;
            if n < MIN_BULK {
                return false;
            }
        }
        // Commit: one bit-exact stepped advance (the only non-analytic
        // evaluation), then the shared delivery side.
        let w_exact = self.conn.cubic.advance_closed_form(n, dt, dt, cwnd);
        self.conn.cwnd_pkts = w_exact.min(c.rwnd_pkts).max(2.0);
        self.commit_capped(c, n);
        true
    }

    /// Closed-form solve for the post-loss **ssthresh oscillation**: after
    /// a fast-convergence loss the CUBIC polynomial can dip below the new
    /// ssthresh, so rounds deterministically alternate — a CA round sets
    /// `cwnd = w̃(e) < ssthresh` (advancing the polynomial one step), and
    /// the next round takes the slow-start arm whose `+d/mss` increment
    /// clamps `cwnd` straight back to ssthresh (touching the polynomial
    /// not at all). `k` pairs therefore advance the polynomial exactly
    /// `k` steps, deliver `2k·d_cap`, and end with `cwnd` pinned at the
    /// bit-exact ssthresh — solvable with the same machinery as plain
    /// CUBIC growth.
    fn solve_ssthresh_oscillation(&mut self, c: &Consts, cap: u64) -> bool {
        let ss = self.conn.ssthresh_pkts;
        if !ss.is_finite() {
            return false;
        }
        let dt = c.rtt_secs;
        let e0 = self.conn.cubic.epoch_elapsed();
        let cwnd = self.conn.cwnd_pkts;
        let inc = c.d_cap / c.mss;
        // Both phases' windows stay ≤ max(cwnd, ssthresh): no overflow.
        if !c.overflow_impossible() && cwnd.max(ss) * c.mss * (1.0 + GUARD) > c.ovf {
            return false;
        }
        let w1 = self.conn.cubic.projected_window(e0 + dt, dt, cwnd);
        // The pattern requires: CA rounds dip safely below ssthresh…
        if w1 > ss * (1.0 - GUARD) {
            return false;
        }
        // …the following slow-start round clamps straight back up…
        if w1 + inc < ss * (1.0 + GUARD) {
            return false;
        }
        // …and the dipped window is still cap-limited (middles inherit
        // all three proofs by monotone growth).
        if w1 * c.mss < c.d_cap * (1.0 + GUARD) {
            return false;
        }
        // Pairs until the polynomial itself clears ssthresh.
        let mut k = (cap / 2).min(
            self.conn
                .cubic
                .steps_below(ss * (1.0 - GUARD), dt, dt, cwnd),
        );
        if k < MIN_BULK {
            return false;
        }
        // Analytic end-verify (same drift argument as the CUBIC solve).
        while self
            .conn
            .cubic
            .projected_window(e0 + k as f64 * dt, dt, cwnd)
            > ss * (1.0 - GUARD)
        {
            k /= 2;
            if k < MIN_BULK {
                return false;
            }
        }
        // Commit: the polynomial advances k bit-exact steps; the window
        // ends the pair pattern pinned at ssthresh exactly.
        let _ = self.conn.cubic.advance_closed_form(k, dt, dt, cwnd);
        self.conn.cwnd_pkts = ss;
        self.commit_capped(c, 2 * k);
        true
    }

    /// Closed-form slow-start ramp while the *window* is the binding cap:
    /// deliveries double every round (the geometric sum of §2's ramp).
    /// Engages only when every involved quantity is an exactly
    /// representable integer, which makes the one-shot arithmetic provably
    /// bit-identical to the per-round subtractions.
    fn solve_slow_start_doubling(
        &mut self,
        c: &Consts,
        cap: u64,
        pace: Option<(u64, BitRate)>,
    ) -> bool {
        let w0 = self.conn.cwnd_pkts;
        if !exact_int(w0) || !exact_int(self.remaining) || !exact_int(c.mss) {
            return false;
        }
        let burst_room = match pace {
            Some((burst, _)) if self.conn.total_delivered < burst => {
                burst - self.conn.total_delivered
            }
            Some(_) => 0, // already paced: the variant can't flip, no bound
            None => u64::MAX,
        };
        let burst_room = if burst_room == 0 {
            u64::MAX
        } else {
            burst_room
        };

        // Scan the doubling progression: round j offers w0·2^(j−1)·mss and
        // must stay window-limited, non-overflowing, non-final, and out of
        // the ssthresh/rwnd clamps. At most ~60 iterations of integer-
        // exact f64 arithmetic.
        let mut n: u64 = 0;
        let mut w = w0;
        let mut cum: u64 = 0; // delivered bytes over the skipped rounds
        while n < cap {
            let wb = w * c.mss;
            if wb > 9.0e15 || !exact_int(w) {
                break;
            }
            let rem = self.remaining - cum as f64;
            let fits = wb < c.d_cap // window-limited: below rwnd AND deliverable
                && wb <= c.ovf // no congestion overflow
                && wb < rem // strictly not the drain round
                && 2.0 * w < self.conn.ssthresh_pkts // no ssthresh clamp after growth
                && 2.0 * w <= c.rwnd_pkts // no rwnd clamp after growth
                && cum + (wb as u64) <= burst_room; // pacing variant holds
            if !fits {
                break;
            }
            cum += wb as u64;
            w *= 2.0;
            n += 1;
        }
        if n < 4 {
            return false;
        }
        // Commit: with exact integers every per-round op is exact, so the
        // geometric-sum shortcut equals the replay bit-for-bit.
        self.remaining -= cum as f64;
        self.conn.total_delivered += cum;
        self.conn.cwnd_pkts = w;
        self.t += c.rtt * n;
        self.rounds += n as u32;
        self.dead_for = SimDuration::ZERO;
        self.stats.fast_rounds = self.stats.fast_rounds.saturating_add(n as u32);
        self.stats.solved_rounds = self.stats.solved_rounds.saturating_add(n as u32);
        true
    }

    /// One round inside a stable epoch with the link interactions elided
    /// and the per-round constants hoisted — the fallback that handles
    /// every regime boundary (overflow losses, clamp crossings, the final
    /// drain round) with the reference loop's exact arithmetic.
    fn lean_round(&mut self, c: &Consts) {
        self.rounds += 1;
        self.dead_for = SimDuration::ZERO;
        self.stats.fast_rounds = self.stats.fast_rounds.saturating_add(1);

        let cwnd_bytes = self.conn.cwnd_pkts * c.mss;
        let offered = cwnd_bytes.min(c.rwnd_f).min(self.remaining.max(c.mss));
        let sent = offered.min(self.remaining);
        let delivered = sent.min(c.deliverable);
        let overflow = offered > c.ovf;

        let round_time = if delivered >= self.remaining {
            let frac = (self.remaining / c.deliverable).min(1.0);
            c.rtt.mul_f64(frac.max(0.05))
        } else {
            c.rtt
        };

        self.remaining -= delivered;
        self.conn.total_delivered += delivered as u64;
        self.t += round_time;

        if self.remaining <= 0.0 {
            return;
        }

        if overflow {
            self.losses += 1;
            self.conn.cwnd_pkts = self.conn.cubic.on_loss(self.conn.cwnd_pkts);
            self.conn.ssthresh_pkts = self.conn.cwnd_pkts;
        } else if self.conn.cwnd_pkts < self.conn.ssthresh_pkts {
            self.conn.cwnd_pkts += delivered / c.mss;
            if self.conn.cwnd_pkts >= self.conn.ssthresh_pkts {
                self.conn.cwnd_pkts = self.conn.ssthresh_pkts;
            }
        } else {
            self.conn.cwnd_pkts =
                self.conn
                    .cubic
                    .advance(c.rtt_secs, c.rtt_secs, self.conn.cwnd_pkts);
        }
        self.conn.cwnd_pkts = self.conn.cwnd_pkts.min(c.rwnd_pkts).max(2.0);
    }
}

/// True when `x` is a non-negative integer exactly representable in `f64`
/// with headroom for products against another such integer staying under
/// 2⁵³ (the exact-arithmetic precondition of the geometric solve).
fn exact_int(x: f64) -> bool {
    (0.0..=9.0e15).contains(&x) && x.fract() == 0.0
}
