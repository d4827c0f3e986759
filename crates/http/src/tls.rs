//! TLS handshake timing model — the paper's Fig. 1.
//!
//! MSPlayer bootstraps each path with an HTTPS connection to a YouTube web
//! proxy server. Fig. 1 decomposes that connection into phases and §3.2
//! derives three quantities that drive the chunk scheduler's head-start
//! behaviour:
//!
//! * `η(R) = 4R + Δ₁ + Δ₂` — time until the secure connection can carry the
//!   first HTTP request (3WHS + hello exchange + key exchange + finished
//!   exchange, with server-side compute delays Δ₁ and Δ₂);
//! * `ψ(R) = 6R + Δ₁ + Δ₂` — time until the complete JSON video information
//!   has arrived (the JSON fits in two round trips, "slightly less than 20
//!   packets");
//! * `π(R) ≈ ψ(R) + η(R)` — time until the first *video* packet arrives,
//!   assuming the video server is close to the proxy and verifies keys at a
//!   similar speed (the video-server connection costs another η plus one
//!   request round trip, folded into the approximation).
//!
//! The fast path therefore starts streaming `π₂ − π₁ ≈ 10(θ−1)R₁` before the
//! slow one, where `θ = R₂/R₁ ≥ 1` — this is the WiFi head start measured in
//! Table 1.

use msim_core::time::{SimDuration, SimTime};

/// Fig. 1 phases of the HTTPS exchange with a web proxy server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// TCP SYN sent.
    SynSent,
    /// 3WHS complete; ClientHello sent (`t₁`).
    ClientHello,
    /// ServerHello + Certificate + ServerHelloDone/ServerKeyExchange
    /// received (server spent Δ₁ verifying).
    ServerHello,
    /// ClientKeyExchange sent (`t₂`).
    ClientKeyExchange,
    /// NewSessionTicket received (server spent Δ₂ on the exchange).
    NewSessionTicket,
    /// Finished exchange done; secure channel ready; HTTP request sent
    /// (`t₃`, at offset η).
    HttpRequestSent,
    /// First JSON packet arrives (`t₄`).
    FirstJsonPacket,
    /// JSON complete (`t₅`, at offset ψ).
    JsonComplete,
    /// TCP FIN (`t₆`).
    Fin,
}

/// Δ₁ — server certificate/key-verification time: a few milliseconds of
/// server-side crypto, typical of 2014 hardware.
pub const DELTA1: SimDuration = SimDuration::from_millis(4);

/// Δ₂ — server key-exchange completion time.
pub const DELTA2: SimDuration = SimDuration::from_millis(3);

/// η(R): offset from SYN until the first HTTP request can be sent.
pub fn eta(rtt: SimDuration) -> SimDuration {
    rtt * 4 + DELTA1 + DELTA2
}

/// ψ(R): offset from SYN until the complete JSON video info is received.
pub fn psi(rtt: SimDuration) -> SimDuration {
    rtt * 6 + DELTA1 + DELTA2
}

/// π(R) ≈ ψ(R) + η(R): offset from SYN until the first video packet
/// arrives from the associated video server.
pub fn pi(rtt: SimDuration) -> SimDuration {
    psi(rtt) + eta(rtt)
}

/// The fast path's head start `π(R₂) − π(R₁) = 10(θ−1)R₁` for
/// `R₂ = θ·R₁` (Δ terms cancel).
pub fn head_start(r1: SimDuration, r2: SimDuration) -> SimDuration {
    pi(r2.max(r1)).saturating_sub(pi(r1.min(r2)))
}

/// The full Fig. 1 event timeline for a connection whose SYN leaves at
/// `start` over a path with round-trip time `rtt`.
pub fn timeline(start: SimTime, rtt: SimDuration) -> Vec<(SimTime, Phase)> {
    let t1 = start + rtt; // 3WHS done, ClientHello out
    let server_hello = t1 + rtt + DELTA1;
    let client_kx = server_hello; // sent immediately
    let ticket = client_kx + rtt + DELTA2;
    let request = start + eta(rtt); // after Finished exchange
    let first_json = request + rtt;
    let json_done = start + psi(rtt);
    let fin = json_done + rtt;
    vec![
        (start, Phase::SynSent),
        (t1, Phase::ClientHello),
        (server_hello, Phase::ServerHello),
        (client_kx, Phase::ClientKeyExchange),
        (ticket, Phase::NewSessionTicket),
        (request, Phase::HttpRequestSent),
        (first_json, Phase::FirstJsonPacket),
        (json_done, Phase::JsonComplete),
        (fin, Phase::Fin),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_match_the_model() {
        assert_eq!(DELTA1, SimDuration::from_millis(4));
        assert_eq!(DELTA2, SimDuration::from_millis(3));
    }

    #[test]
    fn eta_psi_pi_formulas() {
        let r = SimDuration::from_millis(30);
        assert_eq!(eta(r), SimDuration::from_millis(4 * 30 + 7));
        assert_eq!(psi(r), SimDuration::from_millis(6 * 30 + 7));
        assert_eq!(pi(r), SimDuration::from_millis(10 * 30 + 14));
    }

    #[test]
    fn head_start_is_ten_theta_minus_one_r1() {
        let r1 = SimDuration::from_millis(25);
        for theta10 in [10u64, 15, 20, 25, 30] {
            let r2 = SimDuration::from_micros(r1.as_micros() * theta10 / 10);
            let expected = SimDuration::from_micros(r1.as_micros() * (theta10 - 10));
            assert_eq!(
                head_start(r1, r2),
                expected,
                "theta = {}",
                theta10 as f64 / 10.0
            );
        }
    }

    #[test]
    fn head_start_is_symmetric_in_argument_order() {
        let a = SimDuration::from_millis(25);
        let b = SimDuration::from_millis(70);
        assert_eq!(head_start(a, b), head_start(b, a));
        assert_eq!(head_start(a, a), SimDuration::ZERO);
    }

    #[test]
    fn timeline_is_ordered_and_consistent() {
        let r = SimDuration::from_millis(40);
        let start = SimTime::from_secs(1);
        let tl = timeline(start, r);
        assert_eq!(tl.len(), 9);
        for pair in tl.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "timeline out of order: {pair:?}");
        }
        // The request leaves at start + η.
        let req = tl
            .iter()
            .find(|(_, p)| *p == Phase::HttpRequestSent)
            .unwrap();
        assert_eq!(req.0, start + eta(r));
        // JSON completes at start + ψ.
        let json = tl.iter().find(|(_, p)| *p == Phase::JsonComplete).unwrap();
        assert_eq!(json.0, start + psi(r));
        // First JSON packet exactly one RTT after the request.
        let first = tl
            .iter()
            .find(|(_, p)| *p == Phase::FirstJsonPacket)
            .unwrap();
        assert_eq!(first.0, req.0 + r);
    }

    #[test]
    fn wifi_lte_head_start_magnitude() {
        // With the paper's testbed numbers (R1 = 25 ms, θ ≈ 2.6), the head
        // start is ≈ 10 · 1.6 · 25 ms = 400 ms.
        let hs = head_start(SimDuration::from_millis(25), SimDuration::from_millis(65));
        assert_eq!(hs, SimDuration::from_millis(400));
    }
}
