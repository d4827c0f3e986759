//! Video (content) servers.
//!
//! Each network hosts its own replicas ("Each type of server is hosted in
//! two different UMass subnets for source diversity", §5). A server checks
//! the access token on every range request, can be scheduled to fail or be
//! overloaded (the robustness scenarios of §2), and may apply Trickle-style
//! pacing (the paper's \[12\]) in the YouTube-service profile.

use crate::dns::Network;
use crate::token::{AccessToken, Operations, TokenError};
use crate::video::VideoId;
use msim_core::time::SimTime;
use msim_core::units::{BitRate, ByteSize};
use msim_http::StatusCode;
use std::net::Ipv4Addr;

/// Server identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServerId(pub u32);

/// Application-layer pacing applied by the server to each connection:
/// the first `burst` bytes go at line rate, the rest at `rate`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PacePolicy {
    /// Unpaced initial burst per connection.
    pub burst: ByteSize,
    /// Steady-state pacing rate.
    pub rate: BitRate,
}

/// Scheduled unavailability windows (maintenance, crash, overload).
#[derive(Clone, Debug, Default)]
pub struct FailurePlan {
    /// Half-open `[start, end)` windows during which requests fail.
    windows: Vec<(SimTime, SimTime)>,
}

impl FailurePlan {
    /// Always healthy.
    pub fn none() -> FailurePlan {
        FailurePlan::default()
    }

    /// Fails inside each given window.
    pub fn windows(mut windows: Vec<(SimTime, SimTime)>) -> FailurePlan {
        windows.sort_by_key(|w| w.0);
        for w in &windows {
            assert!(w.0 < w.1, "bad failure window {w:?}");
        }
        FailurePlan { windows }
    }

    /// Is the server down at `t`?
    pub fn is_failed(&self, t: SimTime) -> bool {
        self.windows.iter().any(|&(s, e)| s <= t && t < e)
    }
}

/// One video content server.
#[derive(Debug)]
pub struct VideoServer {
    /// Identifier.
    pub id: ServerId,
    /// DNS name, e.g. `r1.wifi.youtube-video.example`.
    pub domain: String,
    /// Address inside its network's subnet.
    pub addr: Ipv4Addr,
    /// Which access network can reach it.
    pub network: Network,
    failure: FailurePlan,
    /// Scheduled overload windows: the server answers 503 inside them, as
    /// if its session capacity were exhausted (chaos injection).
    overload: FailurePlan,
    pace: Option<PacePolicy>,
    /// Per-run pacing override (fleet capacity share); cleared by
    /// [`VideoServer::reset_session_state`], wins over `pace` while set.
    pace_override: Option<PacePolicy>,
    /// Sessions currently assigned (for load-aware selection).
    active_sessions: u32,
    /// Sessions beyond which the server responds with 503.
    session_capacity: u32,
}

impl VideoServer {
    /// Creates a healthy, unpaced server.
    pub fn new(id: ServerId, domain: impl Into<String>, addr: Ipv4Addr, network: Network) -> Self {
        VideoServer {
            id,
            domain: domain.into(),
            addr,
            network,
            failure: FailurePlan::none(),
            overload: FailurePlan::none(),
            pace: None,
            pace_override: None,
            active_sessions: 0,
            session_capacity: 64,
        }
    }

    /// Replaces the failure plan in place.
    pub fn set_failures(&mut self, plan: FailurePlan) {
        self.failure = plan;
    }

    /// Replaces the overload plan in place: inside each window the server
    /// answers 503 regardless of its actual session count.
    pub fn set_overload(&mut self, plan: FailurePlan) {
        self.overload = plan;
    }

    /// Installs Trickle-style pacing.
    pub fn with_pacing(mut self, pace: PacePolicy) -> Self {
        self.pace = Some(pace);
        self
    }

    /// Replaces the 503 threshold in place (fleet admission under shared
    /// load).
    pub fn set_session_capacity(&mut self, cap: u32) {
        self.session_capacity = cap;
    }

    /// The current 503 threshold.
    pub fn session_capacity(&self) -> u32 {
        self.session_capacity
    }

    /// Installs (or clears) a per-run pacing override: the fleet's way of
    /// charging a session its capacity share. Cleared by
    /// [`VideoServer::reset_session_state`].
    pub fn set_pace_override(&mut self, pace: Option<PacePolicy>) {
        self.pace_override = pace;
    }

    /// The pacing policy in force: the fleet override when set, the
    /// configured Trickle policy otherwise.
    pub fn pace(&self) -> Option<PacePolicy> {
        self.pace_override.or(self.pace)
    }

    /// Current session count.
    pub fn load(&self) -> u32 {
        self.active_sessions
    }

    /// Force the session count (fleet-injected shared load).
    pub fn set_load(&mut self, n: u32) {
        self.active_sessions = n;
    }

    /// Registers a streaming session.
    pub fn begin_session(&mut self) {
        self.active_sessions += 1;
    }

    /// Unregisters a streaming session.
    pub fn end_session(&mut self) {
        self.active_sessions = self.active_sessions.saturating_sub(1);
    }

    /// Clears all per-session state (load and failure plan), returning the
    /// server to the state it had straight out of [`VideoServer::new`]
    /// modulo its static topology and pacing config.
    pub fn reset_session_state(&mut self) {
        self.active_sessions = 0;
        self.failure = FailurePlan::none();
        self.overload = FailurePlan::none();
        self.pace_override = None;
    }

    /// Is the server inside a failure window at `t`?
    pub fn is_failed(&self, t: SimTime) -> bool {
        self.failure.is_failed(t)
    }

    /// The time-*dependent* half of range-request admission: failure
    /// windows and overload. Checked on every request; the token /
    /// signature half is time-independent per session and can be
    /// pre-validated once into a
    /// [`StreamGrant`](crate::service::StreamGrant).
    pub fn admit_at(&self, now: SimTime) -> Result<(), StatusCode> {
        if self.failure.is_failed(now) {
            return Err(StatusCode::INTERNAL_SERVER_ERROR);
        }
        if self.active_sessions > self.session_capacity || self.overload.is_failed(now) {
            return Err(StatusCode::SERVICE_UNAVAILABLE);
        }
        Ok(())
    }

    /// Admission + authorisation check for a range request arriving at
    /// `now`. On success the request proceeds onto the TCP model; on error
    /// the mapped HTTP status is returned.
    pub fn check_range_request(
        &self,
        secret: u64,
        now: SimTime,
        video_id: VideoId,
        client_ip: &str,
        token_wire: &str,
    ) -> Result<(), StatusCode> {
        self.admit_at(now)?;
        let token = AccessToken::from_wire(token_wire).map_err(|_| StatusCode::FORBIDDEN)?;
        match token.validate(secret, now, video_id, client_ip, Operations::STREAM) {
            Ok(()) => Ok(()),
            Err(TokenError::Expired { .. }) => Err(StatusCode::FORBIDDEN),
            Err(_) => Err(StatusCode::FORBIDDEN),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::AccessToken;

    const SECRET: u64 = 42;

    fn vid() -> VideoId {
        VideoId::new("qjT4T2gU9sM").unwrap()
    }

    fn server() -> VideoServer {
        VideoServer::new(
            ServerId(1),
            "r1.wifi.youtube-video.example",
            Ipv4Addr::new(128, 119, 40, 1),
            Network::Wifi,
        )
    }

    fn token_at(t: SimTime) -> String {
        AccessToken::issue(SECRET, vid(), "203.0.113.7", Operations::ALL, t).to_wire()
    }

    #[test]
    fn healthy_server_accepts_valid_request() {
        let s = server();
        let tok = token_at(SimTime::ZERO);
        assert_eq!(
            s.check_range_request(SECRET, SimTime::from_secs(5), vid(), "203.0.113.7", &tok),
            Ok(())
        );
    }

    #[test]
    fn failure_window_returns_500() {
        let mut s = server();
        s.set_failures(FailurePlan::windows(vec![(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        )]));
        let tok = token_at(SimTime::ZERO);
        assert_eq!(
            s.check_range_request(SECRET, SimTime::from_secs(15), vid(), "203.0.113.7", &tok),
            Err(StatusCode::INTERNAL_SERVER_ERROR)
        );
        assert!(s.is_failed(SimTime::from_secs(15)));
        assert_eq!(
            s.check_range_request(SECRET, SimTime::from_secs(25), vid(), "203.0.113.7", &tok),
            Ok(()),
            "recovers after the window"
        );
    }

    #[test]
    fn expired_token_is_403() {
        let s = server();
        let tok = token_at(SimTime::ZERO);
        assert_eq!(
            s.check_range_request(
                SECRET,
                SimTime::from_secs(3601) + msim_core::time::SimDuration::from_micros(1),
                vid(),
                "203.0.113.7",
                &tok
            ),
            Err(StatusCode::FORBIDDEN)
        );
    }

    #[test]
    fn garbage_token_is_403() {
        let s = server();
        assert_eq!(
            s.check_range_request(SECRET, SimTime::ZERO, vid(), "203.0.113.7", "junk"),
            Err(StatusCode::FORBIDDEN)
        );
    }

    #[test]
    fn overload_returns_503() {
        let mut s = server();
        s.set_session_capacity(1);
        s.begin_session();
        s.begin_session();
        let tok = token_at(SimTime::ZERO);
        assert_eq!(
            s.check_range_request(SECRET, SimTime::ZERO, vid(), "203.0.113.7", &tok),
            Err(StatusCode::SERVICE_UNAVAILABLE)
        );
        s.end_session();
        assert_eq!(
            s.check_range_request(SECRET, SimTime::ZERO, vid(), "203.0.113.7", &tok),
            Ok(())
        );
    }

    #[test]
    fn session_accounting_saturates() {
        let mut s = server();
        s.end_session();
        assert_eq!(s.load(), 0);
        s.begin_session();
        assert_eq!(s.load(), 1);
    }

    #[test]
    fn pace_override_wins_and_resets() {
        let mut s = server().with_pacing(PacePolicy {
            burst: ByteSize::kb(512),
            rate: BitRate::mbps(8.0),
        });
        let share = PacePolicy {
            burst: ByteSize::kb(64),
            rate: BitRate::mbps(2.0),
        };
        s.set_pace_override(Some(share));
        assert_eq!(s.pace(), Some(share));
        s.reset_session_state();
        assert_eq!(
            s.pace().unwrap().rate.as_mbps(),
            8.0,
            "configured policy back"
        );
    }

    #[test]
    #[should_panic(expected = "bad failure window")]
    fn inverted_failure_window_rejected() {
        FailurePlan::windows(vec![(SimTime::from_secs(5), SimTime::from_secs(5))]);
    }
}
