//! The assembled emulated YouTube service.
//!
//! Wires together the catalog, per-network DNS views, web proxies, video
//! servers, token minting, and the signature cipher into one façade the
//! player drivers talk to. The topology mirrors §5: one web proxy and `k`
//! video-server replicas per network ("Each type of server is hosted in two
//! different UMass subnets for source diversity").

use crate::catalog::Catalog;
use crate::dns::{DnsZone, Network};
use crate::proxy::build_video_info;
use crate::server::{FailurePlan, PacePolicy, ServerId, VideoServer};
use crate::sig::{generate_signature, DecoderScript, SignatureCipher};
use crate::token::{AccessToken, Operations};
use crate::video::VideoId;
use msim_core::rng::Prng;
use msim_core::telemetry::LazyCounter;
use msim_core::time::SimTime;
use msim_http::StatusCode;
use msim_json::Value;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

static GRANTS_ISSUED: LazyCounter = LazyCounter::new("msp_grants_issued_total");

/// Configuration for assembling a service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Video-server replicas per network (paper testbed: 2 subnets).
    pub servers_per_network: u32,
    /// Pacing applied by every video server (None = testbed profile;
    /// Some = YouTube-service profile with Trickle-style limiting).
    pub pacing: Option<PacePolicy>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            servers_per_network: 2,
            pacing: None,
        }
    }
}

/// The emulated service.
pub struct YoutubeService {
    catalog: Catalog,
    zone: DnsZone,
    servers: Vec<VideoServer>,
    secret: u64,
    cipher: SignatureCipher,
    /// Per-video true signatures, minted on first use.
    signatures: BTreeMap<String, String>,
    rng: Prng,
}

fn subnet_base(network: Network) -> [u8; 2] {
    match network {
        Network::Wifi => [128, 119], // UMass-style subnet
        Network::Cellular => [172, 16],
        Network::Ethernet => [192, 88], // wired campus attachment
    }
}

/// The well-known front-end name.
pub const PROXY_DOMAIN: &str = "www.youtube.com";

impl YoutubeService {
    /// Assembles a service with the given catalog and config, seeded
    /// deterministically.
    pub fn new(seed: u64, catalog: Catalog, config: ServiceConfig) -> YoutubeService {
        let mut rng = Prng::new(seed ^ 0x5eed_5eed_0000_0001);
        let cipher = SignatureCipher::generate(&mut rng.fork(), 5);
        let mut zone = DnsZone::new();
        let mut servers = Vec::new();
        let mut next_id = 0u32;
        for network in Network::ALL {
            let [a, b] = subnet_base(network);
            let proxy_addr = Ipv4Addr::new(a, b, 1, 10);
            zone.add(network, PROXY_DOMAIN, proxy_addr);
            for replica in 0..config.servers_per_network {
                next_id += 1;
                let domain = format!("r{}.{}.youtube-video.example", replica + 1, network.name());
                let addr = Ipv4Addr::new(a, b, 40, (replica + 1) as u8);
                zone.add(network, &domain, addr);
                let mut server = VideoServer::new(ServerId(next_id), domain, addr, network);
                if let Some(pace) = config.pacing {
                    server = server.with_pacing(pace);
                }
                servers.push(server);
            }
        }
        YoutubeService {
            catalog,
            zone,
            servers,
            secret: Prng::new(seed ^ 0x70ce_77e5).next_u64(),
            cipher,
            signatures: BTreeMap::new(),
            rng,
        }
    }

    /// The DNS zone (hand to per-interface resolvers).
    pub fn zone(&self) -> &DnsZone {
        &self.zone
    }

    /// The catalog being served.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All video servers reachable from `network`, preference-ordered
    /// (least-loaded first, then by id — the load-aware selection of the
    /// paper's \[3\]).
    pub fn servers_in(&self, network: Network) -> Vec<&VideoServer> {
        let mut list: Vec<&VideoServer> = self
            .servers
            .iter()
            .filter(|s| s.network == network)
            .collect();
        list.sort_by_key(|s| (s.load(), s.id));
        list
    }

    /// Mutable access to a server by address (failure injection, session
    /// accounting).
    pub fn server_mut(&mut self, addr: Ipv4Addr) -> Option<&mut VideoServer> {
        self.servers.iter_mut().find(|s| s.addr == addr)
    }

    /// Server lookup by address.
    pub fn server(&self, addr: Ipv4Addr) -> Option<&VideoServer> {
        self.servers.iter().find(|s| s.addr == addr)
    }

    /// Server lookup by domain name.
    pub fn server_by_domain(&self, domain: &str) -> Option<&VideoServer> {
        self.servers.iter().find(|s| s.domain == domain)
    }

    /// Mutable access to `network`'s `replica`-th server in id order —
    /// the stable addressing a fleet uses to inject shared load without
    /// knowing the service's subnet scheme.
    pub fn replica_mut(&mut self, network: Network, replica: u32) -> Option<&mut VideoServer> {
        let mut list: Vec<&mut VideoServer> = self
            .servers
            .iter_mut()
            .filter(|s| s.network == network)
            .collect();
        list.sort_by_key(|s| s.id);
        list.into_iter().nth(replica as usize)
    }

    /// True when no server in `network` carries an active session — the
    /// precondition under which a watch request's JSON is a pure function
    /// of `(network, client_ip, now)` (load-aware server ordering cannot
    /// differ), which is what lets session hosts cache bootstrap results.
    pub fn network_is_idle(&self, network: Network) -> bool {
        self.servers
            .iter()
            .filter(|s| s.network == network)
            .all(|s| s.load() == 0)
    }

    /// Installs a multi-window failure plan on the server at `addr`
    /// (failure-storm scenarios inject several windows per server).
    pub fn fail_server_windows(&mut self, addr: Ipv4Addr, windows: Vec<(SimTime, SimTime)>) {
        if let Some(s) = self.server_mut(addr) {
            s.set_failures(FailurePlan::windows(windows));
        }
    }

    /// Installs overload windows on the server at `addr`: inside each
    /// window it answers 503 as if its session capacity were exhausted
    /// (chaos injection). Cleared by [`YoutubeService::reset_sessions`].
    pub fn overload_server_windows(&mut self, addr: Ipv4Addr, windows: Vec<(SimTime, SimTime)>) {
        if let Some(s) = self.server_mut(addr) {
            s.set_overload(FailurePlan::windows(windows));
        }
    }

    /// Returns the service to its pre-session state: every server's load
    /// and failure plan is cleared. [`SessionHost`] calls this between
    /// batched sessions so a warmed service behaves exactly like a freshly
    /// assembled one (DNS zone, cipher, and signature cache are immutable
    /// or content-only and are deliberately kept).
    ///
    /// [`SessionHost`]: ../../msplayer_core/sim/struct.SessionHost.html
    pub fn reset_sessions(&mut self) {
        for s in &mut self.servers {
            s.reset_session_state();
        }
    }

    /// Handles a watch request arriving at the `network` proxy: performs the
    /// catalog lookup, mints the token, selects servers, enciphers the
    /// signature for copyrighted videos, and returns the JSON object.
    ///
    /// Timing is *not* applied here — drivers charge
    /// [`json_ready_after`](crate::proxy::json_ready_after) on the wire.
    pub fn watch_request(
        &mut self,
        network: Network,
        video_id: VideoId,
        client_ip: &str,
        now: SimTime,
    ) -> Result<Value, StatusCode> {
        let Some(video) = self.catalog.get(video_id).cloned() else {
            return Err(StatusCode::NOT_FOUND);
        };
        let token = AccessToken::issue(self.secret, video_id, client_ip, Operations::ALL, now);
        let enciphered = if video.copyrighted {
            let sig = self
                .signatures
                .entry(video_id.as_str().to_string())
                .or_insert_with(|| generate_signature(&mut self.rng))
                .clone();
            Some(self.cipher.encipher(&sig))
        } else {
            None
        };
        let servers = self.servers_in(network);
        if servers.is_empty() {
            return Err(StatusCode::SERVICE_UNAVAILABLE);
        }
        Ok(build_video_info(
            &video,
            crate::format::ITAGS,
            &servers,
            &token,
            client_ip,
            enciphered.as_deref(),
        ))
    }

    /// The decoder script embedded in the "video web page" (fetched by the
    /// player for copyrighted videos, paper footnote 1).
    pub fn decoder_page(&self) -> DecoderScript {
        self.cipher.decoder()
    }

    /// Validates a range request for one format (`itag`) of the video
    /// hitting the server at `addr`. Checks failure windows, token, (for
    /// copyrighted videos) the deciphered signature, and that the requested
    /// itag is a profile the servers actually maintain. On success returns
    /// the server's pacing policy.
    #[allow(clippy::too_many_arguments)]
    pub fn check_range_request(
        &self,
        addr: Ipv4Addr,
        now: SimTime,
        video_id: VideoId,
        client_ip: &str,
        token_wire: &str,
        signature: Option<&str>,
        itag: u32,
    ) -> Result<Option<PacePolicy>, StatusCode> {
        let Some(server) = self.server(addr) else {
            return Err(StatusCode::NOT_FOUND);
        };
        server.check_range_request(self.secret, now, video_id, client_ip, token_wire)?;
        if let Some(video) = self.catalog.get(video_id) {
            if video.copyrighted {
                let expected = self.signatures.get(video_id.as_str());
                match (expected, signature) {
                    (Some(exp), Some(got)) if exp == got => {}
                    _ => return Err(StatusCode::FORBIDDEN),
                }
            }
        } else {
            return Err(StatusCode::NOT_FOUND);
        }
        if crate::format::by_itag(itag).is_none() {
            return Err(StatusCode::FORBIDDEN);
        }
        Ok(server.pace())
    }

    /// Pre-validates the *time-independent* half of range-request admission
    /// — token wire form, MAC, video/client/operation binding, catalog
    /// presence, and (for copyrighted videos) the deciphered signature —
    /// into a reusable [`StreamGrant`] covering every format in `itags`
    /// that the service actually maintains (the client's quality ladder:
    /// one entry for a fixed-rate session, several for a closed-loop ABR
    /// session that may switch itags mid-stream).
    ///
    /// A session performs these checks with identical inputs on every
    /// chunk; real CDNs amortize exactly this with session tickets. Only
    /// the per-request state (server failure windows, overload, token
    /// expiry, ladder membership of the requested itag) is left for request
    /// time, so [`YoutubeService::check_range_request_granted`] returns the
    /// same verdict as [`YoutubeService::check_range_request`] for every
    /// `(addr, now, itag)` — asserted by the
    /// `grant_matches_per_request_checks` test.
    pub fn grant_stream(
        &self,
        video_id: VideoId,
        client_ip: &str,
        token_wire: &str,
        signature: Option<&str>,
        itags: &[u32],
    ) -> StreamGrant {
        // Probe the token's static checks at its issue instant, which is
        // always inside the validity window: any error reported here is
        // time-independent. The token verdict and the content (catalog /
        // signature) verdict are kept separate so the per-request path can
        // interleave the expiry check between them, exactly where the full
        // path evaluates it.
        let (token_verdict, expires_at) = match AccessToken::from_wire(token_wire) {
            Err(_) => (Err(StatusCode::FORBIDDEN), SimTime::MAX),
            Ok(token) => (
                token
                    .validate(
                        self.secret,
                        token.issued_at,
                        video_id,
                        client_ip,
                        Operations::STREAM,
                    )
                    .map_err(|_| StatusCode::FORBIDDEN),
                token.expires_at(),
            ),
        };
        let content_verdict = match self.catalog.get(video_id) {
            None => Err(StatusCode::NOT_FOUND),
            Some(video) if video.copyrighted => {
                let expected = self.signatures.get(video_id.as_str());
                match (expected, signature) {
                    (Some(exp), Some(got)) if exp == got => Ok(()),
                    _ => Err(StatusCode::FORBIDDEN),
                }
            }
            Some(_) => Ok(()),
        };
        // Only profiles the format table maintains are grantable; a ladder
        // entry the service does not know simply is not granted, and range
        // requests for it are rejected at request time exactly as the full
        // path rejects unknown itags.
        let granted_itags = itags
            .iter()
            .copied()
            .filter(|&itag| crate::format::by_itag(itag).is_some())
            .collect();
        GRANTS_ISSUED.add(1);
        StreamGrant {
            token_verdict,
            expires_at,
            content_verdict,
            granted_itags,
        }
    }

    /// Per-request admission over a pre-validated [`StreamGrant`], in the
    /// full path's exact order — failure windows / overload, token checks
    /// (with expiry evaluated at `now`), catalog / signature, then the
    /// requested format — so the verdicts are bit-identical to
    /// [`YoutubeService::check_range_request`], without re-parsing or
    /// re-MAC-ing the token per chunk.
    pub fn check_range_request_granted(
        &self,
        addr: Ipv4Addr,
        now: SimTime,
        grant: &StreamGrant,
        itag: u32,
    ) -> Result<Option<PacePolicy>, StatusCode> {
        let result = self.check_granted_inner(addr, now, grant, itag);
        // One resolved-once series per verdict: this runs per range request.
        macro_rules! verdict {
            ($v:literal) => {{
                static CHECKS: LazyCounter =
                    LazyCounter::with_labels("msp_admission_checks_total", &[("verdict", $v)]);
                &CHECKS
            }};
        }
        let checks = match &result {
            Ok(_) => verdict!("ok"),
            Err(status) => match status.0 {
                403 => verdict!("403"),
                404 => verdict!("404"),
                500 => verdict!("500"),
                503 => verdict!("503"),
                _ => verdict!("other"),
            },
        };
        checks.add(1);
        result
    }

    fn check_granted_inner(
        &self,
        addr: Ipv4Addr,
        now: SimTime,
        grant: &StreamGrant,
        itag: u32,
    ) -> Result<Option<PacePolicy>, StatusCode> {
        let Some(server) = self.server(addr) else {
            return Err(StatusCode::NOT_FOUND);
        };
        server.admit_at(now)?;
        grant.token_verdict?;
        if now > grant.expires_at {
            return Err(StatusCode::FORBIDDEN);
        }
        grant.content_verdict?;
        if !grant.granted_itags.contains(&itag) {
            return Err(StatusCode::FORBIDDEN);
        }
        Ok(server.pace())
    }
}

/// A pre-validated streaming authorisation (see
/// [`YoutubeService::grant_stream`]): the outcomes of every
/// time-independent admission check, the token's expiry instant, and the
/// set of formats (itags) the grant covers — a closed-loop ABR session is
/// granted its whole quality ladder once and may then switch the streamed
/// itag mid-session without re-authorising.
#[derive(Clone, Debug)]
pub struct StreamGrant {
    /// Verdict of the token's static checks (wire form, MAC, video /
    /// client / operation binding).
    token_verdict: Result<(), StatusCode>,
    /// Requests after this instant are rejected with 403.
    expires_at: SimTime,
    /// Verdict of the content checks (catalog presence, deciphered
    /// signature), evaluated after expiry in the full path's order.
    content_verdict: Result<(), StatusCode>,
    /// Formats the grant covers; range requests for any other itag are
    /// rejected with 403.
    granted_itags: Vec<u32>,
}

impl StreamGrant {
    /// The formats this grant admits.
    pub fn granted_itags(&self) -> &[u32] {
        &self.granted_itags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::parse_video_info;
    use msim_core::time::SimDuration;

    /// Every itag the format table maintains — the widest possible grant
    /// ladder, under which the granted path must agree with the full path
    /// for any known itag.
    const ALL_ITAGS: &[u32] = &[17, 36, 18, 43, 22, 37];

    fn service() -> (YoutubeService, VideoId) {
        let (catalog, id) = Catalog::single_test_video();
        (
            YoutubeService::new(7, catalog, ServiceConfig::default()),
            id,
        )
    }

    #[test]
    fn topology_has_proxy_and_replicas_per_network() {
        let (svc, _) = service();
        for network in Network::ALL {
            let proxy_ans = svc.zone().lookup(network, PROXY_DOMAIN).unwrap();
            assert_eq!(proxy_ans.addrs.len(), 1);
            let servers = svc.servers_in(network);
            assert_eq!(servers.len(), 2, "two replicas per network");
            for s in servers {
                let ans = svc.zone().lookup(network, &s.domain).unwrap();
                assert_eq!(ans.addrs, vec![s.addr]);
            }
        }
    }

    #[test]
    fn watch_request_roundtrip_and_token_validates() {
        let (mut svc, id) = service();
        let now = SimTime::from_secs(2);
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", now)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        assert_eq!(info.video_id, id.as_str());
        assert!(!info.copyrighted);
        let server_addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        let pace = svc
            .check_range_request(server_addr, now, id, "203.0.113.7", &info.token, None, 22)
            .unwrap();
        assert!(pace.is_none(), "testbed profile is unpaced");
    }

    #[test]
    fn unknown_video_is_404() {
        let (mut svc, _) = service();
        let other = VideoId::new("dQw4w9WgXcQ").unwrap();
        assert_eq!(
            svc.watch_request(Network::Wifi, other, "203.0.113.7", SimTime::ZERO),
            Err(StatusCode::NOT_FOUND)
        );
    }

    #[test]
    fn copyrighted_video_requires_deciphered_signature() {
        let mut catalog = Catalog::new();
        let id = VideoId::new("c0pyRighted").unwrap();
        catalog.add(crate::video::Video::new(
            id,
            "Protected",
            "studio",
            SimDuration::from_secs(120),
            true,
        ));
        let mut svc = YoutubeService::new(3, catalog, ServiceConfig::default());
        let json = svc
            .watch_request(Network::Cellular, id, "198.51.100.9", SimTime::ZERO)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let enc = info.enciphered_sig.clone().expect("sig present");
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;

        // Without a signature: 403.
        assert_eq!(
            svc.check_range_request(
                addr,
                SimTime::ZERO,
                id,
                "198.51.100.9",
                &info.token,
                None,
                22
            ),
            Err(StatusCode::FORBIDDEN)
        );
        // With the enciphered signature passed as-is: still 403.
        assert_eq!(
            svc.check_range_request(
                addr,
                SimTime::ZERO,
                id,
                "198.51.100.9",
                &info.token,
                Some(&enc),
                22,
            ),
            Err(StatusCode::FORBIDDEN)
        );
        // Deciphering with the page's decoder: accepted.
        let deciphered = svc.decoder_page().decipher(&enc);
        assert_eq!(
            svc.check_range_request(
                addr,
                SimTime::ZERO,
                id,
                "198.51.100.9",
                &info.token,
                Some(&deciphered),
                22,
            ),
            Ok(None)
        );
    }

    #[test]
    fn token_from_one_network_fails_for_other_client_ip() {
        let (mut svc, id) = service();
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::ZERO)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        assert_eq!(
            svc.check_range_request(
                addr,
                SimTime::ZERO,
                id,
                "198.51.100.9",
                &info.token,
                None,
                22
            ),
            Err(StatusCode::FORBIDDEN),
            "token is bound to the requesting interface's public IP"
        );
    }

    #[test]
    fn failed_server_rejects_until_recovery() {
        let (mut svc, id) = service();
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::ZERO)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        svc.fail_server_windows(addr, vec![(SimTime::from_secs(5), SimTime::from_secs(10))]);
        assert!(svc
            .check_range_request(
                addr,
                SimTime::from_secs(7),
                id,
                "203.0.113.7",
                &info.token,
                None,
                22,
            )
            .is_err());
        assert!(svc
            .check_range_request(
                addr,
                SimTime::from_secs(12),
                id,
                "203.0.113.7",
                &info.token,
                None,
                22,
            )
            .is_ok());
        // The other replica in the same network stays healthy → failover target.
        let backup = svc
            .servers_in(Network::Wifi)
            .into_iter()
            .find(|s| s.addr != addr)
            .unwrap()
            .addr;
        assert!(svc
            .check_range_request(
                backup,
                SimTime::from_secs(7),
                id,
                "203.0.113.7",
                &info.token,
                None,
                22,
            )
            .is_ok());
    }

    #[test]
    fn load_aware_ordering() {
        let (mut svc, _) = service();
        let first = svc.servers_in(Network::Wifi)[0].addr;
        svc.server_mut(first).unwrap().begin_session();
        svc.server_mut(first).unwrap().begin_session();
        let reordered = svc.servers_in(Network::Wifi);
        assert_ne!(reordered[0].addr, first, "loaded server demoted");
    }

    #[test]
    fn pacing_config_propagates() {
        let (catalog, id) = Catalog::single_test_video();
        let pace = PacePolicy {
            burst: msim_core::units::ByteSize::mb(2),
            rate: msim_core::units::BitRate::mbps(5.0),
        };
        let mut svc = YoutubeService::new(
            1,
            catalog,
            ServiceConfig {
                servers_per_network: 2,
                pacing: Some(pace),
            },
        );
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::ZERO)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        let got = svc
            .check_range_request(
                addr,
                SimTime::ZERO,
                id,
                "203.0.113.7",
                &info.token,
                None,
                22,
            )
            .unwrap();
        assert_eq!(got, Some(pace));
    }

    #[test]
    fn grant_matches_per_request_checks() {
        // The grant path must return exactly the verdict of the full
        // per-request path for every (condition, now) combination the
        // simulator can produce.
        let (mut svc, id) = service();
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::from_secs(1))
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        svc.fail_server_windows(
            addr,
            vec![(SimTime::from_secs(100), SimTime::from_secs(200))],
        );

        // A token that MAC-validates for a video the catalog does not
        // carry: the full path reports token expiry (checked inside
        // `validate`) before the catalog lookup, so the grant path must
        // interleave expiry between its token and content verdicts.
        let ghost = VideoId::new("dQw4w9WgXcQ").unwrap();
        let ghost_wire = AccessToken::issue(
            svc.secret,
            ghost,
            "203.0.113.7",
            Operations::ALL,
            SimTime::from_secs(1),
        )
        .to_wire();

        let cases: Vec<(&str, VideoId, StreamGrant, String)> = vec![
            (
                "valid token",
                id,
                svc.grant_stream(id, "203.0.113.7", &info.token, None, ALL_ITAGS),
                info.token.clone(),
            ),
            (
                "wrong client ip",
                id,
                svc.grant_stream(id, "198.51.100.99", &info.token, None, ALL_ITAGS),
                info.token.clone(),
            ),
            (
                "malformed token",
                id,
                svc.grant_stream(id, "203.0.113.7", "garbage", None, ALL_ITAGS),
                "garbage".to_string(),
            ),
            (
                "uncatalogued video",
                ghost,
                svc.grant_stream(ghost, "203.0.113.7", &ghost_wire, None, ALL_ITAGS),
                ghost_wire,
            ),
        ];
        // Healthy instant, failure window, post-expiry instant, unknown
        // server.
        let instants = [
            SimTime::from_secs(2),
            SimTime::from_secs(150),
            SimTime::from_secs(1) + crate::token::TOKEN_TTL + SimDuration::from_secs(1),
        ];
        for (label, vid, grant, wire) in &cases {
            let client_ip = if label.contains("wrong") {
                "198.51.100.99"
            } else {
                "203.0.113.7"
            };
            for &now in &instants {
                // Sweep every known itag plus an unknown one: with a
                // full-ladder grant, "not granted" and "no such profile"
                // must produce the same verdicts as the full path.
                for &itag in ALL_ITAGS.iter().chain(&[999u32]) {
                    let full =
                        svc.check_range_request(addr, now, *vid, client_ip, wire, None, itag);
                    let granted = svc.check_range_request_granted(addr, now, grant, itag);
                    assert_eq!(full, granted, "{label} itag {itag} at {now}");
                }
            }
            let bogus = Ipv4Addr::new(10, 0, 0, 1);
            assert_eq!(
                svc.check_range_request_granted(bogus, instants[0], grant, 22),
                Err(StatusCode::NOT_FOUND),
                "{label} unknown server"
            );
        }
    }

    #[test]
    fn ladder_grant_covers_exactly_its_rungs() {
        let (mut svc, id) = service();
        let json = svc
            .watch_request(Network::Wifi, id, "203.0.113.7", SimTime::ZERO)
            .unwrap();
        let info = parse_video_info(&json).unwrap();
        let addr = svc.server_by_domain(&info.server_domains[0]).unwrap().addr;
        // A three-rung ladder plus an itag the service does not maintain:
        // the unknown rung is silently not granted.
        let grant = svc.grant_stream(id, "203.0.113.7", &info.token, None, &[18, 22, 37, 999]);
        assert_eq!(grant.granted_itags(), &[18, 22, 37]);
        for itag in [18, 22, 37] {
            assert!(
                svc.check_range_request_granted(addr, SimTime::ZERO, &grant, itag)
                    .is_ok(),
                "granted rung {itag} admitted"
            );
        }
        for itag in [17, 36, 43, 999] {
            assert_eq!(
                svc.check_range_request_granted(addr, SimTime::ZERO, &grant, itag),
                Err(StatusCode::FORBIDDEN),
                "ungranted rung {itag} rejected"
            );
        }
    }
}
