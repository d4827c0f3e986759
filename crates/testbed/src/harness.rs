//! One-call harness: spin up shaped servers + proxies on loopback, stream
//! with the real-socket driver, return metrics.

use crate::driver::{run_testbed_session, TestbedSession};
use crate::server::{ProxyDaemon, VideoFileServer};
use crate::shaper::LinkShape;
use msim_core::time::SimDuration;
use msplayer_core::config::PlayerConfig;
use msplayer_core::metrics::SessionMetrics;
use msplayer_core::sim::StopCondition;
use std::sync::Arc;
use std::time::Duration;

/// A complete loopback testbed: per-path video servers (with replicas for
/// failover) and per-path web proxies.
pub struct Testbed {
    /// The synthetic video file all servers share.
    pub file: Arc<Vec<u8>>,
    /// Stream rate in bytes per second.
    pub bytes_per_sec: f64,
    /// Per path: the replica servers.
    pub servers: Vec<Vec<VideoFileServer>>,
    /// Per path: the web proxy.
    pub proxies: Vec<ProxyDaemon>,
}

impl Testbed {
    /// Builds a two-path testbed ("WiFi"-like and "LTE"-like shapes) with
    /// `replicas` video servers per path, serving `video_secs` of video at
    /// `bytes_per_sec`.
    pub fn start(video_secs: f64, bytes_per_sec: f64, replicas: usize) -> std::io::Result<Testbed> {
        let len = (video_secs * bytes_per_sec) as usize;
        let file: Arc<Vec<u8>> = Arc::new((0..len).map(|i| (i % 251) as u8).collect());
        let shapes = [LinkShape::wifi_like(), LinkShape::lte_like()];
        let mut servers = Vec::new();
        let mut proxies = Vec::new();
        for shape in shapes {
            let mut path_servers = Vec::new();
            for _ in 0..replicas.max(1) {
                path_servers.push(VideoFileServer::start(file.clone(), shape)?);
            }
            let json = msim_json::to_string(
                &msim_json::Value::object()
                    .with("video_id", "qjT4T2gU9sM")
                    .with("title", "Loopback Testbed Stream")
                    .with("size_bytes", len as u64)
                    .with(
                        "servers",
                        msim_json::Value::Array(
                            path_servers
                                .iter()
                                .map(|s| msim_json::Value::from(s.addr.to_string()))
                                .collect(),
                        ),
                    ),
            );
            proxies.push(ProxyDaemon::start(json, SimDuration::from_millis(8))?);
            servers.push(path_servers);
        }
        Ok(Testbed {
            file,
            bytes_per_sec,
            servers,
            proxies,
        })
    }

    /// Streams with the given player config until `stop`; returns metrics.
    pub fn run(
        &self,
        player: PlayerConfig,
        stop: StopCondition,
        wall_timeout: Duration,
    ) -> std::io::Result<SessionMetrics> {
        let session = TestbedSession {
            path_servers: self
                .servers
                .iter()
                .map(|replicas| replicas.iter().map(|s| s.addr).collect())
                .collect(),
            video_len: self.file.len() as u64,
            bytes_per_sec: self.bytes_per_sec,
            player,
            stop,
            wall_timeout,
        };
        run_testbed_session(&session)
    }

    /// Injects (or clears) a failure on path `path`'s primary server.
    pub fn set_primary_failed(&self, path: usize, failed: bool) {
        self.servers[path][0]
            .controls
            .fail
            .store(failed, std::sync::atomic::Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msim_core::units::ByteSize;
    use msplayer_core::metrics::TrafficPhase;

    /// 1 Mbit/s stream so loopback tests complete in well under a second of
    /// shaped transfer.
    const BPS: f64 = 125_000.0;

    fn quick_player() -> PlayerConfig {
        PlayerConfig::msplayer()
            .with_initial_chunk(ByteSize::kb(64))
            .with_prebuffer_secs(3.0)
    }

    #[test]
    fn real_socket_prebuffer_session() {
        let tb = Testbed::start(30.0, BPS, 1).expect("testbed up");
        let m = tb
            .run(
                quick_player(),
                StopCondition::PrebufferDone,
                Duration::from_secs(20),
            )
            .expect("session runs");
        let t = m.prebuffer_time().expect("prebuffer reached");
        assert!(t.as_secs_f64() > 0.01, "took {t}");
        assert!(t.as_secs_f64() < 15.0, "took {t}");
        // Both paths moved real bytes.
        assert!(m.chunk_count(0) > 0);
        assert!(m.chunk_count(1) > 0);
        let total: u64 = m.chunks.iter().map(|c| c.bytes).sum();
        assert!(total as f64 >= 3.0 * BPS, "fetched {total}");
    }

    #[test]
    fn failover_on_real_sockets() {
        let tb = Testbed::start(30.0, BPS, 2).expect("testbed up");
        // Kill path 0's primary before starting: first fetch gets 500 →
        // player fails over to the replica and completes.
        tb.set_primary_failed(0, true);
        let m = tb
            .run(
                quick_player(),
                StopCondition::PrebufferDone,
                Duration::from_secs(20),
            )
            .expect("session runs");
        assert!(
            m.prebuffer_time().is_some(),
            "streaming survived the failure"
        );
        assert!(
            m.paths[0].failovers >= 1,
            "failover recorded: {:?}",
            m.paths
        );
    }

    #[test]
    fn single_path_fixed_chunks_on_sockets() {
        let tb = Testbed::start(30.0, BPS, 1).expect("testbed up");
        let session = TestbedSession {
            path_servers: vec![vec![tb.servers[0][0].addr]],
            video_len: tb.file.len() as u64,
            bytes_per_sec: BPS,
            player: PlayerConfig::commercial_single_path(ByteSize::kb(64)).with_prebuffer_secs(2.0),
            stop: StopCondition::PrebufferDone,
            wall_timeout: Duration::from_secs(20),
        };
        let m = run_testbed_session(&session).expect("runs");
        assert!(m.prebuffer_time().is_some());
        // One path, one per-path slot: no phantom second path.
        assert_eq!(m.paths.len(), 1);
        assert_eq!(m.chunk_count(1), 0);
        // The single-request pre-buffer mode issues one big chunk.
        assert_eq!(
            m.bytes_on(0, TrafficPhase::PreBuffering),
            (2.0 * BPS) as u64
        );
    }
}
