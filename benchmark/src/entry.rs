//! Every call the benchmark makes into the repository.
//!
//! Nothing outside this file names a crate of the repository, so a change to
//! one of these surfaces breaks the benchmark here and nowhere else. The
//! surfaces are the ones ROADMAP item 2 keeps: `SessionHost`, the workload
//! registry, `FleetHost` and the named fleet specs, the cluster coordinator
//! and worker, the sweep executors, and the leaf layers (`EventQueue`,
//! `TcpConnection`, `PathProfile`/`Link`, `Prng`, `YoutubeService`,
//! `msim_json`, `msim_http::wire`, `telemetry`). `Env`, `Competitor`,
//! `Scenario`, `run_session` and `SweepSpec` are never used.
//!
//! The functions here do no timing of their own: callers wrap them in spans.

use msim_core::event::EventQueue;
use msim_core::rng::Prng;
use msim_core::telemetry;
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msim_http::{wire, ByteRange, Request, Response};
use msim_net::profile::PathProfile;
use msim_net::tcp::TcpConnection;
use msim_youtube::service::StreamGrant;
use msim_youtube::{parse_video_info, Catalog, Network, Video, VideoId, YoutubeService};
use msplayer_bench::cluster::{self, CellRow, ClusterConfig, Frame};
use msplayer_bench::sweep::{self, Cell};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::sync::Arc;

pub use msim_json::{from_str as json_from_str, to_string as json_to_string, Value};
pub use msplayer_bench::cluster::{ClusterOutcome, SweepManifest};
pub use msplayer_bench::sampling::Fingerprint;
pub use msplayer_bench::workload::{WorkloadRegistry, WorkloadSpec};
pub use msplayer_core::fleet::{FleetHost, FleetMetrics, FleetSpec};
pub use msplayer_core::sim::{SessionHost, SessionSpec, StopCondition};
pub use msplayer_core::{SchedulerKind, SessionMetrics};

/// The deviate-stream epoch the results were produced under.
pub const STREAM_EPOCH: u32 = msim_core::rng::STREAM_EPOCH;

// ---- sessions -------------------------------------------------------------

/// The builtin workload catalogue. The run count only matters to callers
/// that expand the registry into cells; the benchmark picks its own seeds.
pub fn registry() -> WorkloadRegistry {
    WorkloadRegistry::builtin(1)
}

/// Looks a workload up, listing what exists on a miss.
pub fn workload(reg: &WorkloadRegistry, name: &str) -> Result<Arc<WorkloadSpec>, String> {
    reg.by_name(name).cloned().ok_or_else(|| {
        format!(
            "workload {name:?} is not in the registry (it has: {})",
            reg.names().join(", ")
        )
    })
}

/// Builds the warmed host of one workload (`sim` layer, set-up cost).
pub fn host_new(w: &WorkloadSpec) -> SessionHost {
    SessionHost::new(w.service.clone())
}

/// Runs `spec` over `seeds` on a warmed host (`sim` layer).
pub fn run_batch(
    host: &mut SessionHost,
    spec: &SessionSpec,
    seeds: &[u64],
) -> Result<Vec<SessionMetrics>, String> {
    host.run_batch(seeds, spec).map_err(|e| e.to_string())
}

/// Did the session end, and end because its stop condition was reached
/// rather than because the event queue drained or the time limit hit?
pub fn stop_reached(spec: &SessionSpec, m: &SessionMetrics) -> bool {
    m.ended_at.is_some()
        && match spec.stop {
            StopCondition::PrebufferDone => m.prebuffer_done_at.is_some(),
            StopCondition::AfterRefills(n) => m.refills.len() >= n,
            StopCondition::AtTime(t) => m.ended_at.is_some_and(|end| end >= t),
            // Not visible in the metrics beyond termination itself; the
            // invariant oracle checks byte conservation on the last trial.
            StopCondition::DownloadComplete => true,
        }
}

/// Violations the repository's invariant oracle finds in one session.
pub fn invariant_violations(m: &SessionMetrics) -> Vec<String> {
    msplayer_core::check_invariants(m)
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// The repository's session digest (FNV-1a over the metrics' debug form).
pub fn digest(m: &SessionMetrics) -> u64 {
    cluster::digest_metrics(m)
}

/// The frozen `tests/sampling_corpus/fingerprints.json` rows.
pub fn corpus() -> Result<Vec<Fingerprint>, String> {
    msplayer_bench::sampling::load_corpus()
}

// ---- sweep executors ------------------------------------------------------

/// One sweep cell for an arbitrary seed.
pub fn cell(w: &Arc<WorkloadSpec>, scheduler: SchedulerKind, chunk_kb: u64, seed: u64) -> Cell {
    Cell::new(Arc::clone(w), scheduler, chunk_kb, seed)
}

/// `sweep::run_serial`; returns how many cells completed.
pub fn run_serial(cells: &[Cell]) -> usize {
    sweep::run_serial(cells)
        .iter()
        .filter(|r| r.metrics().is_some())
        .count()
}

/// `sweep::run_parallel`; returns how many cells completed.
pub fn run_parallel(cells: &[Cell], threads: usize) -> usize {
    sweep::run_parallel(cells, threads)
        .iter()
        .filter(|r| r.metrics().is_some())
        .count()
}

// ---- cluster --------------------------------------------------------------

/// A sweep manifest over builtin workloads.
pub fn manifest(name: &str, workloads: &[&str], runs: u64, shard_cells: u64) -> SweepManifest {
    SweepManifest {
        name: name.into(),
        workloads: workloads.iter().map(|w| (*w).to_string()).collect(),
        runs,
        shard_cells,
    }
}

/// The manifest's cell list, as coordinator, workers and the serial
/// reference all expand it.
pub fn expand(manifest: &SweepManifest) -> Result<Vec<Cell>, String> {
    manifest.expand()
}

/// Runs the coordinator with `workers` spawned `<program> worker` children.
pub fn run_cluster(
    manifest: &SweepManifest,
    workers: usize,
    program: PathBuf,
) -> Result<ClusterOutcome, String> {
    let mut config = ClusterConfig::new(manifest.clone(), program);
    config.workers = workers;
    cluster::run_cluster(&config)
}

/// The worker side of the protocol over this process's stdio.
pub fn run_worker_stdio() -> i32 {
    cluster::run_worker(std::io::stdin().lock(), std::io::stdout().lock(), None)
}

/// The serial in-process reference artifact for a manifest.
pub fn serial_artifact(manifest: &SweepManifest) -> Result<Value, String> {
    cluster::serial_artifact(manifest)
}

/// The `sweep_fingerprint` of a merged artifact.
pub fn sweep_fingerprint(artifact: &Value) -> Option<String> {
    artifact
        .get("sweep_fingerprint")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Encodes and decodes one `Done` frame carrying `rows` rows; returns the
/// row count that survived the round trip.
pub fn frame_roundtrip(rows: u64) -> Result<u64, String> {
    let frame = Frame::Done {
        worker: 1,
        shard: 7,
        attempt: 1,
        wall_us: 123_456,
        rows: (0..rows)
            .map(|index| CellRow {
                index,
                digest: index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            })
            .collect(),
    };
    match Frame::from_line(&frame.to_line())? {
        Frame::Done { rows, .. } => Ok(rows.len() as u64),
        other => Err(format!("frame decoded as {other:?}")),
    }
}

/// Merges one placeholder row per cell into an artifact (`cluster::merge`).
pub fn merge(manifest: &SweepManifest, cells: &[Cell]) -> Result<Value, String> {
    let rows: Vec<CellRow> = (0..cells.len() as u64)
        .map(|index| CellRow {
            index,
            digest: index,
        })
        .collect();
    cluster::merge_rows(&manifest.name, manifest.fingerprint(), cells, &rows)
}

// ---- fleet ----------------------------------------------------------------

/// The two fleet regimes: the load-balanced headline (about 94% load, no
/// stalls) and the under-provisioned `cheapest-feasible@x0.6` frontier cell
/// (every session stalls).
pub fn fleet_specs(
    headline_sessions: u64,
    overload_sessions: u64,
    seed_mix: u64,
    workers: usize,
) -> Result<[FleetSpec; 2], String> {
    let headline = msplayer_bench::fleet::headline_spec(headline_sessions);
    let overload = msplayer_bench::fleet::frontier_specs(overload_sessions)
        .into_iter()
        .find(|case| case.label == "cheapest-feasible@x0.6")
        .ok_or("frontier grid has no cheapest-feasible@x0.6 cell")?
        .spec;
    Ok([headline, overload].map(|mut spec| {
        spec.seed ^= seed_mix;
        spec.workers = workers;
        spec
    }))
}

/// Validates a fleet spec into a host (`fleet` layer, set-up cost).
pub fn fleet_new(spec: FleetSpec) -> Result<FleetHost, String> {
    FleetHost::new(spec)
}

/// Runs the fleet to completion (`fleet` layer).
pub fn fleet_run(host: &mut FleetHost) -> FleetMetrics {
    host.run()
}

// ---- telemetry ------------------------------------------------------------

/// What the repository's own counters and phase accumulators say.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    counters: std::collections::BTreeMap<String, u64>,
    phases: Vec<telemetry::PhaseSnapshot>,
}

impl Telemetry {
    /// Sum of every counter whose key is `name` or `name{...}`.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// Accumulated wall ns of one phase span.
    pub fn phase_ns(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.nanos)
    }
}

/// Switches the repository's runtime telemetry on or off.
pub fn telemetry_enable(on: bool) {
    telemetry::set_enabled(on);
}

/// Zeroes every counter and phase.
pub fn telemetry_reset() {
    telemetry::reset();
}

/// Snapshot of counters and phases.
pub fn telemetry_snapshot() -> Telemetry {
    Telemetry {
        counters: telemetry::counter_values(),
        phases: telemetry::phase_values(),
    }
}

// ---- isolated layer probes ------------------------------------------------

/// Event-queue operations of an average session of a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventMix {
    /// Pops per session.
    pub pops: u64,
    /// Cancels per session.
    pub cancels: u64,
    /// Simulated session length in µs (sets event spacing).
    pub horizon_us: u64,
}

/// Replays `sessions` synthetic sessions with the workload's pop/cancel mix
/// and event spacing on one reused queue, as `SessionHost` uses it: one
/// completion-style event kept pending, and a tick that is superseded
/// (cancelled and re-armed) at the observed cancel rate. Returns the number
/// of queue operations performed.
pub fn event_replay(sessions: u64, mix: EventMix) -> u64 {
    let mut queue: EventQueue<u32> = EventQueue::with_capacity(16);
    let gap = SimDuration::from_micros((mix.horizon_us / mix.pops.max(1)).max(1));
    let mut ops = 0u64;
    for _ in 0..sessions {
        queue.reset();
        queue.push(SimTime::ZERO + gap, 0);
        let (mut pushes, mut pops, mut cancels) = (1u64, 0u64, 0u64);
        let mut tick = None;
        while pops < mix.pops {
            let Some((now, payload)) = queue.pop() else {
                break;
            };
            black_box(payload);
            pops += 1;
            queue.push(now + gap, 0);
            pushes += 1;
            if cancels * mix.pops < mix.cancels * pops {
                if let Some(id) = tick.take() {
                    cancels += u64::from(queue.cancel(id));
                }
                tick = Some(queue.push(now + gap + gap + gap + gap, 1));
                pushes += 1;
            }
        }
        ops += pushes + pops + cancels;
    }
    ops
}

/// What a replayed request chain did.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpTally {
    /// Requests issued.
    pub requests: u64,
    /// TCP rounds simulated.
    pub rounds: u64,
    /// Rounds served on the engine's fast path.
    pub fast_rounds: u64,
    /// Fast-path rounds collapsed by a closed-form solve.
    pub solved_rounds: u64,
}

/// Replays one finished session's request chains on fresh links: per path,
/// build the link from the session's profile, connect, and issue every
/// chunk the session fetched on that path at the time it was requested.
pub fn tcp_replay(spec: &SessionSpec, m: &SessionMetrics, seed: u64, tally: &mut TcpTally) {
    let mut rng = Prng::new(seed);
    for (path, setup) in spec.paths.iter().enumerate() {
        let mut link = setup.profile.build(&mut rng);
        if let Some(outages) = &setup.outages {
            link = link.with_outages(outages.clone());
        }
        let mut conn = TcpConnection::new(setup.profile.tcp_config());
        let mut now = conn.connect(&mut link, SimTime::ZERO);
        for chunk in m.chunks.iter().filter(|c| c.path == path && c.bytes > 0) {
            now = now.max(chunk.requested_at);
            let result = conn.request(&mut link, now, ByteSize::bytes(chunk.bytes));
            now = result.completed_at;
            tally.requests += 1;
            tally.rounds += u64::from(result.rounds);
            tally.fast_rounds += u64::from(result.stats.fast_rounds);
            tally.solved_rounds += u64::from(result.stats.solved_rounds);
        }
    }
}

/// Samples rate and RTT `per_profile` times, 10 ms apart, on each of the four
/// calibrated profiles. Returns the number of (rate, rtt) samples taken.
pub fn link_samples(per_profile: u64) -> u64 {
    let profiles = [
        PathProfile::wifi_testbed(),
        PathProfile::lte_testbed(),
        PathProfile::wifi_youtube(),
        PathProfile::lte_youtube(),
    ];
    let mut rng = Prng::new(0x11e4);
    for profile in &profiles {
        let mut link = profile.build(&mut rng);
        for i in 0..per_profile {
            let t = SimTime::from_millis(10 * i);
            black_box(link.rate_at(t));
            black_box(link.rtt_at(t));
        }
    }
    per_profile * profiles.len() as u64
}

/// Draws `n` standard-normal deviates from one stream.
pub fn rng_deviates(n: u64) -> u64 {
    let mut rng = Prng::new(0xd3e1);
    let mut acc = 0.0;
    for _ in 0..n {
        acc += rng.normal();
    }
    black_box(acc);
    n
}

/// A YouTube-profile service with one copyrighted video and a granted
/// stream, for timing the admission path in isolation.
pub struct YoutubeProbe {
    service: YoutubeService,
    video: VideoId,
    grant: StreamGrant,
    server: Ipv4Addr,
    watch_json: String,
}

const PROBE_CLIENT_IP: &str = "203.0.113.7";
const PROBE_ITAG: u32 = 22;

impl YoutubeProbe {
    /// Builds the service the way `SessionHost::new` does for the YouTube
    /// profile, and bootstraps one path.
    pub fn new() -> Result<YoutubeProbe, String> {
        let video = VideoId::new("qjT4T2gU9sM").map_err(|e| format!("{e:?}"))?;
        let mut catalog = Catalog::new();
        catalog.add(Video::new(
            video,
            "Experiment Stream",
            "umass-nets",
            SimDuration::from_secs(600),
            true,
        ));
        let config = msplayer_core::sim::youtube_service_config();
        let mut service = YoutubeService::new(0x5eed, catalog, config);
        let (grant, server, watch_json) = bootstrap_path(&mut service, video)?;
        Ok(YoutubeProbe {
            service,
            video,
            grant,
            server,
            watch_json,
        })
    }

    /// One more path bootstrap on the same service.
    pub fn bootstrap(&mut self) -> Result<(), String> {
        (self.grant, self.server, self.watch_json) = bootstrap_path(&mut self.service, self.video)?;
        Ok(())
    }

    /// `n` per-chunk admission checks over the grant; returns how many were
    /// admitted.
    pub fn grant_checks(&self, n: u64) -> u64 {
        (0..n)
            .filter(|i| {
                self.service
                    .check_range_request_granted(
                        self.server,
                        SimTime::from_millis(*i),
                        &self.grant,
                        PROBE_ITAG,
                    )
                    .is_ok()
            })
            .count() as u64
    }

    /// The watch response as JSON text: the document the JSON probes use.
    pub fn watch_json(&self) -> &str {
        &self.watch_json
    }
}

/// One path bootstrap: watch request, JSON decode, signature decipher,
/// stream grant — the sequence `SessionHost` runs on a boot-cache miss.
/// Returns the grant, the chosen server and the watch response text.
fn bootstrap_path(
    service: &mut YoutubeService,
    video: VideoId,
) -> Result<(StreamGrant, Ipv4Addr, String), String> {
    let json = service
        .watch_request(Network::Wifi, video, PROBE_CLIENT_IP, SimTime::ZERO)
        .map_err(|s| format!("watch request refused: {}", s.0))?;
    let info = parse_video_info(&json).map_err(|e| format!("{e:?}"))?;
    let signature = info
        .enciphered_sig
        .as_ref()
        .map(|enc| service.decoder_page().decipher(enc));
    let grant = service.grant_stream(
        video,
        PROBE_CLIENT_IP,
        &info.token,
        signature.as_deref(),
        &[PROBE_ITAG],
    );
    let server = service
        .server_by_domain(&info.server_domains[0])
        .ok_or("watch response names an unknown server")?
        .addr;
    Ok((grant, server, json_to_string(&json)))
}

/// Parses `text` `n` times; returns the bytes parsed.
pub fn json_parse(text: &str, n: u64) -> Result<u64, String> {
    for _ in 0..n {
        black_box(json_from_str(black_box(text)).map_err(|e| format!("{e:?}"))?);
    }
    Ok(n * text.len() as u64)
}

/// Serialises `value` `n` times; returns the bytes written.
pub fn json_serialize(value: &Value, n: u64) -> u64 {
    (0..n)
        .map(|_| black_box(json_to_string(black_box(value))).len() as u64)
        .sum()
}

/// Encodes and decodes `n` range requests and their 206 response heads
/// through `msim_http::wire`; returns the request count.
pub fn http_codec(n: u64) -> Result<u64, String> {
    let body = vec![0u8; 256];
    for i in 0..n {
        let range = ByteRange::from_offset_len(i * 65_536, 65_536);
        let request = Request::get("/videoplayback?id=qjT4T2gU9sM&itag=22")
            .header("Host", "r3---sn-wifi.googlevideo.com")
            .with_range(range);
        let bytes = wire::encode_request(&request);
        black_box(wire::decode_request(&bytes).map_err(|e| format!("{e:?}"))?);
        let response = Response::partial_content(body.clone(), range, 94_371_840);
        let bytes = wire::encode_response(&response);
        black_box(wire::decode_response(&bytes).map_err(|e| format!("{e:?}"))?);
    }
    Ok(n)
}
