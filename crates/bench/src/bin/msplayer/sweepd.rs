//! The distributed sweep service. `msplayer coordinator` leases a
//! manifest's shards to workers (spawned as `msplayer worker`, speaking
//! line-delimited JSON over their stdio, or connecting to `--tcp`),
//! checkpoints, merges and writes `BENCH_<name>.json`; `msplayer serial`
//! writes the in-process reference that `--verify-serial` diffs against.
//! Exit codes: 0 success, 1 violations or an unfinished sweep, 2 usage,
//! 130 interrupted (after flushing the checkpoint).

use crate::Set::{Switch, Value};
use crate::{parsed, Flag};
use msim_testbed::shutdown_requested;
use msim_testbed::signal::SIGINT_EXIT;
use msplayer_bench::cluster::{
    run_cluster, run_worker, serial_artifact, ClusterConfig, SweepManifest, Transport, WorkerChaos,
    MIN_LEASE_TIMEOUT,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const COORDINATOR: &str = "coordinator [flags] — lease a sweep's shards to workers and merge";

struct Coordinator {
    config: ClusterConfig,
    metrics: Option<String>,
    verify_serial: bool,
}

impl Default for Coordinator {
    fn default() -> Self {
        let program = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("msplayer"));
        Coordinator {
            config: ClusterConfig::new(SweepManifest::smoke(), program),
            metrics: None,
            verify_serial: false,
        }
    }
}

#[rustfmt::skip]
const COORDINATOR_FLAGS: &[Flag<Coordinator>] = &[
    ("--manifest", "<FILE> the sweep [the smoke manifest]", Value(|o, v| manifest(v).map(|m| o.config.manifest = m))),
    ("--workers", "<N> spawned workers [2]", Value(|o, v| parsed(v).map(|n| o.config.workers = n))),
    ("--lease-ms", "<N> lease timeout, at least 4 heartbeats [10000]", Value(|o, v| lease(v).map(|t| o.config.lease_timeout = t))),
    ("--checkpoint", "<PATH> journal to resume from and append to", Value(|o, v| parsed(v).map(|path| o.config.checkpoint = Some(path)))),
    ("--stop-after-shards", "<N> abort after N shard completions", Value(|o, v| parsed(v).map(|n| o.config.stop_after_shards = Some(n)))),
    ("--worker-chaos", "<SLOT>=<DIRECTIVE> misbehave in spawned worker SLOT", Value(|o, v| worker_chaos(&mut o.config, v))),
    ("--tcp", "<ADDR> accept workers over TCP instead of spawning", Value(|o, v| parsed(v).map(|addr| o.config.transport = Transport::Tcp { addr }))),
    ("--metrics", "<ADDR> serve /metrics, /jobs and /healthz", Value(|o, v| parsed(v).map(|addr| o.metrics = Some(addr)))),
    ("--verify-serial", "diff the artifact against the serial reference", Switch(|o| o.verify_serial = true)),
];

/// `--lease-ms`: workers heartbeat at a fixed wall-time pace, so a lease
/// shorter than a few paces expires under a healthy one.
fn lease(v: &str) -> Result<Duration, String> {
    let lease = Duration::from_millis(parsed(v)?);
    if lease < MIN_LEASE_TIMEOUT {
        return Err(format!(
            "{} is below the minimum {} (4x the workers' heartbeat pace)",
            lease.as_millis(),
            MIN_LEASE_TIMEOUT.as_millis()
        ));
    }
    Ok(lease)
}

/// `--worker-chaos <slot>=<directive>`.
fn worker_chaos(config: &mut ClusterConfig, v: &str) -> Result<(), String> {
    let (slot, directive) = v
        .split_once('=')
        .ok_or_else(|| format!("{v:?}: want <slot>=<directive>"))?;
    let slot: usize = parsed(slot)?;
    let directive = WorkerChaos::parse(directive)?;
    if config.worker_chaos.len() <= slot {
        config.worker_chaos.resize(slot + 1, None);
    }
    config.worker_chaos[slot] = Some(directive);
    Ok(())
}

/// The manifest in the file at `path`.
fn manifest(path: &str) -> Result<SweepManifest, String> {
    pinned_manifest(path).map(|(manifest, _)| manifest)
}

/// The manifest at `path` and the `sweep_fingerprint` it pins, if any.
fn pinned_manifest(path: &str) -> Result<(SweepManifest, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = msim_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let pin = json.get("sweep_fingerprint").map(|v| {
        let pin = v.as_str().map(str::to_owned);
        pin.ok_or_else(|| format!("{path}: sweep_fingerprint is not a string"))
    });
    Ok((SweepManifest::from_json(&json)?, pin.transpose()?))
}

pub fn coordinator(args: &[String], bench_dir: &Path) -> i32 {
    let Coordinator {
        mut config,
        metrics,
        verify_serial,
    } = match crate::parse(args, COORDINATOR, COORDINATOR_FLAGS) {
        Ok(opt) => opt,
        Err(code) => return code,
    };

    // Live observability: telemetry on (counters merge from worker
    // heartbeats), plus /metrics, /jobs and /healthz while the run lasts.
    let _obs = match metrics.as_deref().map(|addr| {
        let jobs_state = Arc::new(Mutex::new("{\"shards\":[],\"workers\":[]}".to_string()));
        config.jobs_state = Some(jobs_state.clone());
        let provider: msim_testbed::JobsProvider =
            Arc::new(move || jobs_state.lock().map(|s| s.clone()).unwrap_or_default());
        crate::serve_metrics("sweepd", addr, provider)
    }) {
        Some(Err(code)) => return code,
        obs => obs,
    };

    eprintln!(
        "sweepd: coordinating {:?} ({} workers, lease {:?}, checkpoint {:?})",
        config.manifest.name,
        config.workers,
        config.lease_timeout,
        config
            .checkpoint
            .as_deref()
            .map(|p| p.display().to_string()),
    );
    let outcome = match run_cluster(&config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sweepd: {e}");
            return 1;
        }
    };

    // Provenance always gets written — it is precisely the record of what
    // a partial/faulty run did.
    let provenance_path = bench_dir.join(format!("BENCH_{}.provenance.json", config.manifest.name));
    if let Err(e) = std::fs::write(
        &provenance_path,
        msim_json::to_string_pretty(&outcome.provenance),
    ) {
        eprintln!("sweepd: write provenance: {e}");
    } else {
        eprintln!("sweepd: provenance {}", provenance_path.display());
    }

    for v in &outcome.violations {
        eprintln!("sweepd: VIOLATION: {v}");
    }
    eprintln!(
        "sweepd: stats: reassignments={} duplicates={} protocol_errors={} respawns={} \
         inline_runs={} resumed_shards={}",
        outcome.stats.reassignments,
        outcome.stats.duplicates,
        outcome.stats.protocol_errors,
        outcome.stats.respawns,
        outcome.stats.inline_runs,
        outcome.stats.resumed_shards,
    );
    // Where the wall time went: everything but `leasing` is the run's
    // serial fraction (README, "Distributed sweep").
    let phase_us = |name: &str| {
        outcome
            .provenance
            .get("phases_us")
            .and_then(|p| p.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    eprintln!(
        "sweepd: phases_us: startup={} leasing={} drain={} reap={} merge={}",
        phase_us("startup"),
        phase_us("leasing"),
        phase_us("drain"),
        phase_us("reap"),
        phase_us("merge"),
    );

    if shutdown_requested() {
        eprintln!("sweepd: interrupted — checkpoint flushed, partial provenance written");
        return SIGINT_EXIT;
    }
    let Some(artifact) = &outcome.artifact else {
        eprintln!(
            "sweepd: stopped early ({} this run) — resume from the checkpoint to finish",
            outcome
                .provenance
                .get("shards")
                .and_then(|s| s.as_array())
                .map(|s| s.len())
                .unwrap_or(0)
        );
        return 1;
    };
    let artifact_bytes = msim_json::to_string_pretty(artifact);
    let artifact_path = bench_dir.join(format!("BENCH_{}.json", config.manifest.name));
    if let Err(e) = std::fs::write(&artifact_path, &artifact_bytes) {
        eprintln!("sweepd: write artifact: {e}");
        return 1;
    }
    eprintln!("sweepd: artifact {}", artifact_path.display());

    if verify_serial {
        match serial_artifact(&config.manifest) {
            Ok(serial) => {
                let serial_bytes = msim_json::to_string_pretty(&serial);
                if serial_bytes == artifact_bytes {
                    eprintln!("sweepd: verify-serial: bit-identical ✓");
                } else {
                    eprintln!("sweepd: VIOLATION: artifact diverges from serial reference");
                    return 1;
                }
            }
            Err(e) => {
                eprintln!("sweepd: verify-serial failed: {e}");
                return 1;
            }
        }
    }
    if outcome.violations.is_empty() {
        0
    } else {
        1
    }
}

const WORKER: &str = "worker [flags] — run the shards a coordinator leases";

#[derive(Default)]
struct Worker {
    chaos: Option<WorkerChaos>,
    connect: Option<String>,
}

#[rustfmt::skip]
const WORKER_FLAGS: &[Flag<Worker>] = &[
    ("--chaos", "<DIRECTIVE> misbehave as the directive says", Value(|o, v| WorkerChaos::parse(v).map(|c| o.chaos = Some(c)))),
    ("--connect", "<ADDR> connect to a coordinator's --tcp address", Value(|o, v| parsed(v).map(|addr| o.connect = Some(addr)))),
];

pub fn worker(args: &[String], _bench_dir: &Path) -> i32 {
    let Worker { chaos, connect } = match crate::parse(args, WORKER, WORKER_FLAGS) {
        Ok(opt) => opt,
        Err(code) => return code,
    };
    // Workers always count: heartbeats carry the deltas so the
    // coordinator's /metrics covers the fleet. Provably non-perturbing
    // (the telemetry corpus-replay test pins this).
    msim_core::telemetry::set_enabled(true);
    match connect {
        None => run_worker(std::io::stdin().lock(), std::io::stdout().lock(), chaos),
        Some(addr) => {
            let stream = match std::net::TcpStream::connect(&addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("sweepd: connect {addr}: {e}");
                    return 1;
                }
            };
            let _ = stream.set_nodelay(true);
            let read_half = match stream.try_clone() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("sweepd: clone stream: {e}");
                    return 1;
                }
            };
            run_worker(read_half, stream, chaos)
        }
    }
}

const SERIAL: &str = "serial [flags] — the sweep's serial in-process reference";

struct Serial {
    manifest: SweepManifest,
    /// The manifest file's `sweep_fingerprint`, which the artifact must
    /// carry.
    pin: Option<String>,
}

impl Default for Serial {
    fn default() -> Self {
        Serial {
            manifest: SweepManifest::smoke(),
            pin: None,
        }
    }
}

#[rustfmt::skip]
const SERIAL_FLAGS: &[Flag<Serial>] = &[
    ("--manifest", "<FILE> the sweep, held to its sweep_fingerprint if it has one [the smoke manifest]", Value(|o, v| pinned_manifest(v).map(|(m, pin)| (o.manifest, o.pin) = (m, pin)))),
];

pub fn serial(args: &[String], bench_dir: &Path) -> i32 {
    let Serial { manifest, pin } = match crate::parse(args, SERIAL, SERIAL_FLAGS) {
        Ok(opt) => opt,
        Err(code) => return code,
    };
    match serial_artifact(&manifest) {
        Ok(artifact) => {
            let path = bench_dir.join(format!("BENCH_{}.serial.json", manifest.name));
            if let Err(e) = std::fs::write(&path, msim_json::to_string_pretty(&artifact)) {
                eprintln!("sweepd: {e}");
                return 1;
            }
            eprintln!("sweepd: serial reference {}", path.display());
            let got = artifact.get("sweep_fingerprint").and_then(|v| v.as_str());
            let got = got.unwrap_or("(none)");
            match pin {
                Some(want) if want != got => {
                    eprintln!("sweepd: sweep_fingerprint {got}, but the manifest pins {want}");
                    1
                }
                Some(_) => {
                    eprintln!("sweepd: sweep_fingerprint {got}, as the manifest pins");
                    0
                }
                None => {
                    eprintln!("sweepd: sweep_fingerprint {got}");
                    0
                }
            }
        }
        Err(e) => {
            eprintln!("sweepd: {e}");
            1
        }
    }
}
