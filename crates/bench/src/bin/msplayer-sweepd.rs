//! `msplayer-sweepd` — the distributed sweep service binary.
//!
//! One executable, three roles:
//!
//! ```sh
//! # Coordinator with 3 spawned workers, checkpointed, verified against
//! # the serial in-process reference:
//! msplayer-sweepd coordinator --workers 3 \
//!     --checkpoint target/bench/cluster.ndjson --verify-serial
//!
//! # Multi-host: coordinator listens, workers connect.
//! msplayer-sweepd coordinator --tcp 0.0.0.0:7070
//! msplayer-sweepd worker --connect host:7070
//!
//! # The serial reference artifact by itself (what CI diffs against):
//! msplayer-sweepd serial
//! ```
//!
//! The spawned-worker mode re-executes this same binary with the
//! `worker` subcommand, speaking line-delimited JSON over the child's
//! stdio. Exit codes: 0 success, 1 violations/incomplete, 2 usage,
//! 130 interrupted (after flushing the checkpoint).

use msim_testbed::signal::SIGINT_EXIT;
use msim_testbed::{install_shutdown_handler, shutdown_requested, ObsServer};
use msplayer_bench::cluster::{
    run_cluster, run_worker, serial_artifact, ClusterConfig, SweepManifest, Transport, WorkerChaos,
    MIN_LEASE_TIMEOUT,
};
use msplayer_bench::env_or_exit;
use msplayer_bench::sweep::bench_dir;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "\
msplayer-sweepd <role> [flags]
  coordinator [--manifest <file.json>] [--workers <n>] [--lease-ms <n>]
              [--max-attempts <n>] [--checkpoint <path>]
              [--stop-after-shards <n>] [--worker-chaos <slot>=<directive>]
              [--tcp <bind-addr>] [--metrics <bind-addr>] [--verify-serial]
  worker      [--chaos <directive>] [--connect <addr>]
  serial      [--manifest <file.json>]
";

fn main() {
    install_shutdown_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("coordinator") => coordinator_main(&args[1..]),
        Some("worker") => worker_main(&args[1..]),
        Some("serial") => serial_main(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_flags(args: &[String]) -> Result<Vec<(String, Option<String>)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            return Err(format!("unexpected argument {arg:?}\n\n{USAGE}"));
        }
        let value = match it.peek() {
            Some(v) if !v.starts_with("--") => Some(it.next().unwrap().clone()),
            _ => None,
        };
        out.push((arg.clone(), value));
    }
    Ok(out)
}

fn load_manifest(path: Option<&str>) -> Result<SweepManifest, String> {
    match path {
        None => Ok(SweepManifest::smoke()),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let json = msim_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            SweepManifest::from_json(&json)
        }
    }
}

fn coordinator_main(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut manifest_path = None;
    let mut config = ClusterConfig::new(
        SweepManifest::smoke(),
        std::env::current_exe().unwrap_or_else(|_| PathBuf::from("msplayer-sweepd")),
    );
    let mut verify_serial = false;
    let mut metrics_addr = None;
    for (flag, value) in &flags {
        let need = || value.clone().ok_or_else(|| format!("{flag} needs a value"));
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--manifest" => manifest_path = Some(need()?),
                "--workers" => {
                    config.workers = need()?.parse().map_err(|_| "bad --workers".to_string())?
                }
                "--lease-ms" => {
                    config.lease_timeout = Duration::from_millis(
                        need()?.parse().map_err(|_| "bad --lease-ms".to_string())?,
                    );
                    // Workers heartbeat at a fixed wall-time pace; a lease
                    // shorter than a few paces expires under a healthy one.
                    if config.lease_timeout < MIN_LEASE_TIMEOUT {
                        return Err(format!(
                            "--lease-ms {} is below the minimum {} (4x the workers' \
                             heartbeat pace)",
                            config.lease_timeout.as_millis(),
                            MIN_LEASE_TIMEOUT.as_millis()
                        ));
                    }
                }
                "--max-attempts" => {
                    config.max_attempts = need()?
                        .parse()
                        .map_err(|_| "bad --max-attempts".to_string())?
                }
                "--checkpoint" => config.checkpoint = Some(PathBuf::from(need()?)),
                "--stop-after-shards" => {
                    config.stop_after_shards = Some(
                        need()?
                            .parse()
                            .map_err(|_| "bad --stop-after-shards".to_string())?,
                    )
                }
                "--worker-chaos" => {
                    let spec = need()?;
                    let (slot, directive) = spec.split_once('=').ok_or_else(|| {
                        format!("--worker-chaos {spec:?}: want <slot>=<directive>")
                    })?;
                    let slot: usize = slot
                        .parse()
                        .map_err(|_| "bad --worker-chaos slot".to_string())?;
                    let directive = WorkerChaos::parse(directive)?;
                    if config.worker_chaos.len() <= slot {
                        config.worker_chaos.resize(slot + 1, None);
                    }
                    config.worker_chaos[slot] = Some(directive);
                }
                "--tcp" => {
                    config.transport = Transport::Tcp { addr: need()? };
                }
                "--metrics" => metrics_addr = Some(need()?),
                "--verify-serial" => verify_serial = true,
                other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("{e}");
            return 2;
        }
    }
    config.manifest = match load_manifest(manifest_path.as_deref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bench_dir = env_or_exit("MSP_BENCH_DIR", bench_dir);

    // Live observability: telemetry on (counters merge from worker
    // heartbeats), plus /metrics, /jobs and /healthz while the run lasts.
    let _obs = match &metrics_addr {
        Some(addr) => {
            msim_core::telemetry::set_enabled(true);
            msim_core::telemetry::register_core_counters();
            let jobs_state = std::sync::Arc::new(std::sync::Mutex::new(
                "{\"shards\":[],\"workers\":[]}".to_string(),
            ));
            config.jobs_state = Some(jobs_state.clone());
            let provider: msim_testbed::JobsProvider = std::sync::Arc::new(move || {
                jobs_state.lock().map(|s| s.clone()).unwrap_or_default()
            });
            match ObsServer::start(addr, provider) {
                Ok(server) => {
                    eprintln!("sweepd: metrics on http://{}/metrics", server.addr);
                    Some(server)
                }
                Err(e) => {
                    eprintln!("sweepd: bind metrics {addr}: {e}");
                    return 2;
                }
            }
        }
        None => None,
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

fn worker_main(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    // Workers always count: heartbeats carry the deltas so the
    // coordinator's /metrics covers the fleet. Provably non-perturbing
    // (the telemetry corpus-replay test pins this).
    msim_core::telemetry::set_enabled(true);
    let mut chaos = None;
    let mut connect = None;
    for (flag, value) in &flags {
        match (flag.as_str(), value) {
            ("--chaos", Some(v)) => match WorkerChaos::parse(v) {
                Ok(c) => chaos = Some(c),
                Err(e) => {
                    eprintln!("{e}");
                    return 2;
                }
            },
            ("--connect", Some(v)) => connect = Some(v.clone()),
            _ => {
                eprintln!("unknown worker flag {flag:?}\n\n{USAGE}");
                return 2;
            }
        }
    }
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

fn serial_main(args: &[String]) -> i32 {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let mut manifest_path = None;
    for (flag, value) in &flags {
        match (flag.as_str(), value) {
            ("--manifest", Some(v)) => manifest_path = Some(v.clone()),
            _ => {
                eprintln!("unknown serial flag {flag:?}\n\n{USAGE}");
                return 2;
            }
        }
    }
    let manifest = match load_manifest(manifest_path.as_deref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    let bench_dir = env_or_exit("MSP_BENCH_DIR", bench_dir);
    match serial_artifact(&manifest) {
        Ok(artifact) => {
            let path = bench_dir.join(format!("BENCH_{}.serial.json", manifest.name));
            match std::fs::write(&path, msim_json::to_string_pretty(&artifact)) {
                Ok(()) => {
                    eprintln!("sweepd: serial reference {}", path.display());
                    0
                }
                Err(e) => {
                    eprintln!("sweepd: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("sweepd: {e}");
            1
        }
    }
}
