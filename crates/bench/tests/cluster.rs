//! End-to-end distributed sweep service tests: a real coordinator, real
//! worker processes, real kills — and a bit-identical merge anyway.
//!
//! A conformance smoke for the cluster's headline invariant: the merged
//! `BENCH` artifact equals the serial in-process reference byte-for-byte
//! through each worker fault, a checkpoint resume and the TCP transport.
//! Every fault here fires on every run.

use msim_json::Value;
use msplayer_bench::cluster::{
    run_cluster, serial_artifact, ClusterConfig, ClusterOutcome, ClusterStats, Frame,
    SweepManifest, Transport, WorkerChaos, DIGEST_EPOCH,
};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

fn sweepd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_msplayer"))
}

/// A sweep small enough that every test here stays in the sub-minute
/// range: one 2-path workload, 2 seeded runs per cell.
fn small_manifest(name: &str) -> SweepManifest {
    SweepManifest {
        name: name.into(),
        workloads: vec!["testbed/MSPlayer".into()],
        runs: 2,
        shard_cells: 3,
    }
}

/// Fast fault-handling clocks so crash/expiry paths fire in milliseconds.
fn fast_config(manifest: SweepManifest) -> ClusterConfig {
    let mut config = ClusterConfig::new(manifest, sweepd());
    config.lease_timeout = Duration::from_millis(800);
    config.backoff_base = Duration::from_millis(10);
    config.backoff_cap = Duration::from_millis(100);
    config
}

fn pretty(v: &msim_json::Value) -> String {
    msim_json::to_string_pretty(v)
}

/// Runs `config` as a `--tcp` coordinator on a free loopback port and
/// returns the address workers connect to, 150 ms after it started. The
/// port is probed and then bound, and a socket of a test running alongside
/// can take it in between: a coordinator that could not bind is started
/// again on another.
fn tcp_coordinator(
    mut config: ClusterConfig,
) -> (String, JoinHandle<Result<ClusterOutcome, String>>) {
    loop {
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            listener.local_addr().expect("local addr").to_string()
        };
        config.transport = Transport::Tcp { addr: addr.clone() };
        let run = config.clone();
        let coordinator = std::thread::spawn(move || run_cluster(&run));
        std::thread::sleep(Duration::from_millis(150));
        if !coordinator.is_finished() {
            return (addr, coordinator);
        }
        match coordinator.join().expect("coordinator thread") {
            Err(e) if e.starts_with("bind ") => eprintln!("{e}; another port"),
            other => panic!("the coordinator ended before any worker came: {other:?}"),
        }
    }
}

/// The conformance table: each fault a worker can be told to commit, by
/// a real process, against a real coordinator. The pool is one worker, so
/// the fault fires on every run (a second worker could finish the sweep
/// before the faulty one is leased anything). Each row names the counter
/// its handling moves; every run must still merge to the serial bytes.
/// The orderings of these faults are the schedule explorer's job
/// (`cluster::coordinator`'s tests), in simulated time.
#[test]
fn each_worker_fault_fires_is_handled_and_merges_bit_identically() {
    type Moved = fn(&ClusterStats) -> bool;
    let table: [(&str, u64, Moved); 4] = [
        ("0:crash-after-cells=1", 800, |s| s.respawns > 0),
        // Silent past a 400 ms lease: re-leased, then reported late.
        ("0:stall-ms=900", 400, |s| {
            s.reassignments > 0 && s.duplicates > 0
        }),
        ("0:corrupt-done", 800, |s| s.protocol_errors > 0),
        ("0:duplicate-done", 800, |s| s.duplicates > 0),
    ];
    let manifest = small_manifest("cluster_conformance_test");
    let serial = pretty(&serial_artifact(&manifest).expect("serial reference"));
    for (directive, lease_ms, moved) in table {
        let mut config = fast_config(manifest.clone());
        config.workers = 1;
        config.lease_timeout = Duration::from_millis(lease_ms);
        let chaos = WorkerChaos::parse(directive).expect("directive parses");
        config.worker_chaos = vec![Some(chaos)];

        let outcome = run_cluster(&config).unwrap_or_else(|e| panic!("{directive}: {e}"));
        assert!(outcome.completed, "{directive}: the sweep must finish");
        assert!(
            outcome.violations.is_empty(),
            "{directive}: {:?}",
            outcome.violations
        );
        assert!(
            moved(&outcome.stats),
            "{directive}: the fault did not fire or was not handled: {:?}",
            outcome.stats
        );
        let merged = pretty(outcome.artifact.as_ref().expect("completed => artifact"));
        assert_eq!(
            merged, serial,
            "{directive}: crash-identical merge violated"
        );

        // The provenance says where the wall time went.
        let phases = outcome.provenance.get("phases_us").expect("phases_us");
        for phase in ["startup", "leasing", "drain", "reap", "merge"] {
            assert!(
                phases.get(phase).and_then(Value::as_u64).is_some(),
                "{directive}: {phase}"
            );
        }
        assert_eq!(phases.as_object().map(|p| p.len()), Some(5));
    }
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    // One-cell shards: 4 shards total, so the simulated crash after 2
    // completions leaves real work for the resumed coordinator.
    let mut manifest = small_manifest("cluster_resume_test");
    manifest.shard_cells = 1;
    let scratch = std::env::temp_dir().join(format!("msp-cluster-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let mut config = fast_config(manifest.clone());
    config.workers = 2;
    config.checkpoint = Some(scratch.join("journal.ndjson"));
    // Simulated coordinator crash after two shard completions.
    config.stop_after_shards = Some(2);

    let first = run_cluster(&config).expect("first (aborted) run");
    assert!(!first.completed, "stop_after_shards must abort the run");
    assert!(first.artifact.is_none(), "no artifact from a partial run");

    // Second coordinator process (same config object, fresh state):
    // resumes from the journal instead of re-running finished shards.
    config.stop_after_shards = None;
    let second = run_cluster(&config).expect("resumed run");
    assert!(second.completed);
    assert!(
        second.stats.resumed_shards >= 2,
        "journaled shards must be restored, not re-run: {:?}",
        second.stats
    );
    let merged = pretty(second.artifact.as_ref().expect("artifact"));
    let serial = pretty(&serial_artifact(&manifest).expect("serial reference"));
    assert_eq!(merged, serial, "resume boundary leaked into the artifact");

    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn tcp_workers_complete_the_sweep() {
    let manifest = small_manifest("cluster_tcp_test");
    let mut config = fast_config(manifest.clone());
    config.workers = 2;
    // Generous lease so the inline starvation fallback doesn't steal the
    // shards before the TCP workers have connected.
    config.lease_timeout = Duration::from_secs(5);
    let (addr, coordinator) = tcp_coordinator(config);
    let mut workers: Vec<std::process::Child> = (0..2)
        .map(|_| {
            std::process::Command::new(sweepd())
                .args(["worker", "--connect", &addr])
                .stderr(std::process::Stdio::null())
                .spawn()
                .expect("spawn TCP worker")
        })
        .collect();

    let outcome = coordinator
        .join()
        .expect("coordinator thread")
        .expect("coordinator result");
    assert!(outcome.completed);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    let merged = pretty(outcome.artifact.as_ref().expect("artifact"));
    let serial = pretty(&serial_artifact(&manifest).expect("serial reference"));
    assert_eq!(merged, serial, "TCP transport changed the artifact");

    // Workers exit on the coordinator's Shutdown frame; don't leak them
    // if that ever regresses.
    for w in &mut workers {
        wait_or_kill(w);
    }
}

/// `run_cluster` returning `Err` mid-run used to leave its children
/// behind: alive until their pipes closed, then zombies for the life of
/// the calling process. The workers here are real `msplayer worker`
/// processes behind a launcher that records its pid, deletes
/// itself and `exec`s the binary, so the pool of one starts but the
/// replacement for its crashing worker cannot be spawned.
#[test]
#[cfg(target_os = "linux")]
fn an_error_return_leaves_no_child_behind() {
    use std::os::unix::fs::PermissionsExt;
    let scratch = std::env::temp_dir().join(format!("msp-cluster-reap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let launcher = scratch.join("launcher");
    let pids = scratch.join("launcher.pids");
    std::fs::write(
        &launcher,
        format!(
            "#!/bin/sh\necho $$ >> \"$0.pids\"\nrm -f \"$0\"\nexec \"{}\" \"$@\"\n",
            sweepd().display()
        ),
    )
    .expect("write launcher");
    std::fs::set_permissions(&launcher, std::fs::Permissions::from_mode(0o755)).expect("chmod");

    let mut config = fast_config(small_manifest("cluster_reap_test"));
    config.workers = 1;
    config.transport = Transport::Spawn { program: launcher };
    config.worker_chaos = vec![Some(
        WorkerChaos::parse("0:crash-after-cells=1").expect("directive parses"),
    )];
    let err = run_cluster(&config).expect_err("the replacement cannot be spawned");
    assert!(err.starts_with("spawn worker"), "{err}");

    let spawned = std::fs::read_to_string(&pids).expect("the launcher ran");
    assert_eq!(spawned.lines().count(), 1, "one worker started: {spawned}");
    for pid in spawned.lines() {
        assert!(
            !std::path::Path::new("/proc").join(pid).exists(),
            "worker {pid} outlived the coordinator's error return"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Waits for a worker process to exit on its own; kills it after 5 s.
fn wait_or_kill(child: &mut std::process::Child) -> Option<std::process::ExitStatus> {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if std::time::Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(20))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// A `--tcp` worker from a build before the structural digest answers the
/// hello with a `ready` that names no digest epoch (it ignores the
/// hello's unknown field, so only the coordinator can notice). It must be
/// refused — never leased a shard — while a current worker finishes the
/// sweep bit-identically.
#[test]
fn worker_of_another_digest_epoch_is_never_leased_a_shard() {
    let manifest = small_manifest("cluster_epoch_test");
    let mut config = fast_config(manifest.clone());
    config.lease_timeout = Duration::from_secs(5);
    let (addr, coordinator) = tcp_coordinator(config);

    // The stale worker connects first, so every shard is still pending
    // when it reports ready.
    let stale_addr = addr.clone();
    let stale = std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(&stale_addr).expect("stale worker connects");
        let mut lines = BufReader::new(stream.try_clone().expect("clone stream")).lines();
        let hello = lines.next().expect("a hello").expect("readable");
        let Frame::Hello {
            worker,
            digest_epoch,
            ..
        } = Frame::from_line(&hello).expect("hello parses")
        else {
            panic!("first frame is not a hello: {hello}");
        };
        assert_eq!(digest_epoch, DIGEST_EPOCH, "the hello names the epoch");
        // The epoch-1 wire form: no digest_epoch.
        let ready = Value::object().with("type", "ready").with("worker", worker);
        writeln!(&stream, "{}", msim_json::to_string(&ready)).expect("ready sent");
        // Everything the coordinator says to us, up to the shutdown a
        // worker would exit on.
        let mut told = Vec::new();
        for line in lines.map_while(Result::ok) {
            told.push(Frame::from_line(&line).expect("coordinator frames parse"));
            if told.last() == Some(&Frame::Shutdown) {
                break;
            }
        }
        told
    });
    std::thread::sleep(Duration::from_millis(150));
    let mut current = std::process::Command::new(sweepd())
        .args(["worker", "--connect", &addr])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn TCP worker");

    let outcome = coordinator
        .join()
        .expect("coordinator thread")
        .expect("coordinator result");
    assert!(outcome.completed);
    assert!(outcome.violations.is_empty(), "{:?}", outcome.violations);
    let merged = pretty(outcome.artifact.as_ref().expect("artifact"));
    let serial = pretty(&serial_artifact(&manifest).expect("serial reference"));
    assert_eq!(merged, serial);
    assert!(
        merged.contains(&format!("\"digest_epoch\": {DIGEST_EPOCH}")),
        "the merged artifact names its digest epoch"
    );

    let told = stale.join().expect("stale worker thread");
    assert!(
        !told.iter().any(|f| matches!(f, Frame::Lease { .. })),
        "a worker of another digest epoch was leased work: {told:?}"
    );
    assert_eq!(
        told.first(),
        Some(&Frame::Shutdown),
        "refused workers are sent home"
    );
    wait_or_kill(&mut current);
}

/// The other direction: a current worker handed a hello without a digest
/// epoch (a pre-handshake coordinator) answers `fail` and exits 1 rather
/// than reporting ready.
#[test]
fn worker_refuses_a_coordinator_of_another_digest_epoch() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let mut worker = std::process::Command::new(sweepd())
        .args(["worker", "--connect", &addr])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn TCP worker");
    let (stream, _) = listener.accept().expect("worker connects");
    let hello = Value::object()
        .with("type", "hello")
        .with("worker", 9u64)
        .with(
            "manifest",
            small_manifest("cluster_old_coordinator").to_json(),
        );
    writeln!(&stream, "{}", msim_json::to_string(&hello)).expect("hello sent");
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("worker replies");
    match Frame::from_line(reply.trim_end()).expect("reply parses") {
        Frame::Fail {
            worker: 9, message, ..
        } => assert!(message.contains("digest_epoch"), "{message}"),
        other => panic!("want a setup fail, got {other:?}"),
    }
    let status = wait_or_kill(&mut worker).expect("the worker exits by itself");
    assert_eq!(status.code(), Some(1));
}
