//! The per-layer table of a traced run.
//!
//! Each layer is measured from outside: counts come from the repository's
//! existing telemetry counters and session metrics, times from spans around
//! calls into the layer's public functions, and a layer's share of session
//! time is estimated as (operations the workload made) × (cost per operation
//! in an isolated probe). What the estimates leave over is
//! `sim.residual_share`: player, scheduler, estimator, ABR and driver glue,
//! which only spans inside the program could split further.

use crate::entry::{self, EventMix, TcpTally, YoutubeProbe};
use crate::report::LayerTable;
use crate::span::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::{ClusterTicks, FleetFluid, Mode, Runner, SessionSweep, FLEET_SPANS};

/// What the driver measured around the trials of a traced run.
pub struct TrialLog {
    /// Wall seconds of the [`Mode::Plain`] trials.
    pub plain_s: Vec<f64>,
    /// Wall seconds of the [`Mode::Spans`] trials.
    pub spans_s: Vec<f64>,
    /// Wall seconds of the [`Mode::Telemetry`] trials.
    pub telemetry_s: Vec<f64>,
    /// CPU seconds of waited-for children, summed over all trials.
    pub children_cpu_s: f64,
    /// Peak RSS growth across the first (warm-up) trial, in bytes.
    pub first_trial_rss_bytes: f64,
    /// Did the sampling-corpus replay match?
    pub corpus_ok: bool,
    /// Probe loop counts are divided by this (50 under `--smoke`).
    pub probe_divisor: u64,
}

/// Every how-many-th session the digest probe and the TCP replay take.
const DIGEST_STRIDE: usize = 16;
const TCP_REPLAY_STRIDE: usize = 4;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How often an isolated probe is repeated. Probes take milliseconds, so one
/// burst of host noise can double a single reading; the median of a few
/// cannot be moved by one.
const PROBE_REPS: usize = 5;

/// Runs `f` inside a span and returns its result with the span's ns.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let open = tr.open(name);
    let out = f();
    (out, tr.close(open) as f64)
}

/// Runs the probe `f` [`PROBE_REPS`] times, each inside a span, and returns
/// the last result with the median span ns.
fn probe<T>(tr: &mut Tracer, name: &'static str, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut ns = Vec::with_capacity(PROBE_REPS);
    let mut out = None;
    for _ in 0..PROBE_REPS {
        let (result, took) = timed(tr, name, &mut f);
        ns.push(took);
        out = Some(result);
    }
    (out.expect("PROBE_REPS is at least 1"), median(&ns))
}

/// Rows every workload reports: trial times behind the overhead ratio, the
/// model check, and the leaf-layer probes that do not depend on a workload.
pub fn common_layers(
    tr: &mut Tracer,
    log: &TrialLog,
    table: &mut LayerTable,
) -> Result<(), String> {
    let (plain, spans, telemetry) = (
        median(&log.plain_s),
        median(&log.spans_s),
        median(&log.telemetry_s),
    );
    table.set("trace.trial_s_plain", plain);
    table.set("trace.trial_s_spans", spans);
    table.set("trace.trial_s_telemetry", telemetry);
    table.set("trace.span_overhead_frac", spans / plain - 1.0);
    table.set("telemetry.overhead_frac", telemetry / plain - 1.0);
    table.set("model.fingerprint_ok", f64::from(u8::from(log.corpus_ok)));

    let scaled = |n: u64| (n / log.probe_divisor).max(1);
    let (samples, ns) = probe(tr, "link.samples", || entry::link_samples(scaled(50_000)));
    table.set("link.ns_per_sample", ns / samples as f64);
    let (deviates, ns) = probe(tr, "rng.deviates", || {
        entry::rng_deviates(scaled(2_000_000))
    });
    table.set("rng.ns_per_deviate", ns / deviates as f64);

    let mut youtube = YoutubeProbe::new()?;
    let bootstraps = scaled(2_000);
    let (result, ns) = probe(tr, "youtube.bootstrap", || {
        (0..bootstraps).try_for_each(|_| youtube.bootstrap())
    });
    result?;
    table.set("youtube.watch_request_us", ns / bootstraps as f64 / 1e3);
    let checks = scaled(2_000_000);
    let (admitted, ns) = probe(tr, "youtube.grant_checks", || youtube.grant_checks(checks));
    if admitted != checks {
        return Err(format!(
            "youtube probe: {admitted} of {checks} checks admitted"
        ));
    }
    table.set("youtube.grant_check_ns", ns / checks as f64);

    let text = youtube.watch_json().to_string();
    let (bytes, ns) = probe(tr, "json.parse", || entry::json_parse(&text, scaled(5_000)));
    table.set("json.parse_ns_per_kb", ns / (bytes? as f64 / 1024.0));
    let value = entry::json_from_str(&text).map_err(|e| format!("{e:?}"))?;
    let (bytes, ns) = probe(tr, "json.serialize", || {
        entry::json_serialize(&value, scaled(5_000))
    });
    table.set("json.ser_ns_per_kb", ns / (bytes as f64 / 1024.0));
    let (requests, ns) = probe(tr, "http.codec", || entry::http_codec(scaled(50_000)));
    table.set("http.codec_ns_per_request", ns / requests? as f64);
    Ok(())
}

/// What [`session_layers`] learned that the cluster rows build on.
pub struct SessionSummary {
    /// `sweep::run_serial` wall seconds over the trial's cells.
    pub serial_s: f64,
    /// Wall µs of one session of a plain trial.
    pub session_us: f64,
}

/// The `sim`, `event`, `tcp`, `youtube`, `sweep` and `model` rows of a
/// session sweep that has run trials in all three modes; `plain_trial_s` is
/// its plain trial time. Needs the probe costs [`common_layers`] put in the
/// table.
///
/// Shares are of the *plain* session time. The bootstrap/stream split and
/// the counters come from telemetry-on trials, so those two times include
/// what telemetry costs (`telemetry.overhead_frac`).
pub fn session_layers(
    sweep: &mut SessionSweep,
    tr: &mut Tracer,
    plain_trial_s: f64,
    table: &mut LayerTable,
) -> Result<SessionSummary, String> {
    let telemetry = entry::telemetry_snapshot();
    let n = sweep.counted_sessions as f64;
    if n == 0.0 {
        return Err("no telemetry-on trial ran".into());
    }
    let per_session = |counter: &str| telemetry.counter(counter) as f64 / n;
    let sessions: Vec<&entry::SessionMetrics> = sweep.last.iter().flatten().collect();
    let trial_n = sessions.len() as f64;

    // sim: whole sessions, as run_batch(&[seed]) calls timed from outside,
    // and the program's two existing phase accumulators.
    let plain_ns = plain_trial_s * 1e9 / trial_n;
    table.set("sim.session_us_plain", plain_ns / 1e3);
    let session_ns = tr.durations_ns("sim.session");
    table.set("sim.session_us_p50", median(&session_ns) / 1e3);
    table.set("sim.session_us_p99", percentile(&session_ns, 0.99) / 1e3);
    table.set(
        "sim.bootstrap_us_per_session",
        telemetry.phase_ns("session.bootstrap") as f64 / n / 1e3,
    );
    table.set(
        "sim.stream_us_per_session",
        telemetry.phase_ns("session.stream") as f64 / n / 1e3,
    );
    let events = sessions.iter().map(|m| m.events).sum::<u64>() as f64 / trial_n;
    let chunks = sessions.iter().map(|m| m.chunks.len()).sum::<usize>() as f64 / trial_n;
    table.set("sim.events_per_session", events);
    table.set("sim.chunks_per_session", chunks);
    table.set("sim.ns_per_event", plain_ns / events);
    table.set(
        "sim.host_new_us",
        mean(&tr.durations_ns("sim.host_new")) / 1e3,
    );

    // model: simulated time. A change that only speeds the simulator up
    // must leave these identical.
    let prebuffer: Vec<f64> = sessions
        .iter()
        .filter_map(|m| m.prebuffer_time())
        .map(|d| d.as_secs_f64())
        .collect();
    table.set("model.prebuffer_s_p50", median(&prebuffer));
    table.set("model.prebuffer_s_p95", percentile(&prebuffer, 0.95));

    // event: the program's own op counters, and an isolated replay of that
    // mix at the workload's event spacing.
    let (pushes, pops, cancels) = (
        per_session("msp_event_pushes_total"),
        per_session("msp_event_pops_total"),
        per_session("msp_event_cancels_total"),
    );
    let ops = pushes + pops + cancels;
    table.set("event.ops_per_session", ops);
    table.set("event.cancels_per_session", cancels);
    let horizon_us = sessions
        .iter()
        .filter_map(|m| m.ended_at)
        .map(|t| t.as_micros())
        .sum::<u64>() as f64
        / trial_n;
    let mix = EventMix {
        pops: pops.round() as u64,
        cancels: cancels.round() as u64,
        horizon_us: horizon_us as u64,
    };
    let replayed = (2_000_000.0 / ops.max(1.0)).ceil() as u64;
    let requests = per_session("msp_transfer_requests_total");
    table.set("tcp.requests_per_session", requests);

    // The host's speed drifts between the trial loop and the probes, so a
    // share is a probe's time over the time of a plain trial run right
    // beside it, and the median of a few such pairs is reported. tcp: every
    // 4th session's request chains replayed on fresh links.
    let (mut event_ns, mut event_shares) = (Vec::new(), Vec::new());
    let (mut tcp_ns, mut tcp_shares) = (Vec::new(), Vec::new());
    let mut tally = TcpTally::default();
    for _ in 0..PROBE_REPS {
        let open = tr.open("sim.reference_trial");
        sweep.trial(tr, Mode::Plain)?;
        let beside_ns = tr.close(open) as f64 / trial_n;

        let (replay_ops, ns) = timed(tr, "event.replay", || entry::event_replay(replayed, mix));
        let ns_per_op = ns / replay_ops as f64;
        event_ns.push(ns_per_op);
        event_shares.push(ops * ns_per_op / beside_ns);

        tally = TcpTally::default();
        let open = tr.open("tcp.replay");
        for (kind, out) in sweep.kinds.iter().zip(&sweep.last) {
            for (m, seed) in out.iter().zip(&kind.seeds).step_by(TCP_REPLAY_STRIDE) {
                entry::tcp_replay(&kind.spec, m, *seed, &mut tally);
            }
        }
        let ns_per_round = tr.close(open) as f64 / tally.rounds as f64;
        tcp_ns.push(ns_per_round);
        let rounds_per_request = tally.rounds as f64 / tally.requests as f64;
        tcp_shares.push(requests * rounds_per_request * ns_per_round / beside_ns);
    }
    let (event_share, tcp_share) = (median(&event_shares), median(&tcp_shares));
    table.set("event.ns_per_op", median(&event_ns));
    table.set("event.est_share", event_share);
    let rounds = tally.rounds as f64;
    table.set("tcp.fast_round_frac", tally.fast_rounds as f64 / rounds);
    table.set("tcp.solved_round_frac", tally.solved_rounds as f64 / rounds);
    table.set("tcp.rounds_per_request", rounds / tally.requests as f64);
    table.set("tcp.ns_per_round", median(&tcp_ns));
    table.set("tcp.est_share", tcp_share);

    // youtube: per-chunk grant checks, plus full bootstraps on the (rare)
    // boot-cache misses.
    let checks = per_session("msp_admission_checks_total");
    table.set("youtube.grant_checks_per_session", checks);
    let youtube_share = (checks * table.get("youtube.grant_check_ns")
        + per_session("msp_grants_issued_total") * table.get("youtube.watch_request_us") * 1e3)
        / plain_ns;
    table.set("youtube.est_share", youtube_share);
    table.set(
        "sim.residual_share",
        1.0 - event_share - tcp_share - youtube_share,
    );

    // sweep: the two in-process executors over this trial's cells.
    let (cells, ns) = timed(tr, "sweep.expand", || {
        sweep
            .kinds
            .iter()
            .flat_map(|k| {
                k.seeds
                    .iter()
                    .map(|s| entry::cell(&k.workload, k.scheduler, k.chunk_kb, *s))
            })
            .collect::<Vec<_>>()
    });
    table.set("sweep.expand_us", ns / 1e3);
    let (done, serial_ns) = timed(tr, "sweep.run_serial", || entry::run_serial(&cells));
    let threads = crate::host::nproc();
    let (done_parallel, parallel_ns) = timed(tr, "sweep.run_parallel", || {
        entry::run_parallel(&cells, threads)
    });
    if done != cells.len() || done_parallel != cells.len() {
        return Err(format!(
            "sweep executors completed {done} and {done_parallel} of {} cells",
            cells.len()
        ));
    }
    table.set("sweep.parallel_speedup", serial_ns / parallel_ns);
    Ok(SessionSummary {
        serial_s: serial_ns / 1e9,
        session_us: plain_ns / 1e3,
    })
}

/// The `cluster` rows, and — from in-process passes over the same cells in
/// each mode — the session-level rows of `cluster_ticks`.
pub fn cluster_layers(
    cluster: &mut ClusterTicks,
    tr: &mut Tracer,
    log: &TrialLog,
    table: &mut LayerTable,
) -> Result<(), String> {
    let trial_s = median(&log.plain_s);
    table.set("cluster.trial_s", trial_s);
    let trials = (log.plain_s.len() + log.spans_s.len() + log.telemetry_s.len()).max(1) as f64;
    table.set("cluster.worker_cpu_s", log.children_cpu_s / trials);
    for (name, sum) in [
        "cluster.reassignments",
        "cluster.inline_runs",
        "cluster.respawns",
        "cluster.duplicates",
    ]
    .into_iter()
    .zip(cluster.retries)
    {
        table.set(name, sum as f64);
    }

    // The same cells in this process, one pass in each mode (the plain one
    // first, as its warm-up, then timed).
    entry::telemetry_reset();
    let mut twin = cluster.in_process_twin(tr)?;
    twin.trial(tr, Mode::Plain)?;
    let open = tr.open("cluster.twin_plain");
    twin.trial(tr, Mode::Plain)?;
    let twin_plain_s = tr.close(open) as f64 / 1e9;
    twin.trial(tr, Mode::Spans)?;
    twin.trial(tr, Mode::Telemetry)?;
    let summary = session_layers(&mut twin, tr, twin_plain_s, table)?;
    table.set("cluster.inproc_ref_s", summary.serial_s);
    table.set("cluster.speedup_vs_inproc", summary.serial_s / trial_s);

    cluster.serial_reference(tr)?;
    table.set(
        "cluster.serial_artifact_s",
        mean(&tr.durations_ns("cluster.serial_artifact")) / 1e9,
    );

    // What a worker adds to each session: the digest of its metrics.
    let sampled: Vec<&entry::SessionMetrics> =
        twin.last.iter().flatten().step_by(DIGEST_STRIDE).collect();
    let (_, ns) = probe(tr, "cluster.digest", || {
        sampled.iter().map(|m| entry::digest(m)).fold(0, u64::max)
    });
    let digest_us = ns / sampled.len() as f64 / 1e3;
    table.set("cluster.digest_us_per_session", digest_us);
    table.set(
        "cluster.digest_share",
        digest_us / (digest_us + summary.session_us),
    );

    let rows_per_frame = cluster.manifest.shard_cells;
    let frames = 200;
    let (result, ns) = probe(tr, "cluster.frames", || {
        (0..frames).try_fold(0, |rows, _| {
            entry::frame_roundtrip(rows_per_frame).map(|n| rows + n)
        })
    });
    table.set("cluster.frame_ns_per_row", ns / result? as f64);

    let cells = entry::expand(&cluster.manifest)?;
    let (merged, ns) = probe(tr, "cluster.merge", || {
        entry::merge(&cluster.manifest, &cells)
    });
    merged?;
    table.set("cluster.merge_ms", ns / 1e6);

    // Floor of one cluster run: spawn, handshake, one cell, drain.
    let floor = entry::manifest("benchmark_spawn_floor", &["testbed/WiFi"], 1, 1);
    let spawns: Vec<f64> = (0..5)
        .map(|_| {
            let (outcome, ns) = timed(tr, "cluster.spawn_floor", || {
                entry::run_cluster(&floor, 1, cluster.program.clone())
            });
            outcome.map(|_| ns)
        })
        .collect::<Result<_, _>>()?;
    table.set("cluster.spawn_ms", median(&spawns) / 1e6);
    Ok(())
}

/// The `fleet` rows.
pub fn fleet_layers(fleet: &FleetFluid, tr: &mut Tracer, log: &TrialLog, table: &mut LayerTable) {
    table.set("fleet.new_ms", mean(&tr.durations_ns("fleet.new")) / 1e6);
    let run_ns: Vec<f64> = FLEET_SPANS
        .iter()
        .map(|name| median(&tr.durations_ns(name)))
        .collect();
    table.set("fleet.run_ms_headline", run_ns[0] / 1e6);
    table.set("fleet.run_ms_overload", run_ns[1] / 1e6);
    let sum = |f: fn(&entry::FleetMetrics) -> u64| fleet.last.iter().map(f).sum::<u64>() as f64;
    let (events, sessions) = (sum(|m| m.events), sum(|m| m.sessions));
    let total_ns: f64 = run_ns.iter().sum();
    table.set("fleet.events_per_s", events / (total_ns / 1e9));
    table.set("fleet.events_per_session", events / sessions);
    table.set("fleet.ns_per_event", total_ns / events);
    table.set(
        "fleet.bytes_per_session",
        log.first_trial_rss_bytes / sessions,
    );
    table.set("fleet.stalled_sessions", sum(|m| m.stalled_sessions));
    table.set("fleet.rejected", sum(|m| m.rejected));
    if let Some(headline) = fleet.last.first() {
        table.set("model.prebuffer_s_p50", headline.startup_p50_secs);
        table.set("model.prebuffer_s_p95", headline.startup_p95_secs);
    }
}
