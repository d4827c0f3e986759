//! `msplayer fleet`: population-scale coupled fleet runs, recorded as
//! `BENCH_fleet.json` in three sections. `headline` is the fluid backend
//! driving 120k coupled sessions (eight 40 Gbit/s replicas, ~94% offered
//! load at peak): per-server utilization, the rebuffer-vs-load curve,
//! startup percentiles, events/sec. `frontier` is the selection policy ×
//! capacity grid, each cell a (cost, QoE) point marked on or off the
//! Pareto frontier. `exact` is a small anchor of full per-chunk sessions
//! under shared load. The fleet oracle checks every run; a violation
//! exits 1.

use crate::Set::Value;
use crate::{parsed, positive, Flag};
use msplayer_bench::fleet::{exact_anchor_spec, frontier_specs, headline_spec};
use msplayer_core::chaos::check_fleet_invariants;
use msplayer_core::fleet::{pareto_frontier, FleetHost, FleetMetrics, FleetSpec};
use std::path::Path;
use std::time::Instant;

struct Options {
    sessions: u64,
    frontier_sessions: u64,
    exact_sessions: u64,
    metrics: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            sessions: 120_000,
            frontier_sessions: 20_000,
            exact_sessions: 32,
            metrics: None,
        }
    }
}

const SYNOPSIS: &str = "fleet [flags] — the fleet headline, frontier grid and exact anchor";

#[rustfmt::skip]
const FLAGS: &[Flag<Options>] = &[
    ("--sessions", "<N> headline population [120000]", Value(|o, v| positive(v).map(|n| o.sessions = n))),
    ("--frontier-sessions", "<N> each frontier cell's population [20000]", Value(|o, v| positive(v).map(|n| o.frontier_sessions = n))),
    ("--exact-sessions", "<N> exact anchor population [32]", Value(|o, v| positive(v).map(|n| o.exact_sessions = n))),
    ("--metrics", "<ADDR> serve live /metrics on ADDR while it runs", Value(|o, v| parsed(v).map(|addr| o.metrics = Some(addr)))),
];

/// The named specs of `msplayer_bench::fleet` always validate.
const NAMED: &str = "named fleet spec validates";

/// Runs `spec` to completion under the fleet invariant oracle: a run that
/// violates it prints every violation and exits 1, which is what makes
/// CI's fleet step a gate. `Err` is a spec [`FleetHost::new`] refuses.
pub fn run_checked(label: &str, spec: FleetSpec) -> Result<(FleetMetrics, f64), String> {
    let mut host = FleetHost::new(spec)?;
    let t0 = Instant::now();
    let metrics = host.run();
    let wall = t0.elapsed().as_secs_f64();
    let violations = check_fleet_invariants(host.spec(), &metrics);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("fleet: {label}: {v}");
        }
        std::process::exit(1);
    }
    Ok((metrics, wall))
}

fn metrics_json(m: &FleetMetrics, wall_secs: f64) -> msim_json::Value {
    let servers: Vec<msim_json::Value> = m
        .servers
        .iter()
        .map(|s| {
            msim_json::Value::object()
                .with("server", s.server as u64)
                .with("capacity_gbps", s.capacity_bps / 1e9)
                .with("served_gb", s.served_bytes as f64 / 1e9)
                .with("peak_sessions", s.peak_sessions)
                .with("cost", s.cost)
                .with("bucket_secs", s.bucket_secs)
                .with(
                    "utilization",
                    msim_json::Value::Array(s.utilization.iter().map(|&u| u.into()).collect()),
                )
        })
        .collect();
    let bins: Vec<msim_json::Value> = m
        .rebuffer_vs_load
        .iter()
        .filter(|b| b.sessions > 0)
        .map(|b| {
            msim_json::Value::object()
                .with("demand_lo", b.demand_lo)
                .with("demand_hi", b.demand_hi)
                .with("sessions", b.sessions)
                .with("stall_fraction", b.stall_fraction())
                .with("rejected", b.rejected)
        })
        .collect();
    msim_json::Value::object()
        .with("mode", m.mode.name())
        .with("policy", m.policy.name())
        .with("sessions", m.sessions)
        .with("peak_concurrent", m.peak_concurrent)
        .with("completed", m.completed)
        .with("rejected", m.rejected)
        .with("stalled_sessions", m.stalled_sessions)
        .with("events", m.events)
        .with("wall_secs", wall_secs)
        .with("events_per_sec", m.events as f64 / wall_secs.max(1e-9))
        .with("sessions_per_sec", m.sessions as f64 / wall_secs.max(1e-9))
        .with("startup_p50_secs", m.startup_p50_secs)
        .with("startup_p95_secs", m.startup_p95_secs)
        .with("total_stall_secs", m.total_stall_secs)
        .with("served_gb", m.total_served_bytes as f64 / 1e9)
        .with("total_cost", m.total_cost)
        .with("mean_qoe", m.mean_qoe)
        .with("servers", msim_json::Value::Array(servers))
        .with("rebuffer_vs_load", msim_json::Value::Array(bins))
}

/// Writes whatever sections finished before the interrupt and exits 130,
/// so a Ctrl-C'd run still leaves a parseable (marked-partial) artifact.
fn flush_interrupted(bench_dir: &Path, json: msim_json::Value) -> ! {
    let path = bench_dir.join("BENCH_fleet.json");
    let partial = json.with("interrupted", true);
    match std::fs::write(&path, msim_json::to_string_pretty(&partial)) {
        Ok(()) => eprintln!("[bench] interrupted — partial artifact {}", path.display()),
        Err(e) => eprintln!("[bench] interrupted; could not write partial artifact: {e}"),
    }
    std::process::exit(msim_testbed::signal::SIGINT_EXIT);
}

pub fn main(args: &[String], bench_dir: &Path) -> i32 {
    let opt = match crate::parse(args, SYNOPSIS, FLAGS) {
        Ok(opt) => opt,
        Err(code) => return code,
    };
    // The live telemetry registry (fleet arrivals/rejections/concurrency
    // gauge) while the bench runs.
    let _obs = match opt
        .metrics
        .as_deref()
        .map(|addr| crate::serve_metrics("fleet", addr, msim_testbed::ObsServer::no_jobs()))
    {
        Some(Err(code)) => return code,
        obs => obs,
    };

    // Headline: population-scale fluid run.
    let (headline, headline_wall) =
        run_checked("headline", headline_spec(opt.sessions)).expect(NAMED);
    println!(
        "headline: {} sessions (peak {} concurrent) in {:.2}s — {:.2}M events/s, \
         {} stalled, {} rejected, p95 startup {:.1}s, {:.0} GB served",
        headline.sessions,
        headline.peak_concurrent,
        headline_wall,
        headline.events as f64 / headline_wall.max(1e-9) / 1e6,
        headline.stalled_sessions,
        headline.rejected,
        headline.startup_p95_secs,
        headline.total_served_bytes as f64 / 1e9,
    );
    let artifact = msim_json::Value::object()
        .with("name", "fleet")
        .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
        .with("headline", metrics_json(&headline, headline_wall));
    if msim_testbed::shutdown_requested() {
        flush_interrupted(bench_dir, artifact);
    }

    // Frontier: policy × capacity grid.
    let mut frontier_rows: Vec<msim_json::Value> = Vec::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for case in frontier_specs(opt.frontier_sessions) {
        if msim_testbed::shutdown_requested() {
            flush_interrupted(
                bench_dir,
                artifact.with("frontier", msim_json::Value::Array(frontier_rows)),
            );
        }
        let (m, wall) = run_checked(&case.label, case.spec).expect(NAMED);
        let (cost, qoe) = m.cost_qoe();
        println!(
            "frontier {:<24} cost {:>8.1}  qoe {:>6.2}  stalled {:>6}  rejected {:>6}  ({:.2}s)",
            case.label, cost, qoe, m.stalled_sessions, m.rejected, wall
        );
        points.push((cost, qoe));
        labels.push(case.label.clone());
        frontier_rows.push(
            msim_json::Value::object()
                .with("label", case.label.as_str())
                .with("policy", case.policy.name())
                .with("capacity_scale", case.capacity_scale)
                .with("sessions", m.sessions)
                .with("cost", cost)
                .with("qoe", qoe)
                .with("stalled_sessions", m.stalled_sessions)
                .with("rejected", m.rejected)
                .with("total_stall_secs", m.total_stall_secs),
        );
    }
    let frontier_idx = pareto_frontier(&points);
    for (i, row) in frontier_rows.iter_mut().enumerate() {
        *row = row.clone().with("on_frontier", frontier_idx.contains(&i));
    }
    println!(
        "pareto frontier: {}",
        frontier_idx
            .iter()
            .map(|&i| labels[i].as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    let artifact = artifact.with("frontier", msim_json::Value::Array(frontier_rows));
    if msim_testbed::shutdown_requested() {
        flush_interrupted(bench_dir, artifact);
    }

    // Exact anchor: per-chunk sessions under shared load.
    let (exact, exact_wall) =
        run_checked("exact anchor", exact_anchor_spec(opt.exact_sessions)).expect(NAMED);
    println!(
        "exact anchor: {} per-chunk sessions in {:.2}s ({} completed, peak {} concurrent)",
        exact.sessions, exact_wall, exact.completed, exact.peak_concurrent
    );

    let artifact = artifact.with("exact", metrics_json(&exact, exact_wall));
    let path = bench_dir.join("BENCH_fleet.json");
    if let Err(e) = std::fs::write(&path, msim_json::to_string_pretty(&artifact)) {
        eprintln!("fleet: {}: {e}", path.display());
        return 1;
    }
    println!("[bench] {}", path.display());
    0
}
