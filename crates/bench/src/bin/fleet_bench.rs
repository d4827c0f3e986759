//! `fleet_bench` — population-scale coupled fleet simulation and records
//! `BENCH_fleet.json`.
//!
//! Three sections:
//!
//! * `headline` — the fluid backend driving 120k concurrent coupled
//!   sessions (eight 40 Gbit/s replicas, ~94% offered load at peak) on
//!   one box: per-server utilization timelines, the rebuffer-vs-load
//!   curve, startup percentiles, and events/sec;
//! * `frontier` — the policy × capacity grid (3 selection policies ×
//!   under/matched/over provisioning) with each cell's (cost, QoE) point
//!   and its Pareto-frontier membership;
//! * `exact` — a small exact-mode anchor: full per-chunk sessions under
//!   shared fleet load, same spec surface as the fluid runs.
//!
//! ```sh
//! cargo run --release -p msplayer-bench --bin fleet_bench
//! MSP_FLEET_SESSIONS=20000 cargo run --release -p msplayer-bench --bin fleet_bench  # smaller
//! ```

use msplayer_bench::env_or_exit;
use msplayer_bench::fleet::{exact_anchor_spec, frontier_specs, headline_spec};
use msplayer_bench::sweep::bench_dir;
use msplayer_core::chaos::check_fleet_invariants;
use msplayer_core::fleet::{pareto_frontier, FleetHost, FleetMetrics, FleetSpec};
use std::path::Path;
use std::time::Instant;

/// A session-count knob as read from the environment (`None` = unset,
/// meaning `default`).
fn parse_sessions(var: &str, default: u64, value: Option<&str>) -> Result<u64, String> {
    let Some(v) = value else { return Ok(default) };
    match v.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{var}={v:?}: expected a positive integer")),
    }
}

fn env_sessions(var: &str, default: u64) -> u64 {
    env_or_exit(var, |v| parse_sessions(var, default, v))
}

/// Runs `spec` to completion under the fleet invariant oracle: a run that
/// violates it prints every violation and exits 1, which is what makes
/// CI's fleet step a gate.
fn run_checked(label: &str, spec: FleetSpec) -> (FleetMetrics, f64) {
    let mut host = FleetHost::new(spec).expect("named fleet spec validates");
    let t0 = Instant::now();
    let metrics = host.run();
    let wall = t0.elapsed().as_secs_f64();
    let violations = check_fleet_invariants(host.spec(), &metrics);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("fleet_bench: {label}: {v}");
        }
        std::process::exit(1);
    }
    (metrics, wall)
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

fn main() {
    msim_testbed::install_shutdown_handler();
    let bench_dir = env_or_exit("MSP_BENCH_DIR", bench_dir);
    let headline_sessions = env_sessions("MSP_FLEET_SESSIONS", 120_000);
    let frontier_sessions = env_sessions("MSP_FLEET_FRONTIER_SESSIONS", 20_000);
    let exact_sessions = env_sessions("MSP_FLEET_EXACT_SESSIONS", 32);
    // MSP_METRICS_ADDR=127.0.0.1:9465 exposes the live telemetry registry
    // (fleet arrivals/rejections/concurrency gauge) while the bench runs.
    let _obs = match std::env::var("MSP_METRICS_ADDR") {
        Ok(addr) if !addr.is_empty() => {
            msim_core::telemetry::set_enabled(true);
            msim_core::telemetry::register_core_counters();
            match msim_testbed::ObsServer::start(&addr, msim_testbed::ObsServer::no_jobs()) {
                Ok(server) => {
                    eprintln!("fleet_bench: metrics on http://{}/metrics", server.addr);
                    Some(server)
                }
                Err(e) => {
                    eprintln!("fleet_bench: bind metrics {addr}: {e}");
                    None
                }
            }
        }
        _ => None,
    };

    // Headline: population-scale fluid run.
    let (headline, headline_wall) = run_checked("headline", headline_spec(headline_sessions));
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

    if msim_testbed::shutdown_requested() {
        flush_interrupted(
            &bench_dir,
            msim_json::Value::object()
                .with("name", "fleet")
                .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
                .with("headline", metrics_json(&headline, headline_wall)),
        );
    }

    // Frontier: policy × capacity grid.
    let mut frontier_rows: Vec<msim_json::Value> = Vec::new();
    let mut points: Vec<(f64, f64)> = Vec::new();
    let cases = frontier_specs(frontier_sessions);
    let mut case_meta: Vec<(String, f64)> = Vec::new();
    for case in cases {
        if msim_testbed::shutdown_requested() {
            flush_interrupted(
                &bench_dir,
                msim_json::Value::object()
                    .with("name", "fleet")
                    .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
                    .with("headline", metrics_json(&headline, headline_wall))
                    .with("frontier", msim_json::Value::Array(frontier_rows)),
            );
        }
        let (m, wall) = run_checked(&case.label, case.spec);
        let (cost, qoe) = m.cost_qoe();
        println!(
            "frontier {:<24} cost {:>8.1}  qoe {:>6.2}  stalled {:>6}  rejected {:>6}  ({:.2}s)",
            case.label, cost, qoe, m.stalled_sessions, m.rejected, wall
        );
        points.push((cost, qoe));
        case_meta.push((case.label.clone(), case.capacity_scale));
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
            .map(|&i| case_meta[i].0.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    );

    if msim_testbed::shutdown_requested() {
        flush_interrupted(
            &bench_dir,
            msim_json::Value::object()
                .with("name", "fleet")
                .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
                .with("headline", metrics_json(&headline, headline_wall))
                .with("frontier", msim_json::Value::Array(frontier_rows)),
        );
    }

    // Exact anchor: per-chunk sessions under shared load.
    let (exact, exact_wall) = run_checked("exact anchor", exact_anchor_spec(exact_sessions));
    println!(
        "exact anchor: {} per-chunk sessions in {:.2}s ({} completed, peak {} concurrent)",
        exact.sessions, exact_wall, exact.completed, exact.peak_concurrent
    );

    let json = msim_json::Value::object()
        .with("name", "fleet")
        .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
        .with("headline", metrics_json(&headline, headline_wall))
        .with("frontier", msim_json::Value::Array(frontier_rows))
        .with("exact", metrics_json(&exact, exact_wall));
    let path = bench_dir.join("BENCH_fleet.json");
    std::fs::write(&path, msim_json::to_string_pretty(&json)).expect("write bench json");
    println!("[bench] {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::parse_sessions;

    #[test]
    fn session_knobs_accept_positive_integers_and_default_when_unset() {
        assert_eq!(
            parse_sessions("MSP_FLEET_SESSIONS", 120_000, None),
            Ok(120_000)
        );
        assert_eq!(
            parse_sessions("MSP_FLEET_SESSIONS", 120_000, Some(" 500 ")),
            Ok(500)
        );
    }

    #[test]
    fn session_knobs_reject_zero_and_garbage_naming_the_variable() {
        for bad in ["0", "two", "-3", "2.5", ""] {
            let err = parse_sessions("MSP_FLEET_EXACT_SESSIONS", 32, Some(bad)).unwrap_err();
            assert_eq!(
                err,
                format!("MSP_FLEET_EXACT_SESSIONS={bad:?}: expected a positive integer")
            );
        }
    }
}
