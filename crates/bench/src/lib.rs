//! # msplayer-bench — experiment harness
//!
//! Workload generators, the sweep engine, the chaos explorer, the
//! distributed sweep service and the fleet workloads behind the `msplayer`
//! binary (`src/bin/msplayer/`). Its `scorecard` subcommand builds
//! `WorkloadRegistry::builtin(20)`, the paper's 20 repetitions, and hands
//! the named workloads to the figure helpers below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod corpus;
pub mod fleet;
pub mod sampling;
pub mod sweep;
pub mod workload;

use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::metrics::{SessionMetrics, TrafficPhase};
use msplayer_core::sim::{ServiceSpec, SessionHost, SessionSpec, StopCondition};
use workload::WorkloadSpec;

/// Base seed; combined with run index so each repetition is independent but
/// reproducible.
pub const BASE_SEED: u64 = 0x4d53_506c_6179_6572; // "MSPlayer"

/// Runs one experiment shape over `w.runs` seeds on a single warmed
/// [`SessionHost`]: `w`'s paths under `player` until `stop`, the workload's
/// per-repetition seeds salted with `seed_salt`. Every figure helper below
/// goes through this — the batch API amortizes the control-plane bootstrap
/// without changing any session's outcome.
fn run_experiment(
    w: &WorkloadSpec,
    service: ServiceSpec,
    player: PlayerConfig,
    stop: StopCondition,
    seed_salt: u64,
) -> Vec<SessionMetrics> {
    let mut host = SessionHost::new(service);
    let spec = SessionSpec::new(0, w.paths.clone(), player).with_stop(stop);
    let seeds: Vec<u64> = (0..w.runs).map(|run| w.seed(run) ^ seed_salt).collect();
    host.run_batch(&seeds, &spec).expect("valid session spec")
}

/// Runs a pre-buffering experiment: download time (seconds) to accumulate
/// `prebuffer_secs` of video at one `(scheduler, chunk_kb)` point of `w`,
/// across `w.runs` seeds.
pub fn prebuffer_times(
    w: &WorkloadSpec,
    scheduler: SchedulerKind,
    chunk_kb: u64,
    prebuffer_secs: f64,
) -> Vec<f64> {
    let player = w
        .player_config(scheduler, chunk_kb)
        .with_prebuffer_secs(prebuffer_secs);
    run_experiment(
        w,
        w.service.clone(),
        player,
        StopCondition::PrebufferDone,
        0,
    )
    .iter()
    .map(|m| {
        m.prebuffer_time()
            .expect("prebuffer completes")
            .as_secs_f64()
    })
    .collect()
}

/// Runs a re-buffering experiment: each completed refill cycle's duration
/// (seconds), pooled across `w.runs` seeds × `cycles` cycles.
pub fn rebuffer_times(
    w: &WorkloadSpec,
    scheduler: SchedulerKind,
    chunk_kb: u64,
    refill_secs: f64,
    cycles: usize,
) -> Vec<f64> {
    let player = w
        .player_config(scheduler, chunk_kb)
        .with_prebuffer_secs(40.0)
        .with_rebuffer_secs(refill_secs);
    // Long enough for the requested cycles.
    let video_secs = 40.0 + (refill_secs + 60.0) * (cycles as f64 + 1.0);
    let service = w.service.clone().with_video_secs(video_secs);
    run_experiment(
        w,
        service,
        player,
        StopCondition::AfterRefills(cycles),
        0xBEEF,
    )
    .iter()
    .flat_map(|m| m.refills.iter().map(|r| r.duration().as_secs_f64()))
    .collect()
}

/// Runs the Table-1 experiment on `w` (the paper uses `youtube/MSPlayer`):
/// WiFi traffic fraction (percent) per phase, one sample per seed.
pub fn wifi_fractions(
    w: &WorkloadSpec,
    scheduler: SchedulerKind,
    chunk_kb: u64,
    prebuffer_secs: f64,
    cycles: usize,
) -> (Vec<f64>, Vec<f64>) {
    let player = w
        .player_config(scheduler, chunk_kb)
        .with_prebuffer_secs(prebuffer_secs);
    let video_secs = prebuffer_secs + 90.0 * (cycles as f64 + 1.0);
    let service = w.service.clone().with_video_secs(video_secs);
    let mut pre = Vec::new();
    let mut re = Vec::new();
    for m in run_experiment(
        w,
        service,
        player,
        StopCondition::AfterRefills(cycles),
        0x7AB1,
    ) {
        if let Some(f) = m.traffic_fraction(0, TrafficPhase::PreBuffering) {
            pre.push(f * 100.0);
        }
        if let Some(f) = m.traffic_fraction(0, TrafficPhase::ReBuffering) {
            re.push(f * 100.0);
        }
    }
    (pre, re)
}
