//! # msplayer-bench — experiment harness
//!
//! Shared workload generators and sweep runners behind the per-figure bench
//! targets. Each bench binary (`benches/figN_*.rs`) calls into this crate,
//! prints the paper-style table/series, and writes CSV under
//! `target/figures/`.
//!
//! Run counts default to the paper's 20 repetitions; set `MSP_RUNS` to
//! override (smoke tests use 5). A bench builds its registry with
//! `WorkloadRegistry::builtin(runs())` and hands the named workloads to the
//! figure helpers below.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cluster;
pub mod corpus;
pub mod fleet;
pub mod sampling;
pub mod sweep;
pub mod workload;

use msim_core::stats::BoxStats;
use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::metrics::{SessionMetrics, TrafficPhase};
use msplayer_core::sim::{ServiceSpec, SessionHost, SessionSpec, StopCondition};
use workload::WorkloadSpec;

/// Number of seeded repetitions per configuration (paper: "repeat this 20
/// times"). Override with `MSP_RUNS` (a positive integer); unset means 20.
///
/// The env var is read **once** and cached in a `OnceLock`, so `MSP_RUNS`
/// must be set before the first call (process start does this naturally).
/// A value that is not a positive integer ends the process (exit code 2)
/// at that first read, before any session runs.
pub fn runs() -> u64 {
    static RUNS: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *RUNS.get_or_init(|| env_or_exit("MSP_RUNS", parse_runs))
}

/// Reads the environment variable `var` through `parse` (`None` = unset).
/// A value `parse` refuses ends the process: its one-line message on
/// stderr, exit code 2.
pub fn env_or_exit<T>(var: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    parse(std::env::var(var).ok().as_deref()).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2);
    })
}

/// `MSP_RUNS` as read from the environment (`None` = unset) to a run count.
fn parse_runs(value: Option<&str>) -> Result<u64, String> {
    let Some(v) = value else { return Ok(20) };
    match v.trim().parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("MSP_RUNS={v:?}: expected a positive integer")),
    }
}

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

/// Convenience: boxplot stats of a sample.
pub fn boxstats(samples: &[f64]) -> BoxStats {
    BoxStats::from_sample(samples)
}

#[cfg(test)]
mod tests {
    use super::parse_runs;

    #[test]
    fn msp_runs_accepts_positive_integers_and_defaults_to_twenty() {
        assert_eq!(parse_runs(None), Ok(20));
        assert_eq!(parse_runs(Some("5")), Ok(5));
        assert_eq!(parse_runs(Some(" 100 ")), Ok(100));
    }

    #[test]
    fn msp_runs_rejects_zero_and_garbage_naming_the_variable() {
        for bad in ["0", "two", "-3", "2.5", ""] {
            let err = parse_runs(Some(bad)).unwrap_err();
            assert!(
                err.contains("MSP_RUNS") && err.contains("positive integer"),
                "{err}"
            );
        }
    }
}
