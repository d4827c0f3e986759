//! The frozen sampling-stream fingerprint corpus.
//!
//! A stream-epoch change (epoch 2: draw tables filled in blocks through
//! the `vmath` kernels; epoch 3: the rate process on its own grid, loss
//! drawn by gap) is a sanctioned redefinition of the repo's deviate
//! bit-streams. This module pins the *current* streams: a committed JSON
//! artifact maps `(workload, scheduler, chunk, seed)` to the
//! [`digest_metrics`] of the session it produces — the structural
//! [`SessionMetrics::digest`](msplayer_core::metrics::SessionMetrics::digest):
//! every field folded in declaration order as 64-bit words (times in µs,
//! `f64::to_bits`, enum discriminants, a length before each `Vec`, a tag
//! before each `Option`), so it pins sessions bit for bit (`-0.0` ≠ `0.0`,
//! NaN payloads distinguished) independently of how the toolchain prints
//! floats. The artifact records the [`DIGEST_EPOCH`] it was digested
//! under beside the `stream_epoch`, and loading refuses either mismatch.
//! Three properties are asserted over the corpus (see
//! `tests/sampling_corpus.rs`):
//!
//! 1. **Frozen replay** — every committed digest reproduces on the block
//!    (production) path, so any accidental stream drift is a red test, not
//!    a silent figure change;
//! 2. **Differential modes** — the scalar-reference fill path
//!    ([`DeviateMode::ScalarRef`]) digests identically, proving the block
//!    math *is* the scalar math and not an approximation of it;
//! 3. **Batching invisibility** — warm-host [`run_batch`] runs digest
//!    identically to fresh-host serial runs.
//!
//! The corpus covers every builtin workload, so a new workload registered
//! without a fingerprint shows up as a coverage failure rather than
//! sliding in unpinned.
//!
//! [`run_batch`]: msplayer_core::sim::SessionHost::run_batch

use crate::cluster::merge::{digest_metrics, hex_u64, parse_hex_u64, DIGEST_EPOCH};
use crate::workload::WorkloadRegistry;
use msim_core::rng::DeviateMode;
use msim_json::Value;
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::SessionHost;
use std::path::{Path, PathBuf};

/// One pinned `(workload grid point, seed) → digest` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Workload name (registry key).
    pub workload: String,
    /// Scheduler label ([`SchedulerKind::name`]).
    pub scheduler: String,
    /// Base chunk size in KB.
    pub chunk_kb: u64,
    /// Session seed.
    pub seed: u64,
    /// [`digest_metrics`] of the completed session.
    pub digest: u64,
}

/// Seeds pinned per workload. Two seeds keep the corpus sensitive to
/// seed-dependent paths (the first seed of a workload often exercises a
/// different scheduler trajectory than the second) at ~2× the cost.
pub const SEEDS_PER_WORKLOAD: u64 = 2;

/// The committed corpus location: `tests/sampling_corpus/fingerprints.json`
/// at the workspace root (sibling of the chaos corpus).
pub fn corpus_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("tests")
        .join("sampling_corpus")
        .join("fingerprints.json")
}

/// The grid points the corpus pins: for every builtin workload, its first
/// (scheduler, chunk) cell at [`SEEDS_PER_WORKLOAD`] seeds. One cell per
/// workload keeps the corpus fast enough for tier-1 while still covering
/// every path profile, player family, and stop condition in the registry.
pub fn corpus_points(reg: &WorkloadRegistry) -> Vec<(String, SchedulerKind, u64, u64)> {
    let mut points = Vec::new();
    for w in reg.specs() {
        let scheduler = w.schedulers[0];
        let chunk_kb = w.chunk_kb[0];
        for run in 0..SEEDS_PER_WORKLOAD {
            points.push((w.name.clone(), scheduler, chunk_kb, w.seed(run)));
        }
    }
    points
}

/// Runs one grid point to completion on a fresh host and digests its
/// metrics. `mode` selects the deviate fill path for every stochastic
/// stream of every link in the session.
pub fn digest_point(
    reg: &WorkloadRegistry,
    workload: &str,
    scheduler: SchedulerKind,
    chunk_kb: u64,
    seed: u64,
    mode: DeviateMode,
) -> u64 {
    let w = reg
        .by_name(workload)
        .unwrap_or_else(|| panic!("workload {workload:?} not in registry"));
    let mut spec = w.session_spec(scheduler, chunk_kb, seed);
    for path in &mut spec.paths {
        path.profile = path.profile.clone().with_deviate_mode(mode);
    }
    let mut host = SessionHost::new(w.service.clone());
    let metrics = host.run(&spec).expect("registered workloads validate");
    digest_metrics(&metrics)
}

/// Computes the full corpus in the given mode (fresh host per session).
pub fn compute_fingerprints(reg: &WorkloadRegistry, mode: DeviateMode) -> Vec<Fingerprint> {
    corpus_points(reg)
        .into_iter()
        .map(|(workload, scheduler, chunk_kb, seed)| {
            let digest = digest_point(reg, &workload, scheduler, chunk_kb, seed, mode);
            Fingerprint {
                workload,
                scheduler: scheduler.name().to_string(),
                chunk_kb,
                seed,
                digest,
            }
        })
        .collect()
}

/// Serialises the corpus. Seeds and digests travel as fixed-width hex
/// (the JSON layer stores numbers as `f64`, exact only to 2^53).
pub fn to_json(fps: &[Fingerprint]) -> Value {
    let rows: Vec<Value> = fps
        .iter()
        .map(|f| {
            Value::object()
                .with("workload", f.workload.as_str())
                .with("scheduler", f.scheduler.as_str())
                .with("chunk_kb", f.chunk_kb)
                .with("seed", hex_u64(f.seed))
                .with("digest", hex_u64(f.digest))
        })
        .collect();
    Value::object()
        .with("schema", "sampling-fingerprints")
        .with("stream_epoch", msim_core::rng::STREAM_EPOCH as u64)
        .with("digest_epoch", DIGEST_EPOCH as u64)
        .with("fingerprints", Value::Array(rows))
}

/// Parses a corpus artifact, rejecting rows recorded against a different
/// stream epoch or digest epoch — replaying those *should* fail, so
/// failing at load time gives the actionable message instead of a wall of
/// digest mismatches.
pub fn from_json(v: &Value) -> Result<Vec<Fingerprint>, String> {
    let epoch = v
        .get("stream_epoch")
        .and_then(Value::as_u64)
        .ok_or("corpus missing stream_epoch")?;
    if epoch != msim_core::rng::STREAM_EPOCH as u64 {
        return Err(format!(
            "corpus stream_epoch {epoch} != current {} — regenerate with \
             `cargo test -p msplayer-bench --test sampling_corpus -- --ignored`",
            msim_core::rng::STREAM_EPOCH
        ));
    }
    // A corpus from before the field existed holds epoch-1 digests.
    let digest_epoch = match v.get("digest_epoch") {
        None => 1,
        Some(e) => e.as_u64().ok_or("corpus digest_epoch is not an integer")?,
    };
    if digest_epoch != DIGEST_EPOCH as u64 {
        return Err(format!(
            "corpus digest_epoch {digest_epoch} != current {DIGEST_EPOCH} — its digests \
             follow another definition of the session digest; regenerate with \
             `cargo test -p msplayer-bench --test sampling_corpus -- --ignored`"
        ));
    }
    let rows = v
        .get("fingerprints")
        .and_then(Value::as_array)
        .ok_or("corpus missing fingerprints array")?;
    rows.iter()
        .map(|r| {
            let text = |k: &str| {
                r.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("fingerprint row missing {k:?}"))
            };
            Ok(Fingerprint {
                workload: text("workload")?,
                scheduler: text("scheduler")?,
                chunk_kb: r
                    .get("chunk_kb")
                    .and_then(Value::as_u64)
                    .ok_or("fingerprint row missing chunk_kb")?,
                seed: parse_hex_u64(&text("seed")?)?,
                digest: parse_hex_u64(&text("digest")?)?,
            })
        })
        .collect()
}

/// Loads the committed corpus from [`corpus_path`].
pub fn load_corpus() -> Result<Vec<Fingerprint>, String> {
    let path = corpus_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let v = msim_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    from_json(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_round_trips_through_json() {
        let fps = vec![Fingerprint {
            workload: "testbed/MSPlayer".into(),
            scheduler: "Harmonic".into(),
            chunk_kb: 256,
            seed: 0x1234_5678_9abc_def0,
            digest: 0xfeed_face_cafe_beef,
        }];
        let parsed = from_json(&to_json(&fps)).expect("round trip");
        assert_eq!(parsed, fps);
    }

    #[test]
    fn stale_epoch_is_rejected_at_load() {
        let stale = to_json(&[]).with("stream_epoch", 1u64);
        let err = from_json(&stale).expect_err("stale epoch must not load");
        assert!(err.contains("stream_epoch"), "unhelpful error: {err}");
    }

    #[test]
    fn other_digest_epoch_is_rejected_at_load() {
        let current = to_json(&[]);
        assert_eq!(
            current.get("digest_epoch").and_then(Value::as_u64),
            Some(DIGEST_EPOCH as u64)
        );
        let Value::Object(mut fields) = current.clone() else {
            panic!("corpus artifact is an object");
        };
        fields.remove("digest_epoch");
        for other in [current.with("digest_epoch", 1u64), Value::Object(fields)] {
            let err = from_json(&other).expect_err("epoch-1 digests must not load");
            assert!(err.contains("digest_epoch"), "unhelpful error: {err}");
            assert!(err.contains("--ignored"), "no way forward in: {err}");
        }
    }
}
