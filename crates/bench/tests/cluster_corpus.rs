//! Tier-1 corpus regression for the distributed sweep service: every
//! cluster-chaos case committed under `tests/cluster_corpus/` replays
//! green against a real coordinator and real worker processes.
//!
//! The committed cases pin the interesting fault schedules — a worker
//! kill, a stall across a lease expiry plus a coordinator crash/resume,
//! and a corrupt-framing worker next to a duplicating one — so a red
//! case here means a previously-working fault path regressed.

use msplayer_bench::cluster::{run_cluster_case, ClusterChaosCase};
use msplayer_bench::corpus;
use std::path::PathBuf;

fn sweepd() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_msplayer-sweepd"))
}

/// The pinned fault schedules. Committed via
/// `regenerate_committed_corpus` (below) so filenames always match the
/// deterministic naming scheme.
fn pinned_cases() -> Vec<ClusterChaosCase> {
    vec![
        // A worker process that really dies (exit 101) mid-lease.
        ClusterChaosCase {
            seed: 0x0001,
            workers: 2,
            shard_cells: 3,
            directives: vec!["0:crash-after-cells=1".into(), String::new()],
            stop_after: None,
            recorded_violations: Vec::new(),
        },
        // A stall past the lease deadline (speculative re-lease + late
        // duplicate) plus a simulated coordinator crash and resume.
        ClusterChaosCase {
            seed: 0x0002,
            workers: 2,
            shard_cells: 2,
            directives: vec!["0:stall-ms=900".into(), String::new()],
            stop_after: Some(1),
            recorded_violations: Vec::new(),
        },
        // One worker frames garbage, another duplicates its completion.
        ClusterChaosCase {
            seed: 0x0003,
            workers: 3,
            shard_cells: 4,
            directives: vec![
                "0:corrupt-done".into(),
                "1:duplicate-done".into(),
                String::new(),
            ],
            stop_after: None,
            recorded_violations: Vec::new(),
        },
    ]
}

#[test]
fn committed_cluster_corpus_replays_green() {
    let dir = corpus::dir::<ClusterChaosCase>();
    let corpus = corpus::load::<ClusterChaosCase>(&dir).expect("corpus readable");
    assert!(
        !corpus.is_empty(),
        "the committed cluster corpus must not be empty (looked in {})",
        dir.display()
    );
    let program = sweepd();
    for (path, case) in &corpus {
        let scratch = std::env::temp_dir().join(format!(
            "msp-cluster-corpus-{}-{:016x}",
            std::process::id(),
            case.seed
        ));
        let outcome = run_cluster_case(case, &program, &scratch);
        assert!(
            outcome.ok(),
            "{} regressed: {:?}",
            path.display(),
            outcome.violations
        );
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some(corpus::file_name(case).as_str()),
            "corpus file renamed out from under its case"
        );
    }
}

/// Rewrites the committed corpus from `pinned_cases()` under the
/// deterministic filenames. Run after changing the pinned schedules:
///
/// ```sh
/// cargo test -p msplayer-bench --test cluster_corpus -- --ignored
/// ```
#[test]
#[ignore = "regenerates the committed corpus; run explicitly"]
fn regenerate_committed_corpus() {
    for case in pinned_cases() {
        let path = corpus::record(&case, &corpus::dir::<ClusterChaosCase>()).expect("record case");
        eprintln!("wrote {}", path.display());
    }
}
