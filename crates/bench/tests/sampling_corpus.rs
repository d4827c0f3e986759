//! Tier-1 pin of the sampling streams as currently defined.
//!
//! Four claims, each load-bearing for the sampling engine:
//!
//! 1. the committed fingerprints replay bit-for-bit on the production
//!    (block-fill) path — the streams are frozen from this PR on;
//! 2. the scalar-reference fill path produces the *same* sessions — the
//!    blocked transcendental math is exact, not approximate;
//! 3. warm-host batching is invisible — `run_batch` over a shared host
//!    digests identically to a fresh host per session;
//! 4. a session is resumable state — sessions stepped round-robin, one
//!    event at a time, digest identically to `run`.
//!
//! Regenerate `digest` after an (explicitly sanctioned) stream or
//! digest-epoch change with:
//!
//! ```sh
//! cargo test -p msplayer-bench --test sampling_corpus -- --ignored
//! ```

use msim_core::event::EventQueue;
use msim_core::rng::DeviateMode;
use msplayer_bench::cluster::merge::digest_metrics;
use msplayer_bench::sampling::{
    compute_fingerprints, corpus_path, corpus_points, digest_point, load_corpus, to_json,
};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::config::SchedulerKind;
use msplayer_core::sim::SessionHost;

fn registry() -> WorkloadRegistry {
    WorkloadRegistry::builtin(msplayer_bench::sampling::SEEDS_PER_WORKLOAD)
}

/// Claim 1: the committed corpus replays bit-identically on the block
/// path, and covers every builtin workload (a workload registered without
/// a fingerprint is a coverage hole, not a pass).
#[test]
fn committed_fingerprints_replay_on_block_path() {
    let reg = registry();
    let corpus = load_corpus().expect("committed corpus loads");
    let expected = corpus_points(&reg);
    assert_eq!(
        corpus.len(),
        expected.len(),
        "corpus rows != registry grid points — a workload was added or \
         removed without regenerating the corpus"
    );
    for fp in &corpus {
        let scheduler = SchedulerKind::parse(&fp.scheduler)
            .unwrap_or_else(|| panic!("unknown scheduler {:?}", fp.scheduler));
        let got = digest_point(
            &reg,
            &fp.workload,
            scheduler,
            fp.chunk_kb,
            fp.seed,
            DeviateMode::Block,
        );
        assert_eq!(
            got, fp.digest,
            "stream drift: {}/{} chunk={} seed={:#x} digests {:#018x}, \
             corpus pins {:#018x}",
            fp.workload, fp.scheduler, fp.chunk_kb, fp.seed, got, fp.digest
        );
    }
}

/// Claim 2: the scalar-reference path reproduces every committed digest.
/// Combined with claim 1 this proves Block == ScalarRef over whole
/// sessions of every builtin workload, not just over raw deviate arrays.
#[test]
fn scalar_reference_path_matches_committed_fingerprints() {
    let reg = registry();
    for fp in load_corpus().expect("committed corpus loads") {
        let scheduler = SchedulerKind::parse(&fp.scheduler).expect("known scheduler");
        let got = digest_point(
            &reg,
            &fp.workload,
            scheduler,
            fp.chunk_kb,
            fp.seed,
            DeviateMode::ScalarRef,
        );
        assert_eq!(
            got, fp.digest,
            "block/scalar divergence on {}/{} seed={:#x}",
            fp.workload, fp.scheduler, fp.seed
        );
    }
}

/// Claim 3: one warm host running all of a workload's pinned seeds through
/// `run_batch` digests identically to the fresh-host-per-session corpus.
/// This is the bit-identity contract the cache-friendly batching (shared
/// event-queue storage, bootstrap cache, lent trace buffers) must uphold.
#[test]
fn warm_host_batches_match_committed_fingerprints() {
    let reg = registry();
    let corpus = load_corpus().expect("committed corpus loads");
    for w in reg.specs() {
        let rows: Vec<_> = corpus.iter().filter(|fp| fp.workload == w.name).collect();
        assert!(!rows.is_empty(), "no corpus rows for {}", w.name);
        let scheduler = SchedulerKind::parse(&rows[0].scheduler).expect("known scheduler");
        let spec = w.session_spec(scheduler, rows[0].chunk_kb, rows[0].seed);
        let seeds: Vec<u64> = rows.iter().map(|fp| fp.seed).collect();
        let mut host = SessionHost::new(w.service.clone());
        let metrics = host
            .run_batch(&seeds, &spec)
            .expect("registered workloads validate");
        for (fp, m) in rows.iter().zip(&metrics) {
            assert_eq!(
                digest_metrics(m),
                fp.digest,
                "warm-host batch diverged on {} seed={:#x}",
                w.name,
                fp.seed
            );
        }
    }
}

/// Claim 4: every corpus point starts on a host and a queue of its own,
/// and the 30 sessions advance round-robin, one event each per turn,
/// through `start` / `step` / `finish` and the same horizon rule as `run`.
/// Every digest equals the committed one: `step` is `run`, and nothing of
/// a session hides outside its `Session` value and its queue.
#[test]
fn round_robin_stepped_sessions_match_committed_fingerprints() {
    let reg = registry();
    let corpus = load_corpus().expect("committed corpus loads");
    let mut live: Vec<_> = corpus
        .iter()
        .map(|fp| {
            let w = reg.by_name(&fp.workload).expect("registered workload");
            let scheduler = SchedulerKind::parse(&fp.scheduler).expect("known scheduler");
            let spec = w.session_spec(scheduler, fp.chunk_kb, fp.seed);
            let mut host = SessionHost::new(w.service.clone());
            let mut queue = EventQueue::new();
            let session = host
                .start(fp.seed, &spec, &mut queue)
                .expect("registered workloads validate");
            (fp, host, queue, Some(session))
        })
        .collect();
    let mut running = live.len();
    while running > 0 {
        for (fp, host, queue, slot) in &mut live {
            let Some(session) = slot.as_mut() else {
                continue;
            };
            let end = match session.next_event(queue) {
                None => Some(queue.now()),
                Some((now, _)) if now > session.horizon() => Some(session.horizon()),
                Some((now, event)) => host.step(session, queue, now, event).then_some(now),
            };
            if let Some(end) = end {
                let m = host.finish(slot.take().expect("live session"), end);
                assert_eq!(
                    digest_metrics(&m),
                    fp.digest,
                    "round-robin stepping diverged on {}/{} seed={:#x}",
                    fp.workload,
                    fp.scheduler,
                    fp.seed
                );
                running -= 1;
            }
        }
    }
}

/// Regenerator: recomputes every digest on the block path and rewrites
/// the committed JSON. Ignored by default — running it is the explicit
/// act of re-freezing the corpus after a sanctioned stream or
/// digest-epoch change.
#[test]
#[ignore = "rewrites the committed corpus; run explicitly after a sanctioned stream or digest change"]
fn regenerate_committed_fingerprints() {
    let fps = compute_fingerprints(&registry(), DeviateMode::Block);
    let path = corpus_path();
    std::fs::write(&path, msim_json::to_string_pretty(&to_json(&fps))).expect("corpus written");
    println!("wrote {} fingerprints to {}", fps.len(), path.display());
}
