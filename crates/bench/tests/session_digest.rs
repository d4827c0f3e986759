//! Field sensitivity and partition equivalence of the structural session
//! digest over *real* sessions: one from every builtin workload at two
//! seeds (the sampling corpus's grid).
//!
//! `crates/core/src/metrics.rs` checks every field on a synthetic record;
//! this file checks that the same holds on what the simulator actually
//! produces — long chunk ledgers, ABR traces, open stall intervals — and
//! that over all of those sessions and their perturbed copies the new
//! digest draws exactly the distinctions the epoch-1 digest (FNV-1a over
//! the `Debug` rendering, kept here as a test-local reference) drew.

use msim_core::time::{SimDuration, SimTime};
use msplayer_bench::cluster::digest_metrics;
use msplayer_bench::cluster::merge::fnv1a;
use msplayer_bench::sampling::{corpus_points, SEEDS_PER_WORKLOAD};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_core::abr::SwitchReason;
use msplayer_core::metrics::{
    AbrDecision, AbrQoe, AbrTrace, ChunkRecord, PathMetrics, SessionMetrics, TrafficPhase,
};
use msplayer_core::sim::SessionHost;
use std::collections::HashMap;

fn debug_digest(m: &SessionMetrics) -> u64 {
    fnv1a(format!("{m:?}").into_bytes())
}

/// First, middle and last index of a `Vec` of length `len` — enough to
/// catch an element field that is skipped or an off-by-one at either end
/// without rendering every chunk of every session.
fn sampled(len: usize) -> Vec<usize> {
    let mut idx = vec![0, len / 2, len.saturating_sub(1)];
    idx.dedup();
    idx.retain(|&i| i < len);
    idx
}

fn tick(t: &mut SimTime) {
    *t += SimDuration::from_micros(1);
}

fn flip(t: &mut Option<SimTime>) {
    *t = match t {
        Some(_) => None,
        None => Some(SimTime::ZERO),
    };
}

fn ulp(x: &mut f64) {
    *x = f64::from_bits(x.to_bits() + 1);
}

/// Edits the `i`-th chunk record in place (read, change, `set`).
fn edit_chunk(m: &mut SessionMetrics, i: usize, edit: impl FnOnce(&mut ChunkRecord)) {
    let mut c = m.chunks.get(i).expect("chunk index in range");
    edit(&mut c);
    m.chunks.set(i, c);
}

/// The session's ABR trace, boxed empty first if it ran without a ladder.
fn abr(m: &mut SessionMetrics) -> &mut AbrTrace {
    m.abr.get_or_insert_with(Box::default)
}

/// The trace's QoE (present: only called on a closed-loop session).
fn qoe(m: &mut SessionMetrics) -> &mut AbrQoe {
    abr(m).qoe.as_mut().expect("a closed-loop session")
}

/// Perturbed copies of one session, each differing from it in one place.
struct Variants<'a> {
    base: &'a SessionMetrics,
    out: Vec<(String, SessionMetrics)>,
}

impl Variants<'_> {
    fn add(&mut self, label: String, perturb: impl FnOnce(&mut SessionMetrics)) {
        let mut m = self.base.clone();
        perturb(&mut m);
        self.out.push((label, m));
    }
}

/// Every scalar field, every `Option` tag, every field of sampled
/// elements of every `Vec` (a chunk's first byte one microsecond either
/// way), every `Vec` length, both zeros, and elements
/// moved between neighbouring `Vec`s.
fn variants(base: &SessionMetrics) -> Vec<(String, SessionMetrics)> {
    let mut v = Variants {
        base,
        out: Vec::new(),
    };
    v.add("started_at".into(), |m| tick(&mut m.started_at));
    v.add("events".into(), |m| m.events += 1);
    v.add("prebuffer_done_at tag".into(), |m| {
        flip(&mut m.prebuffer_done_at)
    });
    v.add("ended_at tag".into(), |m| flip(&mut m.ended_at));
    if base.prebuffer_done_at.is_some() {
        v.add("prebuffer_done_at".into(), |m| {
            tick(m.prebuffer_done_at.as_mut().unwrap())
        });
    }
    if base.ended_at.is_some() {
        v.add("ended_at".into(), |m| tick(m.ended_at.as_mut().unwrap()));
    }

    for i in sampled(base.paths.len()) {
        v.add(format!("paths[{i}].first_byte_at tag"), |m| {
            flip(&mut m.paths[i].first_byte_at)
        });
        if base.paths[i].first_byte_at.is_some() {
            v.add(format!("paths[{i}].first_byte_at"), |m| {
                tick(m.paths[i].first_byte_at.as_mut().unwrap())
            });
        }
        v.add(format!("paths[{i}].failovers"), |m| {
            m.paths[i].failovers += 1
        });
    }
    for i in sampled(base.refills.len()) {
        v.add(format!("refills[{i}].started_at"), |m| {
            tick(&mut m.refills[i].started_at)
        });
        v.add(format!("refills[{i}].completed_at"), |m| {
            tick(&mut m.refills[i].completed_at)
        });
        v.add(format!("refills[{i}].bytes"), |m| m.refills[i].bytes += 1);
    }
    for i in sampled(base.stalls.len()) {
        v.add(format!("stalls[{i}].0"), |m| tick(&mut m.stalls[i].0));
        v.add(format!("stalls[{i}].1 tag"), |m| flip(&mut m.stalls[i].1));
        if base.stalls[i].1.is_some() {
            v.add(format!("stalls[{i}].1"), |m| {
                tick(m.stalls[i].1.as_mut().unwrap())
            });
        }
    }
    for i in sampled(base.chunks.len()) {
        v.add(format!("chunks[{i}].path"), |m| {
            edit_chunk(m, i, |c| c.path += 1)
        });
        v.add(format!("chunks[{i}].bytes"), |m| {
            edit_chunk(m, i, |c| c.bytes += 1)
        });
        v.add(format!("chunks[{i}].requested_at"), |m| {
            edit_chunk(m, i, |c| tick(&mut c.requested_at))
        });
        v.add(format!("chunks[{i}].completed_at"), |m| {
            edit_chunk(m, i, |c| tick(&mut c.completed_at))
        });
        v.add(format!("chunks[{i}].first_byte_at + 1 us"), |m| {
            edit_chunk(m, i, |c| tick(&mut c.first_byte_at))
        });
        v.add(format!("chunks[{i}].first_byte_at - 1 us"), |m| {
            edit_chunk(m, i, |c| {
                c.first_byte_at = c.first_byte_at - SimDuration::from_micros(1)
            })
        });
        v.add(format!("chunks[{i}].phase"), |m| {
            edit_chunk(m, i, |c| {
                c.phase = match c.phase {
                    TrafficPhase::PreBuffering => TrafficPhase::ReBuffering,
                    TrafficPhase::ReBuffering => TrafficPhase::PreBuffering,
                }
            })
        });
    }
    let other = |r: SwitchReason| match r {
        SwitchReason::Hold => SwitchReason::RateDown,
        _ => SwitchReason::Hold,
    };
    // A session without a ladder has no ABR trace: every ABR edit below
    // reads an empty one and writes a boxed one.
    let trace = base.abr.as_deref().cloned().unwrap_or_default();
    for i in sampled(trace.switches.len()) {
        v.add(format!("abr.switches[{i}].at"), |m| {
            tick(&mut abr(m).switches[i].at)
        });
        v.add(format!("abr.switches[{i}].itag"), |m| {
            abr(m).switches[i].itag += 1
        });
        v.add(format!("abr.switches[{i}].reason"), |m| {
            abr(m).switches[i].reason = other(abr(m).switches[i].reason)
        });
    }
    for i in sampled(trace.decisions.len()) {
        v.add(format!("abr.decisions[{i}].at"), |m| {
            tick(&mut abr(m).decisions[i].at)
        });
        v.add(format!("abr.decisions[{i}].itag"), |m| {
            abr(m).decisions[i].itag += 1
        });
        v.add(format!("abr.decisions[{i}].estimate_bps ulp"), |m| {
            ulp(&mut abr(m).decisions[i].estimate_bps)
        });
        // The first decision's estimate is 0.0: negating it is the
        // other zero.
        v.add(format!("abr.decisions[{i}].estimate_bps negated"), |m| {
            abr(m).decisions[i].estimate_bps = -abr(m).decisions[i].estimate_bps
        });
        v.add(format!("abr.decisions[{i}].buffer_secs ulp"), |m| {
            ulp(&mut abr(m).decisions[i].buffer_secs)
        });
        v.add(format!("abr.decisions[{i}].reason"), |m| {
            abr(m).decisions[i].reason = other(abr(m).decisions[i].reason)
        });
        v.add(format!("abr.decisions[{i}].switched"), |m| {
            abr(m).decisions[i].switched ^= true
        });
    }
    match trace.qoe {
        None => v.add("abr.qoe tag".into(), |m| {
            abr(m).qoe = Some(AbrQoe {
                time_weighted_bitrate_bps: 0.0,
                switches: 0,
                switch_magnitude_bps: 0.0,
                switch_rebuffer: SimDuration::ZERO,
            })
        }),
        Some(_) => {
            v.add("abr.qoe tag".into(), |m| abr(m).qoe = None);
            v.add("abr.qoe.time_weighted_bitrate_bps ulp".into(), |m| {
                ulp(&mut qoe(m).time_weighted_bitrate_bps)
            });
            v.add("abr.qoe.switches".into(), |m| qoe(m).switches += 1);
            v.add("abr.qoe.switch_magnitude_bps ulp".into(), |m| {
                ulp(&mut qoe(m).switch_magnitude_bps)
            });
            v.add("abr.qoe.switch_rebuffer".into(), |m| {
                qoe(m).switch_rebuffer += SimDuration::from_micros(1)
            });
        }
    }
    // Dropping a trace that records something (one that records nothing
    // digests like no trace at all).
    if trace != AbrTrace::default() {
        v.add("abr tag".into(), |m| m.abr = None);
    }

    // Lengths: each `Vec` one longer (repeating its last element, or a
    // zero element when empty).
    v.add("paths len".into(), |m| m.paths.push(PathMetrics::default()));
    v.add("stalls len".into(), |m| {
        m.stalls.push((SimTime::ZERO, None))
    });
    if let Some(last) = base.refills.last().copied() {
        v.add("refills len".into(), |m| m.refills.push(last));
    }
    if let Some(last) = base.chunks.last() {
        v.add("chunks len".into(), |m| m.chunks.push(last));
    }
    if let Some(last) = trace.switches.last().copied() {
        v.add("abr.switches len".into(), |m| abr(m).switches.push(last));
    }
    if let Some(last) = trace.decisions.last().copied() {
        v.add("abr.decisions len".into(), |m| abr(m).decisions.push(last));
    }

    // Moves: an element leaves one `Vec` and its values join a
    // neighbour, so the payload words barely change and only the length
    // prefixes tell the two records apart.
    if let Some(r) = base.refills.last().copied() {
        v.add("refills -> stalls".into(), |m| {
            m.refills.pop();
            m.stalls.insert(0, (r.started_at, Some(r.completed_at)));
        });
    }
    if let Some(s) = trace.switches.last().copied() {
        v.add("abr.switches -> abr.decisions".into(), |m| {
            abr(m).switches.pop();
            abr(m).decisions.insert(
                0,
                AbrDecision {
                    at: s.at,
                    itag: s.itag,
                    estimate_bps: 0.0,
                    buffer_secs: 0.0,
                    reason: s.reason,
                    switched: false,
                },
            );
        });
    }
    v.out
}

#[test]
fn every_perturbation_moves_the_digest_and_both_digests_partition_alike() {
    let reg = WorkloadRegistry::builtin(SEEDS_PER_WORKLOAD);
    let points = corpus_points(&reg);
    assert_eq!(
        points.len(),
        reg.specs().len() * SEEDS_PER_WORKLOAD as usize,
        "every builtin workload, two seeds"
    );

    // (label, structural digest, Debug-rendering digest) of every record.
    let mut records: Vec<(String, u64, u64)> = Vec::new();
    let mut saw_abr = false;
    for (workload, scheduler, chunk_kb, seed) in points {
        let w = reg.by_name(&workload).expect("registry workload");
        let base = SessionHost::new(w.service.clone())
            .run(&w.session_spec(scheduler, chunk_kb, seed))
            .expect("registered workloads validate");
        assert!(
            !base.chunks.is_empty(),
            "{workload}: a session with no chunks"
        );
        saw_abr |= base
            .abr
            .as_ref()
            .is_some_and(|a| !a.decisions.is_empty() && a.qoe.is_some());
        let session = format!("{workload}/{seed:#x}");
        let digest = digest_metrics(&base);
        assert_eq!(
            digest,
            base.digest(),
            "digest_metrics is SessionMetrics::digest"
        );
        for (what, m) in variants(&base) {
            assert_ne!(
                digest_metrics(&m),
                digest,
                "{session}: perturbing {what} left the digest unchanged"
            );
            records.push((
                format!("{session} {what}"),
                digest_metrics(&m),
                debug_digest(&m),
            ));
        }
        records.push((session, digest, debug_digest(&base)));
    }
    assert!(saw_abr, "no builtin session exercised the ABR fields");

    // debug_digest(a) == debug_digest(b)  <=>  digest(a) == digest(b): each
    // value of one digest maps to exactly one value of the other.
    let mut new_of_old: HashMap<u64, (u64, &str)> = HashMap::new();
    let mut old_of_new: HashMap<u64, (u64, &str)> = HashMap::new();
    for (label, new, old) in &records {
        let (seen_new, first) = *new_of_old.entry(*old).or_insert((*new, label));
        assert_eq!(
            seen_new, *new,
            "{first:?} and {label:?} share a Debug digest but not a structural one"
        );
        let (seen_old, first) = *old_of_new.entry(*new).or_insert((*old, label));
        assert_eq!(
            seen_old, *old,
            "{first:?} and {label:?} share a structural digest but not a Debug one"
        );
    }
    assert!(
        records.len() > 1000,
        "only {} records compared",
        records.len()
    );
}
