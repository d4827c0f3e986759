//! Goldens for the figure helpers: every number in the paper-figure
//! tables comes out of `prebuffer_times` / `rebuffer_times` /
//! `wifi_fractions`, so their output is pinned sample-for-sample.
//!
//! The digests are those of `STREAM_EPOCH` 3 at the paper's 20 runs:
//! re-record them only in a change that means to move the streams, next
//! to `REPRO.md`, which says what the move did to the paper's numbers.

use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::{prebuffer_times, rebuffer_times, wifi_fractions};
use msplayer_core::config::SchedulerKind::{Fixed, Harmonic, Ratio};

/// FNV-style fold of the samples' bit patterns, length first.
fn digest(samples: &[f64]) -> u64 {
    samples
        .iter()
        .fold(0xcbf2_9ce4_8422_2325 ^ samples.len() as u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[track_caller]
fn assert_golden(what: &str, samples: &[f64], n: usize, golden: u64) {
    assert_eq!(samples.len(), n, "{what}: sample count");
    assert_eq!(
        digest(samples),
        golden,
        "{what}: samples moved ({:#018x})",
        digest(samples)
    );
}

#[test]
fn fig2_prebuffer_times_match_the_recorded_goldens() {
    let reg = WorkloadRegistry::builtin(20);
    let w = |name: &str| reg.by_name(name).expect("builtin").as_ref();
    let ms = prebuffer_times(w("testbed/MSPlayer"), Ratio, 1024, 40.0);
    assert_golden("fig2 MSPlayer", &ms, 20, 0x5dab_32b4_3e68_05f3);
    let wifi = prebuffer_times(w("testbed/WiFi"), Fixed, 1024, 40.0);
    assert_golden("fig2 WiFi", &wifi, 20, 0x4825_142c_e958_8175);
    let lte = prebuffer_times(w("testbed/LTE"), Fixed, 1024, 40.0);
    assert_golden("fig2 LTE", &lte, 20, 0x9b02_9b6f_57f5_5ce4);
}

#[test]
fn youtube_helpers_match_the_recorded_goldens() {
    let reg = WorkloadRegistry::builtin(20);
    let w = |name: &str| reg.by_name(name).expect("builtin").as_ref();
    // One Fig. 4 point, one Fig. 5 row per player family, and Table 1.
    let pre = prebuffer_times(w("youtube/MSPlayer"), Harmonic, 256, 20.0);
    assert_golden("fig4 MSPlayer 20 s", &pre, 20, 0x3530_8e4b_a285_ef93);
    let wifi = rebuffer_times(w("youtube/WiFi"), Fixed, 64, 20.0, 2);
    assert_golden("fig5 WiFi 64 KB", &wifi, 40, 0x0ad0_eb55_449f_8fe2);
    let ms = rebuffer_times(w("youtube/MSPlayer"), Harmonic, 256, 20.0, 2);
    assert_golden("fig5 MSPlayer", &ms, 40, 0x9af7_1e44_78dc_6677);
    let (pre, re) = wifi_fractions(w("youtube/MSPlayer"), Harmonic, 256, 40.0, 2);
    assert_golden("table1 pre-buffering", &pre, 20, 0xf44f_adbf_d46c_46fc);
    assert_golden("table1 re-buffering", &re, 20, 0x95d9_a166_84c6_2a3c);
}
