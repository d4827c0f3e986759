//! Goldens for the figure helpers: every number in the paper-figure
//! tables comes out of `prebuffer_times` / `rebuffer_times` /
//! `wifi_fractions`, so their output is pinned sample-for-sample.
//!
//! The digests were recorded at the last commit that still had the
//! closed-enum API (`prebuffer_times(Env::Testbed, Competitor::…, …)`,
//! default 20 runs); the `&WorkloadSpec` helpers must reproduce them bit
//! for bit.

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
    assert_golden("fig2 MSPlayer", &ms, 20, 0x6263_d5eb_7b44_06d1);
    let wifi = prebuffer_times(w("testbed/WiFi"), Fixed, 1024, 40.0);
    assert_golden("fig2 WiFi", &wifi, 20, 0x034c_4fd1_df41_1193);
    let lte = prebuffer_times(w("testbed/LTE"), Fixed, 1024, 40.0);
    assert_golden("fig2 LTE", &lte, 20, 0xa224_0b55_40e4_19c6);
}

#[test]
fn youtube_helpers_match_the_recorded_goldens() {
    let reg = WorkloadRegistry::builtin(20);
    let w = |name: &str| reg.by_name(name).expect("builtin").as_ref();
    // One Fig. 4 point, one Fig. 5 row per player family, and Table 1.
    let pre = prebuffer_times(w("youtube/MSPlayer"), Harmonic, 256, 20.0);
    assert_golden("fig4 MSPlayer 20 s", &pre, 20, 0x813b_f44c_4e13_1406);
    let wifi = rebuffer_times(w("youtube/WiFi"), Fixed, 64, 20.0, 2);
    assert_golden("fig5 WiFi 64 KB", &wifi, 40, 0x49c7_ddf9_5e79_df14);
    let ms = rebuffer_times(w("youtube/MSPlayer"), Harmonic, 256, 20.0, 2);
    assert_golden("fig5 MSPlayer", &ms, 40, 0x0e9d_5850_9d17_3348);
    let (pre, re) = wifi_fractions(w("youtube/MSPlayer"), Harmonic, 256, 40.0, 2);
    assert_golden("table1 pre-buffering", &pre, 20, 0xfdf4_ddc6_ede3_81f9);
    assert_golden("table1 re-buffering", &re, 20, 0xa3d9_4416_02ae_1f6b);
}
