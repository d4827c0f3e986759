//! The paper scorecard: one row per quantitative claim, at the paper's 20
//! runs per configuration.
//!
//! ```text
//! calibrate            # print the scorecard
//! calibrate --check    # … and exit 1 if any row misses its tolerance
//! calibrate --write    # … and regenerate REPRO.md at the repository root
//! ```
//!
//! The tolerances were written down before the run that first filled them
//! (ISSUE 21, at `STREAM_EPOCH` 2) and are not to be widened after seeing a
//! later epoch's numbers: a row that fails is reported as failing.

use msim_core::rng::STREAM_EPOCH;
use msim_core::stats::{mean, median};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::{prebuffer_times, rebuffer_times, wifi_fractions};
use msplayer_core::config::SchedulerKind::{self, Ewma, Fixed, Harmonic, Ratio};
use msplayer_core::metrics::DIGEST_EPOCH;

/// "We repeat this 20 times" (§5); fixed, not `MSP_RUNS`, so the committed
/// `REPRO.md` means one thing.
const RUNS: u64 = 20;

/// Where `--write` puts the scorecard.
const REPRO_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRO.md");

struct Row {
    claim: String,
    paper: String,
    reproduced: String,
    tolerance: String,
    pass: bool,
}

/// A reproduced value within `frac` of the paper's.
fn within_frac(claim: &str, paper: f64, got: f64, frac: f64) -> Row {
    Row {
        claim: claim.into(),
        paper: format!("{paper} s"),
        reproduced: format!("{got:.2} s"),
        tolerance: format!("within {:.0} %", 100.0 * frac),
        pass: (got - paper).abs() <= frac * paper,
    }
}

/// A reproduced percentage within `points` of the paper's.
fn within_points(claim: &str, paper: f64, got: f64, points: f64) -> Row {
    Row {
        claim: claim.into(),
        paper: format!("{paper} %"),
        reproduced: format!("{got:.1} %"),
        tolerance: format!("within {points} points"),
        pass: (got - paper).abs() <= points,
    }
}

/// A reproduced percentage inside `[lo, hi]`.
fn in_band(claim: &str, paper: &str, got: f64, lo: f64, hi: f64) -> Row {
    Row {
        claim: claim.into(),
        paper: paper.into(),
        reproduced: format!("{got:.1} %"),
        tolerance: format!("in {lo}–{hi} %"),
        pass: (lo..=hi).contains(&got),
    }
}

fn reduction_pct(ms: f64, best_single: f64) -> f64 {
    100.0 * (1.0 - ms / best_single)
}

fn scorecard() -> Vec<Row> {
    let reg = WorkloadRegistry::builtin(RUNS);
    let w = |name: &str| reg.by_name(name).expect("builtin").as_ref();
    let mut rows = Vec::new();

    // Fig. 2: testbed, 40 s prebuffer; MSPlayer on Ratio at 1 MB, the
    // single paths as one-shot commercial players.
    let ms = median(&prebuffer_times(w("testbed/MSPlayer"), Ratio, 1024, 40.0));
    let wifi = median(&prebuffer_times(w("testbed/WiFi"), Fixed, 1024, 40.0));
    let lte = median(&prebuffer_times(w("testbed/LTE"), Fixed, 1024, 40.0));
    rows.push(within_frac(
        "Fig. 2 prebuffer median, MSPlayer",
        6.9,
        ms,
        0.15,
    ));
    rows.push(within_frac(
        "Fig. 2 prebuffer median, WiFi",
        10.9,
        wifi,
        0.15,
    ));
    rows.push(within_frac("Fig. 2 prebuffer median, LTE", 13.0, lte, 0.15));
    rows.push(within_points(
        "Fig. 2 reduction vs best single path",
        37.0,
        reduction_pct(ms, wifi.min(lte)),
        12.0,
    ));

    // Fig. 4: YouTube, Harmonic at 256 KB against the better single path.
    for (prebuffer, paper) in [(20.0, 12.0), (40.0, 21.0), (60.0, 28.0)] {
        let ms = median(&prebuffer_times(
            w("youtube/MSPlayer"),
            Harmonic,
            256,
            prebuffer,
        ));
        let wifi = median(&prebuffer_times(w("youtube/WiFi"), Fixed, 256, prebuffer));
        let lte = median(&prebuffer_times(w("youtube/LTE"), Fixed, 256, prebuffer));
        rows.push(within_points(
            &format!("Fig. 4 reduction at {prebuffer} s prebuffer"),
            paper,
            reduction_pct(ms, wifi.min(lte)),
            12.0,
        ));
    }

    // Table 1: WiFi's share of the bytes, mean over the sessions.
    let (pre, re) = wifi_fractions(w("youtube/MSPlayer"), Harmonic, 256, 40.0, 2);
    rows.push(in_band(
        "Table 1 WiFi byte share, prebuffer",
        "≈ 60–64 %",
        mean(&pre),
        55.0,
        69.0,
    ));
    rows.push(in_band(
        "Table 1 WiFi byte share, refill",
        "≈ 56–62 %",
        mean(&re),
        51.0,
        67.0,
    ));

    // Fig. 3: 40 s prebuffer on the testbed, the three schedulers at the
    // smallest and the largest initial chunk.
    let fig3 =
        |kind: SchedulerKind, kb| median(&prebuffer_times(w("testbed/MSPlayer"), kind, kb, 40.0));
    let (ratio, harmonic, ewma) = (fig3(Ratio, 16), fig3(Harmonic, 16), fig3(Ewma, 16));
    rows.push(Row {
        claim: "Fig. 3 at 16 KB: Ratio is much the worst".into(),
        paper: "Ratio ≫ Harmonic, EWMA".into(),
        reproduced: format!("Ratio {ratio:.2} s, Harmonic {harmonic:.2} s, EWMA {ewma:.2} s"),
        tolerance: "Ratio ≥ 1.5 × the slower of the two".into(),
        pass: ratio >= 1.5 * harmonic.max(ewma),
    });
    let at_1mb = [fig3(Ratio, 1024), fig3(Harmonic, 1024), fig3(Ewma, 1024)];
    let centre = mean(&at_1mb);
    rows.push(Row {
        claim: "Fig. 3 at 1 MB: the schedulers converge".into(),
        paper: "all three alike".into(),
        reproduced: format!(
            "Ratio {:.2} s, Harmonic {:.2} s, EWMA {:.2} s",
            at_1mb[0], at_1mb[1], at_1mb[2]
        ),
        tolerance: "each within 10 % of their mean".into(),
        pass: at_1mb.iter().all(|t| (t - centre).abs() <= 0.10 * centre),
    });

    // Fig. 5: a 20 s refill, MSPlayer against every single-path player.
    let refill = |name, kind, kb| median(&rebuffer_times(w(name), kind, kb, 20.0, 2));
    let ms = refill("youtube/MSPlayer", Harmonic, 256);
    let singles = [
        ("WiFi 64 KB", refill("youtube/WiFi", Fixed, 64)),
        ("WiFi 256 KB", refill("youtube/WiFi", Fixed, 256)),
        ("LTE 64 KB", refill("youtube/LTE", Fixed, 64)),
        ("LTE 256 KB", refill("youtube/LTE", Fixed, 256)),
    ];
    let listed: Vec<String> = singles
        .iter()
        .map(|(label, t)| format!("{label} {t:.2} s"))
        .collect();
    rows.push(Row {
        claim: "Fig. 5 refill of 20 s: MSPlayer is fastest".into(),
        paper: "MSPlayer below every single path".into(),
        reproduced: format!("MSPlayer {ms:.2} s; {}", listed.join(", ")),
        tolerance: "≥ 15 % below each".into(),
        pass: singles.iter().all(|(_, t)| ms <= 0.85 * t),
    });
    rows
}

fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "# Paper scorecard\n\n\
         Generated by `cargo run --release -p msplayer-bench --bin calibrate -- --write`; \
         do not edit. {RUNS} runs per configuration, medians unless a row says otherwise, \
         `STREAM_EPOCH` {STREAM_EPOCH}, `DIGEST_EPOCH` {DIGEST_EPOCH}. CI runs `--check --write` \
         and fails on a failed row or a diff.\n\n\
         | claim | paper | reproduced | tolerance | |\n|---|---|---|---|---|\n"
    );
    for r in rows {
        let verdict = if r.pass { "pass" } else { "**FAIL**" };
        out += &format!(
            "| {} | {} | {} | {} | {verdict} |\n",
            r.claim, r.paper, r.reproduced, r.tolerance
        );
    }
    out
}

fn main() {
    let (mut check, mut write) = (false, false);
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--write" => write = true,
            other => {
                eprintln!("calibrate: unknown argument {other:?} (allowed: --check, --write)");
                std::process::exit(2);
            }
        }
    }
    let rows = scorecard();
    let text = render(&rows);
    print!("{text}");
    if write {
        if let Err(e) = std::fs::write(REPRO_MD, &text) {
            eprintln!("calibrate: {REPRO_MD}: {e}");
            std::process::exit(2);
        }
    }
    let failed = rows.iter().filter(|r| !r.pass).count();
    if check && failed > 0 {
        eprintln!("calibrate: {failed} row(s) outside tolerance");
        std::process::exit(1);
    }
}
