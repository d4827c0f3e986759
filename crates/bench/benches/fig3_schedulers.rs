//! Fig. 3 — download times of the three schedulers
//! (Harmonic / EWMA / Ratio) for pre-buffering periods of 20/40/60 s and
//! initial unit chunk sizes of 16 KB / 64 KB / 256 KB / 1 MB, on the
//! emulated testbed. δ = 5 %, α = 0.9, 20 randomised runs per cell (§5.2).
//!
//! Shape to reproduce: download time decreases as the initial chunk size
//! grows; the Ratio baseline is worst (dramatically so at 16 KB) with high
//! variability; the dynamic schedulers adapt, with Harmonic best overall —
//! and Harmonic(256 KB) ≈ Harmonic(1 MB), which is why the paper adopts
//! 256 KB as the default.

use msim_core::report::{figures_dir, BoxPanel, Table};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind;

fn main() {
    let schedulers = [
        SchedulerKind::Harmonic,
        SchedulerKind::Ewma,
        SchedulerKind::Ratio,
    ];
    let chunk_sizes_kb = [16u64, 64, 256, 1024];
    let prebuffers = [20.0, 40.0, 60.0];

    println!(
        "Fig. 3 — scheduler × initial-chunk × pre-buffer sweep, emulated testbed ({} runs/cell)\n",
        runs()
    );

    let reg = WorkloadRegistry::builtin(runs());
    let testbed = reg.by_name("testbed/MSPlayer").expect("builtin");
    let mut table = Table::new(&[
        "prebuffer (s)",
        "chunk",
        "scheduler",
        "median (s)",
        "q1",
        "q3",
        "whisker hi",
    ]);

    for &pb in &prebuffers {
        let mut panel = BoxPanel::new(
            &format!("{pb:.0} s pre-buffering"),
            "Download Time (sec)",
            56,
        );
        for &kb in chunk_sizes_kb.iter().rev() {
            for kind in schedulers {
                let times = prebuffer_times(testbed, kind, kb, pb);
                let b = boxstats(&times);
                let size_label = if kb >= 1024 {
                    format!("{}MB", kb / 1024)
                } else {
                    format!("{kb}KB")
                };
                panel.add(&format!("{size_label:>5} {:<8}", kind.name()), b);
                table.row(&[
                    &format!("{pb:.0}"),
                    &size_label,
                    kind.name(),
                    &format!("{:.2}", b.median),
                    &format!("{:.2}", b.q1),
                    &format!("{:.2}", b.q3),
                    &format!("{:.2}", b.whisker_hi),
                ]);
            }
        }
        println!("{}", panel.render());
    }
    println!("{}", table.render());

    let csv_path = figures_dir().join("fig3_schedulers.csv");
    table.write_csv(&csv_path).expect("write CSV");
    println!("[csv] {}", csv_path.display());
}
