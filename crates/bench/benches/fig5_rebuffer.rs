//! Fig. 5 — re-buffering 20/40/60 s of video with HTTP byte ranges of
//! 64 KB (Adobe Flash) and 256 KB (HTML5) over single-path WiFi and LTE,
//! vs MSPlayer, on the YouTube service profile.
//!
//! Shape to reproduce: all single-path players refill faster with larger
//! chunks (fewer range requests → less per-request RTT overhead); MSPlayer
//! estimates bandwidth, adapts chunk sizes and aggregates both paths, so it
//! refills fastest at every refill amount.

use msim_core::report::{figures_dir, BoxPanel, Table};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind::{Fixed, Harmonic};

/// Refill cycles measured per session.
const CYCLES: usize = 2;

fn main() {
    println!(
        "Fig. 5 — re-buffering over the YouTube service profile ({} runs × {CYCLES} cycles)\n",
        runs()
    );
    let mut table = Table::new(&["refill (s)", "player", "chunk", "median (s)", "q1", "q3"]);
    let reg = WorkloadRegistry::builtin(runs());
    // (label, workload, scheduler, chunk KB, chunk column)
    let configs = [
        ("WiFi 64 KB", "youtube/WiFi", Fixed, 64, "64 KB"),
        ("WiFi 256 KB", "youtube/WiFi", Fixed, 256, "256 KB"),
        ("LTE 64 KB", "youtube/LTE", Fixed, 64, "64 KB"),
        ("LTE 256 KB", "youtube/LTE", Fixed, 256, "256 KB"),
        ("MSPlayer", "youtube/MSPlayer", Harmonic, 256, "adaptive"),
    ];

    for refill in [20.0, 40.0, 60.0] {
        let mut panel = BoxPanel::new(
            &format!("{refill:.0} s re-buffering"),
            "Download Time (sec)",
            56,
        );
        for (label, workload, scheduler, chunk_kb, chunk) in configs {
            let w = reg.by_name(workload).expect("builtin");
            let times = rebuffer_times(w, scheduler, chunk_kb, refill, CYCLES);
            let b = boxstats(&times);
            panel.add(label, b);
            table.row(&[
                &format!("{refill:.0}"),
                label,
                chunk,
                &format!("{:.2}", b.median),
                &format!("{:.2}", b.q1),
                &format!("{:.2}", b.q3),
            ]);
        }
        println!("{}", panel.render());
    }
    println!("{}", table.render());

    let csv_path = figures_dir().join("fig5_rebuffer.csv");
    table.write_csv(&csv_path).expect("write CSV");
    println!("[csv] {}", csv_path.display());
}
