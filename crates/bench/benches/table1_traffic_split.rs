//! Table 1 — fraction of traffic carried over WiFi (mean ± std), for the
//! pre-buffering and re-buffering phases, with initial chunk size 256 KB on
//! the YouTube service profile.
//!
//! Paper values: pre-buffering 64.1±9.3 / 60.1±15.0 / 63.7±12.6 % and
//! re-buffering 61.8±7.1 / 61.7±11.5 / 56.5±11.6 % for 20/40/60 s. The WiFi
//! path carries >50 % because (a) it bootstraps first (the π head start)
//! and (b) it pays less per-request RTT overhead.

use msim_core::report::{figures_dir, Table};
use msim_core::stats::Running;
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind;

fn main() {
    println!(
        "Table 1 — fraction of traffic over WiFi, initial chunk 256 KB ({} runs)\n",
        runs()
    );
    let mut table = Table::new(&["", "Pre-buffering", "Re-buffering"]);
    let reg = WorkloadRegistry::builtin(runs());
    let youtube = reg.by_name("youtube/MSPlayer").expect("builtin");
    for pb in [20.0, 40.0, 60.0] {
        let (pre, re) = wifi_fractions(youtube, SchedulerKind::Harmonic, 256, pb, 2);
        let mut pre_stats = Running::new();
        for v in &pre {
            pre_stats.push(*v);
        }
        let mut re_stats = Running::new();
        for v in &re {
            re_stats.push(*v);
        }
        table.row(&[
            &format!("{pb:.0} sec"),
            &format!("{} %", pre_stats.mean_pm_std()),
            &format!("{} %", re_stats.mean_pm_std()),
        ]);
    }
    println!("{}", table.render());
    println!(
        "\n(paper: pre 64.1±9.3 / 60.1±15.0 / 63.7±12.6; re 61.8±7.1 / 61.7±11.5 / 56.5±11.6)"
    );

    let csv_path = figures_dir().join("table1_traffic_split.csv");
    table.write_csv(&csv_path).expect("write CSV");
    println!("[csv] {}", csv_path.display());
}
