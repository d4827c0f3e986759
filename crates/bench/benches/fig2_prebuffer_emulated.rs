//! Fig. 2 — initial 40 s pre-buffering download time on the emulated
//! testbed: single-path WiFi vs single-path LTE vs MSPlayer.
//!
//! Paper: MSPlayer median 6.9 s vs best single path (WiFi) 10.9 s — a 37 %
//! start-up delay reduction. MSPlayer here runs the Ratio scheduler with a
//! 1 MB initial chunk, exactly the configuration the paper used for this
//! figure ("the MSPlayer results in Fig. 2 are based on the Ratio scheduler
//! with initial chunk size 1 MB").

use msim_core::report::{figures_dir, BoxPanel, Table};
use msplayer_bench::workload::WorkloadRegistry;
use msplayer_bench::*;
use msplayer_core::config::SchedulerKind;

fn main() {
    let prebuffer = 40.0;
    println!(
        "Fig. 2 — {prebuffer:.0} s pre-buffer download time, emulated testbed ({} runs)\n",
        runs()
    );

    let reg = WorkloadRegistry::builtin(runs());
    let times = |name: &str, scheduler| {
        prebuffer_times(
            reg.by_name(name).expect("builtin"),
            scheduler,
            1024,
            prebuffer,
        )
    };
    let ms = times("testbed/MSPlayer", SchedulerKind::Ratio);
    let wifi = times("testbed/WiFi", SchedulerKind::Fixed);
    let lte = times("testbed/LTE", SchedulerKind::Fixed);

    let mut panel = BoxPanel::new("Download time distribution", "Download Time (sec)", 56);
    panel.add("WiFi", boxstats(&wifi));
    panel.add("LTE", boxstats(&lte));
    panel.add("MSPlayer", boxstats(&ms));
    println!("{}", panel.render());

    let mut table = Table::new(&["player", "median (s)", "q1", "q3", "mean", "n"]);
    let mut csv_rows: Vec<(&str, &Vec<f64>)> =
        vec![("WiFi", &wifi), ("LTE", &lte), ("MSPlayer", &ms)];
    for (label, sample) in csv_rows.drain(..) {
        let b = boxstats(sample);
        table.row(&[
            label,
            &format!("{:.2}", b.median),
            &format!("{:.2}", b.q1),
            &format!("{:.2}", b.q3),
            &format!("{:.2}", msim_core::stats::mean(sample)),
            &format!("{}", b.n),
        ]);
    }
    println!("{}", table.render());

    let best_single = msim_core::stats::median(&wifi).min(msim_core::stats::median(&lte));
    let reduction = 100.0 * (1.0 - msim_core::stats::median(&ms) / best_single);
    println!(
        "\nMSPlayer start-up delay reduction vs best single path: {reduction:.0} %  (paper: 37 %)"
    );

    let csv_path = figures_dir().join("fig2_prebuffer_emulated.csv");
    table.write_csv(&csv_path).expect("write CSV");
    println!("[csv] {}", csv_path.display());
}
