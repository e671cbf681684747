//! Regenerates Figure 1: contribution versus reputation.
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin fig1 [-- --quick] [a|b]
//! ```
//!
//! Writes `results/fig1a_*.csv` / `results/fig1b_scatter.csv` and
//! prints ASCII renderings of both panels.

#![forbid(unsafe_code)]

use bartercast_experiments::output;
use bartercast_experiments::{fig1, Scale};
use bartercast_util::plot::{line_plot, Series};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_flag(&args);
    let seed = Scale::seed_from_flag(&args);
    let panel = args
        .iter()
        .find(|a| *a == "a" || *a == "b")
        .cloned()
        .unwrap_or_default();
    eprintln!("running fig1 at {scale:?} scale ...");
    let data = fig1::run(scale, seed);

    if panel.is_empty() || panel == "a" {
        output::write_xy(
            "fig1a_sharers",
            &["day", "avg_system_reputation"],
            &data.reputation_sharers,
        );
        output::write_xy(
            "fig1a_freeriders",
            &["day", "avg_system_reputation"],
            &data.reputation_freeriders,
        );
        println!(
            "{}",
            line_plot(
                "Figure 1a: average system reputation over time (days)",
                &[
                    Series::new("sharers", data.reputation_sharers.clone()),
                    Series::new("freeriders", data.reputation_freeriders.clone()),
                ],
                72,
                18,
            )
        );
    }
    if panel.is_empty() || panel == "b" {
        output::write_xy(
            "fig1b_scatter",
            &["net_contribution_gb", "system_reputation"],
            &data.scatter,
        );
        println!(
            "{}",
            line_plot(
                "Figure 1b: system reputation vs net contribution (GB)",
                &[Series::new("peer", data.scatter.clone())],
                72,
                18,
            )
        );
        if let Some(rho) = data.spearman {
            println!("Spearman rank correlation: {rho:.3}");
        }
    }
    let (s, f) = data.report.mean_final_reputation();
    println!("final mean system reputation: sharers {s:.4}, freeriders {f:.4}");
    let r = &data.report;
    let total_down: f64 = r.outcomes.iter().map(|o| o.downloaded_gb).sum();
    let completions: usize = r.outcomes.iter().map(|o| o.completions).sum();
    println!(
        "diagnostics: {} pieces, {:.1} GB downloaded by regular peers, {} completions, \
         {} meetings, {} messages, overall speeds s={:.0} f={:.0} KBps",
        r.pieces_transferred,
        total_down,
        completions,
        r.meetings,
        r.messages_delivered,
        r.overall_speed_sharers,
        r.overall_speed_freeriders,
    );
}
