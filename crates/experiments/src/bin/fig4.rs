//! Regenerates Figure 4: one month of deployment measurements.
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin fig4 [-- --quick] [a|b]
//! ```
//!
//! Writes `results/fig4a_contributions.csv` /
//! `results/fig4b_reputation_cdf.csv` and prints ASCII renderings.

#![forbid(unsafe_code)]

use bartercast_deploy::{Community, CommunityConfig, Observer, ObserverConfig};
use bartercast_experiments::output;
use bartercast_experiments::{fig4, Scale};
use bartercast_util::plot::{cdf_plot, line_plot, Series};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_flag(&args);
    let seed = Scale::seed_from_flag(&args);
    let panel = args
        .iter()
        .find(|a| *a == "a" || *a == "b" || *a == "evolution")
        .cloned()
        .unwrap_or_default();
    eprintln!("running fig4 at {scale:?} scale ...");
    let report = fig4::run(scale, seed);

    if panel.is_empty() || panel == "a" {
        let rows: Vec<(f64, f64)> = report
            .net_contributions_sorted
            .iter()
            .enumerate()
            .map(|(i, &net)| (i as f64, net))
            .collect();
        output::write_xy("fig4a_contributions", &["peer_rank", "net_bytes"], &rows);
        // plot in symlog space so the TB..-TB range is readable
        let symlog: Vec<(f64, f64)> = rows
            .iter()
            .map(|&(i, net)| (i, fig4::symlog_mb(net)))
            .collect();
        println!(
            "{}",
            line_plot(
                "Figure 4a: upload - download per peer (symlog10 MB), sorted",
                &[Series::new("peer", symlog)],
                72,
                18,
            )
        );
    }
    if panel.is_empty() || panel == "b" {
        let cdf = report.reputation_cdf();
        let pts: Vec<(f64, f64)> = cdf.points().collect();
        output::write_xy("fig4b_reputation_cdf", &["reputation", "cdf"], &pts);
        println!(
            "{}",
            cdf_plot(
                "Figure 4b: CDF of observer-computed reputations",
                &pts,
                72,
                18
            )
        );
        let (neg, zero, pos) = report.reputation_split(0.01);
        println!(
            "reputation split: {:.0}% negative, {:.0}% ~zero, {:.0}% positive (paper: ~40/50/10)",
            neg * 100.0,
            zero * 100.0,
            pos * 100.0
        );
        println!(
            "observer logged {} messages; {} peers in subjective graph",
            report.messages_logged, report.peers_in_graph
        );
    }
    if panel == "evolution" {
        // extension: how the observer's picture sharpens over the month
        let peers = match scale {
            Scale::Paper => 5000,
            Scale::Quick => 600,
        };
        let community = Community::generate(
            &CommunityConfig {
                peers,
                ..Default::default()
            },
            seed,
        );
        let points = Observer::observe_evolution(
            &community,
            &ObserverConfig::default(),
            seed ^ 0xDEAD_BEEF,
            6,
        );
        let mut w = output::csv(
            "fig4_evolution",
            &["messages", "negative", "zeroish", "positive"],
        );
        println!(
            "{:>10} {:>9} {:>9} {:>9}",
            "messages", "negative", "~zero", "positive"
        );
        for &(m, neg, zero, pos) in &points {
            println!("{m:>10} {neg:>9.3} {zero:>9.3} {pos:>9.3}");
            w.row([
                m.to_string(),
                format!("{neg:.4}"),
                format!("{zero:.4}"),
                format!("{pos:.4}"),
            ])
            .expect("csv row");
        }
        w.finish().expect("flush");
        output::announce("fig4_evolution");
    }
}
