//! Regenerates Figure 3: peers disobeying the message protocol.
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin fig3 [-- --quick] [ignore|lie]
//! ```
//!
//! Writes `results/fig3a_*.csv` / `results/fig3b_*.csv` and prints
//! ASCII renderings of speed versus disobeying fraction.

#![forbid(unsafe_code)]

use bartercast_experiments::output;
use bartercast_experiments::{fig3, Scale};
use bartercast_util::plot::{line_plot, Series};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_flag(&args);
    let seed = Scale::seed_from_flag(&args);
    let which = args
        .iter()
        .find(|a| *a == "ignore" || *a == "lie")
        .cloned()
        .unwrap_or_default();

    for (mode, label) in [(fig3::Mode::Ignore, "ignore"), (fig3::Mode::Lie, "lie")] {
        if !which.is_empty() && which != label {
            continue;
        }
        eprintln!(
            "running fig3 ({label}) at {scale:?} scale ({} parallel simulations) ...",
            fig3::FRACTIONS.len()
        );
        let points = fig3::run(scale, mode, seed);
        let sharers: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.fraction * 100.0, p.sharers_kbps))
            .collect();
        let freeriders: Vec<(f64, f64)> = points
            .iter()
            .map(|p| (p.fraction * 100.0, p.freeriders_kbps))
            .collect();
        let panel = if label == "ignore" { "fig3a" } else { "fig3b" };
        output::write_xy(
            &format!("{panel}_{label}_sharers"),
            &["percent_disobeying", "kbps"],
            &sharers,
        );
        output::write_xy(
            &format!("{panel}_{label}_freeriders"),
            &["percent_disobeying", "kbps"],
            &freeriders,
        );
        println!(
            "{}",
            line_plot(
                &format!("Figure 3 ({label}): avg download speed vs % of peers {label}ing"),
                &[
                    Series::new("sharers", sharers),
                    Series::new("freeriders", freeriders),
                ],
                72,
                18,
            )
        );
        for p in &points {
            println!(
                "{:>4.0}% {label}: sharers {:7.1} KBps, freeriders {:7.1} KBps, ratio {:.3}",
                p.fraction * 100.0,
                p.sharers_kbps,
                p.freeriders_kbps,
                p.ratio()
            );
        }
        println!();
    }
}
