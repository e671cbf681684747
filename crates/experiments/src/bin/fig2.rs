//! Regenerates Figure 2: rank and ban policy effectiveness.
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin fig2 [-- --quick] [rank|ban|sweep]
//! cargo run -p bartercast-experiments --release --bin fig2 -- [--quick] --seeds 1..10
//! ```
//!
//! Writes `results/fig2a_*.csv`, `results/fig2b_*.csv`,
//! `results/fig2c_*.csv` and prints ASCII renderings. With `--seeds
//! A..B` (both ends included) it instead runs panels (a) and (b)'s
//! policies at every seed and writes `results/fig2_seeds.csv`: one row
//! per seed and policy, then the `q1`, `median` and `q3` rows of each
//! policy.

use bartercast_experiments::output;
use bartercast_experiments::{fig2, Scale};
use bartercast_util::plot::{line_plot, Series};
use std::ops::RangeInclusive;

/// Parse `--seeds A..B` into the inclusive range `A..=B`; `None`
/// without the flag, an error when its value is not `A..B`.
fn seeds_from_flag(args: &[String]) -> Result<Option<RangeInclusive<u64>>, String> {
    let Some(i) = args.iter().position(|a| a == "--seeds") else {
        return Ok(None);
    };
    let spec = args.get(i + 1).map_or("", String::as_str);
    let parse = |v: &str| v.parse::<u64>().ok();
    match spec.split_once("..").map(|(a, b)| (parse(a), parse(b))) {
        Some((Some(a), Some(b))) => Ok(Some(a..=b)),
        _ => Err(format!("--seeds takes A..B, got {spec:?}")),
    }
}

/// Run `seeds`, write `fig2_seeds.csv` and print each policy's medians.
fn over_seeds(scale: Scale, seeds: RangeInclusive<u64>) {
    eprintln!("running fig2 over seeds {seeds:?} at {scale:?} scale ...");
    let runs = fig2::run_seeds(scale, seeds);
    let header = [
        "seed",
        "policy",
        "overall_ratio",
        "sharer_reputation",
        "freerider_reputation",
    ];
    let mut w = output::csv("fig2_seeds", &header);
    let cell = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
    for r in &runs {
        w.row([
            r.seed.to_string(),
            r.policy.to_string(),
            cell(r.ratio),
            cell(Some(r.sharer_reputation)),
            cell(Some(r.freerider_reputation)),
        ])
        .expect("write row");
    }
    for (policy, _) in fig2::SEED_POLICIES {
        let column = |f: fn(&fig2::SeedRun) -> Option<f64>| {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.policy == policy)
                .filter_map(f)
                .collect();
            fig2::quartiles(&values)
        };
        let ratio = column(|r| r.ratio);
        let sharers = column(|r| Some(r.sharer_reputation));
        let freeriders = column(|r| Some(r.freerider_reputation));
        for (q, label) in ["q1", "median", "q3"].into_iter().enumerate() {
            let at = |v: Option<[f64; 3]>| cell(v.map(|v| v[q]));
            w.row([
                label.to_string(),
                policy.to_string(),
                at(ratio),
                at(sharers),
                at(freeriders),
            ])
            .expect("write row");
        }
        if let (Some(r), Some(s), Some(f)) = (ratio, sharers, freeriders) {
            println!(
                "{policy}: median overall speed ratio = {:.3} (q1 {:.3}, q3 {:.3}); \
                 median reputation sharers {:+.3} / freeriders {:+.3}",
                r[1], r[0], r[2], s[1], f[1]
            );
        }
    }
    w.finish().expect("flush csv");
    output::announce("fig2_seeds");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_flag(&args);
    match seeds_from_flag(&args) {
        Ok(Some(seeds)) => return over_seeds(scale, seeds),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
    let seed = Scale::seed_from_flag(&args);
    let which = args
        .iter()
        .find(|a| ["rank", "ban", "sweep"].contains(&a.as_str()))
        .cloned()
        .unwrap_or_default();
    eprintln!("running fig2 at {scale:?} scale (5 parallel simulations) ...");
    let data = fig2::run(scale, seed);

    if which.is_empty() || which == "rank" {
        output::write_xy("fig2a_rank_sharers", &["day", "kbps"], &data.rank.sharers);
        output::write_xy(
            "fig2a_rank_freeriders",
            &["day", "kbps"],
            &data.rank.freeriders,
        );
        println!(
            "{}",
            line_plot(
                "Figure 2a: avg download speed (KBps), policy = rank",
                &[
                    Series::new("sharers", data.rank.sharers.clone()),
                    Series::new("freeriders", data.rank.freeriders.clone()),
                ],
                72,
                18,
            )
        );
        if let Some(r) = data.rank.final_ratio {
            println!("rank: freerider/sharer end-of-week speed ratio = {r:.3} (paper: ~0.75)");
        }
        if let Some(r) = data.rank.ratio {
            println!("rank: overall speed ratio = {r:.3}\n");
        }
    }
    if which.is_empty() || which == "ban" {
        output::write_xy("fig2b_ban_sharers", &["day", "kbps"], &data.ban.sharers);
        output::write_xy(
            "fig2b_ban_freeriders",
            &["day", "kbps"],
            &data.ban.freeriders,
        );
        println!(
            "{}",
            line_plot(
                "Figure 2b: avg download speed (KBps), policy = ban(-0.5)",
                &[
                    Series::new("sharers", data.ban.sharers.clone()),
                    Series::new("freeriders", data.ban.freeriders.clone()),
                ],
                72,
                18,
            )
        );
        if let Some(r) = data.ban.final_ratio {
            println!("ban(-0.5): freerider/sharer end-of-week speed ratio = {r:.3} (paper: ~0.5)");
        }
        if let Some(r) = data.ban.ratio {
            println!("ban(-0.5): overall speed ratio = {r:.3}\n");
        }
    }
    if which.is_empty() || which == "sweep" {
        let mut series = Vec::new();
        for run in &data.ban_sweep {
            let name = format!("fig2c_{}_freeriders", run.label.replace(['(', ')'], "_"));
            output::write_xy(&name, &["day", "kbps"], &run.freeriders);
            series.push(Series::new(run.label.clone(), run.freeriders.clone()));
        }
        println!(
            "{}",
            line_plot(
                "Figure 2c: freerider avg download speed (KBps) under ban policy",
                &series,
                72,
                18,
            )
        );
        for run in &data.ban_sweep {
            if let (Some(r), Some(fr)) = (run.ratio, run.final_ratio) {
                println!(
                    "{}: overall ratio = {r:.3}, end-of-week ratio = {fr:.3}",
                    run.label
                );
            }
        }
    }
}
