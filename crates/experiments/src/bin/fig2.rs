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
//! policies and the no-policy control at every seed and writes
//! `results/fig2_seeds.csv`: one row per seed and policy (speed ratio,
//! final reputations, each group's share of bytes per uploader slot
//! kind), then the `q1`, `median` and `q3` rows of each policy.

#![forbid(unsafe_code)]

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
    let columns = fig2::SeedRun::columns();
    let mut header = vec!["seed", "policy"];
    header.extend(columns.iter().map(String::as_str));
    let mut w = output::csv("fig2_seeds", &header);
    let cell = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
    for r in &runs {
        let values = r.values().into_iter().map(cell);
        w.row(
            [r.seed.to_string(), r.policy.to_string()]
                .into_iter()
                .chain(values),
        )
        .expect("write row");
    }
    for (policy, _) in fig2::SEED_POLICIES {
        let rows: Vec<Vec<Option<f64>>> = runs
            .iter()
            .filter(|r| r.policy == policy)
            .map(fig2::SeedRun::values)
            .collect();
        let quartiles: Vec<Option<[f64; 3]>> = (0..columns.len())
            .map(|c| fig2::quartiles(&rows.iter().filter_map(|v| v[c]).collect::<Vec<_>>()))
            .collect();
        for (q, label) in ["q1", "median", "q3"].into_iter().enumerate() {
            let values = quartiles.iter().map(|v| cell(v.map(|v| v[q])));
            w.row(
                [label.to_string(), policy.to_string()]
                    .into_iter()
                    .chain(values),
            )
            .expect("write row");
        }
        if let [Some(r), Some(s), Some(f), ..] = quartiles[..] {
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
