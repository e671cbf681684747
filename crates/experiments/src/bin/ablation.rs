//! Ablation study: the design choices DESIGN.md calls out, measured
//! end-to-end in the trace-driven simulator rather than in isolation.
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin ablation [-- --quick]
//! ```
//!
//! * **Maxflow path bound** — the deployed two-hop bound versus a
//!   three-hop bound and unbounded Dinic: reputation *accuracy*
//!   (Spearman rank correlation of system reputation against
//!   ground-truth net contribution) and wall time.
//! * **Reputation metric** — arctan versus linear clamp at the same
//!   unit.
//!
//! Writes `results/ablation.csv`.

#![forbid(unsafe_code)]

use bartercast_core::message::BarterCastConfig;
use bartercast_core::metric::ReputationMetric;
use bartercast_experiments::{output, Scale};
use bartercast_graph::maxflow::Method;
use bartercast_sim::sweep::run_configs;
use bartercast_sim::SimConfig;
use bartercast_util::stats::spearman;
use bartercast_util::units::Bytes;
use std::time::Instant;

struct Variant {
    label: &'static str,
    maxflow: Method,
    metric: ReputationMetric,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_flag(&args);
    let seed = Scale::seed_from_flag(&args);
    let variants = [
        Variant {
            label: "bounded2_arctan (deployed)",
            maxflow: Method::DEPLOYED,
            metric: ReputationMetric::default(),
        },
        Variant {
            label: "bounded3_arctan",
            maxflow: Method::Bounded(3),
            metric: ReputationMetric::default(),
        },
        Variant {
            label: "unbounded_dinic_arctan",
            maxflow: Method::Dinic,
            metric: ReputationMetric::default(),
        },
        Variant {
            label: "bounded2_linear_clamp",
            maxflow: Method::DEPLOYED,
            metric: ReputationMetric::LinearClamp {
                unit: Bytes::from_gb(2),
            },
        },
    ];
    eprintln!(
        "running {} ablation variants at {scale:?} scale (parallel) ...",
        variants.len()
    );
    let trace = scale.trace(seed);
    let base = scale.sim_config(seed);
    let configs: Vec<SimConfig> = variants
        .iter()
        .map(|v| SimConfig {
            maxflow: v.maxflow,
            metric: v.metric,
            ..base.clone()
        })
        .collect();
    let start = Instant::now();
    let reports = run_configs(&trace, configs);
    let wall = start.elapsed().as_secs_f64();

    let mut w = output::csv(
        "ablation",
        &["variant", "spearman", "sharer_rep", "freerider_rep"],
    );
    println!(
        "{:<28} {:>9} {:>12} {:>14}",
        "variant", "spearman", "sharer rep", "freerider rep"
    );
    for (v, r) in variants.iter().zip(&reports) {
        let xs: Vec<f64> = r.outcomes.iter().map(|o| o.net_contribution_gb).collect();
        let ys: Vec<f64> = r.outcomes.iter().map(|o| o.system_reputation).collect();
        let rho = spearman(&xs, &ys).unwrap_or(f64::NAN);
        let (s_rep, f_rep) = r.mean_final_reputation();
        println!("{:<28} {rho:>9.3} {s_rep:>+12.4} {f_rep:>+14.4}", v.label);
        w.row([
            v.label.to_string(),
            format!("{rho:.4}"),
            format!("{s_rep:.4}"),
            format!("{f_rep:.4}"),
        ])
        .expect("csv row");
    }
    w.finish().expect("flush");
    output::announce("ablation");

    // Nh/Nr record-selection ablation (§3.4: the paper uses 10/10):
    // fewer records per message starve the shared history; more mostly
    // cost bandwidth
    eprintln!("running Nh/Nr record-selection ablation ...");
    let selections = [5usize, 10, 25];
    let sel_configs: Vec<SimConfig> = selections
        .iter()
        .map(|&k| SimConfig {
            bartercast: BarterCastConfig { nh: k, nr: k },
            ..base.clone()
        })
        .collect();
    let sel_reports = run_configs(&trace, sel_configs);
    let mut w = output::csv("ablation_nh_nr", &["nh_nr", "spearman", "messages"]);
    println!("\n{:<8} {:>9} {:>12}", "Nh=Nr", "spearman", "messages");
    for (&k, r) in selections.iter().zip(&sel_reports) {
        let xs: Vec<f64> = r.outcomes.iter().map(|o| o.net_contribution_gb).collect();
        let ys: Vec<f64> = r.outcomes.iter().map(|o| o.system_reputation).collect();
        let rho = spearman(&xs, &ys).unwrap_or(f64::NAN);
        println!("{k:<8} {rho:>9.3} {:>12}", r.messages_delivered);
        w.row([
            k.to_string(),
            format!("{rho:.4}"),
            r.messages_delivered.to_string(),
        ])
        .expect("csv row");
    }
    w.finish().expect("flush");
    output::announce("ablation_nh_nr");
    println!("\ntotal wall time for all variants (parallel): {wall:.1}s");
}
