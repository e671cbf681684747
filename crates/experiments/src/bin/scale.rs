//! Scalability study binary — the paper's future work ("simulations
//! with up to 100,000 peers and assess the scalability of our
//! mechanism").
//!
//! ```text
//! cargo run -p bartercast-experiments --release --bin scale [-- --quick] [--seed N]
//! ```
//!
//! Sweeps the population size and reports, per size: probe subjective
//! graph size, two-hop reputation query latency (p50/p95), pairwise
//! sharer-vs-freerider discrimination accuracy, and gossip volume.
//! Writes `results/scale.csv`.

use bartercast_experiments::{output, Scale};
use bartercast_sim::scale::{run_scale, ScaleConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = Scale::seed_from_flag(&args);
    let sizes: &[usize] = match Scale::from_flag(&args) {
        Scale::Quick => &[300, 1_000, 3_000],
        Scale::Paper => &[1_000, 10_000, 100_000],
    };
    let mut w = output::csv(
        "scale",
        &[
            "peers",
            "graph_edges",
            "query_us_p50",
            "query_us_p95",
            "pairwise_accuracy",
            "messages",
        ],
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10} {:>12}",
        "peers", "graph edges", "query p50", "query p95", "accuracy", "messages"
    );
    for &n in sizes {
        let config = ScaleConfig {
            peers: n,
            probes: 100.min(n / 10).max(10),
            rounds: 30,
            seed,
            ..Default::default()
        };
        let start = std::time::Instant::now();
        let r = run_scale(&config);
        let wall = start.elapsed().as_secs_f64();
        println!(
            "{:>8} {:>12.0} {:>9.1} us {:>9.1} us {:>10.3} {:>12}   ({wall:.1}s wall)",
            r.peers,
            r.mean_graph_edges,
            r.query_us_p50,
            r.query_us_p95,
            r.pairwise_accuracy,
            r.messages
        );
        w.row([
            r.peers.to_string(),
            format!("{:.0}", r.mean_graph_edges),
            format!("{:.2}", r.query_us_p50),
            format!("{:.2}", r.query_us_p95),
            format!("{:.4}", r.pairwise_accuracy),
            r.messages.to_string(),
        ])
        .expect("csv row");
    }
    w.finish().expect("flush");
    output::announce("scale");
    println!(
        "\nThe deployed two-hop bound keeps query latency roughly flat in the\n\
         population size: a probe's subjective graph grows with what it *hears*,\n\
         not with the network, which is the scalability argument of §3.2."
    );
}
