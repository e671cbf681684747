//! Diagnostic probe: inspect subjective graph richness and pairwise
//! reputation distribution after a paper-scale run. Not part of the
//! figure set; kept for debugging the reproduction.

use bartercast_experiments::Scale;
use bartercast_sim::Simulation;

fn main() {
    let scale = Scale::Paper;
    let trace = scale.trace(42);
    let config = scale.sim_config(42);
    let mut sim = Simulation::new(trace, config);
    while sim.now().0 < 7 * 86_400 {
        sim.step();
    }
    let ((cl, xl), (cs, xs)) = sim.mean_contention();
    println!("active choke candidates: leechers {cl:.2} (over-slot rounds {xl}), seeders {cs:.2} (over-slot rounds {xs})");
    // graph richness
    let mut edge_counts: Vec<usize> = Vec::new();
    for p in sim.peers() {
        edge_counts.push(p.engine.graph().edge_count());
    }
    edge_counts.sort_unstable();
    println!(
        "subjective graph edges: min {} median {} max {}",
        edge_counts[0],
        edge_counts[edge_counts.len() / 2],
        edge_counts[edge_counts.len() - 1]
    );
    // ground truth
    let mut ups: Vec<f64> = sim.peers().iter().map(|p| p.real_up.as_gb()).collect();
    ups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "real upload GB: min {:.2} median {:.2} max {:.2}",
        ups[0],
        ups[ups.len() / 2],
        ups[ups.len() - 1]
    );
    // pairwise reputation distribution from one evaluator
    let n = sim.peers().len();
    let indices: Vec<usize> = (10..n.min(30)).collect();
    for &j in &indices {
        let evaluator = sim.peers()[j].id;
        for i in 10..n {
            if i == j {
                continue;
            }
            let target = sim.peers()[i].id;
            // need mutable access: recompute via immutable clone is heavy;
            // use system_reputations helper instead
            let _ = (evaluator, target);
        }
    }
    let idx: Vec<usize> = (10..n).collect();
    let sys = sim.system_reputations(&idx);
    let mut sorted = sys.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "system reputation: min {:.4} median {:.4} max {:.4}",
        sorted[0],
        sorted[sorted.len() / 2],
        sorted[sorted.len() - 1]
    );
    // one informed pair: evaluator 10's view of everyone
    let ids: Vec<_> = sim.peers().iter().map(|p| p.id).collect();
    let evaluator = ids[10];
    let mut probe_peers: Vec<(u32, f64)> = Vec::new();
    for &target in &ids[11..] {
        let r = sim.peers_mut()[10].engine.reputation(evaluator, target);
        probe_peers.push((target.0, r));
    }
    let informed = probe_peers.iter().filter(|(_, r)| r.abs() > 0.01).count();
    let mut vals: Vec<f64> = probe_peers.iter().map(|(_, r)| *r).collect();
    vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "peer 10's view: {} informed of {}; min {:.4} median {:.4} max {:.4}",
        informed,
        probe_peers.len(),
        vals[0],
        vals[vals.len() / 2],
        vals[vals.len() - 1]
    );
    // group upload/download totals
    let mut su = Vec::new();
    let mut fu = Vec::new();
    let mut sd = Vec::new();
    let mut fd = Vec::new();
    for (i, p) in sim.peers().iter().enumerate() {
        if sim.is_archival(i) {
            continue;
        }
        if p.behaviour == bartercast_sim::Behaviour::Freerider {
            fu.push(p.real_up.as_gb());
            fd.push(p.real_down.as_gb());
        } else {
            su.push(p.real_up.as_gb());
            sd.push(p.real_down.as_gb());
        }
    }
    for v in [&mut su, &mut fu, &mut sd, &mut fd] {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }
    println!(
        "sharer up median {:.2} GB / down {:.2} GB; freerider up median {:.2} GB / down {:.2} GB",
        su[su.len() / 2],
        sd[sd.len() / 2],
        fu[fu.len() / 2],
        fd[fd.len() / 2]
    );
    // group-wise view from peer 10
    let behaviours: Vec<bool> = sim
        .peers()
        .iter()
        .map(|p| p.behaviour == bartercast_sim::Behaviour::Freerider)
        .collect();
    let mut sharer_vals: Vec<f64> = Vec::new();
    let mut freerider_vals: Vec<f64> = Vec::new();
    for (pid, r) in &probe_peers {
        if behaviours[*pid as usize] {
            freerider_vals.push(*r);
        } else {
            sharer_vals.push(*r);
        }
    }
    sharer_vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    freerider_vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "peer 10's view of sharers: median {:.3}; of freeriders: median {:.3}",
        sharer_vals[sharer_vals.len() / 2],
        freerider_vals[freerider_vals.len() / 2]
    );
    let g = sim.peers()[10].engine.graph();
    let me = sim.peers()[10].id;
    println!(
        "peer 10 totals in own graph: up {} down {}",
        g.total_up(me),
        g.total_down(me)
    );
}
