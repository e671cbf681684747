//! Minimum s–t cuts from residual reachability.
//!
//! After a maxflow run the set `S` of nodes reachable from the source in
//! the residual network defines a minimum cut `(S, V∖S)` whose capacity
//! equals the maxflow value (max-flow/min-cut theorem). The property
//! tests use this as an independent certificate for every flow the
//! algorithms produce.

use crate::network::FlowNetwork;

/// The source side of a minimum cut, as dense node indices, computed on
/// the residual network left behind by a maxflow run.
pub fn source_side(net: &FlowNetwork, s: u32) -> Vec<bool> {
    let n = net.node_count();
    let mut reachable = vec![false; n];
    let mut stack = vec![s];
    reachable[s as usize] = true;
    while let Some(u) = stack.pop() {
        for &ai in net.arcs_of(u) {
            let arc = net.arcs[ai as usize];
            if arc.cap > 0 && !reachable[arc.to as usize] {
                reachable[arc.to as usize] = true;
                stack.push(arc.to);
            }
        }
    }
    reachable
}

/// The **complement of the sink side** of a minimum cut: `true` for
/// nodes that can *not* reach `t` in the residual network (so the
/// vector is directly usable as the `S` side for [`cut_capacity`]).
///
/// Unlike [`source_side`], this certificate is valid for a maximum
/// **preflow** as well as a maximum flow: push–relabel without a
/// second (flow-decomposition) phase may leave excess trapped at
/// interior nodes, which can make extra nodes residually reachable
/// *from* `s`, but the set of nodes that cannot reach `t` still forms
/// a minimum cut of value `excess(t)`.
pub fn sink_side_complement(net: &FlowNetwork, t: u32) -> Vec<bool> {
    let n = net.node_count();
    // reverse residual reachability: walk arcs (u -> v, cap > 0)
    // backwards from t, using the twin-arc layout (arc `ai` leaves the
    // node that arc `ai ^ 1` points at)
    let mut reaches_t = vec![false; n];
    let mut stack = vec![t];
    reaches_t[t as usize] = true;
    while let Some(v) = stack.pop() {
        for &ai in net.arcs_of(v) {
            // arc ai is (v -> x); its twin ai ^ 1 is (x -> v), whose
            // remaining capacity decides whether x reaches t through v
            let x = net.arcs[ai as usize].to;
            if net.arcs[(ai ^ 1) as usize].cap > 0 && !reaches_t[x as usize] {
                reaches_t[x as usize] = true;
                stack.push(x);
            }
        }
    }
    reaches_t.into_iter().map(|r| !r).collect()
}

/// Capacity of the cut `(S, V∖S)` in the **original** network: the sum
/// of original capacities of forward arcs leaving `S`.
///
/// `net` must be in post-maxflow state and `side` must come from
/// [`source_side`] on that same state; we recover original capacities
/// as `remaining + flow` = `cap_fwd + cap_residual_twin` is *not* valid
/// in general, so callers should pass a freshly rebuilt network via
/// `cut_capacity_fresh` when they have mutated capacities. This
/// function instead sums *current forward + twin* capacities, which for
/// an arc equals its original capacity (flow conservation on the pair).
pub fn cut_capacity(net: &FlowNetwork, side: &[bool]) -> u64 {
    let mut cap = 0u64;
    for ai in (0..net.arcs.len()).step_by(2) {
        let to = net.arcs[ai].to as usize;
        let from = net.arcs[ai + 1].to as usize;
        if side[from] && !side[to] {
            // original capacity = remaining forward + accumulated twin
            cap += net.arcs[ai].cap + net.arcs[ai + 1].cap;
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contribution::ContributionGraph;
    use crate::maxflow;
    use bartercast_util::units::{Bytes, PeerId};

    fn p(i: u32) -> PeerId {
        PeerId(i)
    }

    #[test]
    fn mincut_equals_maxflow_clrs() {
        let mut g = ContributionGraph::new();
        for (f, t, c) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ] {
            g.add_transfer(p(f), p(t), Bytes(c));
        }
        let mut net = FlowNetwork::from_graph(&g);
        let s = net.node(p(0)).unwrap();
        let t = net.node(p(5)).unwrap();
        let flow = maxflow::dinic(&mut net, s, t);
        let side = source_side(&net, s);
        assert!(side[s as usize]);
        assert!(!side[t as usize]);
        assert_eq!(cut_capacity(&net, &side), flow);
        assert_eq!(flow, 23);
    }

    #[test]
    fn every_backend_produces_a_certified_cut() {
        // cross-backend min-cut certificate: for each maxflow backend,
        // the cut read off the residual network must separate s from t
        // and its capacity must equal the returned flow value
        let mut g = ContributionGraph::new();
        for (f, t, c) in [
            (0, 1, 16),
            (0, 2, 13),
            (1, 2, 10),
            (2, 1, 4),
            (1, 3, 12),
            (3, 2, 9),
            (2, 4, 14),
            (4, 3, 7),
            (3, 5, 20),
            (4, 5, 4),
        ] {
            g.add_transfer(p(f), p(t), Bytes(c));
        }
        let mut net = FlowNetwork::from_graph(&g);
        let s = net.node(p(0)).unwrap();
        let t = net.node(p(5)).unwrap();
        type Backend = (&'static str, fn(&mut FlowNetwork, u32, u32) -> u64);
        let backends: [Backend; 5] = [
            ("ford_fulkerson", maxflow::ford_fulkerson),
            ("edmonds_karp", maxflow::edmonds_karp),
            ("dinic", maxflow::dinic),
            ("push_relabel", maxflow::push_relabel),
            ("bounded_full", |n, s, t| maxflow::bounded(n, s, t, 100)),
        ];
        for (name, run) in backends {
            net.reset();
            let flow = run(&mut net, s, t);
            assert_eq!(flow, 23, "{name} flow value");
            // sink-side certificate: valid for flows and preflows alike
            let side = sink_side_complement(&net, t);
            assert!(side[s as usize], "{name}: s must be on the S side");
            assert!(!side[t as usize], "{name}: t must be cut off");
            assert_eq!(cut_capacity(&net, &side), flow, "{name} sink-side cut");
            if name != "push_relabel" {
                // source-side certificate needs a genuine flow (no
                // trapped excess), which augmenting backends guarantee
                let side = source_side(&net, s);
                assert!(side[s as usize] && !side[t as usize], "{name} separation");
                assert_eq!(cut_capacity(&net, &side), flow, "{name} source-side cut");
            }
        }
    }

    #[test]
    fn disconnected_target_gives_zero_cut() {
        let mut g = ContributionGraph::new();
        g.add_transfer(p(0), p(1), Bytes(5));
        g.add_transfer(p(2), p(3), Bytes(5));
        let mut net = FlowNetwork::from_graph(&g);
        let s = net.node(p(0)).unwrap();
        let t = net.node(p(3)).unwrap();
        let flow = maxflow::dinic(&mut net, s, t);
        assert_eq!(flow, 0);
        let side = source_side(&net, s);
        assert_eq!(cut_capacity(&net, &side), 0);
    }
}
