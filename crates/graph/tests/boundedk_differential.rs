//! Differential harness for the layered-DAG bounded-k kernel.
//!
//! Pins the kernel's exactness contract on random directed graphs for
//! every hop bound `k ∈ {1..6}`:
//!
//! * `BoundedKKernel` point queries, `flows_from` sweeps and
//!   `flows_into` sweeps are all **bit-identical** to per-pair
//!   depth-bounded evaluation (`maxflow::compute` with
//!   `Method::Bounded(k)`) for every ordered pair — including pairs
//!   outside the k-ball, whose flow must be zero;
//! * at `k = 2` the kernel agrees with the existing closed-form SSAT
//!   kernel ([`bartercast_graph::ssat`]), tying the generalization
//!   back to the deployed two-hop path;
//! * [`FlowKernel`] — the engine's evaluator, which sweeps every
//!   finite bound — produces the same values through its surface;
//! * a deterministic 64-node directed ring-plus-chords case pins the
//!   behaviour at realistic scale for `k ∈ {3, 4}`.
//!
//! Bit-identity is the strongest possible contract here because for
//! `k ≥ 3` the bounded value is augmentation-order dependent: the
//! kernel must reproduce the reference procedure's exact path
//! sequence, not merely some maximal bounded flow.
//!
//! Runs under the vendored deterministic proptest (fixed per-case seed
//! derivation, no regression files); `scripts/tier1.sh` runs it
//! explicitly and fails on any `proptest-regressions` drift.

use bartercast_graph::backend::FlowKernel;
use bartercast_graph::boundedk::BoundedKKernel;
use bartercast_graph::contribution::ContributionGraph;
use bartercast_graph::maxflow::{self, Method};
use bartercast_graph::ssat;
use bartercast_util::units::{Bytes, PeerId};
use bartercast_util::FxHashMap;
use proptest::prelude::*;

fn p(i: u32) -> PeerId {
    PeerId(i)
}

fn edges_strategy() -> impl Strategy<Value = Vec<(u32, u32, u64)>> {
    prop::collection::vec((0u32..14, 0u32..14, 1u64..1000), 0..70)
}

fn build_directed(edges: &[(u32, u32, u64)]) -> ContributionGraph {
    let mut g = ContributionGraph::new();
    for &(f, t, c) in edges {
        if f != t {
            g.add_transfer(p(f), p(t), Bytes(c));
        }
    }
    g
}

fn sorted_nodes(g: &ContributionGraph) -> Vec<PeerId> {
    let mut nodes: Vec<PeerId> = g.nodes().into_iter().collect();
    nodes.sort_unstable_by_key(|n| n.0);
    nodes
}

fn get(m: &FxHashMap<PeerId, Bytes>, k: &PeerId) -> Bytes {
    m.get(k).copied().unwrap_or(Bytes::ZERO)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole contract: kernel == per-pair depth-bounded evaluation,
    /// bit for bit, on every ordered pair and every tested k.
    #[test]
    fn kernel_is_bit_identical_to_per_pair_bounded(
        edges in edges_strategy(),
        k in 1usize..=6,
    ) {
        let g = build_directed(&edges);
        let nodes = sorted_nodes(&g);
        let mut kernel = BoundedKKernel::new(k);
        for &s in &nodes {
            let away = kernel.flows_from(&g, s);
            let toward = kernel.flows_into(&g, s);
            for &t in &nodes {
                if s == t {
                    continue;
                }
                let out_ref = maxflow::compute(&g, s, t, Method::Bounded(k));
                let in_ref = maxflow::compute(&g, t, s, Method::Bounded(k));
                prop_assert_eq!(get(&away, &t), out_ref, "away {} -> {} at k={}", s, t, k);
                prop_assert_eq!(get(&toward, &t), in_ref, "toward {} -> {} at k={}", t, s, k);
                prop_assert_eq!(kernel.flow(&g, s, t), out_ref, "point {} -> {}", s, t);
            }
        }
    }

    /// At the deployed bound the layered DAG and the disjoint-paths
    /// closed form are two derivations of the same function.
    #[test]
    fn kernel_matches_closed_form_at_k2(edges in edges_strategy()) {
        let g = build_directed(&edges);
        let mut kernel = BoundedKKernel::new(2);
        for s in sorted_nodes(&g) {
            let away = kernel.flows_from(&g, s);
            let closed_away = ssat::flows_from(&g, s);
            let toward = kernel.flows_into(&g, s);
            let closed_toward = ssat::flows_into(&g, s);
            for j in away.keys().chain(closed_away.keys()) {
                prop_assert_eq!(get(&away, j), get(&closed_away, j), "away {} of {}", j, s);
            }
            for j in toward.keys().chain(closed_toward.keys()) {
                prop_assert_eq!(get(&toward, j), get(&closed_toward, j), "toward {} of {}", j, s);
            }
        }
    }

    /// `FlowKernel` serves k ≥ 3 through the layered-DAG kernel:
    /// its sweeps and point queries match per-pair evaluation exactly.
    #[test]
    fn ssat_backend_matches_per_pair_for_all_finite_k(
        edges in edges_strategy(),
        k in 1usize..=6,
    ) {
        let g = build_directed(&edges);
        let method = Method::Bounded(k);
        let mut backend = FlowKernel::new(method);
        let nodes = sorted_nodes(&g);
        for &i in &nodes {
            let flows = backend.all_flows_from(&g, i).expect("finite k has a sweep");
            for &j in &nodes {
                if i == j {
                    continue;
                }
                let pair = flows.get(&j).copied().unwrap_or_default();
                prop_assert_eq!(pair.away, maxflow::compute(&g, i, j, method));
                prop_assert_eq!(pair.toward, maxflow::compute(&g, j, i, method));
                prop_assert_eq!(backend.flow(&g, i, j), pair.away);
            }
        }
    }
}

/// Deterministic 64-node directed ring plus pseudo-random chords,
/// checked at k = 3 and k = 4.
#[test]
fn kernel_agrees_with_per_pair_at_64_nodes() {
    let n = 64u32;
    let mut g = ContributionGraph::new();
    for i in 0..n {
        let j = (i + 1) % n;
        let w = 50 + (i as u64 * 37) % 400;
        g.add_transfer(p(i), p(j), Bytes(w));
        g.add_transfer(p(j), p(i), Bytes(w / 2 + 1));
    }
    let mut x = 0x9E3779B97F4A7C15u64;
    for _ in 0..3 * n {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = ((x >> 33) % n as u64) as u32;
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = ((x >> 33) % n as u64) as u32;
        if a != b {
            g.add_transfer(p(a), p(b), Bytes(10 + (x % 300)));
        }
    }
    for k in [3usize, 4] {
        let mut kernel = BoundedKKernel::new(k);
        for s in 0..n {
            let away = kernel.flows_from(&g, p(s));
            let toward = kernel.flows_into(&g, p(s));
            // every node against a stride of targets, plus full checks
            // that sweep entries absent from the stride are consistent
            for step in 0..4 {
                let t = (s + 7 + 13 * step) % n;
                if s == t {
                    continue;
                }
                let out_ref = maxflow::compute(&g, p(s), p(t), Method::Bounded(k));
                let in_ref = maxflow::compute(&g, p(t), p(s), Method::Bounded(k));
                assert_eq!(get(&away, &p(t)), out_ref, "away ({s}, {t}) k={k}");
                assert_eq!(get(&toward, &p(t)), in_ref, "toward ({t}, {s}) k={k}");
            }
        }
    }
}

/// The order-dependence witness as an integration pin: two graphs that
/// differ only in edge insertion order (hence adjacency order) may
/// have different Bounded(3) values — and the kernel must track the
/// reference on each of them individually.
#[test]
fn kernel_tracks_reference_across_insertion_orders() {
    let edge_sets: [&[(u32, u32)]; 2] = [
        &[(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)],
        &[(0, 2), (0, 1), (2, 4), (2, 3), (1, 3), (4, 5), (3, 5)],
    ];
    for edges in edge_sets {
        let mut g = ContributionGraph::new();
        for &(f, t) in edges {
            g.add_transfer(p(f), p(t), Bytes(1));
        }
        let mut kernel = BoundedKKernel::new(3);
        assert_eq!(
            kernel.flow(&g, p(0), p(5)),
            maxflow::compute(&g, p(0), p(5), Method::Bounded(3))
        );
    }
}
