//! Contribution graphs and maxflow algorithms for BarterCast.
//!
//! The paper (§3.1–3.2) models the network as a directed graph whose
//! nodes are peers and whose edge weights are the **total number of
//! bytes** transferred from one peer to another. A peer evaluates
//! another peer by computing the *maximum flow* between them in its
//! local, subjective copy of this graph.
//!
//! This crate provides:
//!
//! * [`ContributionGraph`] — the weighted directed graph of aggregated
//!   transfers, with max-merge semantics for gossiped records.
//! * [`FlowNetwork`] — a residual flow network built from a
//!   contribution graph.
//! * [`maxflow`] — five algorithms:
//!   Ford–Fulkerson with DFS (the paper's Algorithm 1), Edmonds–Karp,
//!   Dinic, FIFO push–relabel, and the **depth-bounded** variant with
//!   the deployed two-hop limit (§3.2: "our implementation only
//!   regards paths with a maximum length of two"). The ablation study
//!   runs Dinic against the bounded variant; the other three are
//!   differential-test oracles.
//! * [`ssat`] — the single-source all-targets kernel for the deployed
//!   two-hop bound: one traversal of a node's two-hop neighbourhood
//!   yields its bounded maxflow to (or from) every other peer at once.
//! * [`backend`] — [`FlowKernel`], the one evaluator the reputation
//!   engine holds: per-pair flow with the configured method (the
//!   closed form over the two endpoints' adjacency for `k ≤ 2`), and
//!   which methods have the single-source [`ssat`] sweep.
//! * [`mincut`] — source- and sink-side minimum cuts, used by tests to
//!   verify the max-flow/min-cut theorem on every computed flow.
//! * [`analysis`] — graph statistics, the §3.2 two-hop coverage
//!   measure, and DOT export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod backend;
pub mod contribution;
mod csr;
pub mod maxflow;
pub mod mincut;
pub mod network;
pub mod ssat;

pub use backend::{FlowKernel, FlowPair};
pub use contribution::ContributionGraph;
pub use maxflow::{compute, Method, DEPLOYED_MAX_PATH_LEN};
pub use network::FlowNetwork;
