//! The BarterCast protocol core (paper §3–4).
//!
//! BarterCast gives every peer a *subjective* view of who contributes to
//! the network and who freerides, with no central component:
//!
//! 1. Each peer records its own transfers in a [`PrivateHistory`]
//!    (§3.4): a table of `(peer, uploaded, downloaded)` entries that
//!    nobody else can manipulate.
//! 2. Peers periodically exchange [`BarterCastMessage`]s carrying a
//!    selection of their private history — the `Nh` peers with the
//!    highest upload to the sender plus the `Nr` most recently seen
//!    (§3.4, the paper uses `Nh = Nr = 10`).
//! 3. Received records are max-merged into a subjective
//!    [`ContributionGraph`], over which the peer evaluates anyone via
//!    **maxflow** — bounded to two-hop paths in the deployed system.
//! 4. The [`metric`] maps the two directed maxflows through `arctan`
//!    into a reputation in `(-1, 1)` (§3.3, Equation 1).
//! 5. [`policy`] turns reputations into BitTorrent decisions: the
//!    **rank** policy orders optimistic unchokes by reputation and the
//!    **ban** policy refuses slots below a threshold δ (§4.2).
//! 6. [`audit`] cross-checks the two first-hand claims every edge has
//!    (uploader and downloader), flagging the §5.4 selfish-lie pattern
//!    — a concrete step toward the paper's die-hard-cheating future
//!    work.
//!
//! [`ContributionGraph`]: bartercast_graph::ContributionGraph

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod codec;
pub mod frontier;
pub mod history;
pub mod message;
pub mod metric;
pub mod peer;
pub mod policy;
pub mod repcache;
pub mod shard;

pub use audit::Auditor;
pub use frontier::{DeltaMsg, Frontier, SliceRecord, SyncPlan};
pub use history::{PieceProvenance, PrivateHistory, TransferTotals};
pub use message::{BarterCastConfig, BarterCastMessage, TransferRecord};
pub use metric::{reputation_from_flows, ReputationMetric};
pub use peer::PeerState;
pub use policy::{PolicyDecision, ReputationPolicy};
pub use repcache::{CacheStats, ReputationEngine};
pub use shard::{EpochView, HashPartitioner, Partitioner, ShardStats, ShardedEngine};
