//! Swarm workload parameters.

use bartercast_bt::{BtConfig, ChokePolicy, RatioPolicy};
use bartercast_core::policy::ReputationPolicy;
use bartercast_util::units::{Bytes, Seconds};

/// How a peer behaves in the swarm (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerBehaviour {
    /// Serves piece requests, unchokes by policy, advertises its
    /// pieces.
    Cooperator,
    /// Lazy freerider: downloads but never serves a request, never
    /// unchokes anyone, and hides its pieces (empty bitfield adverts,
    /// no `Have` broadcasts) so nobody wastes requests on it.
    Freerider,
}

/// The choke policy a swarm run enforces — either one of the paper's
/// reputation policies (none/rank/ban, §4.2) or the private-tracker
/// ratio policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SwarmPolicy {
    /// none / rank / ban over Equation-1 reputations.
    Reputation(ReputationPolicy),
    /// Minimum share ratio with a grace allowance.
    Ratio(RatioPolicy),
}

impl SwarmPolicy {
    /// Borrow as the trait object
    /// [`Choker::unchoke`](bartercast_bt::Choker::unchoke) consumes.
    pub fn as_dyn(&self) -> &dyn ChokePolicy {
        match self {
            SwarmPolicy::Reputation(p) => p,
            SwarmPolicy::Ratio(r) => r,
        }
    }

    /// CSV label (`none`, `rank`, `ban(-0.5)`, `ratio(0.5)`).
    pub fn label(&self) -> String {
        self.as_dyn().policy_label()
    }
}

/// Per-node workload tuning; the swarm-wide content geometry
/// (`piece_count`, `piece_size`) must agree across all members.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwarmParams {
    /// Number of pieces in the shared content.
    pub piece_count: usize,
    /// Declared size of every piece (payloads are logical: frames
    /// carry index + size, not data bytes).
    pub piece_size: Bytes,
    /// This node's behaviour class.
    pub behaviour: PeerBehaviour,
    /// Whether the node starts with the complete content (initial
    /// seeder) or empty.
    pub seed_initial: bool,
    /// The choke policy this node enforces.
    pub policy: SwarmPolicy,
    /// Upload-slot counts and periods for the shared
    /// [`Choker`](bartercast_bt::Choker). `optimistic_rounds` derives from the
    /// two periods; the wall-clock values are otherwise unused (the
    /// reactor's choke-round timer sets the real cadence).
    pub bt: BtConfig,
    /// Maximum outstanding piece requests per remote peer.
    pub pipeline: usize,
    /// Piece uploads served per choke round by a *leecher*, across
    /// all unchoked peers (the node's upload capacity). Keep this
    /// *below* the total unchoke slot count: upload scarcity is what
    /// makes the choke policy bite — with surplus capacity even
    /// round-robin seeding feeds freeriders at full speed and no
    /// policy can show suppression.
    pub upload_pieces_per_round: usize,
    /// Re-request a pending piece after this many rounds without the
    /// piece arriving (recovers frames lost by the transport).
    pub request_timeout_rounds: u64,
}

impl Default for SwarmParams {
    fn default() -> Self {
        SwarmParams {
            piece_count: 32,
            // 32 x 256 MB = 8 GB of content: Equation-1 reputations
            // saturate on a gigabyte scale (arctan of GB-normalized
            // flows), so piece transfers must move gigabytes for the
            // rank ordering to carry signal and for ban's delta to be
            // reachable at all
            piece_size: Bytes::from_mb(256),
            behaviour: PeerBehaviour::Cooperator,
            seed_initial: false,
            policy: SwarmPolicy::Reputation(ReputationPolicy::None),
            bt: BtConfig {
                regular_slots: 2,
                unchoke_period: Seconds(10),
                optimistic_period: Seconds(30),
            },
            pipeline: 4,
            upload_pieces_per_round: 1,
            request_timeout_rounds: 3,
        }
    }
}

impl SwarmParams {
    /// Panics on inconsistent parameters.
    pub fn validate(&self) {
        assert!(self.piece_count > 0, "need at least one piece");
        assert!(self.piece_size.0 > 0, "pieces must have a size");
        assert!(self.pipeline > 0, "pipeline must admit requests");
        assert!(
            self.upload_pieces_per_round > 0,
            "upload budget must be positive"
        );
        assert!(self.request_timeout_rounds > 0, "timeout must be positive");
    }
}
