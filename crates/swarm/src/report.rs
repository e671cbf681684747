//! Per-peer outcome rows.

use crate::config::PeerBehaviour;
use bartercast_bt::Contention;
use bartercast_util::units::{Bytes, PeerId};

/// One peer's outcome under one policy run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmRow {
    /// The peer.
    pub peer: PeerId,
    /// Behaviour class.
    pub behaviour: PeerBehaviour,
    /// Policy label of the run (`rank`, `ban(-0.5)`, `ratio(0.5)`).
    pub policy: String,
    /// Pieces held at the end of the run.
    pub pieces: u64,
    /// `pieces / piece_count`.
    pub completeness: f64,
    /// Bytes received over the wire.
    pub downloaded: Bytes,
    /// Bytes served to others.
    pub uploaded: Bytes,
    /// Choke round at which the download completed, if it did.
    pub completed_round: Option<u64>,
}

/// All rows of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SwarmReport {
    /// One row per peer ever in the swarm, in id order.
    pub rows: Vec<SwarmRow>,
    /// Choke contention per role, summed over every node's choker.
    pub contention: Contention,
}

impl SwarmReport {
    /// Mean download completeness of one behaviour class (`None` if
    /// the class is absent from the run).
    pub fn mean_completeness(&self, behaviour: PeerBehaviour) -> Option<f64> {
        let class: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.behaviour == behaviour)
            .map(|r| r.completeness)
            .collect();
        if class.is_empty() {
            None
        } else {
            Some(class.iter().sum::<f64>() / class.len() as f64)
        }
    }
}
