//! Protocol-disobedience models (§5.4).
//!
//! The paper tests two manipulations, both applied to a random subset
//! of the freeriders (sharers, being cooperative, obey the protocol):
//!
//! 1. **Ignore** — peers do not send any BarterCast messages at all;
//! 2. **Lie** — peers "lie in a selfish way by claiming they sent huge
//!    amounts of data to other peers and received nothing".

use bartercast_util::units::Bytes;

/// Which manipulation (if any) the disobeying peers perform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryModel {
    /// Everyone follows the protocol.
    None,
    /// A fraction of all peers (drawn from the freeriders) send no
    /// BarterCast messages.
    Ignore {
        /// Fraction of the whole population that disobeys, in `[0, 0.5]`.
        fraction: f64,
    },
    /// A fraction of all peers (drawn from the freeriders) send
    /// fabricated records claiming huge uploads and zero downloads.
    Lie {
        /// Fraction of the whole population that disobeys, in `[0, 0.5]`.
        fraction: f64,
        /// The fabricated per-record upload claim.
        claim: Bytes,
    },
}

impl AdversaryModel {
    /// The disobeying fraction of the population.
    pub fn fraction(&self) -> f64 {
        match *self {
            AdversaryModel::None => 0.0,
            AdversaryModel::Ignore { fraction } | AdversaryModel::Lie { fraction, .. } => fraction,
        }
    }

    /// Standard lie magnitude used in the experiments.
    pub fn default_lie(fraction: f64) -> Self {
        AdversaryModel::Lie {
            fraction,
            claim: Bytes::from_gb(100),
        }
    }
}

/// What an individual peer does with the message protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conduct {
    /// Sends honest messages.
    Honest,
    /// Sends nothing.
    Silent,
    /// Sends fabricated messages claiming this much uploaded to every
    /// advertised peer.
    Lying(Bytes),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        assert_eq!(AdversaryModel::None.fraction(), 0.0);
        assert_eq!(AdversaryModel::Ignore { fraction: 0.3 }.fraction(), 0.3);
        assert_eq!(AdversaryModel::default_lie(0.18).fraction(), 0.18);
    }

    #[test]
    fn default_lie_is_huge() {
        if let AdversaryModel::Lie { claim, .. } = AdversaryModel::default_lie(0.1) {
            assert!(claim >= Bytes::from_gb(10));
        } else {
            panic!("expected lie model");
        }
    }
}
