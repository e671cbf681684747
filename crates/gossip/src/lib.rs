//! An epidemic Peer Sampling Service (PSS).
//!
//! BarterCast assumes "that peers can discover other peers by using a
//! Peer Sampling Service" whose implementation is transparent to the
//! protocol (§3.4); Tribler uses the BuddyCast epidemic protocol. This
//! crate provides a faithful random-view PSS in the Cyclon/Newscast
//! family:
//!
//! * every peer keeps a bounded [`PartialView`] of node descriptors
//!   with ages;
//! * on each gossip cycle a peer picks its **oldest** descriptor as
//!   exchange partner, and the two peers swap random halves of their
//!   views ([`shuffle`]);
//! * descriptor ages ensure dead peers eventually wash out of views.
//!
//! The simulator drives one [`PssNode`] per peer and uses
//! [`PssNode::sample`] both for BarterCast meeting partners and for
//! BitTorrent peer discovery.

#![warn(missing_docs)]

pub mod pss;
pub mod view;

pub use pss::{shuffle, PssConfig, PssNode};
pub use view::{Descriptor, PartialView};
