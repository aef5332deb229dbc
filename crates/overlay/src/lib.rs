//! # byzcast-overlay — trust-augmented overlay maintenance
//!
//! The broadcast protocol disseminates data messages along an *overlay* — "a
//! logical topology superimposed over the physical one" — so that "broadcast
//! messages are flooded only along the arcs of the overlay, thereby reducing
//! the number of messages sent as well as the number of collisions".
//!
//! The paper adapts the two self-stabilizing overlay maintenance protocols of
//! its reference \[21\] (generalizations of Wu & Li): the **Connected
//! Dominating Set** (CDS) and the **Maximal Independent Set with Bridges**
//! (MIS+B), with two Byzantine-specific changes:
//!
//! 1. the *goodness number* is replaced by the unforgeable node id ("since in
//!    a Byzantine environment nodes can lie about their goodness number"),
//!    and
//! 2. each node keeps an `overlay_trust` level per neighbour (from the TRUST
//!    failure detector plus second-hand reports), and untrusted nodes are
//!    never relied upon as overlay relays.
//!
//! "There is no global knowledge and each node must decide whether it
//! considers itself an overlay node or not": both protocols here are pure
//! local rules over a [`NeighborTable`] built from periodic signed beacons.
//! "In each computation step, each node makes a local computation about
//! whether it thinks it should be in the overlay or not, and then exchanges
//! its local information with its neighbors."
//!
//! [`analysis`] provides the graph checks used by tests and experiments R5/R6
//! (domination, connected cover of correct nodes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cds;
pub mod mis_bridges;
pub mod neighbors;

pub use cds::Cds;
pub use mis_bridges::MisBridges;
pub use neighbors::{AdvertisedLists, NeighborInfo, NeighborTable};

use byzcast_fd::TrustLevel;
use byzcast_sim::NodeId;

/// A node's advertised overlay role, carried in beacons.
///
/// The paper's local state is active/passive; MIS+B additionally needs to
/// distinguish dominators from the bridges that connect them, so the active
/// state is split in two. [`OverlayRole::is_active`] recovers the paper's
/// binary view.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OverlayRole {
    /// Not in the overlay.
    #[default]
    Passive,
    /// In the overlay as a dominating node (CDS member / MIS member).
    Dominator,
    /// In the overlay as a bridge connecting dominators (MIS+B only).
    Bridge,
}

impl OverlayRole {
    /// Whether the role means "in the overlay" (the paper's `active`).
    pub const fn is_active(self) -> bool {
        !matches!(self, OverlayRole::Passive)
    }
}

/// Read-only view of the local trust levels, as supplied by the TRUST
/// failure detector.
pub trait TrustView {
    /// The current trust level of `node`.
    fn level(&self, node: NodeId) -> TrustLevel;
}

/// A map-backed [`TrustView`] for tests and analyses; nodes absent from the
/// map are `Trusted`.
#[derive(Clone, Debug, Default)]
pub struct MapTrust(pub std::collections::HashMap<NodeId, TrustLevel>);

impl TrustView for MapTrust {
    fn level(&self, node: NodeId) -> TrustLevel {
        self.0.get(&node).copied().unwrap_or(TrustLevel::Trusted)
    }
}

/// The outcome of one overlay computation step.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OverlayDecision {
    /// The role this node now takes.
    pub role: OverlayRole,
    /// Whether the node satisfies the *marking* predicate (Wu–Li: two
    /// neighbours not adjacent to each other). Marking depends only on the
    /// topology — never on other nodes' roles — so neighbours can safely
    /// prune against advertised marked flags without the oscillation that
    /// pruning against (concurrently changing) roles causes.
    pub marked: bool,
}

impl OverlayDecision {
    /// A passive, unmarked decision.
    pub const fn passive() -> Self {
        OverlayDecision {
            role: OverlayRole::Passive,
            marked: false,
        }
    }
}

/// An overlay maintenance protocol: a deterministic local rule deciding this
/// node's [`OverlayRole`] from its neighbour table and trust levels.
pub trait OverlayProtocol {
    /// Recomputes this node's role. Pure with respect to its inputs; called
    /// periodically ("computation steps that are taken periodically and
    /// repeatedly by each node").
    fn decide(&self, me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> OverlayDecision;

    /// Short protocol name for reports ("cds" / "mis+b").
    fn name(&self) -> &'static str;
}

/// Which overlay maintenance protocol a run uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlayKind {
    /// Connected Dominating Set (Wu–Li marking + id-pruning).
    #[default]
    Cds,
    /// Maximal Independent Set plus bridges.
    MisBridges,
}

impl OverlayKind {
    /// Instantiates the protocol.
    pub fn build(self) -> Box<dyn OverlayProtocol + Send> {
        match self {
            OverlayKind::Cds => Box::new(Cds),
            OverlayKind::MisBridges => Box::new(MisBridges),
        }
    }

    /// Short name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            OverlayKind::Cds => "cds",
            OverlayKind::MisBridges => "mis+b",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_activity() {
        assert!(!OverlayRole::Passive.is_active());
        assert!(OverlayRole::Dominator.is_active());
        assert!(OverlayRole::Bridge.is_active());
    }

    #[test]
    fn kind_builds_named_protocols() {
        assert_eq!(OverlayKind::Cds.build().name(), "cds");
        assert_eq!(OverlayKind::MisBridges.build().name(), "mis+b");
        assert_eq!(OverlayKind::Cds.name(), "cds");
    }

    #[test]
    fn map_trust_defaults_to_trusted() {
        let mut m = MapTrust::default();
        assert_eq!(m.level(NodeId(1)), TrustLevel::Trusted);
        m.0.insert(NodeId(1), TrustLevel::Untrusted);
        assert_eq!(m.level(NodeId(1)), TrustLevel::Untrusted);
    }
}
