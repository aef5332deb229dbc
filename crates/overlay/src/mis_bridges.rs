//! The trust-augmented Maximal Independent Set with Bridges protocol.
//!
//! The second overlay of the paper's reference \[21\]:
//!
//! * **MIS rule** — a node is a *dominator* iff no trusted neighbour with a
//!   higher id is a dominator (the id replaces the goodness number). Applied
//!   periodically this self-stabilizes to a maximal independent set, which
//!   dominates the graph but is not connected.
//! * **Bridge rules** — non-dominators connect the dominators:
//!   - *2-hop*: if two of my dominator neighbours are not adjacent, I am a
//!     candidate bridge between them; the highest-id common neighbour wins.
//!   - *3-hop*: if I have a dominator neighbour `a` and a trusted neighbour
//!     `q` that advertises a dominator neighbour `b` with `b ∉ N(a) ∪ {a}`
//!     and `b` not my own neighbour, then `(me, q)` form a two-bridge
//!     between `a` and `b`; I volunteer if I am the highest-id neighbour of
//!     `a` that can reach `q`.
//!
//! Trust filtering follows the CDS conventions: untrusted neighbours are
//! invisible; unknown neighbours cannot serve as dominators over us.

use std::collections::BTreeSet;

use byzcast_fd::TrustLevel;
use byzcast_sim::NodeId;

use crate::neighbors::NeighborTable;
use crate::{OverlayDecision, OverlayProtocol, OverlayRole, TrustView};

/// The MIS+B overlay rule (stateless local rule).
#[derive(Clone, Copy, Debug, Default)]
pub struct MisBridges;

impl MisBridges {
    fn trusted_neighbors(table: &NeighborTable, trust: &dyn TrustView) -> BTreeSet<NodeId> {
        table
            .iter()
            .filter(|(id, _)| trust.level(*id) == TrustLevel::Trusted)
            .map(|(id, _)| id)
            .collect()
    }

    fn dominator_neighbors(table: &NeighborTable, trusted: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        trusted
            .iter()
            .copied()
            .filter(|&q| {
                table
                    .info(q)
                    .is_some_and(|i| i.role == OverlayRole::Dominator)
            })
            .collect()
    }
}

impl OverlayProtocol for MisBridges {
    fn decide(&self, me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> OverlayDecision {
        let trusted = Self::trusted_neighbors(table, trust);
        let dominators = Self::dominator_neighbors(table, &trusted);
        let decided = |role: OverlayRole| OverlayDecision {
            role,
            marked: role.is_active(),
        };

        // MIS rule: dominator iff no higher-id trusted dominator neighbour.
        if !dominators.iter().any(|&q| q > me) {
            return decided(OverlayRole::Dominator);
        }

        // Bridge rule, 2-hop: two non-adjacent dominator neighbours; the
        // highest-id common neighbour (as far as I can tell from advertised
        // lists) volunteers. I always know myself to be a common neighbour.
        let doms: Vec<NodeId> = dominators.iter().copied().collect();
        for (i, &a) in doms.iter().enumerate() {
            for &b in &doms[i + 1..] {
                if table.are_adjacent(a, b) {
                    continue;
                }
                // Defer only to a higher-id common neighbour that has
                // *actually volunteered* (is advertised active) — deferring
                // to a candidate that might itself defer leaves gaps.
                let better_candidate = trusted.iter().copied().any(|c| {
                    c > me
                        && table.info(c).is_some_and(|ic| {
                            ic.role.is_active()
                                && ic.neighbors().contains(&a)
                                && ic.neighbors().contains(&b)
                        })
                });
                if !better_candidate {
                    return decided(OverlayRole::Bridge);
                }
            }
        }

        // Bridge rule, 3-hop: dominator a —— me —— q —— dominator b.
        let my_nbrs: BTreeSet<NodeId> = table.neighbor_ids().into_iter().collect();
        for &a in &doms {
            let a_closed: BTreeSet<NodeId> = {
                let mut s: BTreeSet<NodeId> = table
                    .info(a)
                    .map(|i| i.neighbors().iter().copied().collect())
                    .unwrap_or_default();
                s.insert(a);
                s
            };
            for &q in &trusted {
                if q == a || dominators.contains(&q) {
                    continue;
                }
                let Some(iq) = table.info(q) else { continue };
                let far_dominator = iq
                    .dominator_neighbors()
                    .iter()
                    .any(|&b| b != me && !a_closed.contains(&b) && !my_nbrs.contains(&b));
                if !far_dominator {
                    continue;
                }
                // Volunteer unless a higher-id trusted neighbour of mine,
                // already active, also neighbours both a and q (it bridges
                // instead).
                let better_candidate = trusted.iter().copied().any(|c| {
                    c > me
                        && c != q
                        && table.info(c).is_some_and(|ic| {
                            ic.role.is_active()
                                && ic.neighbors().contains(&a)
                                && ic.neighbors().contains(&q)
                        })
                });
                if !better_candidate {
                    return decided(OverlayRole::Bridge);
                }
            }
        }

        decided(OverlayRole::Passive)
    }

    fn name(&self) -> &'static str {
        "mis+b"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapTrust;
    use byzcast_sim::{SimDuration, SimTime};

    /// Builds `me`'s table from an edge list, advertised roles, and
    /// advertised dominator-neighbour lists (derived from roles).
    fn view(me: u32, edges: &[(u32, u32)], roles: &[(u32, OverlayRole)]) -> NeighborTable {
        let now = SimTime::from_secs(1);
        let mut t = NeighborTable::new(SimDuration::from_secs(60));
        let role_of = |x: u32| {
            roles
                .iter()
                .find(|(id, _)| *id == x)
                .map(|(_, r)| *r)
                .unwrap_or(OverlayRole::Passive)
        };
        let neighbors_of = |x: u32| -> Vec<NodeId> {
            edges
                .iter()
                .filter_map(|&(a, b)| {
                    if a == x {
                        Some(NodeId(b))
                    } else if b == x {
                        Some(NodeId(a))
                    } else {
                        None
                    }
                })
                .collect()
        };
        for q in neighbors_of(me) {
            let dom_nbrs: Vec<NodeId> = neighbors_of(q.0)
                .into_iter()
                .filter(|n| role_of(n.0) == OverlayRole::Dominator)
                .collect();
            t.record_beacon(now, q, role_of(q.0), neighbors_of(q.0), dom_nbrs);
        }
        t
    }

    #[test]
    fn isolated_node_is_a_dominator() {
        let t = NeighborTable::new(SimDuration::from_secs(60));
        assert_eq!(
            MisBridges.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn highest_id_wins_the_mis() {
        // Edge 0-1, node 1 a dominator: node 0 yields.
        let t = view(0, &[(0, 1)], &[(1, OverlayRole::Dominator)]);
        assert_ne!(
            MisBridges.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
        // Node 1 sees passive node 0: it dominates.
        let t = view(1, &[(0, 1)], &[]);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn lower_id_dominator_neighbor_does_not_demote() {
        // Node 5 with dominator neighbour 3 (lower id): 5 stays dominator.
        let t = view(5, &[(5, 3)], &[(3, OverlayRole::Dominator)]);
        assert_eq!(
            MisBridges.decide(NodeId(5), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn two_hop_bridge_between_nonadjacent_dominators() {
        // 7 --- 1 --- 9, dominators 7 and 9 not adjacent: 1 bridges.
        let edges = [(1, 7), (1, 9)];
        let roles = [(7, OverlayRole::Dominator), (9, OverlayRole::Dominator)];
        let t = view(1, &edges, &roles);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t, &MapTrust::default()).role,
            OverlayRole::Bridge
        );
    }

    #[test]
    fn two_hop_bridge_defers_to_higher_id_active_common_neighbor() {
        // Both 1 and 2 connect dominators 7 and 9; 2 has the higher id.
        let edges = [(1, 7), (1, 9), (2, 7), (2, 9), (1, 2)];
        let roles = [(7, OverlayRole::Dominator), (9, OverlayRole::Dominator)];
        // Before 2 has volunteered, 1 must not defer to it (a candidate that
        // might itself defer leaves the dominators unbridged).
        let t1 = view(1, &edges, &roles);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Bridge
        );
        // Once 2 advertises its bridge role, 1 withdraws.
        let roles_with_2 = [
            (7, OverlayRole::Dominator),
            (9, OverlayRole::Dominator),
            (2, OverlayRole::Bridge),
        ];
        let t1 = view(1, &edges, &roles_with_2);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Passive
        );
        // And 2 itself keeps volunteering (no higher-id candidate).
        let t2 = view(2, &edges, &roles_with_2);
        assert_eq!(
            MisBridges.decide(NodeId(2), &t2, &MapTrust::default()).role,
            OverlayRole::Bridge
        );
    }

    #[test]
    fn three_hop_bridge_via_advertised_dominator_neighbors() {
        // 9(dom) --- 1 --- 2 --- 8(dom): 1 and 2 should both bridge.
        let edges = [(9, 1), (1, 2), (2, 8)];
        let roles = [(9, OverlayRole::Dominator), (8, OverlayRole::Dominator)];
        let t1 = view(1, &edges, &roles);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Bridge
        );
        let t2 = view(2, &edges, &roles);
        assert_eq!(
            MisBridges.decide(NodeId(2), &t2, &MapTrust::default()).role,
            OverlayRole::Bridge
        );
    }

    #[test]
    fn adjacent_dominators_need_no_bridge() {
        // 7(dom) --- 1 --- 9(dom), and 7-9 adjacent: 1 stays passive.
        let edges = [(1, 7), (1, 9), (7, 9)];
        let roles = [(7, OverlayRole::Dominator), (9, OverlayRole::Dominator)];
        let t = view(1, &edges, &roles);
        assert_eq!(
            MisBridges.decide(NodeId(1), &t, &MapTrust::default()).role,
            OverlayRole::Passive
        );
    }

    #[test]
    fn untrusted_dominator_does_not_demote_us() {
        // 0's only higher-id dominator neighbour is untrusted: 0 dominates.
        let t = view(0, &[(0, 9)], &[(9, OverlayRole::Dominator)]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Untrusted);
        assert_eq!(
            MisBridges.decide(NodeId(0), &t, &trust).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn unknown_dominator_does_not_demote_us() {
        let t = view(0, &[(0, 9)], &[(9, OverlayRole::Dominator)]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Unknown);
        assert_eq!(
            MisBridges.decide(NodeId(0), &t, &trust).role,
            OverlayRole::Dominator
        );
    }
}
