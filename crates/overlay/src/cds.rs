//! The trust-augmented Connected Dominating Set protocol.
//!
//! The classic Wu–Li construction, as self-stabilized in the paper's
//! reference \[21\], with ids as the (unforgeable) goodness number and trust
//! filtering:
//!
//! * **Marking rule** — a node marks itself if it has two neighbours that are
//!   not adjacent to each other (it may be needed to relay between them).
//! * **Pruning rule 1** — step out of the overlay if a single *trusted*,
//!   *marked* neighbour with a higher id covers the whole neighbourhood.
//! * **Pruning rule 2** — step out if two adjacent *trusted*, *marked*
//!   neighbours, both with higher ids, jointly cover the neighbourhood.
//!
//! Pruning compares against neighbours' advertised **marked** flags, not
//! their roles: marking depends only on the topology, so the comparison set
//! is stable and concurrent pruning rounds cannot disconnect the cover — the
//! original Wu–Li correctness argument. (Pruning against *roles* oscillates:
//! two nodes can each step out relying on the other's stale active state.)
//!
//! Trust filtering (the paper's `overlay_trust`): *untrusted* neighbours are
//! excluded entirely — we neither cover them nor let them cover us.
//! Neighbours of *unknown* trust must still be covered but are not accepted
//! as coverers; this is how "a Byzantine node can cause correct nodes to
//! unnecessarily join the overlay, but it cannot destroy the connectivity of
//! the overlay w.r.t. correct nodes".

use byzcast_fd::TrustLevel;
use byzcast_sim::NodeId;

use crate::neighbors::NeighborTable;
use crate::{OverlayDecision, OverlayProtocol, OverlayRole, TrustView};

/// The CDS overlay rule (stateless: a pure function of the local view).
#[derive(Clone, Copy, Debug, Default)]
pub struct Cds;

impl OverlayProtocol for Cds {
    fn decide(&self, me: NodeId, table: &NeighborTable, trust: &dyn TrustView) -> OverlayDecision {
        // Neighbour sets by trust level (sorted: table iteration is
        // id-ordered). Untrusted nodes do not exist for us.
        let mut must_cover: Vec<NodeId> = Vec::new(); // trusted + unknown
        let mut coverers: Vec<NodeId> = Vec::new(); // trusted only
        for (id, _info) in table.iter() {
            match trust.level(id) {
                TrustLevel::Untrusted => {}
                TrustLevel::Unknown => {
                    must_cover.push(id);
                }
                TrustLevel::Trusted => {
                    must_cover.push(id);
                    coverers.push(id);
                }
            }
        }
        if must_cover.len() < 2 {
            return OverlayDecision::passive(); // nothing to relay between
        }

        // Whether n is in the closed advertised neighbourhood N(q) ∪ {q} —
        // advertised lists are sorted, so membership is a binary search.
        let in_closed = |q: NodeId, nq: &[NodeId], n: NodeId| -> bool {
            n == q || nq.binary_search(&n).is_ok()
        };
        let advertised = |q: NodeId| -> &[NodeId] { table.info(q).map_or(&[], |i| i.neighbors()) };

        // Marking rule: two considered neighbours not adjacent to each other,
        // where adjacency (as in `NeighborTable::are_adjacent`) holds if
        // either endpoint advertises the other. Instead of probing all
        // d²/2 pairs, walk each neighbour u's sorted advertised list once
        // against the sorted `must_cover` to find the members u does *not*
        // advertise, and only those few candidates fall back to a reverse
        // lookup. In the dense (unmarked) case — the common one, and the one
        // with no early exit — this is O(Σ(d + |N(u)|)) instead of
        // O(d² log d).
        let marked = 'outer: {
            for &u in &must_cover {
                let nu = advertised(u);
                let mut i = 0;
                for &v in &must_cover {
                    if v == u {
                        continue;
                    }
                    while i < nu.len() && nu[i] < v {
                        i += 1;
                    }
                    let u_advertises_v = i < nu.len() && nu[i] == v;
                    if !u_advertises_v && advertised(v).binary_search(&u).is_err() {
                        break 'outer true; // the pair (u, v) is not adjacent
                    }
                }
            }
            false
        };
        // `decide` must stay a pure function of the table: debug-check the
        // walk against the naive pairwise rule.
        debug_assert_eq!(marked, {
            let mut naive = false;
            'naive: for (i, &u) in must_cover.iter().enumerate() {
                for &v in &must_cover[i + 1..] {
                    if !table.are_adjacent(u, v) {
                        naive = true;
                        break 'naive;
                    }
                }
            }
            naive
        });
        if !marked {
            return OverlayDecision::passive();
        }
        let pruned = OverlayDecision {
            role: OverlayRole::Passive,
            marked: true,
        };
        // Candidate coverers: trusted, advertised-*marked*, higher id.
        let marked_higher: Vec<NodeId> = coverers
            .iter()
            .copied()
            .filter(|&q| q > me)
            .filter(|&q| table.info(q).is_some_and(|i| i.marked))
            .collect();

        // Pruning rule 1.
        for &q in &marked_higher {
            let nq = advertised(q);
            if must_cover.iter().all(|&n| in_closed(q, nq, n)) {
                return pruned;
            }
        }
        // Pruning rule 2.
        for (i, &q) in marked_higher.iter().enumerate() {
            let nq = advertised(q);
            for &r in &marked_higher[i + 1..] {
                if !table.are_adjacent(q, r) {
                    continue;
                }
                let nr = advertised(r);
                if must_cover
                    .iter()
                    .all(|&n| in_closed(q, nq, n) || in_closed(r, nr, n))
                {
                    return pruned;
                }
            }
        }
        OverlayDecision {
            role: OverlayRole::Dominator,
            marked: true,
        }
    }

    fn name(&self) -> &'static str {
        "cds"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MapTrust;
    use byzcast_sim::{SimDuration, SimTime};

    /// Builds a table for node `me` in a given undirected edge list: `me`'s
    /// entry contains each neighbour with its own full adjacency advertised.
    fn view(me: u32, edges: &[(u32, u32)], roles: &[(u32, OverlayRole)]) -> NeighborTable {
        let now = SimTime::from_secs(1);
        let mut t = NeighborTable::new(SimDuration::from_secs(60));
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
            let role = roles
                .iter()
                .find(|(id, _)| *id == q.0)
                .map(|(_, r)| *r)
                .unwrap_or(OverlayRole::Dominator); // assume active by default
            t.record_beacon(now, q, role, neighbors_of(q.0), []);
        }
        t
    }

    #[test]
    fn isolated_or_single_neighbor_is_passive() {
        let t = NeighborTable::new(SimDuration::from_secs(60));
        assert_eq!(
            Cds.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Passive
        );
        let t = view(0, &[(0, 1)], &[]);
        assert_eq!(
            Cds.decide(NodeId(0), &t, &MapTrust::default()).role,
            OverlayRole::Passive
        );
    }

    #[test]
    fn middle_of_a_path_marks_itself() {
        // 0 - 1 - 2: node 1 must relay.
        let t = view(1, &[(0, 1), (1, 2)], &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn triangle_members_are_passive() {
        // Complete triangle: nobody needs to relay.
        let edges = [(0, 1), (1, 2), (0, 2)];
        for me in 0..3 {
            let t = view(me, &edges, &[]);
            assert_eq!(
                Cds.decide(NodeId(me), &t, &MapTrust::default()).role,
                OverlayRole::Passive,
                "node {me}"
            );
        }
    }

    #[test]
    fn pruning_rule_1_yields_to_higher_id() {
        // Nodes 1 and 9 both see {0, 2}; 0-2 not adjacent. 9 has the higher
        // id and covers everything node 1 covers, so 1 prunes itself.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Passive
        );
        // And 9 stays (1 has a lower id, so it cannot prune 9).
        let t9 = view(9, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(9), &t9, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn pruning_rule_1_requires_active_coverer() {
        // Same topology, but 9 advertises passive: 1 must stay in.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[(9, OverlayRole::Passive)]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn pruning_rule_2_pair_coverage() {
        // Node 1 sees 0, 2, 8, 9. Higher-id pair (8, 9) is adjacent and
        // together covers {0, 2}: 1 prunes itself.
        let edges = [(1, 0), (1, 2), (1, 8), (1, 9), (8, 0), (9, 2), (8, 9)];
        let t1 = view(1, &edges, &[]);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Passive
        );
    }

    #[test]
    fn untrusted_coverer_cannot_prune_us() {
        // As in rule-1 test, but 9 is untrusted: 1 must not rely on it.
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Untrusted);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn unknown_coverer_cannot_prune_us_either() {
        let edges = [(1, 0), (1, 2), (9, 0), (9, 2), (1, 9)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(9), TrustLevel::Unknown);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Dominator
        );
    }

    #[test]
    fn untrusted_neighbors_need_no_coverage() {
        // 1's only non-adjacent pair involves untrusted 2: with 2 excluded,
        // remaining neighbours {0, 3} are adjacent, so 1 is passive.
        let edges = [(1, 0), (1, 2), (1, 3), (0, 3)];
        let t1 = view(1, &edges, &[]);
        let mut trust = MapTrust::default();
        trust.0.insert(NodeId(2), TrustLevel::Untrusted);
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &trust).role,
            OverlayRole::Passive
        );
        // Without the distrust, 1 must be a dominator (0-2 and 2-3 gaps).
        assert_eq!(
            Cds.decide(NodeId(1), &t1, &MapTrust::default()).role,
            OverlayRole::Dominator
        );
    }
}
