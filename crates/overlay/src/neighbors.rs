//! The neighbour table: each node's one peer table. A row per peer holds
//! the peer's latest beacon, which gives the node its two-hop view of the
//! network, and what the failure detectors keep about the peer (a
//! [`PeerFd`]).
//!
//! "Every correct overlay node periodically publishes this fact to its
//! neighbors, so in particular, each overlay node eventually knows about all
//! its correct overlay neighbors." Beacons carry the sender's overlay role,
//! its one-hop neighbour list (giving receivers a two-hop view, which the
//! Wu–Li rules need), the list of its active neighbours (the paper: "p
//! records for each neighbor the list of its active neighbors"), and its
//! current suspicions (consumed by the TRUST detector, not stored here).
//! Beacon entries expire when beacons stop arriving, which is how departed
//! or mute neighbours fall out of the view; the row stays while its
//! detector column holds anything, a suspicion say.
//!
//! An entry keeps a neighbour's advertised lists by reference: both lists
//! of a beacon live in one shared allocation, an [`AdvertisedLists`], and
//! that allocation is what every receiver stores. So a beacon heard by ten
//! neighbours is one allocation, not ten copies, and replacing an entry
//! releases one reference count. Lists must be strictly ascending
//! (membership is a binary search); a beacon whose lists are not (a
//! Byzantine sender's) is stored as a sorted, deduplicated copy.

use std::sync::Arc;

use byzcast_fd::{PeerFd, Peers};
use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::OverlayRole;

/// The two lists a beacon advertises — its sender's one-hop neighbours,
/// then its dominator neighbours — in one shared allocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AdvertisedLists {
    /// The neighbours, then the dominator neighbours.
    ids: Arc<[NodeId]>,
    /// Length of the neighbour part of `ids`.
    split: u32,
}

impl AdvertisedLists {
    /// Copies both lists, as given, into one new allocation.
    pub fn new(neighbors: &[NodeId], dominator_neighbors: &[NodeId]) -> Self {
        AdvertisedLists {
            ids: neighbors
                .iter()
                .chain(dominator_neighbors)
                .copied()
                .collect(),
            split: u32::try_from(neighbors.len()).expect("neighbour list fits a beacon"),
        }
    }

    /// The advertised one-hop neighbours.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.ids[..self.split as usize]
    }

    /// The advertised dominator neighbours.
    pub fn dominator_neighbors(&self) -> &[NodeId] {
        &self.ids[self.split as usize..]
    }

    /// These lists if both are strictly ascending, else a sorted,
    /// deduplicated copy of both.
    fn normalised(self) -> Self {
        let ascending = |l: &[NodeId]| l.windows(2).all(|w| w[0] < w[1]);
        if ascending(self.neighbors()) && ascending(self.dominator_neighbors()) {
            return self;
        }
        let sorted = |l: &[NodeId]| {
            let mut copy = l.to_vec();
            copy.sort_unstable();
            copy.dedup();
            copy
        };
        AdvertisedLists::new(
            &sorted(self.neighbors()),
            &sorted(self.dominator_neighbors()),
        )
    }
}

/// What one beacon told us about a neighbour.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NeighborInfo {
    /// When the most recent beacon from this neighbour arrived.
    pub last_heard: SimTime,
    /// The neighbour's advertised overlay role.
    pub role: OverlayRole,
    /// The neighbour's advertised Wu–Li *marked* flag (role-independent;
    /// what CDS pruning rules compare against).
    pub marked: bool,
    /// Its advertised lists, both sorted ascending and deduplicated.
    lists: AdvertisedLists,
}

impl NeighborInfo {
    /// The neighbour's advertised one-hop neighbour set, sorted ascending
    /// and deduplicated (so membership is a binary search and iteration
    /// order matches the former `BTreeSet` representation exactly).
    pub fn neighbors(&self) -> &[NodeId] {
        self.lists.neighbors()
    }

    /// The neighbour's advertised *dominator* neighbours (used by the MIS+B
    /// bridge rule to find dominators two hops away). Sorted ascending and
    /// deduplicated.
    pub fn dominator_neighbors(&self) -> &[NodeId] {
        self.lists.dominator_neighbors()
    }
}

/// What a node knows about one peer.
#[derive(Clone, Debug, Default)]
struct Row {
    /// What the peer's latest beacon said, while that beacon is live.
    info: Option<NeighborInfo>,
    /// What the failure detectors keep about the peer.
    fd: PeerFd,
}

impl Row {
    /// Whether the row still holds anything.
    fn kept(&self) -> bool {
        self.info.is_some() || !self.fd.is_idle()
    }
}

/// A node's one peer table: its view of its one-hop neighbourhood (and,
/// through advertised lists, its two-hop neighbourhood), plus the failure
/// detectors' per-peer rows.
///
/// A row stays while its peer's beacon is live or its [`PeerFd`] holds
/// anything; the neighbour view — [`NeighborTable::iter`], `info`,
/// `contains`, `len` — sees only the rows with a live beacon.
///
/// ```
/// use byzcast_overlay::{NeighborTable, OverlayRole};
/// use byzcast_sim::{NodeId, SimDuration, SimTime};
///
/// let mut table = NeighborTable::new(SimDuration::from_secs(3));
/// table.record_beacon(
///     SimTime::from_secs(1),
///     NodeId(2),
///     OverlayRole::Dominator,
///     [NodeId(1), NodeId(3)],
///     [NodeId(3)],
/// );
/// assert!(table.contains(NodeId(2)));
/// assert!(table.are_adjacent(NodeId(2), NodeId(3)));
/// table.prune(SimTime::from_secs(10)); // beacons stopped: entry expires
/// assert!(table.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct NeighborTable {
    timeout: SimDuration,
    /// Peer ids, ascending (the former `BTreeMap` iteration order).
    /// Neighbourhoods are a few dozen peers, where a binary search over this
    /// dense key column — 4 bytes a peer, a few cache lines in all —
    /// outpaces a tree.
    ids: Vec<NodeId>,
    /// `rows[i]` is what this node knows about `ids[i]`; kept in step with
    /// `ids` by every insert and removal.
    rows: Vec<Row>,
}

impl NeighborTable {
    /// Creates a table whose entries expire `timeout` after their last
    /// beacon.
    pub fn new(timeout: SimDuration) -> Self {
        NeighborTable {
            timeout,
            ids: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The expiry timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// The row index of `node`, adding an empty row if it has none.
    fn slot(&mut self, node: NodeId) -> usize {
        self.ids.binary_search(&node).unwrap_or_else(|pos| {
            self.ids.insert(pos, node);
            self.rows.insert(pos, Row::default());
            pos
        })
    }

    /// Frees the rows that hold nothing any more.
    fn drop_idle(&mut self) {
        let mut rows = self.rows.iter();
        self.ids.retain(|_| rows.next().is_some_and(Row::kept));
        self.rows.retain(Row::kept);
    }

    /// Records a beacon heard from `from`, collecting its lists.
    pub fn record_beacon(
        &mut self,
        now: SimTime,
        from: NodeId,
        role: OverlayRole,
        neighbors: impl IntoIterator<Item = NodeId>,
        dominator_neighbors: impl IntoIterator<Item = NodeId>,
    ) {
        let neighbors: Vec<NodeId> = neighbors.into_iter().collect();
        let dominator_neighbors: Vec<NodeId> = dominator_neighbors.into_iter().collect();
        self.record_beacon_marked(
            now,
            from,
            role,
            role.is_active(),
            AdvertisedLists::new(&neighbors, &dominator_neighbors),
        );
    }

    /// Records a beacon carrying an explicit marked flag, keeping its lists
    /// by reference (or, if one is not strictly ascending, a sorted,
    /// deduplicated copy of both).
    pub fn record_beacon_marked(
        &mut self,
        now: SimTime,
        from: NodeId,
        role: OverlayRole,
        marked: bool,
        lists: AdvertisedLists,
    ) {
        let info = NeighborInfo {
            last_heard: now,
            role,
            marked,
            lists: lists.normalised(),
        };
        let pos = self.slot(from);
        self.rows[pos].info = Some(info);
    }

    /// Drops the beacon entries whose last beacon is older than the timeout
    /// and returns how many it dropped; a row whose detector column holds
    /// anything stays.
    pub fn prune(&mut self, now: SimTime) -> usize {
        let mut dropped = 0;
        for row in &mut self.rows {
            let heard = row.info.as_ref().map(|info| info.last_heard);
            if heard.is_some_and(|at| now.saturating_since(at) > self.timeout) {
                row.info = None;
                dropped += 1;
            }
        }
        if dropped > 0 {
            self.drop_idle();
        }
        dropped
    }

    /// Drops a neighbour's beacon entry outright (e.g. on conclusive
    /// misbehaviour) and returns whether it had one; what the detectors
    /// keep about it stays.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Ok(pos) = self.ids.binary_search(&node) else {
            return false;
        };
        let had = self.rows[pos].info.take().is_some();
        if !self.rows[pos].kept() {
            self.ids.remove(pos);
            self.rows.remove(pos);
        }
        had
    }

    /// The live neighbour ids, in increasing order.
    pub fn neighbor_ids(&self) -> Vec<NodeId> {
        self.iter().map(|(id, _)| id).collect()
    }

    /// Info for a specific neighbour.
    pub fn info(&self, node: NodeId) -> Option<&NeighborInfo> {
        let pos = self.ids.binary_search(&node).ok()?;
        self.rows[pos].info.as_ref()
    }

    /// Iterates `(id, info)` pairs of the live neighbours in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NeighborInfo)> {
        let infos = self.rows.iter().map(|row| row.info.as_ref());
        self.ids
            .iter()
            .zip(infos)
            .filter_map(|(&id, info)| Some((id, info?)))
    }

    /// Whether `node` is currently a live neighbour.
    pub fn contains(&self, node: NodeId) -> bool {
        self.info(node).is_some()
    }

    /// Number of live neighbours.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the table has no live neighbour.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Bytes its two columns allocate (from their capacities). The
    /// advertised lists are shared with the beacon and every other receiver,
    /// so they are not counted.
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.rows.capacity() * std::mem::size_of::<Row>()
    }

    /// Whether, according to advertised lists, `a` and `b` are adjacent.
    /// Falls back to `false` when neither endpoint's list is known.
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        if let Some(ia) = self.info(a) {
            if ia.neighbors().binary_search(&b).is_ok() {
                return true;
            }
        }
        if let Some(ib) = self.info(b) {
            if ib.neighbors().binary_search(&a).is_ok() {
                return true;
            }
        }
        false
    }
}

impl Peers for NeighborTable {
    fn peer(&self, node: NodeId) -> Option<&PeerFd> {
        let pos = self.ids.binary_search(&node).ok()?;
        Some(&self.rows[pos].fd)
    }

    fn peer_mut(&mut self, node: NodeId) -> &mut PeerFd {
        let pos = self.slot(node);
        &mut self.rows[pos].fd
    }

    fn peers(&self) -> impl Iterator<Item = (NodeId, &PeerFd)> {
        self.ids
            .iter()
            .copied()
            .zip(self.rows.iter().map(|row| &row.fd))
    }

    fn update_peers(&mut self, mut f: impl FnMut(NodeId, &mut PeerFd)) {
        let mut idle = false;
        for (&id, row) in self.ids.iter().zip(&mut self.rows) {
            f(id, &mut row.fd);
            idle |= !row.kept();
        }
        if idle {
            self.drop_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_fd::{Detector, TrustLevel};

    fn table() -> NeighborTable {
        NeighborTable::new(SimDuration::from_secs(3))
    }

    #[test]
    fn record_and_query() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_beacon(
            now,
            NodeId(2),
            OverlayRole::Dominator,
            [NodeId(1), NodeId(3)],
            [NodeId(3)],
        );
        assert!(t.contains(NodeId(2)));
        assert_eq!(t.len(), 1);
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!(info.role, OverlayRole::Dominator);
        assert!(info.neighbors().contains(&NodeId(3)));
        assert!(info.dominator_neighbors().contains(&NodeId(3)));
    }

    #[test]
    fn prune_evicts_stale_entries() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            [],
            [],
        );
        t.record_beacon(
            SimTime::from_secs(5),
            NodeId(3),
            OverlayRole::Passive,
            [],
            [],
        );
        t.prune(SimTime::from_secs(5));
        assert!(!t.contains(NodeId(2)), "stale entry survived");
        assert!(t.contains(NodeId(3)));
    }

    #[test]
    fn newer_beacon_replaces_older() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            [],
            [],
        );
        t.record_beacon(
            SimTime::from_secs(2),
            NodeId(2),
            OverlayRole::Bridge,
            [NodeId(9)],
            [],
        );
        let info = t.info(NodeId(2)).unwrap();
        assert_eq!(info.role, OverlayRole::Bridge);
        assert_eq!(info.last_heard, SimTime::from_secs(2));
        assert!(info.neighbors().contains(&NodeId(9)));
    }

    #[test]
    fn adjacency_uses_either_endpoints_list() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        t.record_beacon(now, NodeId(2), OverlayRole::Passive, [NodeId(3)], []);
        t.record_beacon(now, NodeId(3), OverlayRole::Passive, [], []);
        assert!(t.are_adjacent(NodeId(2), NodeId(3)));
        assert!(t.are_adjacent(NodeId(3), NodeId(2)));
        assert!(!t.are_adjacent(NodeId(3), NodeId(4)));
    }

    #[test]
    fn neighbor_ids_are_sorted() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        for id in [5u32, 1, 3] {
            t.record_beacon(now, NodeId(id), OverlayRole::Passive, [], []);
        }
        assert_eq!(t.neighbor_ids(), vec![NodeId(1), NodeId(3), NodeId(5)]);
    }

    #[test]
    fn ascending_lists_are_kept_by_reference_and_others_normalised() {
        let mut t = table();
        let now = SimTime::from_secs(1);
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let sorted = AdvertisedLists::new(&ids(&[1, 4, 7]), &ids(&[4]));
        t.record_beacon_marked(now, NodeId(2), OverlayRole::Passive, false, sorted.clone());
        assert!(Arc::ptr_eq(
            &t.info(NodeId(2)).unwrap().lists.ids,
            &sorted.ids
        ));
        // One unsorted list is enough for a copy of both.
        let shuffled = AdvertisedLists::new(&ids(&[1, 4, 7]), &ids(&[7, 1, 7, 4]));
        t.record_beacon_marked(
            now,
            NodeId(3),
            OverlayRole::Passive,
            false,
            shuffled.clone(),
        );
        let info = t.info(NodeId(3)).unwrap();
        assert!(!Arc::ptr_eq(&info.lists.ids, &shuffled.ids));
        assert_eq!(info.neighbors(), &ids(&[1, 4, 7])[..]);
        assert_eq!(info.dominator_neighbors(), &ids(&[1, 4, 7])[..]);
    }

    #[test]
    fn a_replaced_entry_swaps_both_lists_and_releases_one_reference() {
        // Each beacon's two lists travel in one allocation: replacing a
        // neighbour's entry installs both new lists together and drops one
        // reference on the old allocation, which other receivers keep; a
        // re-sent, unchanged beacon leaves the count where it was.
        let mut t = table();
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut held: Vec<Option<AdvertisedLists>> = vec![None; 6];
        for step in 0..300u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let from = (rng % 6) as usize;
            let resend = (rng >> 16).is_multiple_of(4) && held[from].is_some();
            let lists = if resend {
                held[from].clone().unwrap()
            } else {
                let len = (rng >> 8) as u32 % 5;
                let neighbors: Vec<u32> = (0..len).map(|k| 10 * from as u32 + k).collect();
                let dominators: Vec<u32> = neighbors
                    .iter()
                    .copied()
                    .filter(|k| k.is_multiple_of(2))
                    .collect();
                AdvertisedLists::new(&ids(&neighbors), &ids(&dominators))
            };
            let at = SimTime::from_millis(step);
            let copy = lists.clone();
            t.record_beacon_marked(at, NodeId(from as u32), OverlayRole::Passive, false, copy);
            if let Some(old) = held[from].replace(lists) {
                // Replaced lists are left with this test's copy only; re-sent
                // ones are still the table's too.
                let holders = if resend { 3 } else { 1 };
                assert_eq!(Arc::strong_count(&old.ids), holders);
            }
            let current = held[from].as_ref().unwrap();
            let info = t.info(NodeId(from as u32)).unwrap();
            assert_eq!(info.last_heard, at);
            assert!(Arc::ptr_eq(&info.lists.ids, &current.ids));
            assert_eq!(Arc::strong_count(&current.ids), 2);
            assert_eq!(info.neighbors(), current.neighbors());
            assert_eq!(info.dominator_neighbors(), current.dominator_neighbors());
            assert!(info
                .dominator_neighbors()
                .iter()
                .all(|d| d.0.is_multiple_of(2)));
            assert!(info.neighbors().iter().all(|n| n.0 / 10 == from as u32));
        }
    }

    #[test]
    fn remove_is_immediate() {
        let mut t = table();
        t.record_beacon(
            SimTime::from_secs(1),
            NodeId(2),
            OverlayRole::Passive,
            [],
            [],
        );
        t.remove(NodeId(2));
        assert!(t.is_empty());
    }

    fn detectors() -> byzcast_fd::FailureDetectors {
        byzcast_fd::FailureDetectors::new(byzcast_fd::MuteConfig::default())
    }

    fn beacon(t: &mut NeighborTable, at: SimTime, from: u32) {
        t.record_beacon(at, NodeId(from), OverlayRole::Passive, [], []);
    }

    #[test]
    fn a_suspect_whose_beacons_expire_keeps_its_suspicion_but_leaves_the_view() {
        let (mut t, mut fd) = (table(), detectors());
        let at = SimTime::from_secs(1);
        beacon(&mut t, at, 2);
        beacon(&mut t, at, 3);
        fd.trust.suspect(at, &mut t, NodeId(2));
        let later = at + SimDuration::from_secs(4);
        beacon(&mut t, later, 3);
        t.prune(later);
        assert!(!t.contains(NodeId(2)));
        assert_eq!(t.neighbor_ids(), vec![NodeId(3)]);
        assert_eq!((t.len(), t.iter().count()), (1, 1));
        assert!(t.peer(NodeId(2)).is_some(), "the row outlives the beacon");
        assert!(t.suspected(Detector::Trust, NodeId(2), later));
    }

    #[test]
    fn a_report_about_a_two_hop_node_never_shows_up_as_a_neighbour() {
        let (mut t, mut fd) = (table(), detectors());
        let at = SimTime::from_secs(1);
        beacon(&mut t, at, 2);
        fd.trust.report_from_neighbor(at, &t, NodeId(2), NodeId(7));
        assert_eq!(fd.trust.level(&t, NodeId(7), at), TrustLevel::Unknown);
        fd.tick(at, &mut t);
        assert_eq!(t.neighbor_ids(), vec![NodeId(2)]);
        assert!(t.peer(NodeId(7)).is_none());
    }

    #[test]
    fn a_row_is_freed_once_it_has_no_beacon_and_every_column_is_default() {
        let (mut t, mut fd) = (table(), detectors());
        let at = SimTime::from_secs(1);
        beacon(&mut t, at, 2);
        fd.verbose.indict(at, &mut t, NodeId(2));
        t.remove(NodeId(2));
        assert!(t.is_empty());
        assert!(t.peer(NodeId(2)).is_some(), "the counter still holds");
        // The aging step at 5 s takes the counter to zero, and with it the
        // last thing the row held.
        fd.tick(SimTime::from_secs(5), &mut t);
        assert!(t.peer(NodeId(2)).is_none());
        assert!(t.ids.is_empty() && t.rows.is_empty());
    }

    #[test]
    fn ids_and_infos_stay_paired_across_interleaved_updates() {
        // A reference map driven by the same pseudo-random schedule of
        // beacons, prunes and removals; each beacon tags its info with the
        // sender and its time, so a mispaired info shows.
        let mut t = table();
        let mut model: std::collections::BTreeMap<NodeId, SimTime> = Default::default();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut now = SimTime::ZERO;
        for _ in 0..400 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let node = NodeId((rng % 12) as u32);
            match (rng >> 8) % 8 {
                0 => {
                    now += SimDuration::from_millis(700);
                    t.prune(now);
                    model.retain(|_, heard| now.saturating_since(*heard) <= t.timeout());
                }
                1 => {
                    t.remove(node);
                    model.remove(&node);
                }
                _ => {
                    now += SimDuration::from_millis(100);
                    t.record_beacon(now, node, OverlayRole::Passive, [node], []);
                    model.insert(node, now);
                }
            }
            let got: Vec<(NodeId, SimTime)> = t.iter().map(|(id, i)| (id, i.last_heard)).collect();
            let want: Vec<(NodeId, SimTime)> = model.iter().map(|(&id, &at)| (id, at)).collect();
            assert_eq!(got, want);
            for (id, info) in t.iter() {
                assert_eq!(info.neighbors(), &[id], "info of {id:?} mispaired");
                assert_eq!(t.info(id), Some(info));
            }
            assert_eq!(t.neighbor_ids(), model.keys().copied().collect::<Vec<_>>());
            assert_eq!(t.len(), model.len());
        }
    }
}
