//! Convergence tests for the overlay maintenance rules: iterate the local
//! computation steps — each node deciding from its neighbours' *previous*
//! round's advertisements, exactly like beacon exchange — until a fixpoint,
//! then check the global properties of §3.3 on the ground-truth graph:
//! the overlay dominates, its induced subgraph is connected (per
//! component), and under distrust the *correct* members still form a
//! connected cover.

use std::collections::BTreeSet;

use byzcast_fd::TrustLevel;
use byzcast_overlay::analysis::{bfs_distances, induced_connected};
use byzcast_overlay::{
    AdvertisedLists, MapTrust, NeighborTable, OverlayKind, OverlayProtocol, OverlayRole, TrustView,
};
use byzcast_sim::{Field, NodeId, Position, SimDuration, SimRng, SimTime};

/// A synchronous-round simulator of the overlay maintenance protocol over a
/// known graph: every round, each node rebuilds its table from the others'
/// round-(k−1) state and recomputes its decision.
struct Rig {
    adj: Vec<Vec<NodeId>>,
    roles: Vec<OverlayRole>,
    marked: Vec<bool>,
    protocol: Box<dyn OverlayProtocol + Send>,
    trust: MapTrust,
}

impl Rig {
    fn new(adj: Vec<Vec<NodeId>>, kind: OverlayKind) -> Self {
        let n = adj.len();
        Rig {
            adj,
            roles: vec![OverlayRole::Passive; n],
            marked: vec![false; n],
            protocol: kind.build(),
            trust: MapTrust::default(),
        }
    }

    fn distrust(&mut self, node: NodeId) {
        self.trust.0.insert(node, TrustLevel::Untrusted);
    }

    fn table_for(&self, me: usize) -> NeighborTable {
        let now = SimTime::from_secs(1);
        let mut t = NeighborTable::new(SimDuration::from_secs(60));
        for &q in &self.adj[me] {
            let qi = q.index();
            let dom: Vec<NodeId> = self.adj[qi]
                .iter()
                .copied()
                .filter(|x| self.roles[x.index()] == OverlayRole::Dominator)
                .collect();
            t.record_beacon_marked(
                now,
                q,
                self.roles[qi],
                self.marked[qi],
                AdvertisedLists::new(&self.adj[qi], &dom),
            );
        }
        t
    }

    /// Runs one synchronous round; returns whether anything changed.
    fn step(&mut self) -> bool {
        let n = self.adj.len();
        let mut next_roles = self.roles.clone();
        let mut next_marked = self.marked.clone();
        for me in 0..n {
            let table = self.table_for(me);
            let d = self
                .protocol
                .decide(NodeId(me as u32), &table, &self.trust as &dyn TrustView);
            next_roles[me] = d.role;
            next_marked[me] = d.marked;
        }
        let changed = next_roles != self.roles || next_marked != self.marked;
        self.roles = next_roles;
        self.marked = next_marked;
        changed
    }

    /// Iterates to a fixpoint (or the round limit). Returns rounds used.
    fn converge(&mut self, max_rounds: usize) -> usize {
        for round in 1..=max_rounds {
            if !self.step() {
                return round;
            }
        }
        max_rounds
    }

    fn overlay_mask(&self) -> Vec<bool> {
        self.roles.iter().map(|r| r.is_active()).collect()
    }
}

fn disk_adjacency(positions: &[Position], range: f64) -> Vec<Vec<NodeId>> {
    (0..positions.len())
        .map(|i| {
            (0..positions.len())
                .filter(|&j| j != i && positions[i].distance(&positions[j]) <= range)
                .map(|j| NodeId(j as u32))
                .collect()
        })
        .collect()
}

fn random_connected(seed: u64, n: usize, side: f64, range: f64) -> Vec<Vec<NodeId>> {
    let mut rng = SimRng::new(seed);
    let field = Field::new(side, side);
    loop {
        let ps: Vec<Position> = (0..n).map(|_| field.random_position(&mut rng)).collect();
        let adj = disk_adjacency(&ps, range);
        if bfs_distances(&adj, NodeId(0)).iter().all(Option::is_some) {
            return adj;
        }
    }
}

/// Every node not in the overlay must have an overlay neighbour — except
/// nodes whose whole component needs no relay at all (their closed
/// neighbourhood covers the component, e.g. cliques).
fn assert_covered(adj: &[Vec<NodeId>], overlay: &[bool], exempt: &dyn Fn(usize) -> bool) {
    for (i, nbrs) in adj.iter().enumerate() {
        if overlay[i] || exempt(i) {
            continue;
        }
        assert!(
            nbrs.iter().any(|v| overlay[v.index()]),
            "node {i} has no overlay neighbour (overlay: {overlay:?})"
        );
    }
}

/// In a clique, no node needs a relay: everyone hears the originator.
fn in_clique(adj: &[Vec<NodeId>], i: usize) -> bool {
    let mut group: BTreeSet<usize> = adj[i].iter().map(|v| v.index()).collect();
    group.insert(i);
    group.iter().all(|&u| {
        let mut closed: BTreeSet<usize> = adj[u].iter().map(|v| v.index()).collect();
        closed.insert(u);
        group.is_subset(&closed)
    })
}

#[test]
fn cds_converges_on_random_graphs_and_covers() {
    for seed in [1u64, 2, 3, 4, 5] {
        let adj = random_connected(seed, 40, 1000.0, 250.0);
        let mut rig = Rig::new(adj.clone(), OverlayKind::Cds);
        let rounds = rig.converge(60);
        assert!(rounds < 60, "seed {seed}: CDS did not converge");
        let overlay = rig.overlay_mask();
        assert_covered(&adj, &overlay, &|i| in_clique(&adj, i));
        assert!(
            induced_connected(&adj, &overlay),
            "seed {seed}: CDS disconnected"
        );
        // Efficiency sanity: the overlay is a strict subset of the nodes.
        let size = overlay.iter().filter(|&&b| b).count();
        assert!(size < 40, "seed {seed}: everyone joined the overlay");
    }
}

#[test]
fn mis_bridges_converges_on_random_graphs_and_covers() {
    for seed in [1u64, 2, 3, 4, 5] {
        let adj = random_connected(seed, 40, 1000.0, 250.0);
        let mut rig = Rig::new(adj.clone(), OverlayKind::MisBridges);
        let rounds = rig.converge(80);
        assert!(rounds < 80, "seed {seed}: MIS+B did not converge");
        let overlay = rig.overlay_mask();
        // MIS dominates by construction: every node is a dominator or has a
        // dominator neighbour (no clique exemption needed).
        let dominators: Vec<bool> = rig
            .roles
            .iter()
            .map(|r| *r == OverlayRole::Dominator)
            .collect();
        for (i, nbrs) in adj.iter().enumerate() {
            assert!(
                dominators[i] || nbrs.iter().any(|v| dominators[v.index()]),
                "seed {seed}: node {i} undominated"
            );
        }
        // The dominator core is an independent set.
        for (i, nbrs) in adj.iter().enumerate() {
            if dominators[i] {
                assert!(
                    nbrs.iter().all(|v| !dominators[v.index()]),
                    "seed {seed}: adjacent dominators at {i}"
                );
            }
        }
        assert!(
            induced_connected(&adj, &overlay),
            "seed {seed}: MIS+B overlay disconnected"
        );
    }
}

#[test]
fn cds_routes_around_distrusted_high_id_node() {
    // Path 0-1-2-3-4 plus a "shortcut" node 9 adjacent to 1,2,3. With 9
    // trusted it wins the election around the middle; once node 2 distrusts
    // it... every node distrusts it here (simulating propagated suspicion):
    // the overlay must re-form from correct nodes only.
    let mut adj: Vec<Vec<NodeId>> = vec![
        vec![NodeId(1)],
        vec![NodeId(0), NodeId(2), NodeId(5)],
        vec![NodeId(1), NodeId(3), NodeId(5)],
        vec![NodeId(2), NodeId(4), NodeId(5)],
        vec![NodeId(3)],
        vec![NodeId(1), NodeId(2), NodeId(3)], // the high-id shortcut (index 5)
    ];
    // Rename 5 to keep ids contiguous in the rig: index 5 plays "node 9".
    let mut rig = Rig::new(adj.clone(), OverlayKind::Cds);
    let rounds = rig.converge(40);
    assert!(rounds < 40);
    let overlay_with = rig.overlay_mask();
    assert!(
        induced_connected(&adj, &overlay_with),
        "baseline overlay disconnected"
    );

    // Now everyone distrusts the shortcut node.
    let mut rig = Rig::new(adj.clone(), OverlayKind::Cds);
    rig.distrust(NodeId(5));
    let rounds = rig.converge(40);
    assert!(rounds < 40);
    let overlay = rig.overlay_mask();
    // The correct overlay (excluding node 5) must still connect and cover
    // the path: 1, 2, 3 must all be back in.
    let correct_overlay: Vec<bool> = overlay
        .iter()
        .enumerate()
        .map(|(i, &b)| b && i != 5)
        .collect();
    adj[5].clear(); // node 5's links do not count for correct connectivity
    for row in adj.iter_mut() {
        row.retain(|v| v.index() != 5);
    }
    assert!(correct_overlay[1] && correct_overlay[2] && correct_overlay[3]);
    assert!(induced_connected(&adj, &correct_overlay));
}

#[test]
fn fixpoints_are_stable_under_reordering() {
    // Determinism sanity: two different convergence runs over the same
    // graph reach the same fixpoint (the rules are functions of the view).
    let adj = random_connected(7, 30, 800.0, 250.0);
    let mut a = Rig::new(adj.clone(), OverlayKind::Cds);
    let mut b = Rig::new(adj, OverlayKind::Cds);
    a.converge(60);
    // b converges through a different path: pre-run two extra steps.
    b.step();
    b.converge(60);
    assert_eq!(a.roles, b.roles);
}

#[test]
fn cds_size_stays_reasonable_at_density() {
    // Ground-truth view, no trust filtering: the overlay fraction should
    // fall as density rises (more coverage alternatives → more pruning).
    for (n, expect_max_frac) in [(40usize, 0.70), (80, 0.60), (120, 0.55)] {
        let adj = random_connected(42, n, 1000.0, 250.0);
        let mut rig = Rig::new(adj.clone(), OverlayKind::Cds);
        rig.converge(80);
        let size = rig.overlay_mask().iter().filter(|&&b| b).count();
        let frac = size as f64 / n as f64;
        println!("n={n}: CDS size {size} ({frac:.2})");
        assert!(
            frac <= expect_max_frac,
            "n={n}: CDS fraction {frac:.2} too fat"
        );
    }
}
