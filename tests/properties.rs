//! Property-based tests over randomized topologies, workloads and
//! adversary placements.
//!
//! Simulation-backed properties run with a reduced case count (each case is
//! a full discrete-event run); pure-function properties run with the
//! proptest default.

use proptest::prelude::*;

use byzcast::adversary::{Deviation, MutePolicy};
use byzcast::core::message::DataMsg;
use byzcast::crypto::{KeyRegistry, SchnorrScheme, Signer, SignerId, SimScheme, Verifier};
use byzcast::harness::{MobilityChoice, ScenarioConfig, Workload};
use byzcast::overlay::analysis::{bfs_distances, connected_correct_cover, induced_connected};
use byzcast::sim::{Field, NodeId, Position, RadioConfig, SimConfig, SimDuration, SimRng};

// ---------------------------------------------------------------------
// Topology helpers
// ---------------------------------------------------------------------

/// Adjacency of a disk graph.
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

fn is_connected(adj: &[Vec<NodeId>]) -> bool {
    bfs_distances(adj, NodeId(0)).iter().all(Option::is_some)
}

/// Draws a *connected* random geometric topology by rejection sampling.
fn connected_positions(seed: u64, n: usize, side: f64, range: f64) -> Vec<Position> {
    let mut rng = SimRng::new(seed);
    let field = Field::new(side, side);
    loop {
        let positions: Vec<Position> = (0..n).map(|_| field.random_position(&mut rng)).collect();
        if is_connected(&disk_adjacency(&positions, range)) {
            return positions;
        }
    }
}

fn scenario_on(positions: Vec<Position>, side: f64, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n: positions.len(),
        sim: SimConfig {
            field: Field::new(side, side),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        ..ScenarioConfig::default()
    }
}

fn small_workload(count: usize) -> Workload {
    Workload {
        senders: vec![NodeId(0)],
        count,
        payload_bytes: 128,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_millis(400),
        drain: SimDuration::from_secs(15),
    }
}

// ---------------------------------------------------------------------
// Simulation-backed properties (few, expensive cases)
// ---------------------------------------------------------------------

fn dissemination_case(seed: u64, n: usize) -> Result<(), TestCaseError> {
    let positions = connected_positions(seed, n, 550.0, 250.0);
    let config = scenario_on(positions, 550.0, seed);
    let s = config.run(&small_workload(4));
    prop_assert_eq!(s.delivery_ratio, 1.0);
    Ok(())
}

fn reproducibility_case(seed: u64, n: usize) -> Result<(), TestCaseError> {
    let config = ScenarioConfig {
        seed,
        n,
        sim: SimConfig {
            field: Field::new(500.0, 500.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let a = config.run(&small_workload(3));
    let b = config.run(&small_workload(3));
    prop_assert_eq!(a.frames_sent, b.frames_sent);
    prop_assert_eq!(a.bytes_sent, b.bytes_sent);
    prop_assert_eq!(a.collisions, b.collisions);
    prop_assert_eq!(a.delivery_ratio, b.delivery_ratio);
    prop_assert_eq!(a.mean_latency_s, b.mean_latency_s);
    Ok(())
}

/// Shrunk case from `properties.proptest-regressions` (`seed = 271,
/// n = 15`), pinned against both simulation-backed (seed, n) properties
/// so the exact failing topology replays on every run.
#[test]
fn regression_seed_271_n_15() {
    dissemination_case(271, 15).unwrap();
    reproducibility_case(271, 15).unwrap();
    bfs_metric_case(271, 15).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// Eventual dissemination on arbitrary connected topologies: every
    /// correct node accepts every message (ideal radio, failure-free).
    #[test]
    fn dissemination_on_random_connected_topologies(
        seed in 0u64..1000,
        n in 8usize..22,
    ) {
        dissemination_case(seed, n)?;
    }

    /// Determinism: the same scenario and seed reproduce identical metrics.
    #[test]
    fn runs_are_bit_reproducible(seed in 0u64..1000, n in 10usize..30) {
        reproducibility_case(seed, n)?;
    }

    /// Validity under random mute-adversary placements: correct nodes only
    /// accept genuinely broadcast payloads, each once.
    #[test]
    fn validity_under_random_mute_placements(
        seed in 0u64..1000,
        adversaries in 1usize..5,
    ) {
        let n = 20usize;
        let positions = connected_positions(seed ^ 0xABCD, n, 550.0, 250.0);
        let mut config = scenario_on(positions, 550.0, seed);
        // Random adversary ids, never the sender (node 0).
        let mut rng = SimRng::new(seed);
        let mut ids: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        rng.shuffle(&mut ids);
        ids.truncate(adversaries);
        let mute = Deviation::Mute(MutePolicy::DropData);
        config.adversary_assignments = ids.into_iter().map(|id| (id, mute.clone())).collect();

        let w = small_workload(4);
        let mut sim = config.build_wire_sim();
        w.drive(&mut sim);
        let metrics = sim.metrics();
        let correct = config.correct_mask();
        let mut seen = std::collections::BTreeSet::new();
        for d in &metrics.deliveries {
            if !correct[d.node.index()] {
                continue;
            }
            let matching = metrics
                .broadcasts
                .iter()
                .any(|b| b.payload_id == d.payload_id && b.origin == d.origin);
            prop_assert!(matching, "phantom delivery {:?}", d);
            prop_assert!(seen.insert((d.node, d.payload_id)), "duplicate {:?}", d);
        }
    }
}

// ---------------------------------------------------------------------
// Pure-function properties (cheap, many cases)
// ---------------------------------------------------------------------

proptest! {
    /// Any single corrupted byte invalidates both signature schemes.
    #[test]
    fn signatures_reject_any_single_byte_corruption(
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 1..128),
        flip_byte in 0usize..40,
        flip_bit in 0u8..8,
    ) {
        let sim_keys: KeyRegistry<SimScheme> = KeyRegistry::generate(seed, 2);
        let sch_keys: KeyRegistry<SchnorrScheme> = KeyRegistry::generate(seed, 2);

        let sig1 = sim_keys.signer(SignerId(0)).sign(&data);
        let sig2 = sch_keys.signer(SignerId(0)).sign(&data);
        prop_assert!(sim_keys.verifier().verify(SignerId(0), &data, &sig1));
        prop_assert!(sch_keys.verifier().verify(SignerId(0), &data, &sig2));

        let mut bad1 = sig1;
        bad1.0[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!sim_keys.verifier().verify(SignerId(0), &data, &bad1));
        let mut bad2 = sig2;
        bad2.0[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!sch_keys.verifier().verify(SignerId(0), &data, &bad2));
    }

    /// Data-message signatures bind every signed field.
    #[test]
    fn data_message_binds_fields(
        seed in any::<u64>(),
        seq in 1u64..u64::MAX,
        payload_id in any::<u64>(),
        payload_len in 0u32..65_536,
        delta in 1u64..1000,
    ) {
        let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(seed, 2);
        let v = keys.verifier();
        let m = DataMsg::sign(&keys.signer(SignerId(0)), seq, payload_id, payload_len);
        prop_assert!(m.verify(&v));
        prop_assert!(m.gossip_entry().verify(&v));

        let mut bad = m;
        bad.payload_id = bad.payload_id.wrapping_add(delta);
        prop_assert!(!bad.verify(&v));
        let mut bad = m;
        bad.id.seq = bad.id.seq.wrapping_add(delta);
        prop_assert!(!bad.verify(&v));
        let mut bad = m;
        bad.id.origin = NodeId(1);
        prop_assert!(!bad.verify(&v));
        // TTL is a hop counter, deliberately unsigned.
        prop_assert!(m.with_ttl(2).verify(&v));
    }

    /// `connected_correct_cover` implies both of its component properties.
    #[test]
    fn cover_decomposition(
        seed in any::<u64>(),
        n in 4usize..24,
        overlay_bits in any::<u32>(),
        correct_bits in any::<u32>(),
    ) {
        let mut rng = SimRng::new(seed);
        let field = Field::new(400.0, 400.0);
        let positions: Vec<Position> = (0..n).map(|_| field.random_position(&mut rng)).collect();
        let adj = disk_adjacency(&positions, 180.0);
        let overlay: Vec<bool> = (0..n).map(|i| overlay_bits >> (i % 32) & 1 == 1).collect();
        let correct: Vec<bool> = (0..n).map(|i| correct_bits >> (i % 32) & 1 == 1).collect();
        if connected_correct_cover(&adj, &overlay, &correct) {
            let correct_overlay: Vec<bool> =
                (0..n).map(|i| overlay[i] && correct[i]).collect();
            prop_assert!(induced_connected(&adj, &correct_overlay));
            for i in 0..n {
                if correct[i] {
                    let covered = correct_overlay[i]
                        || adj[i].iter().any(|v| correct_overlay[v.index()]);
                    prop_assert!(covered);
                }
            }
        }
    }

    /// BFS distances satisfy the triangle property along edges.
    #[test]
    fn bfs_distance_is_a_metric_along_edges(seed in any::<u64>(), n in 2usize..30) {
        bfs_metric_case(seed, n)?;
    }

    /// The multi-overlay planner always covers every component, for any
    /// geometry and overlay count.
    #[test]
    fn planned_overlays_always_dominate(
        seed in any::<u64>(),
        n in 2usize..30,
        k in 1u8..4,
    ) {
        planned_overlays_case(seed, n, k)?;
    }
}

fn bfs_metric_case(seed: u64, n: usize) -> Result<(), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let field = Field::new(400.0, 400.0);
    let positions: Vec<Position> = (0..n).map(|_| field.random_position(&mut rng)).collect();
    let adj = disk_adjacency(&positions, 200.0);
    let dist = bfs_distances(&adj, NodeId(0));
    for (u, nbrs) in adj.iter().enumerate() {
        for v in nbrs {
            match (dist[u], dist[v.index()]) {
                (Some(du), Some(dv)) => {
                    prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}) gap {du}-{dv}")
                }
                (Some(_), None) | (None, Some(_)) => {
                    prop_assert!(false, "edge spans components")
                }
                (None, None) => {}
            }
        }
    }
    Ok(())
}

fn planned_overlays_case(seed: u64, n: usize, k: u8) -> Result<(), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let field = Field::new(500.0, 500.0);
    let positions: Vec<Position> = (0..n).map(|_| field.random_position(&mut rng)).collect();
    let adj = disk_adjacency(&positions, 220.0);
    let memberships = byzcast::baselines::plan_overlays(&adj, k, seed);
    for (i, row) in memberships.iter().enumerate() {
        for (overlay, &member) in row.iter().enumerate() {
            let covered = member || adj[i].iter().any(|v| memberships[v.index()][overlay]);
            prop_assert!(covered, "node {i} uncovered in overlay {overlay}");
        }
    }
    Ok(())
}

/// Shrunk case from `properties.proptest-regressions`
/// (`seed = 297956877030878764, n = 3, k = 1`): a tiny, possibly
/// disconnected geometry where the planner must still dominate every
/// component.
#[test]
fn regression_planner_dominates_tiny_disconnected_graph() {
    planned_overlays_case(297956877030878764, 3, 1).unwrap();
}
