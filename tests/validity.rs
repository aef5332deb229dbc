//! Integration tests for the paper's *validity* property (Theorem 3.1):
//! "If a correct node q invokes accept(p, q, m) and p is correct, then
//! indeed q invoked broadcast(p, m) beforehand. Moreover, for the same
//! message m, a correct node p can only invoke accept(p, q, m) once."
//!
//! The adversaries here try to break it: forgers tamper with relayed
//! payloads, impersonators inject messages under other nodes' names. With
//! unforgeable signatures, no correct node must ever accept a payload the
//! claimed originator did not broadcast.

use std::collections::{BTreeMap, BTreeSet};

use byzcast::harness::{highest_ids, AdversaryKind, ScenarioConfig, Workload};
use byzcast::sim::{Field, Metrics, NodeId, SimConfig, SimDuration, SimTime};

fn run_scenario(config: &ScenarioConfig, workload: &Workload) -> Metrics {
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::ZERO + workload.horizon());
    sim.metrics().clone()
}

/// Checks Theorem 3.1 against the run's ground truth: every delivery at a
/// correct node corresponds to a real broadcast by the claimed originator,
/// and deliveries are unique per (node, payload).
fn assert_validity(metrics: &Metrics, correct: &[bool]) {
    let broadcasts: BTreeMap<u64, NodeId> = metrics
        .broadcasts
        .iter()
        .map(|b| (b.payload_id, b.origin))
        .collect();
    let mut seen: BTreeSet<(NodeId, NodeId, u64)> = BTreeSet::new();
    for d in &metrics.deliveries {
        if !correct[d.node.index()] {
            continue; // Byzantine nodes may "deliver" whatever they like
        }
        match broadcasts.get(&d.payload_id) {
            Some(&origin) => assert_eq!(
                origin, d.origin,
                "correct node {} accepted payload {} under the wrong originator",
                d.node, d.payload_id
            ),
            None => panic!(
                "correct node {} accepted payload {} that nobody broadcast",
                d.node, d.payload_id
            ),
        }
        assert!(
            seen.insert((d.node, d.origin, d.payload_id)),
            "correct node {} accepted ({}, {}) twice",
            d.node,
            d.origin,
            d.payload_id
        );
    }
}

fn base(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n: 40,
        sim: SimConfig {
            field: Field::new(550.0, 550.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

fn workload() -> Workload {
    Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 20,
        payload_bytes: 256,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_millis(300),
        drain: SimDuration::from_secs(12),
    }
}

#[test]
fn validity_failure_free() {
    let config = base(2);
    let metrics = run_scenario(&config, &workload());
    assert_validity(&metrics, &config.correct_mask());
    assert!(!metrics.deliveries.is_empty());
}

#[test]
fn validity_under_forgers() {
    let mut config = base(3);
    config.adversary_assignments = highest_ids(config.n, 6, AdversaryKind::Forger);
    let metrics = run_scenario(&config, &workload());
    assert_validity(&metrics, &config.correct_mask());
}

#[test]
fn validity_under_impersonators() {
    let mut config = base(4);
    let impersonator = AdversaryKind::Impersonator { victim: NodeId(0) };
    config.adversary_assignments = highest_ids(config.n, 4, impersonator);
    let metrics = run_scenario(&config, &workload());
    assert_validity(&metrics, &config.correct_mask());
    // In particular: the victim is never credited with the forged payloads
    // (ids >= 0xBAD0) at any correct node.
    let correct = config.correct_mask();
    for d in &metrics.deliveries {
        if correct[d.node.index()] {
            assert!(d.payload_id < 0xBAD0, "forged payload accepted: {d:?}");
        }
    }
}

#[test]
fn validity_under_gossip_liars() {
    let mut config = base(5);
    config.adversary_assignments = highest_ids(config.n, 5, AdversaryKind::GossipLiar);
    let metrics = run_scenario(&config, &workload());
    assert_validity(&metrics, &config.correct_mask());
}

#[test]
fn validity_under_combined_noise_and_verbose_spam() {
    let mut config = base(6);
    let verbose = AdversaryKind::Verbose {
        period: SimDuration::from_millis(150),
        per_tick: 8,
    };
    config.adversary_assignments = highest_ids(config.n, 5, verbose);
    let metrics = run_scenario(&config, &workload());
    assert_validity(&metrics, &config.correct_mask());
}
