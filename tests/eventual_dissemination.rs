//! Integration tests for the paper's *eventual dissemination* property
//! (Theorem 3.2): "If a correct node p invokes broadcast(p, ·) infinitely
//! often, then eventually every correct node q invokes accept(q, p, ·)" —
//! under the assumption that correct nodes form a connected graph.
//!
//! Each test builds a topology where that assumption holds, injects
//! messages, and checks that every correct node accepts every message —
//! including on the paper's Figure-5 worst case where *every overlay node is
//! Byzantine* and dissemination must run entirely over the gossip-request
//! mechanism.

use std::collections::BTreeSet;

use byzcast::adversary::MutePolicy;
use byzcast::harness::{
    highest_ids, AdversaryKind, MobilityChoice, ProtocolChoice, ScenarioConfig, Workload,
};
use byzcast::overlay::OverlayKind;
use byzcast::sim::{Field, NodeId, Position, RadioConfig, SimConfig, SimDuration};

fn deliveries_complete(config: &ScenarioConfig, workload: &Workload) -> (f64, f64) {
    let s = config.run(workload);
    (s.delivery_ratio, s.min_delivery_ratio)
}

fn ideal_line(n: usize, spacing: f64) -> ScenarioConfig {
    ScenarioConfig {
        seed: 5,
        n,
        sim: SimConfig {
            field: Field::new(spacing * n as f64 + 1.0, 100.0),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Line { spacing },
        ..ScenarioConfig::default()
    }
}

fn workload(count: usize) -> Workload {
    Workload {
        senders: vec![NodeId(0)],
        count,
        payload_bytes: 256,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(20),
    }
}

#[test]
fn line_topology_all_correct() {
    let (mean, min) = deliveries_complete(&ideal_line(12, 200.0), &workload(6));
    assert_eq!(mean, 1.0, "mean delivery {mean}");
    assert_eq!(min, 1.0, "worst message {min}");
}

#[test]
fn grid_topology_all_correct() {
    let config = ScenarioConfig {
        seed: 5,
        n: 36,
        sim: SimConfig {
            field: Field::new(900.0, 900.0),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Grid,
        ..ScenarioConfig::default()
    };
    let (mean, min) = deliveries_complete(&config, &workload(6));
    assert_eq!(mean, 1.0, "mean delivery {mean}");
    assert_eq!(min, 1.0, "worst message {min}");
}

#[test]
fn dense_random_topology_with_realistic_radio() {
    let config = ScenarioConfig {
        seed: 9,
        n: 50,
        sim: SimConfig {
            field: Field::new(600.0, 600.0),
            ..SimConfig::default() // fading + noise + collisions
        },
        ..ScenarioConfig::default()
    };
    let (mean, min) = deliveries_complete(&config, &workload(10));
    assert!(mean > 0.99, "mean delivery {mean}");
    assert!(min > 0.95, "worst message {min}");
}

#[test]
fn both_overlays_disseminate() {
    for overlay in [OverlayKind::Cds, OverlayKind::MisBridges] {
        let mut config = ideal_line(10, 200.0);
        config.byzcast.overlay = overlay;
        let (mean, _) = deliveries_complete(&config, &workload(4));
        assert_eq!(mean, 1.0, "{} failed", overlay.name());
    }
}

/// The paper's Figure 5: every overlay node Byzantine. The highest-id nodes
/// are fully mute dominator-claimants positioned so that every correct node
/// prunes itself — the overlay is mutes-only and dissemination must run on
/// the gossip-request chain.
#[test]
fn figure_5_byzantine_overlay_line() {
    let config = byzcast::harness::figure5_worst_case(7, 5);
    let w = Workload {
        drain: SimDuration::from_secs(90), // gossip-request path is slow
        ..workload(5)
    };
    let s = config.run(&w);
    assert_eq!(s.delivery_ratio, 1.0, "mean delivery {}", s.delivery_ratio);
    assert_eq!(
        s.min_delivery_ratio, 1.0,
        "worst message {}",
        s.min_delivery_ratio
    );
    assert!(
        s.counters.expect("byzcast counters").requests_sent > 0,
        "the mute overlay should force the recovery path"
    );
}

/// Mute dominator-claimants scattered over a random topology; the paper's
/// appealing property — "it only requires the existence of one correct node
/// in each one-hop neighborhood" — carried by gossip recovery.
#[test]
fn mute_overlay_claimants_random_topology() {
    let config = ScenarioConfig {
        seed: 13,
        n: 60,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            ..SimConfig::default()
        },
        adversary_assignments: highest_ids(60, 6, AdversaryKind::Mute(MutePolicy::DropData)),
        ..ScenarioConfig::default()
    };
    let w = Workload {
        drain: SimDuration::from_secs(25),
        ..workload(10)
    };
    let (mean, min) = deliveries_complete(&config, &w);
    assert!(mean > 0.99, "mean delivery {mean}");
    assert!(min > 0.95, "worst message {min}");
}

/// The explicit-position escape hatch: a bowtie where the centre node is the
/// only cut vertex; it must end up relaying no matter what the overlay says.
#[test]
fn cut_vertex_bowtie() {
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(0.0, 200.0),
        Position::new(150.0, 100.0), // the cut vertex
        Position::new(300.0, 0.0),
        Position::new(300.0, 200.0),
    ];
    let config = ScenarioConfig {
        seed: 1,
        n: 5,
        sim: SimConfig {
            field: Field::new(400.0, 300.0),
            radio: RadioConfig::ideal_disk(190.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        ..ScenarioConfig::default()
    };
    let (mean, min) = deliveries_complete(&config, &workload(4));
    assert_eq!(mean, 1.0);
    assert_eq!(min, 1.0);
}

/// Flooding and the f+1-overlay baseline satisfy dissemination on the same
/// topologies (they are the comparison points of experiment R1/R2).
#[test]
fn baselines_disseminate_on_the_line() {
    for protocol in [
        ProtocolChoice::Flooding,
        ProtocolChoice::MultiOverlay { f: 1 },
    ] {
        let mut config = ideal_line(10, 200.0);
        config.protocol = protocol.clone();
        let (mean, _) = deliveries_complete(&config, &workload(4));
        assert_eq!(mean, 1.0, "{protocol:?} failed");
    }
}

/// Every correct node accepts each payload exactly once (the "only once"
/// half of validity interacts with dissemination here).
#[test]
fn no_duplicate_deliveries() {
    let config = ScenarioConfig {
        seed: 21,
        n: 30,
        sim: SimConfig {
            field: Field::new(500.0, 500.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let w = workload(8);
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in w.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(byzcast::sim::SimTime::ZERO + w.horizon());
    let mut seen: BTreeSet<(NodeId, u64)> = BTreeSet::new();
    for d in &sim.metrics().deliveries {
        assert!(
            seen.insert((d.node, d.payload_id)),
            "duplicate delivery of payload {} at {}",
            d.payload_id,
            d.node
        );
    }
}
