//! Integration tests for the failure detectors' interval properties
//! (paper §2.2, Lemmas 3.7–3.9) measured on live runs:
//!
//! * **Accuracy** — with an ideal radio (no collisions, no fading) and no
//!   Byzantine nodes, *no* correct node is ever suspected: suspicion-free
//!   runs stay suspicion-free.
//! * **Completeness** — mute overlay claimants blocking a sparse cut are
//!   suspected by their neighbours within a bounded interval, and the
//!   overlay self-heals into a connected correct cover.

use byzcast::adversary::MutePolicy;
use byzcast::harness::{
    byz_view, highest_ids, AdversaryKind, MobilityChoice, ScenarioConfig, Workload,
};
use byzcast::sim::{Field, NodeId, RadioConfig, SimConfig, SimDuration, SimTime};

fn run(
    config: &ScenarioConfig,
    workload: &Workload,
) -> byzcast::sim::Simulator<byzcast::core::WireMsg> {
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::ZERO + workload.horizon());
    sim
}

fn workload(count: usize) -> Workload {
    Workload {
        senders: vec![NodeId(0)],
        count,
        payload_bytes: 256,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_millis(400),
        drain: SimDuration::from_secs(25),
    }
}

/// Lemma 3.8 in spirit: under timely network behaviour (ideal radio — every
/// frame arrives), non-mute processes are never suspected.
#[test]
fn no_suspicions_in_timely_failure_free_runs() {
    let config = ScenarioConfig {
        seed: 3,
        n: 30,
        sim: SimConfig {
            field: Field::new(500.0, 500.0),
            radio: RadioConfig::ideal_disk(250.0),
            mac: byzcast::sim::mac::MacConfig {
                // Wide contention window: effectively no collisions.
                cw_slots: 256,
                ..Default::default()
            },
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let sim = run(&config, &workload(12));
    for i in 0..config.n as u32 {
        let node = byz_view(&sim, NodeId(i)).expect("all nodes are byzcast");
        assert!(
            node.suspicion_log().episodes().is_empty(),
            "node {i} suspected someone in a timely failure-free run: {:?}",
            node.suspicion_log().episodes()
        );
    }
}

/// The star-cut topology that *forces* the mute node to matter: two cliques
/// joined only by a low-id correct connector B (id 4) and a highest-id node
/// A (id 9) adjacent to everyone. A wins every overlay election (everyone
/// prunes to it), so the overlay is exactly {A} — the paper's "all overlay
/// nodes Byzantine" situation in miniature.
fn star_cut() -> (ScenarioConfig, usize) {
    let positions = vec![
        // Clique 1 (ids 0–3), left.
        byzcast::sim::Position::new(0.0, 0.0),
        byzcast::sim::Position::new(40.0, 0.0),
        byzcast::sim::Position::new(0.0, 40.0),
        byzcast::sim::Position::new(40.0, 40.0),
        // B (id 4): the correct connector in the middle.
        byzcast::sim::Position::new(230.0, 60.0),
        // Clique 2 (ids 5–8), right.
        byzcast::sim::Position::new(420.0, 0.0),
        byzcast::sim::Position::new(460.0, 0.0),
        byzcast::sim::Position::new(420.0, 40.0),
        byzcast::sim::Position::new(460.0, 40.0),
        // A (id 9): adjacent to everyone, mute, claims dominator.
        byzcast::sim::Position::new(230.0, 40.0),
    ];
    let n = positions.len();
    let config = ScenarioConfig {
        seed: 5,
        n,
        sim: SimConfig {
            field: Field::new(470.0, 100.0),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        adversary_assignments: vec![(
            NodeId(9),
            AdversaryKind::Mute(MutePolicy::DropDataAndGossip),
        )],
        ..ScenarioConfig::default()
    };
    (config, n)
}

/// Lemma 3.7 in spirit: the mute sole-overlay node is suspected by the
/// correct nodes whose traffic it blocks (clique 2, whose first copies only
/// ever arrive through B's recovery responses).
#[test]
fn blocking_mute_node_gets_suspected() {
    let (config, n) = star_cut();
    let w = workload(15);
    let sim = run(&config, &w);
    // Delivery must survive the mute overlay (via B's gossip + recovery).
    let summary = config.summarize_wire(&sim);
    assert_eq!(summary.delivery_ratio, 1.0, "mute overlay not recovered");
    // And the blocked side must have caught the mute node.
    let suspected_by = (0..n as u32)
        .filter(|&i| i != 9)
        .filter(|&i| {
            byz_view(&sim, NodeId(i)).is_some_and(|node| {
                node.suspicion_log()
                    .episodes()
                    .iter()
                    .any(|ep| ep.suspect == NodeId(9))
            })
        })
        .count();
    assert!(
        suspected_by >= 1,
        "no correct node ever suspected the mute overlay node"
    );
}

/// Lemma 3.9 in spirit: after the mutes are suspected, the correct overlay
/// members form a connected cover again.
#[test]
fn overlay_self_heals_after_suspicion() {
    let config = ScenarioConfig {
        seed: 8,
        n: 50,
        sim: SimConfig {
            field: Field::new(600.0, 600.0),
            ..SimConfig::default()
        },
        adversary_assignments: highest_ids(50, 5, AdversaryKind::Mute(MutePolicy::DropData)),
        ..ScenarioConfig::default()
    };
    let w = Workload {
        count: 60,
        interval: SimDuration::from_millis(200),
        ..workload(60)
    };
    let sim = run(&config, &w);
    let summary = config.summarize_wire(&sim);
    assert!(
        summary.delivery_ratio > 0.99,
        "delivery {}",
        summary.delivery_ratio
    );
    assert_eq!(
        summary.overlay_ok,
        Some(true),
        "overlay failed to heal into a connected correct cover"
    );
}

/// The interval-spec checker agrees with a run's recorded episodes: the
/// mute node is caught within (mute_interval + suspicion_interval) of the
/// first broadcast.
#[test]
fn interval_completeness_checker_on_a_run() {
    use byzcast::fd::{IntervalSpec, SuspicionLog};

    let (config, n) = star_cut();
    let w = workload(15);
    let sim = run(&config, &w);

    // Merge per-node logs into one.
    let mut merged = SuspicionLog::new();
    for i in 0..n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            for ep in node.suspicion_log().episodes() {
                merged.begin(ep.start, ep.observer, ep.suspect);
                if ep.end != SimTime::MAX {
                    merged.end(ep.end, ep.observer, ep.suspect);
                }
            }
        }
    }
    let spec = IntervalSpec {
        mute_interval: SimDuration::from_secs(15),
        suspicion_interval: SimDuration::from_secs(20),
        suspicion_free_interval: SimDuration::from_secs(5),
    };
    // Observers: clique 2 — the nodes whose traffic the mute node blocks.
    let observers: Vec<NodeId> = (5..9).map(NodeId).collect();
    let mute_start = SimTime::ZERO + w.start;
    let misses = merged.completeness_misses(&spec, mute_start, &observers, &[NodeId(9)]);
    assert!(
        misses.len() < observers.len(),
        "no observer satisfied interval completeness: {misses:?}"
    );
}
