//! Campus mesh with saboteurs: a dense static mesh where the three
//! highest-id nodes — the ones the id-based overlay election favours — turn
//! out to be mute Byzantine nodes claiming dominator status. Watch the
//! failure detectors evict them and the gossip/recovery path carry the
//! traffic meanwhile.
//!
//! ```sh
//! cargo run --example campus_mesh
//! ```

use byzcast::adversary::MutePolicy;
use byzcast::fd::TrustLevel;
use byzcast::harness::{byz_view, highest_ids, AdversaryKind, ScenarioConfig, Workload};
use byzcast::sim::{Field, NodeId, SimConfig, SimDuration, SimTime};

fn main() {
    let n = 60usize;
    let mutes = 3usize;
    let config = ScenarioConfig {
        seed: 7,
        n,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            ..SimConfig::default()
        },
        adversary_assignments: highest_ids(n, mutes, AdversaryKind::Mute(MutePolicy::DropData)),
        ..ScenarioConfig::default()
    };
    let saboteurs = config.adversary_set();
    println!("saboteurs (mute, claiming overlay dominator): {saboteurs:?}");

    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 60,
        payload_bytes: 512,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_millis(250),
        drain: SimDuration::from_secs(15),
    };

    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::ZERO + workload.horizon());

    let summary = config.summarize_wire(&sim);
    let c = summary.counters.expect("byzcast counters");
    println!(
        "delivery ratio over {} messages: {:.3} (worst message {:.3})",
        summary.messages, summary.delivery_ratio, summary.min_delivery_ratio
    );
    println!(
        "recovery machinery: {} requests, {} responses served, {} messages recovered",
        c.requests_sent, c.recoveries_served, c.recovered_via_request
    );

    // How widely are the saboteurs distrusted by the end of the run?
    let now = sim.now();
    for &s in &saboteurs {
        let distrusters = (0..n as u32)
            .map(NodeId)
            .filter(|id| !saboteurs.contains(id))
            .filter(|&id| {
                byz_view(&sim, id)
                    .is_some_and(|node| node.trust_level(s, now) == TrustLevel::Untrusted)
            })
            .count();
        println!("saboteur {s} is distrusted by {distrusters} correct nodes");
    }
    println!(
        "suspicions raised: {} against saboteurs, {} false",
        summary.true_suspicions, summary.false_suspicions
    );
    assert!(
        summary.delivery_ratio > 0.95,
        "the mesh should shrug the saboteurs off"
    );
}
