//! Convoy: a mobile ad-hoc network under random-waypoint motion. The
//! physical topology — and with it the overlay — reshapes continuously while
//! a command node streams position updates.
//!
//! ```sh
//! cargo run --example convoy
//! ```

use byzcast::harness::{byz_view, MobilityChoice, ScenarioConfig, Workload};
use byzcast::sim::{Field, NodeId, SimConfig, SimDuration, SimTime};

fn main() {
    let n = 40usize;
    let config = ScenarioConfig {
        seed: 3,
        n,
        sim: SimConfig {
            field: Field::new(600.0, 600.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Waypoint {
            min_mps: 3.0,
            max_mps: 9.0,
            pause: SimDuration::from_secs(1),
        },
        ..ScenarioConfig::default()
    };

    let workload = Workload {
        senders: vec![NodeId(0)],
        count: 100,
        payload_bytes: 256,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_millis(400),
        drain: SimDuration::from_secs(12),
    };

    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }

    // Sample the overlay while the convoy moves.
    let mut checkpoints = Vec::new();
    let horizon = workload.horizon();
    for k in 1..=4u64 {
        let target = SimTime::ZERO + SimDuration::from_micros(horizon.as_micros() * k / 4);
        sim.run_until(target);
        let overlay: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|&id| byz_view(&sim, id).is_some_and(|node| node.is_overlay()))
            .collect();
        checkpoints.push((sim.now(), overlay));
    }

    for (t, overlay) in &checkpoints {
        println!("t={t}: overlay has {} members", overlay.len());
    }
    let (_, first) = &checkpoints[0];
    let (_, last) = &checkpoints[checkpoints.len() - 1];
    let churned = last.iter().filter(|id| !first.contains(id)).count();
    println!("overlay churn across the run: {churned} members are new since the first checkpoint");

    let summary = config.summarize_wire(&sim);
    let c = summary.counters.expect("byzcast counters");
    println!(
        "delivery ratio over {} messages while moving: {:.3} (p99 latency {:.3} s)",
        summary.messages, summary.delivery_ratio, summary.p99_latency_s
    );
    println!(
        "recovery path usage: {} requests, {} recoveries",
        c.requests_sent, c.recovered_via_request
    );
    assert!(
        summary.delivery_ratio > 0.9,
        "the convoy should keep delivering on the move"
    );
}
