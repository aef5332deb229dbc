//! Integration tests for the §3.5 analysis: dissemination-time bounds
//! (Theorem 3.4 and the static `n/2` worst case) and the buffer bound.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use byzcast::harness::{byz_view, figure5_worst_case, ScenarioConfig, Workload};
use byzcast::sim::{NodeId, SimDuration, SimTime};

/// The paper's Figure-5 worst case (see `figure5_worst_case`): the overlay
/// is mutes-only, so dissemination runs on the gossip-request chain.
/// `correct` is the number of correct nodes; total n = 2·correct − 1.
fn figure5(correct: usize) -> (ScenarioConfig, Workload) {
    let config = figure5_worst_case(correct, 1);
    let workload = Workload {
        senders: vec![NodeId(0)],
        count: 6,
        payload_bytes: 256,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_secs(2),
        drain: SimDuration::from_secs(90),
    };
    (config, workload)
}

#[test]
fn bound_theorem_3_4_mobile_form() {
    // Theorem 3.4: all correct nodes receive m within max_timeout · (n − 1).
    let (config, workload) = figure5(9);
    let summary = config.run(&workload);
    assert_eq!(summary.delivery_ratio, 1.0, "worst case must still deliver");
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let bound = config
        .byzcast
        .max_timeout(beta)
        .saturating_mul(config.n as u64 - 1)
        .as_secs_f64();
    assert!(
        summary.max_latency_s <= bound,
        "max latency {} exceeds Theorem 3.4 bound {}",
        summary.max_latency_s,
        bound
    );
}

#[test]
fn bound_static_worst_case_n_over_2() {
    // §3.5: in a static network the Figure-5 chain costs at most
    // max_timeout · n/2 (one Byzantine overlay node + one correct node per
    // hop).
    let (config, workload) = figure5(11);
    let summary = config.run(&workload);
    assert_eq!(summary.delivery_ratio, 1.0);
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let bound = config
        .byzcast
        .max_timeout(beta)
        .saturating_mul(config.n as u64 / 2)
        .as_secs_f64();
    assert!(
        summary.max_latency_s <= bound,
        "max latency {} exceeds static bound {}",
        summary.max_latency_s,
        bound
    );
}

#[test]
fn buffer_bound_holds() {
    // §3.5: in a mobile network every node needs at most
    // max_timeout · (n − 1) · δ buffered messages; the static requirement is
    // only max_timeout · δ. The measured high-water mark must stay within
    // the mobile (loose) bound — and our purge keeps it near the workload's
    // in-flight size.
    let (config, workload) = figure5(7);
    let mut sim = config.build_wire_sim();
    workload.drive(&mut sim);
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let max_timeout = config.byzcast.max_timeout(beta).as_secs_f64();
    let bound = (max_timeout * (config.n as f64 - 1.0) * workload.delta()).ceil() as usize;
    for i in 0..config.n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            let hw = node.store().high_water();
            assert!(
                hw <= bound.max(workload.count),
                "node {i} buffered {hw} > bound {bound}"
            );
        }
    }
}

#[test]
fn buffered_bodies_are_shared_not_copied() {
    // Each buffered (node, message) pair points at the network's shared
    // body: only a TTL change (a TTL-2 recovery response, normalised to TTL
    // 1 on receipt) allocates a new one. Stores are inspected before the
    // purge horizon, while every body is still buffered.
    let config = ScenarioConfig {
        seed: 11,
        n: 60,
        sim: byzcast::sim::SimConfig {
            field: byzcast::sim::Field::new(800.0, 800.0),
            ..byzcast::sim::SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 6,
        payload_bytes: 512,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    };
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::from_secs(9));
    let mut holders: BTreeMap<_, (usize, BTreeSet<_>)> = BTreeMap::new();
    for i in 0..config.n as u32 {
        let node = byz_view(&sim, NodeId(i)).expect("all nodes run byzcast");
        for stored in node.store().iter() {
            let entry = holders.entry(stored.msg.id).or_default();
            entry.0 += 1;
            entry.1.insert(Arc::as_ptr(&stored.msg));
        }
    }
    assert_eq!(holders.len(), workload.count);
    for (id, (held, bodies)) in &holders {
        assert!(
            *held * 10 >= config.n * 9,
            "{id:?} held by only {held} nodes"
        );
        assert!(
            bodies.len() <= 3,
            "{id:?}: {} distinct bodies across {held} holders",
            bodies.len()
        );
    }
}

#[test]
fn advertised_neighbor_lists_are_shared_not_copied() {
    // A neighbour-table entry keeps the list its beacon carried by
    // reference, and a sender re-sends its previous beacon while nothing
    // changed. So all receivers of one sender's list share a few
    // allocations (one per distinct list it advertised recently), not one
    // each.
    let config = ScenarioConfig {
        seed: 11,
        n: 60,
        sim: byzcast::sim::SimConfig {
            field: byzcast::sim::Field::new(800.0, 800.0),
            ..byzcast::sim::SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let mut sim = config.build_wire_sim();
    sim.run_until(SimTime::from_secs(8));
    let node = |i: u32| byz_view(&sim, NodeId(i)).expect("all nodes run byzcast");
    let mut entries = 0;
    let mut links = 0;
    for s in 0..config.n as u32 {
        let mut lists = BTreeSet::new();
        let mut holders = 0;
        for r in 0..config.n as u32 {
            if let Some(info) = node(r).table().info(NodeId(s)) {
                holders += 1;
                lists.insert(info.neighbors().as_ptr());
            }
        }
        assert!(
            lists.len() <= 3,
            "node {s}: {} distinct neighbour lists across {holders} holders",
            lists.len()
        );
        entries += holders;
        links += node(s).table().len();
    }
    assert!(
        entries * 10 >= links * 9,
        "only {entries} entries for {links} advertised links"
    );
}

#[test]
fn buffer_bound_static_failure_free() {
    // §3.5's static requirement: a node needs at most max_timeout · δ
    // buffered messages. The bound presumes bodies are retired once the
    // dissemination timeout for them has lapsed, so the run pins
    // `purge_after` to half of max_timeout (the purge timer fires every
    // `purge_after`, so worst-case body retention is 2 × purge_after —
    // exactly the max_timeout budget the paper grants).
    let mut config = ScenarioConfig {
        seed: 5,
        n: 25,
        sim: byzcast::sim::SimConfig {
            field: byzcast::sim::Field::new(500.0, 500.0),
            ..byzcast::sim::SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    config.byzcast.request_timeout = SimDuration::from_secs(1);
    config.byzcast.purge_after = SimDuration::from_secs(1);
    let workload = Workload {
        senders: vec![NodeId(0)],
        count: 40,
        payload_bytes: 256,
        start: SimDuration::from_secs(5),
        interval: SimDuration::from_millis(250),
        drain: SimDuration::from_secs(10),
    };
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let max_timeout = config.byzcast.max_timeout(beta);
    assert!(
        config.byzcast.purge_after.saturating_mul(2) <= max_timeout,
        "retention window exceeds the max_timeout budget"
    );
    let bound = (max_timeout.as_secs_f64() * workload.delta()).ceil() as usize;

    let mut sim = config.build_wire_sim();
    workload.drive(&mut sim);
    let mut max_hw = 0;
    for i in 0..config.n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            let hw = node.store().high_water();
            max_hw = max_hw.max(hw);
            assert!(hw <= bound, "node {i} buffered {hw} > static bound {bound}");
        }
    }
    assert!(max_hw > 1, "scenario too trivial to exercise the bound");
}

#[test]
fn dissemination_time_scales_linearly_not_worse() {
    // Sanity on the bound's *shape*: doubling the chain roughly doubles the
    // worst-case latency, it does not square it.
    let (c1, w) = figure5(6);
    let (c2, _) = figure5(11);
    let s1 = c1.run(&w);
    let s2 = c2.run(&w);
    assert_eq!(s1.delivery_ratio, 1.0);
    assert_eq!(s2.delivery_ratio, 1.0);
    // Latency grows with chain length, within a generous linear envelope.
    assert!(
        s2.max_latency_s <= (s1.max_latency_s + 1e-3) * 8.0,
        "latency blow-up: {} -> {}",
        s1.max_latency_s,
        s2.max_latency_s
    );
}
