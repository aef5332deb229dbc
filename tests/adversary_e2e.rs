//! End-to-end runs against single adversary deviations: a gossip liar (lies
//! about holding messages, ignores the resulting requests), an impersonator
//! (injects frames forged in a victim's name), a selective forwarder, a
//! verbose spammer, and a replayer (re-injects captured frames after their
//! bodies have been purged). The protocol must shrug them all off — every
//! correct node delivers everything exactly once — and the failure
//! detectors must end up suspecting the adversary, not a correct node.

use byzcast_adversary::Deviation;
use byzcast_harness::{check_run, standard_oracles, MobilityChoice, ScenarioConfig, Workload};
use byzcast_sim::{FaultKind, Field, NodeId, Position, RadioConfig, SimConfig, SimDuration};

fn dense_scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n: 25,
        sim: SimConfig {
            field: Field::new(500.0, 500.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

fn workload() -> Workload {
    Workload {
        senders: vec![NodeId(0)],
        count: 5,
        payload_bytes: 256,
        start: SimDuration::from_secs(5),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(15),
    }
}

#[test]
fn gossip_liar_is_suspected_and_harmless() {
    let mut scenario = dense_scenario(2);
    scenario
        .adversary_assignments
        .push((NodeId(24), Deviation::GossipLiar));
    let summary = scenario.run(&workload());
    assert_eq!(
        summary.min_delivery_ratio, 1.0,
        "a gossip liar must not cost any correct node a delivery: {summary:?}"
    );
    assert!(
        summary.true_suspicions > 0,
        "no detector ever suspected the liar: {summary:?}"
    );
    assert_eq!(
        summary.false_suspicions, 0,
        "the liar got a correct node suspected: {summary:?}"
    );
}

#[test]
fn impersonator_is_suspected_and_its_victim_is_not() {
    let mut scenario = dense_scenario(3);
    scenario
        .adversary_assignments
        .push((NodeId(24), Deviation::Impersonator { victim: NodeId(1) }));
    let summary = scenario.run(&workload());
    assert_eq!(
        summary.min_delivery_ratio, 1.0,
        "forged frames must not cost any correct node a delivery: {summary:?}"
    );
    assert!(
        summary.true_suspicions > 0,
        "no detector ever suspected the impersonator: {summary:?}"
    );
    assert_eq!(
        summary.false_suspicions, 0,
        "the impersonation framed a correct node: {summary:?}"
    );
    let forged = summary
        .counters
        .as_ref()
        .map_or(0, |c| c.bad_signatures_seen);
    assert!(
        forged > 0,
        "the impersonator's forgeries never reached a verifier: {summary:?}"
    );
}

#[test]
fn selective_forwarder_cannot_starve_its_victim() {
    let mut scenario = dense_scenario(5);
    scenario
        .adversary_assignments
        .push((NodeId(24), Deviation::Censor(vec![NodeId(0)])));
    let summary = scenario.run(&workload());
    assert_eq!(
        summary.min_delivery_ratio, 1.0,
        "overlay redundancy must route around a selective forwarder: {summary:?}"
    );
    assert_eq!(
        summary.false_suspicions, 0,
        "the selective forwarder got a correct node suspected: {summary:?}"
    );
}

#[test]
fn verbose_spammer_is_suspected_and_harmless() {
    let mut scenario = dense_scenario(6);
    scenario.adversary_assignments.push((
        NodeId(24),
        Deviation::Verbose {
            period: SimDuration::from_millis(500),
            per_tick: 3,
        },
    ));
    let summary = scenario.run(&workload());
    assert_eq!(
        summary.min_delivery_ratio, 1.0,
        "gossip spam must not cost any correct node a delivery: {summary:?}"
    );
    assert!(
        summary.true_suspicions > 0,
        "no detector ever suspected the verbose spammer: {summary:?}"
    );
    assert_eq!(
        summary.false_suspicions, 0,
        "the spam got a correct node suspected: {summary:?}"
    );
}

#[test]
fn replayed_frames_after_body_purge_are_still_duplicates() {
    // The replay hole this pins shut: with `purge_after` well under the
    // replay delay, every captured body (and, before the fix, its seen-id
    // four holds later) would be long gone when the replayer re-injects the
    // frame — which then carried a valid signature and a fresh-looking id.
    // Seen-ids are now retained for the life of the run (bounded only by
    // the configured cap), so the replay must be recognised as a duplicate
    // by every correct node: the no-duplication oracle stays clean.
    let mut scenario = dense_scenario(7);
    scenario.byzcast.purge_after = SimDuration::from_secs(2);
    scenario.adversary_assignments.push((
        NodeId(24),
        Deviation::Replayer {
            delay: SimDuration::from_secs(10),
        },
    ));
    let checked = check_run(&scenario, &workload(), &standard_oracles());
    let dups = checked
        .violations
        .iter()
        .filter(|v| v.oracle == "no-duplication")
        .count();
    assert_eq!(
        dups, 0,
        "replayed frames were re-delivered: {:?}",
        checked.violations
    );
    assert_eq!(
        checked.summary.min_delivery_ratio, 1.0,
        "the replayer cost a correct node a delivery: {:?}",
        checked.summary
    );
}

/// A hand-built thin-chain topology (ideal-disk radio, 250 m range):
///
/// ```text
/// cluster 0-1-2 --- 3 (spare bridge, passive: covered by 7)
///              \--- 7 (dominator bridge, highest id) --- 4 --- 5 --- 6
/// ```
///
/// Node 7 wins the id-based election and is the chain's only *active*
/// gateway; node 3 covers the same cut but self-prunes. Crashing 7 before
/// the broadcast leaves the chain connected (through 3) but served only by
/// a stale overlay — the shape the PR-4 soak found stranding nodes past the
/// recovery slack.
fn thin_chain_scenario(crash_at: SimDuration) -> ScenarioConfig {
    let positions = vec![
        Position::new(50.0, 50.0),   // 0: sender
        Position::new(150.0, 50.0),  // 1: cluster
        Position::new(250.0, 50.0),  // 2: cluster edge, reaches both bridges
        Position::new(380.0, 120.0), // 3: spare bridge (passive under 7)
        Position::new(600.0, 50.0),  // 4: chain hop 1
        Position::new(800.0, 50.0),  // 5: chain hop 2
        Position::new(1000.0, 50.0), // 6: chain hop 3
        Position::new(380.0, 50.0),  // 7: doomed bridge, wins the election
    ];
    let mut scenario = ScenarioConfig {
        seed: 11,
        n: positions.len(),
        sim: SimConfig {
            field: Field::new(1100.0, 200.0),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        ..ScenarioConfig::default()
    };
    scenario.fault_plan.push(
        crash_at,
        FaultKind::Crash {
            node: NodeId(7),
            retain_state: false,
        },
    );
    scenario
}

fn chain_workload() -> Workload {
    Workload {
        senders: vec![NodeId(0)],
        count: 1,
        payload_bytes: 256,
        start: SimDuration::from_secs(5),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(18),
    }
}

#[test]
fn crash_adjacent_to_thin_chain_recovers_within_slack() {
    // The bridge crashes a second before the broadcast: the chain is still
    // connected (through the spare bridge) but every overlay decision near
    // the cut is stale. With the recovery envelope on, the liveness repair
    // must purge the dead dominator, re-elect, and deliver to every up node
    // within the semi-reliability slack.
    let mut scenario = thin_chain_scenario(SimDuration::from_secs(4));
    scenario.byzcast.recovery = true;
    let checked = check_run(&scenario, &chain_workload(), &standard_oracles());
    let semi = checked
        .violations
        .iter()
        .filter(|v| v.oracle == "semi-reliability")
        .count();
    assert_eq!(
        semi, 0,
        "a chain node stayed stranded past the slack: {:?}",
        checked.violations
    );
    // Only the crashed bridge itself may miss the message.
    assert!(
        checked.summary.min_delivery_ratio >= 7.0 / 8.0,
        "an up node missed the broadcast: {:?}",
        checked.summary
    );
    let recovery = checked
        .summary
        .recovery
        .expect("recovery-enabled runs report RecoveryStats");
    assert!(
        recovery.neighbors_purged >= 1 && recovery.reelections >= 1,
        "the dead dominator was never purged from the overlay: {recovery:?}"
    );
    assert!(
        recovery.requests_originated >= 1,
        "the chain never exercised the request path: {recovery:?}"
    );
}

#[test]
fn mixed_adversary_assignments_compose() {
    // One of each, at the overlay-election-winning ids: the protocol rides
    // out a liar and an impersonator at once.
    let mut scenario = dense_scenario(4);
    scenario
        .adversary_assignments
        .push((NodeId(24), Deviation::GossipLiar));
    scenario
        .adversary_assignments
        .push((NodeId(23), Deviation::Impersonator { victim: NodeId(2) }));
    let summary = scenario.run(&workload());
    assert_eq!(summary.correct, 23);
    assert_eq!(
        summary.min_delivery_ratio, 1.0,
        "mixed adversaries broke delivery: {summary:?}"
    );
    assert_eq!(summary.false_suspicions, 0, "{summary:?}");
}
