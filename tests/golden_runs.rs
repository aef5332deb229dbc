//! Golden-run digests: three small runs, and one seed-aggregate, whose
//! JSONL records must hash to committed values.
//!
//! `perf_equivalence` compares two configurations inside one build; nothing
//! there notices a refactor that changes both sides alike. These digests
//! pin the records across builds, so a change that claims to leave every
//! simulated result untouched (a data-structure swap, a deleted dead path)
//! can prove it. Records are taken with `wall_ms` set to 0, the only field
//! that differs between identical runs.
//!
//! A deliberate behaviour change re-pins a digest: the failure message
//! prints the new digest and the record it hashes.

use byzcast_adversary::{Deviation, FlapBehavior, MutePolicy, SabotageKind};
use byzcast_harness::chaos::{generate_case, run_case};
use byzcast_harness::record::{run_record, RecordMeta};
use byzcast_harness::{
    aggregate, highest_ids, paper_envelope, replicate, MobilityChoice, RunSummary, ScenarioConfig,
    Workload,
};
use byzcast_sim::fault::FaultPlan;
use byzcast_sim::{Field, NodeId, SimConfig, SimDuration};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn record(label: &str, seed: u64, summary: &RunSummary) -> String {
    run_record(
        &RecordMeta {
            experiment: "golden",
            label,
            params: &[],
            seed,
            run_index: 0,
            wall_ms: 0.0,
        },
        summary,
        &[],
    )
}

fn assert_digest(label: &str, record: &str, expected: u64) {
    let got = fnv1a(record.as_bytes());
    assert_eq!(
        got, expected,
        "{label}: record digest changed to {got:#018x}; record:\n{record}"
    );
}

fn workload() -> Workload {
    Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 6,
        payload_bytes: 512,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(10),
    }
}

#[test]
fn static_default_byzcast_record_is_pinned() {
    let config = ScenarioConfig {
        seed: 11,
        n: 60,
        sim: SimConfig {
            field: Field::new(800.0, 800.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let summary = config.run(&workload());
    assert!(summary.delivery_ratio > 0.9, "scenario too trivial");
    assert_digest(
        "static-60",
        &record("static-60", 11, &summary),
        0x692a_1eff_a51f_e671,
    );
}

#[test]
fn waypoint_mute_drop_data_record_is_pinned() {
    let config = ScenarioConfig {
        seed: 12,
        n: 40,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            mobility_tick: SimDuration::from_millis(100),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Waypoint {
            min_mps: 1.0,
            max_mps: 10.0,
            pause: SimDuration::from_secs(2),
        },
        adversary_assignments: highest_ids(40, 6, Deviation::Mute(MutePolicy::DropData)),
        ..ScenarioConfig::default()
    };
    let summary = config.run(&workload());
    let counters = summary.counters.expect("byzcast counters");
    assert!(
        counters.requests_sent > 0,
        "the mutes must force recovery traffic"
    );
    assert_digest(
        "waypoint-mute-40",
        &record("waypoint-mute-40", 12, &summary),
        0x763e_4c4a_bcd3_c672,
    );
}

#[test]
fn governed_chaos_case_record_is_pinned() {
    // Seed 48 draws a flooder, so the per-origin gossip quota binds; the
    // store cap, tightened below the flood, makes body rejection bind too.
    let mut case = generate_case(48, true);
    case.scenario.byzcast.resources.max_store_msgs = 100;
    let checked = run_case(&case);
    let res = checked.summary.resources.expect("governed run");
    assert!(res.quota_drops > 0, "gossip quota never bound");
    assert!(res.store_rejects > 0, "store cap never bound");
    assert!(checked.violations.is_empty(), "{:?}", checked.violations);
    assert_digest(
        "chaos-48",
        &record(&case.name, 48, &checked.summary),
        0xd198_b43e_9532_a544,
    );
}

#[test]
fn seed_aggregate_of_governed_chaos_case_is_pinned() {
    // The aggregate is where counters are averaged and fault, resource and
    // recovery stats are summed or maxed across replicas; the per-run
    // digests above never reach that code.
    let case = generate_case(48, true);
    let agg = aggregate(&replicate(&case.scenario, &case.workload, &[48, 49, 50]));
    assert!(agg.counters.is_some(), "aggregate lost the counters");
    assert!(agg.faults.is_some(), "aggregate lost the fault stats");
    assert!(agg.resources.is_some(), "aggregate lost the resource stats");
    assert!(agg.recovery.is_some(), "aggregate lost the recovery stats");
    assert_digest(
        "chaos-48-aggregate",
        &record(&case.name, 48, &agg),
        0x506a_97be_7b15_d8aa,
    );
}

#[test]
fn seen_id_cap_eviction_record_is_pinned() {
    // Case 48's flooder injects far more unique ids than this cap holds, so
    // the oldest-first seen-id eviction runs on every correct node. No other
    // digest here reaches that path. A cap this tight also re-opens the
    // replay hole that `paper_envelope` sizes `max_seen_ids` against: the
    // record carries no-duplication violations, and they are pinned too.
    let mut case = generate_case(48, true);
    case.scenario.byzcast.resources.max_seen_ids = 48;
    let checked = run_case(&case);
    let res = checked.summary.resources.expect("governed run");
    assert!(res.seen_evictions > 0, "seen-id cap never bound");
    assert_digest(
        "chaos-48-seen-cap",
        &record(&case.name, 48, &checked.summary),
        0x10de_f251_aadd_9b87,
    );
}

#[test]
fn mixed_byzantine_beacon_and_fd_record_is_pinned() {
    // An impersonator, two forgers and a gossip liar exercise forged and
    // tampered beacons, bad-signature counting, TRUST suspicions and
    // indictment-driven re-election. The run spans several MUTE (8 s) and
    // VERBOSE (5 s) decay boundaries, so it also pins when the failure
    // detectors age their counters.
    let config = ScenarioConfig {
        seed: 13,
        n: 40,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            ..SimConfig::default()
        },
        byzcast: byzcast_core::ByzcastConfig {
            recovery: true,
            ..byzcast_core::ByzcastConfig::default()
        },
        adversary_assignments: vec![
            (NodeId(39), Deviation::Impersonator { victim: NodeId(2) }),
            (NodeId(38), Deviation::Forger),
            (NodeId(37), Deviation::Forger),
            (NodeId(36), Deviation::GossipLiar),
        ],
        ..ScenarioConfig::default()
    };
    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 24,
        payload_bytes: 256,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_millis(1000),
        drain: SimDuration::from_secs(12),
    };
    let summary = config.run(&workload);
    let counters = summary.counters.expect("byzcast counters");
    assert!(
        counters.bad_signatures_seen > 0,
        "no forged signature reached a verifier"
    );
    assert!(
        summary.true_suspicions + summary.false_suspicions > 0,
        "no detector ever suspected anyone"
    );
    assert_digest(
        "mixed-byzantine-40",
        &record("mixed-byzantine-40", 13, &summary),
        0x716a_beed_26ea_4d32,
    );
}

#[test]
fn wrapped_deviations_record_is_pinned() {
    // Every deviation that wraps a correct node, side by side: both
    // non-default mute policies, a silent node, a verbose spammer, a
    // censor, a mute and a forger flapper with one activation window each,
    // and a node whose delivery layer double-delivers. The other digests
    // reach only `Mute(DropData)`, `Forger` and chaos case 48's draw.
    let config = ScenarioConfig {
        seed: 14,
        n: 50,
        sim: SimConfig {
            field: Field::new(800.0, 800.0),
            ..SimConfig::default()
        },
        adversary_assignments: vec![
            (NodeId(49), Deviation::Mute(MutePolicy::DropDataAndGossip)),
            (NodeId(48), Deviation::Mute(MutePolicy::DropEverything)),
            (NodeId(47), Deviation::Silent),
            (
                NodeId(46),
                Deviation::Verbose {
                    period: SimDuration::from_millis(250),
                    per_tick: 4,
                },
            ),
            (NodeId(45), Deviation::Censor(vec![NodeId(0)])),
            (
                NodeId(44),
                Deviation::Flapping(FlapBehavior::Mute(MutePolicy::DropData)),
            ),
            (NodeId(43), Deviation::Flapping(FlapBehavior::Forger)),
        ],
        fault_plan: FaultPlan::new()
            .set_byzantine(SimDuration::from_secs(5), NodeId(44), true)
            .set_byzantine(SimDuration::from_secs(9), NodeId(44), false)
            .set_byzantine(SimDuration::from_secs(6), NodeId(43), true)
            .set_byzantine(SimDuration::from_secs(10), NodeId(43), false),
        sabotage: Some((NodeId(5), SabotageKind::DoubleDeliver)),
        ..ScenarioConfig::default()
    };
    let summary = config.run(&workload());
    let faults = summary.faults.as_ref().expect("fault stats");
    assert_eq!(faults.byz_activations, 2, "a flapper window never opened");
    let counters = summary.counters.as_ref().expect("byzcast counters");
    assert!(
        counters.requests_sent > 0,
        "the deviations must force recovery traffic"
    );
    assert_digest(
        "wrapped-deviations-50",
        &record("wrapped-deviations-50", 14, &summary),
        0x3a8d_9f5a_8202_b587,
    );
}

#[test]
fn injecting_adversaries_record_is_pinned() {
    // One node of each kind that injects frames of its own instead of
    // relaying a correct node's: an impersonator, a gossip liar, a flooder,
    // a replayer and a signature grinder, under the paper envelope. The
    // replayer crashes losing its state and restarts before the workload,
    // so the restart factory rebuilds it and its captures replay inside the
    // horizon. The other digests reach only the liar, the impersonator and
    // chaos case 48's flooder.
    let config = ScenarioConfig {
        seed: 15,
        n: 50,
        sim: SimConfig {
            field: Field::new(800.0, 800.0),
            ..SimConfig::default()
        },
        byzcast: byzcast_core::ByzcastConfig {
            resources: paper_envelope(),
            ..byzcast_core::ByzcastConfig::default()
        },
        adversary_assignments: vec![
            (NodeId(49), Deviation::Impersonator { victim: NodeId(2) }),
            (NodeId(48), Deviation::GossipLiar),
            (
                NodeId(47),
                Deviation::Flooder {
                    period: SimDuration::from_millis(500),
                    per_tick: 2,
                    payload_bytes: 128,
                },
            ),
            (
                NodeId(46),
                Deviation::Replayer {
                    delay: SimDuration::from_secs(6),
                },
            ),
            (
                NodeId(45),
                Deviation::SigGrinder {
                    period: SimDuration::from_millis(200),
                    per_tick: 4,
                },
            ),
        ],
        fault_plan: FaultPlan::new()
            .crash(SimDuration::from_secs(2), NodeId(46), false)
            .restart(SimDuration::from_secs(3), NodeId(46)),
        ..ScenarioConfig::default()
    };
    let summary = config.run(&workload());
    let faults = summary.faults.as_ref().expect("fault stats");
    assert_eq!(faults.restarts, 1, "the replayer never restarted");
    let counters = summary.counters.as_ref().expect("byzcast counters");
    assert!(
        counters.bad_signatures_seen > 0,
        "no ill-signed frame reached a verifier"
    );
    assert!(summary.resources.is_some(), "governed run");
    assert_digest(
        "injecting-adversaries-50",
        &record("injecting-adversaries-50", 15, &summary),
        0xc5b7_f3a1_7728_37c3,
    );
}
