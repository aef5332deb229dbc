//! Adversary gauntlet: run the same network against every Byzantine
//! behaviour model in the fault taxonomy of paper §2.1 — "Byzantine
//! processes may fail to send messages, send too many messages, send
//! messages with false information" — and report how delivery, recovery and
//! suspicion respond to each.
//!
//! ```sh
//! cargo run --example adversary_gauntlet
//! ```

use byzcast::adversary::{Deviation, MutePolicy};
use byzcast::harness::{highest_ids, ScenarioConfig, Table, Workload};
use byzcast::sim::{Field, NodeId, SimConfig, SimDuration};

fn main() {
    let gauntlet: Vec<(&str, Deviation)> = vec![
        ("mute (drop data)", Deviation::Mute(MutePolicy::DropData)),
        (
            "mute (drop data+gossip)",
            Deviation::Mute(MutePolicy::DropDataAndGossip),
        ),
        ("silent (crash-like)", Deviation::Silent),
        ("forger (tampers payloads)", Deviation::Forger),
        (
            "verbose (request spam)",
            Deviation::Verbose {
                period: SimDuration::from_millis(200),
                per_tick: 5,
            },
        ),
        ("gossip liar", Deviation::GossipLiar),
        (
            "selective forwarder (censors node 0)",
            Deviation::Censor(vec![NodeId(0)]),
        ),
        (
            "impersonator (frames node 0)",
            Deviation::Impersonator { victim: NodeId(0) },
        ),
        (
            "replayer (6 s delay)",
            Deviation::Replayer {
                delay: SimDuration::from_secs(6),
            },
        ),
        (
            "sig grinder (4 per 200 ms)",
            Deviation::SigGrinder {
                period: SimDuration::from_millis(200),
                per_tick: 4,
            },
        ),
    ];

    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: 40,
        payload_bytes: 512,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_millis(250),
        drain: SimDuration::from_secs(12),
    };

    let mut table = Table::new([
        "adversary",
        "delivery",
        "min-delivery",
        "requests",
        "recovered",
        "suspicions(T/F)",
    ]);

    // Baseline without any adversary, for reference.
    let base = ScenarioConfig {
        seed: 11,
        n: 50,
        sim: SimConfig {
            field: Field::new(650.0, 650.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let clean = base.run(&workload);
    let c = clean.counters.expect("byzcast counters");
    table.add_row([
        "(none)".to_owned(),
        format!("{:.3}", clean.delivery_ratio),
        format!("{:.3}", clean.min_delivery_ratio),
        c.requests_sent.to_string(),
        c.recovered_via_request.to_string(),
        format!("{}/{}", clean.true_suspicions, clean.false_suspicions),
    ]);

    for (label, adversary) in gauntlet {
        let config = ScenarioConfig {
            adversary_assignments: highest_ids(base.n, 5, adversary),
            ..base.clone()
        };
        let s = config.run(&workload);
        let c = s.counters.expect("byzcast counters");
        table.add_row([
            label.to_owned(),
            format!("{:.3}", s.delivery_ratio),
            format!("{:.3}", s.min_delivery_ratio),
            c.requests_sent.to_string(),
            c.recovered_via_request.to_string(),
            format!("{}/{}", s.true_suspicions, s.false_suspicions),
        ]);
        assert!(
            s.delivery_ratio > 0.85,
            "{label}: delivery collapsed to {}",
            s.delivery_ratio
        );
    }
    print!("{table}");
    println!();
    println!("every adversary model leaves delivery essentially intact —");
    println!("signatures catch forgery, recovery routes around the mutes,");
    println!("and the failure detectors convert misbehaviour into distrust.");
}
