//! Experiment R7 — mobility: delivery and overhead vs. node speed.
//!
//! The system model is mobile ("due to mobility, the physical structure of
//! the network is constantly evolving", §1); this experiment sweeps random-
//! waypoint speed and compares the overlay protocol (whose neighbour tables
//! and roles must track the churn) against flooding (which is oblivious to
//! it).

use byzcast_bench::{banner, default_workload, opts, runner};
use byzcast_harness::{
    report::fnum, run_sweep, MobilityChoice, ProtocolChoice, ScenarioConfig, SweepPoint, Table,
};
use byzcast_sim::{Field, SimConfig, SimDuration};

fn main() {
    let opts = opts();
    banner(
        "R7",
        "random-waypoint mobility sweep (n = 80, 800 m field)",
        "paper §2 system model (mobility); §3.5 mobile dissemination bound",
    );
    let workload = default_workload(&opts);
    let speeds: &[(f64, f64)] = if opts.quick {
        &[(0.0, 0.0), (5.0, 10.0)]
    } else {
        &[
            (0.0, 0.0),
            (1.0, 3.0),
            (3.0, 8.0),
            (5.0, 10.0),
            (10.0, 20.0),
        ]
    };

    let mut speed_labels = Vec::new();
    let mut points = Vec::new();
    for &(lo, hi) in speeds {
        for protocol in [ProtocolChoice::Byzcast, ProtocolChoice::Flooding] {
            let mobility = if hi == 0.0 {
                MobilityChoice::Static
            } else {
                MobilityChoice::Waypoint {
                    min_mps: lo,
                    max_mps: hi,
                    pause: SimDuration::from_secs(2),
                }
            };
            let config = ScenarioConfig {
                n: 80,
                sim: SimConfig {
                    field: Field::new(800.0, 800.0),
                    ..SimConfig::default()
                },
                mobility,
                protocol: protocol.clone(),
                ..ScenarioConfig::default()
            };
            let speed = if hi == 0.0 {
                "static".to_owned()
            } else {
                format!("{lo}-{hi}")
            };
            let label = config.protocol_label();
            speed_labels.push(speed.clone());
            points.push(SweepPoint::new(
                format!("speed={speed}/{label}"),
                vec![
                    ("speed_mps".to_owned(), speed),
                    ("protocol".to_owned(), label),
                ],
                config,
                workload.clone(),
            ));
        }
    }

    let results = run_sweep(&runner(&opts, "r7_mobility"), &points);
    let mut table = Table::new([
        "speed (m/s)",
        "protocol",
        "delivery",
        "min-delivery",
        "frames",
        "requests",
        "p99 (s)",
    ]);
    for (speed, result) in speed_labels.iter().zip(&results) {
        let agg = &result.aggregate;
        table.add_row([
            speed.clone(),
            agg.protocol.clone(),
            fnum(agg.delivery_ratio),
            fnum(agg.min_delivery_ratio),
            agg.frames_sent.to_string(),
            agg.counters.unwrap_or_default().requests_sent.to_string(),
            fnum(agg.p99_latency_s),
        ]);
    }
    print!("{table}");
}
