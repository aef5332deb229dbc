//! Experiment R6 — failure-detector reaction to mute overlay nodes.
//!
//! Measures the interval-failure-detector properties of §2.2 on a live run:
//! how quickly mute overlay claimants are suspected by their correct
//! neighbours (Interval Local Completeness, Lemma 3.7), how rarely correct
//! nodes are suspected (Interval Strong Accuracy, Lemma 3.8), and whether
//! the overlay self-heals into a connected correct cover (Lemma 3.9). One
//! table row per replication seed — the per-seed suspicion analysis runs
//! inside a custom runner closure.

use std::sync::Arc;

use byzcast_adversary::MutePolicy;
use byzcast_bench::{banner, opts, runner};
use byzcast_harness::{
    byz_view, highest_ids, report::fnum, run_sweep, AdversaryKind, RunOutcome, ScenarioConfig,
    SweepPoint, Table, Workload,
};
use byzcast_sim::{Field, NodeId, SimConfig, SimDuration, SimTime};

const MUTES: usize = 6;

/// Runs the scenario and distils the suspicion log into extras: how many of
/// the mute nodes were detected, first-detection latency statistics, the
/// false-suspicion count, and whether the overlay healed into a connected
/// correct cover.
fn measure(config: &ScenarioConfig, workload: &Workload) -> RunOutcome {
    let adv = config.adversary_set();
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::ZERO + workload.horizon());

    // First data injection is when the mutes' misbehaviour can begin.
    let t0 = workload.start;
    let mut detected: std::collections::BTreeSet<NodeId> = Default::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut false_suspicions = 0u64;
    for i in 0..config.n as u32 {
        let id = NodeId(i);
        if adv.contains(&id) {
            continue;
        }
        let Some(node) = byz_view(&sim, id) else {
            continue;
        };
        for ep in node.suspicion_log().episodes() {
            if adv.contains(&ep.suspect) {
                if detected.insert(ep.suspect) {
                    latencies.push(ep.start.saturating_since(SimTime::ZERO + t0).as_secs_f64());
                }
            } else {
                false_suspicions += 1;
            }
        }
    }
    let summary = config.summarize_wire(&sim);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let max = latencies.iter().copied().fold(0.0f64, f64::max);
    let healed = summary.overlay_ok == Some(true);
    RunOutcome {
        summary,
        extras: vec![
            ("detected_mutes", detected.len() as f64),
            ("detection_mean_s", mean),
            ("detection_max_s", max),
            ("false_suspicions", false_suspicions as f64),
            ("healed_cover", if healed { 1.0 } else { 0.0 }),
        ],
    }
}

fn main() {
    let opts = opts();
    banner(
        "R6",
        "suspicion latency / accuracy / overlay healing (n = 60, 6 mutes)",
        "paper §2.2 interval failure detectors; Lemmas 3.7–3.9",
    );
    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: if opts.quick { 30 } else { 80 },
        payload_bytes: 512,
        start: SimDuration::from_secs(10),
        interval: SimDuration::from_millis(250),
        drain: SimDuration::from_secs(20),
    };
    let config = ScenarioConfig {
        n: 60,
        sim: SimConfig {
            field: Field::new(800.0, 800.0),
            ..SimConfig::default()
        },
        adversary_assignments: highest_ids(60, MUTES, AdversaryKind::Mute(MutePolicy::DropData)),
        ..ScenarioConfig::default()
    };
    let point = SweepPoint::new(
        "n=60/mutes=6",
        vec![
            ("n".to_owned(), "60".to_owned()),
            ("mutes".to_owned(), MUTES.to_string()),
        ],
        config,
        workload,
    )
    .with_run(Arc::new(measure));

    let results = run_sweep(&runner(&opts, "r6_fd"), &[point]);
    let mut table = Table::new([
        "seed",
        "detected mutes",
        "mean latency (s)",
        "max latency (s)",
        "false suspicions",
        "healed cover",
    ]);
    for run in &results[0].runs {
        let extra = |name: &str| {
            run.outcome
                .extras
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        table.add_row([
            run.seed.to_string(),
            format!("{}/{}", extra("detected_mutes") as usize, MUTES),
            fnum(extra("detection_mean_s")),
            fnum(extra("detection_max_s")),
            format!("{}", extra("false_suspicions") as u64),
            (extra("healed_cover") == 1.0).to_string(),
        ]);
    }
    print!("{table}");
}
