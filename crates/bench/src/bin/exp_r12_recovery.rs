//! Experiment R12 — thin-chain crash recovery, escalating retries vs the
//! flooding baseline.
//!
//! The paper's semi-reliability argument (§3.3) leans on the gossip /
//! REQUEST / FIND_MISSING chain to deliver "to every correct process that
//! stays connected". The PR-4 chaos soak found the gap this experiment
//! measures: a crash next to a thin chain leaves the pocket behind it
//! served only by a passive holder, the stranded nodes' retries fixate on
//! a fading-band gossiper that never answers, and the capped request
//! budget runs dry — connected, up, correct nodes miss the broadcast past
//! the recovery slack. Two sweeps, three arms each:
//!
//! * `off`   — the seed protocol, `recovery: false`;
//! * `on`    — escalating FIND_MISSING retries + liveness re-election,
//!   `recovery: true` at the constants of [`byzcast_core::recovery`]
//!   (widen after 2 unanswered retries, 4 widened rounds to 3 neighbours
//!   at 1 s → 4 s backoff, TTL-3 searches);
//! * `flood` — the flooding baseline, which shrugs off the crash by brute
//!   force and prices the redundancy the overlay saves.
//!
//! **Sweep 1 (chain)** hand-builds a cluster + bridge + `len`-hop chain
//! and sweeps the crash position: `pos = 0` crashes the elected dominator
//! bridge (the chain stays connected through a spare, and the liveness
//! repair must re-elect around the hole), `pos = k` crashes the k-th chain
//! hop (the tail is genuinely partitioned; no arm can deliver there and
//! the oracle demands nothing — the sweep shows the stranded/partitioned
//! distinction and what the repair costs in re-elections).
//!
//! **Sweep 2 (corpus)** replays the shrunk soak reproducer
//! `tests/chaos_corpus/crash-thin-chain.chaos` (36 nodes, one crash at
//! t = 4 s) under all three arms. Stranding there needs a conspiracy of
//! fading-band links and retry phase that random small sweeps hit rarely
//! (a 500-case soak found one), so the pinned case *is* the experiment:
//! `off` strands four connected nodes deterministically, `on` must run
//! clean, `flood` prices the alternative.

use std::sync::Arc;

use byzcast_bench::{banner, opts, runner, ExpOpts};
use byzcast_harness::scenario::ProtocolChoice;
use byzcast_harness::{
    check_run, parse_case, report::fnum, run_sweep, standard_oracles, MobilityChoice, RunOutcome,
    ScenarioConfig, SweepPoint, Table, Workload,
};
use byzcast_sim::{FaultKind, Field, NodeId, Position, RadioConfig, SimConfig, SimDuration};

const THIN_CHAIN_CASE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/chaos_corpus/crash-thin-chain.chaos"
));

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Off,
    On,
    Flood,
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Off => "off",
            Arm::On => "on",
            Arm::Flood => "flood",
        }
    }

    fn apply(self, scenario: &mut ScenarioConfig) {
        match self {
            Arm::Off => scenario.byzcast.recovery = false,
            Arm::On => scenario.byzcast.recovery = true,
            Arm::Flood => scenario.protocol = ProtocolChoice::Flooding,
        }
    }
}

/// Cluster `0-1-2`, a spare bridge, a doomed bridge with the highest id
/// (it wins the id-based election), and a `chain_len`-hop chain hanging off
/// the bridges. `crash_pos` 0 crashes the doomed bridge; `k >= 1` crashes
/// the k-th chain hop (partitioning the tail).
fn chain_scenario(chain_len: usize, crash_pos: usize) -> ScenarioConfig {
    assert!(crash_pos <= chain_len);
    let mut positions = vec![
        Position::new(50.0, 50.0),   // 0: sender
        Position::new(150.0, 50.0),  // 1: cluster
        Position::new(250.0, 50.0),  // 2: cluster edge, reaches both bridges
        Position::new(380.0, 120.0), // 3: spare bridge (passive under the doomed one)
    ];
    for i in 0..chain_len {
        positions.push(Position::new(600.0 + 200.0 * i as f64, 50.0));
    }
    let doomed_bridge = NodeId(positions.len() as u32); // highest id
    positions.push(Position::new(380.0, 50.0));
    let crashed = if crash_pos == 0 {
        doomed_bridge
    } else {
        NodeId(3 + crash_pos as u32)
    };
    let width = 600.0 + 200.0 * chain_len as f64;
    let mut scenario = ScenarioConfig {
        seed: 12,
        n: positions.len(),
        sim: SimConfig {
            field: Field::new(width, 200.0),
            radio: RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        ..ScenarioConfig::default()
    };
    scenario.fault_plan.push(
        SimDuration::from_secs(4),
        FaultKind::Crash {
            node: crashed,
            retain_state: false,
        },
    );
    scenario
}

fn run_arm(scenario: &ScenarioConfig, workload: &Workload) -> RunOutcome {
    let checked = check_run(scenario, workload, &standard_oracles());
    let semi = checked
        .violations
        .iter()
        .filter(|v| v.oracle == "semi-reliability")
        .count();
    let rec = checked.summary.recovery;
    RunOutcome {
        summary: checked.summary,
        extras: vec![
            ("semi_violations", semi as f64),
            (
                "requests_widened",
                rec.map_or(0.0, |r| r.requests_widened as f64),
            ),
            ("reelections", rec.map_or(0.0, |r| r.reelections as f64)),
        ],
    }
}

fn main() {
    let opts = opts();
    banner(
        "R12",
        "thin-chain crash recovery: escalating retries vs the flooding baseline",
        "paper §3.3 semi-reliability via gossip/REQUEST/FIND_MISSING; crash next to a thin chain",
    );
    let lengths: &[usize] = if opts.quick { &[2, 3] } else { &[2, 3, 4, 5] };
    let crash_positions: &[usize] = if opts.quick { &[0, 1] } else { &[0, 1, 2] };
    let workload = Workload {
        senders: vec![NodeId(0)],
        count: if opts.quick { 1 } else { 3 },
        payload_bytes: 256,
        start: SimDuration::from_secs(5),
        interval: SimDuration::from_millis(1424),
        drain: SimDuration::from_secs(18),
    };
    let corpus = parse_case(THIN_CHAIN_CASE).expect("corpus reproducer parses");

    let mut combos = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for &arm in &[Arm::Off, Arm::On, Arm::Flood] {
        for &len in lengths {
            for &pos in crash_positions {
                if pos > len {
                    continue;
                }
                combos.push((arm, Some((len, pos))));
                let mut config = chain_scenario(len, pos);
                arm.apply(&mut config);
                points.push(
                    SweepPoint::new(
                        format!("{}/len={len}/pos={pos}", arm.label()),
                        vec![
                            ("arm".to_owned(), arm.label().to_owned()),
                            ("chain_len".to_owned(), len.to_string()),
                            ("crash_pos".to_owned(), pos.to_string()),
                        ],
                        config,
                        workload.clone(),
                    )
                    .with_run(Arc::new(run_arm)),
                );
            }
        }
        // The corpus reproducer is seed-pinned: the stranding needs this
        // exact topology and phase, so the runner's replication seeds are
        // deliberately ignored and every replicate re-runs the pinned case.
        combos.push((arm, None));
        let pinned = corpus.clone();
        points.push(
            SweepPoint::new(
                format!("{}/corpus", arm.label()),
                vec![
                    ("arm".to_owned(), arm.label().to_owned()),
                    ("case".to_owned(), "crash-thin-chain".to_owned()),
                ],
                corpus.scenario.clone(),
                corpus.workload.clone(),
            )
            .with_run(Arc::new(move |_scenario, _w: &Workload| {
                let mut scenario = pinned.scenario.clone();
                arm.apply(&mut scenario);
                run_arm(&scenario, &pinned.workload)
            })),
        );
    }

    let results = run_sweep(&runner(&opts, "r12_recovery"), &points);
    print_table(&opts, &combos, &results);
}

#[allow(clippy::type_complexity)]
fn print_table(
    _opts: &ExpOpts,
    combos: &[(Arm, Option<(usize, usize)>)],
    results: &[byzcast_harness::PointResult],
) {
    let mut table = Table::new([
        "arm",
        "case",
        "delivery",
        "min-delivery",
        "frames",
        "semi-violations",
        "widened",
        "reelections",
    ]);
    for (&(arm, combo), result) in combos.iter().zip(results) {
        let agg = &result.aggregate;
        let case = match combo {
            Some((len, 0)) => format!("chain {len}, crash bridge"),
            Some((len, pos)) => format!("chain {len}, crash hop {pos}"),
            None => "corpus thin-chain".to_owned(),
        };
        table.add_row([
            arm.label().to_owned(),
            case,
            fnum(agg.delivery_ratio),
            fnum(agg.min_delivery_ratio),
            agg.frames_sent.to_string(),
            format!("{:.1}", result.extra_mean("semi_violations").unwrap_or(0.0)),
            format!(
                "{:.1}",
                result.extra_mean("requests_widened").unwrap_or(0.0)
            ),
            format!("{:.1}", result.extra_mean("reelections").unwrap_or(0.0)),
        ]);
    }
    print!("{table}");
}
