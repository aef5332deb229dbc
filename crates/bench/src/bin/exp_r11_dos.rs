//! Experiment R11 — resource exhaustion under flooding, governed vs not.
//!
//! The paper's fault model (§2.1) includes verbose behaviour: "Byzantine
//! processes may fail to send messages, send too many messages, send
//! messages with false information" — and §3.5 bounds the buffer a correct
//! node needs only under an *assumed* bound on in-flight traffic. This
//! experiment measures what happens when that assumption is attacked: a
//! sweep of attacker count × injection rate, where each attacker is a
//! [`Flooder`]-style adversary originating unique validly-signed garbage.
//! Each point runs twice — ungoverned (the seed protocol, unlimited
//! [`ResourceConfig`]) and governed (a tight admission/store envelope) —
//! under the standard invariant-oracle suite. The ungoverned arm's peak
//! store occupancy grows with the attack rate (each garbage body is held
//! until the purge horizon); the governed arm stays flat at the configured
//! cap while correct-sender delivery holds, and sustained admission
//! violations surface as VERBOSE quota suspicions of the flooders.
//!
//! [`Flooder`]: byzcast_adversary::Deviation::Flooder

use std::sync::Arc;

use byzcast_adversary::Deviation;
use byzcast_bench::{banner, opts, runner, ExpOpts};
use byzcast_core::ResourceConfig;
use byzcast_harness::scenario::highest_ids;
use byzcast_harness::{
    check_run, report::fnum, run_sweep, standard_oracles, RunOutcome, ScenarioConfig, SweepPoint,
    Table, Workload,
};
use byzcast_sim::{Field, NodeId, SimConfig, SimDuration};

/// The governed arm's envelope: a memory-constrained correct node. The
/// store cap (256 bodies) is an order of magnitude above what the correct
/// workload ever buffers, and the admission budget (25 frames/s per
/// neighbour, burst 50) is far above any correct neighbour's send rate —
/// so governance is invisible to legitimate traffic while a sustained
/// flooder is throttled at admission and capped in the store.
fn dos_envelope() -> ResourceConfig {
    ResourceConfig {
        frames_per_sec: 25,
        frame_burst: 50,
        verifs_per_sec: 100,
        verif_burst: 200,
        max_store_msgs: 256,
        max_store_bytes: 256 << 10,
        max_seen_ids: 16384,
        max_gossip_per_origin: 64,
        max_missing_per_origin: 64,
    }
}

fn main() {
    let opts = opts();
    banner(
        "R11",
        "delivery and memory under signed-garbage flooding, governed vs ungoverned",
        "paper §2.1 fault model: Byzantine nodes may send too many messages; §3.5 buffer bound",
    );
    let n = if opts.quick { 30 } else { 40 };
    let rates: &[u32] = if opts.quick { &[5, 50] } else { &[5, 20, 50] };
    let counts: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4] };
    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: if opts.quick { 6 } else { 10 },
        payload_bytes: 256,
        start: SimDuration::from_secs(6),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(15),
    };

    let mut combos = Vec::new();
    let mut points: Vec<SweepPoint> = Vec::new();
    for &governed in &[false, true] {
        for &attackers in counts {
            for &rate in rates {
                combos.push((governed, attackers, rate));
                // Flood ticks every 200 ms; per_tick scales to the rate.
                let kind = Deviation::Flooder {
                    period: SimDuration::from_millis(200),
                    per_tick: rate.div_ceil(5),
                    payload_bytes: 256,
                };
                let config = ScenarioConfig {
                    n,
                    sim: SimConfig {
                        field: Field::new(700.0, 700.0),
                        ..SimConfig::default()
                    },
                    adversary_assignments: highest_ids(n, attackers, kind),
                    ..ScenarioConfig::default()
                };
                let arm = if governed { "governed" } else { "ungoverned" };
                points.push(
                    SweepPoint::new(
                        format!("{arm}/atk={attackers}/rate={rate}"),
                        vec![
                            ("arm".to_owned(), arm.to_owned()),
                            ("attackers".to_owned(), attackers.to_string()),
                            ("rate_msgs_s".to_owned(), rate.to_string()),
                        ],
                        config,
                        workload.clone(),
                    )
                    .with_run(Arc::new(
                        move |scenario: &ScenarioConfig, w: &Workload| {
                            let mut s = scenario.clone();
                            if governed {
                                s.byzcast.resources = dos_envelope();
                            }
                            let checked = check_run(&s, w, &standard_oracles());
                            let violations: u64 =
                                checked.summary.oracle_outcomes.iter().map(|(_, c)| c).sum();
                            let res = checked.summary.resources;
                            RunOutcome {
                                summary: checked.summary,
                                extras: vec![
                                    ("violations", violations as f64),
                                    (
                                        "frames_dropped",
                                        res.map_or(0.0, |r| r.frames_dropped as f64),
                                    ),
                                    ("store_rejects", res.map_or(0.0, |r| r.store_rejects as f64)),
                                    (
                                        "quota_suspicions",
                                        res.map_or(0.0, |r| r.quota_suspicions as f64),
                                    ),
                                ],
                            }
                        },
                    )),
                );
            }
        }
    }

    let results = run_sweep(&runner(&opts, "r11_dos"), &points);
    print_table(&opts, &combos, &results);
}

fn print_table(
    _opts: &ExpOpts,
    combos: &[(bool, usize, u32)],
    results: &[byzcast_harness::PointResult],
) {
    let mut table = Table::new([
        "arm",
        "attackers",
        "rate/s",
        "delivery",
        "min-delivery",
        "peak store",
        "frames dropped",
        "store rejects",
        "quota susp.",
        "violations",
    ]);
    for (&(governed, attackers, rate), result) in combos.iter().zip(results) {
        let agg = &result.aggregate;
        table.add_row([
            (if governed { "governed" } else { "ungoverned" }).to_owned(),
            attackers.to_string(),
            rate.to_string(),
            fnum(agg.delivery_ratio),
            fnum(agg.min_delivery_ratio),
            agg.store_high_water.to_string(),
            format!("{:.0}", result.extra_mean("frames_dropped").unwrap_or(0.0)),
            format!("{:.0}", result.extra_mean("store_rejects").unwrap_or(0.0)),
            format!(
                "{:.0}",
                result.extra_mean("quota_suspicions").unwrap_or(0.0)
            ),
            format!("{:.1}", result.extra_mean("violations").unwrap_or(0.0)),
        ]);
    }
    print!("{table}");
}
