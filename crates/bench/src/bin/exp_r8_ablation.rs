//! Experiment R8 — gossip design ablation: aggregation and period.
//!
//! The paper credits two design choices for the protocol's efficiency:
//! gossip entries are "much smaller than the messages themselves" and
//! "multiple gossip messages are aggregated into one packet, thereby greatly
//! reducing the number of messages generated" (§1). This ablation turns
//! aggregation off and sweeps the gossip period (the `gossip_timeout` of
//! §3.5, which trades recovery latency against background traffic).

use byzcast_bench::{banner, default_scenario, default_workload, opts, runner};
use byzcast_harness::{report::fnum, run_sweep, SweepPoint, Table};
use byzcast_sim::SimDuration;

fn main() {
    let opts = opts();
    banner(
        "R8",
        "gossip aggregation / period ablation (n = 80)",
        "paper §1 aggregation claim; §3.5 gossip_timeout in max_timeout",
    );
    let workload = default_workload(&opts);
    let periods: &[u64] = if opts.quick {
        &[1000]
    } else {
        &[500, 1000, 2000]
    };

    let mut metas = Vec::new();
    let mut points = Vec::new();
    for &period_ms in periods {
        for aggregated in [true, false] {
            let mut config = default_scenario(80, 0);
            config.byzcast.gossip_period = SimDuration::from_millis(period_ms);
            config.byzcast.aggregate_gossip = aggregated;
            metas.push((period_ms, aggregated));
            points.push(SweepPoint::new(
                format!("period={period_ms}ms/agg={aggregated}"),
                vec![
                    ("gossip_period_ms".to_owned(), period_ms.to_string()),
                    ("aggregated".to_owned(), aggregated.to_string()),
                ],
                config,
                workload.clone(),
            ));
        }
    }

    let results = run_sweep(&runner(&opts, "r8_ablation"), &points);
    let mut table = Table::new([
        "gossip period",
        "aggregated",
        "frames",
        "kB",
        "gossip frames",
        "delivery",
        "p99 (s)",
    ]);
    for (&(period_ms, aggregated), result) in metas.iter().zip(&results) {
        let agg = &result.aggregate;
        let c = agg.counters.unwrap_or_default();
        let gossip_frames = agg.frames_sent - agg.data_frames - c.requests_sent - c.finds_sent;
        table.add_row([
            format!("{period_ms} ms"),
            aggregated.to_string(),
            agg.frames_sent.to_string(),
            fnum(agg.bytes_sent as f64 / 1024.0),
            gossip_frames.to_string(),
            fnum(agg.delivery_ratio),
            fnum(agg.p99_latency_s),
        ]);
    }
    print!("{table}");
}
