//! Experiment R10 — delivery under crash/restart churn, invariant-checked.
//!
//! The paper's fault model (§2.1) spans more than mute nodes: "nodes may
//! crash and recover", and the recovery path (gossip digests + requests,
//! §3.3) exists precisely so restarted nodes catch up. This experiment
//! sweeps a churn rate λ (crashes per node per minute) on a static topology:
//! each point's fault plan crashes random non-sender nodes at random times
//! and restarts them 2–8 s later, with a 50/50 split between restarts that
//! retain their message store and restarts that lose it. Every run executes
//! under the standard invariant-oracle suite, so the table reports not just
//! delivery but whether any run violated validity, no-duplication,
//! semi-reliability (of the never-crashed nodes) or fd-accuracy.

use std::sync::Arc;

use byzcast_bench::{banner, opts, runner, ExpOpts};
use byzcast_harness::{
    check_run, report::fnum, run_sweep, standard_oracles, RunOutcome, ScenarioConfig, SweepPoint,
    Table, Workload,
};
use byzcast_sim::{FaultKind, FaultPlan, Field, NodeId, SimConfig, SimDuration, SimRng};

/// Builds the deterministic churn plan for one replication: Poisson-like
/// crash arrivals at rate `lambda` per node per minute over the window where
/// recovery can still complete before the horizon, restart 2–8 s later.
fn churn_plan(n: usize, senders: usize, lambda: f64, horizon_s: f64, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if lambda <= 0.0 {
        return plan;
    }
    let mut rng = SimRng::new(seed ^ 0xC0_5EED ^ ((lambda * 1000.0) as u64));
    let window_start = 5.0;
    let window_end = (horizon_s - 12.0).max(window_start + 1.0);
    let window_min = (window_end - window_start) / 60.0;
    let candidates = n - senders;
    let total = (lambda * candidates as f64 * window_min).round() as usize;
    for _ in 0..total {
        let node = NodeId(senders as u32 + rng.gen_range_u64(candidates as u64) as u32);
        let at =
            SimDuration::from_secs_f64(window_start + rng.gen_f64() * (window_end - window_start));
        let downtime = SimDuration::from_secs_f64(2.0 + 6.0 * rng.gen_f64());
        let retain = rng.gen_f64() < 0.5;
        plan.push(
            at,
            FaultKind::Crash {
                node,
                retain_state: retain,
            },
        );
        plan.push(at + downtime, FaultKind::Restart { node });
    }
    plan
}

fn main() {
    let opts = opts();
    banner(
        "R10",
        "delivery and invariants under crash/restart churn (static, n = 60)",
        "paper §2.1 fault model: nodes may crash and recover; §3.3 recovery",
    );
    let n = if opts.quick { 40 } else { 60 };
    let lambdas: &[f64] = if opts.quick {
        &[0.0, 1.0, 4.0]
    } else {
        &[0.0, 0.5, 1.0, 2.0, 4.0]
    };
    let workload = Workload {
        senders: vec![NodeId(0), NodeId(1)],
        count: if opts.quick { 6 } else { 20 },
        payload_bytes: 256,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(15),
    };
    let horizon_s = workload.horizon().as_secs_f64();
    let senders = workload.senders.len();

    let points: Vec<SweepPoint> = lambdas
        .iter()
        .map(|&lambda| {
            let config = ScenarioConfig {
                n,
                sim: SimConfig {
                    field: Field::new(800.0, 800.0),
                    ..SimConfig::default()
                },
                ..ScenarioConfig::default()
            };
            SweepPoint::new(
                format!("churn={lambda}"),
                vec![("churn_per_node_min".to_owned(), format!("{lambda}"))],
                config,
                workload.clone(),
            )
            .with_run(Arc::new(move |scenario: &ScenarioConfig, w: &Workload| {
                let mut s = scenario.clone();
                s.fault_plan = churn_plan(s.n, senders, lambda, horizon_s, s.seed);
                let checked = check_run(&s, w, &standard_oracles());
                let crashes = checked.summary.faults.as_ref().map_or(0, |f| f.crashes);
                let violations: u64 = checked.summary.oracle_outcomes.iter().map(|(_, c)| c).sum();
                RunOutcome {
                    summary: checked.summary,
                    extras: vec![
                        ("crashes", crashes as f64),
                        ("violations", violations as f64),
                    ],
                }
            }))
        })
        .collect();

    let results = run_sweep(&runner(&opts, "r10_churn"), &points);
    print_table(&opts, lambdas, &results);
}

fn print_table(_opts: &ExpOpts, lambdas: &[f64], results: &[byzcast_harness::PointResult]) {
    let mut table = Table::new([
        "churn/node/min",
        "crashes",
        "delivery",
        "min-delivery",
        "p99 (s)",
        "requests",
        "recovered",
        "violations",
    ]);
    for (lambda, result) in lambdas.iter().zip(results) {
        let agg = &result.aggregate;
        let c = agg.counters.unwrap_or_default();
        table.add_row([
            format!("{lambda}"),
            format!("{:.1}", result.extra_mean("crashes").unwrap_or(0.0)),
            fnum(agg.delivery_ratio),
            fnum(agg.min_delivery_ratio),
            fnum(agg.p99_latency_s),
            c.requests_sent.to_string(),
            c.recovered_via_request.to_string(),
            format!("{:.1}", result.extra_mean("violations").unwrap_or(0.0)),
        ]);
    }
    print!("{table}");
}
