//! Diagnostic probe: one scenario, full breakdown of where frames, losses
//! and suspicions go. Not part of the paper's experiment set — a tool for
//! understanding runs (`cargo run -p byzcast-bench --bin exp_probe -- [n]`).
//!
//! Runs on the shared runner so `--results-dir` captures the same JSONL
//! record shape as the real experiments.

use std::sync::Arc;

use byzcast_bench::{default_scenario, default_workload, opts, runner};
use byzcast_harness::{byz_view, run_sweep, RunOutcome, ScenarioConfig, SweepPoint, Workload};
use byzcast_sim::NodeId;

fn measure(config: &ScenarioConfig, workload: &Workload) -> RunOutcome {
    let mut sim = config.build_wire_sim();
    workload.drive(&mut sim);

    let m = sim.metrics();
    let mut forwards = 0u64;
    let mut overlay = 0usize;
    let mut episodes = 0usize;
    for i in 0..config.n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            forwards += node.counters().data_forwards;
            if node.is_overlay() {
                overlay += 1;
            }
            episodes += node.suspicion_log().episodes().len();
        }
    }
    RunOutcome {
        summary: config.summarize_wire(&sim),
        extras: vec![
            ("half_duplex_losses", m.half_duplex_losses as f64),
            ("queue_drops", m.queue_drops as f64),
            ("frames_received", m.frames_received as f64),
            ("data_forwards", forwards as f64),
            ("overlay_members", overlay as f64),
            ("suspicion_episodes", episodes as f64),
        ],
    }
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let mut opts = opts();
    // A probe is one diagnostic run unless seeds are asked for explicitly.
    if opts.seed_count.is_none() {
        opts.seed_count = Some(1);
    }
    let config = default_scenario(n, 0);
    let workload = default_workload(&opts);

    let point = SweepPoint::new(
        format!("n={n}"),
        vec![("n".to_owned(), n.to_string())],
        config,
        workload.clone(),
    )
    .with_run(Arc::new(measure));
    let results = run_sweep(&runner(&opts, "probe"), &[point]);

    let result = &results[0];
    let s = &result.aggregate;
    let c = s.counters.expect("byzcast counters");
    let extra = |name: &str| result.extra_mean(name).unwrap_or(0.0);
    println!("n = {n}, messages = {}", workload.count);
    println!("frames by kind (frames, bytes):");
    for (kind, frames, bytes) in &s.frame_kinds {
        println!("  {kind:<10} {frames:>8} {bytes:>10}");
    }
    println!(
        "losses: {} collisions, {} noise, {} half-duplex, {} queue drops",
        s.collisions,
        s.noise_losses,
        extra("half_duplex_losses") as u64,
        extra("queue_drops") as u64
    );
    let received = extra("frames_received") as u64;
    println!(
        "receptions: {} ok ({}% of send*degree events lost to collisions)",
        received,
        (100 * s.collisions) / (received + s.collisions).max(1)
    );
    println!(
        "protocol: {} forwards, {} recovery responses, {} requests, {} finds, {} recovered",
        extra("data_forwards") as u64,
        c.recoveries_served,
        c.requests_sent,
        c.finds_sent,
        c.recovered_via_request
    );
    println!(
        "overlay at end: {}/{n}; suspicion episodes: {}",
        extra("overlay_members") as usize,
        extra("suspicion_episodes") as usize
    );
    println!(
        "delivery {:.3} (min {:.3}), p99 latency {:.3}s",
        s.delivery_ratio, s.min_delivery_ratio, s.p99_latency_s
    );
}
