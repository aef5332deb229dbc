//! Experiment T1 — the §3.5 analysis bounds, on the paper's worst case.
//!
//! Figure 5 of the paper shows the adversarial extreme: a line where *every
//! overlay node is Byzantine*, so "all messages will be disseminated using
//! the gossip-request mechanism" and dissemination takes at most
//! `max_timeout · n/2` in a static network (Theorem 3.4 gives
//! `max_timeout · (n − 1)` for the mobile case). The buffer bound is
//! `max_timeout · δ` messages (static).
//!
//! We build exactly that topology: nodes on a line, every odd node a mute
//! Byzantine claiming dominator status, every even node correct — the
//! correct nodes form a connected graph through each other (spacing chosen
//! so nodes two positions apart are still in range), and measure the slowest
//! accept against the bounds, replicated over seeds on the shared runner.

use std::sync::Arc;

use byzcast_bench::{banner, opts, runner};
use byzcast_harness::{
    byz_view, figure5_worst_case, report::fnum, run_sweep, RunFn, RunOutcome, ScenarioConfig,
    SweepPoint, Table, Workload,
};
use byzcast_sim::{NodeId, SimDuration};

/// Runs the worst case and checks the run against the §3.5 bounds,
/// returned as extras alongside the summary.
fn measure(config: &ScenarioConfig, workload: &Workload) -> RunOutcome {
    let n = config.n;
    let mut sim = config.build_wire_sim();
    workload.drive(&mut sim);
    let summary = config.summarize_wire(&sim);

    // β: the air time of the largest frame at the configured bit rate.
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let max_timeout = config.byzcast.max_timeout(beta);
    let static_bound = max_timeout.saturating_mul(n as u64 / 2).as_secs_f64();
    let mobile_bound = max_timeout.saturating_mul(n as u64 - 1).as_secs_f64();
    let within = summary.max_latency_s <= static_bound && summary.max_latency_s <= mobile_bound;

    // Buffer bound (mobile form, the looser of the two):
    // max_timeout · (n − 1) · δ messages.
    let buffer_bound =
        (max_timeout.as_secs_f64() * (n as f64 - 1.0) * workload.delta()).ceil() as usize;
    // All nodes, adversaries included — the bound is about any buffer.
    let mut high_water = 0usize;
    for i in 0..n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            high_water = high_water.max(node.store().high_water());
        }
    }
    RunOutcome {
        summary,
        extras: vec![
            ("static_bound_s", static_bound),
            ("mobile_bound_s", mobile_bound),
            ("within_bounds", if within { 1.0 } else { 0.0 }),
            ("buffer_high_water", high_water as f64),
            ("buffer_bound", buffer_bound as f64),
        ],
    }
}

fn main() {
    let opts = opts();
    banner(
        "T1",
        "dissemination-time and buffer bounds on the Fig. 5 worst case",
        "paper §3.5 (Theorem 3.4, static n/2 bound, buffer bound)",
    );
    // Number of *correct* nodes per chain (total n = 2·correct − 1).
    let sizes: &[usize] = if opts.quick { &[5, 9] } else { &[5, 9, 13, 17] };
    let workload_of = |quick: bool| Workload {
        senders: vec![NodeId(0)],
        count: if quick { 5 } else { 10 },
        payload_bytes: 256,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_secs(2),
        drain: SimDuration::from_secs(120),
    };
    let measure: Arc<RunFn> = Arc::new(measure);

    let points: Vec<SweepPoint> = sizes
        .iter()
        .map(|&correct| {
            let config = figure5_worst_case(correct, 1);
            SweepPoint::new(
                format!("n={}", config.n),
                vec![
                    ("correct".to_owned(), correct.to_string()),
                    ("n".to_owned(), config.n.to_string()),
                ],
                config,
                workload_of(opts.quick),
            )
            .with_run(Arc::clone(&measure))
        })
        .collect();

    let results = run_sweep(&runner(&opts, "t1_bounds"), &points);
    let mut table = Table::new([
        "n",
        "delivery",
        "max latency (s)",
        "static bound (s)",
        "thm 3.4 bound (s)",
        "within bounds",
        "buffer high-water",
        "buffer bound",
    ]);
    for result in &results {
        let agg = &result.aggregate;
        let extra = |name: &str| result.extra_mean(name).unwrap_or(0.0);
        table.add_row([
            agg.n.to_string(),
            fnum(agg.delivery_ratio),
            fnum(agg.max_latency_s),
            fnum(extra("static_bound_s")),
            fnum(extra("mobile_bound_s")),
            // The bounds must hold in every replication.
            (extra("within_bounds") == 1.0).to_string(),
            format!("{}", extra("buffer_high_water").ceil() as usize),
            format!("{}", extra("buffer_bound").ceil() as usize),
        ]);
    }
    print!("{table}");
}
