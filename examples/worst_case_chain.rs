//! The paper's Figure-5 worst case, live: a chain in which **every overlay
//! node is Byzantine**, so "all messages will be disseminated using the
//! gossip-request mechanism". Watch each hop cost roughly one
//! gossip/request/rebroadcast cycle, and check the measured dissemination
//! time against the §3.5 analysis bounds.
//!
//! ```sh
//! cargo run --release --example worst_case_chain
//! ```

use byzcast::harness::{figure5_worst_case, Workload};
use byzcast::sim::{NodeId, SimDuration};

fn main() {
    let correct = 8usize;
    let config = figure5_worst_case(correct, 1);
    let n = config.n;
    println!(
        "chain of {n}: {correct} correct nodes on a line, {} mute Byzantine nodes with the \
         highest ids interleaved — every correct node prunes itself, the overlay is mutes-only",
        n - correct
    );

    let workload = Workload {
        senders: vec![NodeId(0)],
        count: 6,
        payload_bytes: 256,
        start: SimDuration::from_secs(8),
        interval: SimDuration::from_secs(2),
        drain: SimDuration::from_secs(60),
    };
    let mut sim = config.build_wire_sim();
    workload.drive(&mut sim);

    // Per-hop arrival times of the first message at the correct nodes.
    let m = sim.metrics();
    let b0 = m.broadcasts[0];
    println!("\nfirst message's march down the chain (gossip → request → rebroadcast per hop):");
    let mut arrivals: Vec<(NodeId, f64)> = m
        .deliveries_of(b0.payload_id)
        .map(|d| (d.node, d.time.saturating_since(b0.time).as_secs_f64()))
        .collect();
    arrivals.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    for (node, at) in &arrivals {
        println!("  {node:>4} accepted after {at:7.3} s");
    }

    let summary = config.summarize_wire(&sim);
    let c = summary.counters.expect("byzcast counters");
    let beta = SimDuration::from_micros(config.sim.radio.air_time_us(2700));
    let max_timeout = config.byzcast.max_timeout(beta);
    println!("\ndelivery ratio: {:.3}", summary.delivery_ratio);
    println!(
        "slowest accept: {:.2} s — static bound max_timeout·n/2 = {:.2} s, Thm 3.4 bound = {:.2} s",
        summary.max_latency_s,
        max_timeout.saturating_mul(n as u64 / 2).as_secs_f64(),
        max_timeout.saturating_mul(n as u64 - 1).as_secs_f64(),
    );
    println!(
        "recovery machinery carried the run: {} requests, {} responses served",
        c.requests_sent, c.recoveries_served
    );
    assert_eq!(summary.delivery_ratio, 1.0);
}
