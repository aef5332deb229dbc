//! Experiment R5 — overlay quality: size and correct-coverage vs. n.
//!
//! §3.3's goal: "the overlay should consist of as few nodes as possible"
//! while "eventually between every pair of correct nodes p and q there will
//! be a path consisting of overlay nodes" — measured here for CDS vs MIS+B,
//! failure-free and with mute claimants, replicated over seeds via a custom
//! runner closure that inspects per-node state against the ground-truth
//! adjacency.

use std::sync::Arc;

use byzcast_adversary::MutePolicy;
use byzcast_bench::{banner, default_scenario, default_workload, n_sweep, opts, runner};
use byzcast_harness::{
    claims_overlay, highest_ids, report::fnum, run_sweep, AdversaryKind, RunFn, RunOutcome,
    ScenarioConfig, SweepPoint, Table, Workload,
};
use byzcast_overlay::analysis::{dominates, induced_connected};
use byzcast_overlay::OverlayKind;
use byzcast_sim::{NodeId, SimTime};

/// Runs one scenario and measures the final overlay against the ground-truth
/// adjacency, restricted to correct nodes. Extras:
///
/// * `overlay_size` — members at the end of the run (mute claimants count);
/// * `uncovered` — correct nodes neither in the overlay nor adjacent
///   (nominal disk) to a correct overlay member. Non-zero values are
///   typically fringe nodes whose marginal links sit in the fading band —
///   exactly the nodes the gossip/recovery path exists for;
/// * `connected` — 1.0 iff the correct overlay members induce a connected
///   subgraph.
fn measure(config: &ScenarioConfig, workload: &Workload) -> RunOutcome {
    let mut sim = config.build_wire_sim();
    for (at, sender, payload_id, size) in workload.schedule() {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::ZERO + workload.horizon());
    let adv = config.adversary_set();
    let n = config.n;
    let correct: Vec<bool> = (0..n as u32).map(|i| !adv.contains(&NodeId(i))).collect();
    let mut correct_overlay = vec![false; n];
    let mut size = 0usize;
    for i in 0..n as u32 {
        let id = NodeId(i);
        if claims_overlay(&sim, id) {
            size += 1;
            correct_overlay[id.index()] = correct[id.index()];
        }
    }
    let adj = config.adjacency(sim.positions());
    let uncovered = (0..n)
        .filter(|&i| correct[i])
        .filter(|&i| !correct_overlay[i] && !adj[i].iter().any(|v| correct_overlay[v.index()]))
        .count();
    debug_assert_eq!(uncovered == 0, dominates(&adj, &correct_overlay, &correct));
    let connected = induced_connected(&adj, &correct_overlay);
    RunOutcome {
        summary: config.summarize_wire(&sim),
        extras: vec![
            ("overlay_size", size as f64),
            ("uncovered", uncovered as f64),
            ("connected", if connected { 1.0 } else { 0.0 }),
        ],
    }
}

fn main() {
    let opts = opts();
    banner(
        "R5",
        "overlay size, domination and connectivity vs n",
        "paper §3.3 overlay maintenance goals; Lemmas 3.5/3.9",
    );
    let workload = default_workload(&opts);
    let measure: Arc<RunFn> = Arc::new(measure);

    let mut metas = Vec::new();
    let mut points = Vec::new();
    for n in n_sweep(&opts) {
        for overlay in [OverlayKind::Cds, OverlayKind::MisBridges] {
            for mutes in [0usize, n / 10] {
                let mut config = default_scenario(n, 1);
                config.byzcast.overlay = overlay;
                config.adversary_assignments =
                    highest_ids(n, mutes, AdversaryKind::Mute(MutePolicy::DropData));
                metas.push((n, overlay, mutes));
                points.push(
                    SweepPoint::new(
                        format!("n={n}/{}/mutes={mutes}", overlay.name()),
                        vec![
                            ("n".to_owned(), n.to_string()),
                            ("overlay".to_owned(), overlay.name().to_owned()),
                            ("mutes".to_owned(), mutes.to_string()),
                        ],
                        config,
                        workload.clone(),
                    )
                    .with_run(Arc::clone(&measure)),
                );
            }
        }
    }

    let results = run_sweep(&runner(&opts, "r5_overlay"), &points);
    let mut table = Table::new([
        "n",
        "overlay",
        "mutes",
        "overlay size",
        "size/n",
        "uncovered",
        "connected",
    ]);
    for (&(n, overlay, mutes), result) in metas.iter().zip(&results) {
        let size = result.extra_mean("overlay_size").unwrap_or(0.0);
        let uncovered = result.extra_mean("uncovered").unwrap_or(0.0);
        // "Connected" must hold in every replication, not on average.
        let connected = result.extra_mean("connected") == Some(1.0);
        table.add_row([
            n.to_string(),
            overlay.name().to_owned(),
            mutes.to_string(),
            fnum(size),
            fnum(size / n as f64),
            fnum(uncovered),
            connected.to_string(),
        ]);
    }
    print!("{table}");
}
