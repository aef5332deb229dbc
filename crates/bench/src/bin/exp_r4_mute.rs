//! Experiment R4 — impact of mute Byzantine nodes.
//!
//! The paper's evaluation focuses on exactly this failure: "we investigate
//! the behavior of the protocol both in failure free runs and when some
//! nodes experience mute failures, as these failures seem to have the most
//! adverse impact on the protocol's performance" (§1). Mute adversaries here
//! are the worst case: they claim overlay dominator status (winning the
//! id-based election, since the highest ids are chosen) while silently
//! dropping all data-plane traffic; against the baselines the same nodes
//! simply go silent.

use byzcast_adversary::MutePolicy;
use byzcast_bench::{banner, default_scenario, default_workload, opts, runner};
use byzcast_harness::{
    highest_ids, report::fnum, run_sweep, AdversaryKind, ProtocolChoice, SweepPoint, Table,
};
use byzcast_overlay::OverlayKind;

fn main() {
    let opts = opts();
    banner(
        "R4",
        "delivery and recovery under mute overlay nodes (n = 100)",
        "paper §1/§4: runs where some nodes experience mute failures",
    );
    let n = 100;
    let workload = default_workload(&opts);
    let fractions: &[f64] = if opts.quick {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4]
    };
    let protocols: Vec<(ProtocolChoice, OverlayKind)> = vec![
        (ProtocolChoice::Byzcast, OverlayKind::Cds),
        (ProtocolChoice::Byzcast, OverlayKind::MisBridges),
        (ProtocolChoice::Flooding, OverlayKind::Cds),
        (ProtocolChoice::MultiOverlay { f: 1 }, OverlayKind::Cds),
    ];

    let mut fracs = Vec::new();
    let mut points = Vec::new();
    for &frac in fractions {
        let count = (n as f64 * frac).round() as usize;
        let base = default_scenario(n, 0);
        for (protocol, overlay) in &protocols {
            let mut config = base.clone();
            config.protocol = protocol.clone();
            config.byzcast.overlay = *overlay;
            config.adversary_assignments =
                highest_ids(n, count, AdversaryKind::Mute(MutePolicy::DropData));
            let label = config.protocol_label();
            fracs.push(frac);
            points.push(SweepPoint::new(
                format!("mute={:.0}%/{label}", frac * 100.0),
                vec![
                    ("mute_fraction".to_owned(), format!("{frac}")),
                    ("protocol".to_owned(), label),
                ],
                config,
                workload.clone(),
            ));
        }
    }

    let results = run_sweep(&runner(&opts, "r4_mute"), &points);
    let mut table = Table::new([
        "mute%",
        "protocol",
        "delivery",
        "min-delivery",
        "p99 (s)",
        "requests",
        "served",
        "suspicions(T/F)",
    ]);
    for (frac, result) in fracs.iter().zip(&results) {
        let agg = &result.aggregate;
        let c = agg.counters.unwrap_or_default();
        table.add_row([
            format!("{:.0}", frac * 100.0),
            agg.protocol.clone(),
            fnum(agg.delivery_ratio),
            fnum(agg.min_delivery_ratio),
            fnum(agg.p99_latency_s),
            c.requests_sent.to_string(),
            c.recoveries_served.to_string(),
            format!("{}/{}", agg.true_suspicions, agg.false_suspicions),
        ]);
    }
    print!("{table}");
}
