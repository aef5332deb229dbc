//! The per-copy cost curve: how the host cost of one delivered (node,
//! message) copy grows with n, written to `BENCH_scale.json`.
//!
//! Each point runs plain byzcast, static uniform placement at R5 density
//! (80 nodes per 1000 m × 1000 m), the standard stream (512 B at 8 msg/s
//! from 4 senders after a 10 s warm-up, 120 messages, 12 s drain), scenario
//! seed 1, at n ∈ {320, 640, 1280, 2560, 5120}. Each point reports µs per
//! copy (host time of the run phase, from 1 ms before the first broadcast
//! to the horizon, over delivered copies) and frames per copy. It also runs
//! the islands control: 8 islands of 320 nodes, each at R5 density and
//! more than three audible radii from the next (so no frame crosses
//! between them), each with its own 4-sender standard stream. Per-node
//! work then matches n = 320 while the working set matches n = 2560: µs
//! per copy near the n = 320 point means the growth is algorithmic, near
//! the n = 2560 point it is locality. Each point runs once.
//!
//! Beside µs per copy each point reports its memory footprint at the last
//! broadcast: bytes per node for each structure of a byzcast node (its hot
//! head and cold part, store, neighbour table, MUTE, VERBOSE, TRUST,
//! recovery maps, governor; see `ByzcastNode::footprint`) and for each of
//! the engine's per-node vectors (`engine.*`, see `Simulator::footprint`).
//! Taking it is not timed. The file also records `ratio_max_min`, µs per
//! copy at the largest n over the smallest.
//!
//! Usage: `bench_sim [--quick] [--label TEXT] [--parent PATH] [--out PATH]`
//! (default `BENCH_scale.json`). `--quick` runs n ∈ {320, 640} and 2
//! islands, for CI, and its verdict reads `unresolved`. `--parent PATH` embeds the JSON that this binary wrote
//! for another build (the parent commit, built from a separate checkout
//! with this file), so one file records both.

use std::collections::HashSet;
use std::time::Instant;

use byzcast_core::WireMsg;
use byzcast_harness::record::JsonObject;
use byzcast_harness::{byz_view, MobilityChoice, ScenarioConfig, Workload};
use byzcast_sim::{
    Field, Metrics, NodeId, Position, RadioModel, SimConfig, SimDuration, SimRng, SimTime,
    Simulator,
};

/// R5's density (80 nodes per 1000 m × 1000 m), preserved at any n.
fn density_preserving_field(n: usize) -> Field {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    Field::new(side, side)
}

/// The scale curve's node counts (the first two in `--quick`).
const SCALE_N: [usize; 5] = [320, 640, 1280, 2560, 5120];
/// Nodes per island in the islands control.
const ISLAND_N: usize = 320;

/// The standard stream, once per island: `islands` × 120 messages from 4
/// senders per island. Message `i` goes to island `i mod islands`, so each
/// island sees the standard 8 msg/s rotating over its own 4 senders.
fn standard_stream(islands: usize) -> Workload {
    let senders = (0..4)
        .flat_map(|s| (0..islands).map(move |k| NodeId((k * ISLAND_N + s) as u32)))
        .collect();
    Workload {
        senders,
        count: 120 * islands,
        payload_bytes: 512,
        start: SimDuration::from_secs(10),
        interval: SimDuration::from_micros(125_000 / islands as u64),
        drain: SimDuration::from_secs(12),
    }
}

/// `islands` squares of [`ISLAND_N`] uniform-random nodes at R5 density,
/// up to four per row, with a gap of four audible radii between squares.
/// Returns the field and the positions (island `k` holds ids
/// `k·320 .. (k+1)·320`).
fn islands_layout(islands: usize) -> (Field, Vec<Position>) {
    let side = density_preserving_field(ISLAND_N).width;
    let gap = 4.0 * RadioModel::new(SimConfig::default().radio).audible_radius();
    let pitch = side + gap;
    let cols = islands.min(4);
    let rows = islands.div_ceil(cols);
    let mut rng = SimRng::new(1);
    let mut positions = Vec::with_capacity(islands * ISLAND_N);
    for k in 0..islands {
        let (x0, y0) = ((k % cols) as f64 * pitch, (k / cols) as f64 * pitch);
        for _ in 0..ISLAND_N {
            let (x, y) = (rng.gen_f64() * side, rng.gen_f64() * side);
            positions.push(Position::new(x0 + x, y0 + y));
        }
    }
    let field = Field::new(cols as f64 * pitch - gap, rows as f64 * pitch - gap);
    (field, positions)
}

/// Distinct (node, origin, message) deliveries: every node is correct.
fn delivered_copies(metrics: &Metrics) -> u64 {
    let copies: HashSet<(NodeId, NodeId, u64)> = metrics
        .deliveries
        .iter()
        .map(|d| (d.node, d.origin, d.payload_id))
        .collect();
    copies.len() as u64
}

/// Bytes per node for each structure: a byzcast node's, then the engine's
/// per-node vectors (prefixed `engine.`), averaged over the nodes.
fn footprint(sim: &Simulator<WireMsg>) -> Vec<(String, f64)> {
    let n = sim.node_count();
    let mut totals: Vec<(String, usize)> = Vec::new();
    for i in 0..n {
        let node = byz_view(sim, NodeId(i as u32)).expect("every node runs byzcast");
        for (k, (name, bytes)) in node.footprint().into_iter().enumerate() {
            if k == totals.len() {
                totals.push((name.to_owned(), 0));
            }
            totals[k].1 += bytes;
        }
    }
    let engine = sim.footprint().into_iter();
    totals.extend(engine.map(|(name, bytes)| (format!("engine.{name}"), bytes)));
    totals
        .into_iter()
        .map(|(name, bytes)| (name, bytes as f64 / n as f64))
        .collect()
}

/// One measured point of the scale curve.
struct ScalePoint {
    label: String,
    n: usize,
    setup_s: f64,
    run_s: f64,
    copies: u64,
    frames_sent: u64,
    /// Nodes each message can reach (n, or one island's size).
    nodes_per_stream: usize,
    messages: usize,
    /// Bytes per node for each structure, at the last broadcast.
    footprint: Vec<(String, f64)>,
}

impl ScalePoint {
    /// Runs `config` under `workload` in two phases — set-up up to 1 ms
    /// before the first broadcast, then the run to the horizon.
    fn measure(
        label: String,
        config: &ScenarioConfig,
        workload: &Workload,
        nodes_per_stream: usize,
    ) -> ScalePoint {
        let t = Instant::now();
        let mut sim = config.build_wire_sim();
        let schedule = workload.schedule();
        let first = schedule
            .iter()
            .map(|&(at, ..)| at)
            .min()
            .expect("a broadcast");
        let last = schedule
            .iter()
            .map(|&(at, ..)| at)
            .max()
            .expect("a broadcast");
        for (at, sender, payload_id, size) in schedule {
            sim.schedule_app_broadcast(at, sender, payload_id, size);
        }
        sim.run_until(SimTime::from_micros(first.as_micros() - 1_000));
        let setup_s = t.elapsed().as_secs_f64();
        // Splitting the run at an instant changes nothing; the footprint is
        // taken between the two halves, off the clock.
        let t = Instant::now();
        sim.run_until(SimTime::ZERO + last);
        let mut run_s = t.elapsed().as_secs_f64();
        let footprint = footprint(&sim);
        let t = Instant::now();
        sim.run_until(SimTime::ZERO + workload.horizon());
        run_s += t.elapsed().as_secs_f64();
        let point = ScalePoint {
            label,
            n: config.n,
            setup_s,
            run_s,
            copies: delivered_copies(sim.metrics()),
            frames_sent: sim.metrics().frames_sent,
            nodes_per_stream,
            messages: workload.count,
            footprint,
        };
        eprintln!(
            "  {:<14} n={:<5} setup {setup_s:7.3} s  run {run_s:7.3} s  {:6.2} us/copy  \
             {:.4} frames/copy  delivery {:.4}",
            point.label,
            point.n,
            point.us_per_copy(),
            point.frames_per_copy(),
            point.delivery_ratio()
        );
        point
    }

    fn us_per_copy(&self) -> f64 {
        self.run_s * 1e6 / self.copies as f64
    }

    fn frames_per_copy(&self) -> f64 {
        self.frames_sent as f64 / self.copies as f64
    }

    fn delivery_ratio(&self) -> f64 {
        self.copies as f64 / (self.messages * self.nodes_per_stream) as f64
    }

    fn json(&self) -> String {
        let mut o = JsonObject::new();
        o.str("point", &self.label)
            .u64("n", self.n as u64)
            .f64("setup_s", self.setup_s)
            .f64("run_s", self.run_s)
            .u64("copies", self.copies)
            .u64("frames_sent", self.frames_sent)
            .f64("us_per_copy", self.us_per_copy())
            .f64("frames_per_copy", self.frames_per_copy())
            .f64("delivery_ratio", self.delivery_ratio());
        let mut bytes = JsonObject::new();
        for (name, per_node) in &self.footprint {
            bytes.f64(name, *per_node);
        }
        o.raw("footprint_bytes_per_node", &bytes.finish());
        o.finish()
    }
}

/// The CPU model and core count, for the record.
fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cores = std::thread::available_parallelism().map_or(0, |c| c.get());
    let mut o = JsonObject::new();
    o.str("cpu", &cpu).u64("cores", cores as u64);
    o.finish()
}

/// The per-copy cost curve and the islands control.
fn scale_curve(quick: bool, label: &str, parent: Option<&str>, out: &str) {
    let ns: &[usize] = if quick { &SCALE_N[..2] } else { &SCALE_N };
    let islands = if quick { 2 } else { 8 };
    eprintln!("scale curve: byzcast, R5 density, standard stream, seed 1 ({label})");
    let mut points = Vec::new();
    for &n in ns {
        let config = ScenarioConfig {
            seed: 1,
            n,
            sim: SimConfig {
                field: density_preserving_field(n),
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        };
        points.push(ScalePoint::measure(
            format!("n{n}"),
            &config,
            &standard_stream(1),
            n,
        ));
    }
    let (field, positions) = islands_layout(islands);
    let config = ScenarioConfig {
        seed: 1,
        n: positions.len(),
        mobility: MobilityChoice::Explicit(positions),
        sim: SimConfig {
            field,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    let control = ScalePoint::measure(
        format!("islands{islands}x{ISLAND_N}"),
        &config,
        &standard_stream(islands),
        ISLAND_N,
    );

    // Where the control falls between the n = 320 point (same per-node
    // work) and the point of the same total n (same working set).
    let at_n = |n: usize| {
        points
            .iter()
            .find(|p| p.n == n)
            .map(ScalePoint::us_per_copy)
            .expect("the curve holds the point")
    };
    let (base, full) = (at_n(ISLAND_N), at_n(islands * ISLAND_N));
    let position = (control.us_per_copy() - base) / (full - base);
    let ratio = at_n(ns[ns.len() - 1]) / at_n(ns[0]);
    points.push(control);
    // One run per point at n ≤ 640 puts the position within host noise,
    // so a quick run draws no verdict.
    let verdict = if quick {
        "unresolved"
    } else if position >= 0.5 {
        "locality"
    } else {
        "algorithm"
    };
    eprintln!(
        "  islands control sits at {position:.2} of the way from n={ISLAND_N} to n={}: {verdict}",
        islands * ISLAND_N
    );

    let mut o = JsonObject::new();
    o.str("bench", "bench_sim")
        .str("label", label)
        .bool("quick", quick)
        .str(
            "scenario",
            "byzcast, static uniform placement at R5 density, standard stream, seed 1",
        )
        .raw("machine", &machine())
        .raw(
            "points",
            &format!(
                "[{}]",
                points
                    .iter()
                    .map(ScalePoint::json)
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        )
        .f64("ratio_max_min", ratio)
        .f64("islands_position", position)
        .str("verdict", verdict);
    if let Some(path) = parent {
        let parent_json = std::fs::read_to_string(path).expect("read --parent JSON");
        let parent_json = parent_json.trim();
        assert!(
            parent_json.starts_with('{') && parent_json.ends_with('}'),
            "--parent must name one JSON object written by bench_sim"
        );
        o.raw("parent", parent_json);
    }
    let json = o.finish();
    std::fs::write(out, format!("{json}\n")).expect("write the scale JSON");
    println!("{json}");
    eprintln!("wrote {out}");
}

fn main() {
    let mut quick = false;
    let mut label = String::from("change");
    let mut parent: Option<String> = None;
    let mut out = String::from("BENCH_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--label" => label = args.next().expect("--label needs a value"),
            "--parent" => parent = Some(args.next().expect("--parent needs a value")),
            "--out" => out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument: {other}"),
        }
    }
    scale_curve(quick, &label, parent.as_deref(), &out);
}
