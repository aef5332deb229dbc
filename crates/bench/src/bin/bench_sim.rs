//! PR-2 acceptance benchmark: optimized vs. pre-PR engine, plus crypto
//! micro-numbers, written to `BENCH_sim.json`.
//!
//! The macro point is the R5 overlay scenario (byzcast, static uniform
//! placement, the standard quick workload) at an n ≥ 200 sweep point with
//! the field scaled to hold R5's density constant (80 nodes per
//! 1000 m × 1000 m), so the comparison stresses per-event bookkeeping
//! rather than congestion collapse. "Flags-off" runs the engine's grids at
//! one cell covering the field (every query scans everything) and disables
//! the signature cache; the two runs are asserted to deliver identically
//! before any time is reported. The JSON keeps the `naive_ms` key for the
//! flags-off time.
//!
//! Flags-off still benefits from this PR's unconditional wins (HMAC pad
//! midstates, fixed-base tables, overlay data-structure changes), so the
//! honest against-the-pre-PR-engine number is measured from a `git worktree`
//! of the pre-PR commit running the identical scenario (see
//! `README.md` § Benchmarking) and passed in via `--pre-pr-ms`; the JSON
//! records both comparisons.
//!
//! Usage: `bench_sim [--quick] [--n N] [--pre-pr-ms MS] [--out PATH]`
//! (default `BENCH_sim.json`). `--quick` shrinks the point for CI smoke
//! runs; the committed JSON comes from a full run.
//!
//! `bench_sim --scale [--quick] [--label TEXT] [--parent PATH] [--out PATH]`
//! (default `BENCH_scale.json`) measures instead how the host cost of one
//! delivered (node, message) copy grows with n: plain byzcast, static
//! uniform placement at R5 density, the standard stream (512 B at 8 msg/s
//! from 4 senders after a 10 s warm-up, 120 messages, 12 s drain), scenario
//! seed 1, at n ∈ {320, 640, 1280, 2560, 5120}. Each point reports µs per
//! copy (host time of the run phase, from 1 ms before the first broadcast
//! to the horizon, over delivered copies) and frames per copy. It also runs
//! the islands control: 8 islands of 320 nodes, each at R5 density and
//! more than three audible radii from the next (so no frame crosses
//! between them), each with its own 4-sender standard stream. Per-node
//! work then matches n = 320 while the working set matches n = 2560: µs
//! per copy near the n = 320 point means the growth is algorithmic, near
//! the n = 2560 point it is locality. Each point runs once. `--quick` runs
//! n ∈ {320, 640} and 2 islands, for CI. `--parent PATH` embeds the JSON that this
//! mode wrote for another build (the parent commit, built from a separate
//! checkout with this file), so one file records both.

use std::collections::HashSet;
use std::time::Instant;

use byzcast_bench::{default_workload, ExpOpts};
use byzcast_crypto::schnorr::{pow_mod, FixedBaseTable};
use byzcast_crypto::{CachingVerifier, KeyRegistry, SchnorrScheme, Signer, SignerId, Verifier};
use byzcast_harness::record::JsonObject;
use byzcast_harness::{MobilityChoice, RunSummary, ScenarioConfig, Workload};
use byzcast_sim::{
    Field, Metrics, NodeId, Position, RadioModel, SimConfig, SimDuration, SimRng, SimTime,
};

/// The toy Schnorr group's generator (mirrors `schnorr.rs`).
const G: u64 = 157_608_736_213_706_629;
const P: u64 = 2_305_843_201_413_480_359;

/// R5's density (80 nodes per 1000 m × 1000 m), preserved at any n.
fn density_preserving_field(n: usize) -> Field {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    Field::new(side, side)
}

fn scenario(n: usize, spatial: bool, cache: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        seed: 1,
        n,
        sim: SimConfig {
            field: density_preserving_field(n),
            spatial_index: spatial,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    config.byzcast.sig_cache_capacity = if cache { 512 } else { 0 };
    config
}

/// Runs the point once, returning (wall ms, summary).
fn timed_run(config: &ScenarioConfig, workload: &Workload) -> (f64, RunSummary) {
    let start = Instant::now();
    let summary = config.run(workload);
    (start.elapsed().as_secs_f64() * 1e3, summary)
}

/// One warmup run, then `repeats` timed runs; returns the median wall time
/// and the (identical across runs) summary.
fn median_run(config: &ScenarioConfig, workload: &Workload, repeats: usize) -> (f64, RunSummary) {
    timed_run(config, workload);
    let mut times = Vec::with_capacity(repeats);
    let mut summary = None;
    for _ in 0..repeats {
        let (ms, s) = timed_run(config, workload);
        times.push(ms);
        summary = Some(s);
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], summary.expect("repeats >= 1"))
}

/// Mean ns per call of `f` over enough iterations to dwarf timer noise.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
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
        for (at, sender, payload_id, size) in schedule {
            sim.schedule_app_broadcast(at, sender, payload_id, size);
        }
        sim.run_until(SimTime::from_micros(first.as_micros() - 1_000));
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        sim.run_until(SimTime::ZERO + workload.horizon());
        let run_s = t.elapsed().as_secs_f64();
        let point = ScalePoint {
            label,
            n: config.n,
            setup_s,
            run_s,
            copies: delivered_copies(sim.metrics()),
            frames_sent: sim.metrics().frames_sent,
            nodes_per_stream,
            messages: workload.count,
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

/// `bench_sim --scale`: the per-copy cost curve and the islands control.
fn scale_mode(quick: bool, label: &str, parent: Option<&str>, out: &str) {
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
    points.push(control);
    let verdict = if position >= 0.5 {
        "locality"
    } else {
        "algorithm"
    };
    eprintln!(
        "  islands control sits at {position:.2} of the way from n={ISLAND_N} to n={}: {verdict}",
        islands * ISLAND_N
    );

    let mut o = JsonObject::new();
    o.str("bench", "bench_sim --scale")
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
        .f64("islands_position", position)
        .str("verdict", verdict);
    if let Some(path) = parent {
        let parent_json = std::fs::read_to_string(path).expect("read --parent JSON");
        let parent_json = parent_json.trim();
        assert!(
            parent_json.starts_with('{') && parent_json.ends_with('}'),
            "--parent must name one JSON object written by bench_sim --scale"
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
    let mut matrix = false;
    let mut scale = false;
    let mut label = String::from("change");
    let mut parent: Option<String> = None;
    let mut only: Option<String> = None;
    let mut pre_pr_ms: Option<f64> = None;
    let mut n_override: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--matrix" => matrix = true,
            "--scale" => scale = true,
            "--label" => label = args.next().expect("--label needs a value"),
            "--parent" => parent = Some(args.next().expect("--parent needs a value")),
            "--only" => only = Some(args.next().expect("--only needs a value")),
            "--n" => {
                n_override = Some(
                    args.next()
                        .expect("--n needs a value")
                        .parse()
                        .expect("--n must be an integer"),
                )
            }
            "--pre-pr-ms" => {
                pre_pr_ms = Some(
                    args.next()
                        .expect("--pre-pr-ms needs a value")
                        .parse()
                        .expect("--pre-pr-ms must be a number"),
                )
            }
            "--out" => out = Some(args.next().expect("--out needs a value")),
            other => panic!("unknown argument: {other}"),
        }
    }
    if scale {
        let out = out.as_deref().unwrap_or("BENCH_scale.json");
        scale_mode(quick, &label, parent.as_deref(), out);
        return;
    }
    let out = out.unwrap_or_else(|| String::from("BENCH_sim.json"));

    if matrix {
        // Diagnostic: attribute the speedup to each layer separately.
        let n = n_override.unwrap_or(if quick { 120 } else { 320 });
        let w = default_workload(&ExpOpts {
            quick: true,
            ..ExpOpts::default()
        });
        for (label, spatial, cache) in [
            ("one-cell", false, false),
            ("spatial", true, false),
            ("cache", false, true),
            ("both", true, true),
        ] {
            if only.as_deref().is_some_and(|o| o != label) {
                continue;
            }
            let repeats = if only.is_some() { 5 } else { 1 };
            for _ in 1..repeats {
                timed_run(&scenario(n, spatial, cache), &w);
            }
            let (ms, s) = timed_run(&scenario(n, spatial, cache), &w);
            eprintln!(
                "{label:<16} {ms:9.0} ms  (delivery {:.3}, frames {})",
                s.delivery_ratio, s.frames_sent
            );
        }
        return;
    }

    // --- Macro benchmark: full byzcast run, optimized vs pre-PR engine ---
    let n = n_override.unwrap_or(if quick { 120 } else { 320 });
    let workload = default_workload(&ExpOpts {
        quick: true, // 40-message stream; the point is engine cost, not load
        ..ExpOpts::default()
    });
    let field = density_preserving_field(n);
    eprintln!(
        "engine point: byzcast n={n} on {:.0} m x {:.0} m (R5 density), {} msgs",
        field.width, field.height, workload.count
    );

    let repeats = if quick { 3 } else { 5 };
    let (optimized_ms, optimized) = median_run(&scenario(n, true, true), &workload, repeats);
    eprintln!(
        "  optimized: {optimized_ms:9.0} ms  (delivery {:.3})",
        optimized.delivery_ratio
    );
    let (off_ms, off) = median_run(&scenario(n, false, false), &workload, repeats);
    eprintln!(
        "  flags-off: {off_ms:9.0} ms  (delivery {:.3})",
        off.delivery_ratio
    );

    // The speedup is only meaningful if the two engines agree. Counters
    // differ in the cache's own hit/miss observability; every simulation
    // quantity must match (the differential test in tests/perf_equivalence.rs
    // checks full byte-identity).
    assert_eq!(
        off.delivery_ratio, optimized.delivery_ratio,
        "engines diverged"
    );
    assert_eq!(off.frames_sent, optimized.frames_sent, "engines diverged");
    assert_eq!(off.collisions, optimized.collisions, "engines diverged");
    let speedup = off_ms / optimized_ms;
    eprintln!("  speedup:   {speedup:9.2}x (vs flags-off in this tree)");
    if let Some(pre) = pre_pr_ms {
        eprintln!(
            "  vs pre-PR: {:9.2}x ({pre:.0} ms baseline)",
            pre / optimized_ms
        );
    }

    let cache = optimized
        .counters
        .as_ref()
        .map(|c| (c.sig_cache_hits, c.sig_cache_misses));

    // --- Micro benchmarks: fixed-base exponentiation and the verify cache ---
    let table = FixedBaseTable::new(G);
    let exp: u64 = 0x7FFF_FFF1;
    let pow_mod_ns = ns_per_call(200_000, || {
        std::hint::black_box(pow_mod(G, std::hint::black_box(exp), P));
    });
    let table_ns = ns_per_call(200_000, || {
        std::hint::black_box(table.pow(std::hint::black_box(exp)));
    });

    let keys: KeyRegistry<SchnorrScheme> = KeyRegistry::generate(1, 4);
    let signer = keys.signer(SignerId(0));
    let data = vec![0x42u8; 128];
    let sig = signer.sign(&data);
    let bare = keys.verifier();
    let cached = CachingVerifier::new(keys.verifier(), 512);
    assert!(cached.verify(SignerId(0), &data, &sig));
    let verify_ns = ns_per_call(100_000, || {
        std::hint::black_box(bare.verify(SignerId(0), std::hint::black_box(&data), &sig));
    });
    let hit_ns = ns_per_call(100_000, || {
        std::hint::black_box(cached.verify(SignerId(0), std::hint::black_box(&data), &sig));
    });

    // --- Report ---
    let mut engine = JsonObject::new();
    engine
        .str(
            "scenario",
            "r5-density byzcast, static placement, quick workload",
        )
        .u64("n", n as u64)
        .f64("field_m", field.width)
        .u64("messages", workload.count as u64)
        .u64("collisions", optimized.collisions)
        .f64("naive_ms", off_ms)
        .f64("optimized_ms", optimized_ms)
        .f64("speedup", speedup)
        .f64("delivery_ratio", optimized.delivery_ratio)
        .u64("frames_sent", optimized.frames_sent);
    if let Some(pre) = pre_pr_ms {
        engine
            .f64("pre_pr_ms", pre)
            .f64("speedup_vs_pre_pr", pre / optimized_ms);
    }
    if let Some((hits, misses)) = cache {
        engine
            .u64("sig_cache_hits", hits)
            .u64("sig_cache_misses", misses);
    }

    let mut schnorr = JsonObject::new();
    schnorr
        .f64("pow_mod_ns", pow_mod_ns)
        .f64("fixed_base_table_ns", table_ns)
        .f64("speedup", pow_mod_ns / table_ns)
        .f64("verify_uncached_ns", verify_ns)
        .f64("verify_cache_hit_ns", hit_ns)
        .f64("cache_speedup", verify_ns / hit_ns);

    let mut o = JsonObject::new();
    o.str("bench", "bench_sim")
        .bool("quick", quick)
        .raw("engine", &engine.finish())
        .raw("schnorr", &schnorr.finish());
    let json = o.finish();
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_sim.json");
    println!("{json}");
    eprintln!("wrote {out}");
}
