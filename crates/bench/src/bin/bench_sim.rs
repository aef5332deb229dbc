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

use std::time::Instant;

use byzcast_bench::{default_workload, ExpOpts};
use byzcast_crypto::schnorr::{pow_mod, FixedBaseTable};
use byzcast_crypto::{CachingVerifier, KeyRegistry, SchnorrScheme, Signer, SignerId, Verifier};
use byzcast_harness::record::JsonObject;
use byzcast_harness::{RunSummary, ScenarioConfig, Workload};
use byzcast_sim::{Field, SimConfig};

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

fn main() {
    let mut quick = false;
    let mut matrix = false;
    let mut only: Option<String> = None;
    let mut pre_pr_ms: Option<f64> = None;
    let mut n_override: Option<usize> = None;
    let mut out = String::from("BENCH_sim.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--matrix" => matrix = true,
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
            "--out" => out = args.next().expect("--out needs a value"),
            other => panic!("unknown argument: {other}"),
        }
    }

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
