//! Engine hot-path benchmark: reception resolution at transmission end.
//!
//! `handle_tx_end` dominates the engine's own time at scale — for every
//! transmission it walks the sender's cached audible neighbourhood and
//! probes the in-flight transmissions within twice the audible radius for
//! collision overlaps, while each MAC attempt reads the per-node busy
//! index. This bench runs the same paper-density scenario with
//! radius-sized grid cells (`grid`) and with one cell covering the field
//! (`one-cell`, i.e. every neighbourhood build and overlap query scans
//! every node and transmission). The static placement builds each
//! neighbourhood once, so the two arms now differ mainly in the overlap
//! query; results are bit-identical either way, only wall time differs.
//!
//! The field is scaled with `n` to hold the paper's R5 density constant
//! (80 nodes on 1000 m × 1000 m), so larger points stress bookkeeping
//! rather than congestion collapse. The points start at n = 480: the
//! audible radius at R5 density is ~412 m, so on smaller fields a 3×3
//! cell block covers most of the field and the grid merely breaks even
//! with a full scan (measured crossover under this saturating flooding
//! workload is around n ≈ 400).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use byzcast_harness::{ProtocolChoice, ScenarioConfig, Workload};
use byzcast_sim::{Field, SimConfig, SimDuration};

/// Paper density: 80 nodes per 1000 m × 1000 m.
fn density_preserving_field(n: usize) -> Field {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    Field::new(side, side)
}

fn scenario(n: usize, spatial_index: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        seed: 1,
        n,
        protocol: ProtocolChoice::Flooding, // no crypto: isolates the engine
        sim: SimConfig {
            field: density_preserving_field(n),
            spatial_index,
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    };
    config.byzcast.sig_cache_capacity = 0;
    config
}

fn workload() -> Workload {
    Workload {
        count: 6,
        payload_bytes: 512,
        start: SimDuration::from_secs(2),
        interval: SimDuration::from_millis(500),
        drain: SimDuration::from_secs(4),
        ..Workload::default()
    }
}

fn bench_engine_tx_end(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("engine_tx_end");
    group.sample_size(10);
    for n in [480usize, 800] {
        for (label, spatial) in [("grid", true), ("one-cell", false)] {
            let config = scenario(n, spatial);
            group.bench_with_input(BenchmarkId::new(label, n), &config, |b, config| {
                b.iter(|| black_box(config.run(&w)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_tx_end);
criterion_main!(benches);
