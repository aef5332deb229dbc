//! Differential determinism: the performance machinery (radius-sized
//! spatial grid cells in the engine, per-node signature-verification caches)
//! must not change a single observable result.
//!
//! Each test runs one mid-size **mobile** byzcast scenario twice per seed —
//! radius-sized grid cells plus the cache vs. one grid cell covering the
//! field (every radio query scans everything) with no cache — and asserts
//! the summaries and the per-run JSONL records are byte-identical. The only
//! tolerated difference is the `sig_cache_hits`/`sig_cache_misses`
//! counters, which are observability *of the cache itself* (necessarily
//! zero when it is off); the test masks them after asserting the cached run
//! actually used the cache.

use byzcast_core::ResourceConfig;
use byzcast_harness::record::{run_record, RecordMeta};
use byzcast_harness::{MobilityChoice, ScenarioConfig, Workload};
use byzcast_sim::{Field, SimConfig, SimDuration};

fn scenario(seed: u64, optimized: bool) -> ScenarioConfig {
    let mut config = ScenarioConfig {
        seed,
        n: 40,
        sim: SimConfig {
            field: Field::new(700.0, 700.0),
            mobility_tick: SimDuration::from_millis(100),
            spatial_index: optimized,
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Waypoint {
            min_mps: 1.0,
            max_mps: 15.0,
            pause: SimDuration::from_secs(1),
        },
        ..ScenarioConfig::default()
    };
    config.byzcast.sig_cache_capacity = if optimized { 512 } else { 0 };
    config
}

fn workload() -> Workload {
    Workload {
        count: 5,
        payload_bytes: 512,
        start: SimDuration::from_secs(4),
        interval: SimDuration::from_secs(1),
        drain: SimDuration::from_secs(10),
        ..Workload::default()
    }
}

#[test]
fn optimized_run_is_byte_identical_to_naive_for_three_seeds() {
    for seed in [1, 2, 3] {
        let naive = scenario(seed, false).run(&workload());
        let mut optimized = scenario(seed, true).run(&workload());

        // The scenario must be non-trivial and the cache actually exercised,
        // otherwise equality proves nothing.
        assert!(
            optimized.delivery_ratio > 0.5 && optimized.frames_sent > 500,
            "seed {seed}: scenario too trivial (ratio {}, frames {})",
            optimized.delivery_ratio,
            optimized.frames_sent
        );
        let counters = optimized.counters.as_mut().expect("byzcast counters");
        assert!(
            counters.sig_cache_hits > 0,
            "seed {seed}: signature cache never hit"
        );
        // Mask the cache's own observability counters; every *simulation*
        // quantity must match exactly.
        counters.sig_cache_hits = 0;
        counters.sig_cache_misses = 0;

        assert_eq!(naive, optimized, "seed {seed}: summaries diverged");

        // And the full JSONL records agree byte for byte.
        let params = vec![("seed".to_owned(), seed.to_string())];
        let record = |summary| {
            run_record(
                &RecordMeta {
                    experiment: "perf_equivalence",
                    label: "mobile-40",
                    params: &params,
                    seed,
                    run_index: 0,
                    wall_ms: 0.0, // wall-clock differs by construction
                },
                summary,
                &[],
            )
        };
        assert_eq!(
            record(&naive),
            record(&optimized),
            "seed {seed}: JSONL records diverged"
        );
    }
}

#[test]
fn generous_governance_envelope_is_decision_free() {
    // The resource-governance layer must be pure bookkeeping until a limit
    // actually binds: a run under an envelope too generous to ever deny
    // anything must match the ungoverned run in every simulation observable.
    // The only tolerated difference is the `resources` stats section itself,
    // which exists precisely when governance is on — the test asserts the
    // stats prove traffic flowed through the admission path, then masks the
    // section and requires byte-identical summaries and JSONL records.
    let generous = ResourceConfig {
        frames_per_sec: 1_000_000,
        verifs_per_sec: 1_000_000,
        max_store_msgs: 1 << 30,
        max_store_bytes: 1 << 40,
        max_seen_ids: 1 << 30,
        max_gossip_per_origin: 1 << 30,
        max_missing_per_origin: 1 << 30,
    };
    for seed in [1, 2, 3] {
        let ungoverned = scenario(seed, true).run(&workload());
        let mut governed_scenario = scenario(seed, true);
        governed_scenario.byzcast.resources = generous;
        let mut governed = governed_scenario.run(&workload());

        let stats = governed.resources.take().expect("governed stats");
        assert!(
            stats.frames_admitted > 0 && stats.verifs_charged > 0,
            "seed {seed}: the admission path was never exercised: {stats:?}"
        );
        assert_eq!(
            stats.frames_dropped + stats.verifs_dropped + stats.store_rejects + stats.quota_drops,
            0,
            "seed {seed}: a generous envelope denied something: {stats:?}"
        );
        assert_eq!(ungoverned, governed, "seed {seed}: summaries diverged");

        let params = vec![("seed".to_owned(), seed.to_string())];
        let record = |summary| {
            run_record(
                &RecordMeta {
                    experiment: "perf_equivalence",
                    label: "mobile-40-governed",
                    params: &params,
                    seed,
                    run_index: 0,
                    wall_ms: 0.0,
                },
                summary,
                &[],
            )
        };
        assert_eq!(
            record(&ungoverned),
            record(&governed),
            "seed {seed}: JSONL records diverged"
        );
    }
}
