//! Replication over seeds and aggregation of summaries.

use byzcast_sim::CounterSet;

use crate::scenario::ScenarioConfig;
use crate::summary::{mean, percentile, RunSummary};
use crate::workload::Workload;

/// Runs the scenario once per seed, returning all summaries.
pub fn replicate(config: &ScenarioConfig, workload: &Workload, seeds: &[u64]) -> Vec<RunSummary> {
    seeds
        .iter()
        .map(|&seed| {
            ScenarioConfig {
                seed,
                ..config.clone()
            }
            .run(workload)
        })
        .collect()
}

/// Averages a set of summaries (same scenario, different seeds) field-wise.
/// Counters become means; `overlay_ok` becomes "all replicas ok".
///
/// Latency statistics are **pooled**: the per-run latency samples are
/// concatenated and the mean/p99 computed over the pool, which weights each
/// delivery equally (a mean of per-run p99s is biased when run sizes
/// differ). When no run carries samples (synthetic summaries), the mean of
/// the per-run fields is used as an approximation. `frames_per_delivery`
/// averages the *finite* replicas only — a run with zero deliveries has no
/// defined cost per delivery and must not drag the mean toward zero; the
/// aggregate is infinite only if every replica is.
///
/// # Panics
///
/// Panics if `summaries` is empty.
pub fn aggregate(summaries: &[RunSummary]) -> RunSummary {
    assert!(!summaries.is_empty(), "cannot aggregate zero summaries");
    let k = summaries.len() as f64;
    let mean_f = |f: fn(&RunSummary) -> f64| summaries.iter().map(f).sum::<f64>() / k;
    let mean_u = |f: fn(&RunSummary) -> u64| {
        (summaries.iter().map(f).sum::<u64>() as f64 / k).round() as u64
    };

    let finite_fpd: Vec<f64> = summaries
        .iter()
        .map(|s| s.frames_per_delivery)
        .filter(|v| v.is_finite())
        .collect();

    let mut pooled: Vec<f64> = summaries
        .iter()
        .flat_map(|s| s.latencies_s.iter().copied())
        .collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let (mean_latency_s, p99_latency_s) = if pooled.is_empty() {
        (mean_f(|s| s.mean_latency_s), mean_f(|s| s.p99_latency_s))
    } else {
        (mean(&pooled), percentile(&pooled, 0.99))
    };

    RunSummary {
        protocol: summaries[0].protocol.clone(),
        n: summaries[0].n,
        correct: summaries[0].correct,
        messages: summaries[0].messages,
        delivery_ratio: mean_f(|s| s.delivery_ratio),
        min_delivery_ratio: summaries
            .iter()
            .map(|s| s.min_delivery_ratio)
            .fold(f64::INFINITY, f64::min),
        frames_sent: mean_u(|s| s.frames_sent),
        bytes_sent: mean_u(|s| s.bytes_sent),
        data_frames: mean_u(|s| s.data_frames),
        control_frames: mean_u(|s| s.control_frames),
        frames_per_delivery: if finite_fpd.is_empty() {
            f64::INFINITY
        } else {
            finite_fpd.iter().sum::<f64>() / finite_fpd.len() as f64
        },
        mean_latency_s,
        p99_latency_s,
        max_latency_s: summaries
            .iter()
            .map(|s| s.max_latency_s)
            .fold(0.0, f64::max),
        collisions: mean_u(|s| s.collisions),
        noise_losses: mean_u(|s| s.noise_losses),
        overlay_size: summaries[0].overlay_size.map(|_| {
            (summaries
                .iter()
                .filter_map(|s| s.overlay_size)
                .sum::<usize>() as f64
                / k)
                .round() as usize
        }),
        overlay_ok: summaries[0]
            .overlay_ok
            .map(|_| summaries.iter().all(|s| s.overlay_ok.unwrap_or(false))),
        store_high_water: summaries
            .iter()
            .map(|s| s.store_high_water)
            .max()
            .unwrap_or(0),
        true_suspicions: mean_u(|s| s.true_suspicions),
        false_suspicions: mean_u(|s| s.false_suspicions),
        latencies_s: pooled,
        counters: merge_all(summaries, |s| s.counters.as_ref())
            .map(|c| c.map(|v| (v as f64 / k).round() as u64)),
        frame_kinds: mean_frame_kinds(summaries),
        faults: merge_all(summaries, |s| s.faults.as_ref()),
        oracle_outcomes: sum_oracle_outcomes(summaries),
        resources: merge_all(summaries, |s| s.resources.as_ref()),
        recovery: merge_all(summaries, |s| s.recovery.as_ref()),
    }
}

/// One counter set merged over the replicas by each field's rule, present
/// only when every replica carries it. Faults, resources and recovery stay
/// totals ("how many crashes did this point survive", "how bad did it get
/// in any replica"); the protocol counters are then averaged.
fn merge_all<T: CounterSet + Default>(
    summaries: &[RunSummary],
    set: impl Fn(&RunSummary) -> Option<&T>,
) -> Option<T> {
    let mut total = T::default();
    for s in summaries {
        total.merge(set(s)?);
    }
    Some(total)
}

/// Per-oracle violation totals, present only when every replica ran the
/// same oracle suite (in the same order).
fn sum_oracle_outcomes(summaries: &[RunSummary]) -> Vec<(String, u64)> {
    let first = &summaries[0].oracle_outcomes;
    if first.is_empty()
        || !summaries.iter().all(|s| {
            s.oracle_outcomes.len() == first.len()
                && s.oracle_outcomes
                    .iter()
                    .zip(first)
                    .all(|((a, _), (b, _))| a == b)
        })
    {
        return Vec::new();
    }
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (
                name.clone(),
                summaries.iter().map(|s| s.oracle_outcomes[i].1).sum(),
            )
        })
        .collect()
}

/// Per-kind mean of frames and bytes, over the replicas that saw the kind.
fn mean_frame_kinds(summaries: &[RunSummary]) -> Vec<(String, u64, u64)> {
    let k = summaries.len() as f64;
    let mut totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for s in summaries {
        for (kind, frames, bytes) in &s.frame_kinds {
            let e = totals.entry(kind).or_insert((0, 0));
            e.0 += frames;
            e.1 += bytes;
        }
    }
    totals
        .into_iter()
        .map(|(kind, (frames, bytes))| {
            (
                kind.to_owned(),
                (frames as f64 / k).round() as u64,
                (bytes as f64 / k).round() as u64,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(ratio: f64, frames: u64) -> RunSummary {
        RunSummary {
            protocol: "x".into(),
            n: 10,
            correct: 10,
            messages: 5,
            delivery_ratio: ratio,
            min_delivery_ratio: ratio,
            frames_sent: frames,
            overlay_size: Some(4),
            overlay_ok: Some(true),
            ..RunSummary::default()
        }
    }

    #[test]
    fn aggregate_means_fields() {
        let agg = aggregate(&[summary(0.8, 100), summary(1.0, 200)]);
        assert!((agg.delivery_ratio - 0.9).abs() < 1e-9);
        assert_eq!(agg.frames_sent, 150);
        assert_eq!(agg.overlay_size, Some(4));
        assert_eq!(agg.overlay_ok, Some(true));
        assert!((agg.min_delivery_ratio - 0.8).abs() < 1e-9);
    }

    #[test]
    fn overlay_ok_requires_all_replicas() {
        let mut bad = summary(1.0, 100);
        bad.overlay_ok = Some(false);
        let agg = aggregate(&[summary(1.0, 100), bad]);
        assert_eq!(agg.overlay_ok, Some(false));
    }

    #[test]
    fn infinite_frames_per_delivery_is_excluded_not_zeroed() {
        let mut dead = summary(0.0, 100);
        dead.frames_per_delivery = f64::INFINITY;
        let mut live = summary(1.0, 100);
        live.frames_per_delivery = 12.0;
        // One dead replica must not halve the cost estimate.
        let agg = aggregate(&[dead.clone(), live]);
        assert!((agg.frames_per_delivery - 12.0).abs() < 1e-9);
        // All-dead stays infinite (no deliveries ever happened).
        let agg = aggregate(&[dead.clone(), dead]);
        assert!(agg.frames_per_delivery.is_infinite());
    }

    #[test]
    fn latency_percentiles_are_pooled() {
        let mut a = summary(1.0, 100);
        a.latencies_s = vec![0.1, 0.2];
        a.p99_latency_s = 0.2;
        let mut b = summary(1.0, 100);
        b.latencies_s = (1..=98).map(|i| i as f64).collect();
        b.p99_latency_s = 98.0;
        let agg = aggregate(&[a, b]);
        // Mean of per-run p99s would be 49.1; the pooled p99 over all 100
        // samples is the 99th-ranked one.
        assert!((agg.p99_latency_s - 97.0).abs() < 1e-9);
        assert_eq!(agg.latencies_s.len(), 100);
        // Pooled mean weights every delivery equally.
        let expected = (0.1 + 0.2 + (1..=98).map(|i| i as f64).sum::<f64>()) / 100.0;
        assert!((agg.mean_latency_s - expected).abs() < 1e-9);
    }

    #[test]
    fn counters_require_every_replica() {
        let mut with = summary(1.0, 100);
        with.counters = Some(byzcast_core::ProtocolCounters {
            gossip_packets: 10,
            ..Default::default()
        });
        let agg = aggregate(&[with.clone(), with.clone()]);
        assert_eq!(agg.counters.unwrap().gossip_packets, 10);
        let agg = aggregate(&[with, summary(1.0, 100)]);
        assert!(agg.counters.is_none());
    }

    #[test]
    #[should_panic(expected = "zero summaries")]
    fn empty_aggregate_panics() {
        aggregate(&[]);
    }
}

#[cfg(test)]
mod replicate_tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use byzcast_sim::{Field, SimConfig};

    fn config() -> ScenarioConfig {
        ScenarioConfig {
            n: 20,
            sim: SimConfig {
                field: Field::new(450.0, 450.0),
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }

    #[test]
    fn replicate_varies_only_the_seed() {
        let config = config();
        let w = Workload {
            count: 3,
            ..Workload::default()
        };
        let summaries = replicate(&config, &w, &[4, 5]);
        assert_eq!(summaries.len(), 2);
        // Different seeds almost surely differ in frame counts…
        assert_ne!(summaries[0].frames_sent, summaries[1].frames_sent);
        // …while replicating one seed reproduces exactly.
        let again = replicate(&config, &w, &[4]);
        assert_eq!(again[0].frames_sent, summaries[0].frames_sent);
        assert_eq!(again[0].delivery_ratio, summaries[0].delivery_ratio);
    }
}
