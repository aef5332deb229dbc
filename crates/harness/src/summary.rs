//! Distilling simulator metrics into per-run summaries.

use byzcast_core::{ProtocolCounters, RecoveryStats, ResourceStats};
use byzcast_sim::{DeliveryRecord, FaultStats, Metrics, NodeId};

/// The distilled result of one simulation run — the quantities the paper's
/// evaluation plots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunSummary {
    /// Protocol label ("byzcast/cds", "flooding", "2-overlays", …).
    pub protocol: String,
    /// Total node count.
    pub n: usize,
    /// Number of correct (non-adversarial) nodes.
    pub correct: usize,
    /// Application messages injected by correct senders.
    pub messages: usize,
    /// Mean over messages of (correct nodes accepting) / (correct nodes).
    pub delivery_ratio: f64,
    /// The worst per-message delivery ratio.
    pub min_delivery_ratio: f64,
    /// Total frames put on the air.
    pub frames_sent: u64,
    /// Total bytes put on the air.
    pub bytes_sent: u64,
    /// Data frames (payload-bearing).
    pub data_frames: u64,
    /// Control frames (gossip, requests, finds, beacons).
    pub control_frames: u64,
    /// Frames per successful correct-node delivery (the efficiency metric).
    pub frames_per_delivery: f64,
    /// Mean accept latency in seconds.
    pub mean_latency_s: f64,
    /// 99th-percentile accept latency in seconds.
    pub p99_latency_s: f64,
    /// Maximum accept latency in seconds.
    pub max_latency_s: f64,
    /// Receptions destroyed by collisions.
    pub collisions: u64,
    /// Receptions destroyed by fading/noise.
    pub noise_losses: u64,
    /// Overlay size at the end of the run (byzcast only).
    pub overlay_size: Option<usize>,
    /// Whether correct overlay members form a connected cover of the correct
    /// nodes at the end of the run (byzcast only).
    pub overlay_ok: Option<bool>,
    /// Largest message-buffer occupancy across correct nodes.
    pub store_high_water: usize,
    /// Suspicions by correct nodes of adversarial nodes (good catches).
    pub true_suspicions: u64,
    /// Suspicions by correct nodes of correct nodes (FD mistakes).
    pub false_suspicions: u64,
    /// Sorted per-delivery accept latencies in seconds. Kept so replicated
    /// runs can be aggregated with *pooled* percentiles instead of the
    /// biased mean-of-percentiles.
    pub latencies_s: Vec<f64>,
    /// Protocol counters summed over correct nodes (byzcast only).
    pub counters: Option<ProtocolCounters>,
    /// Frames and bytes sent per wire-message kind, sorted by kind.
    pub frame_kinds: Vec<(String, u64, u64)>,
    /// Executed fault-plan counters (`None` when the run had no fault plan,
    /// keeping fault-free records byte-identical to before the layer
    /// existed).
    pub faults: Option<FaultStats>,
    /// Per-oracle violation counts from an invariant-checked run, in oracle
    /// order (empty when no oracles ran).
    pub oracle_outcomes: Vec<(String, u64)>,
    /// Resource-governance stats merged over correct nodes (counters summed,
    /// peaks maxed). `None` when the run is ungoverned, keeping ungoverned
    /// records byte-identical to before the governance layer existed.
    pub resources: Option<ResourceStats>,
    /// Recovery-escalation stats merged over correct nodes (counters summed,
    /// the escalation high-water maxed). `None` when the recovery envelope is
    /// off, keeping pre-escalation records byte-identical to before the
    /// layer existed.
    pub recovery: Option<RecoveryStats>,
}

impl RunSummary {
    /// Computes the protocol-independent part of the summary from simulator
    /// metrics. `correct[i]` marks node `i` as non-adversarial.
    pub fn from_metrics(protocol: impl Into<String>, metrics: &Metrics, correct: &[bool]) -> Self {
        let n = correct.len();
        let correct_count = correct.iter().filter(|&&c| c).count();

        // Per-message delivery among correct nodes, for messages from
        // correct senders.
        let mut ratios: Vec<f64> = Vec::new();
        let mut latencies: Vec<f64> = Vec::new();
        let mut total_correct_deliveries: u64 = 0;
        let mut messages = 0usize;
        let by_payload = DeliveriesByPayload::new(metrics);
        let mut deliverers: Vec<NodeId> = Vec::new();
        for b in &metrics.broadcasts {
            if !correct[b.origin.index()] {
                continue;
            }
            messages += 1;
            deliverers.clear();
            for d in by_payload.of(b.origin, b.payload_id) {
                if correct[d.node.index()] {
                    deliverers.push(d.node);
                    latencies.push(d.time.saturating_since(b.time).as_secs_f64());
                }
            }
            deliverers.sort_unstable();
            deliverers.dedup();
            total_correct_deliveries += deliverers.len() as u64;
            ratios.push(if correct_count == 0 {
                0.0
            } else {
                deliverers.len() as f64 / correct_count as f64
            });
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let mean_latency_s = if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        let p99_latency_s = percentile(&latencies, 0.99);
        let max_latency_s = latencies.last().copied().unwrap_or(0.0);

        let data_frames = metrics.frames_of_kind("data");
        let control_frames = metrics.frames_sent - data_frames;

        RunSummary {
            protocol: protocol.into(),
            n,
            correct: correct_count,
            messages,
            delivery_ratio: mean(&ratios),
            min_delivery_ratio: ratios
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
                .min(1.0),
            frames_sent: metrics.frames_sent,
            bytes_sent: metrics.bytes_sent,
            data_frames,
            control_frames,
            frames_per_delivery: if total_correct_deliveries == 0 {
                f64::INFINITY
            } else {
                metrics.frames_sent as f64 / total_correct_deliveries as f64
            },
            mean_latency_s,
            p99_latency_s,
            max_latency_s,
            collisions: metrics.collision_losses,
            noise_losses: metrics.noise_losses,
            latencies_s: latencies,
            frame_kinds: metrics
                .kind_breakdown()
                .map(|(kind, frames, bytes)| (kind.to_owned(), frames, bytes))
                .collect(),
            ..RunSummary::default()
        }
    }
}

/// A run's deliveries sorted by `(payload id, origin)`, record order kept
/// within each pair: one sort, then each broadcast finds its deliveries by
/// binary search instead of scanning every delivery of the run.
pub(crate) struct DeliveriesByPayload<'a>(Vec<&'a DeliveryRecord>);

impl<'a> DeliveriesByPayload<'a> {
    pub(crate) fn new(metrics: &'a Metrics) -> Self {
        let mut sorted: Vec<&DeliveryRecord> = metrics.deliveries.iter().collect();
        sorted.sort_by_key(|d| (d.payload_id, d.origin));
        DeliveriesByPayload(sorted)
    }

    /// The deliveries of `payload_id` claiming `origin`, in record order.
    pub(crate) fn of(&self, origin: NodeId, payload_id: u64) -> &[&'a DeliveryRecord] {
        let key = (payload_id, origin);
        let lo = self.0.partition_point(|d| (d.payload_id, d.origin) < key);
        let hi = lo + self.0[lo..].partition_point(|d| (d.payload_id, d.origin) == key);
        &self.0[lo..hi]
    }
}

pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile of a sorted slice (nearest-rank).
pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_sim::metrics::{BroadcastRecord, DeliveryRecord};
    use byzcast_sim::SimTime;

    fn metrics_with_one_broadcast() -> Metrics {
        let mut m = Metrics::default();
        m.broadcasts.push(BroadcastRecord {
            origin: NodeId(0),
            payload_id: 1,
            time: SimTime::from_secs(1),
            size_bytes: 100,
        });
        for (node, at) in [(0u32, 1.0f64), (1, 1.5), (2, 2.0)] {
            m.deliveries.push(DeliveryRecord {
                node: NodeId(node),
                origin: NodeId(0),
                payload_id: 1,
                time: SimTime::from_micros((at * 1e6) as u64),
            });
        }
        m.frames_sent = 30;
        m
    }

    #[test]
    fn delivery_ratio_counts_correct_nodes_only() {
        let m = metrics_with_one_broadcast();
        // All four correct: 3 of 4 delivered.
        let s = RunSummary::from_metrics("x", &m, &[true; 4]);
        assert!((s.delivery_ratio - 0.75).abs() < 1e-9);
        assert_eq!(s.messages, 1);
        // Node 3 adversarial: 3 of 3 correct delivered.
        let s = RunSummary::from_metrics("x", &m, &[true, true, true, false]);
        assert!((s.delivery_ratio - 1.0).abs() < 1e-9);
        assert_eq!(s.correct, 3);
    }

    #[test]
    fn broadcasts_from_adversaries_are_not_counted() {
        let mut m = metrics_with_one_broadcast();
        m.broadcasts[0].origin = NodeId(3);
        let s = RunSummary::from_metrics("x", &m, &[true, true, true, false]);
        assert_eq!(s.messages, 0);
        assert_eq!(s.delivery_ratio, 0.0);
    }

    #[test]
    fn latency_statistics() {
        let m = metrics_with_one_broadcast();
        let s = RunSummary::from_metrics("x", &m, &[true; 4]);
        // Latencies: 0, 0.5, 1.0 → mean 0.5, max 1.0.
        assert!((s.mean_latency_s - 0.5).abs() < 1e-9);
        assert!((s.max_latency_s - 1.0).abs() < 1e-9);
        assert!(s.p99_latency_s <= s.max_latency_s);
    }

    #[test]
    fn frames_per_delivery() {
        let m = metrics_with_one_broadcast();
        let s = RunSummary::from_metrics("x", &m, &[true; 4]);
        assert!((s.frames_per_delivery - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_well_defined() {
        let m = Metrics::default();
        let s = RunSummary::from_metrics("x", &m, &[true, true]);
        assert_eq!(s.messages, 0);
        assert_eq!(s.delivery_ratio, 0.0);
        assert!(s.frames_per_delivery.is_infinite());
        assert_eq!(s.mean_latency_s, 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn duplicates_and_shared_payload_ids_count_per_origin() {
        // Origins 0 and 1 both use payload id 1; node 1 delivers 0's message
        // twice, node 2 only 1's.
        let mut m = metrics_with_one_broadcast();
        m.broadcasts.push(BroadcastRecord {
            origin: NodeId(1),
            payload_id: 1,
            time: SimTime::from_secs(1),
            size_bytes: 100,
        });
        m.deliveries.retain(|d| d.node != NodeId(2));
        for (node, origin, at) in [(1u32, 0u32, 3.0f64), (2, 1, 2.0), (1, 1, 1.25)] {
            m.deliveries.push(DeliveryRecord {
                node: NodeId(node),
                origin: NodeId(origin),
                payload_id: 1,
                time: SimTime::from_micros((at * 1e6) as u64),
            });
        }
        let s = RunSummary::from_metrics("x", &m, &[true; 4]);
        assert_eq!(s.messages, 2);
        // 0's message reached nodes 0 and 1, 1's reached nodes 1 and 2.
        assert!((s.delivery_ratio - 0.5).abs() < 1e-9);
        assert!((s.min_delivery_ratio - 0.5).abs() < 1e-9);
        // Four distinct deliverers over 30 frames.
        assert!((s.frames_per_delivery - 7.5).abs() < 1e-9);
        // Every delivery, the duplicate included, is a latency sample.
        assert_eq!(s.latencies_s, vec![0.0, 0.25, 0.5, 1.0, 2.0]);
    }
}
