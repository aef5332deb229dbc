//! Simulation metrics: everything the experiment harness reports comes from
//! here.
//!
//! The engine counts frames and bytes by message kind, radio-level losses by
//! cause, and records every application-level broadcast and delivery with
//! timestamps so the harness can compute delivery ratios and latency
//! distributions per payload.

use std::collections::BTreeMap;

use crate::counter_set;
use crate::node::NodeId;
use crate::time::SimTime;

/// One application-level delivery (`accept` in the paper's terms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// The accepting node.
    pub node: NodeId,
    /// The claimed originator.
    pub origin: NodeId,
    /// The workload-assigned payload id.
    pub payload_id: u64,
    /// When the delivery happened.
    pub time: SimTime,
}

/// One application-level broadcast injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BroadcastRecord {
    /// The originating node.
    pub origin: NodeId,
    /// The workload-assigned payload id.
    pub payload_id: u64,
    /// When the workload injected it.
    pub time: SimTime,
    /// Application payload size in bytes.
    pub size_bytes: usize,
}

/// Per-node counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeMetrics {
    /// Frames this node put on the air.
    pub frames_sent: u64,
    /// Bytes this node put on the air.
    pub bytes_sent: u64,
    /// Frames this node received successfully.
    pub frames_received: u64,
    /// Frames lost at this node to collisions.
    pub collision_losses: u64,
    /// Frames dropped because this node's interface queue overflowed.
    pub queue_drops: u64,
}

counter_set! {
    /// Counters for executed fault-plan events and their radio-level effects.
    ///
    /// All-zero (the `Default`) when the run had no fault plan, so metrics from
    /// faulty and fault-free runs still compare with `==` in differential tests.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Crash events executed.
        pub crashes: u64 => sum,
        /// Restart events executed.
        pub restarts: u64 => sum,
        /// Byzantine activations delivered (`SetByzantine { active: true }`).
        pub byz_activations: u64 => sum,
        /// Byzantine deactivations delivered (`SetByzantine { active: false }`).
        pub byz_deactivations: u64 => sum,
        /// Jam windows opened.
        pub jam_starts: u64 => sum,
        /// Jam windows closed.
        pub jam_ends: u64 => sum,
        /// Receptions destroyed by an active jam region.
        pub jam_losses: u64 => sum,
        /// Application broadcasts dropped because the origin node was down.
        pub injections_dropped: u64 => sum,
    }
}

/// All metrics for a run.
///
/// Compares with `==` so differential tests can assert that two runs (e.g.
/// spatial index on vs. off) produced bit-identical observable behaviour.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Frames sent, bucketed by [`crate::node::Message::kind`].
    pub frames_by_kind: BTreeMap<&'static str, u64>,
    /// Bytes sent, bucketed by message kind.
    pub bytes_by_kind: BTreeMap<&'static str, u64>,
    /// Total frames put on the air.
    pub frames_sent: u64,
    /// Total bytes put on the air.
    pub bytes_sent: u64,
    /// Successful frame receptions (across all receivers).
    pub frames_received: u64,
    /// Receptions destroyed by collision.
    pub collision_losses: u64,
    /// Receptions destroyed by fading/background noise.
    pub noise_losses: u64,
    /// Receptions missed because the receiver was itself transmitting.
    pub half_duplex_losses: u64,
    /// Frames dropped at the sender's interface queue.
    pub queue_drops: u64,
    /// Every application-level broadcast injected.
    pub broadcasts: Vec<BroadcastRecord>,
    /// Every application-level delivery.
    pub deliveries: Vec<DeliveryRecord>,
    /// Per-node counters, indexed by `NodeId::index`.
    pub per_node: Vec<NodeMetrics>,
    /// Fault-injection counters (all zero when the run had no fault plan).
    pub faults: FaultStats,
}

impl Metrics {
    /// Creates metrics for `n` nodes.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_node: vec![NodeMetrics::default(); n],
            ..Metrics::default()
        }
    }

    /// Records a frame transmission.
    pub fn record_send(&mut self, node: NodeId, kind: &'static str, bytes: usize) {
        *self.frames_by_kind.entry(kind).or_insert(0) += 1;
        *self.bytes_by_kind.entry(kind).or_insert(0) += bytes as u64;
        self.frames_sent += 1;
        self.bytes_sent += bytes as u64;
        let pm = &mut self.per_node[node.index()];
        pm.frames_sent += 1;
        pm.bytes_sent += bytes as u64;
    }

    /// Records a successful reception at `node`.
    pub fn record_reception(&mut self, node: NodeId) {
        self.frames_received += 1;
        self.per_node[node.index()].frames_received += 1;
    }

    /// Records a reception lost to collision at `node`.
    pub fn record_collision(&mut self, node: NodeId) {
        self.collision_losses += 1;
        self.per_node[node.index()].collision_losses += 1;
    }

    /// Records a reception lost to fading or background noise.
    pub fn record_noise_loss(&mut self) {
        self.noise_losses += 1;
    }

    /// Records a reception missed because the receiver was transmitting.
    pub fn record_half_duplex_loss(&mut self) {
        self.half_duplex_losses += 1;
    }

    /// Records a sender-side interface-queue drop at `node`.
    pub fn record_queue_drop(&mut self, node: NodeId) {
        self.queue_drops += 1;
        self.per_node[node.index()].queue_drops += 1;
    }

    /// Deliveries of a particular payload.
    pub fn deliveries_of(&self, payload_id: u64) -> impl Iterator<Item = &DeliveryRecord> {
        self.deliveries
            .iter()
            .filter(move |d| d.payload_id == payload_id)
    }

    /// Frames sent of a particular kind.
    pub fn frames_of_kind(&self, kind: &str) -> u64 {
        self.frames_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Bytes sent of a particular kind.
    pub fn bytes_of_kind(&self, kind: &str) -> u64 {
        self.bytes_by_kind.get(kind).copied().unwrap_or(0)
    }

    /// `(kind, frames, bytes)` per message kind, in kind order — the
    /// per-run breakdown the harness exports to JSONL records.
    pub fn kind_breakdown(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.frames_by_kind
            .iter()
            .map(|(&kind, &frames)| (kind, frames, self.bytes_of_kind(kind)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting_by_kind_and_node() {
        let mut m = Metrics::new(3);
        m.record_send(NodeId(0), "data", 100);
        m.record_send(NodeId(0), "data", 50);
        m.record_send(NodeId(2), "gossip", 20);
        assert_eq!(m.frames_sent, 3);
        assert_eq!(m.bytes_sent, 170);
        assert_eq!(m.frames_of_kind("data"), 2);
        assert_eq!(m.bytes_of_kind("data"), 150);
        assert_eq!(m.frames_of_kind("gossip"), 1);
        assert_eq!(m.frames_of_kind("nope"), 0);
        assert_eq!(m.per_node[0].frames_sent, 2);
        assert_eq!(m.per_node[2].bytes_sent, 20);
        assert_eq!(m.per_node[1], NodeMetrics::default());
    }

    #[test]
    fn loss_counters() {
        let mut m = Metrics::new(2);
        m.record_collision(NodeId(1));
        m.record_noise_loss();
        m.record_half_duplex_loss();
        m.record_queue_drop(NodeId(0));
        m.record_reception(NodeId(1));
        assert_eq!(m.collision_losses, 1);
        assert_eq!(m.noise_losses, 1);
        assert_eq!(m.half_duplex_losses, 1);
        assert_eq!(m.queue_drops, 1);
        assert_eq!(m.frames_received, 1);
        assert_eq!(m.per_node[1].collision_losses, 1);
        assert_eq!(m.per_node[1].frames_received, 1);
        assert_eq!(m.per_node[0].queue_drops, 1);
    }

    #[test]
    fn deliveries_of_filters_by_payload() {
        let mut m = Metrics::new(2);
        m.deliveries.push(DeliveryRecord {
            node: NodeId(0),
            origin: NodeId(1),
            payload_id: 7,
            time: SimTime::from_secs(1),
        });
        m.deliveries.push(DeliveryRecord {
            node: NodeId(1),
            origin: NodeId(1),
            payload_id: 8,
            time: SimTime::from_secs(2),
        });
        assert_eq!(m.deliveries_of(7).count(), 1);
        assert_eq!(m.deliveries_of(9).count(), 0);
    }
}
