//! Simulation metrics: everything the experiment harness reports comes from
//! here.
//!
//! The engine counts frames and bytes by message kind and radio-level losses
//! by cause, as run totals, and records every application-level broadcast and
//! delivery with timestamps so the harness can compute delivery ratios and
//! latency distributions per payload. Nothing here is kept per node: a test
//! that needs one node's share counts it in its own protocol, or builds a
//! scenario in which only that node can contribute to the total.

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

/// All metrics for a run: totals over every node, plus the broadcast and
/// delivery records.
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
    /// Fault-injection counters (all zero when the run had no fault plan).
    pub faults: FaultStats,
}

impl Metrics {
    /// Records a frame transmission.
    pub fn record_send(&mut self, kind: &'static str, bytes: usize) {
        *self.frames_by_kind.entry(kind).or_insert(0) += 1;
        *self.bytes_by_kind.entry(kind).or_insert(0) += bytes as u64;
        self.frames_sent += 1;
        self.bytes_sent += bytes as u64;
    }

    /// Records a successful reception.
    pub fn record_reception(&mut self) {
        self.frames_received += 1;
    }

    /// Records a reception lost to collision.
    pub fn record_collision(&mut self) {
        self.collision_losses += 1;
    }

    /// Records a reception lost to fading or background noise.
    pub fn record_noise_loss(&mut self) {
        self.noise_losses += 1;
    }

    /// Records a reception missed because the receiver was transmitting.
    pub fn record_half_duplex_loss(&mut self) {
        self.half_duplex_losses += 1;
    }

    /// Records a sender-side interface-queue drop.
    pub fn record_queue_drop(&mut self) {
        self.queue_drops += 1;
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
    fn send_accounting_by_kind() {
        let mut m = Metrics::default();
        m.record_send("data", 100);
        m.record_send("data", 50);
        m.record_send("gossip", 20);
        assert_eq!(m.frames_sent, 3);
        assert_eq!(m.bytes_sent, 170);
        assert_eq!(m.frames_of_kind("data"), 2);
        assert_eq!(m.bytes_of_kind("data"), 150);
        assert_eq!(m.frames_of_kind("gossip"), 1);
        assert_eq!(m.frames_of_kind("nope"), 0);
    }

    #[test]
    fn loss_counters() {
        let mut m = Metrics::default();
        m.record_collision();
        m.record_noise_loss();
        m.record_half_duplex_loss();
        m.record_queue_drop();
        m.record_reception();
        assert_eq!(m.collision_losses, 1);
        assert_eq!(m.noise_losses, 1);
        assert_eq!(m.half_duplex_losses, 1);
        assert_eq!(m.queue_drops, 1);
        assert_eq!(m.frames_received, 1);
    }

    #[test]
    fn deliveries_of_filters_by_payload() {
        let mut m = Metrics::default();
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
