//! A simplified CSMA broadcast MAC.
//!
//! Broadcast frames in IEEE 802.11 use no RTS/CTS handshake and no link-level
//! acknowledgements: a sender waits for the medium to be idle for a DIFS,
//! counts down a random backoff drawn from the minimum contention window, and
//! transmits. This module models exactly that — per-node outgoing queue,
//! carrier sense, random backoff — which is what makes collisions possible
//! but not rampant, matching the loss environment the paper's recovery
//! mechanisms (gossip + request) are designed for.

use crate::time::SimDuration;

/// MAC-layer timing parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MacConfig {
    /// Slot time in microseconds (802.11 DSSS: 20 µs).
    pub slot_us: u64,
    /// Distributed inter-frame space in microseconds (802.11 DSSS: 50 µs).
    pub difs_us: u64,
    /// Contention window in slots; broadcast always draws from `[0, cw)`.
    pub cw_slots: u64,
    /// Bound on the queue of frames awaiting transmission per node; frames
    /// beyond it are dropped and counted (models interface-queue overflow).
    pub queue_capacity: usize,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            slot_us: 20,
            difs_us: 50,
            cw_slots: 32,
            queue_capacity: 512,
        }
    }
}

impl MacConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.cw_slots == 0 {
            return Err("cw_slots must be positive".to_owned());
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be positive".to_owned());
        }
        Ok(())
    }

    /// A random DIFS + backoff delay, given a uniform draw `slots` in
    /// `[0, cw_slots)`.
    pub fn backoff_delay(&self, slots: u64) -> SimDuration {
        debug_assert!(slots < self.cw_slots);
        SimDuration::from_micros(self.difs_us + slots * self.slot_us)
    }
}

/// Per-node MAC state tracked by the engine.
///
/// The generic parameter is the wire message type; the MAC itself never looks
/// inside frames.
#[derive(Debug)]
pub struct MacState<M> {
    queue: std::collections::VecDeque<M>,
    /// Whether a `MacAttempt` event is already pending for this node, so we
    /// never schedule two concurrent attempt chains.
    attempt_pending: bool,
}

impl<M> Default for MacState<M> {
    fn default() -> Self {
        MacState {
            queue: std::collections::VecDeque::new(),
            attempt_pending: false,
        }
    }
}

impl<M> MacState<M> {
    /// Bytes its queue allocates (from its capacity).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<M>()
    }

    /// Enqueues an outgoing frame. Returns `false` if the queue is full (the
    /// engine counts the drop in `Metrics::queue_drops`).
    pub fn enqueue(&mut self, msg: M, capacity: usize) -> bool {
        if self.queue.len() >= capacity {
            false
        } else {
            self.queue.push_back(msg);
            true
        }
    }

    /// Removes the frame at the head of the queue.
    pub fn dequeue(&mut self) -> Option<M> {
        self.queue.pop_front()
    }

    /// Whether frames are waiting.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Number of frames waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether a `MacAttempt` event chain is live for this node.
    pub fn attempt_pending(&self) -> bool {
        self.attempt_pending
    }

    /// Marks the attempt chain live/idle.
    pub fn set_attempt_pending(&mut self, v: bool) {
        self.attempt_pending = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_respects_capacity() {
        let mut m: MacState<u32> = MacState::default();
        assert!(m.enqueue(1, 2));
        assert!(m.enqueue(2, 2));
        assert!(!m.enqueue(3, 2));
        assert_eq!(m.queue_len(), 2);
        assert_eq!(m.dequeue(), Some(1));
        assert_eq!(m.dequeue(), Some(2));
        assert_eq!(m.dequeue(), None);
        assert!(!m.has_pending());
    }

    #[test]
    fn backoff_delay_formula() {
        let c = MacConfig {
            slot_us: 20,
            difs_us: 50,
            cw_slots: 32,
            queue_capacity: 8,
        };
        assert_eq!(c.backoff_delay(0), SimDuration::from_micros(50));
        assert_eq!(c.backoff_delay(31), SimDuration::from_micros(50 + 31 * 20));
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(MacConfig {
            cw_slots: 0,
            ..MacConfig::default()
        }
        .validate()
        .is_err());
        assert!(MacConfig {
            queue_capacity: 0,
            ..MacConfig::default()
        }
        .validate()
        .is_err());
        assert!(MacConfig::default().validate().is_ok());
    }

    #[test]
    fn flags_toggle() {
        let mut m: MacState<()> = MacState::default();
        assert!(!m.attempt_pending());
        m.set_attempt_pending(true);
        assert!(m.attempt_pending());
    }
}
