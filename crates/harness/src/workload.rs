//! Application workload generation.

use byzcast_sim::{Message, NodeId, SimDuration, SimTime, Simulator};

/// A broadcast workload: which nodes send, how many messages, how large,
/// and at what rate.
///
/// ```
/// use byzcast_harness::Workload;
/// use byzcast_sim::NodeId;
/// let w = Workload::single_sender(NodeId(0), 5);
/// let schedule = w.schedule();
/// assert_eq!(schedule.len(), 5);
/// assert!(schedule.iter().all(|&(_, sender, _, _)| sender == NodeId(0)));
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    /// Sending nodes, used round-robin.
    pub senders: Vec<NodeId>,
    /// Total messages to inject.
    pub count: usize,
    /// Application payload size in bytes.
    pub payload_bytes: usize,
    /// Warm-up before the first message (lets the overlay converge).
    pub start: SimDuration,
    /// Spacing between consecutive messages.
    pub interval: SimDuration,
    /// Extra time to run after the last injection so stragglers recover.
    pub drain: SimDuration,
}

impl Workload {
    /// A single sender injecting `count` messages.
    pub fn single_sender(sender: NodeId, count: usize) -> Self {
        Workload {
            senders: vec![sender],
            count,
            ..Workload::default()
        }
    }

    /// The injection schedule: `(time, sender, payload_id, size)` tuples.
    /// Payload ids start at 1.
    pub fn schedule(&self) -> Vec<(SimDuration, NodeId, u64, usize)> {
        assert!(
            !self.senders.is_empty(),
            "workload needs at least one sender"
        );
        (0..self.count)
            .map(|i| {
                let at = self.start + self.interval.saturating_mul(i as u64);
                let sender = self.senders[i % self.senders.len()];
                (at, sender, i as u64 + 1, self.payload_bytes)
            })
            .collect()
    }

    /// Total simulated time the run needs: warm-up + injections + drain.
    pub fn horizon(&self) -> SimDuration {
        self.start
            + self
                .interval
                .saturating_mul(self.count.saturating_sub(1) as u64)
            + self.drain
    }

    /// Schedules the injections on `sim` and runs it to the horizon.
    pub fn drive<M: Message + 'static>(&self, sim: &mut Simulator<M>) {
        for (at, sender, payload_id, size) in self.schedule() {
            sim.schedule_app_broadcast(at, sender, payload_id, size);
        }
        sim.run_until(SimTime::ZERO + self.horizon());
    }

    /// The injection rate δ (messages per second) used in the paper's buffer
    /// bound; zero when the interval is zero.
    pub fn delta(&self) -> f64 {
        let s = self.interval.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            1.0 / s
        }
    }
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            senders: vec![NodeId(0)],
            count: 10,
            payload_bytes: 512,
            start: SimDuration::from_secs(5),
            interval: SimDuration::from_millis(500),
            drain: SimDuration::from_secs(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_round_robins_senders() {
        let w = Workload {
            senders: vec![NodeId(1), NodeId(2)],
            count: 4,
            start: SimDuration::from_secs(1),
            interval: SimDuration::from_secs(2),
            ..Workload::default()
        };
        let s = w.schedule();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0], (SimDuration::from_secs(1), NodeId(1), 1, 512));
        assert_eq!(s[1], (SimDuration::from_secs(3), NodeId(2), 2, 512));
        assert_eq!(s[2].1, NodeId(1));
        assert_eq!(s[3].1, NodeId(2));
    }

    #[test]
    fn horizon_covers_all_injections_plus_drain() {
        let w = Workload {
            count: 3,
            start: SimDuration::from_secs(5),
            interval: SimDuration::from_secs(1),
            drain: SimDuration::from_secs(10),
            ..Workload::default()
        };
        assert_eq!(w.horizon(), SimDuration::from_secs(17));
    }

    #[test]
    fn delta_is_injection_rate() {
        let w = Workload {
            interval: SimDuration::from_millis(250),
            ..Workload::default()
        };
        assert!((w.delta() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one sender")]
    fn empty_senders_panics() {
        let w = Workload {
            senders: vec![],
            ..Workload::default()
        };
        w.schedule();
    }
}
