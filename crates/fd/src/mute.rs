//! The MUTE failure detector (classes ◇P_mute and I_mute).
//!
//! "The goal of the MUTE failure detector is to detect when a process fails
//! to send a message with a header it is supposed to." Its interface method
//! is `expect(message header, set of nodes, one or all)`; the suggested
//! implementation — which this module follows — "consists of setting a
//! timeout for each message reported to the failure detector with the
//! expect method. When the timer times out, the corresponding nodes that
//! failed to send anticipated messages are suspected for a certain period of
//! time."
//!
//! The dissemination protocol only ever expects one thing: that one of a
//! set of nodes sends the data message `(origin, seq)`. So an expectation
//! here names a [`DataId`] and is met by any one listed sender (the paper's
//! `one` mode); the header wildcards and the `all` mode go unused.
//!
//! The protocol feeds every received data message into
//! [`MuteDetector::observe`]; [`crate::FailureDetectors::tick`] fires
//! deadlines, ages the miss counters and expires old suspicions (the aging
//! mechanism that lets the detector "recover from mistakes").

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::peer::{Detector::Mute, Peers};

/// A data message as MUTE expects it: `(origin, seq)`.
pub type DataId = (NodeId, u64);

/// MUTE detector parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MuteConfig {
    /// How long after `expect` the expected message must arrive.
    pub expect_timeout: SimDuration,
    /// Deadline misses at which a node becomes suspected. Values above one
    /// keep single collision-induced losses from suspecting honest
    /// neighbours, while persistently mute nodes accumulate misses with
    /// every expectation ("the suspicion counters for each node are
    /// periodically decremented" — the paper's aging mechanism implies
    /// counters rather than one-shot suspicion).
    pub threshold: u32,
    /// How often miss counters are decremented by one.
    pub decay_interval: SimDuration,
    /// How long a node that crossed the threshold stays suspected.
    pub suspicion_duration: SimDuration,
    /// Cap on simultaneously tracked expectations (oldest dropped beyond it),
    /// bounding memory against verbose adversaries.
    pub max_expectations: usize,
}

impl Default for MuteConfig {
    fn default() -> Self {
        MuteConfig {
            expect_timeout: SimDuration::from_millis(4000),
            threshold: 4,
            decay_interval: SimDuration::from_secs(8),
            suspicion_duration: SimDuration::from_secs(10),
            max_expectations: 4096,
        }
    }
}

#[derive(Clone, Debug)]
struct Expectation {
    id: DataId,
    deadline: SimTime,
    /// The nodes any one of which may send the message.
    waiting_on: Vec<NodeId>,
    satisfied: bool,
}

/// The MUTE failure detector of one node: its expectations and aging
/// clock; the miss counters and suspicions live in the peer rows.
///
/// ```
/// use std::collections::BTreeMap;
/// use byzcast_fd::{Detector, FailureDetectors, MuteConfig, Peers};
/// use byzcast_sim::{NodeId, SimDuration, SimTime};
///
/// let mut fd = FailureDetectors::new(MuteConfig {
///     expect_timeout: SimDuration::from_millis(100),
///     threshold: 1,
///     ..MuteConfig::default()
/// });
/// let mut peers = BTreeMap::new();
/// let t = SimTime::from_secs(1);
/// // Node 5 should forward message 1 of origin 9…
/// fd.mute.expect(t, (NodeId(9), 1), &[NodeId(5)]);
/// // …but never does:
/// let late = t + SimDuration::from_millis(200);
/// fd.tick(late, &mut peers);
/// assert!(peers.suspected(Detector::Mute, NodeId(5), late));
/// ```
#[derive(Debug)]
pub struct MuteDetector {
    config: MuteConfig,
    expectations: Vec<Expectation>,
    /// When the miss counters were last aged.
    pub(crate) last_decay: SimTime,
}

impl MuteDetector {
    /// Creates a detector.
    pub fn new(config: MuteConfig) -> Self {
        MuteDetector {
            config,
            expectations: Vec::new(),
            last_decay: SimTime::ZERO,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &MuteConfig {
        &self.config
    }

    /// Registers an expectation: one of `nodes` should send the data
    /// message `id` within the expect timeout.
    ///
    /// A registration for a message that already has an unsatisfied
    /// expectation merges into it: new nodes join its waiting set, and the
    /// earlier deadline stays.
    pub fn expect(&mut self, now: SimTime, id: DataId, nodes: &[NodeId]) {
        if nodes.is_empty() {
            return;
        }
        if let Some(existing) = self
            .expectations
            .iter_mut()
            .find(|e| !e.satisfied && e.id == id)
        {
            for &n in nodes {
                if !existing.waiting_on.contains(&n) {
                    existing.waiting_on.push(n);
                }
            }
            return;
        }
        if self.expectations.len() >= self.config.max_expectations {
            self.expectations.remove(0);
        }
        self.expectations.push(Expectation {
            id,
            deadline: now + self.config.expect_timeout,
            waiting_on: nodes.to_vec(),
            satisfied: false,
        });
    }

    /// Feeds a data message `id` sent by `from`: satisfies the expectations
    /// on `id` that list `from`.
    pub fn observe(&mut self, id: DataId, from: NodeId) {
        for e in &mut self.expectations {
            if !e.satisfied && e.id == id && e.waiting_on.contains(&from) {
                e.satisfied = true;
            }
        }
    }

    /// Marks every expectation on `id` satisfied regardless of sender —
    /// used when the awaited message was *obtained* through some other
    /// channel (e.g. a different holder answered the recovery request
    /// first), which discharges the original sender's obligation.
    pub fn satisfy(&mut self, id: DataId) {
        for e in &mut self.expectations {
            if e.id == id {
                e.satisfied = true;
            }
        }
    }

    /// Fires expired deadlines, counting a miss against every node listed
    /// by a missed expectation, and drops the expectations that are done.
    /// Returns whether a miss raised a suspicion.
    pub(crate) fn fire(&mut self, now: SimTime, peers: &mut impl Peers) -> bool {
        let (config, mut raised) = (&self.config, false);
        self.expectations.retain(|e| {
            if !e.satisfied && e.deadline <= now {
                for &n in &e.waiting_on {
                    let row = peers.peer_mut(n);
                    raised |= row.offend(Mute, config.threshold, now + config.suspicion_duration);
                }
            }
            !e.satisfied && e.deadline > now
        });
        raised
    }

    /// Bytes its expectations allocate (from their capacities).
    pub fn heap_bytes(&self) -> usize {
        self.expectations.capacity() * std::mem::size_of::<Expectation>()
            + self
                .expectations
                .iter()
                .map(|e| e.waiting_on.capacity() * std::mem::size_of::<NodeId>())
                .sum::<usize>()
    }

    /// Number of live (unsatisfied, unexpired) expectations.
    pub fn pending_expectations(&self) -> usize {
        self.expectations.iter().filter(|e| !e.satisfied).count()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{Detector, FailureDetectors, PeerFd};

    /// The detectors under `config`, with a stand-alone peer table.
    pub(super) fn detector(config: MuteConfig) -> (FailureDetectors, BTreeMap<NodeId, PeerFd>) {
        (FailureDetectors::new(config), BTreeMap::new())
    }

    fn config() -> MuteConfig {
        // Threshold 1 keeps most tests one-shot; threshold behaviour has
        // dedicated tests below.
        MuteConfig {
            expect_timeout: SimDuration::from_millis(100),
            threshold: 1,
            decay_interval: SimDuration::from_secs(60),
            suspicion_duration: SimDuration::from_secs(1),
            max_expectations: 16,
        }
    }

    const MSG: DataId = (NodeId(9), 1);

    #[test]
    fn satisfied_expectation_never_suspects() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1), NodeId(2)]);
        fd.mute.observe(MSG, NodeId(2));
        fd.tick(t0 + SimDuration::from_secs(10), &mut peers);
        assert!(peers
            .suspects(Detector::Mute, t0 + SimDuration::from_secs(10))
            .is_empty());
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 0);
    }

    #[test]
    fn missed_expectation_suspects_all_listed() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1), NodeId(2)]);
        let late = t0 + SimDuration::from_millis(101);
        fd.tick(late, &mut peers);
        assert_eq!(
            peers.suspects(Detector::Mute, late),
            vec![NodeId(1), NodeId(2)]
        );
        assert!(peers.suspected(Detector::Mute, NodeId(1), late));
    }

    #[test]
    fn observation_from_unlisted_node_does_not_satisfy() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1)]);
        fd.mute.observe(MSG, NodeId(7)); // not in the set
        let late = t0 + SimDuration::from_millis(101);
        fd.tick(late, &mut peers);
        assert_eq!(peers.suspects(Detector::Mute, late), vec![NodeId(1)]);
    }

    #[test]
    fn suspicion_ages_out() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1)]);
        let late = t0 + SimDuration::from_millis(101);
        fd.tick(late, &mut peers);
        assert!(peers.suspected(Detector::Mute, NodeId(1), late));
        let healed = late + SimDuration::from_secs(2);
        fd.tick(healed, &mut peers);
        assert!(!peers.suspected(Detector::Mute, NodeId(1), healed));
        // The miss still counts until the next aging step.
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 1);
    }

    #[test]
    fn duplicate_expectations_merge() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1)]);
        fd.mute.expect(t0, MSG, &[NodeId(2)]);
        assert_eq!(fd.mute.pending_expectations(), 1);
        // Either node satisfies the merged expectation.
        fd.mute.observe(MSG, NodeId(2));
        fd.tick(t0 + SimDuration::from_secs(1), &mut peers);
        assert!(peers
            .suspects(Detector::Mute, t0 + SimDuration::from_secs(1))
            .is_empty());
    }

    #[test]
    fn satisfied_entries_take_no_merges_and_hold_their_slot_until_the_tick() {
        let (mut fd, mut peers) = detector(MuteConfig {
            max_expectations: 2,
            ..config()
        });
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, (NodeId(9), 1), &[NodeId(1)]);
        fd.mute.expect(t0, (NodeId(9), 2), &[NodeId(2)]);
        fd.mute.observe((NodeId(9), 2), NodeId(2));
        // The satisfied entry still fills the cap, so this registration
        // evicts the oldest entry (node 1's), and it opens an entry of its
        // own rather than merging into the satisfied one.
        fd.mute.expect(t0, (NodeId(9), 2), &[NodeId(3)]);
        let late = t0 + SimDuration::from_millis(101);
        fd.tick(late, &mut peers);
        assert_eq!(peers.suspects(Detector::Mute, late), vec![NodeId(3)]);
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 0);
    }

    #[test]
    fn expectation_cap_drops_oldest() {
        let mut fd = MuteDetector::new(MuteConfig {
            max_expectations: 2,
            ..config()
        });
        let t0 = SimTime::from_secs(1);
        for seq in 0..3 {
            fd.expect(t0, (NodeId(9), seq), &[NodeId(1)]);
        }
        assert_eq!(fd.pending_expectations(), 2);
    }

    #[test]
    fn empty_node_set_is_ignored() {
        let mut fd = MuteDetector::new(config());
        fd.expect(SimTime::ZERO, MSG, &[]);
        assert_eq!(fd.pending_expectations(), 0);
    }

    #[test]
    fn repeated_misses_extend_suspicion() {
        let (mut fd, mut peers) = detector(config());
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, (NodeId(9), 1), &[NodeId(1)]);
        let t1 = t0 + SimDuration::from_millis(101);
        fd.tick(t1, &mut peers);
        fd.mute.expect(t1, (NodeId(9), 2), &[NodeId(1)]);
        let t2 = t1 + SimDuration::from_millis(101);
        fd.tick(t2, &mut peers);
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 2);
        // Suspicion runs from the *second* miss.
        let probe = t2 + SimDuration::from_millis(950);
        assert!(peers.suspected(Detector::Mute, NodeId(1), probe));
    }
}

#[cfg(test)]
mod threshold_tests {
    use std::collections::BTreeMap;

    use super::tests::detector;
    use super::*;
    use crate::{Detector, FailureDetectors, PeerFd};

    type Fd = (FailureDetectors, BTreeMap<NodeId, PeerFd>);

    fn config() -> MuteConfig {
        MuteConfig {
            expect_timeout: SimDuration::from_millis(100),
            threshold: 3,
            decay_interval: SimDuration::from_secs(10),
            suspicion_duration: SimDuration::from_secs(5),
            max_expectations: 16,
        }
    }

    fn miss((fd, peers): &mut Fd, at: SimTime, seq: u64) -> SimTime {
        fd.mute.expect(at, (NodeId(9), seq), &[NodeId(1)]);
        let deadline = at + SimDuration::from_millis(101);
        fd.tick(deadline, peers);
        deadline
    }

    #[test]
    fn below_threshold_misses_do_not_suspect() {
        let mut d = detector(config());
        let mut t = SimTime::from_secs(1);
        t = miss(&mut d, t, 1);
        t = miss(&mut d, t, 2);
        assert!(!d.1.suspected(Detector::Mute, NodeId(1), t));
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 2);
    }

    #[test]
    fn threshold_crossing_suspects() {
        let mut d = detector(config());
        let mut t = SimTime::from_secs(1);
        t = miss(&mut d, t, 1);
        t = miss(&mut d, t, 2);
        t = miss(&mut d, t, 3);
        assert!(d.1.suspected(Detector::Mute, NodeId(1), t));
    }

    #[test]
    fn counters_decay_so_sporadic_losses_never_accumulate() {
        let mut d = detector(config());
        // One miss every 20 s: decay (10 s) keeps the counter at <= 1.
        let mut t = SimTime::from_secs(1);
        for k in 0..6 {
            t = miss(&mut d, t, k);
            t += SimDuration::from_secs(20);
            d.0.tick(t, &mut d.1);
        }
        assert!(!d.1.suspected(Detector::Mute, NodeId(1), t));
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 0);
        assert!(d.1.is_empty(), "the aged-out row is freed");
    }

    #[test]
    fn satisfied_expectations_do_not_count() {
        let mut d = detector(config());
        let t = SimTime::from_secs(1);
        d.0.mute.expect(t, (NodeId(9), 1), &[NodeId(1)]);
        d.0.mute.observe((NodeId(9), 1), NodeId(1));
        d.0.tick(t + SimDuration::from_secs(1), &mut d.1);
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 0);
    }
}
