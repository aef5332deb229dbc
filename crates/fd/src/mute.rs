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
//! mechanism that lets the detector "recover from mistakes"). The timeout,
//! threshold, aging step, suspicion length and expectation cap are fixed
//! constants: no run varies them.

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::peer::{Detector::Mute, Peers};

/// A data message as MUTE expects it: `(origin, seq)`.
pub type DataId = (NodeId, u64);

/// How long after `expect` the expected message must arrive.
pub const EXPECT_TIMEOUT: SimDuration = SimDuration::from_millis(4000);
/// Deadline misses at which a node becomes suspected. Values above one keep
/// single collision-induced losses from suspecting honest neighbours, while
/// persistently mute nodes accumulate misses with every expectation ("the
/// suspicion counters for each node are periodically decremented" — the
/// paper's aging mechanism implies counters rather than one-shot suspicion).
pub const THRESHOLD: u32 = 4;
/// How often miss counters are decremented by one.
pub const DECAY_INTERVAL: SimDuration = SimDuration::from_secs(8);
/// How long a node that crossed the threshold stays suspected.
pub const SUSPICION_DURATION: SimDuration = SimDuration::from_secs(10);
/// Cap on simultaneously tracked expectations (oldest dropped beyond it),
/// bounding memory against verbose adversaries.
pub const MAX_EXPECTATIONS: usize = 4096;

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
/// use byzcast_fd::mute::{EXPECT_TIMEOUT, THRESHOLD};
/// use byzcast_fd::{Detector, FailureDetectors, Peers};
/// use byzcast_sim::{NodeId, SimTime};
///
/// let mut fd = FailureDetectors::default();
/// let mut peers = BTreeMap::new();
/// let t = SimTime::from_secs(1);
/// // Node 5 should forward messages 1..=THRESHOLD of origin 9…
/// for seq in 1..=u64::from(THRESHOLD) {
///     fd.mute.expect(t, (NodeId(9), seq), &[NodeId(5)]);
/// }
/// // …but never does:
/// let late = t + EXPECT_TIMEOUT;
/// fd.tick(late, &mut peers);
/// assert!(peers.suspected(Detector::Mute, NodeId(5), late));
/// ```
#[derive(Debug, Default)]
pub struct MuteDetector {
    expectations: Vec<Expectation>,
    /// When the miss counters were last aged.
    pub(crate) last_decay: SimTime,
}

impl MuteDetector {
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
        if self.expectations.len() >= MAX_EXPECTATIONS {
            self.expectations.remove(0);
        }
        self.expectations.push(Expectation {
            id,
            deadline: now + EXPECT_TIMEOUT,
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
        let mut raised = false;
        self.expectations.retain(|e| {
            if !e.satisfied && e.deadline <= now {
                for &n in &e.waiting_on {
                    let row = peers.peer_mut(n);
                    raised |= row.offend(Mute, THRESHOLD, now + SUSPICION_DURATION);
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

    /// The detectors, with a stand-alone peer table.
    pub(super) fn detector() -> (FailureDetectors, BTreeMap<NodeId, PeerFd>) {
        (FailureDetectors::default(), BTreeMap::new())
    }

    const MSG: DataId = (NodeId(9), 1);

    /// `count` distinct messages of origin 9, from sequence number `first`.
    fn msgs(first: u64, count: u32) -> impl Iterator<Item = DataId> {
        (first..first + u64::from(count)).map(|seq| (NodeId(9), seq))
    }

    #[test]
    fn satisfied_expectation_never_suspects() {
        let (mut fd, mut peers) = detector();
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
    fn missed_expectations_suspect_all_listed() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        for id in msgs(1, THRESHOLD) {
            fd.mute.expect(t0, id, &[NodeId(1), NodeId(2)]);
        }
        // Not a microsecond before the deadline…
        let early = t0 + (EXPECT_TIMEOUT - SimDuration::from_micros(1));
        fd.tick(early, &mut peers);
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 0);
        // …but at it, every listed node misses every expectation.
        let late = t0 + EXPECT_TIMEOUT;
        fd.tick(late, &mut peers);
        assert_eq!(
            peers.suspects(Detector::Mute, late),
            vec![NodeId(1), NodeId(2)]
        );
        assert_eq!(peers.offences(Detector::Mute, NodeId(2)), THRESHOLD);
    }

    #[test]
    fn observation_from_unlisted_node_does_not_satisfy() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1)]);
        fd.mute.observe(MSG, NodeId(7)); // not in the set
        fd.tick(t0 + EXPECT_TIMEOUT, &mut peers);
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), 1);
        assert_eq!(peers.offences(Detector::Mute, NodeId(7)), 0);
    }

    #[test]
    fn suspicion_ages_out() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        for id in msgs(1, THRESHOLD) {
            fd.mute.expect(t0, id, &[NodeId(1)]);
        }
        let late = t0 + EXPECT_TIMEOUT;
        fd.tick(late, &mut peers);
        assert!(peers.suspected(Detector::Mute, NodeId(1), late));
        let healed = late + SUSPICION_DURATION;
        fd.tick(healed, &mut peers);
        assert!(!peers.suspected(Detector::Mute, NodeId(1), healed));
        // The misses still count, less the one aging step since (at 8 s):
        // the suspicion ends on its own clock, not the counter's.
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), THRESHOLD - 1);
    }

    #[test]
    fn duplicate_expectations_merge() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, MSG, &[NodeId(1)]);
        fd.mute.expect(t0, MSG, &[NodeId(2)]);
        assert_eq!(fd.mute.pending_expectations(), 1);
        // Either node satisfies the merged expectation.
        fd.mute.observe(MSG, NodeId(2));
        fd.tick(t0 + EXPECT_TIMEOUT, &mut peers);
        assert!(peers.is_empty(), "no miss for either node");
    }

    #[test]
    fn satisfied_entries_take_no_merges_and_hold_their_slot_until_the_tick() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        fd.mute.expect(t0, (NodeId(9), 1), &[NodeId(1)]);
        fd.mute.expect(t0, (NodeId(9), 2), &[NodeId(2)]);
        // Node 4's expectations fill the cap.
        let fillers = (MAX_EXPECTATIONS - 2) as u32;
        for id in (1..=u64::from(fillers)).map(|seq| (NodeId(8), seq)) {
            fd.mute.expect(t0, id, &[NodeId(4)]);
        }
        fd.mute.observe((NodeId(9), 2), NodeId(2));
        // The satisfied entry still fills the cap, so this registration
        // evicts the oldest entry (node 1's), and it opens an entry of its
        // own rather than merging into the satisfied one.
        fd.mute.expect(t0, (NodeId(9), 2), &[NodeId(3)]);
        fd.tick(t0 + EXPECT_TIMEOUT, &mut peers);
        let misses = |n| peers.offences(Detector::Mute, NodeId(n));
        assert_eq!([misses(1), misses(2), misses(3)], [0, 0, 1]);
        assert_eq!(misses(4), fillers);
    }

    #[test]
    fn expectation_cap_drops_oldest() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        // The oldest expectation is node 2's; the cap holds it…
        fd.mute.expect(t0, (NodeId(9), 0), &[NodeId(2)]);
        let cap = MAX_EXPECTATIONS as u32;
        for id in msgs(1, cap - 1) {
            fd.mute.expect(t0, id, &[NodeId(1)]);
        }
        assert_eq!(fd.mute.pending_expectations(), MAX_EXPECTATIONS);
        // …until one more arrives, which drops it.
        fd.mute
            .expect(t0, (NodeId(9), u64::from(cap)), &[NodeId(1)]);
        assert_eq!(fd.mute.pending_expectations(), MAX_EXPECTATIONS);
        fd.tick(t0 + EXPECT_TIMEOUT, &mut peers);
        assert_eq!(peers.offences(Detector::Mute, NodeId(2)), 0);
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), cap);
    }

    #[test]
    fn empty_node_set_is_ignored() {
        let mut fd = MuteDetector::default();
        fd.expect(SimTime::ZERO, MSG, &[]);
        assert_eq!(fd.pending_expectations(), 0);
    }

    #[test]
    fn repeated_misses_extend_suspicion() {
        let (mut fd, mut peers) = detector();
        let t0 = SimTime::from_secs(1);
        for id in msgs(1, THRESHOLD) {
            fd.mute.expect(t0, id, &[NodeId(1)]);
        }
        let t1 = t0 + EXPECT_TIMEOUT;
        fd.tick(t1, &mut peers);
        fd.mute.expect(t1, (NodeId(9), 100), &[NodeId(1)]);
        let t2 = t1 + EXPECT_TIMEOUT;
        fd.tick(t2, &mut peers);
        // One more miss, and the aging step at 8 s took one off.
        assert_eq!(peers.offences(Detector::Mute, NodeId(1)), THRESHOLD);
        // Suspicion runs from the *second* miss.
        let probe = t1 + SUSPICION_DURATION;
        assert!(peers.suspected(Detector::Mute, NodeId(1), probe));
        assert!(!peers.suspected(Detector::Mute, NodeId(1), t2 + SUSPICION_DURATION));
    }
}

#[cfg(test)]
mod threshold_tests {
    use std::collections::BTreeMap;

    use super::tests::detector;
    use super::*;
    use crate::{Detector, FailureDetectors, PeerFd};

    type Fd = (FailureDetectors, BTreeMap<NodeId, PeerFd>);

    /// Node 1 misses `count` messages expected at `at`, from sequence
    /// number `first`; returns their deadline, where the tick ran.
    fn misses((fd, peers): &mut Fd, at: SimTime, first: u64, count: u32) -> SimTime {
        for seq in first..first + u64::from(count) {
            fd.mute.expect(at, (NodeId(9), seq), &[NodeId(1)]);
        }
        let deadline = at + EXPECT_TIMEOUT;
        fd.tick(deadline, peers);
        deadline
    }

    #[test]
    fn below_threshold_misses_do_not_suspect() {
        let mut d = detector();
        let t = misses(&mut d, SimTime::from_secs(1), 1, THRESHOLD - 1);
        assert!(!d.1.suspected(Detector::Mute, NodeId(1), t));
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), THRESHOLD - 1);
    }

    #[test]
    fn threshold_crossing_suspects() {
        let (mut fd, mut peers) = detector();
        let (t1, t2) = (SimTime::from_secs(1), SimTime::from_secs(2));
        for seq in 1..u64::from(THRESHOLD) {
            fd.mute.expect(t1, (NodeId(9), seq), &[NodeId(1)]);
        }
        fd.mute.expect(t2, (NodeId(9), 0), &[NodeId(1)]);
        fd.tick(t1 + EXPECT_TIMEOUT, &mut peers);
        assert!(!peers.suspected(Detector::Mute, NodeId(1), t1 + EXPECT_TIMEOUT));
        // The last miss lands before the first aging step (at 8 s).
        let late = t2 + EXPECT_TIMEOUT;
        assert!(late < SimTime::ZERO + DECAY_INTERVAL);
        fd.tick(late, &mut peers);
        assert!(peers.suspected(Detector::Mute, NodeId(1), late));
    }

    #[test]
    fn counters_decay_so_sporadic_losses_never_accumulate() {
        let mut d = detector();
        // One miss every two and a half aging steps keeps the counter at
        // <= 1.
        let gap = SimDuration::from_micros(DECAY_INTERVAL.as_micros() * 5 / 2);
        let mut t = SimTime::from_secs(1);
        for k in 0..2 * u64::from(THRESHOLD) {
            t = misses(&mut d, t, k, 1);
            assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 1);
            t += gap;
            d.0.tick(t, &mut d.1);
        }
        assert!(!d.1.suspected(Detector::Mute, NodeId(1), t));
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 0);
        assert!(d.1.is_empty(), "the aged-out row is freed");
    }

    #[test]
    fn satisfied_expectations_do_not_count() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.mute.expect(t, (NodeId(9), 1), &[NodeId(1)]);
        d.0.mute.observe((NodeId(9), 1), NodeId(1));
        d.0.tick(t + EXPECT_TIMEOUT, &mut d.1);
        assert_eq!(d.1.offences(Detector::Mute, NodeId(1)), 0);
    }
}
