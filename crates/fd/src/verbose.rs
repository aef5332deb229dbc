//! The VERBOSE failure detector (classes ◇P_verbose and I_verbose).
//!
//! "The goal of the VERBOSE failure detector is to detect verbose nodes.
//! Such nodes try to overload the system by sending too many messages…
//! Detecting such nodes is therefore useful in order to allow nodes to stop
//! reacting to messages from these nodes." Its interface method is
//! `indict(node id)`: "VERBOSE maintains a counter for each node that was
//! listed in any invocation of its method. The counter is incremented on each
//! such event, and after a given threshold, the node is considered to be a
//! suspect." The paper also mentions "a method that allows to specify general
//! requirements about the minimal spacing between consecutive arrivals of
//! messages of the same type", invoked at initialization time — implemented
//! here as [`VerboseDetector::set_min_spacing`] plus
//! [`VerboseDetector::observe_arrival`]. Counters age down periodically.
//! The threshold, aging step, suspicion length and quota feed are fixed
//! constants: no run varies them.
//!
//! The protocol sends two kinds on a fixed period, gossips and beacons, so
//! those are the kinds a spacing rule can name; arrivals of any other kind
//! are ignored.

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::header::MsgKind;
use crate::peer::{Detector::Verbose, PeerFd, Peers, NO_ARRIVAL};

/// Indictments at which a node becomes suspected.
pub const THRESHOLD: u32 = 10;
/// How often indictment counters are decremented by one (the aging
/// mechanism).
pub const DECAY_INTERVAL: SimDuration = SimDuration::from_secs(5);
/// How long a node stays suspected after crossing the threshold.
pub const SUSPICION_DURATION: SimDuration = SimDuration::from_secs(10);
/// Resource-governance feed: how many admission/quota violations from one
/// neighbour convert into a single indictment (see
/// [`VerboseDetector::report_quota_violation`]). Violations only happen
/// when resource limits are configured, so the feed is inert without them.
pub const QUOTA_VIOLATION_THRESHOLD: u32 = 8;

/// The kinds a spacing rule can name, in slot order.
const SPACED: [MsgKind; 2] = [MsgKind::Gossip, MsgKind::Beacon];

/// The slot of `kind` in a row's arrivals and in the rules, if it can have
/// a rule.
fn slot(kind: MsgKind) -> Option<usize> {
    SPACED.iter().position(|&k| k == kind)
}

/// Counts one indictment in `row`; returns whether it raised a suspicion.
fn indict(row: &mut PeerFd, now: SimTime) -> bool {
    row.offend(Verbose, THRESHOLD, now + SUSPICION_DURATION)
}

/// The VERBOSE failure detector of one node: its spacing rules and aging
/// clock; the arrivals, counters and suspicions live in the peer rows.
#[derive(Debug, Default)]
pub struct VerboseDetector {
    /// Spacing rule per slot of [`SPACED`]; zero means no rule (a zero
    /// spacing could never be violated).
    min_spacing: [SimDuration; SPACED.len()],
    /// When the indictment counters were last aged.
    pub(crate) last_decay: SimTime,
    /// Whether an indictment raised a suspicion since the last tick.
    pub(crate) raised: bool,
}

impl VerboseDetector {
    /// Declares that consecutive messages of `kind` from the same node closer
    /// together than `spacing` constitute a verbose fault. Typically invoked
    /// at initialization time.
    ///
    /// # Panics
    ///
    /// Panics unless `kind` is [`MsgKind::Gossip`] or [`MsgKind::Beacon`],
    /// the kinds the protocol sends on a fixed period.
    pub fn set_min_spacing(&mut self, kind: MsgKind, spacing: SimDuration) {
        let slot = slot(kind).unwrap_or_else(|| panic!("no spacing rule for {kind:?}"));
        self.min_spacing[slot] = spacing;
    }

    /// Indicts `node` for sending too many messages of some type.
    pub fn indict(&mut self, now: SimTime, peers: &mut impl Peers, node: NodeId) {
        self.raised |= indict(peers.peer_mut(node), now);
    }

    /// Feeds one resource-governance violation by `node` (an admission
    /// drop, refused verification, or per-origin quota rejection). Every
    /// [`QUOTA_VIOLATION_THRESHOLD`] violations convert into one
    /// indictment, so *sustained* flooding is suspected and shed — not just
    /// throttled — while isolated bursts merely lose the dropped frames.
    /// Returns whether this violation produced an indictment.
    pub fn report_quota_violation(
        &mut self,
        now: SimTime,
        peers: &mut impl Peers,
        node: NodeId,
    ) -> bool {
        let row = peers.peer_mut(node);
        row.quota += 1;
        let converts = row.quota >= QUOTA_VIOLATION_THRESHOLD;
        if converts {
            row.quota = 0;
            self.raised |= indict(row, now);
        }
        converts
    }

    /// Feeds a message arrival; auto-indicts if it violates the minimum
    /// spacing registered for its kind.
    pub fn observe_arrival(
        &mut self,
        now: SimTime,
        peers: &mut impl Peers,
        node: NodeId,
        kind: MsgKind,
    ) {
        // Arrival times are only ever compared against a spacing rule, so
        // kinds without one need no tracking at all (rules are registered at
        // initialization time, before any arrivals).
        let Some(slot) = slot(kind) else {
            return;
        };
        let spacing = self.min_spacing[slot];
        if spacing == SimDuration::ZERO {
            return;
        }
        // One probe: record this arrival and get the previous one back.
        let row = peers.peer_mut(node);
        let prev = std::mem::replace(&mut row.arrivals[slot], now);
        if prev != NO_ARRIVAL && now.saturating_since(prev) < spacing {
            self.raised |= indict(row, now);
        }
    }

    /// At an aging step, forgets the arrivals in `row` at least their
    /// kind's spacing old: the next arrival of that kind from that node
    /// cannot violate the rule against them, so dropping them changes no
    /// verdict and lets the row go once the sender falls silent.
    pub(crate) fn age_arrivals(&self, row: &mut PeerFd, now: SimTime) {
        for (at, &rule) in row.arrivals.iter_mut().zip(&self.min_spacing) {
            if *at != NO_ARRIVAL && now.saturating_since(*at) >= rule {
                *at = NO_ARRIVAL;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{Detector, FailureDetectors, MuteConfig};

    type Table = BTreeMap<NodeId, PeerFd>;

    fn detector() -> (FailureDetectors, Table) {
        (FailureDetectors::new(MuteConfig::default()), Table::new())
    }

    #[test]
    fn below_threshold_is_not_suspected() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        for _ in 1..THRESHOLD {
            fd.verbose.indict(t, &mut peers, NodeId(1));
        }
        assert!(!peers.suspected(Detector::Verbose, NodeId(1), t));
        assert_eq!(peers.offences(Detector::Verbose, NodeId(1)), THRESHOLD - 1);
    }

    #[test]
    fn threshold_crossing_suspects() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        for _ in 0..THRESHOLD {
            fd.verbose.indict(t, &mut peers, NodeId(1));
        }
        assert!(peers.suspected(Detector::Verbose, NodeId(1), t));
        assert_eq!(peers.suspects(Detector::Verbose, t), vec![NodeId(1)]);
        assert_eq!(peers.offences(Detector::Verbose, NodeId(1)), THRESHOLD);
    }

    #[test]
    fn counters_decay_over_time() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        fd.verbose.indict(t, &mut peers, NodeId(1));
        fd.verbose.indict(t, &mut peers, NodeId(1));
        // Two decay intervals pass: counter 2 -> 0.
        fd.tick(t + DECAY_INTERVAL + DECAY_INTERVAL, &mut peers);
        assert_eq!(peers.offences(Detector::Verbose, NodeId(1)), 0);
        // Slow indictments never accumulate to the threshold.
        let mut now = t;
        for _ in 0..2 * THRESHOLD {
            now += DECAY_INTERVAL;
            fd.verbose.indict(now, &mut peers, NodeId(2));
            fd.tick(now, &mut peers);
        }
        assert!(!peers.suspected(Detector::Verbose, NodeId(2), now));
    }

    #[test]
    fn suspicion_expires() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        for _ in 0..THRESHOLD {
            fd.verbose.indict(t, &mut peers, NodeId(1));
        }
        let later = t + SUSPICION_DURATION + SimDuration::from_secs(1);
        fd.tick(later, &mut peers);
        assert!(!peers.suspected(Detector::Verbose, NodeId(1), later));
    }

    #[test]
    fn min_spacing_violations_auto_indict() {
        let (mut fd, mut peers) = detector();
        fd.verbose
            .set_min_spacing(MsgKind::Gossip, SimDuration::from_millis(500));
        let t = SimTime::from_secs(1);
        // Rapid-fire gossips: one spacing violation per gossip after the
        // first, THRESHOLD of them in all.
        let ms = |i: u32| SimDuration::from_millis(u64::from(i) * 10);
        for i in 0..=THRESHOLD {
            fd.verbose
                .observe_arrival(t + ms(i), &mut peers, NodeId(3), MsgKind::Gossip);
        }
        assert!(peers.suspected(Detector::Verbose, NodeId(3), t + ms(THRESHOLD)));
    }

    #[test]
    fn spaced_arrivals_do_not_indict() {
        let (mut fd, mut peers) = detector();
        fd.verbose
            .set_min_spacing(MsgKind::Beacon, SimDuration::from_millis(500));
        let t = SimTime::from_secs(1);
        for i in 0..10u64 {
            let at = t + SimDuration::from_secs(i);
            fd.verbose
                .observe_arrival(at, &mut peers, NodeId(3), MsgKind::Beacon);
        }
        assert_eq!(peers.offences(Detector::Verbose, NodeId(3)), 0);
    }

    #[test]
    fn quota_violations_accumulate_into_indictments() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        // Every QUOTA_VIOLATION_THRESHOLD-th violation is one indictment.
        for _ in 1..QUOTA_VIOLATION_THRESHOLD {
            assert!(!fd.verbose.report_quota_violation(t, &mut peers, NodeId(4)));
        }
        assert!(fd.verbose.report_quota_violation(t, &mut peers, NodeId(4)));
        assert_eq!(peers.offences(Detector::Verbose, NodeId(4)), 1);
        // Sustained flooding crosses the suspicion threshold.
        for _ in QUOTA_VIOLATION_THRESHOLD..QUOTA_VIOLATION_THRESHOLD * THRESHOLD {
            fd.verbose.report_quota_violation(t, &mut peers, NodeId(4));
        }
        assert_eq!(peers.offences(Detector::Verbose, NodeId(4)), THRESHOLD);
        assert!(peers.suspected(Detector::Verbose, NodeId(4), t));
    }

    #[test]
    fn aging_arrivals_changes_no_verdict() {
        let (mut fd, mut peers) = detector();
        let spacing = SimDuration::from_millis(500);
        fd.verbose.set_min_spacing(MsgKind::Gossip, spacing);
        // The first aging step falls at one decay interval, 5 s.
        arrive(&mut fd, &mut peers, 4500, 3, MsgKind::Gossip);
        arrive(&mut fd, &mut peers, 4700, 4, MsgKind::Gossip);
        // At the tick node 3 has been quiet for exactly the spacing, so its
        // arrival may be forgotten; node 4 was heard too recently for that.
        fd.tick(SimTime::from_millis(4500) + spacing, &mut peers);
        // Node 3's next arrival is compliant and does not indict.
        arrive(&mut fd, &mut peers, 5000, 3, MsgKind::Gossip);
        assert_eq!(peers.offences(Detector::Verbose, NodeId(3)), 0);
        // Node 4's arrival survived the tick and still catches an early one.
        arrive(&mut fd, &mut peers, 5100, 4, MsgKind::Gossip);
        assert_eq!(peers.offences(Detector::Verbose, NodeId(4)), 1);
    }

    /// An arrival of `kind` from node `n` at `at_ms` milliseconds.
    fn arrive(fd: &mut FailureDetectors, peers: &mut Table, at_ms: u64, n: u32, kind: MsgKind) {
        let at = SimTime::from_millis(at_ms);
        fd.verbose.observe_arrival(at, peers, NodeId(n), kind);
    }

    #[test]
    fn one_senders_kinds_keep_independent_spacing_and_age_out_independently() {
        let (mut fd, mut peers) = detector();
        fd.verbose
            .set_min_spacing(MsgKind::Gossip, SimDuration::from_millis(500));
        fd.verbose
            .set_min_spacing(MsgKind::Beacon, SimDuration::from_millis(3000));
        let (gossip, beacon) = (MsgKind::Gossip, MsgKind::Beacon);
        let counter = |peers: &Table, n| peers.offences(Detector::Verbose, NodeId(n));
        arrive(&mut fd, &mut peers, 3000, 3, gossip);
        arrive(&mut fd, &mut peers, 3000, 3, beacon);
        // Each kind is held to its own rule: a gossip past its 500 ms is
        // compliant although the beacon rule is longer…
        arrive(&mut fd, &mut peers, 3600, 3, gossip);
        assert_eq!(counter(&peers, 3), 0);
        // …and an early beacon indicts whatever the gossips did.
        arrive(&mut fd, &mut peers, 4000, 3, beacon);
        assert_eq!(counter(&peers, 3), 1);
        // The aging step at 5 s takes that indictment off again and ages the
        // gossip arrival (1.4 s old) out of the shared row but keeps the
        // beacon arrival (1 s old): an early beacon still indicts, and the
        // next gossip has nothing to be early against.
        fd.tick(SimTime::from_millis(5000), &mut peers);
        arrive(&mut fd, &mut peers, 5000, 3, gossip);
        arrive(&mut fd, &mut peers, 5100, 3, beacon);
        assert_eq!(counter(&peers, 3), 1);
        // At the step at 10 s the beacon ages out (4.9 s old) while a fresh
        // gossip (0.2 s old) stays: the early gossip indicts, the beacon has
        // nothing to be early against.
        arrive(&mut fd, &mut peers, 9800, 3, gossip);
        fd.tick(SimTime::from_millis(10_000), &mut peers);
        arrive(&mut fd, &mut peers, 10_100, 3, beacon);
        assert_eq!(counter(&peers, 3), 0);
        arrive(&mut fd, &mut peers, 10_100, 3, gossip);
        assert_eq!(counter(&peers, 3), 1);
        // New senders on either side of node 3 get rows of their own, and
        // node 3's row stays its own.
        arrive(&mut fd, &mut peers, 10_100, 2, gossip);
        arrive(&mut fd, &mut peers, 10_100, 4, gossip);
        arrive(&mut fd, &mut peers, 10_200, 3, gossip);
        assert_eq!(counter(&peers, 3), 2);
        assert_eq!(counter(&peers, 2) + counter(&peers, 4), 0);
    }

    #[test]
    fn kinds_without_spacing_rule_are_ignored() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        for i in 0..10u64 {
            let at = t + SimDuration::from_micros(i);
            fd.verbose
                .observe_arrival(at, &mut peers, NodeId(3), MsgKind::Gossip);
        }
        assert!(peers.is_empty(), "no rule, no row");
    }

    #[test]
    #[should_panic(expected = "no spacing rule for RequestMsg")]
    fn only_periodic_kinds_take_a_spacing_rule() {
        VerboseDetector::default().set_min_spacing(MsgKind::RequestMsg, SimDuration::ZERO);
    }
}
