//! The TRUST failure detector.
//!
//! "The TRUST failure detector collects the reports of MUTE and VERBOSE, as
//! well as detections of messages with bad signatures and other locally
//! observable deviations from the protocol. In return, TRUST maintains a
//! trust level for each neighboring node. This information is fed into the
//! overlay."
//!
//! The overlay maintenance protocol (paper §3.3) distinguishes three levels
//! per neighbour `q` of `p`:
//!
//! * **untrusted** — "the TRUST failure detector of p suspects q";
//! * **unknown** — "the TRUST failure detector of p does not suspect q but
//!   another neighbor of p that p trusts reported to p that it suspects q";
//! * **trusted** — "p has no reason to suspect q".
//!
//! Second-hand reports are accepted "unless p already suspects either q or
//! r"; a Byzantine node "can cause correct nodes to unnecessarily join the
//! overlay, but it cannot destroy the connectivity of the overlay w.r.t.
//! correct nodes".

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::suspicion::{NodeMap, Suspected};

/// Why a node was suspected (fed to `suspect`, counted for diagnostics).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SuspicionReason {
    /// Reported by the MUTE failure detector.
    Mute,
    /// Reported by the VERBOSE failure detector.
    Verbose,
    /// A message carried a signature that did not verify.
    BadSignature,
    /// Any other locally observable protocol deviation.
    ProtocolViolation,
}

/// Number of [`SuspicionReason`]s (`ProtocolViolation` is the last).
const REASONS: usize = SuspicionReason::ProtocolViolation as usize + 1;

/// The trust level `p` assigns a neighbour, as used by the overlay.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TrustLevel {
    /// No reason to suspect the node.
    #[default]
    Trusted,
    /// Not suspected locally, but a trusted neighbour reported suspicion.
    Unknown,
    /// Suspected by this node's own TRUST detector.
    Untrusted,
}

/// How long a direct suspicion lasts before aging out.
pub const SUSPICION_DURATION: SimDuration = SimDuration::from_secs(10);

/// How long a second-hand ("unknown") report lasts before aging out.
pub const REPORT_DURATION: SimDuration = SimDuration::from_secs(10);

/// The TRUST failure detector of one node.
#[derive(Debug, Default)]
pub struct TrustDetector {
    /// Direct suspicions.
    suspected: Suspected,
    /// Second-hand reports as `(suspected, reporter, until)`, sorted by
    /// `(suspected, reporter)`, one per pair: a node's reports are one
    /// contiguous run, and one `retain` ages them all.
    reports: Vec<(NodeId, NodeId, SimTime)>,
    /// Total suspicions raised per node, indexed by `reason as usize`
    /// (diagnostic).
    history: NodeMap<[u64; REASONS]>,
    /// Bumped by every `suspect` call and every tick that expires a direct
    /// suspicion: equal generations mean an unchanged suspicion set.
    generation: u64,
}

impl TrustDetector {
    /// Directly suspects `node` for `reason` (Figure 2's `suspect` method).
    pub fn suspect(&mut self, now: SimTime, node: NodeId, reason: SuspicionReason) {
        self.suspected.raise(node, now + SUSPICION_DURATION);
        self.history.entry(node, [0; REASONS])[reason as usize] += 1;
        self.generation += 1;
    }

    /// Handles a second-hand report: `reporter` (a neighbour) says it
    /// suspects `suspected`. Ignored if we suspect the reporter; a report
    /// about an already-untrusted node changes nothing.
    pub fn report_from_neighbor(&mut self, now: SimTime, reporter: NodeId, suspected: NodeId) {
        if self.is_suspected(reporter, now) {
            return; // untrusted reporters carry no weight
        }
        if self.is_suspected(suspected, now) {
            return; // already untrusted; unknown would be a downgrade
        }
        let until = now + REPORT_DURATION;
        match self
            .reports
            .binary_search_by_key(&(suspected, reporter), |&(s, r, _)| (s, r))
        {
            Ok(pos) => self.reports[pos].2 = until,
            Err(pos) => self.reports.insert(pos, (suspected, reporter, until)),
        }
    }

    /// Ages out stale suspicions and second-hand reports.
    pub fn tick(&mut self, now: SimTime) {
        if self.suspected.expire(now) {
            self.generation += 1;
        }
        self.reports.retain(|&(_, _, until)| until > now);
    }

    /// A counter that changes whenever the set of directly suspected nodes
    /// may have: on every [`TrustDetector::suspect`] call and on every tick
    /// that expires a suspicion. Right after a tick at `now`,
    /// [`TrustDetector::untrusted`]`(now)` is exactly that set, so two equal
    /// readings taken after ticks mean an unchanged untrusted set.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether `node` is directly suspected at `now`.
    pub fn is_suspected(&self, node: NodeId, now: SimTime) -> bool {
        self.suspected.contains(node, now)
    }

    /// The trust level of `node` at `now`.
    ///
    /// A second-hand report only yields `Unknown` while its reporter is
    /// itself trusted (reports from since-suspected reporters are ignored).
    pub fn level(&self, node: NodeId, now: SimTime) -> TrustLevel {
        if self.is_suspected(node, now) {
            return TrustLevel::Untrusted;
        }
        let first = self.reports.partition_point(|&(s, _, _)| s < node);
        let live_trusted_reporter = self.reports[first..]
            .iter()
            .take_while(|&&(s, _, _)| s == node)
            .any(|&(_, r, until)| until > now && !self.is_suspected(r, now));
        if live_trusted_reporter {
            return TrustLevel::Unknown;
        }
        TrustLevel::Trusted
    }

    /// Nodes currently `Untrusted`, in id order.
    pub fn untrusted(&self, now: SimTime) -> Vec<NodeId> {
        self.suspected.at(now)
    }

    /// Bytes its tables allocate (from their capacities).
    pub fn heap_bytes(&self) -> usize {
        self.suspected.heap_bytes()
            + self.reports.capacity() * std::mem::size_of::<(NodeId, NodeId, SimTime)>()
            + self.history.heap_bytes()
    }

    /// Total suspicions raised against `node` for `reason` (diagnostic).
    pub fn history(&self, node: NodeId, reason: SuspicionReason) -> u64 {
        self.history
            .get(node)
            .map_or(0, |counts| counts[reason as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_trusted() {
        let d = TrustDetector::default();
        assert_eq!(d.level(NodeId(1), SimTime::ZERO), TrustLevel::Trusted);
    }

    #[test]
    fn direct_suspicion_is_untrusted_then_ages() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.suspect(t, NodeId(1), SuspicionReason::BadSignature);
        assert_eq!(d.level(NodeId(1), t), TrustLevel::Untrusted);
        assert_eq!(d.untrusted(t), vec![NodeId(1)]);
        let later = t + SimDuration::from_secs(11);
        d.tick(later);
        assert_eq!(d.level(NodeId(1), later), TrustLevel::Trusted);
        assert_eq!(d.history(NodeId(1), SuspicionReason::BadSignature), 1);
    }

    #[test]
    fn second_hand_report_is_unknown() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        assert_eq!(d.level(NodeId(3), t), TrustLevel::Unknown);
        assert_eq!(d.level(NodeId(2), t), TrustLevel::Trusted);
    }

    #[test]
    fn report_from_suspected_reporter_is_ignored() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.suspect(t, NodeId(2), SuspicionReason::Verbose);
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        assert_eq!(d.level(NodeId(3), t), TrustLevel::Trusted);
    }

    #[test]
    fn reporter_suspected_after_reporting_voids_the_report() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        assert_eq!(d.level(NodeId(3), t), TrustLevel::Unknown);
        d.suspect(t, NodeId(2), SuspicionReason::Mute);
        assert_eq!(d.level(NodeId(3), t), TrustLevel::Trusted);
    }

    #[test]
    fn direct_suspicion_dominates_unknown() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        d.suspect(t, NodeId(3), SuspicionReason::Mute);
        assert_eq!(d.level(NodeId(3), t), TrustLevel::Untrusted);
    }

    #[test]
    fn reports_age_out() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        let later = t + SimDuration::from_secs(11);
        d.tick(later);
        assert_eq!(d.level(NodeId(3), later), TrustLevel::Trusted);
    }

    #[test]
    fn reports_on_many_nodes_void_and_age_independently() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        let secs = SimDuration::from_secs;
        // Two reporters on node 3, one on node 6, one on node 1.
        d.report_from_neighbor(t, NodeId(5), NodeId(3));
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        d.report_from_neighbor(t, NodeId(4), NodeId(6));
        d.report_from_neighbor(t + secs(2), NodeId(7), NodeId(1));
        let level = |d: &TrustDetector, n: u32, at: SimTime| d.level(NodeId(n), at);
        // Suspecting one reporter leaves node 3 with the other's report.
        d.suspect(t, NodeId(2), SuspicionReason::Mute);
        assert_eq!(level(&d, 3, t), TrustLevel::Unknown);
        // Suspecting the second voids node 3's reports, and only those.
        d.suspect(t, NodeId(5), SuspicionReason::Verbose);
        assert_eq!(level(&d, 3, t), TrustLevel::Trusted);
        assert_eq!(level(&d, 6, t), TrustLevel::Unknown);
        // Node 4 refreshes its report; the tick at 11 s ages out the
        // reports made at 1 s and keeps the refreshed and the later one.
        d.report_from_neighbor(t + secs(5), NodeId(4), NodeId(6));
        let aged = t + secs(10);
        d.tick(aged);
        assert_eq!(level(&d, 6, aged), TrustLevel::Unknown);
        assert_eq!(level(&d, 1, aged), TrustLevel::Unknown);
        // Once the reporters' suspicions lapse, node 3's aged-out reports do
        // not come back.
        assert_eq!(level(&d, 3, aged), TrustLevel::Trusted);
        let done = t + secs(15);
        d.tick(done);
        for n in [1, 3, 6] {
            assert_eq!(level(&d, n, done), TrustLevel::Trusted, "node {n}");
        }
    }

    #[test]
    fn generation_moves_whenever_the_untrusted_set_may_change() {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        let g0 = d.generation();
        d.report_from_neighbor(t, NodeId(2), NodeId(3));
        d.tick(t);
        assert_eq!(d.generation(), g0, "reports do not touch the untrusted set");
        d.suspect(t, NodeId(4), SuspicionReason::Mute);
        let g1 = d.generation();
        assert_ne!(g1, g0);
        d.tick(t + SimDuration::from_secs(5));
        assert_eq!(d.generation(), g1, "nothing expired");
        let later = t + SimDuration::from_secs(10);
        d.tick(later);
        assert_ne!(d.generation(), g1, "the suspicion expired");
        assert!(d.untrusted(later).is_empty());
    }
}
