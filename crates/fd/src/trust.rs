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

use crate::peer::{Detector::Trust, PeerFd, Peers};

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

/// The TRUST failure detector of one node: the second-hand reports and a
/// change flag; the direct suspicions live in the peer rows.
#[derive(Debug, Default)]
pub struct TrustDetector {
    /// Second-hand reports as `(suspected, reporter, until)`, sorted by
    /// `(suspected, reporter)`, one per pair: a node's reports are one
    /// contiguous run, and one `retain` ages them all. The suspected node
    /// may be two hops away, so reports are not kept in the peer rows.
    pub(crate) reports: Vec<(NodeId, NodeId, SimTime)>,
    /// Whether a node entered or left the untrusted set since the rows'
    /// logged bits were last synced.
    changed: bool,
}

impl TrustDetector {
    /// Directly suspects `node` (Figure 2's `suspect` method).
    pub fn suspect(&mut self, now: SimTime, peers: &mut impl Peers, node: NodeId) {
        self.raise(now, peers.peer_mut(node));
    }

    /// Suspects the peer of `row` for [`SUSPICION_DURATION`] from `now`, or
    /// longer if it already is.
    pub(crate) fn raise(&mut self, now: SimTime, row: &mut PeerFd) {
        self.changed |= !row.suspected(Trust, now);
        row.raise(Trust, now + SUSPICION_DURATION);
    }

    /// Clears the direct suspicion of `row` if it is over by `now`.
    pub(crate) fn expire(&mut self, now: SimTime, row: &mut PeerFd) {
        let until = &mut row.until[Trust as usize];
        if *until != SimTime::ZERO && *until <= now {
            *until = SimTime::ZERO;
            self.changed = true;
        }
    }

    /// Handles a second-hand report: `reporter` (a neighbour) says it
    /// suspects `suspected`. Ignored if we suspect the reporter; a report
    /// about an already-untrusted node changes nothing.
    pub fn report_from_neighbor(
        &mut self,
        now: SimTime,
        peers: &impl Peers,
        reporter: NodeId,
        suspected: NodeId,
    ) {
        if peers.suspected(Trust, reporter, now) {
            return; // untrusted reporters carry no weight
        }
        if peers.suspected(Trust, suspected, now) {
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

    /// The trust level of `node` at `now`.
    ///
    /// A second-hand report only yields `Unknown` while its reporter is
    /// itself trusted (reports from since-suspected reporters are ignored).
    pub fn level(&self, peers: &impl Peers, node: NodeId, now: SimTime) -> TrustLevel {
        if peers.suspected(Trust, node, now) {
            return TrustLevel::Untrusted;
        }
        let first = self.reports.partition_point(|&(s, _, _)| s < node);
        let live_trusted_reporter = self.reports[first..]
            .iter()
            .take_while(|&&(s, _, _)| s == node)
            .any(|&(_, r, until)| until > now && !peers.suspected(Trust, r, now));
        if live_trusted_reporter {
            return TrustLevel::Unknown;
        }
        TrustLevel::Trusted
    }

    /// Brings each row's logged bit in line with the untrusted set at `now`
    /// and returns the nodes whose bit was set, then those whose bit was
    /// cleared, each in id order: the suspicions to open and to close in a
    /// log that mirrors the bits. Call it right after a tick; it scans the
    /// rows only if a node entered or left the set since the last call.
    pub fn sync_logged(
        &mut self,
        now: SimTime,
        peers: &mut impl Peers,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let (mut begun, mut ended) = (Vec::new(), Vec::new());
        if !std::mem::take(&mut self.changed) {
            return (begun, ended);
        }
        peers.update_peers(|node, row| {
            let untrusted = row.suspected(Trust, now);
            if untrusted != row.logged {
                row.logged = untrusted;
                if untrusted { &mut begun } else { &mut ended }.push(node);
            }
        });
        (begun, ended)
    }

    /// Bytes its reports allocate (from their capacity).
    pub fn heap_bytes(&self) -> usize {
        self.reports.capacity() * std::mem::size_of::<(NodeId, NodeId, SimTime)>()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::{Detector, FailureDetectors};

    type Table = BTreeMap<NodeId, PeerFd>;

    fn detector() -> (FailureDetectors, Table) {
        (FailureDetectors::default(), Table::new())
    }

    fn level((fd, peers): &(FailureDetectors, Table), n: u32, at: SimTime) -> TrustLevel {
        fd.trust.level(peers, NodeId(n), at)
    }

    #[test]
    fn default_is_trusted() {
        assert_eq!(level(&detector(), 1, SimTime::ZERO), TrustLevel::Trusted);
    }

    #[test]
    fn direct_suspicion_is_untrusted_then_ages() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust.suspect(t, &mut d.1, NodeId(1));
        assert_eq!(level(&d, 1, t), TrustLevel::Untrusted);
        assert_eq!(d.1.suspects(Detector::Trust, t), vec![NodeId(1)]);
        let later = t + SimDuration::from_secs(11);
        d.0.tick(later, &mut d.1);
        assert_eq!(level(&d, 1, later), TrustLevel::Trusted);
        assert!(d.1.is_empty(), "the lapsed row is freed");
    }

    #[test]
    fn second_hand_report_is_unknown() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust
            .report_from_neighbor(t, &d.1, NodeId(2), NodeId(3));
        assert_eq!(level(&d, 3, t), TrustLevel::Unknown);
        assert_eq!(level(&d, 2, t), TrustLevel::Trusted);
        assert!(d.1.is_empty(), "a report adds no row");
    }

    #[test]
    fn report_from_suspected_reporter_is_ignored() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust.suspect(t, &mut d.1, NodeId(2));
        d.0.trust
            .report_from_neighbor(t, &d.1, NodeId(2), NodeId(3));
        assert_eq!(level(&d, 3, t), TrustLevel::Trusted);
    }

    #[test]
    fn reporter_suspected_after_reporting_voids_the_report() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust
            .report_from_neighbor(t, &d.1, NodeId(2), NodeId(3));
        assert_eq!(level(&d, 3, t), TrustLevel::Unknown);
        d.0.trust.suspect(t, &mut d.1, NodeId(2));
        assert_eq!(level(&d, 3, t), TrustLevel::Trusted);
    }

    #[test]
    fn direct_suspicion_dominates_unknown() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust
            .report_from_neighbor(t, &d.1, NodeId(2), NodeId(3));
        d.0.trust.suspect(t, &mut d.1, NodeId(3));
        assert_eq!(level(&d, 3, t), TrustLevel::Untrusted);
    }

    #[test]
    fn reports_age_out() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        d.0.trust
            .report_from_neighbor(t, &d.1, NodeId(2), NodeId(3));
        let later = t + SimDuration::from_secs(11);
        d.0.tick(later, &mut d.1);
        assert_eq!(level(&d, 3, later), TrustLevel::Trusted);
    }

    #[test]
    fn reports_on_many_nodes_void_and_age_independently() {
        let mut d = detector();
        let t = SimTime::from_secs(1);
        let secs = SimDuration::from_secs;
        let report = |d: &mut (FailureDetectors, Table), at, reporter, suspected| {
            d.0.trust
                .report_from_neighbor(at, &d.1, NodeId(reporter), NodeId(suspected));
        };
        // Two reporters on node 3, one on node 6, one on node 1.
        report(&mut d, t, 5, 3);
        report(&mut d, t, 2, 3);
        report(&mut d, t, 4, 6);
        report(&mut d, t + secs(2), 7, 1);
        // Suspecting one reporter leaves node 3 with the other's report.
        d.0.trust.suspect(t, &mut d.1, NodeId(2));
        assert_eq!(level(&d, 3, t), TrustLevel::Unknown);
        // Suspecting the second voids node 3's reports, and only those.
        d.0.trust.suspect(t, &mut d.1, NodeId(5));
        assert_eq!(level(&d, 3, t), TrustLevel::Trusted);
        assert_eq!(level(&d, 6, t), TrustLevel::Unknown);
        // Node 4 refreshes its report; the tick at 11 s ages out the
        // reports made at 1 s and keeps the refreshed and the later one.
        report(&mut d, t + secs(5), 4, 6);
        let aged = t + secs(10);
        d.0.tick(aged, &mut d.1);
        assert_eq!(level(&d, 6, aged), TrustLevel::Unknown);
        assert_eq!(level(&d, 1, aged), TrustLevel::Unknown);
        // Once the reporters' suspicions lapse, node 3's aged-out reports do
        // not come back.
        assert_eq!(level(&d, 3, aged), TrustLevel::Trusted);
        let done = t + secs(15);
        d.0.tick(done, &mut d.1);
        for n in [1, 3, 6] {
            assert_eq!(level(&d, n, done), TrustLevel::Trusted, "node {n}");
        }
    }

    #[test]
    fn only_entering_or_leaving_the_untrusted_set_calls_for_a_sync() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        // Whether the rows' bits changed, and whether the flag called for
        // a scan; a flag set where nothing changed would show as (false, true).
        let sync = |fd: &mut FailureDetectors, peers: &mut Table, at| {
            fd.tick(at, peers);
            let flagged = fd.trust.changed;
            let changes = fd.trust.sync_logged(at, peers);
            (changes != (vec![], vec![]), flagged)
        };
        fd.trust
            .report_from_neighbor(t, &peers, NodeId(2), NodeId(3));
        assert_eq!(
            sync(&mut fd, &mut peers, t),
            (false, false),
            "reports do not count"
        );
        fd.trust.suspect(t, &mut peers, NodeId(4));
        assert!(fd.trust.changed, "node 4 entered");
        assert_eq!(sync(&mut fd, &mut peers, t), (true, true));
        fd.trust
            .suspect(t + SimDuration::from_secs(1), &mut peers, NodeId(4));
        assert!(!fd.trust.changed, "extending a suspicion changes no set");
        let quiet = t + SimDuration::from_secs(5);
        assert_eq!(
            sync(&mut fd, &mut peers, quiet),
            (false, false),
            "nothing expired"
        );
        let later = t + SimDuration::from_secs(11);
        assert_eq!(
            sync(&mut fd, &mut peers, later),
            (true, true),
            "node 4 left"
        );
        assert!(peers.suspects(Detector::Trust, later).is_empty());
    }

    #[test]
    fn sync_logged_opens_then_closes_in_id_order_and_holds_rows_until_closed() {
        let (mut fd, mut peers) = detector();
        let t = SimTime::from_secs(1);
        for n in [5, 2] {
            fd.trust.suspect(t, &mut peers, NodeId(n));
        }
        let opened = fd.trust.sync_logged(t, &mut peers);
        assert_eq!(opened, (vec![NodeId(2), NodeId(5)], vec![]));
        assert_eq!(fd.trust.sync_logged(t, &mut peers), (vec![], vec![]));
        // Node 2's suspicion lapses while node 7 enters: its row stays,
        // holding only the logged bit, until the close is taken.
        let later = t + SimDuration::from_secs(4);
        fd.trust.suspect(later, &mut peers, NodeId(7));
        fd.trust.suspect(later, &mut peers, NodeId(5));
        let lapsed = t + SUSPICION_DURATION;
        fd.tick(lapsed, &mut peers);
        assert!(peers.contains_key(&NodeId(2)));
        let changes = fd.trust.sync_logged(lapsed, &mut peers);
        assert_eq!(changes, (vec![NodeId(7)], vec![NodeId(2)]));
        assert!(!peers.contains_key(&NodeId(2)));
    }
}
