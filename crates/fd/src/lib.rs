//! # byzcast-fd — the MUTE, VERBOSE and TRUST failure detectors
//!
//! The broadcast protocol of the paper "overcomes Byzantine failures by
//! combining digital signatures, gossiping of message signatures, and failure
//! detectors". This crate implements the three failure detectors of the
//! paper's node architecture (Figure 1) with the interface of its Figure 2,
//! narrowed to what the protocol calls:
//!
//! * [`MuteDetector`] (`expect(now, (origin, seq), nodes)`) — detects *mute*
//!   failures: "failure to send a message with an expected header w.r.t. the
//!   protocol". Nodes that miss an expectation's deadline are "suspected for
//!   a certain period of time"; [`mute`] says how the paper's
//!   `expect(header, nodes, one|all)` narrows to one data message id.
//! * [`VerboseDetector`] (`indict(node)`) — detects *verbose* failures:
//!   "sending messages too often w.r.t. the protocol". It keeps a counter per
//!   indicted node, suspects past a threshold, supports minimum-spacing rules
//!   for the two periodic message types (gossip and beacon), and ages
//!   counters down over time ("the suspicion counters for each node are
//!   periodically decremented").
//! * [`TrustDetector`] (`suspect(node)`) — aggregates MUTE, VERBOSE,
//!   bad-signature reports and second-hand suspicions from trusted
//!   neighbours into a per-node [`TrustLevel`] (`Trusted`, `Unknown`,
//!   `Untrusted`) that feeds the overlay maintenance protocol.
//!
//! TRUST "maintains a trust level for each neighboring node", and all three
//! keep their per-node state (arrivals, aged counters, suspicions) in one
//! [`PeerFd`] row per peer of the node's one peer table, the overlay's
//! neighbour table, reached through [`Peers`]. The detectors hold only what
//! is not per node: MUTE's expectations, the aging clocks, VERBOSE's
//! spacing rules, and TRUST's reports, keyed by (suspected, reporter) pair.
//!
//! An important property stressed by the paper: these detectors observe only
//! *locally detectable, benign* misbehaviour, so they work in an eventually
//! synchronous environment "regardless of the ratio between the number of
//! Byzantine processes and the entire set of processes".
//!
//! [`interval`] provides the paper's *interval failure detector* classes
//! (`I_mute`, Section 2.2): a parameter set and a [`interval::SuspicionLog`]
//! checker used by tests and experiment R6 to verify Interval Strong Accuracy
//! and Interval Local Completeness on recorded runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod header;
pub mod interval;
pub mod mute;
mod peer;
pub mod trust;
pub mod verbose;

pub use header::MsgKind;
pub use interval::{IntervalSpec, SuspicionLog};
pub use mute::{DataId, MuteConfig, MuteDetector};
pub use peer::{Detector, PeerFd, Peers};
pub use trust::{TrustDetector, TrustLevel};
pub use verbose::VerboseDetector;

use byzcast_sim::SimTime;

use peer::decay_steps;
use Detector::{Mute, Verbose};

// A direct TRUST suspicion must outlast VERBOSE's aging interval, so that
// `FailureDetectors::tick` runs a pass over it before it lapses.
const _: () = assert!(verbose::DECAY_INTERVAL.as_micros() < trust::SUSPICION_DURATION.as_micros());

/// The three detectors of the paper's node architecture, bundled.
///
/// Protocol code owns one `FailureDetectors` and one peer table per node,
/// feeds the detectors what it observes, and reads back trust levels for
/// the overlay.
#[derive(Debug)]
pub struct FailureDetectors {
    /// The MUTE detector (class ◇P_mute / I_mute).
    pub mute: MuteDetector,
    /// The VERBOSE detector (class ◇P_verbose / I_verbose).
    pub verbose: VerboseDetector,
    /// The TRUST aggregator.
    pub trust: TrustDetector,
    /// Whether a row held a suspicion after the last tick's pass.
    suspicions: bool,
}

impl FailureDetectors {
    /// Creates the bundle from the MUTE configuration; VERBOSE and TRUST
    /// run with their fixed constants.
    pub fn new(mute: MuteConfig) -> Self {
        FailureDetectors {
            mute: MuteDetector::new(mute),
            verbose: VerboseDetector::default(),
            trust: TrustDetector::default(),
            suspicions: false,
        }
    }

    /// Advances detector-internal time: fires expect deadlines, ages
    /// counters and arrivals, expires suspicions, and propagates live
    /// MUTE/VERBOSE suspicions into TRUST, in one pass over the rows. Call
    /// periodically (e.g. from a protocol timer).
    ///
    /// The pass is skipped when it could change nothing: no aging step is
    /// due, and no row held a suspicion after the last pass or has been
    /// given one since by a MUTE miss or a VERBOSE indictment, which flag
    /// it. A TRUST `suspect` needs no flag: it outlasts VERBOSE's aging
    /// interval, so a pass sees it before it can lapse.
    pub fn tick(&mut self, now: SimTime, peers: &mut impl Peers) {
        let raised = self.mute.fire(now, peers) | std::mem::take(&mut self.verbose.raised);
        let interval = self.mute.config().decay_interval;
        let mute_steps = decay_steps(&mut self.mute.last_decay, interval, now);
        let verbose_steps = decay_steps(&mut self.verbose.last_decay, verbose::DECAY_INTERVAL, now);
        let (verbose, trust) = (&self.verbose, &mut self.trust);
        if self.suspicions || raised || mute_steps > 0 || verbose_steps > 0 {
            let mut suspicions = false;
            peers.update_peers(|_, row| {
                row.age(Mute, mute_steps, now);
                row.age(Verbose, verbose_steps, now);
                if verbose_steps > 0 {
                    verbose.age_arrivals(row, now);
                }
                if row.suspected(Mute, now) || row.suspected(Verbose, now) {
                    trust.raise(now, row);
                }
                trust.expire(now, row);
                suspicions |= row.until != [SimTime::ZERO; 3];
            });
            self.suspicions = suspicions;
        }
        trust.reports.retain(|&(_, _, until)| until > now);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use byzcast_sim::{NodeId, SimDuration};

    #[test]
    fn mute_suspicion_flows_into_trust() {
        // Short expect timeout so all misses land within one decay interval.
        let mute = MuteConfig {
            expect_timeout: SimDuration::from_millis(300),
            ..MuteConfig::default()
        };
        let mut fd = FailureDetectors::new(mute);
        let mut peers = BTreeMap::new();
        let threshold = fd.mute.config().threshold;
        let timeout = fd.mute.config().expect_timeout;
        let mut t = SimTime::from_secs(1);
        // Miss `threshold` expectations in a row: each message from origin 9
        // that node 5 fails to forward counts against it.
        for seq in 0..u64::from(threshold) {
            fd.mute.expect(t, (NodeId(9), seq), &[NodeId(5)]);
            t = t + timeout + SimDuration::from_millis(1);
            fd.tick(t, &mut peers);
        }
        assert_eq!(fd.trust.level(&peers, NodeId(5), t), TrustLevel::Untrusted);
        assert_eq!(fd.trust.level(&peers, NodeId(6), t), TrustLevel::Trusted);
    }

    #[test]
    fn verbose_indictments_flow_into_trust() {
        let mut fd = FailureDetectors::new(MuteConfig::default());
        let mut peers = BTreeMap::new();
        let t = SimTime::from_secs(1);
        for _ in 0..verbose::THRESHOLD {
            fd.verbose.indict(t, &mut peers, NodeId(2));
        }
        fd.tick(t, &mut peers);
        assert_eq!(fd.trust.level(&peers, NodeId(2), t), TrustLevel::Untrusted);
    }
}
