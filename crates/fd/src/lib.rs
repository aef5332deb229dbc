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
//! * [`TrustDetector`] (`suspect(node, reason)`) — aggregates MUTE, VERBOSE,
//!   bad-signature reports and second-hand suspicions from trusted
//!   neighbours into a per-node [`TrustLevel`] (`Trusted`, `Unknown`,
//!   `Untrusted`) that feeds the overlay maintenance protocol.
//!
//! The three share one suspicion table (node → suspected until); MUTE and
//! VERBOSE also share the aged offence counter that feeds it.
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
mod suspicion;
pub mod trust;
pub mod verbose;

pub use header::MsgKind;
pub use interval::{IntervalSpec, SuspicionLog};
pub use mute::{DataId, MuteConfig, MuteDetector};
pub use trust::{SuspicionReason, TrustDetector, TrustLevel};
pub use verbose::{VerboseConfig, VerboseDetector};

use byzcast_sim::{NodeId, SimTime};

/// The three detectors of the paper's node architecture, bundled.
///
/// Protocol code owns one `FailureDetectors` per node, feeds it what it
/// observes, and reads back trust levels for the overlay.
#[derive(Debug)]
pub struct FailureDetectors {
    /// The MUTE detector (class ◇P_mute / I_mute).
    pub mute: MuteDetector,
    /// The VERBOSE detector (class ◇P_verbose / I_verbose).
    pub verbose: VerboseDetector,
    /// The TRUST aggregator.
    pub trust: TrustDetector,
}

impl FailureDetectors {
    /// Creates the bundle from the MUTE configuration; VERBOSE runs with
    /// [`VerboseConfig::default`] and TRUST with its fixed durations.
    pub fn new(mute: MuteConfig) -> Self {
        FailureDetectors {
            mute: MuteDetector::new(mute),
            verbose: VerboseDetector::new(VerboseConfig::default()),
            trust: TrustDetector::default(),
        }
    }

    /// Advances detector-internal time: fires expect deadlines, ages
    /// counters, expires suspicions, and propagates fresh MUTE/VERBOSE
    /// suspicions into TRUST. Call periodically (e.g. from a protocol timer).
    pub fn tick(&mut self, now: SimTime) {
        self.mute.tick(now);
        self.verbose.tick(now);
        for node in self.mute.suspects(now) {
            self.trust.suspect(now, node, SuspicionReason::Mute);
        }
        for node in self.verbose.suspects(now) {
            self.trust.suspect(now, node, SuspicionReason::Verbose);
        }
        self.trust.tick(now);
    }

    /// The aggregated trust level of `node` at `now`.
    pub fn level(&self, node: NodeId, now: SimTime) -> TrustLevel {
        self.trust.level(node, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_sim::SimDuration;

    #[test]
    fn mute_suspicion_flows_into_trust() {
        // Short expect timeout so all misses land within one decay interval.
        let mute = MuteConfig {
            expect_timeout: SimDuration::from_millis(300),
            ..MuteConfig::default()
        };
        let mut fd = FailureDetectors::new(mute);
        let threshold = fd.mute.config().threshold;
        let timeout = fd.mute.config().expect_timeout;
        let mut t = SimTime::from_secs(1);
        // Miss `threshold` expectations in a row: each message from origin 9
        // that node 5 fails to forward counts against it.
        for seq in 0..u64::from(threshold) {
            fd.mute.expect(t, (NodeId(9), seq), &[NodeId(5)]);
            t = t + timeout + SimDuration::from_millis(1);
            fd.tick(t);
        }
        assert_eq!(fd.level(NodeId(5), t), TrustLevel::Untrusted);
        assert_eq!(fd.level(NodeId(6), t), TrustLevel::Trusted);
    }

    #[test]
    fn verbose_indictments_flow_into_trust() {
        let mut fd = FailureDetectors::new(MuteConfig::default());
        let t = SimTime::from_secs(1);
        for _ in 0..fd.verbose.config().threshold {
            fd.verbose.indict(t, NodeId(2));
        }
        fd.tick(t);
        assert_eq!(fd.level(NodeId(2), t), TrustLevel::Untrusted);
    }
}
