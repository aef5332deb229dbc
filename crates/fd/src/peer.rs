//! What the three detectors keep about one peer, and how they reach it.
//!
//! Every detector suspects a node "for a certain period of time", and MUTE
//! and VERBOSE suspect only after repeated offences (missed deadlines,
//! indictments), counted against a threshold and aged down periodically —
//! "the suspicion counters for each node are periodically decremented" — so
//! sporadic offences never accumulate. All of that is per peer, so it lives
//! in one [`PeerFd`] per peer: a column of the node's one peer table (the
//! overlay's neighbour table), reached through [`Peers`]. The detectors keep
//! only what is not per peer.

use std::collections::BTreeMap;

use byzcast_sim::{NodeId, SimDuration, SimTime};

/// A detector, as a [`PeerFd`] indexes its suspicions and counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Detector {
    /// MUTE, which counts missed deadlines.
    Mute,
    /// VERBOSE, which counts indictments.
    Verbose,
    /// TRUST, which keeps no counter.
    Trust,
}

/// An empty arrival slot (no arrival of that kind is tracked).
pub(crate) const NO_ARRIVAL: SimTime = SimTime::MAX;

/// What the MUTE, VERBOSE and TRUST detectors keep about one peer: 56 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerFd {
    /// VERBOSE: the latest Gossip and Beacon arrival, [`NO_ARRIVAL`] where
    /// none is tracked.
    pub(crate) arrivals: [SimTime; 2],
    /// Until when MUTE, VERBOSE and TRUST suspect the peer; `ZERO` once a
    /// tick has seen the suspicion end.
    pub(crate) until: [SimTime; 3],
    /// MUTE's missed deadlines and VERBOSE's indictments, aged.
    pub(crate) offences: [u32; 2],
    /// VERBOSE: resource-quota violations not yet converted into an
    /// indictment.
    pub(crate) quota: u32,
    /// Whether the suspicion log last recorded the peer as untrusted.
    pub(crate) logged: bool,
}

impl PeerFd {
    /// A row with nothing to remember.
    const IDLE: PeerFd = PeerFd {
        arrivals: [NO_ARRIVAL; 2],
        until: [SimTime::ZERO; 3],
        offences: [0; 2],
        quota: 0,
        logged: false,
    };

    /// Whether the row holds nothing, so its table may free it.
    pub fn is_idle(&self) -> bool {
        *self == Self::IDLE
    }

    /// Whether `by` suspects the peer at `now`.
    pub(crate) fn suspected(&self, by: Detector, now: SimTime) -> bool {
        self.until[by as usize] > now
    }

    /// Has `by` suspect the peer until `until`, or longer if it already
    /// does.
    pub(crate) fn raise(&mut self, by: Detector, until: SimTime) {
        let at = &mut self.until[by as usize];
        *at = (*at).max(until);
    }

    /// Counts one offence against the peer in `by`'s counter, and has `by`
    /// suspect it until `until` if the count reaches `threshold`; returns
    /// whether it did.
    pub(crate) fn offend(&mut self, by: Detector, threshold: u32, until: SimTime) -> bool {
        let count = &mut self.offences[by as usize];
        *count += 1;
        let suspects = *count >= threshold;
        if suspects {
            self.raise(by, until);
        }
        suspects
    }

    /// Takes `steps` aging decrements off `by`'s counter and clears its
    /// suspicion if it is over by `now`.
    pub(crate) fn age(&mut self, by: Detector, steps: u32, now: SimTime) {
        let count = &mut self.offences[by as usize];
        *count = count.saturating_sub(steps);
        let until = &mut self.until[by as usize];
        if *until <= now {
            *until = SimTime::ZERO;
        }
    }
}

impl Default for PeerFd {
    fn default() -> Self {
        Self::IDLE
    }
}

/// A node-keyed table whose rows carry a [`PeerFd`]: the node's neighbour
/// table in the protocol, or a plain `BTreeMap` on its own. Beside the row
/// access it answers what the rows say about each detector's suspicions.
pub trait Peers {
    /// The row of `node`, if it has one.
    fn peer(&self, node: NodeId) -> Option<&PeerFd>;
    /// The row of `node`, added if it has none.
    fn peer_mut(&mut self, node: NodeId) -> &mut PeerFd;
    /// Every row, in id order.
    fn peers(&self) -> impl Iterator<Item = (NodeId, &PeerFd)>;
    /// Runs `f` on every row in id order, then frees the rows that hold
    /// nothing any more.
    fn update_peers(&mut self, f: impl FnMut(NodeId, &mut PeerFd));

    /// Whether `by` suspects `node` at `now`.
    fn suspected(&self, by: Detector, node: NodeId, now: SimTime) -> bool {
        self.peer(node).is_some_and(|row| row.suspected(by, now))
    }

    /// The nodes `by` suspects at `now`, in id order.
    fn suspects(&self, by: Detector, now: SimTime) -> Vec<NodeId> {
        let rows = self.peers();
        rows.filter_map(|(node, row)| row.suspected(by, now).then_some(node))
            .collect()
    }

    /// `by`'s aged offence counter for `node`; TRUST keeps none.
    fn offences(&self, by: Detector, node: NodeId) -> u32 {
        let row = self.peer(node);
        row.and_then(|row| row.offences.get(by as usize).copied())
            .unwrap_or(0)
    }
}

impl Peers for BTreeMap<NodeId, PeerFd> {
    fn peer(&self, node: NodeId) -> Option<&PeerFd> {
        self.get(&node)
    }

    fn peer_mut(&mut self, node: NodeId) -> &mut PeerFd {
        self.entry(node).or_default()
    }

    fn peers(&self) -> impl Iterator<Item = (NodeId, &PeerFd)> {
        self.iter().map(|(&node, row)| (node, row))
    }

    fn update_peers(&mut self, mut f: impl FnMut(NodeId, &mut PeerFd)) {
        self.retain(|&node, row| {
            f(node, row);
            !row.is_idle()
        });
    }
}

/// The aging steps due at `now`: how many whole `interval`s have passed
/// since `last`, which moves on by that many.
pub(crate) fn decay_steps(last: &mut SimTime, interval: SimDuration, now: SimTime) -> u32 {
    let mut steps = 0;
    while now.saturating_since(*last) >= interval {
        *last += interval;
        steps += 1;
    }
    steps
}
