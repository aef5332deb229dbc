//! The suspicion bookkeeping the three detectors share.
//!
//! Every detector suspects a node "for a certain period of time": a
//! [`Suspected`] table maps each suspect to the instant its suspicion ends.
//! MUTE and VERBOSE suspect only after repeated offences (missed deadlines,
//! indictments), counted by [`Offences`] against a threshold and aged down
//! periodically — "the suspicion counters for each node are periodically
//! decremented" — so sporadic offences never accumulate.

use byzcast_sim::{NodeId, SimDuration, SimTime};

/// A small map from node to value: `(node, value)` pairs sorted by node.
/// A node suspects or counts only a handful of others at a time, so a
/// binary search over one dense vector beats hashing, and an empty map is
/// one 24-byte header that ticks read without touching any other memory.
#[derive(Debug)]
pub(crate) struct NodeMap<T>(Vec<(NodeId, T)>);

impl<T> Default for NodeMap<T> {
    fn default() -> Self {
        NodeMap(Vec::new())
    }
}

impl<T: Copy> NodeMap<T> {
    /// The value of `node`, if any.
    pub(crate) fn get(&self, node: NodeId) -> Option<T> {
        let pos = self.0.binary_search_by_key(&node, |&(n, _)| n).ok()?;
        Some(self.0[pos].1)
    }

    /// The value of `node`, inserting `default` first if it has none.
    pub(crate) fn entry(&mut self, node: NodeId, default: T) -> &mut T {
        let pos = match self.0.binary_search_by_key(&node, |&(n, _)| n) {
            Ok(pos) => pos,
            Err(pos) => {
                self.0.insert(pos, (node, default));
                pos
            }
        };
        &mut self.0[pos].1
    }

    /// Keeps the entries `keep` returns `true` for (it may update them).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        self.0.retain_mut(|(_, v)| keep(v));
    }

    /// The entries in node order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, T)> + '_ {
        self.0.iter().copied()
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Bytes allocated for entries.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<(NodeId, T)>()
    }
}

/// Node → instant until which it is suspected.
#[derive(Debug, Default)]
pub(crate) struct Suspected(NodeMap<SimTime>);

impl Suspected {
    /// Suspects `node` until `until`, or longer if it already is.
    pub(crate) fn raise(&mut self, node: NodeId, until: SimTime) {
        let entry = self.0.entry(node, until);
        *entry = (*entry).max(until);
    }

    /// Forgets the suspicions over by `now`; returns whether any were.
    pub(crate) fn expire(&mut self, now: SimTime) -> bool {
        let before = self.0.len();
        self.0.retain(|until| *until > now);
        self.0.len() != before
    }

    /// Whether `node` is suspected at `now`.
    pub(crate) fn contains(&self, node: NodeId, now: SimTime) -> bool {
        self.0.get(node).is_some_and(|until| until > now)
    }

    /// The nodes suspected at `now`, in id order.
    pub(crate) fn at(&self, now: SimTime) -> Vec<NodeId> {
        self.0
            .iter()
            .filter_map(|(n, until)| (until > now).then_some(n))
            .collect()
    }

    /// Bytes allocated for entries.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }
}

/// Per-node offence counters: an aged counter that suspects its node for
/// `suspicion_duration` whenever it reaches `threshold`, and a total that
/// is never aged (diagnostic).
#[derive(Debug)]
pub(crate) struct Offences {
    threshold: u32,
    decay_interval: SimDuration,
    suspicion_duration: SimDuration,
    counters: NodeMap<u32>,
    totals: NodeMap<u64>,
    last_decay: SimTime,
    suspected: Suspected,
}

impl Offences {
    /// Empty counters under the given threshold, aging step and suspicion
    /// length.
    pub(crate) fn new(
        threshold: u32,
        decay_interval: SimDuration,
        suspicion_duration: SimDuration,
    ) -> Self {
        Offences {
            threshold,
            decay_interval,
            suspicion_duration,
            counters: NodeMap::default(),
            totals: NodeMap::default(),
            last_decay: SimTime::ZERO,
            suspected: Suspected::default(),
        }
    }

    /// Counts one offence by `node` at `now`.
    pub(crate) fn count(&mut self, now: SimTime, node: NodeId) {
        *self.totals.entry(node, 0) += 1;
        let c = self.counters.entry(node, 0);
        *c += 1;
        if *c >= self.threshold {
            self.suspected.raise(node, now + self.suspicion_duration);
        }
    }

    /// Decrements every counter once per decay interval elapsed since the
    /// last decrement, then expires the suspicions over by `now`. Returns
    /// whether any decrement happened.
    pub(crate) fn tick(&mut self, now: SimTime) -> bool {
        let aged = now.saturating_since(self.last_decay) >= self.decay_interval;
        while now.saturating_since(self.last_decay) >= self.decay_interval {
            self.last_decay += self.decay_interval;
            self.counters.retain(|c| {
                *c = c.saturating_sub(1);
                *c > 0
            });
        }
        self.suspected.expire(now);
        aged
    }

    /// The nodes whose counter reached the threshold, and until when.
    pub(crate) fn suspected(&self) -> &Suspected {
        &self.suspected
    }

    /// The current (aged) counter of `node`.
    pub(crate) fn counter(&self, node: NodeId) -> u32 {
        self.counters.get(node).unwrap_or(0)
    }

    /// The offences of `node` over the whole run.
    pub(crate) fn total(&self, node: NodeId) -> u64 {
        self.totals.get(node).unwrap_or(0)
    }

    /// Bytes allocated for counters, totals and suspicions.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.counters.heap_bytes() + self.totals.heap_bytes() + self.suspected.heap_bytes()
    }
}
