//! Interval failure detectors (paper §2.2) and checkers for their properties.
//!
//! "Since the specification of ◇P failure detectors require the accuracy
//! property to hold from some point on forever, they are not practical in a
//! real long running system. Hence, we present a new type of failure
//! detectors called Interval failure detector," defined by:
//!
//! * **Interval Strong Accuracy** — non-mute processes are not suspected by
//!   any correct process during the *suspicion-free interval*.
//! * **Interval Local Completeness** — every process that suffers a mute
//!   failure w.r.t. a correct process `q` during a *mute interval* is
//!   suspected by `q` during a *suspicion interval*.
//!
//! [`IntervalSpec`] carries the three interval lengths (with the paper's
//! Observation 3.3 constraint `mute_interval > (n−1)·max_timeout` available
//! as a constructor check), and [`SuspicionLog`] records the suspicion
//! history of a run so tests and experiment R6 can check both properties
//! against ground truth.

use std::collections::{hash_map::Entry, HashMap};

use byzcast_sim::{NodeId, SimDuration, SimTime};

/// Parameters of an `I_mute` / `I_verbose` interval failure detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IntervalSpec {
    /// Length of a mute interval (misbehaviour observation window).
    pub mute_interval: SimDuration,
    /// Length of the suspicion interval within which detection must occur.
    pub suspicion_interval: SimDuration,
    /// Length of the suspicion-free interval during which correct processes
    /// must not be suspected.
    pub suspicion_free_interval: SimDuration,
}

impl IntervalSpec {
    /// Builds a spec, checking the paper's Observation 3.3: "In order to
    /// prevent false suspicions of the overlay nodes the mute interval of the
    /// I_mute failure detector should be larger than (n − 1) · max_timeout."
    ///
    /// # Errors
    ///
    /// Returns the violated constraint as a string if the mute interval is
    /// too short for the given network size and `max_timeout`.
    pub fn checked(
        mute_interval: SimDuration,
        suspicion_interval: SimDuration,
        suspicion_free_interval: SimDuration,
        n: usize,
        max_timeout: SimDuration,
    ) -> Result<Self, String> {
        let bound = max_timeout.saturating_mul(n.saturating_sub(1) as u64);
        if mute_interval <= bound {
            return Err(format!(
                "mute_interval {mute_interval} must exceed (n-1)*max_timeout = {bound}"
            ));
        }
        Ok(IntervalSpec {
            mute_interval,
            suspicion_interval,
            suspicion_free_interval,
        })
    }
}

/// One suspicion episode: `observer` suspected `suspect` over `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuspicionEpisode {
    /// The correct process doing the suspecting.
    pub observer: NodeId,
    /// The process being suspected.
    pub suspect: NodeId,
    /// When the suspicion began.
    pub start: SimTime,
    /// When the suspicion ended (`SimTime::MAX` while open).
    pub end: SimTime,
}

/// Records the suspicion history of a run for offline property checking.
#[derive(Debug, Default)]
pub struct SuspicionLog {
    episodes: Vec<SuspicionEpisode>,
    open: HashMap<(NodeId, NodeId), usize>,
}

impl SuspicionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        SuspicionLog::default()
    }

    /// Records that `observer` began suspecting `suspect` at `now` (no-op if
    /// the pair's episode is already open).
    pub fn begin(&mut self, now: SimTime, observer: NodeId, suspect: NodeId) {
        if let Entry::Vacant(slot) = self.open.entry((observer, suspect)) {
            slot.insert(self.episodes.len());
            self.episodes.push(SuspicionEpisode {
                observer,
                suspect,
                start: now,
                end: SimTime::MAX,
            });
        }
    }

    /// Records that `observer` stopped suspecting `suspect` at `now`.
    pub fn end(&mut self, now: SimTime, observer: NodeId, suspect: NodeId) {
        if let Some(idx) = self.open.remove(&(observer, suspect)) {
            self.episodes[idx].end = now;
        }
    }

    /// All recorded episodes (open ones have `end == SimTime::MAX`).
    pub fn episodes(&self) -> &[SuspicionEpisode] {
        &self.episodes
    }

    /// Whether `observer` suspected `suspect` at any point in `[from, to)` —
    /// the Interval Local Completeness obligation for a mute interval
    /// starting at `from` with suspicion interval ending at `to`.
    pub fn suspected_within(
        &self,
        observer: NodeId,
        suspect: NodeId,
        from: SimTime,
        to: SimTime,
    ) -> bool {
        self.episodes
            .iter()
            .any(|e| e.observer == observer && e.suspect == suspect && e.start < to && e.end > from)
    }

    /// Checks Interval Strong Accuracy: no episode suspects any node in
    /// `non_mute` during `[from, from + spec.suspicion_free_interval)`.
    /// Returns the violating episodes.
    pub fn accuracy_violations(
        &self,
        spec: &IntervalSpec,
        from: SimTime,
        non_mute: &[NodeId],
    ) -> Vec<SuspicionEpisode> {
        let to = from + spec.suspicion_free_interval;
        self.episodes
            .iter()
            .filter(|e| non_mute.contains(&e.suspect) && e.start < to && e.end > from)
            .copied()
            .collect()
    }

    /// Checks Interval Local Completeness: every `(observer, mute_node)`
    /// pair must have a suspicion episode intersecting
    /// `[mute_start, mute_start + mute_interval + suspicion_interval)`.
    /// Returns the pairs that were missed.
    pub fn completeness_misses(
        &self,
        spec: &IntervalSpec,
        mute_start: SimTime,
        observers: &[NodeId],
        mute_nodes: &[NodeId],
    ) -> Vec<(NodeId, NodeId)> {
        let to = mute_start + spec.mute_interval + spec.suspicion_interval;
        let mut misses = Vec::new();
        for &obs in observers {
            for &m in mute_nodes {
                if obs != m && !self.suspected_within(obs, m, mute_start, to) {
                    misses.push((obs, m));
                }
            }
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IntervalSpec {
        IntervalSpec {
            mute_interval: SimDuration::from_secs(10),
            suspicion_interval: SimDuration::from_secs(5),
            suspicion_free_interval: SimDuration::from_secs(10),
        }
    }

    #[test]
    fn checked_enforces_observation_3_3() {
        let max_timeout = SimDuration::from_secs(1);
        // n = 5: bound is 4 s; a 10 s mute interval is fine.
        assert!(IntervalSpec::checked(
            SimDuration::from_secs(10),
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            5,
            max_timeout
        )
        .is_ok());
        // A 3 s mute interval is too short.
        let err = IntervalSpec::checked(
            SimDuration::from_secs(3),
            SimDuration::from_secs(5),
            SimDuration::from_secs(10),
            5,
            max_timeout,
        )
        .unwrap_err();
        assert!(err.contains("max_timeout"));
    }

    #[test]
    fn log_tracks_open_and_closed_episodes() {
        let mut log = SuspicionLog::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        log.begin(t1, NodeId(0), NodeId(5));
        log.begin(t1, NodeId(0), NodeId(5)); // duplicate begin ignored
        assert_eq!(log.episodes().len(), 1);
        log.end(t2, NodeId(0), NodeId(5));
        assert_eq!(log.episodes()[0].end, t2);
        // Ending a non-open pair is a no-op.
        log.end(t2, NodeId(1), NodeId(5));
        assert_eq!(log.episodes().len(), 1);
    }

    #[test]
    fn suspected_within_interval_arithmetic() {
        let mut log = SuspicionLog::new();
        log.begin(SimTime::from_secs(5), NodeId(0), NodeId(1));
        log.end(SimTime::from_secs(8), NodeId(0), NodeId(1));
        assert!(log.suspected_within(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(6),
            SimTime::from_secs(7)
        ));
        assert!(!log.suspected_within(
            NodeId(0),
            NodeId(1),
            SimTime::from_secs(8),
            SimTime::from_secs(9)
        ));
        assert!(!log.suspected_within(
            NodeId(0),
            NodeId(2),
            SimTime::ZERO,
            SimTime::from_secs(100)
        ));
    }

    #[test]
    fn accuracy_violation_detection() {
        let mut log = SuspicionLog::new();
        log.begin(SimTime::from_secs(2), NodeId(0), NodeId(1));
        log.end(SimTime::from_secs(3), NodeId(0), NodeId(1));
        // Node 1 is non-mute: suspecting it inside the window is a violation.
        let v = log.accuracy_violations(&spec(), SimTime::from_secs(1), &[NodeId(1)]);
        assert_eq!(v.len(), 1);
        // Node 2 is the mute one: no violation recorded against it.
        let v = log.accuracy_violations(&spec(), SimTime::from_secs(1), &[NodeId(2)]);
        assert!(v.is_empty());
        // Outside the window: fine.
        let v = log.accuracy_violations(&spec(), SimTime::from_secs(20), &[NodeId(1)]);
        assert!(v.is_empty());
    }

    #[test]
    fn completeness_miss_detection() {
        let mut log = SuspicionLog::new();
        // Observer 0 suspects mute node 9 in time; observer 1 never does.
        log.begin(SimTime::from_secs(12), NodeId(0), NodeId(9));
        let misses = log.completeness_misses(
            &spec(),
            SimTime::from_secs(5),
            &[NodeId(0), NodeId(1)],
            &[NodeId(9)],
        );
        assert_eq!(misses, vec![(NodeId(1), NodeId(9))]);
    }

    #[test]
    fn completeness_skips_self_pairs() {
        let log = SuspicionLog::new();
        let misses = log.completeness_misses(&spec(), SimTime::ZERO, &[NodeId(9)], &[NodeId(9)]);
        assert!(misses.is_empty());
    }
}
