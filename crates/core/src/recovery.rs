//! Recovery escalation and liveness-driven overlay repair.
//!
//! The paper's recovery chain (gossip digest → `REQUEST_MSG` →
//! `FIND_MISSING_MSG`) assumes a live dominator overlay: requests unicast to
//! the most recent gossiper and searches travel exactly two hops. On a
//! thin-chain topology — a cluster whose only surviving path is a single
//! marginal link — a crash next to the chain leaves both assumptions false:
//! the remembered gossiper may be the crashed node itself, and a two-hop
//! search along a stale overlay never crosses the chain.
//!
//! [`RecoveryConfig`] is the escalation envelope that repairs both legs:
//! after `escalate_after` unanswered unicast retries the originator widens
//! its requests to all trusted neighbours (non-dominators included, rotated
//! round-robin) and floods a TTL-bumped `FIND_MISSING`, under capped
//! exponential backoff; and on a fresh MUTE/TRUST indictment or beacon
//! expiry the node purges the dead neighbour from its table and re-runs the
//! overlay decision immediately instead of waiting out the beacon round.
//!
//! The default envelope ([`RecoveryConfig::off`]) disables every mechanism
//! and is byte-identical to the pre-escalation protocol —
//! `tests/perf_equivalence.rs` pins this. Escalated traffic is *not* exempt
//! from resource governance: every widened request and TTL-bumped search
//! still passes the receiving node's admission buckets and verification
//! budget (`crate::resources`), so a flooder cannot use the escalation path
//! to amplify itself.

use byzcast_sim::{counter_set, SimDuration};

/// The recovery-escalation envelope. All-off by default; see
/// [`RecoveryConfig::standard`] for the profile the chaos harness uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Unanswered unicast retries before requests widen beyond the
    /// remembered gossiper. `0` disables escalation entirely.
    pub escalate_after: u32,
    /// Widened retry rounds attempted past `escalate_after` (the total
    /// request budget per missing message becomes `escalate_after +
    /// max_escalations` when escalation is enabled).
    pub max_escalations: u32,
    /// Spacing before the first widened retry; doubles every round.
    pub backoff_base: SimDuration,
    /// Upper bound on the widened retry spacing.
    pub backoff_cap: SimDuration,
    /// Trusted neighbours targeted per widened round, rotated round-robin
    /// across rounds so successive retries try different neighbours.
    pub widen_fanout: usize,
    /// TTL of the escalated `FIND_MISSING` flood (the plain protocol always
    /// searches with TTL 2; values below 2 are treated as 2).
    pub find_ttl: u8,
    /// Purge freshly indicted or beacon-expired neighbours from the
    /// neighbour table and re-run the overlay decision immediately (at
    /// `fd_tick` granularity) instead of at the next beacon.
    pub reelect_on_indictment: bool,
}

impl RecoveryConfig {
    /// The disabled envelope: no escalation, no liveness-driven repair.
    /// Byte-identical to the protocol before this layer existed.
    pub fn off() -> Self {
        RecoveryConfig {
            escalate_after: 0,
            max_escalations: 0,
            backoff_base: SimDuration::ZERO,
            backoff_cap: SimDuration::ZERO,
            widen_fanout: 0,
            find_ttl: 0,
            reelect_on_indictment: false,
        }
    }

    /// The standard escalation profile: widen after 2 unanswered unicast
    /// retries, 4 widened rounds at 3 neighbours each with 1 s → 4 s
    /// backoff, TTL-3 searches, and immediate re-election on indictment.
    pub fn standard() -> Self {
        RecoveryConfig {
            escalate_after: 2,
            max_escalations: 4,
            backoff_base: SimDuration::from_millis(1000),
            backoff_cap: SimDuration::from_millis(4000),
            widen_fanout: 3,
            find_ttl: 3,
            reelect_on_indictment: true,
        }
    }

    /// Whether request escalation is active.
    pub fn escalation_enabled(&self) -> bool {
        self.escalate_after > 0 && self.max_escalations > 0
    }

    /// Whether any part of the envelope is active (drives whether a run
    /// reports [`RecoveryStats`]).
    pub fn enabled(&self) -> bool {
        self.escalation_enabled() || self.reelect_on_indictment
    }

    /// Spacing before widened round `level` (0-based): `backoff_base ×
    /// 2^level`, saturating, capped at `backoff_cap`.
    pub fn backoff(&self, level: u32) -> SimDuration {
        let micros = self
            .backoff_base
            .as_micros()
            .saturating_mul(1u64.checked_shl(level).unwrap_or(u64::MAX));
        SimDuration::from_micros(micros.min(self.backoff_cap.as_micros().max(1)))
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig::off()
    }
}

counter_set! {
    /// Per-node recovery-escalation statistics, merged across correct nodes by
    /// the harness (counters summed, peaks maxed) into the per-run JSONL.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RecoveryStats {
        /// Recovery requests originated on the normal unicast path.
        pub requests_originated: u64 => sum,
        /// Widened request frames sent to non-preferred neighbours.
        pub requests_widened: u64 => sum,
        /// TTL-bumped `FIND_MISSING` floods originated by escalation.
        pub finds_escalated: u64 => sum,
        /// Highest escalation level any missing message reached (1-based; 0
        /// means no message ever escalated).
        pub peak_escalation: u64 => max,
        /// Immediate overlay re-elections triggered outside the beacon cycle.
        pub reelections: u64 => sum,
        /// Neighbour-table entries purged on indictment or beacon expiry.
        pub neighbors_purged: u64 => sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = RecoveryConfig::default();
        assert_eq!(c, RecoveryConfig::off());
        assert!(!c.enabled());
        assert!(!c.escalation_enabled());
    }

    #[test]
    fn standard_is_enabled() {
        let c = RecoveryConfig::standard();
        assert!(c.enabled());
        assert!(c.escalation_enabled());
        assert!(c.find_ttl >= 2);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let c = RecoveryConfig::standard();
        assert_eq!(c.backoff(0), SimDuration::from_millis(1000));
        assert_eq!(c.backoff(1), SimDuration::from_millis(2000));
        assert_eq!(c.backoff(2), SimDuration::from_millis(4000));
        assert_eq!(c.backoff(3), SimDuration::from_millis(4000));
        assert_eq!(c.backoff(63), SimDuration::from_millis(4000));
        assert_eq!(c.backoff(64), SimDuration::from_millis(4000));
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_peak() {
        let mut a = RecoveryStats {
            requests_originated: 1,
            requests_widened: 2,
            finds_escalated: 3,
            peak_escalation: 2,
            reelections: 4,
            neighbors_purged: 5,
        };
        let b = RecoveryStats {
            requests_originated: 10,
            requests_widened: 20,
            finds_escalated: 30,
            peak_escalation: 1,
            reelections: 40,
            neighbors_purged: 50,
        };
        a.merge(&b);
        assert_eq!(a.requests_originated, 11);
        assert_eq!(a.requests_widened, 22);
        assert_eq!(a.finds_escalated, 33);
        assert_eq!(a.peak_escalation, 2);
        assert_eq!(a.reelections, 44);
        assert_eq!(a.neighbors_purged, 55);
    }
}
