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
//! The escalation envelope repairs both legs. With
//! [`ByzcastConfig::recovery`](crate::ByzcastConfig::recovery) on, after [`ESCALATE_AFTER`] unanswered unicast
//! retries the originator widens its requests to [`WIDEN_FANOUT`] trusted
//! neighbours (non-dominators included, rotated round-robin) and floods a
//! [`FIND_TTL`]-hop `FIND_MISSING`, for [`MAX_ESCALATIONS`] rounds under
//! [`backoff`]; and on a fresh MUTE/TRUST indictment or beacon expiry the
//! node purges the dead neighbour from its table and re-runs the overlay
//! decision immediately instead of waiting out the beacon round. The
//! tunings are constants: every run that turns the envelope on uses these.
//!
//! With the switch off (the default) no mechanism runs and the protocol is
//! the paper's. Escalated traffic is *not* exempt from resource governance:
//! every widened request and TTL-bumped search still passes the receiving
//! node's admission buckets and verification budget (`crate::resources`),
//! so a flooder cannot use the escalation path to amplify itself.

use byzcast_sim::{counter_set, SimDuration};

/// Unanswered unicast retries before requests widen beyond the remembered
/// gossiper.
pub const ESCALATE_AFTER: u32 = 2;
/// Widened retry rounds attempted past [`ESCALATE_AFTER`]: the request
/// budget per missing message is `ESCALATE_AFTER + MAX_ESCALATIONS`.
pub const MAX_ESCALATIONS: u32 = 4;
/// Spacing before the first widened retry; doubles every round.
pub const BACKOFF_BASE: SimDuration = SimDuration::from_millis(1000);
/// Upper bound on the widened retry spacing.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_millis(4000);
/// Trusted neighbours targeted per widened round, rotated round-robin
/// across rounds so successive retries try different neighbours.
pub const WIDEN_FANOUT: usize = 3;
/// Hops an escalated `FIND_MISSING` flood travels (the plain protocol
/// always searches with TTL 2).
pub const FIND_TTL: u8 = 3;

const _: () = assert!(ESCALATE_AFTER >= 1);
const _: () = assert!(BACKOFF_BASE.as_micros() > 0);
const _: () = assert!(BACKOFF_CAP.as_micros() >= BACKOFF_BASE.as_micros());
const _: () = assert!(WIDEN_FANOUT > 0);
const _: () = assert!(FIND_TTL >= 2);

/// Spacing before widened round `level` (0-based): `BACKOFF_BASE ×
/// 2^level`, saturating, capped at [`BACKOFF_CAP`].
pub fn backoff(level: u32) -> SimDuration {
    let micros = BACKOFF_BASE
        .as_micros()
        .saturating_mul(1u64.checked_shl(level).unwrap_or(u64::MAX));
    SimDuration::from_micros(micros.min(BACKOFF_CAP.as_micros()))
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
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), SimDuration::from_millis(1000));
        assert_eq!(backoff(1), SimDuration::from_millis(2000));
        assert_eq!(backoff(2), SimDuration::from_millis(4000));
        assert_eq!(backoff(3), SimDuration::from_millis(4000));
        assert_eq!(backoff(63), SimDuration::from_millis(4000));
        assert_eq!(backoff(64), SimDuration::from_millis(4000));
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
