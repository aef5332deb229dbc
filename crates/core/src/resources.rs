//! Resource governance: admission control, verification budgets, quotas.
//!
//! The §3.5 buffer bound (`max_timeout · δ` messages) only holds when senders
//! are correct: nothing in the paper's pseudo-code limits how fast a
//! Byzantine neighbour may inject *unique* signed frames, each of which costs
//! a full signature verification and (if valid) a buffered body until the
//! purge horizon. This module makes the implicit envelope explicit:
//!
//! * a per-neighbour **token bucket** admits frames *before* any
//!   dispatching, and a second bucket budgets **signature verifications**
//!   *before* any crypto runs, so an attacker cannot spend a correct node's
//!   CPU faster than the configured rate; each bucket holds
//!   [`BURST_SECONDS`] of its rate;
//! * [`ResourceConfig`] also carries hard count/byte caps enforced by
//!   [`crate::store::MessageStore`] and per-origin quotas enforced by
//!   [`crate::protocol::ByzcastNode`] on its gossip/request bookkeeping;
//! * [`ResourceStats`] reports high-water marks and drop counters so a
//!   harness oracle can check that the envelope was honoured.
//!
//! Every limit defaults to `0` = unlimited; with the default configuration
//! the governed code paths reproduce ungoverned behaviour exactly.

use std::collections::BTreeMap;

use byzcast_sim::{counter_set, NodeId, SimTime};

/// Per-node resource-governance envelope. All limits use `0` = unlimited,
/// and [`ResourceConfig::default`] leaves every limit at `0`, reproducing
/// ungoverned behaviour bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceConfig {
    /// Per-neighbour frame admission rate (frames/second), charged for every
    /// received frame before it is dispatched; `0` = unlimited.
    pub frames_per_sec: u32,
    /// Per-neighbour signature-verification budget (verifications/second),
    /// charged before any crypto runs; `0` = unlimited.
    pub verifs_per_sec: u32,
    /// Hard cap on buffered message bodies (count); `0` = unlimited.
    pub max_store_msgs: usize,
    /// Hard cap on buffered message bodies (total wire bytes); `0` =
    /// unlimited.
    pub max_store_bytes: usize,
    /// Hard cap on retained seen/delivered ids; `0` = unlimited.
    pub max_seen_ids: usize,
    /// Per-origin cap on concurrently advertised gossip entries
    /// (`active_gossip`); `0` = unlimited. A node's own messages are exempt.
    pub max_gossip_per_origin: usize,
    /// Per-origin cap on concurrently tracked missing messages (request
    /// bookkeeping); `0` = unlimited.
    pub max_missing_per_origin: usize,
}

impl ResourceConfig {
    /// The ungoverned envelope (every limit `0`); same as `default()`.
    pub const fn unlimited() -> Self {
        ResourceConfig {
            frames_per_sec: 0,
            verifs_per_sec: 0,
            max_store_msgs: 0,
            max_store_bytes: 0,
            max_seen_ids: 0,
            max_gossip_per_origin: 0,
            max_missing_per_origin: 0,
        }
    }

    /// Whether every limit is disabled.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::unlimited()
    }
}

/// How many seconds of its rate a token bucket holds: the burst a
/// neighbour may send at once after a quiet spell.
pub const BURST_SECONDS: u64 = 2;

/// The burst capacity, in tokens, of a bucket refilled at `rate` tokens per
/// second.
pub const fn burst(rate: u32) -> u64 {
    rate as u64 * BURST_SECONDS
}

counter_set! {
    /// Resource-governance statistics of one node (or, merged, of a whole run):
    /// what was dropped, what was evicted, and how close the node came to its
    /// envelope.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ResourceStats {
        /// Frames admitted past the per-neighbour token bucket.
        pub frames_admitted: u64 => sum,
        /// Frames dropped by admission control before dispatch.
        pub frames_dropped: u64 => sum,
        /// Signature verifications charged against a neighbour's budget.
        pub verifs_charged: u64 => sum,
        /// Verifications refused because the neighbour's budget was exhausted.
        pub verifs_dropped: u64 => sum,
        /// Most signature verifications performed in any one-second window.
        pub peak_verifs_per_sec: u64 => max,
        /// Message bodies rejected by the store's count/byte caps (drop-newest).
        pub store_rejects: u64 => sum,
        /// Seen/delivered ids evicted by the store's seen-id cap (drop-oldest).
        pub seen_evictions: u64 => sum,
        /// Gossip/request bookkeeping entries refused by per-origin quotas.
        pub quota_drops: u64 => sum,
        /// VERBOSE indictments produced by sustained quota violations.
        pub quota_suspicions: u64 => sum,
        /// Peak buffered message bodies (count).
        pub peak_store_msgs: u64 => max,
        /// Peak buffered message bodies (total wire bytes).
        pub peak_store_bytes: u64 => max,
        /// Peak retained seen/delivered ids.
        pub peak_seen_ids: u64 => max,
        /// Peak buffered bodies holding a gossip advertisement slot.
        pub peak_active_gossip: u64 => max,
        /// Peak tracked missing messages.
        pub peak_missing: u64 => max,
    }
}

/// A token bucket in integer micro-tokens (1 token = 1_000_000 micro-tokens,
/// refilled at `rate` micro-tokens per elapsed microsecond — i.e. `rate`
/// tokens per second — up to [`burst`] tokens) so admission is exactly
/// deterministic.
#[derive(Clone, Copy, Debug)]
struct TokenBucket {
    micro_tokens: u64,
    last_refill: SimTime,
}

impl TokenBucket {
    const TOKEN: u64 = 1_000_000;

    fn full(rate: u32) -> Self {
        TokenBucket {
            micro_tokens: burst(rate).saturating_mul(Self::TOKEN),
            last_refill: SimTime::ZERO,
        }
    }

    fn try_take(&mut self, now: SimTime, rate: u32) -> bool {
        let elapsed = now.saturating_since(self.last_refill).as_micros();
        self.last_refill = now;
        self.micro_tokens = self
            .micro_tokens
            .saturating_add(u64::from(rate).saturating_mul(elapsed))
            .min(burst(rate).saturating_mul(Self::TOKEN));
        if self.micro_tokens >= Self::TOKEN {
            self.micro_tokens -= Self::TOKEN;
            true
        } else {
            false
        }
    }
}

/// The admission-control state of one node: per-neighbour token buckets plus
/// the verification-rate window used for `peak_verifs_per_sec`.
///
/// Every received frame passes [`Governor::admit_frame`] and every signature
/// check [`Governor::admit_verification`], so what an ungoverned node reads
/// and writes there — the two rates and the counters they always bump —
/// sits inline; the buckets and the other statistics sit behind one box.
#[derive(Debug)]
pub(crate) struct Governor {
    frames_per_sec: u32,
    verifs_per_sec: u32,
    frames_admitted: u64,
    verifs_charged: u64,
    /// Calendar second of the current verification-counting window.
    verif_window: u64,
    verifs_in_window: u64,
    peak_verifs_per_sec: u64,
    cold: Box<GovernorCold>,
}

/// The part of a [`Governor`] only a governed envelope or a report reads.
#[derive(Debug)]
struct GovernorCold {
    frames: BTreeMap<NodeId, TokenBucket>,
    verifs: BTreeMap<NodeId, TokenBucket>,
    /// Every statistic but the inline counters.
    stats: ResourceStats,
}

impl Governor {
    pub(crate) fn new(cfg: ResourceConfig) -> Self {
        Governor {
            frames_per_sec: cfg.frames_per_sec,
            verifs_per_sec: cfg.verifs_per_sec,
            frames_admitted: 0,
            verifs_charged: 0,
            verif_window: 0,
            verifs_in_window: 0,
            peak_verifs_per_sec: 0,
            cold: Box::new(GovernorCold {
                frames: BTreeMap::new(),
                verifs: BTreeMap::new(),
                stats: ResourceStats::default(),
            }),
        }
    }

    /// The statistics so far.
    pub(crate) fn stats(&self) -> ResourceStats {
        ResourceStats {
            frames_admitted: self.frames_admitted,
            verifs_charged: self.verifs_charged,
            peak_verifs_per_sec: self.peak_verifs_per_sec,
            ..self.cold.stats
        }
    }

    /// The statistics the protocol itself bumps (quota drops and
    /// suspicions).
    pub(crate) fn stats_mut(&mut self) -> &mut ResourceStats {
        &mut self.cold.stats
    }

    /// Bytes its cold part and its buckets take (a bucket counted as its
    /// key and value; the B-tree nodes around them are not).
    pub(crate) fn heap_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<(NodeId, TokenBucket)>();
        std::mem::size_of::<GovernorCold>()
            + (self.cold.frames.len() + self.cold.verifs.len()) * bucket
    }

    /// Charges one frame against `from`'s admission bucket. Returns whether
    /// the frame may be dispatched.
    pub(crate) fn admit_frame(&mut self, now: SimTime, from: NodeId) -> bool {
        if self.frames_per_sec == 0 {
            self.frames_admitted += 1;
            return true;
        }
        let (cold, rate) = (&mut *self.cold, self.frames_per_sec);
        let bucket = cold
            .frames
            .entry(from)
            .or_insert_with(|| TokenBucket::full(rate));
        if bucket.try_take(now, rate) {
            self.frames_admitted += 1;
            true
        } else {
            cold.stats.frames_dropped += 1;
            false
        }
    }

    /// Charges one signature verification against `from`'s budget. Returns
    /// whether the verification may run; the caller must drop the item
    /// unverified (and unsuspected — nothing was authenticated) on `false`.
    pub(crate) fn admit_verification(&mut self, now: SimTime, from: NodeId) -> bool {
        if self.verifs_per_sec != 0 {
            let (cold, rate) = (&mut *self.cold, self.verifs_per_sec);
            let bucket = cold
                .verifs
                .entry(from)
                .or_insert_with(|| TokenBucket::full(rate));
            if !bucket.try_take(now, rate) {
                cold.stats.verifs_dropped += 1;
                return false;
            }
        }
        self.verifs_charged += 1;
        let window = now.as_micros() / 1_000_000;
        if window != self.verif_window {
            self.verif_window = window;
            self.verifs_in_window = 0;
        }
        self.verifs_in_window += 1;
        self.peak_verifs_per_sec = self.peak_verifs_per_sec.max(self.verifs_in_window);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_sim::SimDuration;

    #[test]
    fn default_is_unlimited() {
        assert!(ResourceConfig::default().is_unlimited());
        assert_eq!(ResourceConfig::default(), ResourceConfig::unlimited());
        assert!(!ResourceConfig {
            frames_per_sec: 1,
            ..ResourceConfig::unlimited()
        }
        .is_unlimited());
    }

    #[test]
    fn unlimited_governor_admits_everything() {
        let mut g = Governor::new(ResourceConfig::unlimited());
        let t = SimTime::from_secs(1);
        for _ in 0..10_000 {
            assert!(g.admit_frame(t, NodeId(1)));
            assert!(g.admit_verification(t, NodeId(1)));
        }
        assert_eq!(g.stats().frames_dropped, 0);
        assert_eq!(g.stats().verifs_dropped, 0);
        assert_eq!(g.stats().frames_admitted, 10_000);
        assert_eq!(g.stats().peak_verifs_per_sec, 10_000);
    }

    #[test]
    fn frame_bucket_enforces_rate_and_burst() {
        let cfg = ResourceConfig {
            frames_per_sec: 10,
            ..ResourceConfig::unlimited()
        };
        let mut g = Governor::new(cfg);
        let t = SimTime::from_secs(100);
        // The bucket starts full: exactly two seconds' worth of frames pass
        // at one instant.
        assert_eq!(burst(10), 20);
        let admitted = (0..30).filter(|_| g.admit_frame(t, NodeId(1))).count();
        assert_eq!(admitted, 20);
        assert_eq!(g.stats().frames_dropped, 10);
        // 100 ms refills one token at 10/s.
        let t2 = t + SimDuration::from_millis(100);
        assert!(g.admit_frame(t2, NodeId(1)));
        assert!(!g.admit_frame(t2, NodeId(1)));
        // Budgets are per neighbour: another sender has its own bucket.
        assert!(g.admit_frame(t2, NodeId(2)));
    }

    #[test]
    fn verification_bucket_is_separate_from_frames() {
        let cfg = ResourceConfig {
            verifs_per_sec: 1,
            ..ResourceConfig::unlimited()
        };
        let mut g = Governor::new(cfg);
        let t = SimTime::from_secs(3);
        assert!(g.admit_frame(t, NodeId(1))); // frames unlimited
        assert!(g.admit_verification(t, NodeId(1)));
        assert!(g.admit_verification(t, NodeId(1)));
        assert!(!g.admit_verification(t, NodeId(1)));
        assert_eq!(g.stats().verifs_charged, 2);
        assert_eq!(g.stats().verifs_dropped, 1);
    }

    #[test]
    fn peak_verifications_track_the_busiest_window() {
        let mut g = Governor::new(ResourceConfig::unlimited());
        for i in 0..5 {
            g.admit_verification(SimTime::from_secs(1), NodeId(i));
        }
        g.admit_verification(SimTime::from_secs(2), NodeId(0));
        assert_eq!(g.stats().peak_verifs_per_sec, 5);
    }

    #[test]
    fn stats_merge_sums_counters_and_maxes_peaks() {
        let mut a = ResourceStats {
            frames_admitted: 1,
            frames_dropped: 2,
            peak_store_msgs: 7,
            ..ResourceStats::default()
        };
        let b = ResourceStats {
            frames_admitted: 3,
            frames_dropped: 4,
            peak_store_msgs: 5,
            peak_missing: 9,
            ..ResourceStats::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_admitted, 4);
        assert_eq!(a.frames_dropped, 6);
        assert_eq!(a.peak_store_msgs, 7);
        assert_eq!(a.peak_missing, 9);
    }
}
