//! Protocol configuration, including the paper's §3.5 timing quantities.
//!
//! The knobs some experiment or test varies are fields of
//! [`ByzcastConfig`]; the protocol's other timings and sizes are the
//! constants below, and the failure detectors' are in `byzcast_fd::mute`
//! and `byzcast_fd::verbose`.

use byzcast_overlay::OverlayKind;
use byzcast_sim::SimDuration;

use crate::recovery::RecoveryConfig;
use crate::resources::ResourceConfig;

/// `rebroadcast_timeout` — "the time between getting a request message and
/// sending the message that fits the requested message". Responders draw a
/// uniform delay in `[0, REBROADCAST_TIMEOUT)` and suppress their response
/// if another holder's rebroadcast is overheard first.
pub const REBROADCAST_TIMEOUT: SimDuration = SimDuration::from_millis(50);

/// How often overlay beacons are sent (and the overlay role recomputed).
pub const BEACON_PERIOD: SimDuration = SimDuration::from_millis(1000);

/// How often the failure detectors are ticked (deadline resolution).
pub const FD_TICK: SimDuration = SimDuration::from_millis(100);

/// Maximum gossip entries per packet when aggregating.
pub const MAX_GOSSIP_ENTRIES: usize = 40;

/// How many gossip rounds each received message is advertised for. The
/// recovery window per message is roughly `GOSSIP_ADVERTISE_ROUNDS ×
/// gossip_period`; a node re-hearing a gossip for a message it holds echoes
/// it for one extra round (pseudo-code lines 34–37), so entries keep
/// circulating where neighbours still miss them.
pub const GOSSIP_ADVERTISE_ROUNDS: u32 = 3;

/// Maximum number of REQUEST_MSG retries per missing message (when the
/// recovery envelope does not escalate).
pub const MAX_REQUESTS_PER_MSG: u32 = 5;

/// Minimum spacing between retries for the same missing message.
pub const REQUEST_RETRY_SPACING: SimDuration = SimDuration::from_millis(1000);

/// A holder answers a given message id at most once per this window
/// (response-implosion suppression). Historically this aliased
/// [`REQUEST_RETRY_SPACING`], which silently swallowed legitimate retries:
/// the responder's window starts at its (jittered) *serve* time, so a retry
/// spaced exactly `REQUEST_RETRY_SPACING` after the original request landed
/// inside the window and was dropped. It leaves at least one
/// [`REBROADCAST_TIMEOUT`] of slack below `REQUEST_RETRY_SPACING` so a
/// properly spaced retry always clears the window.
pub const RESPONSE_SERVE_WINDOW: SimDuration = SimDuration::from_millis(500);

// A properly spaced retry must clear the responder's serve window.
const _: () = assert!(
    RESPONSE_SERVE_WINDOW.as_micros() + REBROADCAST_TIMEOUT.as_micros()
        <= REQUEST_RETRY_SPACING.as_micros()
);

/// Configuration of a byzcast protocol node.
#[derive(Clone, Debug)]
pub struct ByzcastConfig {
    /// `gossip_timeout` — "the time between two consecutive gossip messages
    /// by a correct node".
    pub gossip_period: SimDuration,
    /// `request_timeout` — "the time between receiving a gossip message and
    /// sending a request message" (requests are batched on this delay).
    pub request_timeout: SimDuration,
    /// How long received message bodies are buffered before purging.
    pub purge_after: SimDuration,
    /// Which overlay maintenance protocol to run.
    pub overlay: OverlayKind,
    /// Whether to aggregate gossip entries into one packet per period
    /// (`false` reproduces the unaggregated ablation of experiment R8).
    pub aggregate_gossip: bool,
    /// Capacity (entries per LRU generation) of each node's signature-
    /// verification cache; `0` disables caching so every reception
    /// re-verifies. Caching never changes verdicts — only how often the
    /// underlying verifier runs — so protocol behaviour is identical either
    /// way.
    pub sig_cache_capacity: usize,
    /// Resource-governance envelope: per-neighbour admission and
    /// verification budgets, store caps, per-origin quotas. The default
    /// (every limit `0` = unlimited) reproduces ungoverned behaviour bit for
    /// bit.
    pub resources: ResourceConfig,
    /// Recovery-escalation envelope: widened `REQUEST` retries with capped
    /// exponential backoff, TTL-bumped `FIND_MISSING` floods, and immediate
    /// overlay re-election when a neighbour is indicted or its beacons
    /// expire. The default ([`RecoveryConfig::off`]) reproduces the
    /// pre-escalation protocol bit for bit.
    pub recovery: RecoveryConfig,
}

impl Default for ByzcastConfig {
    fn default() -> Self {
        ByzcastConfig {
            gossip_period: SimDuration::from_millis(1000),
            request_timeout: SimDuration::from_millis(500),
            purge_after: SimDuration::from_secs(12),
            overlay: OverlayKind::Cds,
            aggregate_gossip: true,
            sig_cache_capacity: 512,
            resources: ResourceConfig::unlimited(),
            recovery: RecoveryConfig::off(),
        }
    }
}

impl ByzcastConfig {
    /// The paper's `max_timeout = gossip_timeout + request_timeout +
    /// rebroadcast_timeout + 3β`, where β is the transmission latency.
    pub fn max_timeout(&self, beta: SimDuration) -> SimDuration {
        self.gossip_period + self.request_timeout + REBROADCAST_TIMEOUT + beta.saturating_mul(3)
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.gossip_period == SimDuration::ZERO {
            return Err("gossip_period must be positive".into());
        }
        if self.purge_after < self.gossip_period {
            return Err("purge_after must be at least one gossip period".into());
        }
        if self.recovery.escalation_enabled() {
            if self.recovery.backoff_base == SimDuration::ZERO {
                return Err("recovery.backoff_base must be positive when escalating".into());
            }
            if self.recovery.backoff_cap < self.recovery.backoff_base {
                return Err("recovery.backoff_cap must be at least backoff_base".into());
            }
            if self.recovery.widen_fanout == 0 {
                return Err("recovery.widen_fanout must be positive when escalating".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(ByzcastConfig::default().validate().is_ok());
    }

    #[test]
    fn max_timeout_formula() {
        let c = ByzcastConfig {
            gossip_period: SimDuration::from_millis(1000),
            request_timeout: SimDuration::from_millis(500),
            ..ByzcastConfig::default()
        };
        let beta = SimDuration::from_millis(10);
        assert_eq!(c.max_timeout(beta), SimDuration::from_millis(1580));
    }

    #[test]
    fn validation_catches_degenerate_values() {
        let base = ByzcastConfig::default();
        let bad = ByzcastConfig {
            gossip_period: SimDuration::ZERO,
            ..base.clone()
        };
        assert!(bad.validate().is_err());
        let bad = ByzcastConfig {
            purge_after: SimDuration::from_millis(1),
            ..base
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_checks_escalation_fields() {
        use crate::recovery::RecoveryConfig;
        let base = ByzcastConfig::default();
        let ok = ByzcastConfig {
            recovery: RecoveryConfig::standard(),
            ..base.clone()
        };
        assert!(ok.validate().is_ok());
        let bad = ByzcastConfig {
            recovery: RecoveryConfig {
                backoff_base: SimDuration::ZERO,
                ..RecoveryConfig::standard()
            },
            ..base.clone()
        };
        assert!(bad.validate().is_err());
        let bad = ByzcastConfig {
            recovery: RecoveryConfig {
                widen_fanout: 0,
                ..RecoveryConfig::standard()
            },
            ..base
        };
        assert!(bad.validate().is_err());
    }
}
