//! # byzcast-core — the Byzantine-tolerant broadcast protocol
//!
//! The primary contribution of *"Efficient Byzantine Broadcast in Wireless
//! Ad-Hoc Networks"* (Drabkin, Friedman & Segal, DSN 2005): an overlay-based
//! broadcast that "overcomes Byzantine failures by combining digital
//! signatures, gossiping of message signatures, and failure detectors", and
//! "only requires the existence of one correct node in each one-hop
//! neighborhood".
//!
//! * [`message`] — the wire format (DATA / GOSSIP / REQUEST_MSG /
//!   FIND_MISSING_MSG / beacons) with originator signatures.
//! * [`store`] — the message buffer with timeout-based purging (§3.2.2),
//!   the buffer-bound accounting of §3.5, and each body's gossip
//!   advertisement slot.
//! * [`config`] — protocol timing, including the paper's
//!   `max_timeout = gossip + request + rebroadcast + 3β`.
//! * [`resources`] — the resource-governance envelope (admission control,
//!   verification budgets, store caps, per-origin quotas) that makes the
//!   §3.5 buffer bound hold under Byzantine load.
//! * [`protocol`] — [`ByzcastNode`], the line-by-line implementation of the
//!   pseudo-code of Figures 3–4 plus overlay maintenance (§3.3).
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use byzcast_core::{ByzcastConfig, ByzcastNode};
//! use byzcast_crypto::{KeyRegistry, SignatureScheme, SignerId, SimScheme, Verifier};
//! use byzcast_sim::{NodeId, SimBuilder, SimConfig, SimDuration};
//!
//! let n = 20u32;
//! let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(7, n);
//! let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(keys.verifier());
//! let mut sim = SimBuilder::new(SimConfig::default())
//!     .with_nodes(n as usize, |id| {
//!         Box::new(ByzcastNode::new(
//!             id,
//!             ByzcastConfig::default(),
//!             Box::new(keys.signer(SignerId(id.0))),
//!             Arc::clone(&verifier),
//!         ))
//!     })
//!     .build();
//! sim.schedule_app_broadcast(SimDuration::from_secs(3), NodeId(0), 1, 512);
//! sim.run_for(SimDuration::from_secs(10));
//! let delivered = sim.metrics().deliveries_of(1).count();
//! assert!(delivered > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod message;
pub mod protocol;
pub mod recovery;
pub mod resources;
pub mod store;

pub use config::ByzcastConfig;
pub use message::{
    BeaconMsg, DataMsg, FindMissingMsg, GossipEntry, GossipMsg, MessageId, RequestMsg, WireMsg,
};
pub use protocol::{ByzcastNode, ProtocolCounters};
pub use recovery::RecoveryStats;
pub use resources::{ResourceConfig, ResourceStats};
pub use store::{MessageStore, StoredMsg};
