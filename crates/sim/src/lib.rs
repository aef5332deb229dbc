//! # byzcast-sim — deterministic discrete-event wireless ad-hoc network simulator
//!
//! This crate is the substrate on which the Byzantine broadcast protocol of
//! Drabkin, Friedman & Segal (DSN 2005) and its baselines run. It replaces the
//! SWANS/JiST simulator used in the paper with a pure-Rust, bit-for-bit
//! deterministic discrete-event simulation of a wireless ad-hoc network:
//!
//! * **Radio model** ([`radio`]) — a transmission-disk model with optional
//!   log-distance fading distortion and background-noise packet loss, matching
//!   the paper's remark that its simulator models "a real transmission range
//!   behavior including distortions, background noise, etc.".
//! * **Shared medium with collisions** ([`engine`]) — overlapping
//!   transmissions audible at a common receiver destroy each other (with an
//!   optional capture threshold), reproducing the paper's collision model:
//!   "if two nodes p and q transmit a message at the same time, then if there
//!   exists a node r that is a direct neighbor of both, then r will not
//!   receive either message".
//! * **CSMA broadcast MAC** ([`mac`]) — carrier sense plus random backoff,
//!   no RTS/CTS and no link-level ACKs, as for IEEE 802.11 broadcast frames.
//! * **Mobility** ([`mobility`]) — static placement and random waypoint.
//! * **Metrics** ([`metrics`]) — what a run reports: run totals of frames
//!   and bytes by kind and of losses by cause, plus every broadcast and
//!   delivery with its time. The engine keeps nothing per node beyond the
//!   state that decides the run.
//! * **Sans-io protocol interface** ([`node`]) — protocols are state machines
//!   driven by `on_start` / `on_packet` / `on_timer` / `on_app_broadcast`
//!   callbacks and emit actions through a [`Context`], so they are unit
//!   testable without a simulator and swappable inside one.
//!
//! # Example
//!
//! ```
//! use byzcast_sim::{SimBuilder, SimConfig, Protocol, Context, NodeId, Message,
//!                   AppPayload, TimerKey, SimDuration};
//!
//! /// A toy protocol: deliver and re-broadcast everything once.
//! #[derive(Clone, Debug)]
//! struct Flood { msg: u64, origin: NodeId, size: usize }
//! impl Message for Flood {
//!     fn wire_size(&self) -> usize { self.size }
//!     fn kind(&self) -> &'static str { "flood" }
//! }
//! struct FloodNode { seen: std::collections::HashSet<u64> }
//! impl Protocol for FloodNode {
//!     type Msg = Flood;
//!     fn on_packet(&mut self, ctx: &mut Context<'_, Flood>, _from: NodeId, msg: &Flood) {
//!         if self.seen.insert(msg.msg) {
//!             ctx.deliver(msg.origin, msg.msg);
//!             ctx.send(msg.clone());
//!         }
//!     }
//!     fn on_app_broadcast(&mut self, ctx: &mut Context<'_, Flood>, payload: AppPayload) {
//!         self.seen.insert(payload.id);
//!         ctx.deliver(ctx.node_id(), payload.id);
//!         ctx.send(Flood { msg: payload.id, origin: ctx.node_id(), size: payload.size_bytes });
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Flood>, _t: TimerKey) {}
//! }
//!
//! let config = SimConfig::default();
//! let mut sim = SimBuilder::new(config)
//!     .with_nodes(16, |_id| Box::new(FloodNode { seen: Default::default() }))
//!     .build();
//! sim.schedule_app_broadcast(SimDuration::from_millis(10), NodeId(0), 1, 256);
//! sim.run_for(SimDuration::from_secs(2));
//! assert!(sim.metrics().deliveries.len() > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod engine;
pub mod event;
pub mod fault;
pub mod geometry;
pub mod mac;
pub mod metrics;
pub mod mobility;
pub mod node;
pub mod radio;
pub mod rng;
pub mod spatial;
pub mod time;

pub use counters::CounterSet;
pub use engine::{BoxedProtocol, DynProtocol, SimBuilder, SimConfig, Simulator};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use geometry::{Field, Position};
pub use metrics::{DeliveryRecord, FaultStats, Metrics};
pub use mobility::{MobilityModel, RandomWaypoint, StaticPlacement};
pub use node::{AppPayload, Context, Message, NodeId, Protocol, TimerKey};
pub use radio::{RadioConfig, RadioModel};
pub use rng::SimRng;
pub use spatial::{NodeGrid, TxGrid};
pub use time::{SimDuration, SimTime};
