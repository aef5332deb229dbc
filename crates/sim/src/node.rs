//! The sans-io protocol interface: how a node's protocol logic plugs into the
//! simulator.
//!
//! A protocol is a state machine implementing [`Protocol`]. The engine calls
//! it back on startup, packet reception, timer expiry, and application-level
//! broadcast requests. During a callback the protocol interacts with the
//! world exclusively through the [`Context`] — sending packets, arming
//! timers, delivering messages to the application, and drawing randomness. This keeps protocol logic unit-testable with a
//! hand-built `Context` and makes Byzantine wrappers (which intercept a
//! correct protocol's actions) straightforward.

use std::fmt;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node in the simulation. Ids are dense, starting at zero.
///
/// In the reproduced protocol the node id doubles as the unforgeable
/// "goodness number" used by the overlay election (paper §3.3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as an index into per-node arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An opaque timer identifier chosen by the protocol.
///
/// Protocols encode meaning into the key (e.g. "gossip tick", "expect
/// deadline for message 17"); the engine just returns it verbatim when the
/// timer fires. Re-arming an already-armed key replaces the earlier deadline.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct TimerKey(pub u64);

/// An application-level broadcast request injected by the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AppPayload {
    /// Globally unique payload identifier assigned by the workload generator.
    pub id: u64,
    /// Size of the application data in bytes (affects air time).
    pub size_bytes: usize,
}

/// A protocol wire message.
///
/// The simulator is generic over the message type; it needs only a byte size
/// (to compute transmission air-time and byte metrics) and a short static
/// kind string (to break metrics down by message type).
pub trait Message: Clone + fmt::Debug {
    /// Serialized size in bytes, used for air-time and byte accounting.
    fn wire_size(&self) -> usize;
    /// A short label such as `"data"` or `"gossip"` used to bucket metrics.
    fn kind(&self) -> &'static str;
}

/// An effect requested by a protocol during a callback.
#[derive(Clone, Debug)]
pub enum Action<M> {
    /// Broadcast `msg` to every node within radio range (one MAC transmission).
    Send(M),
    /// Arm (or re-arm) timer `key` to fire at the absolute instant `at`.
    SetTimer {
        /// When the timer should fire.
        at: SimTime,
        /// The protocol-chosen key returned on expiry.
        key: TimerKey,
    },
    /// Disarm timer `key` if armed.
    CancelTimer(TimerKey),
    /// Deliver (accept) an application message to the local application.
    Deliver {
        /// The claimed originator of the payload.
        origin: NodeId,
        /// The workload-assigned payload identifier.
        payload_id: u64,
    },
}

/// The protocol's window onto the simulated world during a callback.
///
/// All mutations are buffered as [`Action`]s and applied by the engine after
/// the callback returns, in order.
pub struct Context<'a, M> {
    node: NodeId,
    now: SimTime,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action<M>>,
}

impl<'a, M> Context<'a, M> {
    /// Creates a context. Exposed so protocols can be unit tested without an
    /// engine; simulation code does not normally call this.
    pub fn new(
        node: NodeId,
        now: SimTime,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action<M>>,
    ) -> Self {
        Context {
            node,
            now,
            rng,
            actions,
        }
    }

    /// The id of the node this protocol instance runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's deterministic random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queues a radio broadcast of `msg` to all nodes in range.
    pub fn send(&mut self, msg: M) {
        self.actions.push(Action::Send(msg));
    }

    /// Arms (or re-arms) `key` to fire after `delay`.
    pub fn set_timer_after(&mut self, delay: SimDuration, key: TimerKey) {
        let at = self.now + delay;
        self.actions.push(Action::SetTimer { at, key });
    }

    /// Arms (or re-arms) `key` to fire at the absolute instant `at`.
    pub fn set_timer_at(&mut self, at: SimTime, key: TimerKey) {
        self.actions.push(Action::SetTimer { at, key });
    }

    /// Disarms `key` if it is armed; otherwise a no-op.
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.actions.push(Action::CancelTimer(key));
    }

    /// Accepts an application payload; the engine records the delivery.
    pub fn deliver(&mut self, origin: NodeId, payload_id: u64) {
        self.actions.push(Action::Deliver { origin, payload_id });
    }
}

/// A node's protocol logic.
///
/// Implementations must be deterministic given the callback sequence and the
/// context RNG; the engine guarantees a reproducible callback order.
pub trait Protocol {
    /// The wire message type this protocol family exchanges.
    type Msg: Message;

    /// Called once at simulation start (time zero), before any other callback.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a packet transmitted by `from` is successfully received.
    fn on_packet(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: &Self::Msg);

    /// Called when a previously armed timer fires.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, timer: TimerKey);

    /// Called when the application asks this node to broadcast `payload`.
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, Self::Msg>, payload: AppPayload);

    /// Called when a fault plan toggles this node's Byzantine behaviour
    /// ([`crate::fault::FaultKind::SetByzantine`]). Most protocols ignore
    /// it; adversary wrappers that can *flap* — turn faulty mid-run and
    /// possibly back — override it to switch their behaviour.
    fn on_byzantine(&mut self, ctx: &mut Context<'_, Self::Msg>, active: bool) {
        let _ = (ctx, active);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Ping(u32);
    impl Message for Ping {
        fn wire_size(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }

    struct Echo;
    impl Protocol for Echo {
        type Msg = Ping;
        fn on_packet(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: &Ping) {
            ctx.send(Ping(msg.0 + 1));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, timer: TimerKey) {
            ctx.cancel_timer(timer);
        }
        fn on_app_broadcast(&mut self, ctx: &mut Context<'_, Ping>, payload: AppPayload) {
            ctx.deliver(ctx.node_id(), payload.id);
        }
    }

    #[test]
    fn context_buffers_actions_in_order() {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        let mut ctx = Context::new(NodeId(3), SimTime::from_secs(1), &mut rng, &mut actions);
        let mut p = Echo;
        p.on_packet(&mut ctx, NodeId(1), &Ping(7));
        p.on_app_broadcast(
            &mut ctx,
            AppPayload {
                id: 9,
                size_bytes: 10,
            },
        );
        assert_eq!(actions.len(), 2);
        match &actions[0] {
            Action::Send(Ping(8)) => {}
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[1] {
            Action::Deliver { origin, payload_id } => {
                assert_eq!(*origin, NodeId(3));
                assert_eq!(*payload_id, 9);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn timer_helpers_compute_absolute_deadlines() {
        let mut rng = SimRng::new(0);
        let mut actions: Vec<Action<Ping>> = Vec::new();
        let mut ctx = Context::new(NodeId(0), SimTime::from_secs(2), &mut rng, &mut actions);
        ctx.set_timer_after(SimDuration::from_millis(250), TimerKey(5));
        match &actions[0] {
            Action::SetTimer { at, key } => {
                assert_eq!(*at, SimTime::from_micros(2_250_000));
                assert_eq!(*key, TimerKey(5));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn node_id_formats_compactly() {
        assert_eq!(NodeId(12).to_string(), "n12");
        assert_eq!(format!("{:?}", NodeId(12)), "n12");
        assert_eq!(NodeId::from(4u32), NodeId(4));
        assert_eq!(NodeId(4).index(), 4);
    }
}
