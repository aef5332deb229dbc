//! The flooding baseline.
//!
//! "The simplest way to obtain broadcast in a multiple hop network is by
//! employing flooding. That is, the sender sends the message to everyone in
//! its transmission range. Each device that receives a message for the first
//! time delivers it to the application and also forwards it to all other
//! devices in its range. While this form of dissemination is very robust, it
//! is also very wasteful and may cause a large number of collisions."
//!
//! The flooding node still signs and verifies messages (so the *validity*
//! property holds for it too); what it lacks is the overlay (every node
//! forwards every message) and the gossip/recovery machinery.

use std::collections::HashSet;
use std::sync::Arc;

use byzcast_core::message::{DataMsg, MessageId, WireMsg};
use byzcast_crypto::{Signer, Verifier};
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, TimerKey};

/// A node running plain flooding over signed data messages.
pub struct FloodingNode {
    id: NodeId,
    signer: Box<dyn Signer + Send>,
    verifier: Arc<dyn Verifier + Send + Sync>,
    seen: HashSet<MessageId>,
    next_seq: u64,
    /// Data messages this node forwarded.
    pub forwards: u64,
    /// Receptions dropped for bad signatures.
    pub bad_signatures: u64,
}

impl FloodingNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if `signer` does not sign as `id`.
    pub fn new(
        id: NodeId,
        signer: Box<dyn Signer + Send>,
        verifier: Arc<dyn Verifier + Send + Sync>,
    ) -> Self {
        assert_eq!(signer.id().0, id.0, "signer must sign as the node's own id");
        FloodingNode {
            id,
            signer,
            verifier,
            seen: HashSet::new(),
            next_seq: 0,
            forwards: 0,
            bad_signatures: 0,
        }
    }

    /// Number of distinct messages seen so far.
    pub fn seen_count(&self) -> usize {
        self.seen.len()
    }
}

impl Protocol for FloodingNode {
    type Msg = WireMsg;

    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, _from: NodeId, msg: &WireMsg) {
        let WireMsg::Data(m) = msg else {
            return; // flooding ignores all control traffic
        };
        if self.seen.contains(&m.id) {
            return;
        }
        if !m.verify(self.verifier.as_ref()) {
            self.bad_signatures += 1;
            return;
        }
        self.seen.insert(m.id);
        ctx.deliver(m.id.origin, m.payload_id);
        ctx.send(WireMsg::Data(DataMsg::share_with_ttl(m, 1)));
        self.forwards += 1;
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, WireMsg>, _timer: TimerKey) {}

    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        self.next_seq += 1;
        let m = DataMsg::sign(
            self.signer.as_ref(),
            self.next_seq,
            payload.id,
            payload.size_bytes as u32,
        );
        self.seen.insert(m.id);
        ctx.deliver(self.id, payload.id);
        ctx.send(WireMsg::data(m));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
    use byzcast_sim::node::Action;
    use byzcast_sim::{SimRng, SimTime};

    fn node(id: u32) -> (FloodingNode, KeyRegistry<SimScheme>) {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(3, 8);
        let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
        (
            FloodingNode::new(NodeId(id), Box::new(reg.signer(SignerId(id))), verifier),
            reg,
        )
    }

    fn drive(
        n: &mut FloodingNode,
        f: impl FnOnce(&mut FloodingNode, &mut Context<'_, WireMsg>),
    ) -> Vec<Action<WireMsg>> {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(n.id, SimTime::from_secs(1), &mut rng, &mut actions);
            f(n, &mut ctx);
        }
        actions
    }

    #[test]
    fn broadcast_sends_and_delivers() {
        let (mut n, _) = node(0);
        let actions = drive(&mut n, |n, ctx| {
            n.on_app_broadcast(
                ctx,
                AppPayload {
                    id: 9,
                    size_bytes: 100,
                },
            )
        });
        assert!(matches!(&actions[0], Action::Deliver { payload_id: 9, .. }));
        assert!(matches!(&actions[1], Action::Send(WireMsg::Data(_))));
    }

    #[test]
    fn first_reception_forwards_duplicates_do_not() {
        let (mut n, reg) = node(1);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let a1 = drive(&mut n, |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        assert_eq!(a1.len(), 2); // deliver + forward
        assert_eq!(n.forwards, 1);
        let a2 = drive(&mut n, |n, ctx| {
            n.on_packet(ctx, NodeId(2), &WireMsg::data(m))
        });
        assert!(a2.is_empty());
        assert_eq!(n.seen_count(), 1);
    }

    #[test]
    fn bad_signature_is_dropped() {
        let (mut n, reg) = node(1);
        let mut m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        m.payload_id = 6;
        let a = drive(&mut n, |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        assert!(a.is_empty());
        assert_eq!(n.bad_signatures, 1);
    }

    #[test]
    fn control_traffic_is_ignored() {
        use byzcast_core::message::{GossipMsg, WireMsg};
        let (mut n, _) = node(1);
        let a = drive(&mut n, |n, ctx| {
            n.on_packet(
                ctx,
                NodeId(0),
                &WireMsg::Gossip(GossipMsg::of_entries(vec![])),
            )
        });
        assert!(a.is_empty());
    }
}
