//! Deliberately broken "correct" protocols, used to prove the chaos
//! harness's oracles catch real bugs.
//!
//! A [`SabotagedNode`] runs the shipped protocol but corrupts its *delivery*
//! behaviour in a targeted way, each variant tripping exactly one invariant:
//! the chaos shrinker's regression tests and the replay corpus are built on
//! these. They are test instruments, never part of an adversary mix.

use byzcast_core::message::WireMsg;
use byzcast_core::ByzcastNode;
use byzcast_sim::node::Action;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, TimerKey};

use crate::{capture, emit};

/// Which delivery bug a [`SabotagedNode`] exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SabotageKind {
    /// Every delivery is emitted twice (violates no-duplication).
    DoubleDeliver,
    /// The first delivery is accompanied by a delivery of a payload that was
    /// never broadcast (violates validity).
    PhantomDeliver,
    /// All deliveries are swallowed (violates semi-reliability).
    DropDeliver,
}

impl SabotageKind {
    /// Stable corpus-file name for the kind.
    pub fn name(self) -> &'static str {
        match self {
            SabotageKind::DoubleDeliver => "double-deliver",
            SabotageKind::PhantomDeliver => "phantom-deliver",
            SabotageKind::DropDeliver => "drop-deliver",
        }
    }

    /// Parses a [`SabotageKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "double-deliver" => Some(SabotageKind::DoubleDeliver),
            "phantom-deliver" => Some(SabotageKind::PhantomDeliver),
            "drop-deliver" => Some(SabotageKind::DropDeliver),
            _ => None,
        }
    }
}

/// XOR mask distinguishing a phantom payload id from any real one.
pub const PHANTOM_MASK: u64 = 0x5AB0;

/// A correct node with one injected delivery bug.
pub struct SabotagedNode {
    inner: ByzcastNode,
    kind: SabotageKind,
    phantom_emitted: bool,
}

impl SabotagedNode {
    /// Wraps `inner` with the given bug.
    pub fn new(inner: ByzcastNode, kind: SabotageKind) -> Self {
        SabotagedNode {
            inner,
            kind,
            phantom_emitted: false,
        }
    }

    /// The wrapped (correct-protocol) node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, actions: Vec<Action<WireMsg>>) {
        for a in actions {
            match a {
                Action::Deliver { origin, payload_id } => match self.kind {
                    SabotageKind::DoubleDeliver => {
                        ctx.deliver(origin, payload_id);
                        ctx.deliver(origin, payload_id);
                    }
                    SabotageKind::PhantomDeliver => {
                        ctx.deliver(origin, payload_id);
                        if !self.phantom_emitted {
                            self.phantom_emitted = true;
                            ctx.deliver(origin, payload_id ^ PHANTOM_MASK);
                        }
                    }
                    SabotageKind::DropDeliver => {}
                },
                other => emit(ctx, other),
            }
        }
    }
}

impl Protocol for SabotagedNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_start(sub));
        self.relay(ctx, actions);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_packet(sub, from, msg));
        self.relay(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_timer(sub, timer));
        self.relay(ctx, actions);
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_app_broadcast(sub, payload));
        self.relay(ctx, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_core::message::DataMsg;
    use byzcast_core::ByzcastConfig;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme, Verifier};
    use byzcast_sim::{SimRng, SimTime};
    use std::sync::Arc;

    fn byz(id: u32, reg: &KeyRegistry<SimScheme>) -> ByzcastNode {
        let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
        ByzcastNode::new(
            NodeId(id),
            ByzcastConfig::default(),
            Box::new(reg.signer(SignerId(id))),
            verifier,
        )
    }

    fn deliveries(actions: &[Action<WireMsg>]) -> Vec<(NodeId, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { origin, payload_id } => Some((*origin, *payload_id)),
                _ => None,
            })
            .collect()
    }

    fn receive(
        node: &mut SabotagedNode,
        seq: u64,
        payload_id: u64,
        reg: &KeyRegistry<SimScheme>,
    ) -> Vec<Action<WireMsg>> {
        let m = DataMsg::sign(&reg.signer(SignerId(0)), seq, payload_id, 64);
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(NodeId(1), SimTime::from_secs(1), &mut rng, &mut actions);
            node.on_packet(&mut ctx, NodeId(0), &WireMsg::data(m));
        }
        actions
    }

    #[test]
    fn kinds_round_trip_through_names() {
        for k in [
            SabotageKind::DoubleDeliver,
            SabotageKind::PhantomDeliver,
            SabotageKind::DropDeliver,
        ] {
            assert_eq!(SabotageKind::parse(k.name()), Some(k));
        }
        assert_eq!(SabotageKind::parse("nope"), None);
    }

    #[test]
    fn double_deliver_duplicates() {
        let reg = KeyRegistry::generate(1, 8);
        let mut node = SabotagedNode::new(byz(1, &reg), SabotageKind::DoubleDeliver);
        let ds = deliveries(&receive(&mut node, 1, 5, &reg));
        assert_eq!(ds, vec![(NodeId(0), 5), (NodeId(0), 5)]);
    }

    #[test]
    fn phantom_deliver_adds_one_unoriginated_payload() {
        let reg = KeyRegistry::generate(1, 8);
        let mut node = SabotagedNode::new(byz(1, &reg), SabotageKind::PhantomDeliver);
        let ds = deliveries(&receive(&mut node, 1, 5, &reg));
        assert_eq!(ds, vec![(NodeId(0), 5), (NodeId(0), 5 ^ PHANTOM_MASK)]);
        // Only once: the second reception is clean.
        let ds = deliveries(&receive(&mut node, 2, 6, &reg));
        assert_eq!(ds, vec![(NodeId(0), 6)]);
    }

    #[test]
    fn drop_deliver_swallows_everything() {
        let reg = KeyRegistry::generate(1, 8);
        let mut node = SabotagedNode::new(byz(1, &reg), SabotageKind::DropDeliver);
        assert!(deliveries(&receive(&mut node, 1, 5, &reg)).is_empty());
    }
}
