//! A flapping adversary: a *correct* node that turns Byzantine mid-run and
//! possibly back, driven by the fault plan's `SetByzantine` events.
//!
//! This is the worst case for the MUTE/TRUST detectors: the node builds up
//! genuine trust while correct, then silently deviates inside an activation
//! window, then behaves again. Unlike [`crate::MuteNode`], a flapper does not
//! lie about overlay membership — outside its windows it is byte-for-byte
//! the shipped protocol.

use byzcast_core::message::WireMsg;
use byzcast_core::ByzcastNode;
use byzcast_sim::node::Action;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, TimerKey};

use crate::wrappers::MutePolicy;
use crate::{capture, emit};

/// What a [`FlappingNode`] does while its Byzantine window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlapBehavior {
    /// Suppress outgoing frames per the policy (mute windows).
    Mute(MutePolicy),
    /// Corrupt the payload of relayed data messages (forging windows).
    Forger,
}

/// A correct node with fault-plan-driven Byzantine activation windows.
pub struct FlappingNode {
    inner: ByzcastNode,
    behavior: FlapBehavior,
    active: bool,
    /// Frames suppressed inside mute windows (diagnostic).
    pub suppressed: u64,
    /// Frames tampered inside forging windows (diagnostic).
    pub tampered: u64,
}

impl FlappingNode {
    /// Wraps `inner`; starts in the correct (inactive) state.
    pub fn new(inner: ByzcastNode, behavior: FlapBehavior) -> Self {
        FlappingNode {
            inner,
            behavior,
            active: false,
            suppressed: 0,
            tampered: 0,
        }
    }

    /// The wrapped (correct-protocol) node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    /// Whether a Byzantine window is currently active.
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn mute_keeps(policy: MutePolicy, msg: &WireMsg) -> bool {
        match policy {
            MutePolicy::DropData => !matches!(
                msg,
                WireMsg::Data(_) | WireMsg::Request(_) | WireMsg::FindMissing(_)
            ),
            MutePolicy::DropDataAndGossip => matches!(msg, WireMsg::Beacon(_)),
            MutePolicy::DropEverything => false,
        }
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, actions: Vec<Action<WireMsg>>) {
        let me = ctx.node_id();
        for a in actions {
            if !self.active {
                emit(ctx, a);
                continue;
            }
            match (self.behavior, a) {
                (FlapBehavior::Mute(policy), Action::Send(m)) => {
                    if Self::mute_keeps(policy, &m) {
                        ctx.send(m);
                    } else {
                        self.suppressed += 1;
                    }
                }
                (FlapBehavior::Forger, Action::Send(WireMsg::Data(m))) if m.id.origin != me => {
                    let mut forged = *m;
                    forged.payload_id ^= 0xDEAD_BEEF;
                    self.tampered += 1;
                    ctx.send(WireMsg::data(forged));
                }
                (_, other) => emit(ctx, other),
            }
        }
    }
}

impl Protocol for FlappingNode {
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
    fn on_byzantine(&mut self, _ctx: &mut Context<'_, WireMsg>, active: bool) {
        self.active = active;
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

    fn drive<P: Protocol>(
        p: &mut P,
        id: u32,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) -> Vec<Action<P::Msg>> {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(NodeId(id), SimTime::from_secs(1), &mut rng, &mut actions);
            f(p, &mut ctx);
        }
        actions
    }

    fn sends<M>(actions: &[Action<M>]) -> Vec<&M> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn inactive_flapper_passes_everything_through() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            FlappingNode::new(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        assert!(!flap.is_active());
        // Gossip tick: everything the correct node emits goes out verbatim.
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(!sends(&actions).is_empty());
        assert_eq!(flap.suppressed, 0);
    }

    #[test]
    fn mute_window_suppresses_then_recovers() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            FlappingNode::new(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        assert!(flap.is_active());
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(flap.suppressed >= 1);
        // Deactivate: the node speaks again. Hand it a message so the next
        // gossip tick has something to advertise.
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, false));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        let actions = drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(!sends(&actions).is_empty());
    }

    #[test]
    fn forger_window_corrupts_only_relays_and_only_while_active() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(crate::AlwaysDominator));
        let mut flap = FlappingNode::new(inner, FlapBehavior::Forger);
        drive(&mut flap, 1, |p, ctx| p.on_timer(ctx, TimerKey(1))); // join overlay
        let v = reg.verifier();

        // Inactive: relays stay valid.
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        for s in sends(&actions) {
            if let WireMsg::Data(d) = s {
                assert!(d.verify(&v), "inactive flapper corrupted a relay");
            }
        }
        assert_eq!(flap.tampered, 0);

        // Active: the relayed copy is forged (fresh seq so it is not deduped).
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        let m2 = DataMsg::sign(&reg.signer(SignerId(0)), 2, 6, 64);
        let actions = drive(&mut flap, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m2))
        });
        let datas: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(d),
                _ => None,
            })
            .collect();
        assert_eq!(datas.len(), 1);
        assert!(!datas[0].verify(&v));
        assert_eq!(flap.tampered, 1);
    }
}
