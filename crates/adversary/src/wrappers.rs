//! Adversaries that wrap a correct protocol instance and perturb its output.

use byzcast_core::message::WireMsg;
use byzcast_core::ByzcastNode;
use byzcast_overlay::{NeighborTable, OverlayDecision, OverlayProtocol, OverlayRole, TrustView};
use byzcast_sim::node::Action;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, SimDuration, TimerKey};

use crate::{capture, emit};

/// An overlay "rule" that always claims membership — injected into wrapped
/// nodes so their beacons advertise `Dominator` regardless of topology.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysDominator;

impl OverlayProtocol for AlwaysDominator {
    fn decide(&self, _: NodeId, _: &NeighborTable, _: &dyn TrustView) -> OverlayDecision {
        OverlayDecision {
            role: OverlayRole::Dominator,
            marked: true,
        }
    }
    fn name(&self) -> &'static str {
        "always-dominator"
    }
}

/// What a [`MuteNode`] refuses to transmit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MutePolicy {
    /// Drop data forwards and recovery responses; keep gossiping (the node
    /// even advertises messages it will not forward).
    #[default]
    DropData,
    /// Drop data *and* gossip; keep only beacons (fully mute on the data
    /// plane but still claiming overlay membership).
    DropDataAndGossip,
    /// Drop everything, including beacons (quickly ages out of neighbour
    /// tables; the weakest mute variant).
    DropEverything,
}

/// A mute Byzantine node: participates in overlay maintenance — claiming to
/// be a dominator — but silently drops data-plane traffic per its policy.
pub struct MuteNode {
    inner: ByzcastNode,
    policy: MutePolicy,
    /// Frames suppressed so far (diagnostic).
    pub suppressed: u64,
}

impl MuteNode {
    /// Wraps `inner`, forcing it to advertise dominator status.
    pub fn new(mut inner: ByzcastNode, policy: MutePolicy) -> Self {
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        MuteNode {
            inner,
            policy,
            suppressed: 0,
        }
    }

    /// The wrapped (correct-protocol) node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    /// Applies the policy to one outgoing frame: pass it through, rewrite it
    /// (strip gossip entries, keep the piggybacked beacon), or drop it.
    fn filter(&self, msg: WireMsg) -> Option<WireMsg> {
        match self.policy {
            MutePolicy::DropData => match msg {
                WireMsg::Data(_) | WireMsg::Request(_) | WireMsg::FindMissing(_) => None,
                other => Some(other),
            },
            MutePolicy::DropDataAndGossip => match msg {
                WireMsg::Beacon(_) => Some(msg),
                // Keep claiming overlay membership, but stop advertising
                // the messages it refuses to serve.
                WireMsg::Gossip(g) if g.beacon.is_some() => {
                    Some(WireMsg::Gossip(byzcast_core::message::GossipMsg {
                        entries: vec![],
                        beacon: g.beacon,
                    }))
                }
                _ => None,
            },
            MutePolicy::DropEverything => None,
        }
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, actions: Vec<Action<WireMsg>>) {
        for a in actions {
            match a {
                Action::Send(m) => match self.filter(m) {
                    Some(kept) => ctx.send(kept),
                    None => self.suppressed += 1,
                },
                other => emit(ctx, other),
            }
        }
    }
}

impl Protocol for MuteNode {
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

/// Generic crash-like mute: wraps *any* protocol and suppresses every
/// transmission (receptions and deliveries still happen). Works against the
/// baselines, whose message types differ from byzcast's.
pub struct SilentNode<P: Protocol> {
    inner: P,
    /// Frames suppressed so far (diagnostic).
    pub suppressed: u64,
}

impl<P: Protocol> SilentNode<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        SilentNode {
            inner,
            suppressed: 0,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn relay(&mut self, ctx: &mut Context<'_, P::Msg>, actions: Vec<Action<P::Msg>>) {
        for a in actions {
            match a {
                Action::Send(_) => self.suppressed += 1,
                other => emit(ctx, other),
            }
        }
    }
}

impl<P: Protocol> Protocol for SilentNode<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_start(sub));
        self.relay(ctx, actions);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: &P::Msg) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_packet(sub, from, msg));
        self.relay(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerKey) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_timer(sub, timer));
        self.relay(ctx, actions);
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, P::Msg>, payload: AppPayload) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_app_broadcast(sub, payload));
        self.relay(ctx, actions);
    }
}

/// A forger: forwards protocol traffic but corrupts the payload of every
/// data message it relays. Receivers detect the broken originator signature
/// and suspect the forger.
pub struct ForgerNode {
    inner: ByzcastNode,
    /// Frames tampered so far (diagnostic).
    pub tampered: u64,
}

impl ForgerNode {
    /// Wraps `inner`.
    pub fn new(inner: ByzcastNode) -> Self {
        ForgerNode { inner, tampered: 0 }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, actions: Vec<Action<WireMsg>>) {
        let me = ctx.node_id();
        for a in actions {
            match a {
                Action::Send(WireMsg::Data(m)) if m.id.origin != me => {
                    // Tamper with relayed payloads ("messages with false
                    // information"); own messages stay valid to avoid
                    // instant self-incrimination.
                    let mut forged = *m;
                    forged.payload_id ^= 0xDEAD_BEEF;
                    self.tampered += 1;
                    ctx.send(WireMsg::data(forged));
                }
                other => emit(ctx, other),
            }
        }
    }
}

impl Protocol for ForgerNode {
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

/// Timer key reserved for the verbose adversary's spam tick (outside the
/// range used by the wrapped protocol).
const SPAM_TIMER: TimerKey = TimerKey(0x5_0000);

/// A verbose node: speaks the protocol correctly but additionally floods
/// duplicate `REQUEST_MSG`s for messages it already possesses — the
/// "too many messages … may cause other nodes to react with messages of
/// their own" overload attack.
pub struct VerboseNode {
    inner: ByzcastNode,
    spam_period: SimDuration,
    spam_per_tick: usize,
    /// Spam requests sent (diagnostic).
    pub spammed: u64,
}

impl VerboseNode {
    /// Wraps `inner`, spamming `spam_per_tick` requests every `spam_period`.
    pub fn new(inner: ByzcastNode, spam_period: SimDuration, spam_per_tick: usize) -> Self {
        VerboseNode {
            inner,
            spam_period,
            spam_per_tick,
            spammed: 0,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    fn spam(&mut self, ctx: &mut Context<'_, WireMsg>) {
        // Request messages we already have — guaranteed-pointless traffic
        // that forces overlay neighbours to respond with full data frames.
        let entries: Vec<_> = self
            .inner
            .store()
            .iter()
            .take(self.spam_per_tick)
            .map(|s| s.msg.gossip_entry())
            .collect();
        for entry in entries {
            ctx.send(WireMsg::Request(byzcast_core::message::RequestMsg {
                entry,
                target: NodeId(0),
            }));
            self.spammed += 1;
        }
        ctx.set_timer_after(self.spam_period, SPAM_TIMER);
    }
}

impl Protocol for VerboseNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        self.inner.on_start(ctx);
        ctx.set_timer_after(self.spam_period, SPAM_TIMER);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        self.inner.on_packet(ctx, from, msg);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if timer == SPAM_TIMER {
            self.spam(ctx);
        } else {
            self.inner.on_timer(ctx, timer);
        }
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        self.inner.on_app_broadcast(ctx, payload);
    }
}

/// A selective forwarder: a correct overlay citizen except that it censors
/// data messages from the victim originators.
pub struct SelectiveForwarder {
    inner: ByzcastNode,
    victims: Vec<NodeId>,
    /// Frames censored so far (diagnostic).
    pub censored: u64,
}

impl SelectiveForwarder {
    /// Wraps `inner`, censoring messages originated by `victims`.
    pub fn new(mut inner: ByzcastNode, victims: Vec<NodeId>) -> Self {
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        SelectiveForwarder {
            inner,
            victims,
            censored: 0,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, actions: Vec<Action<WireMsg>>) {
        for a in actions {
            match a {
                Action::Send(WireMsg::Data(m)) if self.victims.contains(&m.id.origin) => {
                    self.censored += 1;
                }
                other => emit(ctx, other),
            }
        }
    }
}

impl Protocol for SelectiveForwarder {
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
    fn mute_node_drops_data_but_keeps_beacons_and_gossip() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute = MuteNode::new(byz(1, &reg), MutePolicy::DropData);
        // The first gossip tick carries the (lying) dominator beacon and
        // flips the inner node's role.
        let actions = drive(&mut mute, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        match sends(&actions).first() {
            Some(WireMsg::Gossip(g)) => {
                assert_eq!(g.beacon.as_ref().unwrap().role(), OverlayRole::Dominator)
            }
            other => panic!("expected gossip+beacon, got {other:?}"),
        }
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        // It receives and delivers, but forwards nothing.
        let actions = drive(&mut mute, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        assert!(actions.iter().any(|a| matches!(a, Action::Deliver { .. })));
        assert!(sends(&actions)
            .iter()
            .all(|m| !matches!(m, WireMsg::Data(_))));
        assert!(mute.suppressed >= 1);
    }

    #[test]
    fn fully_mute_policy_keeps_only_beacons() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute = MuteNode::new(byz(1, &reg), MutePolicy::DropDataAndGossip);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut mute, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        // Gossip tick: entries are stripped, the beacon claim survives.
        let actions = drive(&mut mute, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        for s in sends(&actions) {
            match s {
                WireMsg::Gossip(g) => {
                    assert!(g.entries.is_empty(), "entries leaked: {g:?}");
                    assert!(g.beacon.is_some());
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(
            mute.suppressed == 0,
            "beacon-bearing gossip was rewritten, not dropped"
        );
    }

    #[test]
    fn silent_node_sends_nothing_at_all() {
        let reg = KeyRegistry::generate(1, 8);
        let mut silent = SilentNode::new(byz(1, &reg));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut silent, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        assert!(sends(&actions).is_empty());
        // Beacons are suppressed too.
        let actions = drive(&mut silent, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(silent.suppressed >= 1);
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn forger_corrupts_relayed_data_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        // Promote to overlay so it forwards: run one beacon tick first.
        let mut forger = ForgerNode::new(inner);
        drive(&mut forger, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let actions = drive(&mut forger, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        let datas: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(**d),
                _ => None,
            })
            .collect();
        assert_eq!(datas.len(), 1);
        let v = reg.verifier();
        assert!(!datas[0].verify(&v), "forged frame must not verify");
        assert_eq!(forger.tampered, 1);
        // Its own broadcast stays valid.
        let actions = drive(&mut forger, 1, |p, ctx| {
            p.on_app_broadcast(
                ctx,
                byzcast_sim::AppPayload {
                    id: 7,
                    size_bytes: 10,
                },
            )
        });
        let own: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(**d),
                _ => None,
            })
            .collect();
        assert!(own[0].verify(&v));
    }

    #[test]
    fn verbose_node_spams_requests_for_messages_it_has() {
        let reg = KeyRegistry::generate(1, 8);
        let mut verbose = VerboseNode::new(byz(1, &reg), SimDuration::from_millis(100), 3);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        drive(&mut verbose, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        let actions = drive(&mut verbose, 1, |p, ctx| p.on_timer(ctx, SPAM_TIMER));
        let reqs = sends(&actions)
            .iter()
            .filter(|m| matches!(m, WireMsg::Request(_)))
            .count();
        assert_eq!(reqs, 1); // has one message so far
        assert_eq!(verbose.spammed, 1);
    }

    #[test]
    fn selective_forwarder_censors_victims_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut sf = SelectiveForwarder::new(byz(1, &reg), vec![NodeId(0)]);
        drive(&mut sf, 1, |p, ctx| p.on_timer(ctx, TimerKey(1))); // become overlay
        let victim_msg = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let ok_msg = DataMsg::sign(&reg.signer(SignerId(2)), 1, 6, 64);
        let a1 = drive(&mut sf, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(victim_msg))
        });
        assert!(sends(&a1).iter().all(|m| !matches!(m, WireMsg::Data(_))));
        assert_eq!(sf.censored, 1);
        let a2 = drive(&mut sf, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(2), &WireMsg::data(ok_msg))
        });
        assert!(sends(&a2).iter().any(|m| matches!(m, WireMsg::Data(_))));
    }
}
