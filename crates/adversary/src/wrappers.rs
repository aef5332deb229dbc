//! Adversaries that wrap a correct protocol instance and perturb its output.
//!
//! Every Byzantine behaviour the paper lists that is a *rewrite* of what a
//! correct node would send — "fail to send messages, send too many messages,
//! send messages with false information" (§2.1) — is one [`Deviation`] of a
//! single [`ByzantineNode`]. It runs a correct [`ByzcastNode`], captures the
//! actions of each callback and relays them through one filter. The generic
//! [`SilentNode`] covers the protocols whose message types differ from
//! byzcast's.

use byzcast_core::message::{DataMsg, GossipMsg, RequestMsg, WireMsg};
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

/// What a mute node refuses to transmit.
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

/// What a flapper does while its Byzantine window is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlapBehavior {
    /// Suppress outgoing frames per the policy (mute windows).
    Mute(MutePolicy),
    /// Corrupt the payload of relayed data messages (forging windows).
    Forger,
}

/// Which delivery bug a sabotaged node exhibits.
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

/// How a [`ByzantineNode`] deviates from the protocol its inner node runs.
#[derive(Clone, Debug)]
pub enum Deviation {
    /// Drop outgoing frames per the policy while claiming overlay
    /// membership: the attack the MUTE failure detector exists for, and
    /// the failure mode the paper's evaluation focuses on.
    Mute(MutePolicy),
    /// Corrupt the payload of every relayed data message ("send messages
    /// with false information"); signatures catch it. Its own broadcasts
    /// stay valid, to avoid instant self-incrimination.
    Forger,
    /// Forward everything except data messages from these originators
    /// (targeted censorship), while claiming overlay membership.
    Censor(Vec<NodeId>),
    /// Additionally send `per_tick` `REQUEST_MSG`s every `period` for
    /// messages the node already holds: pointless traffic that forces
    /// overlay neighbours to answer with full data frames. The VERBOSE
    /// failure detector exists for this.
    Verbose {
        /// Spam period.
        period: SimDuration,
        /// Requests per spam tick.
        per_tick: usize,
    },
    /// Corrupt the node's *deliveries*, not its frames: a test instrument
    /// that proves the chaos oracles catch real protocol bugs. Each kind
    /// trips exactly one invariant; never part of an adversary mix.
    Sabotage(SabotageKind),
}

impl From<FlapBehavior> for Deviation {
    fn from(behavior: FlapBehavior) -> Self {
        match behavior {
            FlapBehavior::Mute(policy) => Deviation::Mute(policy),
            FlapBehavior::Forger => Deviation::Forger,
        }
    }
}

/// Timer key reserved for the verbose deviation's spam tick (outside the
/// range used by the wrapped protocol).
const SPAM_TIMER: TimerKey = TimerKey(0x5_0000);

/// XOR mask distinguishing a phantom payload id from any real one.
const PHANTOM_MASK: u64 = 0x5AB0;

/// Applies a mute policy to one outgoing frame: pass it through, rewrite it
/// (strip gossip entries, keep the piggybacked beacon), or drop it.
fn mute_filter(policy: MutePolicy, msg: WireMsg) -> Option<WireMsg> {
    match (policy, msg) {
        (
            MutePolicy::DropData,
            WireMsg::Data(_) | WireMsg::Request(_) | WireMsg::FindMissing(_),
        ) => None,
        (MutePolicy::DropData, other) => Some(other),
        (MutePolicy::DropDataAndGossip, WireMsg::Beacon(b)) => Some(WireMsg::Beacon(b)),
        // Keep claiming overlay membership, but stop advertising the
        // messages it refuses to serve.
        (MutePolicy::DropDataAndGossip, WireMsg::Gossip(g)) if g.beacon.is_some() => {
            Some(WireMsg::Gossip(GossipMsg {
                entries: vec![],
                beacon: g.beacon,
            }))
        }
        (MutePolicy::DropDataAndGossip | MutePolicy::DropEverything, _) => None,
    }
}

/// A relayed data message with its payload tampered, so the originator's
/// signature no longer verifies.
fn forge(mut m: DataMsg) -> WireMsg {
    m.payload_id ^= 0xDEAD_BEEF;
    WireMsg::data(m)
}

/// A correct [`ByzcastNode`] whose outgoing actions pass through one
/// [`Deviation`]. Built by [`ByzantineNode::new`] it deviates from the
/// start; built by [`ByzantineNode::flapping`] it deviates only inside the
/// fault plan's `SetByzantine` windows.
pub struct ByzantineNode {
    inner: ByzcastNode,
    deviation: Deviation,
    /// Whether the deviation currently applies.
    active: bool,
    /// Whether `on_byzantine` switches `active` (flappers only).
    flaps: bool,
    phantom_emitted: bool,
}

impl ByzantineNode {
    /// Wraps `inner`, deviating from the start. Mute and censoring nodes
    /// are forced to advertise dominator status, so correct neighbours
    /// defer to them. Fault-plan windows do not affect the node.
    pub fn new(mut inner: ByzcastNode, deviation: Deviation) -> Self {
        if matches!(deviation, Deviation::Mute(_) | Deviation::Censor(_)) {
            inner.set_overlay_protocol(Box::new(AlwaysDominator));
        }
        ByzantineNode {
            inner,
            deviation,
            active: true,
            flaps: false,
            phantom_emitted: false,
        }
    }

    /// Wraps `inner` as a flapper: byte-for-byte the shipped protocol —
    /// it never lies about overlay membership — until the fault plan turns
    /// `behavior` on, and again once it turns it off. The worst case for
    /// the MUTE/TRUST detectors: the node builds up genuine trust first.
    pub fn flapping(inner: ByzcastNode, behavior: FlapBehavior) -> Self {
        ByzantineNode {
            inner,
            deviation: behavior.into(),
            active: false,
            flaps: true,
            phantom_emitted: false,
        }
    }

    /// The wrapped (correct-protocol) node.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    /// Runs one callback of the inner node and relays its actions.
    fn run(
        &mut self,
        ctx: &mut Context<'_, WireMsg>,
        f: impl FnOnce(&mut ByzcastNode, &mut Context<'_, WireMsg>),
    ) {
        let ((), actions) = capture(ctx, |sub| f(&mut self.inner, sub));
        for action in actions {
            self.relay(ctx, action);
        }
    }

    fn relay(&mut self, ctx: &mut Context<'_, WireMsg>, action: Action<WireMsg>) {
        if !self.active {
            return emit(ctx, action);
        }
        match (&self.deviation, action) {
            (&Deviation::Mute(policy), Action::Send(m)) => {
                if let Some(kept) = mute_filter(policy, m) {
                    ctx.send(kept);
                }
            }
            (Deviation::Forger, Action::Send(WireMsg::Data(m))) if m.id.origin != ctx.node_id() => {
                ctx.send(forge(*m));
            }
            (Deviation::Censor(victims), Action::Send(WireMsg::Data(m)))
                if victims.contains(&m.id.origin) => {}
            (&Deviation::Sabotage(kind), Action::Deliver { origin, payload_id }) => match kind {
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
            (_, other) => emit(ctx, other),
        }
    }

    /// Requests up to `per_tick` messages the node already holds, then
    /// re-arms the spam tick.
    fn spam(&self, ctx: &mut Context<'_, WireMsg>, period: SimDuration, per_tick: usize) {
        for s in self.inner.store().iter().take(per_tick) {
            ctx.send(WireMsg::Request(RequestMsg {
                entry: s.msg.gossip_entry(),
                target: NodeId(0),
            }));
        }
        ctx.set_timer_after(period, SPAM_TIMER);
    }
}

impl Protocol for ByzantineNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        self.run(ctx, |inner, sub| inner.on_start(sub));
        if let Deviation::Verbose { period, .. } = self.deviation {
            ctx.set_timer_after(period, SPAM_TIMER);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        self.run(ctx, |inner, sub| inner.on_packet(sub, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        match self.deviation {
            Deviation::Verbose { period, per_tick } if timer == SPAM_TIMER => {
                self.spam(ctx, period, per_tick)
            }
            _ => self.run(ctx, |inner, sub| inner.on_timer(sub, timer)),
        }
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        self.run(ctx, |inner, sub| inner.on_app_broadcast(sub, payload));
    }
    fn on_byzantine(&mut self, _ctx: &mut Context<'_, WireMsg>, active: bool) {
        if self.flaps {
            self.active = active;
        }
    }
}

/// Generic crash-like mute: wraps *any* protocol and suppresses every
/// transmission (receptions and deliveries still happen). Works against the
/// baselines, whose message types differ from byzcast's.
pub struct SilentNode<P: Protocol> {
    inner: P,
}

impl<P: Protocol> SilentNode<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        SilentNode { inner }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn relay(ctx: &mut Context<'_, P::Msg>, actions: Vec<Action<P::Msg>>) {
        for a in actions {
            if !matches!(a, Action::Send(_)) {
                emit(ctx, a);
            }
        }
    }
}

impl<P: Protocol> Protocol for SilentNode<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, P::Msg>) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_start(sub));
        Self::relay(ctx, actions);
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, P::Msg>, from: NodeId, msg: &P::Msg) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_packet(sub, from, msg));
        Self::relay(ctx, actions);
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, P::Msg>, timer: TimerKey) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_timer(sub, timer));
        Self::relay(ctx, actions);
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, P::Msg>, payload: AppPayload) {
        let ((), actions) = capture(ctx, |sub| self.inner.on_app_broadcast(sub, payload));
        Self::relay(ctx, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn datas(actions: &[Action<WireMsg>]) -> Vec<DataMsg> {
        sends(actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Data(d) => Some(**d),
                _ => None,
            })
            .collect()
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

    /// A data message originated (and signed) by `origin`.
    fn data(reg: &KeyRegistry<SimScheme>, origin: u32, seq: u64, payload_id: u64) -> WireMsg {
        WireMsg::data(DataMsg::sign(
            &reg.signer(SignerId(origin)),
            seq,
            payload_id,
            64,
        ))
    }

    fn gossip_tick(p: &mut ByzantineNode) -> Vec<Action<WireMsg>> {
        drive(p, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)))
    }

    /// Asserts the only frames sent are gossips that carry a beacon and
    /// advertise nothing, and that there is at least one.
    fn assert_beacon_only_gossip(actions: &[Action<WireMsg>]) {
        let sent = sends(actions);
        assert!(!sent.is_empty(), "the beacon-bearing gossip was dropped");
        for s in sent {
            match s {
                WireMsg::Gossip(g) => {
                    assert!(g.entries.is_empty(), "entries leaked: {g:?}");
                    assert!(g.beacon.is_some());
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn mute_node_drops_data_but_keeps_beacons_and_gossip() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute = ByzantineNode::new(byz(1, &reg), Deviation::Mute(MutePolicy::DropData));
        // The first gossip tick carries the (lying) dominator beacon and
        // flips the inner node's role.
        let actions = gossip_tick(&mut mute);
        match sends(&actions).first() {
            Some(WireMsg::Gossip(g)) => {
                assert_eq!(g.beacon.as_ref().unwrap().role(), OverlayRole::Dominator)
            }
            other => panic!("expected gossip+beacon, got {other:?}"),
        }
        // It receives and delivers, but forwards nothing, where a correct
        // dominator fed the same frames forwards the message.
        let msg = data(&reg, 0, 1, 5);
        let actions = drive(&mut mute, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        assert!(actions.iter().any(|a| matches!(a, Action::Deliver { .. })));
        assert!(datas(&actions).is_empty());
        let mut correct = byz(1, &reg);
        correct.set_overlay_protocol(Box::new(AlwaysDominator));
        drive(&mut correct, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        let actions = drive(&mut correct, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        assert_eq!(datas(&actions).len(), 1);
    }

    #[test]
    fn fully_mute_policy_keeps_only_beacons() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute =
            ByzantineNode::new(byz(1, &reg), Deviation::Mute(MutePolicy::DropDataAndGossip));
        let msg = data(&reg, 0, 1, 5);
        drive(&mut mute, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        // Gossip tick: entries are stripped, the beacon claim survives.
        assert_beacon_only_gossip(&gossip_tick(&mut mute));
    }

    #[test]
    fn silent_node_sends_nothing_at_all() {
        let reg = KeyRegistry::generate(1, 8);
        let mut silent = SilentNode::new(byz(1, &reg));
        let msg = data(&reg, 0, 1, 5);
        let actions = drive(&mut silent, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        assert!(sends(&actions).is_empty());
        // Beacons are suppressed too, but the node keeps its timers armed.
        let actions = drive(&mut silent, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
    }

    #[test]
    fn forger_corrupts_relayed_data_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        let mut forger = ByzantineNode::new(inner, Deviation::Forger);
        // Promote to overlay so it forwards: run one beacon tick first.
        gossip_tick(&mut forger);
        let msg = data(&reg, 0, 1, 5);
        let actions = drive(&mut forger, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        let relayed = datas(&actions);
        assert_eq!(relayed.len(), 1);
        let v = reg.verifier();
        assert!(!relayed[0].verify(&v), "forged frame must not verify");
        // Its own broadcast stays valid.
        let actions = drive(&mut forger, 1, |p, ctx| {
            p.on_app_broadcast(
                ctx,
                AppPayload {
                    id: 7,
                    size_bytes: 10,
                },
            )
        });
        let own = datas(&actions);
        assert_eq!(own.len(), 1);
        assert!(own[0].verify(&v));
    }

    #[test]
    fn verbose_node_spams_requests_for_messages_it_has() {
        let reg = KeyRegistry::generate(1, 8);
        let period = SimDuration::from_millis(100);
        let mut verbose = ByzantineNode::new(
            byz(1, &reg),
            Deviation::Verbose {
                period,
                per_tick: 3,
            },
        );
        let actions = drive(&mut verbose, 1, |p, ctx| p.on_start(ctx));
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::SetTimer { key, .. } if *key == SPAM_TIMER)));
        let msg = data(&reg, 0, 1, 5);
        drive(&mut verbose, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        let actions = drive(&mut verbose, 1, |p, ctx| p.on_timer(ctx, SPAM_TIMER));
        // One request per held message (it holds one), then the tick re-arms.
        let reqs: Vec<_> = sends(&actions)
            .into_iter()
            .filter_map(|m| match m {
                WireMsg::Request(r) => Some(r.entry),
                _ => None,
            })
            .collect();
        let held: Vec<_> = verbose
            .inner()
            .store()
            .iter()
            .map(|s| s.msg.gossip_entry())
            .collect();
        assert_eq!(reqs, held);
        assert_eq!(reqs.len(), 1);
        assert!(actions.iter().any(|a| matches!(
            a,
            Action::SetTimer { at, key } if *key == SPAM_TIMER && *at == SimTime::from_secs(1) + period
        )));
    }

    #[test]
    fn selective_forwarder_censors_victims_only() {
        let reg = KeyRegistry::generate(1, 8);
        let mut sf = ByzantineNode::new(byz(1, &reg), Deviation::Censor(vec![NodeId(0)]));
        gossip_tick(&mut sf); // become overlay
        let victim_msg = data(&reg, 0, 1, 5);
        let ok_msg = data(&reg, 2, 1, 6);
        let a1 = drive(&mut sf, 1, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &victim_msg)
        });
        assert!(datas(&a1).is_empty());
        let a2 = drive(&mut sf, 1, |p, ctx| p.on_packet(ctx, NodeId(2), &ok_msg));
        assert_eq!(datas(&a2).len(), 1);
    }

    #[test]
    fn permanent_deviation_ignores_fault_plan_windows() {
        let reg = KeyRegistry::generate(1, 8);
        let mut mute =
            ByzantineNode::new(byz(1, &reg), Deviation::Mute(MutePolicy::DropEverything));
        drive(&mut mute, 1, |p, ctx| p.on_byzantine(ctx, false));
        assert!(sends(&gossip_tick(&mut mute)).is_empty());
    }

    #[test]
    fn inactive_flapper_passes_everything_through() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            ByzantineNode::flapping(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        let mut correct = byz(1, &reg);
        // Gossip tick: everything the correct node emits goes out verbatim.
        let actions = gossip_tick(&mut flap);
        let expected = drive(&mut correct, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(!sends(&actions).is_empty());
        assert_eq!(format!("{actions:?}"), format!("{expected:?}"));
    }

    #[test]
    fn mute_window_suppresses_then_recovers() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap =
            ByzantineNode::flapping(byz(1, &reg), FlapBehavior::Mute(MutePolicy::DropEverything));
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        assert!(sends(&gossip_tick(&mut flap)).is_empty());
        // Deactivate: the node speaks again. Hand it a message so the next
        // gossip tick has something to advertise.
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, false));
        let msg = data(&reg, 0, 1, 5);
        drive(&mut flap, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        assert!(!sends(&gossip_tick(&mut flap)).is_empty());
    }

    #[test]
    fn gossip_mute_window_keeps_the_beacon_bearing_gossip() {
        let reg = KeyRegistry::generate(1, 8);
        let mut flap = ByzantineNode::flapping(
            byz(1, &reg),
            FlapBehavior::Mute(MutePolicy::DropDataAndGossip),
        );
        let msg = data(&reg, 0, 1, 5);
        drive(&mut flap, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        assert_beacon_only_gossip(&gossip_tick(&mut flap));
    }

    #[test]
    fn forger_window_corrupts_only_relays_and_only_while_active() {
        let reg = KeyRegistry::generate(1, 8);
        let mut inner = byz(1, &reg);
        inner.set_overlay_protocol(Box::new(AlwaysDominator));
        let mut flap = ByzantineNode::flapping(inner, FlapBehavior::Forger);
        gossip_tick(&mut flap); // join overlay
        let v = reg.verifier();

        // Inactive: relays stay valid.
        let msg = data(&reg, 0, 1, 5);
        let actions = drive(&mut flap, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        let relayed = datas(&actions);
        assert_eq!(relayed.len(), 1);
        assert!(relayed[0].verify(&v), "inactive flapper corrupted a relay");

        // Active: the relayed copy is forged (fresh seq so it is not deduped).
        drive(&mut flap, 1, |p, ctx| p.on_byzantine(ctx, true));
        let msg = data(&reg, 0, 2, 6);
        let actions = drive(&mut flap, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        let relayed = datas(&actions);
        assert_eq!(relayed.len(), 1);
        assert!(!relayed[0].verify(&v));
    }

    fn sabotaged(kind: SabotageKind, reg: &KeyRegistry<SimScheme>) -> ByzantineNode {
        ByzantineNode::new(byz(1, reg), Deviation::Sabotage(kind))
    }

    fn receive(
        node: &mut ByzantineNode,
        seq: u64,
        payload_id: u64,
        reg: &KeyRegistry<SimScheme>,
    ) -> Vec<(NodeId, u64)> {
        let msg = data(reg, 0, seq, payload_id);
        deliveries(&drive(node, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg)))
    }

    #[test]
    fn sabotage_kinds_round_trip_through_names() {
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
        let mut node = sabotaged(SabotageKind::DoubleDeliver, &reg);
        let ds = receive(&mut node, 1, 5, &reg);
        assert_eq!(ds, vec![(NodeId(0), 5), (NodeId(0), 5)]);
    }

    #[test]
    fn phantom_deliver_adds_one_unoriginated_payload() {
        let reg = KeyRegistry::generate(1, 8);
        let mut node = sabotaged(SabotageKind::PhantomDeliver, &reg);
        let ds = receive(&mut node, 1, 5, &reg);
        assert_eq!(ds, vec![(NodeId(0), 5), (NodeId(0), 5 ^ PHANTOM_MASK)]);
        // Only once: the second reception is clean.
        let ds = receive(&mut node, 2, 6, &reg);
        assert_eq!(ds, vec![(NodeId(0), 6)]);
    }

    #[test]
    fn drop_deliver_swallows_everything() {
        let reg = KeyRegistry::generate(1, 8);
        let mut node = sabotaged(SabotageKind::DropDeliver, &reg);
        assert!(receive(&mut node, 1, 5, &reg).is_empty());
    }
}
