//! One Byzantine node for every deviation the paper's fault model allows.
//!
//! "Byzantine processes may fail to send messages, send too many messages,
//! send messages with false information" (§2.1): each such behaviour is one
//! [`Deviation`] of a single [`ByzantineNode`] built over a [`ByzcastNode`].
//! A *relaying* deviation runs the inner node, captures the actions of each
//! callback and passes them through one filter. An *injecting* deviation
//! never starts the inner node, which only lends it an id and a signer; it
//! sends frames of its own on its own timers. The generic [`SilentNode`]
//! covers the baselines, whose message types differ from byzcast's.

use std::collections::BTreeMap;
use std::sync::Arc;

use byzcast_core::message::{
    BeaconMsg, DataMsg, GossipEntry, GossipMsg, MessageId, RequestMsg, WireMsg,
};
use byzcast_core::ByzcastNode;
use byzcast_crypto::Signature;
use byzcast_overlay::{
    AdvertisedLists, NeighborTable, OverlayDecision, OverlayProtocol, OverlayRole, TrustView,
};
use byzcast_sim::node::Action;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, SimDuration, SimTime, TimerKey};

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
/// The first six variants relay the inner node's actions; the next five
/// inject frames of their own over an inner node that never starts.
/// [`Deviation::Flapping`] exists only to construct a node.
#[derive(Clone, Debug)]
pub enum Deviation {
    /// Drop every outgoing frame, claiming nothing: crash-like silence
    /// that still receives and delivers.
    Silent,
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
    /// Re-gossip valid entries overheard from others, for messages it does
    /// not hold, and never answer the resulting requests; beacons claim
    /// dominator status. §3.2.2: "If q gossips about messages that do not
    /// exist or q does not want to supply them, it will be suspected."
    GossipLiar,
    /// Inject data messages "from" `victim` and beacons naming it as
    /// sender, with absent signatures since it cannot forge them: pure
    /// noise once signatures are checked.
    Impersonator {
        /// The framed node.
        victim: NodeId,
    },
    /// Inject `per_tick` unique *validly signed* garbage messages of
    /// `payload_bytes` bytes every `period`. Each passes both signature
    /// checks, so an ungoverned receiver buffers and gossips every one:
    /// the memory and bandwidth exhaustion that only resource-bounded
    /// admission stops.
    Flooder {
        /// Injection period.
        period: SimDuration,
        /// Garbage messages per tick.
        per_tick: u32,
        /// Payload size of each garbage message.
        payload_bytes: u32,
    },
    /// Capture valid data frames off the air and re-inject each once,
    /// unchanged, `delay` after capturing it. Only the receiver's seen-id
    /// memory stops the replay from being delivered again.
    Replayer {
        /// How long after capture each frame is replayed.
        delay: SimDuration,
    },
    /// Inject `per_tick` unique valid-looking data frames with garbage
    /// signatures every `period`. Neither seen-id dedup nor the
    /// verification cache short-circuits them, so each costs the receiver
    /// a full failing verification: verifier-CPU exhaustion.
    SigGrinder {
        /// Injection period.
        period: SimDuration,
        /// Ill-signed frames per tick.
        per_tick: u32,
    },
    /// Construction only: [`ByzantineNode::new`] stores the behaviour as
    /// its mute or forger deviation, applied only inside the fault plan's
    /// `SetByzantine` windows. Outside them the node is byte-for-byte the
    /// shipped protocol, and it never lies about overlay membership: the
    /// worst case for the MUTE/TRUST detectors, since it builds up genuine
    /// trust first.
    Flapping(FlapBehavior),
}

/// Timer key reserved for the verbose deviation's spam tick (outside the
/// range used by the wrapped protocol).
const SPAM_TIMER: TimerKey = TimerKey(0x5_0000);

/// Timer keys of the injecting deviations. The liar's gossip and beacon
/// ticks need two keys: re-setting a key replaces its pending timer.
const GOSSIP_TIMER: TimerKey = TimerKey(0x6_0001);
const BEACON_TIMER: TimerKey = TimerKey(0x6_0002);
const INJECT_TIMER: TimerKey = TimerKey(0x6_0003);
const FLOOD_TIMER: TimerKey = TimerKey(0x6_0004);
const REPLAY_TIMER: TimerKey = TimerKey(0x6_0005);
const GRIND_TIMER: TimerKey = TimerKey(0x6_0006);

/// How often the gossip liar gossips and beacons.
const LIAR_PERIOD: SimDuration = SimDuration::from_millis(500);
/// How often the impersonator injects a forged frame and beacon.
const IMPERSONATION_PERIOD: SimDuration = SimDuration::from_secs(1);
/// How often the replayer looks for captures whose delay has passed.
const REPLAY_CHECK_PERIOD: SimDuration = SimDuration::from_millis(500);
/// Overheard entries the liar re-gossips per gossip.
const LIES_PER_GOSSIP: usize = 40;

/// XOR mask distinguishing a phantom payload id from any real one.
const PHANTOM_MASK: u64 = 0x5AB0;

impl Deviation {
    /// Whether this deviation saturates the shared radio medium by brute
    /// injection rate. Air-time congestion collapses beacon and data
    /// reception for every node in range — resource governance sheds the
    /// *processing* cost, but cannot reclaim the air the frames already
    /// burned — so oracles that presume a usable medium (fd-accuracy) treat
    /// such runs like jammed ones and skip their obligations.
    pub fn congests_air(&self) -> bool {
        matches!(
            self,
            Deviation::Flooder { .. } | Deviation::SigGrinder { .. }
        )
    }

    /// The period and timer keys (in the order `on_start` arms them) of an
    /// injecting deviation; `None` for a relaying one.
    fn injection(&self) -> Option<(SimDuration, &'static [TimerKey])> {
        match *self {
            Deviation::GossipLiar => Some((LIAR_PERIOD, &[GOSSIP_TIMER, BEACON_TIMER])),
            Deviation::Impersonator { .. } => Some((IMPERSONATION_PERIOD, &[INJECT_TIMER])),
            Deviation::Flooder { period, .. } => Some((period, &[FLOOD_TIMER])),
            Deviation::Replayer { .. } => Some((REPLAY_CHECK_PERIOD, &[REPLAY_TIMER])),
            Deviation::SigGrinder { period, .. } => Some((period, &[GRIND_TIMER])),
            _ => None,
        }
    }
}

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

/// A data frame with absent signatures: the receiver must run the verifier
/// to find out they are not the originator's.
fn unsigned(origin: NodeId, seq: u64, payload_id: u64, payload_len: u32) -> WireMsg {
    WireMsg::data(DataMsg {
        id: MessageId::new(origin, seq),
        payload_id,
        payload_len,
        msg_sig: Signature::zero(),
        id_sig: Signature::zero(),
        ttl: 1,
    })
}

/// A [`ByzcastNode`] that deviates from the protocol through one
/// [`Deviation`], from the start or, built from [`Deviation::Flapping`],
/// only inside the fault plan's `SetByzantine` windows.
pub struct ByzantineNode {
    inner: ByzcastNode,
    deviation: Deviation,
    /// Whether the deviation currently applies.
    active: bool,
    /// Whether `on_byzantine` switches `active` (flappers only).
    flaps: bool,
    phantom_emitted: bool,
    /// Sequence number of the last frame an injecting deviation made up.
    seq: u64,
    /// The liar's overheard entries (valid: it cannot forge new ones).
    overheard: BTreeMap<MessageId, GossipEntry>,
    /// The replayer's captures by id, with capture time.
    captured: BTreeMap<MessageId, (Arc<DataMsg>, SimTime)>,
}

impl ByzantineNode {
    /// Builds the node. Mute and censoring nodes are forced to advertise
    /// dominator status, so correct neighbours defer to them; an injecting
    /// deviation never starts `inner`. Fault-plan windows switch only a
    /// [`Deviation::Flapping`] node, which starts out correct.
    pub fn new(mut inner: ByzcastNode, deviation: Deviation) -> Self {
        let flaps = matches!(deviation, Deviation::Flapping(_));
        let deviation = match deviation {
            Deviation::Flapping(FlapBehavior::Mute(policy)) => Deviation::Mute(policy),
            Deviation::Flapping(FlapBehavior::Forger) => Deviation::Forger,
            Deviation::Mute(_) | Deviation::Censor(_) => {
                inner.set_overlay_protocol(Box::new(AlwaysDominator));
                deviation
            }
            other => other,
        };
        ByzantineNode {
            inner,
            deviation,
            active: !flaps,
            flaps,
            phantom_emitted: false,
            seq: 0,
            overheard: BTreeMap::new(),
            captured: BTreeMap::new(),
        }
    }

    /// The inner (correct-protocol) node; never started under an injecting
    /// deviation.
    pub fn inner(&self) -> &ByzcastNode {
        &self.inner
    }

    /// Whether the node counts as an overlay member: an injecting deviation
    /// always claims membership, a relaying one holds its inner node's role.
    pub fn claims_overlay(&self) -> bool {
        self.deviation.injection().is_some() || self.inner.is_overlay()
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
            (Deviation::Silent, Action::Send(_)) => {}
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

    /// What an injecting deviation takes from a frame it hears: the liar
    /// collects entries to lie about (from data too, whose bodies it does
    /// not keep, though it still reads them), the replayer captures data.
    fn overhear(&mut self, ctx: &mut Context<'_, WireMsg>, msg: &WireMsg) {
        match (&self.deviation, msg) {
            (Deviation::GossipLiar, WireMsg::Gossip(g)) => {
                for e in &g.entries {
                    self.overheard.insert(e.id, *e);
                }
            }
            (Deviation::GossipLiar, WireMsg::Data(m)) => {
                self.overheard.insert(m.id, m.gossip_entry());
                ctx.deliver(m.id.origin, m.payload_id);
            }
            (Deviation::Replayer { .. }, WireMsg::Data(m)) => {
                let now = ctx.now();
                self.captured
                    .entry(m.id)
                    .or_insert_with(|| (DataMsg::share_with_ttl(m, 1), now));
            }
            _ => {}
        }
    }

    /// One injection tick of an injecting deviation.
    fn inject(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        let me = ctx.node_id();
        match self.deviation {
            Deviation::GossipLiar if timer == GOSSIP_TIMER => {
                let entries: Vec<GossipEntry> = self
                    .overheard
                    .values()
                    .copied()
                    .take(LIES_PER_GOSSIP)
                    .collect();
                if !entries.is_empty() {
                    ctx.send(WireMsg::Gossip(GossipMsg::of_entries(entries)));
                }
            }
            // Claim to be a dominator with no neighbours to report.
            Deviation::GossipLiar => ctx.send(WireMsg::Beacon(BeaconMsg::sign(
                self.inner.signer(),
                OverlayRole::Dominator,
                vec![],
                vec![],
                vec![],
            ))),
            Deviation::Impersonator { victim } => {
                self.seq += 1;
                ctx.send(unsigned(
                    victim,
                    1_000_000 + self.seq,
                    0xBAD0 + self.seq,
                    64,
                ));
                ctx.send(WireMsg::Beacon(BeaconMsg::from_parts(
                    victim,
                    OverlayRole::Dominator,
                    true,
                    AdvertisedLists::new(&[me], &[]),
                    vec![],
                    Signature::zero(),
                )));
            }
            // Unique ids and payloads: dedup and verification caches never
            // short-circuit the cost.
            Deviation::Flooder {
                per_tick,
                payload_bytes,
                ..
            } => {
                for _ in 0..per_tick {
                    self.seq += 1;
                    let m = DataMsg::sign(
                        self.inner.signer(),
                        self.seq,
                        0xF100_0000 + self.seq,
                        payload_bytes,
                    );
                    ctx.send(WireMsg::data(m));
                }
            }
            Deviation::Replayer { delay } => {
                let now = ctx.now();
                let mut due = Vec::new();
                self.captured.retain(|_, (m, at)| {
                    let keep = now.saturating_since(*at) < delay;
                    if !keep {
                        due.push(Arc::clone(m));
                    }
                    keep
                });
                for m in due {
                    ctx.send(WireMsg::Data(m));
                }
            }
            Deviation::SigGrinder { per_tick, .. } => {
                for _ in 0..per_tick {
                    self.seq += 1;
                    ctx.send(unsigned(me, self.seq, 0x51_6000_0000 + self.seq, 256));
                }
            }
            _ => {}
        }
    }
}

impl Protocol for ByzantineNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        if let Some((period, timers)) = self.deviation.injection() {
            for &timer in timers {
                ctx.set_timer_after(period, timer);
            }
            return;
        }
        self.run(ctx, |inner, sub| inner.on_start(sub));
        if let Deviation::Verbose { period, .. } = self.deviation {
            ctx.set_timer_after(period, SPAM_TIMER);
        }
    }
    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        if self.deviation.injection().is_some() {
            return self.overhear(ctx, msg);
        }
        self.run(ctx, |inner, sub| inner.on_packet(sub, from, msg));
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if let Some((period, timers)) = self.deviation.injection() {
            if timers.contains(&timer) {
                self.inject(ctx, timer);
                ctx.set_timer_after(period, timer);
            }
            return;
        }
        match self.deviation {
            Deviation::Verbose { period, per_tick } if timer == SPAM_TIMER => {
                self.spam(ctx, period, per_tick)
            }
            _ => self.run(ctx, |inner, sub| inner.on_timer(sub, timer)),
        }
    }
    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        // An injecting deviation never originates.
        if self.deviation.injection().is_none() {
            self.run(ctx, |inner, sub| inner.on_app_broadcast(sub, payload));
        }
    }
    fn on_byzantine(&mut self, _ctx: &mut Context<'_, WireMsg>, active: bool) {
        if self.flaps {
            self.active = active;
        }
    }
}

/// Generic crash-like mute: wraps *any* protocol and suppresses every
/// transmission (receptions and deliveries still happen). Byzcast runs use
/// [`Deviation::Silent`]; this serves the baselines, whose message types
/// differ from byzcast's.
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
    use byzcast_core::message::{FindMissingMsg, RequestMsg};
    use byzcast_core::{ByzcastConfig, ProtocolCounters, ResourceStats};
    use byzcast_crypto::{CachingVerifier, KeyRegistry, SignerId, SimScheme, Verifier};
    use byzcast_sim::SimRng;

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
        drive_at(p, id, SimTime::from_secs(1), &mut SimRng::new(0), f)
    }

    fn drive_at<P: Protocol>(
        p: &mut P,
        id: u32,
        at: SimTime,
        rng: &mut SimRng,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) -> Vec<Action<P::Msg>> {
        let mut actions = Vec::new();
        f(p, &mut Context::new(NodeId(id), at, rng, &mut actions));
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
        let mut silent = ByzantineNode::new(byz(1, &reg), Deviation::Silent);
        let msg = data(&reg, 0, 1, 5);
        let actions = drive(&mut silent, 1, |p, ctx| p.on_packet(ctx, NodeId(0), &msg));
        assert!(sends(&actions).is_empty());
        // Beacons are suppressed too, but the node keeps its timers armed.
        let actions = drive(&mut silent, 1, |p, ctx| p.on_timer(ctx, TimerKey(1)));
        assert!(sends(&actions).is_empty());
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { .. })));
        // It claims nothing: the inner node's own role stands.
        assert!(!silent.claims_overlay());
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
        let mut flap = ByzantineNode::new(
            byz(1, &reg),
            Deviation::Flapping(FlapBehavior::Mute(MutePolicy::DropEverything)),
        );
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
        let mut flap = ByzantineNode::new(
            byz(1, &reg),
            Deviation::Flapping(FlapBehavior::Mute(MutePolicy::DropEverything)),
        );
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
        let mut flap = ByzantineNode::new(
            byz(1, &reg),
            Deviation::Flapping(FlapBehavior::Mute(MutePolicy::DropDataAndGossip)),
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
        let mut flap = ByzantineNode::new(inner, Deviation::Flapping(FlapBehavior::Forger));
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

    /// Asserts the actions are exactly `frames` sends followed by the
    /// re-armed `timer`, `period` after `now`.
    fn assert_tick(actions: &[Action<WireMsg>], frames: usize, timer: TimerKey, at: SimTime) {
        assert_eq!(sends(actions).len(), frames, "{actions:?}");
        assert_eq!(actions.len(), frames + 1, "{actions:?}");
        assert!(
            matches!(actions.last(), Some(Action::SetTimer { at: t, key }) if *key == timer && *t == at),
            "{actions:?}"
        );
    }

    #[test]
    fn liar_gossips_overheard_entries_without_having_messages() {
        let reg = KeyRegistry::generate(1, 4);
        let mut liar = ByzantineNode::new(byz(3, &reg), Deviation::GossipLiar);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        // Hears only the gossip, never the message.
        drive(&mut liar, 3, |p, ctx| {
            p.on_packet(
                ctx,
                NodeId(0),
                &WireMsg::Gossip(GossipMsg::of_entries(vec![m.gossip_entry()])),
            )
        });
        let actions = drive(&mut liar, 3, |p, ctx| p.on_timer(ctx, GOSSIP_TIMER));
        match sends(&actions).first() {
            Some(WireMsg::Gossip(g)) => {
                assert_eq!(g.entries.len(), 1);
                // The lied-about entry is still *valid* (originator-signed).
                assert!(g.entries[0].verify(&reg.verifier()));
            }
            other => panic!("expected gossip, got {other:?}"),
        }
        // One lying gossip, then the gossip tick re-arms.
        assert_tick(
            &actions,
            1,
            GOSSIP_TIMER,
            SimTime::from_secs(1) + LIAR_PERIOD,
        );
        // And it ignores the resulting request: nothing at all comes back.
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(3),
        };
        let actions = drive(&mut liar, 3, |p, ctx| {
            p.on_packet(ctx, NodeId(1), &WireMsg::Request(req))
        });
        assert!(actions.is_empty(), "{actions:?}");
        // Its beacons claim dominator status, signed by its own key.
        let actions = drive(&mut liar, 3, |p, ctx| p.on_timer(ctx, BEACON_TIMER));
        match sends(&actions).first() {
            Some(WireMsg::Beacon(b)) => {
                assert_eq!(b.role(), OverlayRole::Dominator);
                assert!(b.verify(&reg.verifier()));
            }
            other => panic!("expected beacon, got {other:?}"),
        }
        assert!(liar.claims_overlay());
    }

    #[test]
    fn impersonator_frames_never_verify() {
        let reg = KeyRegistry::generate(1, 4);
        let mut imp =
            ByzantineNode::new(byz(3, &reg), Deviation::Impersonator { victim: NodeId(0) });
        let actions = drive(&mut imp, 3, |p, ctx| p.on_timer(ctx, INJECT_TIMER));
        let s = sends(&actions);
        assert_eq!(s.len(), 2);
        let v = reg.verifier();
        match s[0] {
            WireMsg::Data(d) => {
                assert_eq!(d.id.origin, NodeId(0));
                assert!(!d.verify(&v));
            }
            other => panic!("unexpected {other:?}"),
        }
        match s[1] {
            WireMsg::Beacon(b) => {
                assert_eq!(b.sender(), NodeId(0));
                assert!(!b.verify(&v));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_tick(
            &actions,
            2,
            INJECT_TIMER,
            SimTime::from_secs(1) + IMPERSONATION_PERIOD,
        );
    }

    #[test]
    fn flooder_signs_unique_garbage_that_verifies() {
        let reg = KeyRegistry::generate(1, 4);
        let period = SimDuration::from_millis(100);
        let mut flooder = ByzantineNode::new(
            byz(2, &reg),
            Deviation::Flooder {
                period,
                per_tick: 3,
                payload_bytes: 64,
            },
        );
        let actions = drive(&mut flooder, 2, |p, ctx| p.on_timer(ctx, FLOOD_TIMER));
        let s = sends(&actions);
        assert_eq!(s.len(), 3);
        let v = reg.verifier();
        let mut ids = Vec::new();
        for m in &s {
            match m {
                WireMsg::Data(d) => {
                    // Properly signed by a registered key: the receiver
                    // cannot reject it cheaply.
                    assert!(d.verify(&v));
                    assert_eq!(d.id.origin, NodeId(2));
                    ids.push(d.id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        ids.dedup();
        assert_eq!(ids.len(), 3, "every flood frame is unique");
        assert_tick(&actions, 3, FLOOD_TIMER, SimTime::from_secs(1) + period);
    }

    #[test]
    fn replayer_reinjects_captured_frames_only_after_the_delay() {
        let reg = KeyRegistry::generate(1, 4);
        let mut rep = ByzantineNode::new(
            byz(3, &reg),
            Deviation::Replayer {
                delay: SimDuration::from_secs(5),
            },
        );
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 7, 9, 64);
        drive(&mut rep, 3, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        let tick = |rep: &mut ByzantineNode, secs| {
            let at = SimTime::from_secs(secs);
            drive_at(rep, 3, at, &mut SimRng::new(0), |p, ctx| {
                p.on_timer(ctx, REPLAY_TIMER)
            })
        };
        // Too early: nothing due yet.
        assert!(sends(&tick(&mut rep, 2)).is_empty());
        // After the delay the captured frame comes back, still valid.
        let actions = tick(&mut rep, 7);
        match sends(&actions).first() {
            Some(WireMsg::Data(d)) => {
                assert_eq!(d.id, m.id);
                assert!(d.verify(&reg.verifier()));
            }
            other => panic!("expected replayed data, got {other:?}"),
        }
        assert_tick(
            &actions,
            1,
            REPLAY_TIMER,
            SimTime::from_secs(7) + REPLAY_CHECK_PERIOD,
        );
        // Each capture replays once.
        assert!(sends(&tick(&mut rep, 9)).is_empty());
    }

    #[test]
    fn grinder_frames_are_unique_and_never_verify() {
        let reg = KeyRegistry::generate(1, 4);
        let period = SimDuration::from_millis(100);
        let mut grinder = ByzantineNode::new(
            byz(3, &reg),
            Deviation::SigGrinder {
                period,
                per_tick: 4,
            },
        );
        let actions = drive(&mut grinder, 3, |p, ctx| p.on_timer(ctx, GRIND_TIMER));
        let s = sends(&actions);
        assert_eq!(s.len(), 4);
        let v = reg.verifier();
        let mut ids = Vec::new();
        for m in &s {
            match m {
                WireMsg::Data(d) => {
                    assert!(!d.verify(&v), "grinder signatures must fail");
                    ids.push(d.id);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        ids.dedup();
        assert_eq!(ids.len(), 4, "unique ids defeat dedup and verdict caches");
        assert_tick(&actions, 4, GRIND_TIMER, SimTime::from_secs(1) + period);
    }

    #[test]
    fn injecting_deviations_never_start_the_inner_node() {
        let injecting = [
            Deviation::GossipLiar,
            Deviation::Impersonator { victim: NodeId(0) },
            Deviation::Flooder {
                period: SimDuration::from_millis(100),
                per_tick: 3,
                payload_bytes: 64,
            },
            Deviation::Replayer {
                delay: SimDuration::from_millis(1),
            },
            Deviation::SigGrinder {
                period: SimDuration::from_millis(100),
                per_tick: 4,
            },
        ];
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 1, 5, 64);
        let packets = [
            WireMsg::data(m),
            WireMsg::Gossip(GossipMsg::of_entries(vec![m.gossip_entry()])),
            WireMsg::Request(RequestMsg {
                entry: m.gossip_entry(),
                target: NodeId(3),
            }),
            WireMsg::FindMissing(FindMissingMsg {
                entry: m.gossip_entry(),
                target: NodeId(3),
                ttl: 2,
            }),
        ];
        for deviation in injecting {
            // The inner node shares a caching verifier with the run, as in
            // a scenario; verifying anything would move its counters.
            let cache = Arc::new(CachingVerifier::new(reg.verifier(), 64));
            let verifier: Arc<dyn Verifier + Send + Sync> = cache.clone();
            let inner = ByzcastNode::new(
                NodeId(3),
                ByzcastConfig::default(),
                Box::new(reg.signer(SignerId(3))),
                verifier,
            );
            let (_, timers) = deviation.injection().expect("an injecting deviation");
            let mut node = ByzantineNode::new(inner, deviation.clone());
            let before = cache.cache_stats();
            let mut rng = SimRng::new(9);
            let started = drive_at(&mut node, 3, SimTime::from_secs(1), &mut rng, |p, ctx| {
                p.on_start(ctx)
            });
            let armed: Vec<TimerKey> = started
                .iter()
                .filter_map(|a| match a {
                    Action::SetTimer { key, .. } => Some(*key),
                    _ => None,
                })
                .collect();
            assert_eq!(armed, timers, "{deviation:?} armed other timers");
            // The ticks come well after the packets, so the replayer's
            // capture is due.
            for (k, packet) in packets.iter().enumerate() {
                let at = SimTime::from_secs(2 + k as u64);
                drive_at(&mut node, 3, at, &mut rng, |p, ctx| {
                    p.on_packet(ctx, NodeId(0), packet)
                });
            }
            for &timer in timers {
                let at = SimTime::from_secs(10);
                drive_at(&mut node, 3, at, &mut rng, |p, ctx| p.on_timer(ctx, timer));
            }
            let payload = AppPayload {
                id: 7,
                size_bytes: 10,
            };
            drive_at(&mut node, 3, SimTime::from_secs(11), &mut rng, |p, ctx| {
                p.on_app_broadcast(ctx, payload)
            });
            let inner = node.inner();
            assert_eq!(
                *inner.counters(),
                ProtocolCounters::default(),
                "{deviation:?}"
            );
            assert_eq!(
                inner.resource_stats(),
                ResourceStats::default(),
                "{deviation:?}"
            );
            assert!(inner.store().is_empty(), "{deviation:?}");
            assert_eq!(inner.role(), OverlayRole::Passive, "{deviation:?}");
            assert_eq!(
                cache.cache_stats(),
                before,
                "{deviation:?} touched the verifier"
            );
            assert_eq!(rng, SimRng::new(9), "{deviation:?} drew from the node RNG");
            // Dormant, yet counted as an overlay member.
            assert!(node.claims_overlay(), "{deviation:?}");
        }
    }
}
