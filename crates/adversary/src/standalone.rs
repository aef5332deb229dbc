//! Standalone Byzantine protocols (not wrapping a correct node).

use std::collections::BTreeMap;
use std::sync::Arc;

use byzcast_core::message::{BeaconMsg, DataMsg, GossipEntry, GossipMsg, MessageId, WireMsg};
use byzcast_crypto::{Signature, Signer};
use byzcast_overlay::OverlayRole;
use byzcast_sim::{AppPayload, Context, NodeId, Protocol, SimDuration, SimTime, TimerKey};

const GOSSIP_TIMER: TimerKey = TimerKey(0x6_0001);
const BEACON_TIMER: TimerKey = TimerKey(0x6_0002);
const INJECT_TIMER: TimerKey = TimerKey(0x6_0003);
const FLOOD_TIMER: TimerKey = TimerKey(0x6_0004);
const REPLAY_TIMER: TimerKey = TimerKey(0x6_0005);
const GRIND_TIMER: TimerKey = TimerKey(0x6_0006);

/// The gossip liar: re-gossips (valid, overheard) entries for messages it
/// does not hold and never answers the resulting requests.
///
/// §3.2.2: a node "only gossips about messages it has already received" —
/// the liar violates exactly this, and "if q gossips about messages that do
/// not exist or q does not want to supply them, it will be suspected" (the
/// MUTE expectation registered at line 28 fires).
pub struct GossipLiarNode {
    signer: Box<dyn Signer + Send>,
    gossip_period: SimDuration,
    /// Valid entries overheard from others (it cannot forge new ones).
    overheard: BTreeMap<MessageId, GossipEntry>,
    /// Lying gossip packets sent (diagnostic).
    pub lies_sent: u64,
    /// Requests it pointedly ignored (diagnostic).
    pub requests_ignored: u64,
}

impl GossipLiarNode {
    /// Creates a liar gossiping every `gossip_period`.
    pub fn new(signer: Box<dyn Signer + Send>, gossip_period: SimDuration) -> Self {
        GossipLiarNode {
            signer,
            gossip_period,
            overheard: BTreeMap::new(),
            lies_sent: 0,
            requests_ignored: 0,
        }
    }
}

impl Protocol for GossipLiarNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.gossip_period, GOSSIP_TIMER);
        ctx.set_timer_after(self.gossip_period, BEACON_TIMER);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, _from: NodeId, msg: &WireMsg) {
        match msg {
            // Collect entries to lie about — from gossips AND data messages
            // (whose bodies it deliberately does not retain).
            WireMsg::Gossip(g) => {
                for e in &g.entries {
                    self.overheard.insert(e.id, *e);
                }
            }
            WireMsg::Data(m) => {
                self.overheard.insert(m.id, m.gossip_entry());
                ctx.deliver(m.id.origin, m.payload_id); // it still reads them
            }
            WireMsg::Request(_) | WireMsg::FindMissing(_) => {
                self.requests_ignored += 1; // never supplies anything
            }
            WireMsg::Beacon(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        match timer {
            GOSSIP_TIMER => {
                let entries: Vec<GossipEntry> = self.overheard.values().copied().take(40).collect();
                if !entries.is_empty() {
                    ctx.send(WireMsg::Gossip(GossipMsg::of_entries(entries)));
                    self.lies_sent += 1;
                }
                ctx.set_timer_after(self.gossip_period, GOSSIP_TIMER);
            }
            BEACON_TIMER => {
                // Claim to be a dominator with no neighbours to report.
                ctx.send(WireMsg::Beacon(BeaconMsg::sign(
                    self.signer.as_ref(),
                    OverlayRole::Dominator,
                    vec![],
                    vec![],
                    vec![],
                )));
                ctx.set_timer_after(self.gossip_period, BEACON_TIMER);
            }
            _ => {}
        }
    }

    fn on_app_broadcast(&mut self, _ctx: &mut Context<'_, WireMsg>, _payload: AppPayload) {
        // The liar never originates (it would have to supply those).
    }
}

/// The impersonator: periodically injects data messages claiming other
/// originators (with garbage signatures, since it cannot forge) and beacons
/// naming other senders. All of it is rejected by receivers; the interesting
/// measurement is that it achieves nothing but getting itself suspected.
pub struct ImpersonatorNode {
    me: NodeId,
    victim: NodeId,
    inject_period: SimDuration,
    seq: u64,
    /// Forged frames injected (diagnostic).
    pub injected: u64,
}

impl ImpersonatorNode {
    /// Creates an impersonator framing `victim` every `inject_period`.
    pub fn new(me: NodeId, victim: NodeId, inject_period: SimDuration) -> Self {
        ImpersonatorNode {
            me,
            victim,
            inject_period,
            seq: 0,
            injected: 0,
        }
    }
}

impl Protocol for ImpersonatorNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.inject_period, INJECT_TIMER);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_, WireMsg>, _from: NodeId, _msg: &WireMsg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if timer != INJECT_TIMER {
            return;
        }
        self.seq += 1;
        // A data message "from" the victim with an unforgeable — therefore
        // absent — signature.
        let forged = DataMsg {
            id: crate::standalone::MessageId::new(self.victim, 1_000_000 + self.seq),
            payload_id: 0xBAD0 + self.seq,
            payload_len: 64,
            msg_sig: Signature::zero(),
            id_sig: Signature::zero(),
            ttl: 1,
        };
        ctx.send(WireMsg::data(forged));
        // A beacon claiming to be the victim.
        let fake_beacon = BeaconMsg::from_parts(
            self.victim,
            OverlayRole::Dominator,
            true,
            vec![self.me],
            vec![],
            vec![],
            Signature::zero(),
        );
        ctx.send(WireMsg::Beacon(fake_beacon));
        self.injected += 2;
        ctx.set_timer_after(self.inject_period, INJECT_TIMER);
    }

    fn on_app_broadcast(&mut self, _ctx: &mut Context<'_, WireMsg>, _payload: AppPayload) {}
}

/// The flooder: a *registered* node (its signatures verify) that injects
/// unique signed garbage messages at a configurable rate. Every frame passes
/// both originator-signature checks, so an ungoverned receiver buffers each
/// body until the purge horizon and gossips about it — memory and bandwidth
/// grow linearly with the attack rate, the "most adverse impact" exhaustion
/// class the resource-governance envelope is built to stop.
pub struct FlooderNode {
    signer: Box<dyn Signer + Send>,
    flood_period: SimDuration,
    per_tick: u32,
    payload_len: u32,
    seq: u64,
    /// Garbage messages injected (diagnostic).
    pub flooded: u64,
}

impl FlooderNode {
    /// Creates a flooder sending `per_tick` unique signed messages of
    /// `payload_len` bytes every `flood_period`.
    pub fn new(
        signer: Box<dyn Signer + Send>,
        flood_period: SimDuration,
        per_tick: u32,
        payload_len: u32,
    ) -> Self {
        FlooderNode {
            signer,
            flood_period,
            per_tick,
            payload_len,
            seq: 0,
            flooded: 0,
        }
    }
}

impl Protocol for FlooderNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.flood_period, FLOOD_TIMER);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_, WireMsg>, _from: NodeId, _msg: &WireMsg) {
        // Pure source: it ignores the network entirely.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if timer != FLOOD_TIMER {
            return;
        }
        for _ in 0..self.per_tick {
            self.seq += 1;
            // Unique ids and payloads: dedup and verification caches never
            // short-circuit the cost.
            let m = DataMsg::sign(
                self.signer.as_ref(),
                self.seq,
                0xF100_0000 + self.seq,
                self.payload_len,
            );
            ctx.send(WireMsg::data(m));
            self.flooded += 1;
        }
        ctx.set_timer_after(self.flood_period, FLOOD_TIMER);
    }

    fn on_app_broadcast(&mut self, _ctx: &mut Context<'_, WireMsg>, _payload: AppPayload) {}
}

/// The replayer: captures valid data messages off the air and re-injects
/// them unchanged after `replay_delay`. The frames are perfectly signed —
/// the only defence is the receiver's seen-id memory, so a store that
/// expires seen-ids after its `seen_hold` horizon re-delivers the replay as
/// a fresh message (a no-duplication violation).
pub struct ReplayerNode {
    replay_delay: SimDuration,
    check_period: SimDuration,
    /// Captured messages by id, with capture time; replayed once each.
    captured: BTreeMap<MessageId, (Arc<DataMsg>, SimTime)>,
    /// Old frames re-injected (diagnostic).
    pub replayed: u64,
}

impl ReplayerNode {
    /// Creates a replayer re-injecting each overheard message once,
    /// `replay_delay` after capturing it (checked every `check_period`).
    pub fn new(replay_delay: SimDuration, check_period: SimDuration) -> Self {
        ReplayerNode {
            replay_delay,
            check_period,
            captured: BTreeMap::new(),
            replayed: 0,
        }
    }
}

impl Protocol for ReplayerNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.check_period, REPLAY_TIMER);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, _from: NodeId, msg: &WireMsg) {
        if let WireMsg::Data(m) = msg {
            let now = ctx.now();
            self.captured
                .entry(m.id)
                .or_insert_with(|| (DataMsg::share_with_ttl(m, 1), now));
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if timer != REPLAY_TIMER {
            return;
        }
        let now = ctx.now();
        let due: Vec<MessageId> = self
            .captured
            .iter()
            .filter(|(_, (_, at))| now.saturating_since(*at) >= self.replay_delay)
            .map(|(&id, _)| id)
            .collect();
        for id in due {
            let (m, _) = self.captured.remove(&id).expect("just listed");
            ctx.send(WireMsg::Data(m));
            self.replayed += 1;
        }
        ctx.set_timer_after(self.check_period, REPLAY_TIMER);
    }

    fn on_app_broadcast(&mut self, _ctx: &mut Context<'_, WireMsg>, _payload: AppPayload) {}
}

/// The signature grinder: valid-*looking* data frames with garbage
/// signatures, each with a unique id and payload so neither seen-id dedup
/// nor the verification cache short-circuits — every frame costs the
/// receiver a full (failing) signature verification. Pure CPU exhaustion:
/// nothing is ever stored, but an ungoverned verifier burns cycles linearly
/// with the grind rate.
pub struct SigGrinderNode {
    me: NodeId,
    grind_period: SimDuration,
    per_tick: u32,
    seq: u64,
    /// Ill-signed frames injected (diagnostic).
    pub ground: u64,
}

impl SigGrinderNode {
    /// Creates a grinder sending `per_tick` ill-signed frames every
    /// `grind_period`.
    pub fn new(me: NodeId, grind_period: SimDuration, per_tick: u32) -> Self {
        SigGrinderNode {
            me,
            grind_period,
            per_tick,
            seq: 0,
            ground: 0,
        }
    }
}

impl Protocol for SigGrinderNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        ctx.set_timer_after(self.grind_period, GRIND_TIMER);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_, WireMsg>, _from: NodeId, _msg: &WireMsg) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        if timer != GRIND_TIMER {
            return;
        }
        for _ in 0..self.per_tick {
            self.seq += 1;
            // Honest origin, unforgeable — therefore absent — signatures:
            // the receiver must run the verifier to find out.
            let m = DataMsg {
                id: MessageId::new(self.me, self.seq),
                payload_id: 0x51_6000_0000 + self.seq,
                payload_len: 256,
                msg_sig: Signature::zero(),
                id_sig: Signature::zero(),
                ttl: 1,
            };
            ctx.send(WireMsg::data(m));
            self.ground += 1;
        }
        ctx.set_timer_after(self.grind_period, GRIND_TIMER);
    }

    fn on_app_broadcast(&mut self, _ctx: &mut Context<'_, WireMsg>, _payload: AppPayload) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
    use byzcast_sim::node::Action;
    use byzcast_sim::{SimRng, SimTime};

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

    fn sends(actions: &[Action<WireMsg>]) -> Vec<&WireMsg> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn liar_gossips_overheard_entries_without_having_messages() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let mut liar = GossipLiarNode::new(
            Box::new(reg.signer(SignerId(3))),
            SimDuration::from_millis(500),
        );
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
        assert_eq!(liar.lies_sent, 1);
        // And it ignores the resulting request.
        let req = byzcast_core::message::RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(3),
        };
        let actions = drive(&mut liar, 3, |p, ctx| {
            p.on_packet(ctx, NodeId(1), &WireMsg::Request(req))
        });
        assert!(sends(&actions).is_empty());
        assert_eq!(liar.requests_ignored, 1);
    }

    #[test]
    fn impersonator_frames_never_verify() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let mut imp = ImpersonatorNode::new(NodeId(3), NodeId(0), SimDuration::from_secs(1));
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
        assert_eq!(imp.injected, 2);
    }

    fn drive_at<P: Protocol>(
        p: &mut P,
        id: u32,
        at: SimTime,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) -> Vec<Action<P::Msg>> {
        let mut rng = SimRng::new(0);
        let mut actions = Vec::new();
        {
            let mut ctx = Context::new(NodeId(id), at, &mut rng, &mut actions);
            f(p, &mut ctx);
        }
        actions
    }

    #[test]
    fn flooder_signs_unique_garbage_that_verifies() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let mut flooder = FlooderNode::new(
            Box::new(reg.signer(SignerId(2))),
            SimDuration::from_millis(100),
            3,
            64,
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
        assert_eq!(flooder.flooded, 3);
    }

    #[test]
    fn replayer_reinjects_captured_frames_only_after_the_delay() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let mut rep = ReplayerNode::new(SimDuration::from_secs(5), SimDuration::from_millis(500));
        let m = DataMsg::sign(&reg.signer(SignerId(0)), 7, 9, 64);
        drive(&mut rep, 3, |p, ctx| {
            p.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        // Too early: nothing due yet.
        let actions = drive_at(&mut rep, 3, SimTime::from_secs(2), |p, ctx| {
            p.on_timer(ctx, REPLAY_TIMER)
        });
        assert!(sends(&actions).is_empty());
        // After the delay the captured frame comes back, still valid.
        let actions = drive_at(&mut rep, 3, SimTime::from_secs(7), |p, ctx| {
            p.on_timer(ctx, REPLAY_TIMER)
        });
        match sends(&actions).first() {
            Some(WireMsg::Data(d)) => {
                assert_eq!(d.id, m.id);
                assert!(d.verify(&reg.verifier()));
            }
            other => panic!("expected replayed data, got {other:?}"),
        }
        assert_eq!(rep.replayed, 1);
        // Each capture replays once.
        let actions = drive_at(&mut rep, 3, SimTime::from_secs(9), |p, ctx| {
            p.on_timer(ctx, REPLAY_TIMER)
        });
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn grinder_frames_are_unique_and_never_verify() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 4);
        let mut grinder = SigGrinderNode::new(NodeId(3), SimDuration::from_millis(100), 4);
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
        assert_eq!(grinder.ground, 4);
    }
}
