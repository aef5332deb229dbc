//! # byzcast-adversary — Byzantine behaviour models
//!
//! The paper's fault model (§2.1): "Byzantine processes may fail to send
//! messages, send too many messages, send messages with false information, or
//! send messages with different data to different nodes" — but "a node cannot
//! impersonate another node", thanks to signatures.
//!
//! Every such behaviour is one [`Deviation`] of a single [`ByzantineNode`]
//! built over a correct `ByzcastNode`. The *relaying* deviations run the
//! inner node and perturb its outgoing actions (the strongest adversaries:
//! they speak the protocol perfectly except for the deviation):
//!
//! * silent (drops every frame, claims nothing), mute (never forwards data,
//!   optionally never gossips, while *claiming to be an overlay dominator*
//!   so correct neighbours defer to it — the failure mode the paper's
//!   evaluation focuses on), forger (tampers with relayed payloads;
//!   signatures catch it), censor (forwards everything except messages from
//!   victim originators), verbose (floods duplicate `REQUEST_MSG`s for
//!   messages it already has) and sabotage (a broken delivery layer —
//!   duplicate, phantom or dropped deliveries — that proves the chaos
//!   oracles catch real protocol bugs). Built with
//!   [`ByzantineNode::flapping`], a node is correct until the fault plan's
//!   `SetByzantine` windows switch a mute or forging [`FlapBehavior`] on and
//!   off: the hardest case for the MUTE/TRUST detectors.
//!
//! The *injecting* deviations never start the inner node and send frames of
//! their own on their own timers; they always claim overlay membership:
//!
//! * gossip liar — gossips about messages it never supplies, the behaviour
//!   §3.2.2 calls out: "If q gossips about messages that do not exist or q
//!   does not want to supply them, it will be suspected."
//! * impersonator — injects data messages with forged originators and
//!   unsigned beacons; pure noise once signatures are checked.
//! * flooder — injects unique *validly signed* garbage at a configurable
//!   rate; pure memory/bandwidth exhaustion that only resource-bounded
//!   admission can stop.
//! * replayer — captures valid frames and re-injects them unchanged after a
//!   delay, probing the receiver's seen-id memory horizon.
//! * signature grinder — unique valid-looking frames with garbage
//!   signatures; every one costs the receiver a full failing verification
//!   (CPU exhaustion).
//!
//! [`SilentNode`] drops every transmission of any wrapped protocol; it
//! serves the baselines, whose message types differ from byzcast's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wrappers;

pub use wrappers::{
    AlwaysDominator, ByzantineNode, Deviation, FlapBehavior, MutePolicy, SabotageKind, SilentNode,
};

use byzcast_sim::node::Action;
use byzcast_sim::{Context, Message};

/// Runs `f` against a sub-context and returns the actions it produced,
/// letting a wrapper inspect/filter/rewrite them before re-emitting.
pub fn capture<M: Message, R>(
    ctx: &mut Context<'_, M>,
    f: impl FnOnce(&mut Context<'_, M>) -> R,
) -> (R, Vec<Action<M>>) {
    let node = ctx.node_id();
    let now = ctx.now();
    let mut actions = Vec::new();
    let r = {
        let mut sub = Context::new(node, now, ctx.rng(), &mut actions);
        f(&mut sub)
    };
    (r, actions)
}

/// Re-emits a captured action into the real context.
pub fn emit<M: Message>(ctx: &mut Context<'_, M>, action: Action<M>) {
    match action {
        Action::Send(m) => ctx.send(m),
        Action::SetTimer { at, key } => ctx.set_timer_at(at, key),
        Action::CancelTimer(key) => ctx.cancel_timer(key),
        Action::Deliver { origin, payload_id } => ctx.deliver(origin, payload_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_sim::{NodeId, SimRng, SimTime};

    #[derive(Clone, Debug, PartialEq)]
    struct M(u32);
    impl Message for M {
        fn wire_size(&self) -> usize {
            4
        }
        fn kind(&self) -> &'static str {
            "m"
        }
    }

    #[test]
    fn capture_and_emit_round_trip() {
        let mut rng = SimRng::new(0);
        let mut outer: Vec<Action<M>> = Vec::new();
        let mut ctx = Context::new(NodeId(1), SimTime::from_secs(1), &mut rng, &mut outer);
        let ((), captured) = capture(&mut ctx, |sub| {
            sub.send(M(1));
            sub.deliver(NodeId(2), 9);
        });
        assert_eq!(captured.len(), 2);
        // Re-emit only the delivery.
        for a in captured {
            if matches!(a, Action::Deliver { .. }) {
                emit(&mut ctx, a);
            }
        }
        let _ = ctx;
        assert_eq!(outer.len(), 1);
        assert!(matches!(outer[0], Action::Deliver { .. }));
    }
}
