//! Property-based tests for the message store and wire format.

use std::sync::Arc;

use proptest::prelude::*;

use byzcast_core::message::{DataMsg, GossipMsg, WireMsg};
use byzcast_core::MessageStore;
use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
use byzcast_sim::{Message, NodeId, SimDuration, SimTime};

fn msg(reg: &KeyRegistry<SimScheme>, origin: u32, seq: u64, len: u32) -> DataMsg {
    DataMsg::sign(&reg.signer(SignerId(origin)), seq, seq, len)
}

fn store_invariants_case(ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let hold = SimDuration::from_secs(10);
    let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(5, 4);
    let mut store = MessageStore::new(hold);
    let mut clock = SimTime::ZERO;
    // seq → when it was last accepted as new. Re-acceptance is only
    // legitimate once the seen-window (4 × hold) has fully expired.
    let mut last_new: std::collections::BTreeMap<u64, SimTime> = Default::default();
    for &(op, seq, dt) in ops {
        clock += SimDuration::from_secs(dt);
        match op {
            0 | 1 => {
                let m = msg(&reg, 0, seq, 64);
                let newly = store.insert(clock, Arc::new(m));
                if newly {
                    if let Some(&prev) = last_new.get(&seq) {
                        prop_assert!(
                            clock.saturating_since(prev) > hold.saturating_mul(4),
                            "id {seq} re-accepted inside the dedup window"
                        );
                    }
                    last_new.insert(seq, clock);
                }
                prop_assert!(store.seen(m.id));
            }
            _ => store.purge(clock),
        }
        prop_assert!(store.len() <= store.high_water());
        for id in store.ids() {
            prop_assert!(store.seen(id), "{id:?} held but not seen");
        }
    }
    Ok(())
}

/// The shrunk schedule recorded in `properties.proptest-regressions`:
/// insert seq 26, insert seq 0 at t+20, purge at t+41, re-insert seq 26.
/// The re-insert lands right at the seen-window boundary (41 s vs the
/// 4×10 s window), so it pins the off-by-one behaviour of the dedup map.
#[test]
fn regression_store_reinsert_at_seen_window_boundary() {
    store_invariants_case(&[(0, 26, 0), (0, 0, 20), (2, 0, 21), (0, 26, 0)]).unwrap();
}

proptest! {
    /// Store invariants across arbitrary insert/purge schedules:
    /// * an id is `has` only if `seen`;
    /// * `len` never exceeds `high_water`;
    /// * re-inserting a seen id is never "new".
    #[test]
    fn store_invariants_hold_under_any_schedule(
        ops in proptest::collection::vec((0u8..3, 0u64..30, 0u64..60), 1..80),
    ) {
        store_invariants_case(&ops)?;
    }

    /// Wire sizes: a gossip packet is always smaller than the data messages
    /// it announces (the protocol's core economics), and sizes are additive
    /// in the entry count.
    #[test]
    fn gossip_packets_are_cheaper_than_their_messages(
        lens in proptest::collection::vec(64u32..2048, 1..40),
    ) {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(6, 2);
        let msgs: Vec<DataMsg> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| msg(&reg, 0, i as u64 + 1, len))
            .collect();
        let entries = msgs.iter().map(|m| m.gossip_entry()).collect::<Vec<_>>();
        let packet = WireMsg::Gossip(GossipMsg::of_entries(entries));
        let data_total: usize = msgs.iter().map(|m| WireMsg::data(*m).wire_size()).sum();
        prop_assert!(packet.wire_size() < data_total);
        // Additivity.
        let one = WireMsg::Gossip(GossipMsg::of_entries(vec![msgs[0].gossip_entry()]));
        prop_assert_eq!(
            packet.wire_size() - 3,           // strip the fixed packet header
            (one.wire_size() - 3) * lens.len()
        );
    }

    /// Signatures are unique per (origin, seq, payload): two distinct
    /// messages never share a signature (collision would forge).
    #[test]
    fn distinct_messages_have_distinct_signatures(
        s1 in 1u64..1000, s2 in 1u64..1000, origin in 0u32..4,
    ) {
        prop_assume!(s1 != s2);
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(7, 4);
        let a = msg(&reg, origin, s1, 64);
        let b = msg(&reg, origin, s2, 64);
        prop_assert_ne!(a.msg_sig, b.msg_sig);
        prop_assert_ne!(a.id_sig, b.id_sig);
    }

    /// The seen-window outlives the body window: within 4× the hold time a
    /// purged message can never be re-accepted.
    #[test]
    fn purged_messages_stay_deduplicated(hold_s in 1u64..20, gap_s in 0u64..60) {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(8, 2);
        let mut store = MessageStore::new(SimDuration::from_secs(hold_s));
        let m = msg(&reg, 0, 1, 64);
        let t0 = SimTime::from_secs(1);
        prop_assert!(store.insert(t0, Arc::new(m)));
        let later = t0 + SimDuration::from_secs(gap_s);
        store.purge(later);
        if gap_s <= 4 * hold_s {
            prop_assert!(!store.insert(later, Arc::new(m)), "dedup window broken");
        }
        let _ = NodeId(0);
    }
}
