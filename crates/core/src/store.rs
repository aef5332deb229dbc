//! The received-message buffer with timeout-based purging.
//!
//! "Messages can be purged either after a timeout, or by using a stability
//! detection mechanism. In this work, we have chosen to use timeout based
//! purging due to its simplicity." (paper §3.2.2)
//!
//! §3.5 bounds the buffer a node needs: `max_timeout · δ` messages in a
//! static network and `max_timeout · (n − 1) · δ` in a mobile one (δ = new
//! messages injected per second). The store tracks its own high-water mark so
//! experiment T1 can compare occupancy against that bound.
//!
//! # Caps and eviction
//!
//! That bound assumes correct senders; a Byzantine flooder of unique signed
//! messages fills the buffer linearly until the purge horizon. The store
//! therefore accepts hard count and byte caps ([`MessageStore::with_limits`],
//! `0` = unlimited, the default):
//!
//! * **Bodies** are governed drop-newest: when a cap is hit, the *incoming*
//!   body is rejected (its seen-id is still recorded and the message still
//!   delivered once). Established bodies stay servable for recovery, and a
//!   flood burst — always the newest traffic — pays its own cost.
//! * **Seen-ids** are retained past the body purge horizon so a replayed
//!   old-but-valid message is never delivered twice (every seen-id is a
//!   delivered id). The cap evicts oldest-first: the oldest ids are exactly
//!   the ones an age-based policy would have dropped, so memory pressure
//!   degrades toward age-based retention, never past it for recent traffic.
//!
//! # Memory
//!
//! A stored body is the network's one shared allocation of it (an
//! `Arc<DataMsg>`, see [`crate::message`]), so a buffered (node, message)
//! pair costs an index entry and a pointer, not a copy of the signatures.
//! The indexes, and when each exists:
//!
//! * `messages` — id → [`StoredMsg`], one entry per buffered body;
//! * `seen` — every retained seen-id, always;
//! * `seen_by_time` — `(time, id)` order over `seen`, filled only when a
//!   seen-id cap is set, since only cap eviction reads it.
//!
//! # Advertisement
//!
//! Each body also carries its gossip advertisement slot: how many lazycast
//! rounds it has left. Purging a body drops its slot with it, and a
//! per-origin count of slots keeps the per-origin gossip quota O(1).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::message::{DataMsg, GossipEntry, MessageId};

/// A stored message with its reception time and advertisement slot.
#[derive(Clone, Debug)]
pub struct StoredMsg {
    /// The shared message body (TTL normalized to 1; TTLs are hop counters,
    /// not state).
    pub msg: Arc<DataMsg>,
    /// When this node first received (or originated) it.
    pub received_at: SimTime,
    /// Gossip rounds left to advertise it: `None` = no slot, `Some(0)` =
    /// window closed. A closed slot stays until the body is purged, so a
    /// neighbour's echo cannot restart the advertising.
    advert: Option<u32>,
}

/// What [`MessageStore::advertise`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Advertise {
    /// No body is buffered under the id.
    NoBody,
    /// The body already has a slot (open or closed); it is left as is.
    Held,
    /// The origin's quota of slots is full; no slot was opened.
    OverQuota,
    /// A slot was opened.
    Armed,
}

/// The per-node message buffer.
///
/// ```
/// use std::sync::Arc;
/// use byzcast_core::{MessageStore, message::DataMsg};
/// use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
/// use byzcast_sim::{SimDuration, SimTime};
///
/// let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 1);
/// let m = Arc::new(DataMsg::sign(&keys.signer(SignerId(0)), 1, 42, 128));
/// let mut store = MessageStore::new(SimDuration::from_secs(10));
/// assert!(store.insert(SimTime::from_secs(1), Arc::clone(&m)));   // first reception
/// assert!(!store.insert(SimTime::from_secs(2), Arc::clone(&m)));  // duplicate
/// assert!(Arc::ptr_eq(&store.get(m.id).unwrap().msg, &m));       // shared, not copied
/// store.purge(SimTime::from_secs(20));
/// assert!(!store.has(m.id));  // body purged…
/// assert!(store.seen(m.id));  // …but still deduplicated
/// ```
#[derive(Debug)]
pub struct MessageStore {
    hold_for: SimDuration,
    messages: BTreeMap<MessageId, StoredMsg>,
    /// Ids of messages already seen (all of them delivered), retained past
    /// body purging so a purged message re-received late — or replayed by an
    /// adversary — is never delivered twice. Bounded by `max_seen` only.
    seen: BTreeSet<MessageId>,
    /// Reception-order index over `seen`, for oldest-first cap eviction;
    /// empty unless `max_seen` is set.
    seen_by_time: BTreeSet<(SimTime, MessageId)>,
    /// Cap on buffered bodies (count); `0` = unlimited.
    max_msgs: usize,
    /// Cap on buffered bodies (total wire bytes); `0` = unlimited.
    max_bytes: usize,
    /// Cap on retained seen-ids; `0` = unlimited.
    max_seen: usize,
    /// Total wire bytes of the buffered bodies.
    bytes: usize,
    /// Bodies with an advertisement slot, per origin (zero counts removed).
    advertised_by: BTreeMap<NodeId, usize>,
    /// Bodies with an advertisement slot.
    advertised: usize,
    /// Round-robin position of the next lazycast round.
    gossip_cursor: usize,
    high_water: usize,
    peak_bytes: usize,
    peak_seen: usize,
    peak_advertised: usize,
    body_rejects: u64,
    seen_evictions: u64,
}

impl MessageStore {
    /// Creates an uncapped store that purges message bodies after
    /// `hold_for`.
    pub fn new(hold_for: SimDuration) -> Self {
        Self::with_limits(hold_for, 0, 0, 0)
    }

    /// Creates a store with hard caps: at most `max_msgs` bodies totalling at
    /// most `max_bytes` wire bytes, and at most `max_seen` retained seen-ids
    /// (`0` = unlimited for each).
    pub fn with_limits(
        hold_for: SimDuration,
        max_msgs: usize,
        max_bytes: usize,
        max_seen: usize,
    ) -> Self {
        MessageStore {
            hold_for,
            messages: BTreeMap::new(),
            seen: BTreeSet::new(),
            seen_by_time: BTreeSet::new(),
            max_msgs,
            max_bytes,
            max_seen,
            bytes: 0,
            advertised_by: BTreeMap::new(),
            advertised: 0,
            gossip_cursor: 0,
            high_water: 0,
            peak_bytes: 0,
            peak_seen: 0,
            peak_advertised: 0,
            body_rejects: 0,
            seen_evictions: 0,
        }
    }

    /// Whether the message body is currently buffered.
    pub fn has(&self, id: MessageId) -> bool {
        self.messages.contains_key(&id)
    }

    /// Whether the message has ever been seen (even if since purged).
    pub fn seen(&self, id: MessageId) -> bool {
        self.seen.contains(&id)
    }

    /// Inserts a message received at `now`. Returns `true` if it is new
    /// (first reception → deliver/forward), `false` on duplicates. Under a
    /// count/byte cap the body of a new message may be rejected (drop-newest;
    /// check [`MessageStore::has`]) while the id is still recorded as seen.
    /// The store keeps `msg` itself, or a TTL-1 copy when its TTL differs.
    pub fn insert(&mut self, now: SimTime, msg: Arc<DataMsg>) -> bool {
        let id = msg.id;
        if self.seen.contains(&id) {
            return false;
        }
        self.record_seen(now, id);
        // A body can outlive its seen-id under the seen-id cap. Its
        // re-reception counts as new, and so does its advertisement. The new
        // body replaces the held one, so the caps are checked without it.
        let mut held = None;
        if let Some(s) = self.messages.get_mut(&id) {
            held = Some(s.msg.wire_size());
            if s.advert.take().is_some() {
                self.release_slot(id.origin);
            }
        }
        let held_bytes = held.unwrap_or(0);
        let size = msg.wire_size();
        let others = self.messages.len() - usize::from(held.is_some());
        let over_count = self.max_msgs != 0 && others >= self.max_msgs;
        let over_bytes = self.max_bytes != 0 && self.bytes - held_bytes + size > self.max_bytes;
        if over_count || over_bytes {
            self.body_rejects += 1;
            return true;
        }
        self.messages.insert(
            id,
            StoredMsg {
                msg: DataMsg::share_with_ttl(&msg, 1),
                received_at: now,
                advert: None,
            },
        );
        self.bytes = self.bytes - held_bytes + size;
        self.high_water = self.high_water.max(self.messages.len());
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        true
    }

    fn record_seen(&mut self, now: SimTime, id: MessageId) {
        if self.max_seen != 0 {
            if self.seen.len() >= self.max_seen {
                if let Some((_, oldest)) = self.seen_by_time.pop_first() {
                    self.seen.remove(&oldest);
                    self.seen_evictions += 1;
                }
            }
            self.seen_by_time.insert((now, id));
        }
        self.seen.insert(id);
        self.peak_seen = self.peak_seen.max(self.seen.len());
    }

    /// The buffered message body, if present.
    pub fn get(&self, id: MessageId) -> Option<&StoredMsg> {
        self.messages.get(&id)
    }

    /// Purges expired bodies, and their advertisement slots with them.
    /// Seen-ids are retained (bounded by the seen-id cap, oldest evicted
    /// first) so late replays stay deduplicated.
    pub fn purge(&mut self, now: SimTime) {
        let hold = self.hold_for;
        let mut freed = 0usize;
        let mut released = Vec::new();
        self.messages.retain(|id, s| {
            let keep = now.saturating_since(s.received_at) <= hold;
            if !keep {
                freed += s.msg.wire_size();
                if s.advert.is_some() {
                    released.push(id.origin);
                }
            }
            keep
        });
        self.bytes -= freed;
        for origin in released {
            self.release_slot(origin);
        }
    }

    /// Opens an advertisement slot of `rounds` lazycast rounds for the body
    /// of `id`, unless there is no body, it already has a slot, or its
    /// origin holds `quota` slots already (`0` = unlimited).
    pub(crate) fn advertise(&mut self, id: MessageId, rounds: u32, quota: usize) -> Advertise {
        let Some(s) = self.messages.get_mut(&id) else {
            return Advertise::NoBody;
        };
        if s.advert.is_some() {
            return Advertise::Held;
        }
        let count = self.advertised_by.entry(id.origin).or_insert(0);
        if quota != 0 && *count >= quota {
            return Advertise::OverQuota;
        }
        *count += 1;
        s.advert = Some(rounds);
        self.advertised += 1;
        self.peak_advertised = self.peak_advertised.max(self.advertised);
        Advertise::Armed
    }

    fn release_slot(&mut self, origin: NodeId) {
        self.advertised -= 1;
        if let Some(count) = self.advertised_by.get_mut(&origin) {
            *count -= 1;
            if *count == 0 {
                self.advertised_by.remove(&origin);
            }
        }
    }

    /// One lazycast round: the gossip entries of up to `cap` bodies whose
    /// advertisement window is open, taken round-robin over the open set so
    /// large sets all get airtime. Each advertised body uses up one round.
    pub(crate) fn gossip_round(&mut self, cap: usize) -> Vec<GossipEntry> {
        let mut open: Vec<&mut StoredMsg> = self
            .messages
            .values_mut()
            .filter(|s| s.advert.is_some_and(|r| r > 0))
            .collect();
        if open.is_empty() {
            return Vec::new();
        }
        let take = open.len().min(cap);
        let mut entries = Vec::with_capacity(take);
        for k in 0..take {
            let i = (self.gossip_cursor + k) % open.len();
            let s = &mut *open[i];
            s.advert = s.advert.map(|r| r - 1);
            entries.push(s.msg.gossip_entry());
        }
        self.gossip_cursor = (self.gossip_cursor + take) % open.len();
        entries
    }

    /// Currently buffered message ids, oldest-id first.
    pub fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.messages.keys().copied()
    }

    /// Iterates buffered messages.
    pub fn iter(&self) -> impl Iterator<Item = &StoredMsg> {
        self.messages.values()
    }

    /// Number of buffered message bodies.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether no bodies are buffered.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// The maximum number of bodies ever buffered simultaneously — compared
    /// against the paper's §3.5 buffer bound in experiment T1.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total wire bytes of the currently buffered bodies.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The maximum buffered body bytes ever held simultaneously.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Number of currently retained seen-ids.
    pub fn seen_len(&self) -> usize {
        self.seen.len()
    }

    /// The maximum retained seen-ids ever held simultaneously.
    pub fn peak_seen(&self) -> usize {
        self.peak_seen
    }

    /// Bodies rejected by the count/byte caps (drop-newest).
    pub fn body_rejects(&self) -> u64 {
        self.body_rejects
    }

    /// Seen-ids evicted by the seen-id cap (oldest first).
    pub fn seen_evictions(&self) -> u64 {
        self.seen_evictions
    }

    /// The maximum bodies ever holding an advertisement slot at once.
    pub(crate) fn peak_advertised(&self) -> usize {
        self.peak_advertised
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};

    fn msg(seq: u64) -> Arc<DataMsg> {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 1);
        Arc::new(DataMsg::sign(&reg.signer(SignerId(0)), seq, seq * 10, 100))
    }

    fn store() -> MessageStore {
        MessageStore::new(SimDuration::from_secs(10))
    }

    /// Bodies of `origin` holding an advertisement slot.
    fn slots(s: &MessageStore, origin: NodeId) -> usize {
        s.advertised_by.get(&origin).copied().unwrap_or(0)
    }

    #[test]
    fn first_insert_is_new_duplicates_are_not() {
        let mut s = store();
        let t = SimTime::from_secs(1);
        let m = msg(1);
        assert!(s.insert(t, Arc::clone(&m)));
        assert!(!s.insert(t, Arc::clone(&m)));
        assert!(s.has(m.id));
        assert!(s.seen(m.id));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn purge_removes_old_bodies_but_remembers_ids() {
        let mut s = store();
        let m = msg(1);
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        s.purge(SimTime::from_secs(12));
        assert!(!s.has(m.id), "body survived purge");
        assert!(s.seen(m.id), "seen-id purged too early");
        // Re-receiving a purged message is still a duplicate.
        assert!(!s.insert(SimTime::from_secs(13), Arc::clone(&m)));
    }

    #[test]
    fn delivered_ids_are_retained_indefinitely() {
        // The replay hole: ids used to expire after 4 × hold, letting an
        // adversary re-inject an old valid message as fresh. Retention is now
        // bounded only by the seen-id cap.
        let mut s = store();
        let m = msg(1);
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        s.purge(SimTime::from_secs(100)); // far past the old 4 × hold horizon
        assert!(s.seen(m.id), "late replay window reopened");
        assert!(!s.insert(SimTime::from_secs(100), Arc::clone(&m)));
    }

    #[test]
    fn high_water_tracks_peak_occupancy() {
        let mut s = store();
        for seq in 0..5 {
            s.insert(SimTime::from_secs(1), msg(seq));
        }
        s.purge(SimTime::from_secs(20));
        assert_eq!(s.len(), 0);
        assert_eq!(s.high_water(), 5);
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.peak_bytes(), 5 * msg(0).wire_size());
        assert_eq!(s.peak_seen(), 5);
    }

    #[test]
    fn stored_ttl_is_normalized() {
        let mut s = store();
        let m = Arc::new(msg(1).with_ttl(2));
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        assert_eq!(s.get(m.id).unwrap().msg.ttl, 1);
        assert_eq!(m.ttl, 2, "the caller's body is never altered");
    }

    #[test]
    fn ids_and_iter_agree() {
        let mut s = store();
        for seq in [3u64, 1, 2] {
            s.insert(SimTime::from_secs(1), msg(seq));
        }
        let ids: Vec<_> = s.ids().collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(s.iter().count(), 3);
        // BTreeMap ordering: sorted by id.
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert!(!s.is_empty());
    }

    #[test]
    fn count_cap_rejects_newest_body_but_still_deduplicates() {
        let mut s = MessageStore::with_limits(SimDuration::from_secs(10), 2, 0, 0);
        let t = SimTime::from_secs(1);
        assert!(s.insert(t, msg(1)));
        assert!(s.insert(t, msg(2)));
        let m3 = msg(3);
        // Still a first reception (deliver), but the body is dropped.
        assert!(s.insert(t, Arc::clone(&m3)));
        assert!(!s.has(m3.id));
        assert!(s.seen(m3.id));
        assert!(
            !s.insert(t, Arc::clone(&m3)),
            "rejected body must stay deduplicated"
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.body_rejects(), 1);
        // Established bodies survive (drop-newest keeps them servable).
        assert!(s.has(msg(1).id) && s.has(msg(2).id));
    }

    #[test]
    fn byte_cap_rejects_and_purge_frees_budget() {
        let one = msg(0).wire_size();
        let mut s = MessageStore::with_limits(SimDuration::from_secs(10), 0, 2 * one, 0);
        let t = SimTime::from_secs(1);
        assert!(s.insert(t, msg(1)));
        assert!(s.insert(t, msg(2)));
        assert!(s.insert(t, msg(3)));
        assert_eq!(s.len(), 2, "byte cap exceeded");
        assert_eq!(s.bytes(), 2 * one);
        // Purging frees the byte budget for new bodies.
        s.purge(SimTime::from_secs(12));
        assert_eq!(s.bytes(), 0);
        assert!(s.insert(SimTime::from_secs(13), msg(4)));
        assert!(s.has(msg(4).id));
    }

    #[test]
    fn seen_cap_evicts_oldest_ids_first() {
        let mut s = MessageStore::with_limits(SimDuration::from_secs(10), 0, 0, 3);
        for seq in 1..=3 {
            s.insert(SimTime::from_secs(seq), msg(seq));
        }
        // A fourth id evicts the oldest (seq 1), not the recent ones.
        s.insert(SimTime::from_secs(4), msg(4));
        assert!(!s.seen(msg(1).id));
        assert!(s.seen(msg(2).id) && s.seen(msg(3).id) && s.seen(msg(4).id));
        assert_eq!(s.seen_len(), 3);
        assert_eq!(s.seen_evictions(), 1);
        assert_eq!(s.peak_seen(), 3);
    }

    #[test]
    fn ids_seen_at_the_same_instant_are_evicted_in_id_order() {
        let mut s = MessageStore::with_limits(SimDuration::from_secs(10), 0, 0, 2);
        let t = SimTime::from_secs(1);
        // Inserted out of id order, at one instant.
        s.insert(t, msg(2));
        s.insert(t, msg(1));
        s.insert(SimTime::from_secs(2), msg(3));
        assert!(!s.seen(msg(1).id), "the lower id goes first on a tie");
        assert!(s.seen(msg(2).id) && s.seen(msg(3).id));
        s.insert(SimTime::from_secs(3), msg(4));
        assert!(!s.seen(msg(2).id) && s.seen(msg(3).id) && s.seen(msg(4).id));
        assert_eq!(s.seen_evictions(), 2);
    }

    #[test]
    fn uncapped_store_keeps_no_eviction_index_and_shares_bodies() {
        let mut s = store();
        let m = msg(1);
        for seq in 1..=3 {
            s.insert(SimTime::from_secs(seq), msg(seq + 1));
        }
        s.insert(SimTime::from_secs(4), Arc::clone(&m));
        assert!(s.seen_by_time.is_empty());
        assert_eq!(s.seen_len(), 4);
        assert!(Arc::ptr_eq(&s.get(m.id).unwrap().msg, &m));
    }

    #[test]
    fn body_that_outlived_its_seen_id_is_replaced_not_added() {
        let one = msg(0).wire_size();
        for caps in [(0, 0), (2, 2 * one)] {
            let mut s = MessageStore::with_limits(SimDuration::from_secs(10), caps.0, caps.1, 1);
            s.insert(SimTime::from_secs(1), msg(1));
            // Message 2 evicts message 1's seen-id; message 1's body stays.
            s.insert(SimTime::from_secs(2), msg(2));
            assert!(!s.seen(msg(1).id) && s.has(msg(1).id));
            assert!(s.insert(SimTime::from_secs(3), msg(1)));
            assert_eq!(s.get(msg(1).id).unwrap().received_at, SimTime::from_secs(3));
            assert_eq!((s.len(), s.bytes(), s.peak_bytes()), (2, 2 * one, 2 * one));
            assert_eq!(s.body_rejects(), 0, "caps {caps:?} counted the held body");
            s.purge(SimTime::from_secs(20));
            assert_eq!(s.bytes(), 0);
        }
    }

    #[test]
    fn rehearing_a_held_entry_arms_it_exactly_once() {
        let mut s = store();
        let m = msg(1);
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        assert_eq!(s.advertise(m.id, 1, 0), Advertise::Armed);
        assert_eq!(s.advertise(m.id, 1, 0), Advertise::Held);
        assert_eq!(s.advertise(m.id, 3, 0), Advertise::Held);
        assert_eq!(s.get(m.id).unwrap().advert, Some(1));
        assert_eq!(slots(&s, m.id.origin), 1);
        assert_eq!(s.peak_advertised(), 1);
        assert_eq!(s.advertise(msg(2).id, 1, 0), Advertise::NoBody);
    }

    #[test]
    fn exhausted_slot_is_never_rearmed() {
        let mut s = store();
        let m = msg(1);
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        s.advertise(m.id, 2, 0);
        assert_eq!(s.gossip_round(40).len(), 1);
        assert_eq!(s.gossip_round(40).len(), 1);
        assert!(s.gossip_round(40).is_empty(), "window should be closed");
        assert_eq!(s.get(m.id).unwrap().advert, Some(0));
        // Echoes of a closed slot leave it closed.
        assert_eq!(s.advertise(m.id, 1, 0), Advertise::Held);
        assert!(s.gossip_round(40).is_empty());
        assert_eq!(slots(&s, m.id.origin), 1);
    }

    #[test]
    fn gossip_round_rotates_over_the_open_set() {
        let mut s = store();
        let ids: Vec<_> = (1..=3).map(|seq| msg(seq).id).collect();
        for seq in 1..=3 {
            s.insert(SimTime::from_secs(1), msg(seq));
            s.advertise(msg(seq).id, 3, 0);
        }
        let round = |s: &mut MessageStore| -> Vec<MessageId> {
            s.gossip_round(2).iter().map(|e| e.id).collect()
        };
        assert_eq!(round(&mut s), vec![ids[0], ids[1]]);
        assert_eq!(round(&mut s), vec![ids[2], ids[0]]);
        assert_eq!(round(&mut s), vec![ids[1], ids[2]]);
    }

    #[test]
    fn purge_drops_the_slot_and_its_origin_count() {
        let mut s = store();
        let m = msg(1);
        s.insert(SimTime::from_secs(1), Arc::clone(&m));
        s.advertise(m.id, 3, 0);
        s.purge(SimTime::from_secs(12));
        assert_eq!(slots(&s, m.id.origin), 0);
        assert!(s.gossip_round(40).is_empty());
        assert_eq!(s.advertise(m.id, 3, 0), Advertise::NoBody);
        assert_eq!(s.peak_advertised(), 1);
    }

    #[test]
    fn per_origin_quota_admits_again_after_a_purge() {
        let mut s = store();
        let (a, b) = (msg(1), msg(2));
        s.insert(SimTime::from_secs(1), Arc::clone(&a));
        s.insert(SimTime::from_secs(5), Arc::clone(&b));
        assert_eq!(s.advertise(a.id, 3, 1), Advertise::Armed);
        assert_eq!(s.advertise(b.id, 3, 1), Advertise::OverQuota);
        assert_eq!(s.get(b.id).unwrap().advert, None);
        // `a` expires, `b` does not: the freed slot goes to `b`.
        s.purge(SimTime::from_secs(12));
        assert!(!s.has(a.id) && s.has(b.id));
        assert_eq!(s.advertise(b.id, 3, 1), Advertise::Armed);
        assert_eq!(slots(&s, b.id.origin), 1);
    }

    #[test]
    fn reinserting_a_body_whose_seen_id_was_evicted_restarts_its_slot() {
        let mut s = MessageStore::with_limits(SimDuration::from_secs(10), 0, 0, 1);
        let (a, b) = (msg(1), msg(2));
        s.insert(SimTime::from_secs(1), Arc::clone(&a));
        s.advertise(a.id, 3, 0);
        s.insert(SimTime::from_secs(2), Arc::clone(&b)); // evicts `a`'s seen-id
        assert!(s.has(a.id) && !s.seen(a.id));
        assert!(s.insert(SimTime::from_secs(3), Arc::clone(&a)));
        assert_eq!(s.get(a.id).unwrap().advert, None);
        assert_eq!(slots(&s, a.id.origin), 0);
        assert_eq!(s.advertise(a.id, 3, 0), Advertise::Armed);
    }
}
