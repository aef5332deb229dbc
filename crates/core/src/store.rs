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
//! pair costs a 24-byte index entry (seq, pointer, reception time) and one
//! slot byte, not a copy of the signatures.
//!
//! The store is one vector of per-origin entries, sorted by origin; a node
//! hears from a handful of originators, so finding one is a short binary
//! search over a few cache lines. Each 112-byte entry holds, in this order:
//!
//! * the origin's newest range of seen seqs, inclusive (an originator
//!   numbers its messages consecutively, so an honest origin's seen seqs
//!   are this one range, and its next seq extends it in place);
//! * the seqs of its first and last buffered bodies;
//! * how many of its bodies hold an advertisement slot;
//! * its buffered bodies, ascending by seq, each a [`StoredMsg`] beside its
//!   seq, and beside them one slot byte per body;
//! * its older seen ranges, ascending, disjoint and not adjacent: the gaps
//!   that out-of-order arrivals and seen-cap eviction leave. Evicting a seq
//!   inside a range splits it; receiving a seq that closes a gap merges two.
//!
//! A duplicate check therefore reads the newest range alone (the older
//! ranges only for a seq below it). A body is found by `seq − first` while
//! the buffered seqs are contiguous (`last − first + 1` bodies), which the
//! entry answers without reading a body. Otherwise — the sparse seqs an
//! impersonator signs, the gaps of a body cap and of out-of-order purging —
//! a lookup tries the position counted back from the newest body (most
//! lookups are for recent seqs), then a binary search. Iteration runs
//! origin by origin, seq by seq: `MessageId` order, as a map keyed by id
//! would give.
//!
//! `seen_by_time`, a `(time, id)` ordered set over the seen ids, is filled
//! only when a seen-id cap is set, since only cap eviction reads it: it
//! removes the oldest id by reception time, wherever it sits in its range.
//!
//! # Advertisement
//!
//! Each body has a gossip advertisement slot: one byte in the origin's
//! `slots` column, in step with its bodies, holding the lazycast rounds it
//! has left, or `NO_SLOT` (255). So a gossip echo for a held message reads
//! the origin's entry and one byte, and a lazycast round scans bytes, not
//! bodies. Purging a body drops its slot with it, and the per-origin count
//! of slots keeps the per-origin gossip quota O(1).

use std::collections::BTreeSet;
use std::sync::Arc;

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::message::{DataMsg, GossipEntry, MessageId};

/// A stored message with its reception time.
#[derive(Clone, Debug)]
pub struct StoredMsg {
    /// The shared message body (TTL normalized to 1; TTLs are hop counters,
    /// not state).
    pub msg: Arc<DataMsg>,
    /// When this node first received (or originated) it.
    pub received_at: SimTime,
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

/// A body's slot byte when it holds no advertisement slot. Any other value
/// is the lazycast rounds it has left: `0` = window closed. A closed slot
/// stays until the body is purged, so a neighbour's echo cannot restart the
/// advertising.
const NO_SLOT: u8 = u8::MAX;

/// The store's range and body-lookup paths, counted in test builds so the
/// reference test can show it reached each one.
#[derive(Clone, Copy)]
enum Path {
    /// Two seen ranges joined.
    Merge,
    /// A seen range split around an evicted seq.
    Split,
    /// A body found by `seq − first`.
    Direct,
    /// A body found by the back-count or the binary search.
    Sparse,
}

#[cfg(test)]
thread_local! {
    static PATHS: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
}

#[inline(always)]
fn took(path: Path) {
    #[cfg(test)]
    PATHS.with(|p| {
        let mut n = p.get();
        n[path as usize] += 1;
        p.set(n);
    });
    let _ = path;
}

/// Adds the unseen `seq` to ascending, disjoint, non-adjacent inclusive
/// `ranges`, merging it into the ranges it touches.
fn insert_seq(ranges: &mut Vec<(u64, u64)>, seq: u64) {
    let i = ranges.partition_point(|&(lo, _)| lo <= seq);
    let joins_below = i > 0 && ranges[i - 1].1 + 1 == seq;
    let joins_above = i < ranges.len() && seq + 1 == ranges[i].0;
    match (joins_below, joins_above) {
        (true, true) => {
            ranges[i - 1].1 = ranges[i].1;
            ranges.remove(i);
            took(Path::Merge);
        }
        (true, false) => ranges[i - 1].1 = seq,
        (false, true) => ranges[i].0 = seq,
        (false, false) => ranges.insert(i, (seq, seq)),
    }
}

/// Removes the seen `seq` from `ranges` (as for [`insert_seq`]), splitting
/// the range it sits inside.
fn remove_seq(ranges: &mut Vec<(u64, u64)>, seq: u64) {
    let i = ranges.partition_point(|&(lo, _)| lo <= seq) - 1;
    let (lo, hi) = ranges[i];
    match (seq == lo, seq == hi) {
        (true, true) => {
            ranges.remove(i);
        }
        (true, false) => ranges[i].0 = seq + 1,
        (false, true) => ranges[i].1 = seq - 1,
        (false, false) => {
            ranges[i].1 = seq - 1;
            ranges.insert(i + 1, (seq + 1, hi));
            took(Path::Split);
        }
    }
}

/// Everything the store keeps about one originator's messages. The fields
/// a duplicate check and a held message's echo read come first.
#[derive(Debug)]
#[repr(C)]
struct Origin {
    /// The newest seen range, inclusive; `lo > hi` (`NO_SEEN`) when the
    /// origin has no seen seq, and then `older` is empty too.
    lo: u64,
    hi: u64,
    /// The seqs of the first and last buffered bodies (stale while
    /// `bodies` is empty).
    first: u64,
    last: u64,
    /// Bodies holding an advertisement slot.
    advertised: usize,
    /// Buffered bodies, ascending by seq.
    bodies: Vec<(u64, StoredMsg)>,
    /// Each body's advertisement slot byte, in step with `bodies`.
    slots: Vec<u8>,
    /// The seen ranges below `lo`, ascending, disjoint and not adjacent to
    /// each other or to the newest.
    older: Vec<(u64, u64)>,
}

/// The `(lo, hi)` of an empty newest range.
const NO_SEEN: (u64, u64) = (1, 0);

// 112 bytes, under two cache lines: a new field is a deliberate choice.
const _: () = assert!(std::mem::size_of::<Origin>() == 112);

impl Origin {
    fn new() -> Self {
        Origin {
            lo: NO_SEEN.0,
            hi: NO_SEEN.1,
            first: 0,
            last: 0,
            advertised: 0,
            bodies: Vec::new(),
            slots: Vec::new(),
            older: Vec::new(),
        }
    }

    fn has_seen(&self) -> bool {
        self.lo <= self.hi
    }

    fn seen(&self, seq: u64) -> bool {
        if seq > self.hi {
            return false;
        }
        if seq >= self.lo {
            return true;
        }
        let i = self.older.partition_point(|&(lo, _)| lo <= seq);
        i > 0 && seq <= self.older[i - 1].1
    }

    /// Records the unseen `seq`. The next seq of an in-order origin extends
    /// the newest range in place; the rare rest goes through the full list.
    fn mark_seen(&mut self, seq: u64) {
        if !self.has_seen() {
            (self.lo, self.hi) = (seq, seq);
        } else if seq > self.hi && seq - 1 == self.hi {
            self.hi = seq;
        } else if seq > self.hi {
            self.older.push((self.lo, self.hi));
            (self.lo, self.hi) = (seq, seq);
        } else {
            self.older.push((self.lo, self.hi));
            insert_seq(&mut self.older, seq);
            (self.lo, self.hi) = self.older.pop().expect("the newest range");
        }
    }

    /// Forgets the seen `seq`. Cap eviction mostly takes the lowest seq of
    /// an in-order origin, which shrinks the newest range in place.
    fn unmark_seen(&mut self, seq: u64) {
        if seq < self.lo {
            remove_seq(&mut self.older, seq);
        } else if seq == self.lo && seq < self.hi {
            self.lo += 1;
        } else {
            self.older.push((self.lo, self.hi));
            remove_seq(&mut self.older, seq);
            (self.lo, self.hi) = self.older.pop().unwrap_or(NO_SEEN);
        }
    }

    /// Where `seq` sits among the buffered bodies: `Ok` at its position,
    /// `Err` at the position it would be inserted.
    fn find_body(&self, seq: u64) -> Result<usize, usize> {
        let len = self.bodies.len();
        if len == 0 || seq > self.last {
            return Err(len);
        }
        if seq < self.first {
            return Err(0);
        }
        if self.last - self.first == len as u64 - 1 {
            took(Path::Direct);
            return Ok((seq - self.first) as usize);
        }
        took(Path::Sparse);
        // An originator numbers its messages consecutively, so the seqs
        // before the newest body are often contiguous even when older ones
        // are not: try the position counted back from it first.
        let back = self.last - seq;
        if back < len as u64 && self.bodies[len - 1 - back as usize].0 == seq {
            return Ok(len - 1 - back as usize);
        }
        self.bodies.binary_search_by_key(&seq, |&(s, _)| s)
    }

    /// Inserts a body that `find_body` placed at `at`, with no slot.
    fn insert_body(&mut self, at: usize, seq: u64, stored: StoredMsg) {
        if self.bodies.is_empty() || seq < self.first {
            self.first = seq;
        }
        if self.bodies.is_empty() || seq > self.last {
            self.last = seq;
        }
        self.bodies.insert(at, (seq, stored));
        self.slots.insert(at, NO_SLOT);
    }
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
    /// The origins with seen ids or bodies, ascending: the dense key column
    /// every lookup searches. `origins[i]` is the entry of `origin_ids[i]`;
    /// every insert and purge keeps the two in step.
    origin_ids: Vec<NodeId>,
    /// Per-origin seen ranges, bodies, slots and slot counts. Seen ids are
    /// retained past body purging so a purged message re-received late — or
    /// replayed by an adversary — is never delivered twice (bounded by
    /// `max_seen` only). An origin is dropped at a purge once it has neither.
    origins: Vec<Origin>,
    /// Caps, sizes and statistics: what only a first reception, a purge, a
    /// lazycast round or a report reads, kept out of the node's hot head.
    books: Box<Books>,
}

/// The part of a [`MessageStore`] that duplicate receptions and gossip
/// echoes never touch.
#[derive(Debug)]
struct Books {
    hold_for: SimDuration,
    /// Reception-order index over the seen ids, for oldest-first cap
    /// eviction; empty unless `max_seen` is set.
    seen_by_time: BTreeSet<(SimTime, MessageId)>,
    /// Cap on buffered bodies (count); `0` = unlimited.
    max_msgs: usize,
    /// Cap on buffered bodies (total wire bytes); `0` = unlimited.
    max_bytes: usize,
    /// Cap on retained seen-ids; `0` = unlimited.
    max_seen: usize,
    /// Buffered bodies.
    len: usize,
    /// Total wire bytes of the buffered bodies.
    bytes: usize,
    /// Retained seen-ids.
    seen_len: usize,
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
            origin_ids: Vec::new(),
            origins: Vec::new(),
            books: Box::new(Books {
                hold_for,
                seen_by_time: BTreeSet::new(),
                max_msgs,
                max_bytes,
                max_seen,
                len: 0,
                bytes: 0,
                seen_len: 0,
                advertised: 0,
                gossip_cursor: 0,
                high_water: 0,
                peak_bytes: 0,
                peak_seen: 0,
                peak_advertised: 0,
                body_rejects: 0,
                seen_evictions: 0,
            }),
        }
    }

    fn find_origin(&self, origin: NodeId) -> Result<usize, usize> {
        self.origin_ids.binary_search(&origin)
    }

    fn origin(&self, origin: NodeId) -> Option<&Origin> {
        let pos = self.find_origin(origin).ok()?;
        Some(&self.origins[pos])
    }

    /// Bytes it allocates: its books, its two origin columns, and each
    /// origin's older seen ranges, body index and slot column (from their
    /// capacities; a seen-time entry counted as its key). Bodies are shared
    /// with the network and every other holder, so they are not counted.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let per_origin: usize = self
            .origins
            .iter()
            .map(|o| {
                o.older.capacity() * size_of::<(u64, u64)>()
                    + o.bodies.capacity() * size_of::<(u64, StoredMsg)>()
                    + o.slots.capacity()
            })
            .sum();
        size_of::<Books>()
            + self.books.seen_by_time.len() * size_of::<(SimTime, MessageId)>()
            + self.origin_ids.capacity() * size_of::<NodeId>()
            + self.origins.capacity() * size_of::<Origin>()
            + per_origin
    }

    /// Whether the message body is currently buffered.
    pub fn has(&self, id: MessageId) -> bool {
        self.get(id).is_some()
    }

    /// Whether the message has ever been seen (even if since purged).
    pub fn seen(&self, id: MessageId) -> bool {
        self.origin(id.origin).is_some_and(|o| o.seen(id.seq))
    }

    /// Inserts a message received at `now`. Returns `true` if it is new
    /// (first reception → deliver/forward), `false` on duplicates. Under a
    /// count/byte cap the body of a new message may be rejected (drop-newest;
    /// check [`MessageStore::has`]) while the id is still recorded as seen.
    /// The store keeps `msg` itself, or a TTL-1 copy when its TTL differs.
    pub fn insert(&mut self, now: SimTime, msg: Arc<DataMsg>) -> bool {
        let id = msg.id;
        let found = self.find_origin(id.origin);
        if let Ok(pos) = found {
            if self.origins[pos].seen(id.seq) {
                return false;
            }
        }
        // Eviction only shrinks seen ranges; it never moves an origin, so
        // `found` stays valid.
        self.evict_for(now, id);
        let pos = found.unwrap_or_else(|pos| {
            self.origin_ids.insert(pos, id.origin);
            self.origins.insert(pos, Origin::new());
            pos
        });
        let o = &mut self.origins[pos];
        o.mark_seen(id.seq);
        self.books.seen_len += 1;
        self.books.peak_seen = self.books.peak_seen.max(self.books.seen_len);
        // A body can outlive its seen-id under the seen-id cap. Its
        // re-reception counts as new, and so does its advertisement. The new
        // body replaces the held one, so the caps are checked without it.
        let found_body = o.find_body(id.seq);
        let mut held = None;
        if let Ok(b) = found_body {
            held = Some(o.bodies[b].1.msg.wire_size());
            if std::mem::replace(&mut o.slots[b], NO_SLOT) != NO_SLOT {
                o.advertised -= 1;
                self.books.advertised -= 1;
            }
        }
        let held_bytes = held.unwrap_or(0);
        let size = msg.wire_size();
        let others = self.books.len - usize::from(held.is_some());
        let over_count = self.books.max_msgs != 0 && others >= self.books.max_msgs;
        let over_bytes = self.books.max_bytes != 0
            && self.books.bytes - held_bytes + size > self.books.max_bytes;
        if over_count || over_bytes {
            self.books.body_rejects += 1;
            return true;
        }
        let stored = StoredMsg {
            msg: DataMsg::share_with_ttl(&msg, 1),
            received_at: now,
        };
        match found_body {
            Ok(b) => o.bodies[b].1 = stored,
            Err(b) => {
                o.insert_body(b, id.seq, stored);
                self.books.len += 1;
            }
        }
        self.books.bytes = self.books.bytes - held_bytes + size;
        self.books.high_water = self.books.high_water.max(self.books.len);
        self.books.peak_bytes = self.books.peak_bytes.max(self.books.bytes);
        true
    }

    /// Under a seen-id cap, makes room for `id` (evicting the oldest seen-id
    /// when the cap is reached) and indexes it by reception time.
    fn evict_for(&mut self, now: SimTime, id: MessageId) {
        if self.books.max_seen == 0 {
            return;
        }
        if self.books.seen_len >= self.books.max_seen {
            if let Some((_, oldest)) = self.books.seen_by_time.pop_first() {
                let pos = self.find_origin(oldest.origin).expect("indexed origin");
                self.origins[pos].unmark_seen(oldest.seq);
                self.books.seen_len -= 1;
                self.books.seen_evictions += 1;
            }
        }
        self.books.seen_by_time.insert((now, id));
    }

    /// The buffered message body, if present.
    pub fn get(&self, id: MessageId) -> Option<&StoredMsg> {
        let o = self.origin(id.origin)?;
        let pos = o.find_body(id.seq).ok()?;
        Some(&o.bodies[pos].1)
    }

    /// Purges expired bodies, and their advertisement slots with them.
    /// Seen-ids are retained (bounded by the seen-id cap, oldest evicted
    /// first) so late replays stay deduplicated.
    pub fn purge(&mut self, now: SimTime) {
        let hold = self.books.hold_for;
        let (mut freed, mut dropped, mut released) = (0, 0, 0);
        for o in &mut self.origins {
            // Compact bodies and slots together, in order.
            let mut kept = 0;
            for i in 0..o.bodies.len() {
                let s = &o.bodies[i].1;
                if now.saturating_since(s.received_at) <= hold {
                    o.bodies.swap(kept, i);
                    o.slots[kept] = o.slots[i];
                    kept += 1;
                    continue;
                }
                freed += s.msg.wire_size();
                dropped += 1;
                if o.slots[i] != NO_SLOT {
                    o.advertised -= 1;
                    released += 1;
                }
            }
            o.bodies.truncate(kept);
            o.slots.truncate(kept);
            if let (Some(first), Some(last)) = (o.bodies.first(), o.bodies.last()) {
                (o.first, o.last) = (first.0, last.0);
            }
        }
        let live = |o: &Origin| o.has_seen() || !o.bodies.is_empty();
        let mut origins = self.origins.iter();
        self.origin_ids.retain(|_| origins.next().is_some_and(live));
        self.origins.retain(live);
        self.books.bytes -= freed;
        self.books.len -= dropped;
        self.books.advertised -= released;
    }

    /// Opens an advertisement slot of `rounds` lazycast rounds for the body
    /// of `id`, unless there is no body, it already has a slot, or its
    /// origin holds `quota` slots already (`0` = unlimited).
    pub(crate) fn advertise(&mut self, id: MessageId, rounds: u32, quota: usize) -> Advertise {
        let Ok(pos) = self.find_origin(id.origin) else {
            return Advertise::NoBody;
        };
        let o = &mut self.origins[pos];
        let Ok(b) = o.find_body(id.seq) else {
            return Advertise::NoBody;
        };
        if o.slots[b] != NO_SLOT {
            return Advertise::Held;
        }
        if quota != 0 && o.advertised >= quota {
            return Advertise::OverQuota;
        }
        o.slots[b] = u8::try_from(rounds)
            .ok()
            .filter(|&r| r != NO_SLOT)
            .expect("advertisement rounds below the no-slot byte");
        o.advertised += 1;
        self.books.advertised += 1;
        self.books.peak_advertised = self.books.peak_advertised.max(self.books.advertised);
        Advertise::Armed
    }

    /// One lazycast round: the gossip entries of up to `cap` bodies whose
    /// advertisement window is open, taken round-robin over the open set so
    /// large sets all get airtime. Each advertised body uses up one round.
    pub(crate) fn gossip_round(&mut self, cap: usize) -> Vec<GossipEntry> {
        if self.books.advertised == 0 {
            return Vec::new();
        }
        // The open set as (origin, body) positions, in id order.
        let mut open: Vec<(usize, usize)> = Vec::new();
        for (i, o) in self.origins.iter().enumerate() {
            if o.advertised == 0 {
                continue;
            }
            for (b, &rounds) in o.slots.iter().enumerate() {
                if rounds != 0 && rounds != NO_SLOT {
                    open.push((i, b));
                }
            }
        }
        if open.is_empty() {
            return Vec::new();
        }
        let take = open.len().min(cap);
        let mut entries = Vec::with_capacity(take);
        for k in 0..take {
            let (i, b) = open[(self.books.gossip_cursor + k) % open.len()];
            let o = &mut self.origins[i];
            o.slots[b] -= 1;
            entries.push(o.bodies[b].1.msg.gossip_entry());
        }
        self.books.gossip_cursor = (self.books.gossip_cursor + take) % open.len();
        entries
    }

    /// Currently buffered message ids, oldest-id first.
    pub fn ids(&self) -> impl Iterator<Item = MessageId> + '_ {
        self.origin_ids
            .iter()
            .zip(&self.origins)
            .flat_map(|(&origin, o)| {
                o.bodies
                    .iter()
                    .map(move |&(seq, _)| MessageId::new(origin, seq))
            })
    }

    /// Iterates buffered messages, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredMsg> {
        self.origins
            .iter()
            .flat_map(|o| o.bodies.iter().map(|(_, s)| s))
    }

    /// Number of buffered message bodies.
    pub fn len(&self) -> usize {
        self.books.len
    }

    /// Whether no bodies are buffered.
    pub fn is_empty(&self) -> bool {
        self.books.len == 0
    }

    /// The maximum number of bodies ever buffered simultaneously — compared
    /// against the paper's §3.5 buffer bound in experiment T1.
    pub fn high_water(&self) -> usize {
        self.books.high_water
    }

    /// Total wire bytes of the currently buffered bodies.
    pub fn bytes(&self) -> usize {
        self.books.bytes
    }

    /// The maximum buffered body bytes ever held simultaneously.
    pub fn peak_bytes(&self) -> usize {
        self.books.peak_bytes
    }

    /// Number of currently retained seen-ids.
    pub fn seen_len(&self) -> usize {
        self.books.seen_len
    }

    /// The maximum retained seen-ids ever held simultaneously.
    pub fn peak_seen(&self) -> usize {
        self.books.peak_seen
    }

    /// Bodies rejected by the count/byte caps (drop-newest).
    pub fn body_rejects(&self) -> u64 {
        self.books.body_rejects
    }

    /// Seen-ids evicted by the seen-id cap (oldest first).
    pub fn seen_evictions(&self) -> u64 {
        self.books.seen_evictions
    }

    /// The maximum bodies ever holding an advertisement slot at once.
    pub(crate) fn peak_advertised(&self) -> usize {
        self.books.peak_advertised
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn msg(seq: u64) -> Arc<DataMsg> {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 1);
        Arc::new(DataMsg::sign(&reg.signer(SignerId(0)), seq, seq * 10, 100))
    }

    fn store() -> MessageStore {
        MessageStore::new(SimDuration::from_secs(10))
    }

    /// Bodies of `origin` holding an advertisement slot.
    fn slots(s: &MessageStore, origin: NodeId) -> usize {
        s.origin(origin).map_or(0, |o| o.advertised)
    }

    /// The advertisement slot of the body of `id`: `None` = no body or no
    /// slot, else the rounds it has left.
    fn advert(s: &MessageStore, id: MessageId) -> Option<u32> {
        let o = s.origin(id.origin)?;
        let slot = o.slots[o.find_body(id.seq).ok()?];
        (slot != NO_SLOT).then_some(u32::from(slot))
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
        // Origin by origin, seq by seq: sorted by id.
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
        assert!(s.books.seen_by_time.is_empty());
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
        assert_eq!(advert(&s, m.id), Some(1));
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
        assert_eq!(advert(&s, m.id), Some(0));
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
        assert_eq!(advert(&s, b.id), None);
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
        assert_eq!(advert(&s, a.id), None);
        assert_eq!(slots(&s, a.id.origin), 0);
        assert_eq!(s.advertise(a.id, 3, 0), Advertise::Armed);
    }

    /// The store as it was when three B-trees indexed it: bodies by id, seen
    /// ids, and slot counts by origin. The flat store must answer every
    /// query exactly as this does.
    struct Model {
        hold: SimDuration,
        caps: (usize, usize, usize),
        messages: BTreeMap<MessageId, (Arc<DataMsg>, SimTime, Option<u32>)>,
        seen: BTreeSet<MessageId>,
        seen_by_time: BTreeSet<(SimTime, MessageId)>,
        advertised_by: BTreeMap<NodeId, usize>,
        advertised: usize,
        cursor: usize,
        bytes: usize,
        high_water: usize,
        peak_bytes: usize,
        peak_seen: usize,
        peak_advertised: usize,
        body_rejects: u64,
        seen_evictions: u64,
    }

    impl Model {
        fn new(hold: SimDuration, caps: (usize, usize, usize)) -> Self {
            Model {
                hold,
                caps,
                messages: BTreeMap::new(),
                seen: BTreeSet::new(),
                seen_by_time: BTreeSet::new(),
                advertised_by: BTreeMap::new(),
                advertised: 0,
                cursor: 0,
                bytes: 0,
                high_water: 0,
                peak_bytes: 0,
                peak_seen: 0,
                peak_advertised: 0,
                body_rejects: 0,
                seen_evictions: 0,
            }
        }

        fn release(&mut self, origin: NodeId) {
            self.advertised -= 1;
            let count = self.advertised_by.get_mut(&origin).unwrap();
            *count -= 1;
            if *count == 0 {
                self.advertised_by.remove(&origin);
            }
        }

        fn insert(&mut self, now: SimTime, msg: &Arc<DataMsg>) -> bool {
            let (max_msgs, max_bytes, max_seen) = self.caps;
            let id = msg.id;
            if self.seen.contains(&id) {
                return false;
            }
            if max_seen != 0 {
                if self.seen.len() >= max_seen {
                    let (_, oldest) = self.seen_by_time.pop_first().unwrap();
                    self.seen.remove(&oldest);
                    self.seen_evictions += 1;
                }
                self.seen_by_time.insert((now, id));
            }
            self.seen.insert(id);
            self.peak_seen = self.peak_seen.max(self.seen.len());
            let mut held = None;
            if let Some(s) = self.messages.get_mut(&id) {
                held = Some(s.0.wire_size());
                if s.2.take().is_some() {
                    self.release(id.origin);
                }
            }
            let held_bytes = held.unwrap_or(0);
            let others = self.messages.len() - usize::from(held.is_some());
            let size = msg.wire_size();
            if (max_msgs != 0 && others >= max_msgs)
                || (max_bytes != 0 && self.bytes - held_bytes + size > max_bytes)
            {
                self.body_rejects += 1;
                return true;
            }
            let body = Arc::new(msg.with_ttl(1));
            self.messages.insert(id, (body, now, None));
            self.bytes = self.bytes - held_bytes + size;
            self.high_water = self.high_water.max(self.messages.len());
            self.peak_bytes = self.peak_bytes.max(self.bytes);
            true
        }

        fn advertise(&mut self, id: MessageId, rounds: u32, quota: usize) -> Advertise {
            let Some(s) = self.messages.get_mut(&id) else {
                return Advertise::NoBody;
            };
            if s.2.is_some() {
                return Advertise::Held;
            }
            let count = self.advertised_by.entry(id.origin).or_insert(0);
            if quota != 0 && *count >= quota {
                if *count == 0 {
                    self.advertised_by.remove(&id.origin);
                }
                return Advertise::OverQuota;
            }
            *count += 1;
            s.2 = Some(rounds);
            self.advertised += 1;
            self.peak_advertised = self.peak_advertised.max(self.advertised);
            Advertise::Armed
        }

        fn gossip_round(&mut self, cap: usize) -> Vec<MessageId> {
            let mut open: Vec<_> = self
                .messages
                .iter_mut()
                .filter(|(_, s)| s.2.is_some_and(|r| r > 0))
                .collect();
            if open.is_empty() {
                return Vec::new();
            }
            let take = open.len().min(cap);
            let mut ids = Vec::new();
            for k in 0..take {
                let i = (self.cursor + k) % open.len();
                let (id, s) = &mut open[i];
                s.2 = s.2.map(|r| r - 1);
                ids.push(**id);
            }
            self.cursor = (self.cursor + take) % open.len();
            ids
        }

        fn purge(&mut self, now: SimTime) {
            let expired: Vec<MessageId> = self
                .messages
                .iter()
                .filter(|(_, s)| now.saturating_since(s.1) > self.hold)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                let (body, _, advert) = self.messages.remove(&id).unwrap();
                self.bytes -= body.wire_size();
                if advert.is_some() {
                    self.release(id.origin);
                }
            }
        }
    }

    /// Every query the store answers, compared against the model.
    fn agree(s: &MessageStore, m: &Model, probes: &[MessageId]) -> Result<(), TestCaseError> {
        let ids: Vec<MessageId> = s.ids().collect();
        let model_ids: Vec<MessageId> = m.messages.keys().copied().collect();
        prop_assert_eq!(&ids, &model_ids);
        prop_assert_eq!(s.iter().count(), ids.len());
        for (stored, (id, (body, at, slot))) in s.iter().zip(&m.messages) {
            prop_assert_eq!(stored.msg.id, *id);
            prop_assert_eq!(&*stored.msg, &**body);
            prop_assert_eq!(stored.received_at, *at);
            prop_assert_eq!(advert(s, *id), *slot);
        }
        // The seen ranges are canonical and hold exactly the model's seen
        // seqs; `first`, `last` and the slot column follow the bodies.
        for (&origin, o) in s.origin_ids.iter().zip(&s.origins) {
            prop_assert!(o.has_seen() || o.older.is_empty());
            let newest = o.has_seen().then_some((o.lo, o.hi));
            let ranges: Vec<(u64, u64)> = o.older.iter().copied().chain(newest).collect();
            prop_assert!(ranges.iter().all(|&(lo, hi)| lo <= hi), "{:?}", ranges);
            prop_assert!(
                ranges.windows(2).all(|w| w[0].1 + 1 < w[1].0),
                "{:?}",
                ranges
            );
            let seqs: Vec<u64> = ranges.iter().flat_map(|&(lo, hi)| lo..=hi).collect();
            let all = MessageId::new(origin, 0)..=MessageId::new(origin, u64::MAX);
            let model: Vec<u64> = m.seen.range(all).map(|id| id.seq).collect();
            prop_assert_eq!(seqs, model);
            prop_assert_eq!(o.slots.len(), o.bodies.len());
            if let (Some(first), Some(last)) = (o.bodies.first(), o.bodies.last()) {
                prop_assert_eq!((o.first, o.last), (first.0, last.0));
            }
        }
        for &id in probes {
            let got = (id, s.has(id), s.seen(id), s.get(id).map(|b| b.received_at));
            let body = m.messages.get(&id);
            let want = (id, body.is_some(), m.seen.contains(&id), body.map(|b| b.1));
            prop_assert_eq!(got, want);
        }
        for origin in (0..3).map(NodeId) {
            let model_slots = m.advertised_by.get(&origin).copied().unwrap_or(0);
            prop_assert_eq!((origin, slots(s, origin)), (origin, model_slots));
        }
        prop_assert_eq!(s.len(), m.messages.len());
        prop_assert_eq!(s.is_empty(), m.messages.is_empty());
        prop_assert_eq!(s.bytes(), m.bytes);
        prop_assert_eq!(s.seen_len(), m.seen.len());
        prop_assert_eq!(s.books.seen_by_time.len(), m.seen_by_time.len());
        let counters = (
            s.high_water(),
            s.peak_bytes(),
            s.peak_seen(),
            s.peak_advertised(),
        );
        let model = (m.high_water, m.peak_bytes, m.peak_seen, m.peak_advertised);
        prop_assert_eq!(counters, model);
        prop_assert_eq!(s.body_rejects(), m.body_rejects);
        prop_assert_eq!(s.seen_evictions(), m.seen_evictions);
        Ok(())
    }

    /// The test-build counts of the store's rarer paths, by [`Path`].
    fn paths() -> [u64; 4] {
        PATHS.with(|p| p.get())
    }

    /// What a schedule should reach, in the order of [`Case::hits`].
    const HIT_NAMES: [&str; 9] = [
        "re-insert of a body whose seen-id was evicted",
        "over quota",
        "body cap reject",
        "seen-cap eviction",
        "range merge",
        "range split",
        "evicted seq rejoining its ranges",
        "direct body index",
        "sparse body lookup",
    ];

    /// One schedule's store, model, and what its ops draw on.
    struct Case {
        s: MessageStore,
        m: Model,
        reg: KeyRegistry<SimScheme>,
        /// Every id ever inserted.
        ever: BTreeSet<MessageId>,
        hits: [u64; 9],
    }

    impl Case {
        /// Inserts `id`, signed by its origin, into both stores.
        fn insert(&mut self, now: SimTime, id: MessageId, ttl2: bool) -> Result<(), TestCaseError> {
            let seq = id.seq;
            let payload = 16 + 24 * (seq % 3) as u32;
            let body = DataMsg::sign(&self.reg.signer(SignerId(id.origin.0)), seq, seq, payload);
            let body = Arc::new(body.with_ttl(1 + u8::from(ttl2)));
            let evicted = self.ever.contains(&id) && !self.m.seen.contains(&id);
            let reinsert = evicted && self.m.messages.contains_key(&id);
            let merges = paths()[Path::Merge as usize];
            prop_assert_eq!(
                self.s.insert(now, Arc::clone(&body)),
                self.m.insert(now, &body)
            );
            self.ever.insert(id);
            self.hits[0] += u64::from(reinsert);
            self.hits[6] += u64::from(evicted && paths()[Path::Merge as usize] > merges);
            Ok(())
        }
    }

    /// One random schedule. An op is `(kind, origin, pick, dt_s, extra)`:
    /// * kinds 0–3 insert an in-order, skipped-ahead, already-used or sparse
    ///   (`1_000_000 + k`, as an impersonator signs) seq;
    /// * 4–5 advertise with a quota; 6 runs a gossip round; 7 purges;
    /// * 8 inserts the lowest never-received seq below the highest one, an
    ///   out-of-order arrival that closes a gap;
    /// * 9 inserts the next two seqs out of order, one second apart, so the
    ///   first-received one sits mid-range: the seen cap evicts it from
    ///   inside its range, and a purge can take its body alone;
    /// * 10 re-receives a seq that the seen cap evicted;
    /// * 11 purges just past the oldest body's horizon, which leaves a hole
    ///   when that body sits between younger ones.
    ///
    /// `caps` picks the three caps.
    fn store_matches_model_case(
        caps: (usize, usize, usize),
        ops: &[(u8, u32, u64, u64, u8)],
    ) -> Result<[u64; 9], TestCaseError> {
        let caps = (caps.0, caps.1 * 250, caps.2);
        let hold = SimDuration::from_secs(5);
        let mut c = Case {
            s: MessageStore::with_limits(hold, caps.0, caps.1, caps.2),
            m: Model::new(hold, caps),
            reg: KeyRegistry::generate(3, 9),
            ever: BTreeSet::new(),
            hits: [0; 9],
        };
        let mut next = [0u64; 3];
        let mut now = SimTime::ZERO;
        let mut probes: BTreeSet<MessageId> = BTreeSet::new();
        for &(kind, origin, pick, dt, extra) in ops {
            now += SimDuration::from_secs(dt);
            let o = origin as usize;
            let at = |seq| MessageId::new(NodeId(origin), seq);
            let evicted: Vec<MessageId> = c.ever.difference(&c.m.seen).copied().collect();
            let seq = match kind {
                0 | 9 => {
                    next[o] += 1;
                    next[o] - 1
                }
                1 => next[o] + 1 + pick % 4,
                3 => 1_000_000 + pick % 5,
                8 => {
                    let top = c.ever.range(at(0)..at(1_000_000)).next_back();
                    let top = top.map_or(0, |id| id.seq);
                    (0..top)
                        .find(|&q| !c.ever.contains(&at(q)))
                        .unwrap_or(top + 1)
                }
                10 if !evicted.is_empty() => evicted[pick as usize % evicted.len()].seq,
                _ => pick % (next[o] + 2),
            };
            // Kind 10 may pick another origin's evicted id.
            let id = match kind {
                10 if !evicted.is_empty() => evicted[pick as usize % evicted.len()],
                _ => at(seq),
            };
            probes.insert(id);
            match kind {
                0..=3 | 8 | 10 => c.insert(now, id, extra % 2 == 1)?,
                9 => {
                    next[o] += 1;
                    probes.insert(at(seq + 1));
                    c.insert(now, at(seq + 1), false)?;
                    now += SimDuration::from_secs(1);
                    c.insert(now, id, false)?;
                }
                4 | 5 => {
                    let (rounds, quota) = (1 + u32::from(extra % 3), usize::from(extra % 3));
                    let did = c.m.advertise(id, rounds, quota);
                    c.hits[1] += u64::from(did == Advertise::OverQuota);
                    prop_assert_eq!(c.s.advertise(id, rounds, quota), did);
                }
                6 => {
                    let cap = 1 + usize::from(extra % 3);
                    let got: Vec<MessageId> = c.s.gossip_round(cap).iter().map(|e| e.id).collect();
                    prop_assert_eq!(got, c.m.gossip_round(cap));
                }
                11 => {
                    let oldest = c.m.messages.values().map(|b| b.1).min();
                    if let Some(oldest) = oldest {
                        now = now.max(oldest + hold + SimDuration::from_micros(1));
                    }
                    c.s.purge(now);
                    c.m.purge(now);
                }
                _ => {
                    c.s.purge(now);
                    c.m.purge(now);
                }
            }
            c.hits[2] += u64::from(c.s.body_rejects() > 0);
            c.hits[3] += u64::from(c.s.seen_evictions() > 0);
            let probes: Vec<MessageId> = probes.iter().copied().collect();
            agree(&c.s, &c.m, &probes)?;
        }
        Ok(c.hits)
    }

    #[test]
    fn store_matches_the_btree_reference_model() {
        let mut hits = [0u64; 9];
        let before = paths();
        let strategy = (
            (0usize..6, 0usize..5, 0usize..8),
            proptest::collection::vec((0u8..12, 0u32..3, 0u64..16, 0u64..3, 0u8..6), 1..80),
        );
        proptest::test_runner::run_cases(
            "store_matches_the_btree_reference_model",
            &ProptestConfig::default(),
            &strategy,
            |(caps, ops)| {
                let case = store_matches_model_case(caps, &ops)?;
                hits.iter_mut().zip(case).for_each(|(h, n)| *h += n);
                Ok(())
            },
        );
        let after = paths();
        for (k, path) in [Path::Merge, Path::Split, Path::Direct, Path::Sparse]
            .into_iter()
            .enumerate()
        {
            let slot = [4, 5, 7, 8][k];
            hits[slot] = after[path as usize] - before[path as usize];
        }
        // Every cap path, range path and lookup path was exercised, the
        // re-insert of a body whose seen-id was evicted included.
        let uncovered: Vec<_> = HIT_NAMES
            .iter()
            .zip(hits)
            .filter(|&(_, h)| h == 0)
            .collect();
        assert!(uncovered.is_empty(), "uncovered: {uncovered:?} of {hits:?}");
    }
}
