//! The Byzantine dissemination protocol node (paper Figures 3–4).
//!
//! A [`ByzcastNode`] runs the paper's three concurrent tasks:
//!
//! 1. **Dissemination** — "messages are disseminated over the overlay by the
//!    overlay nodes": signed data messages are broadcast by the originator
//!    and re-broadcast by nodes whose overlay role is active.
//! 2. **Gossip + recovery** — "signatures about sent messages are gossiped
//!    among all nodes in the system": every node periodically lazycasts the
//!    aggregated signatures of the messages it holds; a node hearing a gossip
//!    for a message it misses requests it from the gossiper and its overlay
//!    neighbours (`REQUEST_MSG`), and overlay nodes that cannot serve a
//!    request search two hops ("in order to bypass a potential neighboring
//!    Byzantine node") via `FIND_MISSING_MSG`.
//! 3. **Overlay maintenance** — periodic signed beacons build each node's
//!    two-hop view; the CDS or MIS+B rule plus the TRUST failure detector
//!    decides the local role.
//!
//! The failure-detector wiring follows the pseudo-code line by line; comments
//! in the handlers cite the corresponding line numbers.

use std::collections::BTreeMap;
use std::sync::Arc;

use byzcast_crypto::{CacheStats, Signer, Verifier};
use byzcast_fd::{mute, Detector, FailureDetectors, MsgKind, Peers, SuspicionLog, TrustLevel};
use byzcast_overlay::{NeighborTable, OverlayProtocol, OverlayRole, TrustView};
use byzcast_sim::{
    counter_set, AppPayload, Context, NodeId, Protocol, SimDuration, SimTime, TimerKey,
};

use crate::config::{
    ByzcastConfig, BEACON_PERIOD, FD_TICK, GOSSIP_ADVERTISE_ROUNDS, MAX_GOSSIP_ENTRIES,
    MAX_REQUESTS_PER_MSG, REBROADCAST_TIMEOUT, REQUEST_RETRY_SPACING, RESPONSE_SERVE_WINDOW,
};
use crate::message::{
    BeaconMsg, DataMsg, FindMissingMsg, GossipEntry, GossipMsg, MessageId, RequestMsg, WireMsg,
};
use crate::recovery::{self, RecoveryStats};
use crate::resources::{Governor, ResourceStats};
use crate::store::{Advertise, MessageStore};

/// Timer keys used by the protocol.
pub mod timers {
    use byzcast_sim::TimerKey;
    /// Gossip lazycast tick (beacons piggyback on it).
    pub const GOSSIP: TimerKey = TimerKey(1);
    /// Failure-detector deadline resolution tick.
    pub const FD: TimerKey = TimerKey(3);
    /// Store purge tick.
    pub const PURGE: TimerKey = TimerKey(4);
    /// Batched request flush.
    pub const REQUEST_FLUSH: TimerKey = TimerKey(5);
    /// Delayed recovery-response flush (`rebroadcast_timeout`).
    pub const RESPONSE_FLUSH: TimerKey = TimerKey(6);
}

/// Book-keeping for a message we know exists (from a gossip) but miss.
#[derive(Clone, Debug)]
struct MissingState {
    entry: GossipEntry,
    /// Gossipers who advertised the message (most recent last, capped).
    heard_from: Vec<NodeId>,
    first_heard: SimTime,
    requests_sent: u32,
    last_request: SimTime,
    /// When the next batched request should go out, if armed.
    request_due: Option<SimTime>,
}

counter_set! {
    /// Protocol-level counters exposed for experiments and tests.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ProtocolCounters {
        /// Application messages this node originated.
        pub data_originated: u64 => sum,
        /// Data messages this node re-broadcast (overlay forwarding + TTL-2).
        pub data_forwards: u64 => sum,
        /// Gossip packets sent.
        pub gossip_packets: u64 => sum,
        /// Gossip entries sent (≥ packets when aggregating).
        pub gossip_entries: u64 => sum,
        /// `REQUEST_MSG`s sent.
        pub requests_sent: u64 => sum,
        /// `FIND_MISSING_MSG`s sent (originated, not forwarded).
        pub finds_sent: u64 => sum,
        /// Recovery responses served (data re-sent on request/find).
        pub recoveries_served: u64 => sum,
        /// Messages this node obtained through the recovery path.
        pub recovered_via_request: u64 => sum,
        /// Messages or beacons rejected for bad signatures.
        pub bad_signatures_seen: u64 => sum,
        /// Beacons sent.
        pub beacons_sent: u64 => sum,
        /// Signature verifications answered by this node's verification cache.
        /// Zero while the node runs (filled from [`ByzcastNode::sig_cache_stats`]
        /// when the harness totals counters).
        pub sig_cache_hits: u64 => sum,
        /// Signature verifications that ran the real verifier (see
        /// `sig_cache_hits`).
        pub sig_cache_misses: u64 => sum,
    }
}

/// Adapts a node's trust levels to the overlay's [`TrustView`] at a fixed
/// instant.
struct TrustAt<'a> {
    node: &'a ByzcastNode,
    now: SimTime,
}

impl TrustView for TrustAt<'_> {
    fn level(&self, node: NodeId) -> TrustLevel {
        self.node.trust_level(node, self.now)
    }
}

/// A node running the Byzantine broadcast protocol.
///
/// Every node handles every frame it overhears, so the simulator's cost per
/// reception is mostly the cost of reaching the receiver's state. The node
/// is therefore split by use: this head holds what a DATA or gossip
/// reception, an fd tick or frame admission reads or writes, and everything
/// else — what only a first reception's bookkeeping, another timer, a
/// recovery branch or a report touches — sits behind one box, `Cold`.
/// A new field goes in the head only if one of those four paths touches it
/// every time; `tests::hot_head_fits_its_cache_lines` pins the head's size.
pub struct ByzcastNode {
    id: NodeId,
    role: OverlayRole,
    /// Wu–Li marked flag advertised alongside the role.
    marked: bool,
    /// The `ByzcastConfig` values the hot paths read.
    hot_config: HotConfig,
    /// Admission control and verification budgets (resource governance).
    governor: Governor,
    store: MessageStore,
    /// Recovery responses scheduled after `rebroadcast_timeout` jitter,
    /// cancelled if another node's rebroadcast is overheard first (response
    /// implosion suppression: one answer instead of one per overlay
    /// neighbour).
    pending_responses: BTreeMap<MessageId, PendingResponse>,
    fds: FailureDetectors,
    /// The one peer table: neighbour beacons and the detectors' rows.
    table: NeighborTable,
    verifier: Arc<dyn Verifier + Send + Sync>,
    missing: BTreeMap<MessageId, MissingState>,
    /// Peak `missing` size (resource-stats high-water mark).
    peak_missing: usize,
    cold: Box<Cold>,
}

/// The `ByzcastConfig` values a reception or an fd tick reads, copied into
/// the node's head so those paths never reach the configuration itself.
#[derive(Clone, Copy, Debug)]
struct HotConfig {
    request_timeout: SimDuration,
    max_gossip_per_origin: usize,
    max_missing_per_origin: usize,
    /// Total request rounds allowed per missing message: the plain retry cap
    /// normally, or unicast rounds + widened rounds when the recovery
    /// envelope is on.
    request_cap: u32,
    /// `ByzcastConfig::recovery`: escalation and re-election on indictment.
    recovery: bool,
}

impl HotConfig {
    fn of(config: &ByzcastConfig) -> Self {
        HotConfig {
            request_timeout: config.request_timeout,
            max_gossip_per_origin: config.resources.max_gossip_per_origin,
            max_missing_per_origin: config.resources.max_missing_per_origin,
            request_cap: if config.recovery {
                recovery::ESCALATE_AFTER + recovery::MAX_ESCALATIONS
            } else {
                MAX_REQUESTS_PER_MSG
            },
            recovery: config.recovery,
        }
    }
}

/// The state of a [`ByzcastNode`] that no reception or fd tick touches in
/// the common case.
struct Cold {
    config: ByzcastConfig,
    signer: Box<dyn Signer + Send>,
    overlay_protocol: Box<dyn OverlayProtocol + Send>,
    next_seq: u64,
    counters: ProtocolCounters,
    /// History of this node's own TRUST suspicions (for experiment R6).
    sus_log: SuspicionLog,
    /// When the last beacon was piggybacked (`None` = one is due now).
    last_beacon: Option<SimTime>,
    /// `FIND_MISSING` searches re-flooded recently: each message id is
    /// re-flooded at most once per window, or a single search sweeping a
    /// dense region explodes quadratically.
    finds_forwarded: BTreeMap<MessageId, SimTime>,
    /// When each message id was last served with a recovery response: a
    /// holder answers a given id at most once per window, bounding response
    /// implosion even when collisions hide other holders' answers.
    served_recently: BTreeMap<MessageId, SimTime>,
    /// The last beacon signed, re-sent as is while its contents still hold
    /// (both signature schemes are deterministic, so re-signing the same
    /// contents would give the same bytes).
    signed_beacon: Option<BeaconMsg>,
    /// Escalated-recovery and overlay-repair accounting (only reported when
    /// the `ByzcastConfig::recovery` envelope is enabled).
    recovery_stats: RecoveryStats,
}

/// A scheduled recovery response.
#[derive(Clone, Copy, Debug)]
struct PendingResponse {
    due: SimTime,
    ttl: u8,
}

impl ByzcastNode {
    /// Creates a node.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `signer` does not sign as
    /// `id`.
    pub fn new(
        id: NodeId,
        config: ByzcastConfig,
        signer: Box<dyn Signer + Send>,
        verifier: Arc<dyn Verifier + Send + Sync>,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid byzcast config: {e}");
        }
        assert_eq!(signer.id().0, id.0, "signer must sign as the node's own id");
        let mut fds = FailureDetectors::default();
        // VERBOSE spacing rules, "invoked at initialization time" (paper
        // §2.2): consecutive gossips or beacons from one node arriving
        // closer together than 60% of the period are a verbose fault. MAC
        // backoff jitter is sub-millisecond, so compliant senders sit far
        // from the rule; a node transmitting at double rate trips it on
        // every arrival.
        let spacing = |period: SimDuration| SimDuration::from_micros(period.as_micros() * 3 / 5);
        fds.verbose
            .set_min_spacing(MsgKind::Gossip, spacing(config.gossip_period));
        fds.verbose
            .set_min_spacing(MsgKind::Beacon, spacing(BEACON_PERIOD));
        // Neighbour entries expire after three missed beacons.
        let table = NeighborTable::new(BEACON_PERIOD.saturating_mul(3));
        let overlay_protocol = config.overlay.build();
        let store = MessageStore::with_limits(
            config.purge_after,
            config.resources.max_store_msgs,
            config.resources.max_store_bytes,
            config.resources.max_seen_ids,
        );
        let governor = Governor::new(config.resources);
        ByzcastNode {
            id,
            role: OverlayRole::Passive,
            marked: false,
            hot_config: HotConfig::of(&config),
            governor,
            store,
            pending_responses: BTreeMap::new(),
            fds,
            table,
            verifier,
            missing: BTreeMap::new(),
            peak_missing: 0,
            cold: Box::new(Cold {
                config,
                signer,
                overlay_protocol,
                next_seq: 0,
                counters: ProtocolCounters::default(),
                sus_log: SuspicionLog::new(),
                last_beacon: None,
                finds_forwarded: BTreeMap::new(),
                served_recently: BTreeMap::new(),
                signed_beacon: None,
                recovery_stats: RecoveryStats::default(),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Inspection API (tests, harness, experiments)
    // ------------------------------------------------------------------

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The key this node signs with.
    pub fn signer(&self) -> &dyn Signer {
        self.cold.signer.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &ByzcastConfig {
        &self.cold.config
    }

    /// Current overlay role.
    pub fn role(&self) -> OverlayRole {
        self.role
    }

    /// Whether this node currently considers itself an overlay node.
    pub fn is_overlay(&self) -> bool {
        self.role.is_active()
    }

    /// Protocol counters.
    pub fn counters(&self) -> &ProtocolCounters {
        &self.cold.counters
    }

    /// Hit/miss counters of this node's signature-verification cache, if its
    /// verifier memoizes (see `ByzcastConfig::sig_cache_capacity`).
    pub fn sig_cache_stats(&self) -> Option<CacheStats> {
        self.verifier.cache_stats()
    }

    /// The message buffer.
    pub fn store(&self) -> &MessageStore {
        &self.store
    }

    /// Resource-governance statistics: admission drops, evictions, quota
    /// suspicions, and high-water marks against the configured envelope.
    pub fn resource_stats(&self) -> ResourceStats {
        let mut s = self.governor.stats();
        s.store_rejects = self.store.body_rejects();
        s.seen_evictions = self.store.seen_evictions();
        s.peak_store_msgs = self.store.high_water() as u64;
        s.peak_store_bytes = self.store.peak_bytes() as u64;
        s.peak_seen_ids = self.store.peak_seen() as u64;
        s.peak_active_gossip = self.store.peak_advertised() as u64;
        s.peak_missing = self.peak_missing as u64;
        s
    }

    /// Recovery-escalation statistics: widened retries, escalated searches,
    /// escalation high-water, and liveness-driven overlay repairs.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.cold.recovery_stats
    }

    /// The neighbour table.
    pub fn table(&self) -> &NeighborTable {
        &self.table
    }

    /// The failure detectors.
    pub fn fds(&self) -> &FailureDetectors {
        &self.fds
    }

    /// Number of known-missing messages awaiting recovery.
    pub fn missing_count(&self) -> usize {
        self.missing.len()
    }

    /// This node's suspicion history (open and closed episodes).
    pub fn suspicion_log(&self) -> &SuspicionLog {
        &self.cold.sus_log
    }

    /// The trust level this node assigns `other` at `now`.
    pub fn trust_level(&self, other: NodeId, now: SimTime) -> TrustLevel {
        self.fds.trust.level(&self.table, other, now)
    }

    /// Bytes this node holds, per structure, counted from lengths and
    /// capacities (no allocator hooks, no RNG draws, nothing reordered):
    /// `hot_head` and `cold` are the two parts' own sizes; every other
    /// figure is one structure's inline size plus what it allocates, so
    /// those overlap the first two. A map entry counts as its key and
    /// value. Message bodies and advertised neighbour lists are shared with
    /// the rest of the network and are not counted.
    pub fn footprint(&self) -> Vec<(&'static str, usize)> {
        use std::mem::size_of;
        fn map_bytes<K, V>(m: &BTreeMap<K, V>) -> usize {
            size_of::<BTreeMap<K, V>>() + m.len() * size_of::<(K, V)>()
        }
        let heard_from: usize = self
            .missing
            .values()
            .map(|ms| ms.heard_from.capacity() * size_of::<NodeId>())
            .sum();
        let fds = &self.fds;
        vec![
            ("hot_head", size_of::<Self>()),
            ("cold", size_of::<Cold>()),
            ("store", size_of::<MessageStore>() + self.store.heap_bytes()),
            (
                "table",
                size_of::<NeighborTable>() + self.table.heap_bytes(),
            ),
            ("mute", size_of_val(&fds.mute) + fds.mute.heap_bytes()),
            ("verbose", size_of_val(&fds.verbose)),
            ("trust", size_of_val(&fds.trust) + fds.trust.heap_bytes()),
            (
                "recovery",
                map_bytes(&self.missing)
                    + heard_from
                    + map_bytes(&self.pending_responses)
                    + map_bytes(&self.cold.finds_forwarded)
                    + map_bytes(&self.cold.served_recently),
            ),
            (
                "governor",
                size_of::<Governor>() + self.governor.heap_bytes(),
            ),
        ]
    }

    /// Replaces the overlay maintenance rule.
    ///
    /// Used by tests and by Byzantine wrappers — e.g. a mute adversary that
    /// always *claims* to be a dominator so correct neighbours defer to it,
    /// which is exactly the attack the MUTE failure detector must defeat.
    pub fn set_overlay_protocol(&mut self, protocol: Box<dyn OverlayProtocol + Send>) {
        self.cold.overlay_protocol = protocol;
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// `OL(1, p)`: the trusted neighbours currently advertising an active
    /// overlay role.
    fn overlay_neighbors(&self, now: SimTime) -> Vec<NodeId> {
        self.table
            .iter()
            .filter(|(id, info)| {
                info.role.is_active() && self.trust_level(*id, now) == TrustLevel::Trusted
            })
            .map(|(id, _)| id)
            .collect()
    }

    fn neighbor_is_overlay(&self, node: NodeId) -> bool {
        self.table.info(node).is_some_and(|i| i.role.is_active())
    }

    /// Counts a signature by `node` that did not verify, and suspects it.
    fn bad_signature(&mut self, now: SimTime, node: NodeId) {
        self.cold.counters.bad_signatures_seen += 1;
        self.fds.trust.suspect(now, &mut self.table, node);
    }

    /// Records one resource-governance violation by `from`; sustained
    /// violations convert into VERBOSE indictments (every
    /// `verbose::QUOTA_VIOLATION_THRESHOLD`-th), so a flooder is eventually
    /// suspected and shed from the overlay, not just throttled.
    fn note_quota_violation(&mut self, now: SimTime, from: NodeId) {
        let table = &mut self.table;
        if self.fds.verbose.report_quota_violation(now, table, from) {
            self.governor.stats_mut().quota_suspicions += 1;
        }
    }

    /// Charges one signature verification against `from`'s budget *before*
    /// the crypto runs. On `false` the caller must drop the item unverified
    /// — and unsuspected, since nothing was authenticated.
    fn may_verify(&mut self, now: SimTime, from: NodeId) -> bool {
        if self.governor.admit_verification(now, from) {
            true
        } else {
            self.note_quota_violation(now, from);
            false
        }
    }

    /// Opens an advertisement slot of `rounds` for the buffered body of
    /// `id`, heard from `from`. Per-origin quotas bound how much
    /// advertisement bookkeeping a single (possibly Byzantine) originator
    /// can occupy; a node's own messages are exempt (origination is
    /// application-driven). Returns whether the body is buffered.
    fn advertise(&mut self, now: SimTime, from: NodeId, id: MessageId, rounds: u32) -> bool {
        let quota = if id.origin == self.id {
            0
        } else {
            self.hot_config.max_gossip_per_origin
        };
        match self.store.advertise(id, rounds, quota) {
            Advertise::NoBody => return false,
            Advertise::OverQuota => {
                self.governor.stats_mut().quota_drops += 1;
                self.note_quota_violation(now, from);
            }
            Advertise::Held | Advertise::Armed => {}
        }
        true
    }

    // ------------------------------------------------------------------
    // Dissemination task (Figure 3, lines 1–25)
    // ------------------------------------------------------------------

    fn handle_data(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, m: &Arc<DataMsg>) {
        let now = ctx.now();
        // Feed the MUTE detector on *every* reception, duplicates included:
        // the overlay copy satisfying an earlier expectation typically
        // arrives after the copy that triggered it.
        self.fds.mute.observe((m.id.origin, m.id.seq), from);
        // Another node rebroadcast this message: cancel our own scheduled
        // recovery response for it (implosion suppression).
        self.pending_responses.remove(&m.id);

        // Line 25: duplicates are ignored.
        if self.store.seen(m.id) {
            return;
        }
        // Budget the two signature checks below against `from` before any
        // crypto runs, so ill-signed garbage cannot burn unbounded CPU.
        if !self.may_verify(now, from) || !self.may_verify(now, from) {
            return;
        }
        // Lines 6 / 22–24: verify both originator signatures; on mismatch
        // "m is ignored and the process that sent it is suspected".
        if !m.verify(self.verifier.as_ref()) || !m.gossip_entry().verify(self.verifier.as_ref()) {
            self.bad_signature(now, from);
            return;
        }

        // Line 7: accept — forward to the application. The store and any
        // forward below keep the received body itself (or, for a TTL-2
        // response, one TTL-1 copy of it).
        let body = DataMsg::share_with_ttl(m, 1);
        self.store.insert(now, Arc::clone(&body));
        ctx.deliver(m.id.origin, m.payload_id);
        // Obtaining the message discharges every pending expectation for it
        // (e.g. the request-path expectation on the targeted gossiper, whom
        // another holder may have answered for).
        self.fds.mute.satisfy((m.id.origin, m.id.seq));
        if let Some(ms) = self.missing.remove(&m.id) {
            if ms.requests_sent > 0 {
                self.cold.counters.recovered_via_request += 1;
            }
        }
        // Advertise only what we can serve: a body rejected by the store
        // caps is not gossiped (we could not answer the requests the gossip
        // would invite), and per-origin quotas bound a flooder's share of
        // the advertisement bookkeeping.
        self.advertise(now, from, m.id, GOSSIP_ADVERTISE_ROUNDS);

        // Lines 8–11: received the correct message, but not from an overlay
        // node and not from the originator → the overlay neighbours were
        // supposed to forward it; tell MUTE to expect that.
        let from_is_originator = from == m.id.origin;
        if !from_is_originator && !self.neighbor_is_overlay(from) {
            let ol = self.overlay_neighbors(now);
            self.fds.mute.expect(now, (m.id.origin, m.id.seq), &ol);
        }

        // Lines 12–18: overlay nodes forward; non-overlay nodes forward only
        // TTL-2 recovery responses (one extra hop).
        if self.role.is_active() || m.ttl == 2 {
            ctx.send(WireMsg::Data(body));
            self.cold.counters.data_forwards += 1;
        }
    }

    // ------------------------------------------------------------------
    // Gossip + recovery task (Figure 3 lines 26–41, Figure 4)
    // ------------------------------------------------------------------

    fn handle_gossip_entry(
        &mut self,
        ctx: &mut Context<'_, WireMsg>,
        from: NodeId,
        e: &GossipEntry,
    ) {
        let now = ctx.now();
        // Entries for messages we already hold need no re-verification: we
        // never use their contents (our own stored copy backs any echo), so
        // the signature check — the hot cost at scale — runs only for
        // genuinely new announcements.
        // Lines 34–37: we have the message — echo its gossip once. A slot
        // whose window closed stays closed, so the echo cannot be re-armed
        // forever by mutual re-advertising.
        if self.advertise(now, from, e.id, 1) {
            return;
        }
        if self.store.seen(e.id) {
            return; // had it, purged: stale gossip
        }
        // Budget the signature check before the crypto runs.
        if !self.may_verify(now, from) {
            return;
        }
        // Lines 26 / 39–41: authenticate the gossiped signature.
        if !e.verify(self.verifier.as_ref()) {
            self.bad_signature(now, from);
            return;
        }
        // Per-origin quota on the request bookkeeping: a flooder gossiping
        // unique ids cannot grow `missing` beyond its envelope share.
        let quota = self.hot_config.max_missing_per_origin;
        if quota != 0 && !self.missing.contains_key(&e.id) {
            let tracked = self
                .missing
                .range(MessageId::new(e.id.origin, 0)..=MessageId::new(e.id.origin, u64::MAX))
                .count();
            if tracked >= quota {
                self.governor.stats_mut().quota_drops += 1;
                self.note_quota_violation(now, from);
                return;
            }
        }
        // Lines 27–33: the message is missing.
        let ms = self.missing.entry(e.id).or_insert_with(|| MissingState {
            entry: *e,
            heard_from: Vec::new(),
            first_heard: now,
            requests_sent: 0,
            last_request: SimTime::ZERO,
            request_due: None,
        });
        if !ms.heard_from.contains(&from) {
            if ms.heard_from.len() >= 4 {
                ms.heard_from.remove(0);
            }
            ms.heard_from.push(from);
        }
        self.peak_missing = self.peak_missing.max(self.missing.len());
        // Line 28's expectation — "since q gossiped about m, it should have
        // m and supply it when needed" — splits by who gossiped. The
        // *originator* owes us the broadcast itself (no request is sent to
        // it), so it is put on notice immediately; any other gossiper only
        // owes an *answer to a request*, so its expectation is registered
        // when the request actually goes out (see `flush_requests` — our
        // request may be suppressed by a neighbour's duplicate, and then the
        // gossiper owes nothing).
        if from == e.id.origin {
            self.fds.mute.expect(now, (e.id.origin, e.id.seq), &[from]);
        }
        // Lines 29–32: a non-originator gossiper is requested after
        // `request_timeout`. When the gossiper *is* the originator the paper
        // sends no request at all ("the originator is expected to broadcast
        // the message itself") — but if the originator's one broadcast was
        // lost at every receiver, that rule deadlocks the message. We keep
        // the spirit (give the originator its MUTE expect window to
        // retransmit) and then fall back to a delayed request, so the
        // recovery chain of Theorem 3.2 also starts at the first hop.
        let originator_grace = if from == e.id.origin {
            mute::EXPECT_TIMEOUT
        } else {
            SimDuration::ZERO
        };
        // Per-node jitter (up to half a request timeout) desynchronizes the
        // neighbours that all heard the same gossip at the same instant.
        let jitter = SimDuration::from_micros(
            ctx.rng()
                .gen_range_u64(self.hot_config.request_timeout.as_micros().max(2) / 2),
        );
        let cap = self.hot_config.request_cap;
        let ms = self.missing.get_mut(&e.id).expect("just inserted");
        let may_request = ms.requests_sent < cap
            && now.saturating_since(ms.last_request) >= REQUEST_RETRY_SPACING;
        if may_request && ms.request_due.is_none() {
            let due = now + self.hot_config.request_timeout + originator_grace + jitter;
            ms.request_due = Some(due);
            ctx.set_timer_at(due, timers::REQUEST_FLUSH);
        }
    }

    fn flush_requests(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let now = ctx.now();
        let mut next_due: Option<SimTime> = None;
        let due_ids: Vec<MessageId> = self
            .missing
            .iter()
            .filter(|(_, ms)| ms.request_due.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        let cap = self.hot_config.request_cap;
        let escalate = self.hot_config.recovery;
        for id in due_ids {
            let Some(ms) = self.missing.get_mut(&id) else {
                continue;
            };
            ms.request_due = None;
            if self.store.has(id) {
                continue; // recovered meanwhile
            }
            let Some(&target) = ms.heard_from.last() else {
                continue;
            };
            let entry = ms.entry;
            let round = ms.requests_sent;
            ms.requests_sent += 1;
            ms.last_request = now;
            if escalate && round >= recovery::ESCALATE_AFTER {
                // Escalated round: the remembered gossiper has gone
                // `ESCALATE_AFTER` rounds without answering — on a thin
                // chain it may be the crashed node itself, so stop trusting
                // it. Widen the request to a rotating window of trusted
                // neighbours (non-dominators included) and flood a
                // TTL-bumped search so recovery no longer depends on a
                // healthy two-hop overlay path.
                let level = round - recovery::ESCALATE_AFTER; // 0-based widened round
                if ms.requests_sent < cap {
                    ms.request_due = Some(now + recovery::backoff(level));
                }
                let peers: Vec<NodeId> = self
                    .table
                    .iter()
                    .filter(|&(id, _)| self.trust_level(id, now) != TrustLevel::Untrusted)
                    .map(|(id, _)| id)
                    .collect();
                let widened: Vec<NodeId> = if peers.is_empty() {
                    Vec::new()
                } else {
                    let start = (level as usize).wrapping_mul(recovery::WIDEN_FANOUT) % peers.len();
                    (0..recovery::WIDEN_FANOUT.min(peers.len()))
                        .map(|i| peers[(start + i) % peers.len()])
                        .collect()
                };
                for peer in widened {
                    ctx.send(WireMsg::Request(RequestMsg {
                        entry,
                        target: peer,
                    }));
                    self.cold.counters.requests_sent += 1;
                    self.cold.recovery_stats.requests_widened += 1;
                    // Deliberately no MUTE expectation: unlike the
                    // remembered gossiper, a widened target never
                    // advertised the message and may legitimately lack it.
                }
                ctx.send(WireMsg::FindMissing(FindMissingMsg {
                    entry,
                    target: self.id,
                    ttl: recovery::FIND_TTL,
                }));
                self.cold.counters.finds_sent += 1;
                self.cold.recovery_stats.finds_escalated += 1;
                let stats = &mut self.cold.recovery_stats;
                stats.peak_escalation = stats.peak_escalation.max(u64::from(level) + 1);
            } else {
                // Self-re-arm while retries remain, so recovery does not
                // depend on hearing the gossip again (advertisement windows
                // close).
                if ms.requests_sent < cap {
                    ms.request_due = Some(now + REQUEST_RETRY_SPACING);
                }
                // Line 32: ask the gossiper and the overlay neighbours (one
                // broadcast reaches both; handlers filter by role/target).
                ctx.send(WireMsg::Request(RequestMsg { entry, target }));
                self.cold.counters.requests_sent += 1;
                self.cold.recovery_stats.requests_originated += 1;
                // Line 28: the targeted gossiper advertised the message, so
                // it must supply it now; anyone's rebroadcast satisfies this.
                self.fds
                    .mute
                    .expect(now, (entry.id.origin, entry.id.seq), &[target]);
            }
        }
        for ms in self.missing.values() {
            if let Some(d) = ms.request_due {
                next_due = Some(next_due.map_or(d, |nd: SimTime| nd.min(d)));
            }
        }
        if let Some(d) = next_due {
            ctx.set_timer_at(d, timers::REQUEST_FLUSH);
        }
    }

    /// Schedules a recovery rebroadcast of `id` after a random fraction of
    /// `rebroadcast_timeout` — "the time between getting a request message
    /// and sending the message that fits" — so that of the many overlay
    /// neighbours holding the message, typically one answers and the rest
    /// suppress on overhearing it.
    fn schedule_response(&mut self, ctx: &mut Context<'_, WireMsg>, id: MessageId, ttl: u8) {
        let now = ctx.now();
        // Serve each id at most once per serve window: collisions can hide
        // other holders' answers from us, and without this cap a burst of
        // requests turns every holder into a responder. The window is
        // deliberately shorter than `REQUEST_RETRY_SPACING` (asserted at
        // compile time in config) — the two used to share one knob, and
        // because this window starts at the jittered *serve* time, a retry
        // spaced exactly one retry window after the original request landed
        // inside it and was silently refused.
        if let Some(&last) = self.cold.served_recently.get(&id) {
            if now.saturating_since(last) < RESPONSE_SERVE_WINDOW {
                return;
            }
        }
        let span = REBROADCAST_TIMEOUT.as_micros();
        let jitter = SimDuration::from_micros(ctx.rng().gen_range_u64(span));
        let due = now + jitter;
        let entry = self
            .pending_responses
            .entry(id)
            .or_insert(PendingResponse { due, ttl });
        entry.due = entry.due.min(due);
        entry.ttl = entry.ttl.max(ttl);
        let at = entry.due;
        ctx.set_timer_at(at, timers::RESPONSE_FLUSH);
    }

    /// Sends the due recovery responses (unless meanwhile cancelled).
    fn flush_responses(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let now = ctx.now();
        let due_ids: Vec<MessageId> = self
            .pending_responses
            .iter()
            .filter(|(_, p)| p.due <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in due_ids {
            let Some(p) = self.pending_responses.remove(&id) else {
                continue;
            };
            if let Some(stored) = self.store.get(id) {
                ctx.send(WireMsg::Data(DataMsg::share_with_ttl(&stored.msg, p.ttl)));
                self.cold.counters.recoveries_served += 1;
                self.cold.served_recently.insert(id, now);
            }
        }
        if let Some(next) = self.pending_responses.values().map(|p| p.due).min() {
            ctx.set_timer_at(next, timers::RESPONSE_FLUSH);
        }
    }

    /// Figure 4 lines 42–61: `REQUEST_MSG` handling. `from` is the requester
    /// (`p_j`); `r.target` the gossiper (`p_k`).
    fn handle_request(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, r: &RequestMsg) {
        let now = ctx.now();
        if !self.may_verify(now, from) {
            return;
        }
        if !r.entry.verify(self.verifier.as_ref()) {
            self.bad_signature(now, from);
            return;
        }
        // Someone else is already requesting this message: *defer* our own
        // pending request past a retry window — the broadcast answer will
        // reach us too, and if it does not (lost to a hidden-terminal
        // collision) our deferred request still fires. Cancelling outright
        // deadlocks when all requesters suppress each other.
        if let Some(ms) = self.missing.get_mut(&r.entry.id) {
            if ms.request_due.is_some() {
                let deferred = now + REQUEST_RETRY_SPACING;
                ms.request_due = Some(deferred);
                ms.last_request = now;
                ctx.set_timer_at(deferred, timers::REQUEST_FLUSH);
            }
        }
        // Line 43: only overlay nodes and the targeted gossiper respond.
        if !(self.role.is_active() || self.id == r.target) {
            return;
        }
        if self.store.has(r.entry.id) {
            // Lines 45–47: an overlay node already broadcast this message;
            // a request for it counts against the requester.
            if self.role.is_active() {
                self.fds.verbose.indict(now, &mut self.table, from);
            }
            // Line 48: rebroadcast the data (after the rebroadcast_timeout
            // jitter, suppressed if another holder answers first).
            self.schedule_response(ctx, r.entry.id, 1);
        } else if from != r.entry.id.origin {
            // Lines 50–53: we don't have it either; overlay nodes search two
            // hops to bypass a potential Byzantine neighbour.
            if self.role.is_active() {
                ctx.send(WireMsg::FindMissing(FindMissingMsg {
                    entry: r.entry,
                    target: r.target,
                    ttl: 2,
                }));
                self.cold.counters.finds_sent += 1;
            }
        } else {
            // Lines 54–56: the originator requesting its own message is
            // nonsensical — indict.
            self.fds.verbose.indict(now, &mut self.table, from);
        }
    }

    /// Figure 4 lines 62–81: `FIND_MISSING_MSG` handling.
    fn handle_find(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, f: &FindMissingMsg) {
        let now = ctx.now();
        if !self.may_verify(now, from) {
            return;
        }
        if !f.entry.verify(self.verifier.as_ref()) {
            self.bad_signature(now, from);
            return;
        }
        // An escalated search (TTL above the paper's fixed 2) only exists
        // when the recovery envelope is on; its searcher is known to be
        // stranded, so holders of *any* role answer and nobody indicts it.
        let escalated = self.hot_config.recovery && f.ttl > 2;
        if self.store.has(f.entry.id) {
            // Lines 68–77.
            if self.role.is_active() || self.id == f.target || escalated {
                if self.table.contains(from) {
                    // Line 69–73: the searcher is our direct neighbour — an
                    // overlay node must already have broadcast to it, so the
                    // search counts against it; answer locally.
                    if self.role.is_active() && !escalated {
                        self.fds.verbose.indict(now, &mut self.table, from);
                    }
                    self.schedule_response(ctx, f.entry.id, 1);
                } else {
                    // Line 75: two hops away — answer with TTL 2 so the data
                    // can travel back across the intermediate hop.
                    self.schedule_response(ctx, f.entry.id, 2);
                }
            }
        } else if f.ttl == 2 || (escalated && f.ttl <= recovery::FIND_TTL) {
            // Lines 63–66: keep flooding one more hop — but re-flood each
            // searched id at most once per window, or one search sweeping a
            // dense region is amplified by every node that lacks the
            // message. Escalated searches decrement hop by hop the same way,
            // so a TTL-bumped flood travels `FIND_TTL` hops in total.
            let fresh = match self.cold.finds_forwarded.get(&f.entry.id) {
                Some(&last) => now.saturating_since(last) >= REQUEST_RETRY_SPACING,
                None => true,
            };
            if fresh {
                self.cold.finds_forwarded.insert(f.entry.id, now);
                ctx.send(WireMsg::FindMissing(FindMissingMsg {
                    ttl: f.ttl - 1,
                    ..*f
                }));
            }
        }
    }

    // ------------------------------------------------------------------
    // Overlay maintenance (paper §3.3)
    // ------------------------------------------------------------------

    fn handle_beacon(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, b: &BeaconMsg) {
        let now = ctx.now();
        if b.sender() != from {
            // The radio identified the true transmitter; a beacon claiming a
            // different sender is an impersonation attempt.
            self.fds.trust.suspect(now, &mut self.table, from);
            return;
        }
        if !self.may_verify(now, from) {
            return;
        }
        if !b.verify(self.verifier.as_ref()) {
            self.bad_signature(now, from);
            return;
        }
        let (verbose, table) = (&mut self.fds.verbose, &mut self.table);
        verbose.observe_arrival(now, table, from, MsgKind::Beacon);
        self.table
            .record_beacon_marked(now, from, b.role(), b.marked(), b.lists().clone());
        // Second-hand suspicion reports ("a node that suspects one of its
        // neighbors should notify its other neighbors about this suspicion").
        let trust = &mut self.fds.trust;
        for &s in b.suspects() {
            if s != self.id {
                trust.report_from_neighbor(now, &self.table, from, s);
            }
        }
        let _ = ctx;
    }

    /// Runs the periodic overlay-maintenance computation step (paper §3.3)
    /// and builds the signed beacon to advertise: the previous one when
    /// role, marked flag, lists and suspects are all unchanged, else a
    /// newly signed one.
    fn make_beacon(&mut self, now: SimTime) -> BeaconMsg {
        self.table.prune(now);
        self.fds.tick(now, &mut self.table);
        // Local computation step: decide our role from the current view.
        let trust_view = TrustAt { node: self, now };
        let decision = self
            .cold
            .overlay_protocol
            .decide(self.id, &self.table, &trust_view);
        self.role = decision.role;
        self.marked = decision.marked;
        let mut suspects = self.table.suspects(Detector::Trust, now);
        suspects.truncate(16);
        self.cold.counters.beacons_sent += 1;
        let table = &self.table;
        let neighbors = || table.iter().map(|(id, _)| id);
        let dominator_neighbors = || {
            table
                .iter()
                .filter(|(_, i)| i.role == OverlayRole::Dominator)
                .map(|(id, _)| id)
        };
        if let Some(prev) = &self.cold.signed_beacon {
            if prev.role() == self.role
                && prev.marked() == self.marked
                && prev.suspects() == suspects
                && prev.neighbors().iter().copied().eq(neighbors())
                && prev
                    .dominator_neighbors()
                    .iter()
                    .copied()
                    .eq(dominator_neighbors())
            {
                return prev.clone();
            }
        }
        let b = BeaconMsg::sign_marked(
            self.cold.signer.as_ref(),
            self.role,
            self.marked,
            neighbors().collect::<Vec<_>>(),
            dominator_neighbors().collect::<Vec<_>>(),
            suspects,
        );
        self.cold.signed_beacon = Some(b.clone());
        b
    }

    /// The periodic lazycast: aggregated gossip entries, with the overlay
    /// beacon piggybacked whenever one is due ("most overlay maintenance
    /// messages can be piggybacked on gossip messages").
    fn gossip_tick(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let now = ctx.now();
        let beacon_due = self
            .cold
            .last_beacon
            .is_none_or(|t| now.saturating_since(t) >= BEACON_PERIOD);
        let beacon = if beacon_due {
            self.cold.last_beacon = Some(now);
            Some(self.make_beacon(now))
        } else {
            None
        };
        // Only gossip messages we still hold (purging stops their gossip)
        // and whose advertisement window is open.
        let entries = self.store.gossip_round(MAX_GOSSIP_ENTRIES);
        if self.cold.config.aggregate_gossip {
            if !entries.is_empty() || beacon.is_some() {
                self.cold.counters.gossip_packets += 1;
                self.cold.counters.gossip_entries += entries.len() as u64;
                ctx.send(WireMsg::Gossip(GossipMsg { entries, beacon }));
            }
        } else {
            // Ablation (experiment R8): one packet per entry; the beacon
            // travels in its own packet too.
            for e in entries {
                self.cold.counters.gossip_packets += 1;
                self.cold.counters.gossip_entries += 1;
                ctx.send(WireMsg::Gossip(GossipMsg::of_entries(vec![e])));
            }
            if let Some(b) = beacon {
                ctx.send(WireMsg::Gossip(GossipMsg {
                    entries: vec![],
                    beacon: Some(b),
                }));
            }
        }
        ctx.set_timer_after(self.cold.config.gossip_period, timers::GOSSIP);
    }

    fn fd_tick(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let now = ctx.now();
        self.fds.tick(now, &mut self.table);
        // Log TRUST transitions for the interval-FD analyses; the fresh
        // suspects are also the freshly indicted neighbours.
        let (fresh, ended) = self.fds.trust.sync_logged(now, &mut self.table);
        for &n in &fresh {
            self.cold.sus_log.begin(now, self.id, n);
        }
        for &n in &ended {
            self.cold.sus_log.end(now, self.id, n);
        }
        if self.hot_config.recovery {
            // Liveness-driven overlay repair: a freshly indicted neighbour —
            // or one whose beacons expired — otherwise lingers in the table
            // until the next beacon round, absorbing unicast REQUESTs and
            // holding its (possibly dominator) role in our view. Purge it
            // and re-run the overlay decision now, at fd_tick granularity,
            // so a crashed dominator's role is re-assigned within one
            // beacon period.
            let removed = fresh.iter().filter(|&&n| self.table.remove(n)).count();
            let purged = (removed + self.table.prune(now)) as u64;
            self.cold.recovery_stats.neighbors_purged += purged;
            if purged > 0 || !fresh.is_empty() {
                self.reelect(now);
            }
        }
        ctx.set_timer_after(FD_TICK, timers::FD);
    }

    /// Re-runs the overlay decision outside the beacon cycle. On a role or
    /// marked change the next gossip tick advertises it immediately (the
    /// beacon is forced due), so neighbours learn of the repair within one
    /// gossip period instead of one beacon period.
    fn reelect(&mut self, now: SimTime) {
        let trust_view = TrustAt { node: self, now };
        let decision = self
            .cold
            .overlay_protocol
            .decide(self.id, &self.table, &trust_view);
        if decision.role != self.role || decision.marked != self.marked {
            self.role = decision.role;
            self.marked = decision.marked;
            self.cold.last_beacon = None;
            self.cold.recovery_stats.reelections += 1;
        }
    }

    fn purge_tick(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let now = ctx.now();
        self.store.purge(now);
        let horizon = self.cold.config.purge_after;
        self.missing
            .retain(|_, ms| now.saturating_since(ms.first_heard) <= horizon);
        self.cold
            .finds_forwarded
            .retain(|_, &mut t| now.saturating_since(t) <= horizon);
        self.cold
            .served_recently
            .retain(|_, &mut t| now.saturating_since(t) <= horizon);
        ctx.set_timer_after(self.cold.config.purge_after, timers::PURGE);
    }
}

impl Protocol for ByzcastNode {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        // Stagger the periodic tasks with per-node random phase so the whole
        // network does not beacon or gossip in lockstep.
        let gossip_phase = SimDuration::from_micros(
            ctx.rng()
                .gen_range_u64(self.cold.config.gossip_period.as_micros().max(1)),
        );
        ctx.set_timer_after(gossip_phase, timers::GOSSIP);
        ctx.set_timer_after(FD_TICK, timers::FD);
        ctx.set_timer_after(self.cold.config.purge_after, timers::PURGE);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        // Admission precedes everything — dispatch, FD observation, crypto:
        // a neighbour past its frame budget cannot spend any further cycles
        // of this node.
        let now = ctx.now();
        if !self.governor.admit_frame(now, from) {
            self.note_quota_violation(now, from);
            return;
        }
        match msg {
            WireMsg::Data(m) => self.handle_data(ctx, from, m),
            WireMsg::Gossip(g) => {
                let now = ctx.now();
                let (verbose, table) = (&mut self.fds.verbose, &mut self.table);
                verbose.observe_arrival(now, table, from, MsgKind::Gossip);
                if let Some(b) = &g.beacon {
                    self.handle_beacon(ctx, from, b);
                }
                for e in &g.entries {
                    self.handle_gossip_entry(ctx, from, e);
                }
            }
            WireMsg::Request(r) => self.handle_request(ctx, from, r),
            WireMsg::FindMissing(f) => self.handle_find(ctx, from, f),
            WireMsg::Beacon(b) => self.handle_beacon(ctx, from, b),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        match timer {
            timers::GOSSIP => self.gossip_tick(ctx),
            timers::FD => self.fd_tick(ctx),
            timers::PURGE => self.purge_tick(ctx),
            timers::REQUEST_FLUSH => self.flush_requests(ctx),
            timers::RESPONSE_FLUSH => self.flush_responses(ctx),
            // Unknown keys can reach a wrapped node when an adversary
            // wrapper shares the timer space; ignore them.
            _ => {}
        }
    }

    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        let now = ctx.now();
        self.cold.next_seq += 1;
        // Line 1: message := msg_id ‖ node_id ‖ msg ‖ sig(…).
        let m = Arc::new(DataMsg::sign(
            self.cold.signer.as_ref(),
            self.cold.next_seq,
            payload.id,
            payload.size_bytes as u32,
        ));
        let id = m.id;
        self.store.insert(now, Arc::clone(&m));
        ctx.deliver(self.id, payload.id);
        self.cold.counters.data_originated += 1;
        // Line 3: broadcast(message, DATA, ttl=1).
        ctx.send(WireMsg::Data(m));
        // Lines 2 & 4: start lazycasting the gossip. The *first* gossip is
        // piggybacked on the data message itself (footnote 5: "It is
        // possible to piggyback the first gossip of a message by the sender
        // … on the actual message") — `DataMsg` carries `id_sig`. Under a
        // store cap our own body may have been rejected; then it is not
        // advertised either (we could not serve the requests).
        self.advertise(now, self.id, id, GOSSIP_ADVERTISE_ROUNDS);
    }
}

impl std::fmt::Debug for ByzcastNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzcastNode")
            .field("id", &self.id)
            .field("role", &self.role)
            .field("store_len", &self.store.len())
            .field("missing", &self.missing.len())
            .field("counters", self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_crypto::{KeyRegistry, SignerId, SimScheme};
    use byzcast_sim::node::Action;
    use byzcast_sim::SimRng;

    /// A hand-driven single node with captured actions.
    struct Harness {
        node: ByzcastNode,
        rng: SimRng,
        #[allow(dead_code)]
        verifier: Arc<dyn Verifier + Send + Sync>,
        reg: KeyRegistry<SimScheme>,
    }

    impl Harness {
        fn new(id: u32, config: ByzcastConfig) -> Self {
            let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(42, 16);
            let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
            let node = ByzcastNode::new(
                NodeId(id),
                config,
                Box::new(reg.signer(SignerId(id))),
                Arc::clone(&verifier),
            );
            Harness {
                node,
                rng: SimRng::new(1),
                verifier,
                reg,
            }
        }

        fn data_from(&self, origin: u32, seq: u64) -> DataMsg {
            DataMsg::sign(&self.reg.signer(SignerId(origin)), seq, seq * 100, 256)
        }

        fn drive<R>(
            &mut self,
            now: SimTime,
            f: impl FnOnce(&mut ByzcastNode, &mut Context<'_, WireMsg>) -> R,
        ) -> (R, Vec<Action<WireMsg>>) {
            let mut actions = Vec::new();
            let r = {
                let mut ctx = Context::new(self.node.id(), now, &mut self.rng, &mut actions);
                f(&mut self.node, &mut ctx)
            };
            (r, actions)
        }

        fn beacon_from(&self, sender: u32, role: OverlayRole) -> BeaconMsg {
            BeaconMsg::sign(
                &self.reg.signer(SignerId(sender)),
                role,
                vec![],
                vec![],
                vec![],
            )
        }
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

    fn delivers(actions: &[Action<WireMsg>]) -> Vec<(NodeId, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { origin, payload_id } => Some((*origin, *payload_id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hot_head_fits_its_cache_lines() {
        // The head is what every reception and fd tick may touch; a new
        // field must fit in these 392 bytes or go to `Cold`. The detectors
        // keep 104 bytes of it and the one peer table 56.
        let head = std::mem::size_of::<ByzcastNode>();
        assert!(head <= 392, "hot head grew to {head} bytes");
        assert_eq!(
            std::mem::size_of::<Box<Cold>>(),
            8,
            "one pointer to the cold part"
        );
    }

    #[test]
    fn app_broadcast_sends_data_and_gossip_and_delivers_locally() {
        let mut h = Harness::new(0, ByzcastConfig::default());
        let (_, actions) = h.drive(SimTime::from_secs(1), |n, ctx| {
            n.on_app_broadcast(
                ctx,
                AppPayload {
                    id: 7,
                    size_bytes: 256,
                },
            )
        });
        let s = sends(&actions);
        // The first gossip is piggybacked on the data message itself
        // (footnote 5), so exactly one frame goes out.
        assert_eq!(s.len(), 1);
        match s[0] {
            WireMsg::Data(d) => assert!(d.gossip_entry().verify(h.verifier.as_ref())),
            other => panic!("expected data, got {other:?}"),
        }
        assert_eq!(delivers(&actions), vec![(NodeId(0), 7)]);
        assert_eq!(h.node.counters().data_originated, 1);
    }

    #[test]
    fn first_reception_delivers_and_overlay_forwards() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let m = h.data_from(0, 1);
        let (_, actions) = h.drive(SimTime::from_secs(1), |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::data(m));
        });
        assert_eq!(delivers(&actions), vec![(NodeId(0), 100)]);
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(&s[0], WireMsg::Data(d) if d.id == m.id && d.ttl == 1));
        assert_eq!(h.node.counters().data_forwards, 1);
    }

    #[test]
    fn non_overlay_node_does_not_forward_ttl1() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let m = h.data_from(0, 1);
        let (_, actions) = h.drive(SimTime::from_secs(1), |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::data(m));
        });
        assert_eq!(delivers(&actions).len(), 1);
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn non_overlay_node_forwards_ttl2_once() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let m = h.data_from(0, 1).with_ttl(2);
        let (_, actions) = h.drive(SimTime::from_secs(1), |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::data(m));
        });
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(&s[0], WireMsg::Data(d) if d.ttl == 1));
    }

    #[test]
    fn duplicate_reception_is_ignored() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let m = h.data_from(0, 1);
        let t = SimTime::from_secs(1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let (_, actions) = h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(2), &WireMsg::data(m)));
        assert!(actions.is_empty());
    }

    #[test]
    fn tampered_data_suspects_the_sender_not_the_originator() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let mut m = h.data_from(0, 1);
        m.payload_id = 999; // tampered in flight by node 3
        let t = SimTime::from_secs(1);
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(3), &WireMsg::data(m));
        });
        assert!(actions.is_empty());
        assert_eq!(h.node.trust_level(NodeId(3), t), TrustLevel::Untrusted);
        assert_eq!(h.node.trust_level(NodeId(0), t), TrustLevel::Trusted);
        assert_eq!(h.node.counters().bad_signatures_seen, 1);
    }

    #[test]
    fn reception_from_non_overlay_registers_mute_expectation() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        // Node 9 is a trusted overlay neighbour.
        let b = h.beacon_from(9, OverlayRole::Dominator);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(9), &WireMsg::Beacon(b)));
        // Receive data from non-overlay node 5 (not the originator 0).
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::data(m)));
        assert_eq!(h.node.fds.mute.pending_expectations(), 1);
        // The overlay neighbour forwarding satisfies it.
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(9), &WireMsg::data(m)));
        let late = t + SimDuration::from_secs(10);
        let (_, _) = h.drive(late, |n, ctx| n.fd_tick(ctx));
        assert_eq!(h.node.trust_level(NodeId(9), late), TrustLevel::Trusted);
    }

    #[test]
    fn silent_overlay_neighbor_gets_suspected_after_repeated_misses() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let b = h.beacon_from(9, OverlayRole::Dominator);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(9), &WireMsg::Beacon(b)));
        // Node 9 never forwards any of the messages node 5 relays to us:
        // each missed expectation counts, and at the threshold it is
        // suspected (single misses — a collision — would not suffice). The
        // last message comes a little later than the others, and all the
        // misses land before the first aging step, at 8 s.
        let relay = |h: &mut Harness, at: SimTime, seqs: std::ops::RangeInclusive<u64>| {
            for seq in seqs {
                let m = h.data_from(0, seq);
                h.drive(at, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::data(m)));
            }
        };
        let threshold = u64::from(mute::THRESHOLD);
        let last = t + SimDuration::from_millis(500);
        relay(&mut h, t, 1..=threshold - 1);
        relay(&mut h, last, threshold..=threshold);
        let early = t + mute::EXPECT_TIMEOUT + FD_TICK;
        h.drive(early, |n, ctx| n.fd_tick(ctx));
        assert_eq!(h.node.trust_level(NodeId(9), early), TrustLevel::Trusted);
        let late = last + mute::EXPECT_TIMEOUT + FD_TICK;
        h.drive(late, |n, ctx| n.fd_tick(ctx));
        assert_eq!(h.node.trust_level(NodeId(9), late), TrustLevel::Untrusted);
        // And the suspicion was logged as an episode.
        assert_eq!(h.node.suspicion_log().episodes().len(), 1);
    }

    #[test]
    fn gossip_for_missing_message_triggers_request() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g));
        });
        assert!(
            sends(&actions).is_empty(),
            "request must wait request_timeout"
        );
        assert_eq!(h.node.missing_count(), 1);
        // Flush after the request timeout plus the worst-case jitter.
        let t2 = t + h.node.config().request_timeout + h.node.config().request_timeout;
        let (_, actions) = h.drive(t2, |n, ctx| n.flush_requests(ctx));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        match s[0] {
            WireMsg::Request(r) => {
                assert_eq!(r.target, NodeId(5));
                assert_eq!(r.entry.id, m.id);
            }
            other => panic!("expected request, got {other:?}"),
        }
        assert_eq!(h.node.counters().requests_sent, 1);
    }

    #[test]
    fn gossip_from_originator_gets_a_grace_window_before_the_request() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::Gossip(g)); // from the originator
        });
        assert_eq!(h.node.fds.mute.pending_expectations(), 1);
        // Inside the grace window (the originator's MUTE expect timeout):
        // no request yet — line 29's "the originator is expected to
        // broadcast the message itself".
        let t2 = t + h.node.config().request_timeout + SimDuration::from_millis(1);
        let (_, actions) = h.drive(t2, |n, ctx| n.flush_requests(ctx));
        assert!(sends(&actions).is_empty());
        // After the grace window (plus worst-case jitter) the fallback
        // request fires, so a message whose only broadcast was lost
        // everywhere is still recoverable.
        let t3 = t2 + mute::EXPECT_TIMEOUT + h.node.config().request_timeout;
        let (_, actions) = h.drive(t3, |n, ctx| n.flush_requests(ctx));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0], WireMsg::Request(r) if r.target == NodeId(0)));
    }

    #[test]
    fn forged_gossip_entry_suspects_gossiper() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let mut e = m.gossip_entry();
        e.id.seq = 99; // forged announcement
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(
                ctx,
                NodeId(5),
                &WireMsg::Gossip(GossipMsg::of_entries(vec![e])),
            );
        });
        assert!(actions.is_empty());
        assert_eq!(h.node.trust_level(NodeId(5), t), TrustLevel::Untrusted);
        assert_eq!(h.node.missing_count(), 0);
    }

    #[test]
    fn overlay_node_serves_request_and_indicts_requester() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
        };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Request(req));
        });
        // The response waits out the rebroadcast jitter first.
        assert!(sends(&actions).is_empty());
        let later = t + REBROADCAST_TIMEOUT;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_responses(ctx));
        let served: Vec<_> = sends(&actions)
            .into_iter()
            .filter(|m| matches!(m, WireMsg::Data(_)))
            .collect();
        assert_eq!(served.len(), 1);
        assert_eq!(h.node.counters().recoveries_served, 1);
        assert_eq!(h.node.table.offences(Detector::Verbose, NodeId(5)), 1);
    }

    #[test]
    fn overheard_rebroadcast_suppresses_scheduled_response() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
        };
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Request(req))
        });
        // Another holder answers first: we overhear the duplicate.
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(8), &WireMsg::data(m)));
        let later = t + REBROADCAST_TIMEOUT;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_responses(ctx));
        assert!(sends(&actions).is_empty(), "suppression failed");
        assert_eq!(h.node.counters().recoveries_served, 0);
    }

    #[test]
    fn anothers_request_defers_ours_but_does_not_cancel_it() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        // We hear a gossip and queue a request.
        let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g)));
        // Node 6 requests the same message before our flush fires: our own
        // request is pushed past a retry window (its answer will reach us).
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(5),
        };
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(6), &WireMsg::Request(req))
        });
        let later = t + h.node.config().request_timeout;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_requests(ctx));
        assert!(
            sends(&actions).is_empty(),
            "request fired inside the deferral window"
        );
        assert_eq!(h.node.counters().requests_sent, 0);
        // …but if node 6's request went unanswered (e.g. the response was
        // lost to a hidden terminal), our deferred request still fires —
        // cancelling outright would deadlock the message.
        let after_defer = t + REQUEST_RETRY_SPACING + SimDuration::from_millis(1);
        let (_, actions) = h.drive(after_defer, |n, ctx| n.flush_requests(ctx));
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "deferred request never fired");
        assert!(matches!(s[0], WireMsg::Request(_)));
    }

    #[test]
    fn targeted_non_overlay_gossiper_serves_without_indicting() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(1),
        };
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Request(req));
        });
        let later = t + REBROADCAST_TIMEOUT;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_responses(ctx));
        assert_eq!(sends(&actions).len(), 1);
        assert_eq!(h.node.table.offences(Detector::Verbose, NodeId(5)), 0);
    }

    #[test]
    fn untargeted_non_overlay_node_ignores_request() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(9),
        };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Request(req));
        });
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn overlay_node_without_message_searches_two_hops() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
        };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Request(req));
        });
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        match s[0] {
            WireMsg::FindMissing(f) => {
                assert_eq!(f.ttl, 2);
                assert_eq!(f.target, NodeId(7));
            }
            other => panic!("expected find, got {other:?}"),
        }
        assert_eq!(h.node.counters().finds_sent, 1);
    }

    #[test]
    fn originator_requesting_own_message_is_indicted() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let req = RequestMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
        };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::Request(req)); // origin requests own msg
        });
        assert!(sends(&actions).is_empty());
        assert_eq!(h.node.table.offences(Detector::Verbose, NodeId(0)), 1);
    }

    #[test]
    fn find_missing_floods_one_extra_hop_when_lacking_the_message() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let f = FindMissingMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
            ttl: 2,
        };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::FindMissing(f));
        });
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(s[0], WireMsg::FindMissing(ff) if ff.ttl == 1));
        // TTL 1 searches are not re-flooded.
        let f1 = FindMissingMsg { ttl: 1, ..f };
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(6), &WireMsg::FindMissing(f1));
        });
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn find_missing_answered_with_ttl2_for_distant_searcher() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        // Searcher 5 is NOT in our neighbour table → answer with TTL 2.
        let f = FindMissingMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
            ttl: 1,
        };
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::FindMissing(f));
        });
        let later = t + REBROADCAST_TIMEOUT;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_responses(ctx));
        let s = sends(&actions);
        assert_eq!(s.len(), 1);
        assert!(matches!(&s[0], WireMsg::Data(d) if d.ttl == 2));
    }

    #[test]
    fn find_missing_from_direct_neighbor_is_indicted_and_served_ttl1() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let b = h.beacon_from(5, OverlayRole::Passive);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::Beacon(b)));
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let f = FindMissingMsg {
            entry: m.gossip_entry(),
            target: NodeId(7),
            ttl: 1,
        };
        h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::FindMissing(f));
        });
        let later = t + REBROADCAST_TIMEOUT;
        let (_, actions) = h.drive(later, |n, ctx| n.flush_responses(ctx));
        let s = sends(&actions);
        assert!(matches!(&s[0], WireMsg::Data(d) if d.ttl == 1));
        assert_eq!(h.node.table.offences(Detector::Verbose, NodeId(5)), 1);
    }

    #[test]
    fn beacon_updates_table_and_second_hand_suspicions() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let b = BeaconMsg::sign(
            &h.reg.signer(SignerId(2)),
            OverlayRole::Dominator,
            vec![NodeId(1), NodeId(3)],
            vec![NodeId(3)],
            vec![NodeId(4)],
        );
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(2), &WireMsg::Beacon(b)));
        assert!(h.node.table().contains(NodeId(2)));
        assert_eq!(h.node.trust_level(NodeId(4), t), TrustLevel::Unknown);
        assert_eq!(h.node.trust_level(NodeId(2), t), TrustLevel::Trusted);
    }

    #[test]
    fn beacon_with_wrong_sender_is_impersonation() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let b = h.beacon_from(2, OverlayRole::Dominator);
        // Node 6 replays node 2's beacon as its own transmission.
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(6), &WireMsg::Beacon(b)));
        assert!(!h.node.table().contains(NodeId(2)));
        assert_eq!(h.node.trust_level(NodeId(6), t), TrustLevel::Untrusted);
    }

    #[test]
    fn unsorted_beacon_lists_are_stored_normalised_and_decide_alike() {
        use byzcast_overlay::{AdvertisedLists, Cds, MapTrust};
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let ids = |v: &[u32]| v.iter().map(|&i| NodeId(i)).collect::<Vec<_>>();
        // Node 6, the highest id, covers node 1's whole neighbourhood, but
        // advertises it reversed and with a duplicate: a correctly signed
        // beacon of a shape no correct node sends.
        let raw = ids(&[5, 4, 3, 2, 1, 5]);
        let sorted = ids(&[1, 2, 3, 4, 5]);
        let mut reference = NeighborTable::new(h.node.table().timeout());
        for q in 2..=6u32 {
            let (role, marked, nbrs, doms) = if q == 6 {
                (OverlayRole::Dominator, true, raw.clone(), ids(&[5, 5, 2]))
            } else {
                (OverlayRole::Passive, false, ids(&[1, 6]), ids(&[6]))
            };
            let signer = h.reg.signer(SignerId(q));
            let b = BeaconMsg::sign_marked(&signer, role, marked, nbrs.clone(), doms, vec![]);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(q), &WireMsg::Beacon(b)));
            let nbrs = if q == 6 { sorted.clone() } else { nbrs };
            let doms = if q == 6 { ids(&[2, 5]) } else { ids(&[6]) };
            let lists = AdvertisedLists::new(&nbrs, &doms);
            reference.record_beacon_marked(t, NodeId(q), role, marked, lists);
        }
        let info = h
            .node
            .table()
            .info(NodeId(6))
            .expect("signed beacon accepted");
        assert_eq!(info.neighbors(), &sorted[..]);
        assert_eq!(info.dominator_neighbors(), &ids(&[2, 5])[..]);
        let trust = MapTrust::default();
        let decision = Cds.decide(NodeId(1), h.node.table(), &trust);
        assert_eq!(decision, Cds.decide(NodeId(1), &reference, &trust));
        // Node 6 covers everything, so node 1 prunes itself out.
        assert_eq!(decision.role, OverlayRole::Passive);
        assert!(decision.marked);
    }

    #[test]
    fn tampered_beacon_is_rejected() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let signed = h.beacon_from(2, OverlayRole::Dominator);
        // Framing attempt after signing: the parts change, the signature
        // does not.
        let b = BeaconMsg::from_parts(
            signed.sender(),
            signed.role(),
            signed.marked(),
            signed.lists().clone(),
            vec![NodeId(3)],
            *signed.sig(),
        );
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(2), &WireMsg::Beacon(b)));
        assert!(!h.node.table().contains(NodeId(2)));
        assert_eq!(h.node.trust_level(NodeId(3), t), TrustLevel::Trusted);
        assert_eq!(h.node.trust_level(NodeId(2), t), TrustLevel::Untrusted);
    }

    #[test]
    fn gossip_tick_aggregates_entries() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        for seq in 1..=5 {
            let m = h.data_from(0, seq);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        }
        let (_, actions) = h.drive(t, |n, ctx| n.gossip_tick(ctx));
        let s = sends(&actions);
        assert_eq!(s.len(), 1, "aggregation should produce one packet");
        match s[0] {
            WireMsg::Gossip(g) => assert_eq!(g.entries.len(), 5),
            other => panic!("expected gossip, got {other:?}"),
        }
    }

    #[test]
    fn gossip_tick_without_aggregation_sends_per_entry() {
        let config = ByzcastConfig {
            aggregate_gossip: false,
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        for seq in 1..=3 {
            let m = h.data_from(0, seq);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        }
        let (_, actions) = h.drive(t, |n, ctx| n.gossip_tick(ctx));
        // Three per-entry packets plus the (first-due) beacon-only packet.
        let s = sends(&actions);
        assert_eq!(s.len(), 4);
        let entry_packets = s
            .iter()
            .filter(|m| matches!(m, WireMsg::Gossip(g) if g.entries.len() == 1))
            .count();
        assert_eq!(entry_packets, 3);
    }

    #[test]
    fn recovered_message_cancels_pending_request() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g)));
        // Message arrives before the flush.
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(9), &WireMsg::data(m)));
        assert_eq!(h.node.missing_count(), 0);
        let t2 = t + SimDuration::from_secs(1);
        let (_, actions) = h.drive(t2, |n, ctx| n.flush_requests(ctx));
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn request_retries_are_capped() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let m = h.data_from(0, 1);
        let mut now = SimTime::from_secs(1);
        // One request per round until the cap, then none.
        for round in 1..=u64::from(MAX_REQUESTS_PER_MSG) + 3 {
            let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
            h.drive(now, |n, ctx| {
                n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g))
            });
            now += SimDuration::from_secs(1);
            h.drive(now, |n, ctx| n.flush_requests(ctx));
            let sent = h.node.counters().requests_sent;
            assert_eq!(sent, round.min(u64::from(MAX_REQUESTS_PER_MSG)));
        }
    }

    #[test]
    fn escalation_widens_requests_and_bumps_find_ttl() {
        // ESCALATE_AFTER 2, WIDEN_FANOUT 3, FIND_TTL 3.
        let config = ByzcastConfig {
            recovery: true,
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        // Three trusted neighbours the widened rounds can target.
        let t0 = SimTime::from_millis(500);
        for n in [9u32, 10, 11] {
            let b = h.beacon_from(n, OverlayRole::Passive);
            h.drive(t0, |node, ctx| {
                node.on_packet(ctx, NodeId(n), &WireMsg::Beacon(b))
            });
        }
        // Node 5 gossips a message we never receive.
        let m = h.data_from(0, 1);
        let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
        let t1 = SimTime::from_secs(1);
        h.drive(t1, |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g))
        });
        // Rounds 0 and 1: plain unicast retries to the remembered gossiper.
        for s in [2u64, 3] {
            let (_, actions) = h.drive(SimTime::from_secs(s), |n, ctx| n.flush_requests(ctx));
            let reqs: Vec<_> = sends(&actions)
                .into_iter()
                .filter(|m| matches!(m, WireMsg::Request(_)))
                .collect();
            assert_eq!(reqs.len(), 1, "round at t={s}s must stay unicast");
            assert!(
                matches!(reqs[0], WireMsg::Request(r) if r.target == NodeId(5)),
                "plain rounds target the remembered gossiper"
            );
        }
        assert_eq!(h.node.recovery_stats().requests_originated, 2);
        assert_eq!(h.node.recovery_stats().requests_widened, 0);
        // Round 2: the gossiper never answered — widen to the trusted
        // neighbours and flood a TTL-bumped search.
        let (_, actions) = h.drive(SimTime::from_secs(4), |n, ctx| n.flush_requests(ctx));
        let s = sends(&actions);
        let targets: Vec<NodeId> = s
            .iter()
            .filter_map(|m| match m {
                WireMsg::Request(r) => Some(r.target),
                _ => None,
            })
            .collect();
        assert_eq!(targets.len(), 3, "widened round hits WIDEN_FANOUT peers");
        for t in &targets {
            assert!(
                [NodeId(9), NodeId(10), NodeId(11)].contains(t),
                "widened targets come from the neighbour table, got {t:?}"
            );
        }
        assert!(
            s.iter().any(
                |m| matches!(m, WireMsg::FindMissing(f) if f.ttl == 3 && f.target == NodeId(1))
            ),
            "escalation floods a TTL-bumped FIND_MISSING naming the searcher"
        );
        let stats = h.node.recovery_stats();
        assert_eq!(stats.requests_widened, 3);
        assert_eq!(stats.finds_escalated, 1);
        assert_eq!(stats.peak_escalation, 1);
        // The widened round re-arms on the escalation backoff (1 s at level
        // 0), not the plain retry spacing — and keeps escalating.
        let (_, actions) = h.drive(SimTime::from_secs(5), |n, ctx| n.flush_requests(ctx));
        assert!(
            !sends(&actions).is_empty(),
            "level-1 round fires after backoff"
        );
        assert_eq!(h.node.recovery_stats().peak_escalation, 2);
        // Total request budget: ESCALATE_AFTER + MAX_ESCALATIONS rounds.
        for s in 6..30u64 {
            h.drive(SimTime::from_secs(s), |n, ctx| n.flush_requests(ctx));
        }
        assert_eq!(
            h.node.recovery_stats().requests_originated + h.node.recovery_stats().finds_escalated,
            6,
            "request rounds are capped at ESCALATE_AFTER + MAX_ESCALATIONS"
        );
    }

    #[test]
    fn envelope_is_dormant_before_escalate_after() {
        // Before `ESCALATE_AFTER` unanswered rounds the envelope decides
        // nothing: a node with it on sends and expects exactly what the
        // same node with it off does, and counts every request it sends as
        // an originated one.
        let mut on = Harness::new(
            1,
            ByzcastConfig {
                recovery: true,
                ..ByzcastConfig::default()
            },
        );
        let mut off = Harness::new(1, ByzcastConfig::default());
        let m = on.data_from(0, 1);
        for h in [&mut on, &mut off] {
            for n in [9u32, 10, 11] {
                let b = h.beacon_from(n, OverlayRole::Passive);
                h.drive(SimTime::from_millis(500), |node, ctx| {
                    node.on_packet(ctx, NodeId(n), &WireMsg::Beacon(b))
                });
            }
            let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
            h.drive(SimTime::from_secs(1), |n, ctx| {
                n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g))
            });
        }
        for round in 0..recovery::ESCALATE_AFTER {
            let now = SimTime::from_secs(2 + u64::from(round));
            let (_, on_actions) = on.drive(now, |n, ctx| n.flush_requests(ctx));
            let (_, off_actions) = off.drive(now, |n, ctx| n.flush_requests(ctx));
            assert!(!sends(&on_actions).is_empty(), "round {round} sends");
            assert_eq!(sends(&on_actions), sends(&off_actions), "round {round}");
            assert_eq!(
                format!("{:?}", on.node.fds.mute),
                format!("{:?}", off.node.fds.mute),
                "round {round}: MUTE expectations"
            );
            assert_eq!(
                on.node.recovery_stats().requests_originated,
                on.node.counters().requests_sent,
                "round {round}"
            );
        }
    }

    #[test]
    fn widened_requests_register_no_mute_expectations() {
        let config = ByzcastConfig {
            recovery: true,
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t0 = SimTime::from_millis(500);
        let b = h.beacon_from(9, OverlayRole::Passive);
        h.drive(t0, |node, ctx| {
            node.on_packet(ctx, NodeId(9), &WireMsg::Beacon(b))
        });
        // Node 5 gossips `THRESHOLD` messages we never receive, so one miss
        // per message is enough to suspect whoever was put on notice.
        let entries = (1..=u64::from(mute::THRESHOLD))
            .map(|seq| h.data_from(0, seq).gossip_entry())
            .collect();
        let g = GossipMsg::of_entries(entries);
        h.drive(SimTime::from_secs(1), |n, ctx| {
            n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g))
        });
        // Rounds 0 and 1 unicast (each registers a MUTE expect on the
        // gossiper), round 2 widened (must NOT put node 9 on notice — it
        // never advertised the messages and may legitimately lack them).
        for s in 2..=2 + u64::from(recovery::ESCALATE_AFTER) {
            h.drive(SimTime::from_secs(s), |n, ctx| n.flush_requests(ctx));
        }
        assert!(h.node.recovery_stats().requests_widened > 0);
        // Let every MUTE expectation deadline lapse, then tick: only the
        // remembered gossiper (node 5) may be suspected.
        let late = SimTime::from_secs(60);
        h.drive(late, |n, ctx| n.fd_tick(ctx));
        assert_eq!(h.node.trust_level(NodeId(9), late), TrustLevel::Trusted);
        assert_eq!(h.node.trust_level(NodeId(5), late), TrustLevel::Untrusted);
    }

    #[test]
    fn spaced_retry_clears_the_serve_window() {
        // Satellite regression: the responder's per-id serve window used to
        // alias `REQUEST_RETRY_SPACING`. Because the window starts at the
        // *jittered serve time* (up to `REBROADCAST_TIMEOUT` after the
        // request), a retry spaced exactly `REQUEST_RETRY_SPACING` after the
        // original request landed `jitter` short of the window and was
        // silently refused — the requester burned a retry for nothing.
        let mut h = Harness::new(1, ByzcastConfig::default());
        let m = h.data_from(0, 1);
        let id = m.id;
        h.drive(SimTime::from_millis(100), |n, ctx| {
            n.on_packet(ctx, NodeId(0), &WireMsg::data(m))
        });
        // Original request at t=580 ms; our response served at t=600 ms
        // (20 ms of rebroadcast jitter).
        h.node
            .cold
            .served_recently
            .insert(id, SimTime::from_millis(600));
        // The requester retries exactly one spacing after its request:
        // t = 580 + 1000 = 1580 ms — 980 ms after the serve. Under the old
        // aliased knob (window == spacing == 1000 ms) this was refused.
        let entry = h.data_from(0, 1).gossip_entry();
        let t_retry = SimTime::from_millis(1580);
        h.drive(t_retry, |n, ctx| {
            n.on_packet(
                ctx,
                NodeId(7),
                &WireMsg::Request(RequestMsg {
                    entry,
                    target: NodeId(1),
                }),
            )
        });
        let (_, actions) = h.drive(t_retry + SimDuration::from_millis(60), |n, ctx| {
            n.flush_responses(ctx)
        });
        assert!(
            sends(&actions)
                .iter()
                .any(|m| matches!(m, WireMsg::Data(d) if d.id == id)),
            "a retry spaced REQUEST_RETRY_SPACING after the original must be served"
        );
        // The window still suppresses genuinely bursty duplicates: a second
        // request inside `RESPONSE_SERVE_WINDOW` of the serve is refused.
        let t_burst = t_retry + SimDuration::from_millis(200);
        h.drive(t_burst, |n, ctx| {
            n.on_packet(
                ctx,
                NodeId(8),
                &WireMsg::Request(RequestMsg {
                    entry,
                    target: NodeId(1),
                }),
            )
        });
        let (_, actions) = h.drive(t_burst + SimDuration::from_millis(60), |n, ctx| {
            n.flush_responses(ctx)
        });
        assert!(
            sends(&actions).is_empty(),
            "requests inside the serve window stay suppressed"
        );
    }

    #[test]
    fn mute_indictment_purges_neighbor_and_reelects() {
        let config = ByzcastConfig {
            recovery: true,
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t0 = SimTime::from_secs(1);
        for n in [9u32, 10] {
            let b = h.beacon_from(n, OverlayRole::Dominator);
            h.drive(t0, |node, ctx| {
                node.on_packet(ctx, NodeId(n), &WireMsg::Beacon(b))
            });
        }
        assert!(h.node.table.contains(NodeId(9)));
        // Node 9 is caught misbehaving.
        let t1 = t0 + SimDuration::from_millis(50);
        h.drive(t1, |n, ctx| {
            let _ = ctx;
            n.bad_signature(t1, NodeId(9));
        });
        // The very next fd tick purges it — no waiting for beacon-record
        // expiry, during which it would keep absorbing unicast REQUESTs.
        let t2 = t1 + SimDuration::from_millis(100);
        h.drive(t2, |n, ctx| n.fd_tick(ctx));
        assert!(
            !h.node.table.contains(NodeId(9)),
            "indicted neighbour must leave the table at the next fd tick"
        );
        assert!(
            h.node.table.contains(NodeId(10)),
            "uninvolved neighbours stay"
        );
        assert!(h.node.recovery_stats().neighbors_purged >= 1);
    }

    #[test]
    fn a_reelection_purge_keeps_the_suspicion() {
        let config = ByzcastConfig {
            recovery: true,
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t0 = SimTime::from_secs(1);
        let b = h.beacon_from(9, OverlayRole::Dominator);
        h.drive(t0, |node, ctx| {
            node.on_packet(ctx, NodeId(9), &WireMsg::Beacon(b))
        });
        h.node.bad_signature(t0, NodeId(9));
        let t1 = t0 + FD_TICK;
        h.drive(t1, |n, ctx| n.fd_tick(ctx));
        // The purge drops node 9's beacon entry, once, and nothing else:
        // it is still untrusted, its episode stays open, and the next tick
        // neither purges nor logs it again.
        assert!(!h.node.table.contains(NodeId(9)));
        assert_eq!(h.node.trust_level(NodeId(9), t1), TrustLevel::Untrusted);
        let t2 = t1 + FD_TICK;
        h.drive(t2, |n, ctx| n.fd_tick(ctx));
        assert_eq!(h.node.recovery_stats().neighbors_purged, 1);
        assert_eq!(h.node.trust_level(NodeId(9), t2), TrustLevel::Untrusted);
        assert_eq!(h.node.suspicion_log().episodes().len(), 1);
        assert_eq!(h.node.suspicion_log().episodes()[0].end, SimTime::MAX);
    }

    #[test]
    fn indicted_neighbor_lingers_when_recovery_is_off() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t0 = SimTime::from_secs(1);
        let b = h.beacon_from(9, OverlayRole::Dominator);
        h.drive(t0, |node, ctx| {
            node.on_packet(ctx, NodeId(9), &WireMsg::Beacon(b))
        });
        let t1 = t0 + SimDuration::from_millis(50);
        h.drive(t1, |n, ctx| {
            let _ = ctx;
            n.bad_signature(t1, NodeId(9));
        });
        let t2 = t1 + SimDuration::from_millis(100);
        h.drive(t2, |n, ctx| n.fd_tick(ctx));
        // Documents the pre-recovery behaviour the default-off envelope
        // preserves: the entry survives until beacon-record expiry.
        assert!(h.node.table.contains(NodeId(9)));
        assert_eq!(h.node.recovery_stats().neighbors_purged, 0);
    }

    #[test]
    fn escalated_find_refloods_beyond_two_hops_and_passive_holders_serve() {
        let config = ByzcastConfig {
            recovery: true, // find_ttl 3
            ..ByzcastConfig::default()
        };
        let entry = Harness::new(0, ByzcastConfig::default())
            .data_from(0, 1)
            .gossip_entry();
        let find = |ttl| {
            WireMsg::FindMissing(FindMissingMsg {
                entry,
                target: NodeId(7),
                ttl,
            })
        };
        // A non-holder refloods a TTL-3 search (plain protocol stops at 2).
        let mut h = Harness::new(1, config.clone());
        let t = SimTime::from_secs(1);
        let (_, actions) = h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(7), &find(3)));
        assert!(
            sends(&actions)
                .iter()
                .any(|m| matches!(m, WireMsg::FindMissing(f) if f.ttl == 2)),
            "escalated searches decrement hop by hop past the paper's 2"
        );
        // With the envelope off, a TTL-3 search is inert at a non-holder.
        let mut h = Harness::new(1, ByzcastConfig::default());
        let (_, actions) = h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(7), &find(3)));
        assert!(sends(&actions).is_empty());
        // A *passive* holder serves an escalated search (plain TTL-2 ones
        // are only served by overlay nodes and the targeted gossiper).
        let mut h = Harness::new(1, config);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(7), &find(3)));
        let (_, actions) = h.drive(t + SimDuration::from_millis(60), |n, ctx| {
            n.flush_responses(ctx)
        });
        assert!(
            sends(&actions)
                .iter()
                .any(|m| matches!(m, WireMsg::Data(_))),
            "passive holders answer escalated searches"
        );
        // ...but stay silent for plain TTL-2 searches, as in the paper.
        let mut h = Harness::new(1, ByzcastConfig::default());
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(7), &find(2)));
        let (_, actions) = h.drive(t + SimDuration::from_millis(60), |n, ctx| {
            n.flush_responses(ctx)
        });
        assert!(sends(&actions).is_empty());
    }

    #[test]
    fn store_purge_stops_gossip_for_old_messages() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        h.node.role = OverlayRole::Dominator;
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        let far = t + h.node.config().purge_after + SimDuration::from_secs(1);
        h.drive(far, |n, ctx| n.purge_tick(ctx));
        let (_, actions) = h.drive(far, |n, ctx| n.gossip_tick(ctx));
        // The purged message is no longer advertised; only the periodic
        // beacon may still ride the gossip packet.
        for s in sends(&actions) {
            match s {
                WireMsg::Gossip(g) => assert!(g.entries.is_empty(), "stale entries: {g:?}"),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "sign as the node's own id")]
    fn signer_id_mismatch_panics() {
        let reg: KeyRegistry<SimScheme> = KeyRegistry::generate(1, 2);
        let verifier: Arc<dyn Verifier + Send + Sync> = Arc::new(reg.verifier());
        let _ = ByzcastNode::new(
            NodeId(0),
            ByzcastConfig::default(),
            Box::new(reg.signer(SignerId(1))),
            verifier,
        );
    }

    #[test]
    fn frame_admission_drops_excess_frames_before_dispatch() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                frames_per_sec: 1,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        // Five distinct messages in one instant from one neighbour: only the
        // burst (two seconds at 1/s) is dispatched, the rest are dropped
        // before delivery.
        for seq in 1..=5 {
            let m = h.data_from(0, seq);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        }
        let stats = h.node.resource_stats();
        assert_eq!(stats.frames_admitted, 2);
        assert_eq!(stats.frames_dropped, 3);
        assert_eq!(h.node.store().len(), 2);
        // Another neighbour's bucket is untouched.
        let m = h.data_from(2, 1);
        let (_, actions) = h.drive(t, |n, ctx| {
            n.on_packet(ctx, NodeId(2), &WireMsg::data(m));
        });
        assert_eq!(delivers(&actions).len(), 1);
    }

    #[test]
    fn verification_budget_drops_unverified_without_suspecting() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                verifs_per_sec: 1,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        // The first data message spends the whole burst (two signatures,
        // two seconds at 1/s);
        // the second is dropped before any crypto — and without suspecting
        // the sender, since nothing was authenticated.
        let m1 = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m1)));
        let m2 = h.data_from(0, 2);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m2)));
        assert!(h.node.store().has(m1.id));
        assert!(!h.node.store().seen(m2.id));
        let stats = h.node.resource_stats();
        assert_eq!(stats.verifs_charged, 2);
        assert!(stats.verifs_dropped >= 1);
        assert_eq!(h.node.counters().bad_signatures_seen, 0);
    }

    #[test]
    fn sustained_admission_violations_feed_verbose() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                frames_per_sec: 1,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        // Default VERBOSE: 8 violations per indictment, 10 indictments to
        // suspect → 80+ sustained drops from one neighbour past its burst
        // of 2.
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        for seq in 1..=120 {
            let m = h.data_from(0, seq);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        }
        assert!(h.node.table().suspected(Detector::Verbose, NodeId(0), t));
        assert!(h.node.resource_stats().quota_suspicions >= 1);
    }

    #[test]
    fn per_origin_missing_quota_bounds_request_bookkeeping() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                max_missing_per_origin: 3,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        // Ten gossip entries for unique unseen messages from origin 0: the
        // missing map tracks at most the quota.
        for seq in 1..=10 {
            let e = h.data_from(0, seq).gossip_entry();
            let g = GossipMsg::of_entries(vec![e]);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g)));
        }
        assert_eq!(h.node.missing_count(), 3);
        let stats = h.node.resource_stats();
        assert_eq!(stats.quota_drops, 7);
        assert_eq!(stats.peak_missing, 3);
        // A different origin is unaffected by origin 0's quota.
        let e = h.data_from(2, 1).gossip_entry();
        let g = GossipMsg::of_entries(vec![e]);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(5), &WireMsg::Gossip(g)));
        assert_eq!(h.node.missing_count(), 4);
    }

    #[test]
    fn store_cap_keeps_delivering_but_stops_advertising() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                max_store_msgs: 2,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let t = SimTime::from_secs(1);
        let mut delivered = 0;
        for seq in 1..=5 {
            let m = h.data_from(0, seq);
            let (_, actions) = h.drive(t, |n, ctx| {
                n.on_packet(ctx, NodeId(0), &WireMsg::data(m));
            });
            delivered += delivers(&actions).len();
        }
        // Every first reception is still delivered exactly once…
        assert_eq!(delivered, 5);
        // …but only the capped bodies are buffered, and rejected bodies are
        // not advertised (we could not serve requests for them).
        assert_eq!(h.node.store().len(), 2);
        let (_, actions) = h.drive(t, |n, ctx| n.gossip_tick(ctx));
        for s in sends(&actions) {
            if let WireMsg::Gossip(g) = s {
                assert!(g.entries.len() <= 2);
            }
        }
        let stats = h.node.resource_stats();
        assert_eq!(stats.store_rejects, 3);
        assert_eq!(stats.peak_store_msgs, 2);
    }

    /// Ids advertised by one gossip tick at `now`.
    fn gossiped(h: &mut Harness, now: SimTime) -> Vec<MessageId> {
        let (_, actions) = h.drive(now, |n, ctx| n.gossip_tick(ctx));
        sends(&actions)
            .into_iter()
            .flat_map(|m| match m {
                WireMsg::Gossip(g) => g.entries.iter().map(|e| e.id).collect(),
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn echoes_never_rearm_a_closed_advertisement() {
        let mut h = Harness::new(1, ByzcastConfig::default());
        let t = SimTime::from_secs(1);
        let m = h.data_from(0, 1);
        h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m)));
        for _ in 0..GOSSIP_ADVERTISE_ROUNDS {
            assert_eq!(gossiped(&mut h, t), vec![m.id]);
        }
        assert!(gossiped(&mut h, t).is_empty(), "window should be closed");
        // Neighbours keep echoing the entry: the closed slot stays closed.
        for q in [2, 3] {
            let g = GossipMsg::of_entries(vec![m.gossip_entry()]);
            h.drive(t, |n, ctx| n.on_packet(ctx, NodeId(q), &WireMsg::Gossip(g)));
        }
        assert!(
            gossiped(&mut h, t).is_empty(),
            "echo re-armed a closed slot"
        );
        assert_eq!(h.node.resource_stats().peak_active_gossip, 1);
    }

    #[test]
    fn gossip_quota_admits_again_after_a_purge_and_echo_arms_once() {
        use crate::resources::ResourceConfig;
        let config = ByzcastConfig {
            resources: ResourceConfig {
                max_gossip_per_origin: 1,
                ..ResourceConfig::unlimited()
            },
            ..ByzcastConfig::default()
        };
        let mut h = Harness::new(1, config);
        let (m1, m2) = (h.data_from(0, 1), h.data_from(0, 2));
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(5);
        h.drive(t1, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m1)));
        h.drive(t2, |n, ctx| n.on_packet(ctx, NodeId(0), &WireMsg::data(m2)));
        // Origin 0's one slot goes to m1; m2 is buffered but not advertised.
        assert!(h.node.store().has(m2.id));
        assert_eq!(h.node.resource_stats().quota_drops, 1);
        assert_eq!(gossiped(&mut h, t2), vec![m1.id]);
        // m1 expires, m2 does not: the purge frees origin 0's slot.
        let later = t1 + h.node.config().purge_after + SimDuration::from_secs(1);
        h.drive(later, |n, ctx| n.purge_tick(ctx));
        assert!(!h.node.store().has(m1.id) && h.node.store().has(m2.id));
        // Two neighbours echo m2: the first echo arms one round, the second
        // finds the slot taken.
        for q in [2, 3] {
            let g = GossipMsg::of_entries(vec![m2.gossip_entry()]);
            h.drive(later, |n, ctx| {
                n.on_packet(ctx, NodeId(q), &WireMsg::Gossip(g))
            });
        }
        assert_eq!(h.node.resource_stats().quota_drops, 1);
        assert_eq!(gossiped(&mut h, later), vec![m2.id]);
        assert!(gossiped(&mut h, later).is_empty());
    }
}
