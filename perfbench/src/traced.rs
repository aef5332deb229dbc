//! The traced run: timing wrappers around each layer's public interfaces,
//! and a node factory that mirrors `ScenarioConfig::build_wire_sim` with
//! those wrappers in place.
//!
//! Every protocol callback is timed through a [`Protocol`] wrapper, keyed by
//! `WireMsg::kind()` for packets and by `byzcast_core::protocol::timers` key
//! for timers. The shared verifier is timed twice: around the cache (every
//! call) and inside it (misses only); each node's signer is timed on every
//! call. Nothing inside the program changes, so a traced run must reproduce
//! the untraced run's frames, collisions, deliveries and latencies exactly.
//!
//! The simulator runs on one thread, so the tallies live in a thread-local.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use byzcast_core::message::WireMsg;
use byzcast_core::protocol::timers;
use byzcast_core::ByzcastNode;
use byzcast_crypto::{
    CacheStats, CachingVerifier, KeyRegistry, Signature, Signer, SignerId, SimScheme, Verifier,
};
use byzcast_harness::{ProtocolChoice, ScenarioConfig};
use byzcast_sim::{
    AppPayload, BoxedProtocol, Context, Message, NodeId, Protocol, SimBuilder, SimConfig,
    Simulator, TimerKey,
};

/// Packet kinds, in `WireMsg::kind()` spelling.
pub const PACKET_KINDS: [&str; 5] = ["data", "gossip", "request", "find_missing", "beacon"];
/// Timer names with their keys.
pub const TIMERS: [(&str, TimerKey); 5] = [
    ("gossip", timers::GOSSIP),
    ("fd", timers::FD),
    ("purge", timers::PURGE),
    ("request_flush", timers::REQUEST_FLUSH),
    ("response_flush", timers::RESPONSE_FLUSH),
];

/// A call count and the host time those calls took.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub n: u64,
    pub s: f64,
}

impl Tally {
    fn record(&mut self, since: Instant) {
        self.n += 1;
        self.s += since.elapsed().as_secs_f64();
    }
}

/// Everything the wrappers record.
#[derive(Clone, Debug, Default)]
pub struct Tallies {
    pub packet: [Tally; PACKET_KINDS.len()],
    pub timer: [Tally; TIMERS.len()],
    /// Timers with a key outside [`TIMERS`]: adversary wrappers share the
    /// timer space (the verbose spammer's tick, for one).
    pub other_timer: Tally,
    pub app_broadcast: Tally,
    /// `on_start` and `on_byzantine`.
    pub lifecycle: Tally,
    pub verify: Tally,
    pub verify_miss: Tally,
    pub sign: Tally,
}

impl Tallies {
    /// All protocol callbacks (crypto runs inside them, so it is not added).
    pub fn callbacks(&self) -> Tally {
        self.packet
            .iter()
            .chain(&self.timer)
            .chain([&self.other_timer, &self.app_broadcast, &self.lifecycle])
            .fold(Tally::default(), |acc, t| Tally {
                n: acc.n + t.n,
                s: acc.s + t.s,
            })
    }
}

thread_local! {
    static TALLIES: RefCell<Tallies> = RefCell::new(Tallies::default());
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

/// A copy of the tallies so far.
pub fn snapshot() -> Tallies {
    TALLIES.with(|t| t.borrow().clone())
}

/// Clears the tallies.
pub fn reset() {
    TALLIES.with(|t| *t.borrow_mut() = Tallies::default());
}

/// Turns recording on or off; the wrappers keep timing either way, so
/// their cost does not change with it.
pub fn set_recording(on: bool) {
    RECORDING.with(|r| r.set(on));
}

fn tally(f: impl FnOnce(&mut Tallies)) {
    if RECORDING.with(Cell::get) {
        TALLIES.with(|t| f(&mut t.borrow_mut()));
    }
}

/// Times every callback of the wrapped node.
pub struct Timed(pub ByzcastNode);

impl Protocol for Timed {
    type Msg = WireMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, WireMsg>) {
        let t = Instant::now();
        self.0.on_start(ctx);
        tally(|x| x.lifecycle.record(t));
    }

    fn on_packet(&mut self, ctx: &mut Context<'_, WireMsg>, from: NodeId, msg: &WireMsg) {
        let t = Instant::now();
        self.0.on_packet(ctx, from, msg);
        let kind = PACKET_KINDS
            .iter()
            .position(|&k| k == msg.kind())
            .expect("every WireMsg kind is listed");
        tally(|x| x.packet[kind].record(t));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WireMsg>, timer: TimerKey) {
        let t = Instant::now();
        self.0.on_timer(ctx, timer);
        match TIMERS.iter().position(|&(_, k)| k == timer) {
            Some(i) => tally(|x| x.timer[i].record(t)),
            None => tally(|x| x.other_timer.record(t)),
        }
    }

    fn on_app_broadcast(&mut self, ctx: &mut Context<'_, WireMsg>, payload: AppPayload) {
        let t = Instant::now();
        self.0.on_app_broadcast(ctx, payload);
        tally(|x| x.app_broadcast.record(t));
    }

    fn on_byzantine(&mut self, ctx: &mut Context<'_, WireMsg>, active: bool) {
        let t = Instant::now();
        self.0.on_byzantine(ctx, active);
        tally(|x| x.lifecycle.record(t));
    }
}

/// Where a [`TimedVerifier`] records its calls.
#[derive(Clone, Copy)]
enum VerifySlot {
    /// Around the cache: every verification.
    Every,
    /// Inside the cache: the misses that reach the real verifier.
    Miss,
}

/// Times a verifier's calls; forwards cache statistics unchanged.
struct TimedVerifier<V> {
    inner: V,
    slot: VerifySlot,
}

impl<V: Verifier> Verifier for TimedVerifier<V> {
    fn verify(&self, signer: SignerId, data: &[u8], sig: &Signature) -> bool {
        let t = Instant::now();
        let ok = self.inner.verify(signer, data, sig);
        match self.slot {
            VerifySlot::Every => tally(|x| x.verify.record(t)),
            VerifySlot::Miss => tally(|x| x.verify_miss.record(t)),
        }
        ok
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// Times a signer's calls.
struct TimedSigner<S>(S);

impl<S: Signer> Signer for TimedSigner<S> {
    fn id(&self) -> SignerId {
        self.0.id()
    }

    fn sign(&self, data: &[u8]) -> Signature {
        let t = Instant::now();
        let sig = self.0.sign(data);
        tally(|x| x.sign.record(t));
        sig
    }
}

/// Builds `scenario`'s simulator as `ScenarioConfig::build_wire_sim` does —
/// the same key registry seed, positions and verifier cache capacity —
/// with every layer timed. Returns the shared verifier too, so
/// the caller can compare the wrappers' counts with the cache's own.
///
/// # Panics
///
/// Panics on scenarios outside what the factory mirrors: another protocol
/// than byzcast, adversaries, a fault plan, or a sabotaged node.
pub fn build_sim(
    scenario: &ScenarioConfig,
) -> (Simulator<WireMsg>, Arc<dyn Verifier + Send + Sync>) {
    assert_eq!(
        scenario.protocol,
        ProtocolChoice::Byzcast,
        "traced runs mirror byzcast only"
    );
    assert!(
        scenario.fault_plan.is_empty(),
        "traced runs take no fault plan"
    );
    assert!(scenario.sabotage.is_none(), "traced runs take no sabotage");
    assert!(
        scenario.adversary_set().is_empty(),
        "traced runs take no adversaries"
    );
    let positions = scenario.initial_positions();
    let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(scenario.seed, scenario.n as u32);
    let real = TimedVerifier {
        inner: keys.verifier(),
        slot: VerifySlot::Miss,
    };
    let capacity = scenario.byzcast.sig_cache_capacity;
    let verifier: Arc<dyn Verifier + Send + Sync> = if capacity > 0 {
        Arc::new(TimedVerifier {
            inner: CachingVerifier::new(real, capacity),
            slot: VerifySlot::Every,
        })
    } else {
        // Without a cache every call is a miss: count it in both places.
        Arc::new(TimedVerifier {
            inner: real,
            slot: VerifySlot::Every,
        })
    };
    let make = |id: NodeId| -> BoxedProtocol<WireMsg> {
        let node = ByzcastNode::new(
            id,
            scenario.byzcast.clone(),
            Box::new(TimedSigner(keys.signer(SignerId(id.0)))),
            Arc::clone(&verifier),
        );
        Box::new(Timed(node))
    };
    let sim = SimBuilder::new(SimConfig {
        seed: scenario.seed,
        ..scenario.sim.clone()
    })
    .with_mobility(scenario.mobility.build())
    .with_positions(positions)
    .with_nodes(scenario.n, make)
    .build();
    (sim, verifier)
}
