//! The discrete-event simulation engine.
//!
//! The engine owns the nodes (boxed [`Protocol`] state machines), their
//! positions, the shared radio medium, per-node MAC state, timers, and
//! metrics. It processes events in deterministic time order:
//!
//! 1. **Protocol actions** (from callbacks) enqueue frames at the node's MAC.
//! 2. The **MAC** carrier-senses the medium and transmits after a random
//!    backoff, retrying while the medium is busy.
//! 3. A **transmission** occupies the medium for its air time; at its end the
//!    engine resolves, per potential receiver, half-duplex misses, links
//!    too weak to decode (not counted as any loss), collisions (any
//!    overlapping audible transmission destroys a decodable frame), fading
//!    and background-noise losses — and dispatches `on_packet` for survivors.
//!
//! Runs are bit-for-bit reproducible from [`SimConfig::seed`].

use std::any::Any;
use std::sync::Arc;

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::geometry::{Field, Position};
use crate::mac::{MacConfig, MacState};
use crate::metrics::{BroadcastRecord, DeliveryRecord, Metrics};
use crate::mobility::{MobilityModel, StaticPlacement};
use crate::node::{Action, AppPayload, Context, Message, NodeId, Protocol, TimerKey};
use crate::radio::{RadioConfig, RadioModel};
use crate::rng::SimRng;
use crate::spatial::{NodeGrid, TxEntry, TxGrid};
use crate::time::{SimDuration, SimTime};

/// Top-level simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; all randomness in the run derives from it.
    pub seed: u64,
    /// The simulation area.
    pub field: Field,
    /// Radio propagation parameters.
    pub radio: RadioConfig,
    /// MAC-layer parameters.
    pub mac: MacConfig,
    /// How often mobile positions are advanced.
    pub mobility_tick: SimDuration,
    /// Cell size of the spatial grids over node positions and in-flight
    /// transmissions; nothing else. `true` uses cells about one audible
    /// radius wide, so a query probes only nearby entities; `false` uses
    /// one cell covering the field, so every query returns every node or
    /// transmission (the reference for differential tests). The node grid
    /// is queried only to rebuild a node's cached audible neighbourhood
    /// (after a mobility tick or from a new anchor), the transmission grid
    /// once per frame end for the collision overlap set. Results are
    /// bit-identical either way: the grids are conservative pre-filters for
    /// the same exact geometric predicates.
    pub spatial_index: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            field: Field::default(),
            radio: RadioConfig::default(),
            mac: MacConfig::default(),
            mobility_tick: SimDuration::from_millis(200),
            spatial_index: true,
        }
    }
}

/// Object-safe extension of [`Protocol`] adding downcasting, so tests and the
/// harness can inspect concrete protocol state inside a running simulation.
///
/// Blanket-implemented for every `Protocol + 'static`; do not implement
/// manually.
pub trait DynProtocol: Protocol {
    /// The protocol as `Any`, for downcasting.
    fn as_any(&self) -> &dyn Any;
    /// The protocol as mutable `Any`, for downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Protocol + 'static> DynProtocol for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A boxed, downcastable protocol instance.
pub type BoxedProtocol<M> = Box<dyn DynProtocol<Msg = M>>;

/// Rebuilds a node's protocol after a restart that lost state
/// (see [`SimBuilder::with_restart_factory`]).
pub type RestartFactory<M> = Box<dyn FnMut(NodeId) -> BoxedProtocol<M>>;

/// An in-flight (or recently finished) radio transmission.
///
/// The payload lives behind an [`Arc`] so resolving receivers never clones
/// the message itself — one `Arc` bump per transmission, however many nodes
/// hear it.
#[derive(Clone, Debug)]
struct Transmission<M> {
    id: u64,
    src: NodeId,
    src_pos: Position,
    start: SimTime,
    end: SimTime,
    msg: Arc<M>,
}

/// The nodes audible from one anchor position, cached per transmitter.
///
/// `ids` holds, in ascending order, every node `q` with
/// `audible(anchor, positions[q])`, the owner too while it is within range
/// of the anchor. It is valid while `key` equals
/// `(positions_epoch, anchor)`: positions only change on a mobility tick,
/// which moves the epoch, and a node's frames are resolved around the
/// position it held when each one started.
#[derive(Clone, Debug, Default)]
struct Neighbourhood {
    key: Option<(u64, Position)>,
    ids: Vec<u32>,
}

/// Builds a [`Simulator`].
pub struct SimBuilder<M: Message> {
    config: SimConfig,
    mobility: Box<dyn MobilityModel>,
    explicit_positions: Option<Vec<Position>>,
    factories: Vec<BoxedProtocol<M>>,
    fault_plan: FaultPlan,
    restart_factory: Option<RestartFactory<M>>,
}

impl<M: Message> SimBuilder<M> {
    /// Starts a builder with uniform-random static placement.
    pub fn new(config: SimConfig) -> Self {
        SimBuilder {
            config,
            mobility: Box::new(StaticPlacement::UniformRandom),
            explicit_positions: None,
            factories: Vec::new(),
            fault_plan: FaultPlan::new(),
            restart_factory: None,
        }
    }

    /// Injects the faults in `plan` during the run. An empty plan (the
    /// default) schedules nothing and leaves the run bit-identical to one
    /// built without a plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Provides the factory used to rebuild a node's protocol when a
    /// [`FaultKind::Restart`] follows a crash that did not retain state.
    pub fn with_restart_factory(mut self, factory: RestartFactory<M>) -> Self {
        self.restart_factory = Some(factory);
        self
    }

    /// Uses `model` to place and move nodes.
    pub fn with_mobility(mut self, model: Box<dyn MobilityModel>) -> Self {
        self.mobility = model;
        self
    }

    /// Places nodes at exactly these positions (overrides the mobility
    /// model's initial placement; movement still follows the model).
    pub fn with_positions(mut self, positions: Vec<Position>) -> Self {
        self.explicit_positions = Some(positions);
        self
    }

    /// Appends `n` nodes whose protocols are produced by `factory`
    /// (called with each new node's id).
    pub fn with_nodes(
        mut self,
        n: usize,
        mut factory: impl FnMut(NodeId) -> BoxedProtocol<M>,
    ) -> Self {
        let base = self.factories.len() as u32;
        for i in 0..n {
            self.factories.push(factory(NodeId(base + i as u32)));
        }
        self
    }

    /// Appends a single node with the given protocol.
    pub fn with_node(mut self, protocol: BoxedProtocol<M>) -> Self {
        self.factories.push(protocol);
        self
    }

    /// Finalizes the simulator.
    ///
    /// # Panics
    ///
    /// Panics if the radio or MAC configuration is invalid, no nodes were
    /// added, or explicit positions do not match the node count.
    pub fn build(self) -> Simulator<M> {
        if let Err(e) = self.config.radio.validate() {
            panic!("invalid radio config: {e}");
        }
        if let Err(e) = self.config.mac.validate() {
            panic!("invalid MAC config: {e}");
        }
        let n = self.factories.len();
        assert!(n > 0, "simulation needs at least one node");
        if let Err(e) = self.fault_plan.validate(n) {
            panic!("invalid fault plan: {e}");
        }

        let mut master = SimRng::new(self.config.seed);
        let mut placement_rng = master.fork(0x504c4143); // "PLAC"
        let mut mobility = self.mobility;
        let positions = match self.explicit_positions {
            Some(ps) => {
                assert_eq!(ps.len(), n, "explicit positions count mismatch");
                // Let the mobility model initialize its own state for n nodes.
                let _ = mobility.initial_positions(n, &self.config.field, &mut placement_rng);
                ps
            }
            None => mobility.initial_positions(n, &self.config.field, &mut placement_rng),
        };
        let node_rngs = (0..n).map(|i| master.fork(1000 + i as u64)).collect();
        let mobility_rng = master.fork(0x4d4f42);

        let mut queue = EventQueue::new();
        queue.push(SimTime::ZERO, EventKind::StartAll);
        let is_static = mobility.is_static();
        if !is_static {
            queue.push(
                SimTime::ZERO + self.config.mobility_tick,
                EventKind::MobilityTick,
            );
        }
        let fault_events = self.fault_plan.sorted_events();
        for (index, ev) in fault_events.iter().enumerate() {
            queue.push(SimTime::ZERO + ev.at, EventKind::Fault { index });
        }

        let radio = RadioModel::new(self.config.radio);
        let audible_radius = radio.audible_radius();
        // Cell size = the audible radius: a radius-r query then touches at
        // most a 3 × 3 block of cells. A floor on the cell size caps the
        // grid at a sane cell count whatever the radio range. Any positive
        // cell size is correct — the grid is only a conservative pre-filter —
        // and one cell covering the field makes every query a full scan.
        let field = &self.config.field;
        let span = field.width.max(field.height);
        let cell = if self.config.spatial_index {
            audible_radius.max(span / 128.0)
        } else {
            span
        };
        let grid = NodeGrid::new(field, cell, &positions);
        let tx_grid = TxGrid::new(field, cell);
        Simulator {
            metrics: Metrics::default(),
            timers: vec![Vec::new(); n],
            mac: (0..n).map(|_| MacState::default()).collect(),
            fault_events,
            restart_factory: self.restart_factory,
            up: vec![true; n],
            state_lost: vec![false; n],
            active_jams: Vec::new(),
            nodes: self.factories,
            node_rngs,
            positions,
            mobility,
            mobility_rng,
            radio,
            audible_radius,
            grid,
            tx_grid,
            positions_epoch: 0,
            neighbourhoods: vec![Neighbourhood::default(); n],
            busy_until: vec![SimTime::ZERO; n],
            own_tx: vec![[(SimTime::ZERO, SimTime::ZERO); 2]; n],
            #[cfg(test)]
            own_tx_log: vec![Vec::new(); n],
            overlap_buf: Vec::new(),
            actions_buf: Vec::new(),
            config: self.config,
            now: SimTime::ZERO,
            queue,
            active_tx: Vec::new(),
            tx_counter: 0,
            max_air_time: SimDuration::ZERO,
        }
    }
}

/// The simulator: a network of protocol nodes over a shared wireless medium.
pub struct Simulator<M: Message> {
    config: SimConfig,
    radio: RadioModel,
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<BoxedProtocol<M>>,
    node_rngs: Vec<SimRng>,
    positions: Vec<Position>,
    mobility: Box<dyn MobilityModel>,
    mobility_rng: SimRng,
    /// Armed timers per node. Protocols use a handful of distinct keys, so a
    /// linear-scan vector beats a hash map here (order is irrelevant: every
    /// access is a point lookup by key).
    timers: Vec<Vec<(TimerKey, SimTime)>>,
    mac: Vec<MacState<M>>,
    /// The fault plan's events, sorted by firing time; `EventKind::Fault`
    /// carries an index into this list. Empty when no plan was given.
    fault_events: Vec<FaultEvent>,
    /// Rebuilds a node's protocol after a restart without retained state.
    restart_factory: Option<RestartFactory<M>>,
    /// Whether each node is up (crashed nodes neither run callbacks nor
    /// touch the radio). All `true` when no fault plan is in effect.
    up: Vec<bool>,
    /// Whether a crash discarded the node's protocol state, so the next
    /// restart must rebuild it through `restart_factory`.
    state_lost: Vec<bool>,
    /// Currently active jam regions: `(id, center, radius_m, loss)`.
    /// Empty whenever no jam window is open — the hot reception path only
    /// pays for jamming while this is non-empty.
    active_jams: Vec<(u32, Position, f64, f64)>,
    /// In-flight (and recently finished) transmissions, sorted by id
    /// (ids are assigned monotonically and pruning preserves order).
    active_tx: Vec<Transmission<M>>,
    tx_counter: u64,
    max_air_time: SimDuration,
    /// Audible (carrier-sense) radius, cached from the radio model: the
    /// radius of every spatial query the engine makes.
    audible_radius: f64,
    /// Node-position grid (one cell when `spatial_index` is off), queried
    /// only to rebuild a stale entry of `neighbourhoods`.
    grid: NodeGrid,
    /// In-flight-transmission grid, keyed by each transmitter's position at
    /// transmission start (one cell when `spatial_index` is off), queried
    /// once per `TxEnd` for the radius-2r collision overlap set.
    tx_grid: TxGrid,
    /// Moves on every mobility tick, the only place positions change, and
    /// so invalidates every cached neighbourhood at once.
    positions_epoch: u64,
    /// Per-node cached audible neighbourhood, around the anchor the node
    /// last transmitted from: a frame's receivers and the nodes whose
    /// medium it makes busy.
    neighbourhoods: Vec<Neighbourhood>,
    /// Per-node medium-busy index: the latest end of a transmission audible
    /// at the node's current position, exact whenever it lies in the
    /// future. Raised by `start_transmission` over the sender's
    /// neighbourhood and rebuilt from `active_tx` on every mobility tick;
    /// values at or before `now` are stale and ignored.
    busy_until: Vec<SimTime>,
    /// Per-node `(start, end)` of the node's previous and latest own
    /// frames (`ZERO` intervals before it sent any), wherever the node was
    /// when it sent them: the own-carrier and half-duplex checks must not
    /// depend on its *current* position, so they cannot go through the
    /// grids or the neighbourhoods. Two slots answer both checks exactly;
    /// see `handle_tx_end`.
    own_tx: Vec<[(SimTime, SimTime); 2]>,
    /// Every own frame of every node: the reference the two slots are
    /// checked against in test builds.
    #[cfg(test)]
    own_tx_log: Vec<Vec<(SimTime, SimTime)>>,
    /// Scratch buffer for the per-transmission collision overlap set
    /// (reused across events).
    overlap_buf: Vec<(NodeId, Position)>,
    /// Scratch buffer for protocol callback actions (reused across
    /// dispatches; `apply` never re-enters `dispatch`).
    actions_buf: Vec<Action<M>>,
    metrics: Metrics,
}

impl<M: Message + 'static> Simulator<M> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current position of `node`.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Whether `node` is up (not crashed by the fault plan).
    pub fn is_up(&self, node: NodeId) -> bool {
        self.up[node.index()]
    }

    /// Current positions of all nodes, indexed by id.
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The radio model in use.
    pub fn radio(&self) -> &RadioModel {
        &self.radio
    }

    /// Downcasts `node`'s protocol to a concrete type for inspection.
    pub fn protocol<P: 'static>(&self, node: NodeId) -> Option<&P> {
        self.nodes[node.index()].as_any().downcast_ref::<P>()
    }

    /// Mutable variant of [`Simulator::protocol`].
    pub fn protocol_mut<P: 'static>(&mut self, node: NodeId) -> Option<&mut P> {
        self.nodes[node.index()].as_any_mut().downcast_mut::<P>()
    }

    /// Ground-truth one-hop neighbours of `node` under the nominal disk model
    /// (the paper's `N(1, p)`).
    pub fn nominal_neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let p = self.positions[node.index()];
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&q| q != node && self.radio.in_nominal_range(&p, &self.positions[q.index()]))
            .collect()
    }

    /// Ground-truth adjacency under the nominal disk model.
    pub fn nominal_adjacency(&self) -> Vec<Vec<NodeId>> {
        (0..self.nodes.len() as u32)
            .map(|i| self.nominal_neighbors(NodeId(i)))
            .collect()
    }

    /// Schedules an application broadcast of `size_bytes` at the absolute
    /// instant `at` (offset from simulation start) on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_app_broadcast(
        &mut self,
        at: SimDuration,
        node: NodeId,
        payload_id: u64,
        size_bytes: usize,
    ) {
        let t = SimTime::ZERO + at;
        assert!(t >= self.now, "cannot schedule a broadcast in the past");
        self.queue.push(
            t,
            EventKind::AppBroadcast {
                node,
                payload: AppPayload {
                    id: payload_id,
                    size_bytes,
                },
            },
        );
    }

    /// Runs the simulation until the absolute instant `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(et) = self.queue.peek_time() {
            if et > t {
                break;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            self.now = ev.time;
            self.handle(ev.kind);
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Runs the simulation for `d` more simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let target = self.now + d;
        self.run_until(target);
    }

    fn handle(&mut self, kind: EventKind) {
        match kind {
            EventKind::StartAll => {
                for i in 0..self.nodes.len() {
                    self.dispatch(NodeId(i as u32), |p, ctx| p.on_start(ctx));
                }
            }
            EventKind::Timer { node, key } => {
                let armed = self.timers[node.index()]
                    .iter()
                    .position(|&(k, _)| k == key)
                    .filter(|&p| self.timers[node.index()][p].1 == self.now);
                if let Some(p) = armed {
                    self.timers[node.index()].swap_remove(p);
                    self.dispatch(node, |p, ctx| p.on_timer(ctx, key));
                }
                // Otherwise the timer was re-armed or cancelled: stale, skip.
            }
            EventKind::AppBroadcast { node, payload } => {
                if !self.up[node.index()] {
                    // The application cannot hand a payload to a crashed
                    // node; the broadcast never happened, so it must not
                    // count against delivery ratios either.
                    self.metrics.faults.injections_dropped += 1;
                    return;
                }
                self.metrics.broadcasts.push(BroadcastRecord {
                    origin: node,
                    payload_id: payload.id,
                    time: self.now,
                    size_bytes: payload.size_bytes,
                });
                self.dispatch(node, |p, ctx| p.on_app_broadcast(ctx, payload));
            }
            EventKind::MacAttempt { node } => self.handle_mac_attempt(node),
            EventKind::TxEnd { tx_id } => self.handle_tx_end(tx_id),
            EventKind::MobilityTick => {
                let tick = self.config.mobility_tick;
                self.mobility.step(
                    &mut self.positions,
                    tick,
                    &self.config.field,
                    &mut self.mobility_rng,
                );
                self.grid.refresh(&self.positions);
                self.positions_epoch += 1;
                self.rebuild_busy_index();
                self.queue.push(self.now + tick, EventKind::MobilityTick);
            }
            EventKind::Fault { index } => self.handle_fault(index),
        }
    }

    fn handle_fault(&mut self, index: usize) {
        match self.fault_events[index].kind {
            FaultKind::Crash { node, retain_state } => {
                let i = node.index();
                if !self.up[i] {
                    return; // already down
                }
                self.up[i] = false;
                if !retain_state {
                    self.state_lost[i] = true;
                }
                // Pending timers and queued frames die with the node. An
                // in-flight transmission still completes: the energy is
                // already on the air.
                self.timers[i].clear();
                self.mac[i] = MacState::default();
                self.metrics.faults.crashes += 1;
            }
            FaultKind::Restart { node } => {
                let i = node.index();
                if self.up[i] {
                    return; // already up
                }
                if self.state_lost[i] {
                    let factory = self
                        .restart_factory
                        .as_mut()
                        .expect("restart after a state-losing crash requires a restart factory");
                    self.nodes[i] = factory(node);
                    self.state_lost[i] = false;
                }
                self.up[i] = true;
                self.metrics.faults.restarts += 1;
                self.dispatch(node, |p, ctx| p.on_start(ctx));
            }
            FaultKind::SetByzantine { node, active } => {
                if active {
                    self.metrics.faults.byz_activations += 1;
                } else {
                    self.metrics.faults.byz_deactivations += 1;
                }
                self.dispatch(node, |p, ctx| p.on_byzantine(ctx, active));
            }
            FaultKind::JamStart {
                id,
                center,
                radius_m,
                loss,
            } => {
                self.active_jams.push((id, center, radius_m, loss));
                self.metrics.faults.jam_starts += 1;
            }
            FaultKind::JamEnd { id } => {
                self.active_jams.retain(|&(jid, _, _, _)| jid != id);
                self.metrics.faults.jam_ends += 1;
            }
        }
    }

    /// Extra loss probability from active jam regions at `pos` (the worst
    /// overlapping region wins; regions do not stack).
    fn jam_loss_at(&self, pos: &Position) -> f64 {
        let mut worst = 0.0f64;
        for &(_, center, radius_m, loss) in &self.active_jams {
            if center.distance_squared(pos) <= radius_m * radius_m {
                worst = worst.max(loss);
            }
        }
        worst
    }

    /// Runs a protocol callback and applies the actions it produced.
    fn dispatch(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn DynProtocol<Msg = M>, &mut Context<'_, M>),
    ) {
        let i = node.index();
        if !self.up[i] {
            return; // crashed nodes run no callbacks
        }
        let mut actions = std::mem::take(&mut self.actions_buf);
        actions.clear();
        {
            let proto = &mut self.nodes[i];
            let rng = &mut self.node_rngs[i];
            let mut ctx = Context::new(node, self.now, rng, &mut actions);
            f(proto.as_mut(), &mut ctx);
        }
        for action in actions.drain(..) {
            self.apply(node, action);
        }
        self.actions_buf = actions;
    }

    fn apply(&mut self, node: NodeId, action: Action<M>) {
        let i = node.index();
        match action {
            Action::Send(msg) => {
                if !self.mac[i].enqueue(msg, self.config.mac.queue_capacity) {
                    self.metrics.record_queue_drop();
                    return;
                }
                if !self.mac[i].attempt_pending() {
                    self.mac[i].set_attempt_pending(true);
                    let slots = self.node_rngs[i].gen_range_u64(self.config.mac.cw_slots);
                    let delay = self.config.mac.backoff_delay(slots);
                    self.queue
                        .push(self.now + delay, EventKind::MacAttempt { node });
                }
            }
            Action::SetTimer { at, key } => {
                let at = at.max(self.now);
                match self.timers[i].iter_mut().find(|(k, _)| *k == key) {
                    Some(entry) => entry.1 = at,
                    None => self.timers[i].push((key, at)),
                }
                self.queue.push(at, EventKind::Timer { node, key });
            }
            Action::CancelTimer(key) => {
                if let Some(p) = self.timers[i].iter().position(|&(k, _)| k == key) {
                    self.timers[i].swap_remove(p);
                }
            }
            Action::Deliver { origin, payload_id } => {
                self.metrics.deliveries.push(DeliveryRecord {
                    node,
                    origin,
                    payload_id,
                    time: self.now,
                });
            }
        }
    }

    /// Makes `neighbourhoods[node]` hold the nodes audible from `anchor`
    /// under the current positions: a grid query for the conservative
    /// candidate superset (ascending ids), then the exact `audible`
    /// predicate. Rebuilds only when the epoch or the anchor changed.
    fn ensure_neighbourhood(&mut self, node: usize, anchor: Position) {
        let key = Some((self.positions_epoch, anchor));
        let nb = &mut self.neighbourhoods[node];
        if nb.key == key {
            return;
        }
        self.grid
            .candidates_within(&anchor, self.audible_radius, &mut nb.ids);
        let (radio, positions) = (&self.radio, &self.positions);
        nb.ids
            .retain(|&q| radio.audible(&anchor, &positions[q as usize]));
        nb.key = key;
    }

    /// Marks the medium busy until `end` at every node that hears a frame
    /// sent by `src` from `anchor`.
    fn raise_busy(&mut self, src: usize, anchor: Position, end: SimTime) {
        self.ensure_neighbourhood(src, anchor);
        for &q in &self.neighbourhoods[src].ids {
            let busy = &mut self.busy_until[q as usize];
            *busy = (*busy).max(end);
        }
    }

    /// Recomputes `busy_until` from the transmissions still on the air,
    /// after a mobility tick moved the nodes that hear them.
    fn rebuild_busy_index(&mut self) {
        self.busy_until.fill(SimTime::ZERO);
        for k in 0..self.active_tx.len() {
            let t = &self.active_tx[k];
            if t.end > self.now {
                let (src, anchor, end) = (t.src.index(), t.src_pos, t.end);
                self.raise_busy(src, anchor, end);
            }
        }
    }

    /// Latest instant until which the medium is busy as heard at `node`
    /// (its own transmission or any audible ongoing one); `None` if idle.
    fn medium_busy_until(&self, node: NodeId) -> Option<SimTime> {
        let i = node.index();
        // The own carrier comes from the node's latest own frame, wherever
        // the node was when it sent it — it may have moved since, out of
        // that frame's audible disk. Others come from the busy index; an
        // own transmission it also holds is harmless under `max`.
        let own = Some(self.own_tx[i][1].1).filter(|&e| e > self.now);
        let heard = Some(self.busy_until[i]).filter(|&b| b > self.now);
        #[cfg(test)]
        {
            let logged = self.own_tx_log[i]
                .iter()
                .map(|&(_, end)| end)
                .filter(|&end| end > self.now)
                .max();
            assert_eq!(own, logged, "own carrier of {node:?} diverged");
            let pos = self.positions[i];
            let scanned = self
                .active_tx
                .iter()
                .filter(|t| t.end > self.now && self.radio.audible(&t.src_pos, &pos))
                .map(|t| t.end)
                .max();
            assert_eq!(heard, scanned, "busy index of {node:?} diverged");
        }
        own.max(heard)
    }

    fn handle_mac_attempt(&mut self, node: NodeId) {
        let i = node.index();
        self.mac[i].set_attempt_pending(false);
        if !self.mac[i].has_pending() {
            return;
        }
        if let Some(busy_until) = self.medium_busy_until(node) {
            // Medium busy (or self transmitting): back off past it.
            self.mac[i].set_attempt_pending(true);
            let slots = self.node_rngs[i].gen_range_u64(self.config.mac.cw_slots);
            let delay = self.config.mac.backoff_delay(slots);
            self.queue
                .push(busy_until + delay, EventKind::MacAttempt { node });
            return;
        }
        let msg = self.mac[i].dequeue().expect("checked has_pending");
        let end = self.start_transmission(node, msg);
        if self.mac[i].has_pending() {
            // Schedule the next frame after this transmission + fresh
            // backoff. The medium was idle a moment ago, so it is busy
            // exactly until this transmission's end.
            self.mac[i].set_attempt_pending(true);
            let slots = self.node_rngs[i].gen_range_u64(self.config.mac.cw_slots);
            let delay = self.config.mac.backoff_delay(slots);
            self.queue.push(end + delay, EventKind::MacAttempt { node });
        }
    }

    /// Puts `msg` on the air from `node` now; returns when it ends.
    fn start_transmission(&mut self, node: NodeId, msg: M) -> SimTime {
        let bytes = msg.wire_size();
        let kind = msg.kind();
        let air = SimDuration::from_micros(self.config.radio.air_time_us(bytes));
        self.max_air_time = self.max_air_time.max(air);
        let id = self.tx_counter;
        self.tx_counter += 1;
        let src_pos = self.positions[node.index()];
        let end = self.now + air;
        self.raise_busy(node.index(), src_pos, end);
        self.tx_grid.insert(TxEntry {
            id,
            start: self.now,
            end,
            src: node.0,
            src_pos,
        });
        // A node never starts a frame while its own carrier is up, so its
        // frames are disjoint: the latest slot has ended by now, and moves
        // to the previous one.
        let slots = &mut self.own_tx[node.index()];
        debug_assert!(slots[1].1 <= self.now, "{node:?} overlaps its own frame");
        *slots = [slots[1], (self.now, end)];
        #[cfg(test)]
        self.own_tx_log[node.index()].push((self.now, end));
        self.active_tx.push(Transmission {
            id,
            src: node,
            src_pos,
            start: self.now,
            end,
            msg: Arc::new(msg),
        });
        self.mac[node.index()].set_transmitting(true);
        self.metrics.record_send(kind, bytes);
        self.queue.push(end, EventKind::TxEnd { tx_id: id });
        end
    }

    fn handle_tx_end(&mut self, tx_id: u64) {
        let tx_idx = match self.active_tx.binary_search_by_key(&tx_id, |t| t.id) {
            Ok(idx) => idx,
            Err(_) => return, // already pruned (cannot normally happen)
        };
        let (src, src_pos, start, end) = {
            let t = &self.active_tx[tx_idx];
            (t.src, t.src_pos, t.start, t.end)
        };
        // One Arc bump per transmission; every receiver borrows through it.
        let msg = Arc::clone(&self.active_tx[tx_idx].msg);
        // The sender's radio is free again (unless it has another overlapping
        // transmission, which the MAC never produces).
        self.mac[src.index()].set_transmitting(false);

        // Receivers: the nodes audible from where the frame started, in
        // ascending id order, so per-node RNG streams are consumed in the
        // same order whatever the cell size. The cached neighbourhood
        // usually still holds them; after a mobility tick it is rebuilt
        // around the same anchor. It is taken out for the loop (dispatch
        // never starts a transmission, so nothing reads it meanwhile).
        self.ensure_neighbourhood(src.index(), src_pos);
        let receivers = std::mem::take(&mut self.neighbourhoods[src.index()].ids);
        #[cfg(test)]
        {
            let scanned: Vec<u32> = (0..self.positions.len() as u32)
                .filter(|&q| self.radio.audible(&src_pos, &self.positions[q as usize]))
                .collect();
            assert_eq!(receivers, scanned, "neighbourhood of {src:?} diverged");
        }

        // Potential interferers, collected ONCE per transmission end rather
        // than probed per receiver: every receiver q lies within the audible
        // radius r of src, so by the triangle inequality any transmitter
        // audible at q (within r of q) lies within 2r of src — a grid query
        // of radius 2r around src sees a superset of every interferer any
        // receiver can hear. The time-overlap and id filters are
        // receiver-independent and applied here; the receiver-dependent
        // `audible`/`captures` predicates are applied per receiver below.
        let mut overlaps = std::mem::take(&mut self.overlap_buf);
        overlaps.clear();
        self.tx_grid
            .for_each_within(&src_pos, 2.0 * self.audible_radius, |t| {
                if t.id != tx_id && t.start < end && t.end > start {
                    overlaps.push((NodeId(t.src), t.src_pos));
                }
            });

        for &q_raw in &receivers {
            let qi = q_raw as usize;
            let q = NodeId(q_raw);
            if q == src {
                continue;
            }
            if !self.up[qi] {
                continue; // crashed receivers hear nothing (no RNG draws)
            }
            let q_pos = self.positions[qi];
            // Half-duplex: q cannot receive while itself transmitting,
            // wherever q was when it sent. q's frames are disjoint, so if
            // any overlaps this one, so does the last that started before
            // `end`. That is q's latest frame, or its previous one if the
            // latest started at this very instant (`now` is `end`): two of
            // q's frames never start at the same instant.
            let overlaps_this = |(s, e): (SimTime, SimTime)| s < end && e > start;
            let [prev, latest] = self.own_tx[qi];
            let half_duplex = overlaps_this(latest) || overlaps_this(prev);
            #[cfg(test)]
            {
                let logged = self.own_tx_log[qi].iter().any(|&f| overlaps_this(f));
                assert_eq!(half_duplex, logged, "half-duplex verdict of {q:?} diverged");
            }
            if half_duplex {
                self.metrics.record_half_duplex_loss();
                continue;
            }
            // Audible (carrier) but not decodable: q could not have received
            // the frame whatever else was on the air, so it is no loss of
            // any kind, a collision included.
            let p_link = self.radio.link_success_probability(&src_pos, &q_pos);
            if p_link <= 0.0 {
                continue;
            }
            // Collision: any other transmission overlapping in time and
            // audible at q corrupts this reception — unless the signal
            // captures over the interferer (much closer transmitter). The
            // pre-collected overlap set is a superset of the audible
            // transmitters at every receiver; the exact predicate is applied
            // per receiver.
            let collided = overlaps.iter().any(|&(t_src, t_pos)| {
                t_src != q
                    && self.radio.audible(&t_pos, &q_pos)
                    && !self.radio.captures(&src_pos, &t_pos, &q_pos)
            });
            if collided {
                self.metrics.record_collision();
                continue;
            }
            // Fading + background noise.
            let received = self.radio.draw_reception(p_link, &mut self.node_rngs[qi]);
            if !received {
                self.metrics.record_noise_loss();
                continue;
            }
            // Jamming: one extra Bernoulli draw per surviving reception,
            // only while a jam window is open, so fault-free runs consume
            // bit-identical RNG streams.
            if !self.active_jams.is_empty() {
                let jam_loss = self.jam_loss_at(&q_pos);
                if jam_loss > 0.0 && self.node_rngs[qi].gen_bool(jam_loss) {
                    self.metrics.faults.jam_losses += 1;
                    continue;
                }
            }
            self.metrics.record_reception();
            self.dispatch(q, |p, ctx| p.on_packet(ctx, src, msg.as_ref()));
        }
        self.neighbourhoods[src.index()].ids = receivers;
        self.overlap_buf = overlaps;

        // Prune transmissions that ended more than two max-air-times ago: no
        // transmission still pending or future can overlap them in time.
        let keep_after = SimTime::from_micros(
            self.now
                .as_micros()
                .saturating_sub(2 * self.max_air_time.as_micros()),
        );
        // One pass: drop the stale transmission and its grid entry together.
        let tx_grid = &mut self.tx_grid;
        self.active_tx.retain(|t| {
            let keep = t.end >= keep_after;
            if !keep {
                tx_grid.remove(t.id, &t.src_pos);
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[derive(Clone, Debug)]
    pub(super) struct TestMsg {
        id: u64,
        origin: NodeId,
        bytes: usize,
    }
    impl Message for TestMsg {
        fn wire_size(&self) -> usize {
            self.bytes
        }
        fn kind(&self) -> &'static str {
            "test"
        }
    }

    /// Delivers + floods everything exactly once.
    pub(super) struct Flooder {
        pub(super) seen: HashSet<u64>,
    }
    impl Flooder {
        pub(super) fn boxed(_: NodeId) -> BoxedProtocol<TestMsg> {
            Box::new(Flooder {
                seen: HashSet::new(),
            })
        }
    }
    impl Protocol for Flooder {
        type Msg = TestMsg;
        fn on_packet(&mut self, ctx: &mut Context<'_, TestMsg>, _from: NodeId, msg: &TestMsg) {
            if self.seen.insert(msg.id) {
                ctx.deliver(msg.origin, msg.id);
                ctx.send(msg.clone());
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, TestMsg>, _t: TimerKey) {}
        fn on_app_broadcast(&mut self, ctx: &mut Context<'_, TestMsg>, payload: AppPayload) {
            self.seen.insert(payload.id);
            ctx.deliver(ctx.node_id(), payload.id);
            ctx.send(TestMsg {
                id: payload.id,
                origin: ctx.node_id(),
                bytes: payload.size_bytes,
            });
        }
    }

    fn line_config(range: f64) -> SimConfig {
        SimConfig {
            radio: RadioConfig::ideal_disk(range),
            field: Field::new(1000.0, 100.0),
            ..SimConfig::default()
        }
    }

    #[test]
    fn two_nodes_in_range_exchange() {
        let config = line_config(150.0);
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![Position::new(0.0, 50.0), Position::new(100.0, 50.0)])
            .with_nodes(2, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(1));
        let m = sim.metrics();
        assert_eq!(m.deliveries.len(), 2); // origin + neighbour
        assert!(m.deliveries.iter().any(|d| d.node == NodeId(1)));
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let config = line_config(150.0);
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![Position::new(0.0, 50.0), Position::new(900.0, 50.0)])
            .with_nodes(2, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.metrics().deliveries.len(), 1); // only the origin
    }

    #[test]
    fn multihop_flooding_reaches_the_line_end() {
        let config = line_config(150.0);
        let positions: Vec<Position> = (0..8)
            .map(|i| Position::new(i as f64 * 100.0, 50.0))
            .collect();
        let mut sim = SimBuilder::new(config)
            .with_positions(positions)
            .with_nodes(8, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 42, 64);
        sim.run_for(SimDuration::from_secs(5));
        let delivered: HashSet<NodeId> = sim.metrics().deliveries.iter().map(|d| d.node).collect();
        assert_eq!(delivered.len(), 8, "not all nodes delivered: {delivered:?}");
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| {
            let config = SimConfig {
                seed,
                radio: RadioConfig::default(),
                ..SimConfig::default()
            };
            let mut sim = SimBuilder::new(config)
                .with_nodes(30, Flooder::boxed)
                .build();
            for k in 0..5 {
                sim.schedule_app_broadcast(
                    SimDuration::from_millis(10 + k * 100),
                    NodeId(k as u32),
                    k,
                    256,
                );
            }
            sim.run_for(SimDuration::from_secs(5));
            (
                sim.metrics().frames_sent,
                sim.metrics().collision_losses,
                sim.metrics().deliveries.len(),
            )
        };
        assert_eq!(run(7), run(7));
        // And different seeds should (almost surely) differ somewhere.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn simultaneous_senders_collide_at_common_receiver() {
        // Three nodes in a line: 0 and 2 both transmit at the same instant;
        // node 1 hears both, so with no backoff both frames must collide.
        let config = SimConfig {
            radio: RadioConfig::ideal_disk(150.0),
            mac: MacConfig {
                slot_us: 0,
                difs_us: 0,
                cw_slots: 1,
                queue_capacity: 8,
            },
            field: Field::new(1000.0, 100.0),
            ..SimConfig::default()
        };
        // 0 and 2 are 200 m apart (out of range of each other, so carrier
        // sense cannot save us) and node 1 in the middle hears both.
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![
                Position::new(0.0, 50.0),
                Position::new(100.0, 50.0),
                Position::new(200.0, 50.0),
            ])
            .with_nodes(3, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 1, 64);
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(2), 2, 64);
        sim.run_for(SimDuration::from_millis(50));
        let m = sim.metrics();
        // Node 1 must have lost both frames to the collision.
        assert!(
            m.collision_losses >= 2,
            "collisions: {}",
            m.collision_losses
        );
        assert!(!m.deliveries.iter().any(|d| d.node == NodeId(1)));
    }

    #[test]
    fn carrier_sense_serializes_neighbours() {
        // Two senders in range of each other: CSMA should let both frames
        // through to the common receiver (one defers).
        let config = SimConfig {
            radio: RadioConfig::ideal_disk(300.0),
            field: Field::new(1000.0, 100.0),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![
                Position::new(0.0, 50.0),
                Position::new(100.0, 50.0),
                Position::new(200.0, 50.0),
            ])
            .with_nodes(3, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 1, 256);
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(2), 2, 256);
        sim.run_for(SimDuration::from_secs(1));
        let delivered_at_1: HashSet<u64> = sim
            .metrics()
            .deliveries
            .iter()
            .filter(|d| d.node == NodeId(1))
            .map(|d| d.payload_id)
            .collect();
        assert_eq!(
            delivered_at_1.len(),
            2,
            "CSMA failed to serialize: {delivered_at_1:?}"
        );
    }

    #[test]
    fn timers_fire_and_rearm_replaces() {
        struct TimerProto {
            fired: Vec<u64>,
        }
        impl Protocol for TimerProto {
            type Msg = TestMsg;
            fn on_start(&mut self, ctx: &mut Context<'_, TestMsg>) {
                ctx.set_timer_after(SimDuration::from_millis(10), TimerKey(1));
                ctx.set_timer_after(SimDuration::from_millis(20), TimerKey(2));
                // Re-arm key 1 to 30 ms: the 10 ms deadline must not fire.
                ctx.set_timer_after(SimDuration::from_millis(30), TimerKey(1));
                // Cancel key 2 entirely.
                ctx.cancel_timer(TimerKey(2));
            }
            fn on_packet(&mut self, _: &mut Context<'_, TestMsg>, _: NodeId, _: &TestMsg) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, TestMsg>, t: TimerKey) {
                self.fired.push(t.0);
                let _ = ctx;
            }
            fn on_app_broadcast(&mut self, _: &mut Context<'_, TestMsg>, _: AppPayload) {}
        }
        let mut sim = SimBuilder::new(SimConfig::default())
            .with_node(Box::new(TimerProto { fired: Vec::new() }))
            .build();
        sim.run_for(SimDuration::from_secs(1));
        let proto = sim.protocol::<TimerProto>(NodeId(0)).unwrap();
        assert_eq!(proto.fired, vec![1]);
    }

    #[test]
    fn mobility_changes_connectivity_over_time() {
        let config = SimConfig {
            radio: RadioConfig::ideal_disk(200.0),
            mobility_tick: SimDuration::from_millis(100),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_mobility(Box::new(waypoint_for_test()))
            .with_nodes(10, Flooder::boxed)
            .build();
        let before = sim.positions().to_vec();
        sim.run_for(SimDuration::from_secs(10));
        let after = sim.positions();
        let moved = before
            .iter()
            .zip(after)
            .filter(|(a, b)| a.distance(b) > 1.0)
            .count();
        assert!(moved >= 8, "only {moved} moved");
    }

    use crate::mobility::RandomWaypoint;
    fn waypoint_for_test() -> RandomWaypoint {
        RandomWaypoint::new(5.0, 10.0, SimDuration::ZERO)
    }

    #[test]
    fn nominal_neighbors_reflect_positions() {
        let config = line_config(150.0);
        let sim = SimBuilder::new(config)
            .with_positions(vec![
                Position::new(0.0, 50.0),
                Position::new(100.0, 50.0),
                Position::new(600.0, 50.0),
            ])
            .with_nodes(3, Flooder::boxed)
            .build();
        assert_eq!(sim.nominal_neighbors(NodeId(0)), vec![NodeId(1)]);
        assert_eq!(sim.nominal_neighbors(NodeId(2)), Vec::<NodeId>::new());
        let adj = sim.nominal_adjacency();
        assert_eq!(adj[1], vec![NodeId(0)]);
    }

    #[test]
    fn metrics_count_frames_and_bytes_by_kind() {
        let config = line_config(150.0);
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![Position::new(0.0, 50.0), Position::new(100.0, 50.0)])
            .with_nodes(2, Flooder::boxed)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(1));
        let m = sim.metrics();
        assert_eq!(m.frames_of_kind("test"), m.frames_sent);
        assert_eq!(m.bytes_of_kind("test"), m.bytes_sent);
        assert!(m.frames_sent >= 2); // origin + forwarder
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_simulation_panics() {
        let _ = SimBuilder::<TestMsg>::new(SimConfig::default()).build();
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Blast {
        bytes: usize,
    }
    impl Message for Blast {
        fn wire_size(&self) -> usize {
            self.bytes
        }
        fn kind(&self) -> &'static str {
            "blast"
        }
    }

    /// Sends `count` frames at start.
    struct Blaster {
        count: usize,
    }
    impl Blaster {
        fn count(&self) -> usize {
            self.count
        }
    }
    impl Protocol for Blaster {
        type Msg = Blast;
        fn on_start(&mut self, ctx: &mut Context<'_, Blast>) {
            for _ in 0..self.count {
                ctx.send(Blast { bytes: 100 });
            }
        }
        fn on_packet(&mut self, _: &mut Context<'_, Blast>, _: NodeId, _: &Blast) {}
        fn on_timer(&mut self, _: &mut Context<'_, Blast>, _: TimerKey) {}
        fn on_app_broadcast(&mut self, _: &mut Context<'_, Blast>, _: AppPayload) {}
    }

    #[test]
    fn interface_queue_overflow_is_counted_not_fatal() {
        let config = SimConfig {
            mac: MacConfig {
                queue_capacity: 4,
                ..MacConfig::default()
            },
            radio: RadioConfig::ideal_disk(100.0),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![Position::new(0.0, 0.0)])
            .with_node(Box::new(Blaster { count: 10 }))
            .build();
        sim.run_for(SimDuration::from_secs(1));
        // One node, so the run totals are its own.
        assert_eq!(sim.node_count(), 1);
        let m = sim.metrics();
        assert_eq!(m.queue_drops, 6, "capacity 4 of 10 queued");
        assert_eq!(m.frames_sent, 4);
    }

    #[test]
    fn run_until_is_monotone_and_idempotent() {
        let mut sim = SimBuilder::new(SimConfig::default())
            .with_node(Box::new(Blaster { count: 0 }))
            .build();
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // Running to an earlier instant is a no-op, not a rewind.
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(7));
    }

    #[test]
    fn protocol_downcast_mut_allows_state_injection() {
        let mut sim = SimBuilder::new(SimConfig::default())
            .with_node(Box::new(Blaster { count: 0 }))
            .build();
        assert_eq!(sim.protocol::<Blaster>(NodeId(0)).unwrap().count(), 0);
        sim.protocol_mut::<Blaster>(NodeId(0)).unwrap().count = 7;
        assert_eq!(sim.protocol::<Blaster>(NodeId(0)).unwrap().count(), 7);
        // Wrong type downcasts to None.
        struct Other;
        assert!(sim.protocol::<Other>(NodeId(0)).is_none());
    }

    #[test]
    fn background_noise_loses_some_receptions() {
        #[derive(Clone, Debug)]
        struct Tick(#[allow(dead_code)] u64);
        impl Message for Tick {
            fn wire_size(&self) -> usize {
                16
            }
            fn kind(&self) -> &'static str {
                "tick"
            }
        }
        struct Chatter;
        impl Protocol for Chatter {
            type Msg = Tick;
            fn on_start(&mut self, ctx: &mut Context<'_, Tick>) {
                ctx.set_timer_after(SimDuration::from_millis(20), TimerKey(1));
            }
            fn on_packet(&mut self, _: &mut Context<'_, Tick>, _: NodeId, _: &Tick) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Tick>, _: TimerKey) {
                ctx.send(Tick(0));
                ctx.set_timer_after(SimDuration::from_millis(20), TimerKey(1));
            }
            fn on_app_broadcast(&mut self, _: &mut Context<'_, Tick>, _: AppPayload) {}
        }
        let config = SimConfig {
            radio: RadioConfig {
                range_m: 100.0,
                fading_fraction: 0.0,
                background_loss: 0.2,
                ..RadioConfig::default()
            },
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![Position::new(0.0, 0.0), Position::new(50.0, 0.0)])
            .with_node(Box::new(Chatter))
            .with_node(Box::new(Chatter))
            .build();
        sim.run_for(SimDuration::from_secs(20));
        let m = sim.metrics();
        assert!(m.noise_losses > 0, "no noise losses at 20% background loss");
        let total = m.frames_received + m.noise_losses;
        let loss_rate = m.noise_losses as f64 / total as f64;
        assert!((loss_rate - 0.2).abs() < 0.05, "loss rate {loss_rate}");
    }

    #[test]
    fn distinct_node_streams_do_not_share_randomness() {
        // Two sims differing only in an extra node must still agree on the
        // behaviour of the shared nodes' own random draws (fork isolation).
        // Each node sends three frames, whose MAC backoffs draw from its
        // stream, then samples the stream once they are out: the sample
        // pins both the stream and how many draws its MAC took.
        struct Sampler {
            sample: Option<u64>,
        }
        impl Protocol for Sampler {
            type Msg = Blast;
            fn on_start(&mut self, ctx: &mut Context<'_, Blast>) {
                for _ in 0..3 {
                    ctx.send(Blast { bytes: 100 });
                }
                ctx.set_timer_after(SimDuration::from_millis(500), TimerKey(1));
            }
            fn on_packet(&mut self, _: &mut Context<'_, Blast>, _: NodeId, _: &Blast) {}
            fn on_timer(&mut self, ctx: &mut Context<'_, Blast>, _: TimerKey) {
                self.sample = Some(ctx.rng().next_u64());
            }
            fn on_app_broadcast(&mut self, _: &mut Context<'_, Blast>, _: AppPayload) {}
        }
        let run = |extra: bool| {
            let mut b = SimBuilder::new(SimConfig {
                radio: RadioConfig::ideal_disk(10.0), // nobody in range
                ..SimConfig::default()
            })
            .with_positions(if extra {
                vec![Position::new(0.0, 0.0), Position::new(500.0, 500.0)]
            } else {
                vec![Position::new(0.0, 0.0)]
            })
            .with_node(Box::new(Sampler { sample: None }));
            if extra {
                b = b.with_node(Box::new(Sampler { sample: None }));
            }
            let mut sim = b.build();
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(sim.metrics().frames_sent, 3 * sim.node_count() as u64);
            sim.protocol::<Sampler>(NodeId(0)).unwrap().sample
        };
        let alone = run(false);
        assert!(alone.is_some());
        assert_eq!(alone, run(true));
    }

    #[test]
    fn accessors_expose_configuration() {
        let config = SimConfig {
            seed: 99,
            ..SimConfig::default()
        };
        let sim = SimBuilder::new(config)
            .with_node(Box::new(Blaster { count: 0 }))
            .build();
        assert_eq!(sim.config().seed, 99);
        assert_eq!(sim.node_count(), 1);
        assert!(sim.radio().config().range_m > 0.0);
        assert_eq!(sim.positions().len(), 1);
        assert_eq!(sim.position(NodeId(0)), sim.positions()[0]);
    }
}

#[cfg(test)]
mod spatial_differential_tests {
    use super::tests::Flooder;
    use super::*;
    use crate::mobility::RandomWaypoint;

    /// A mid-size mobile scenario with fading, background noise and real
    /// contention, run to completion, returning the full metrics.
    fn run(seed: u64, spatial_index: bool) -> Metrics {
        let motion = Motion {
            tick: SimDuration::from_millis(100),
            max_mps: 15.0,
            broadcasts: 8,
            gap_ms: 400,
        };
        run_moving(seed, spatial_index, &motion)
    }

    /// How fast the nodes of [`run_moving`] move, and how much they send.
    struct Motion {
        tick: SimDuration,
        max_mps: f64,
        broadcasts: u64,
        gap_ms: u64,
    }

    /// 60 flooding nodes under random waypoint motion for 8 s.
    fn run_moving(seed: u64, spatial_index: bool, motion: &Motion) -> Metrics {
        let config = SimConfig {
            seed,
            spatial_index,
            radio: RadioConfig::default(),
            mobility_tick: motion.tick,
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_mobility(Box::new(RandomWaypoint::new(
                1.0,
                motion.max_mps,
                SimDuration::from_secs(1),
            )))
            .with_nodes(60, Flooder::boxed)
            .build();
        for k in 0..motion.broadcasts {
            sim.schedule_app_broadcast(
                SimDuration::from_millis(10 + k * motion.gap_ms),
                NodeId((k * 7 % 60) as u32),
                k,
                512,
            );
        }
        sim.run_for(SimDuration::from_secs(8));
        sim.metrics().clone()
    }

    /// The grid's cell size changes nothing observable. A one-cell grid
    /// (every query returns everything, i.e. a full scan) and the default
    /// radius-sized cells agree on every counter and every delivery record
    /// (node, origin, payload, time) for several seeds on a mobile
    /// scenario — i.e. per-node RNG streams were consumed identically.
    #[test]
    fn grid_path_is_bit_identical_to_one_cell_grid() {
        for seed in [1, 2, 3] {
            let one_cell = run(seed, false);
            let indexed = run(seed, true);
            assert!(
                !indexed.deliveries.is_empty() && indexed.frames_sent > 100,
                "scenario too trivial to be convincing (seed {seed})"
            );
            assert_eq!(one_cell, indexed, "seed {seed} diverged");
        }
    }

    /// Mobility ticks shorter than a frame's air time land inside almost
    /// every frame, so each `TxEnd` resolves its receivers around an anchor
    /// the sender has left under positions its cached neighbourhood has not
    /// seen, and each tick rebuilds the busy index while frames are on the
    /// air. Nodes move fast (up to 200 m/s) and a broadcast every 20 ms
    /// keeps the MAC queues full, so over a run many nodes cross the edge
    /// of some frame's audible disk mid-frame while they contend for the
    /// medium, and many senders start their next frame from a new anchor
    /// before the next tick. Under `cfg(test)` every MAC attempt asserts
    /// that the busy index and the own carrier match a scan of `active_tx`
    /// and of the node's log, and every `TxEnd` that its receivers match a
    /// scan of all positions; the two cell sizes must also agree.
    #[test]
    fn mid_frame_ticks_keep_the_caches_exact() {
        let motion = Motion {
            tick: SimDuration::from_millis(1),
            max_mps: 200.0,
            broadcasts: 200,
            gap_ms: 20,
        };
        let air = RadioConfig::default().air_time_us(512);
        assert!(air > motion.tick.as_micros(), "frames must span a tick");
        for seed in [1, 2] {
            let one_cell = run_moving(seed, false, &motion);
            let indexed = run_moving(seed, true, &motion);
            assert!(
                !indexed.deliveries.is_empty() && indexed.frames_sent > 100,
                "scenario too trivial to be convincing (seed {seed})"
            );
            assert_eq!(one_cell, indexed, "seed {seed} diverged");
        }
    }
}

#[cfg(test)]
mod moved_transmitter_tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Frame {
        bytes: usize,
    }
    impl Message for Frame {
        fn wire_size(&self) -> usize {
            self.bytes
        }
        fn kind(&self) -> &'static str {
            "frame"
        }
    }

    /// Sends frames of the `at_start` sizes at start and, if `later` is
    /// set, one frame of `later.1` bytes when its timer fires at `later.0`.
    /// Delivers every frame it hears, stamped with the receiving instant.
    struct Scripted {
        at_start: Vec<usize>,
        later: Option<(SimDuration, usize)>,
    }
    impl Protocol for Scripted {
        type Msg = Frame;
        fn on_start(&mut self, ctx: &mut Context<'_, Frame>) {
            for &bytes in &self.at_start {
                ctx.send(Frame { bytes });
            }
            if let Some((at, _)) = self.later {
                ctx.set_timer_after(at, TimerKey(1));
            }
        }
        fn on_packet(&mut self, ctx: &mut Context<'_, Frame>, from: NodeId, _: &Frame) {
            ctx.deliver(from, 0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Frame>, _: TimerKey) {
            if let Some((_, bytes)) = self.later {
                ctx.send(Frame { bytes });
            }
        }
        fn on_app_broadcast(&mut self, _: &mut Context<'_, Frame>, _: AppPayload) {}
    }

    /// Moves one node to a fixed spot on the first tick, then nothing.
    struct Teleport {
        node: usize,
        to: Position,
        done: bool,
    }
    impl MobilityModel for Teleport {
        fn initial_positions(&mut self, n: usize, _: &Field, _: &mut SimRng) -> Vec<Position> {
            vec![Position::new(0.0, 0.0); n]
        }
        fn step(&mut self, positions: &mut [Position], _: SimDuration, _: &Field, _: &mut SimRng) {
            if !std::mem::replace(&mut self.done, true) {
                positions[self.node] = self.to;
            }
        }
    }

    /// A 1 km line, 100 m ideal disks and a one-slot contention window, so
    /// every backoff is exactly one DIFS and every frame start is known.
    fn line_config(tick: SimDuration, spatial_index: bool) -> SimConfig {
        SimConfig {
            radio: RadioConfig::ideal_disk(100.0),
            mac: MacConfig {
                cw_slots: 1,
                ..MacConfig::default()
            },
            field: Field::new(1000.0, 100.0),
            mobility_tick: tick,
            spatial_index,
            ..SimConfig::default()
        }
    }

    /// Builds Q (node 0, at x = 50, teleported to x = 880 on the first
    /// tick) and S (node 1, at x = 900) and runs them for 100 ms.
    fn run_pair(config: SimConfig, q: Scripted, s: Scripted) -> Simulator<Frame> {
        let to = Position::new(880.0, 50.0);
        let mut sim = SimBuilder::new(config)
            .with_mobility(Box::new(Teleport {
                node: 0,
                to,
                done: false,
            }))
            .with_positions(vec![Position::new(50.0, 50.0), Position::new(900.0, 50.0)])
            .with_node(Box::new(q))
            .with_node(Box::new(s))
            .build();
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(sim.position(NodeId(0)), to);
        sim
    }

    /// When node `at` received each frame sent by `from`.
    fn heard(sim: &Simulator<Frame>, at: NodeId, from: NodeId) -> Vec<SimTime> {
        sim.metrics()
            .deliveries
            .iter()
            .filter(|d| d.node == at && d.origin == from)
            .map(|d| d.time)
            .collect()
    }

    /// Half-duplex and own-carrier checks follow where a node *was* when it
    /// transmitted, not where it is now. Q starts a 40 ms frame at x = 50,
    /// jumps next to S (x = 880, far outside every grid query around its old
    /// spot) 5 ms in, and S sends a short frame 10 ms in: Q is still on the
    /// air, so S's frame is a half-duplex loss at Q, not a reception. Q's
    /// second frame, queued 20 ms in, must wait for its own first one to end.
    #[test]
    fn moved_transmitter_stays_half_duplex_and_defers_to_itself() {
        for spatial_index in [true, false] {
            let config = line_config(SimDuration::from_millis(5), spatial_index);
            let difs = config.mac.difs_us;
            let air = |bytes| config.radio.air_time_us(bytes);
            let (q, s) = (NodeId(0), NodeId(1));
            let sim = run_pair(
                config.clone(),
                Scripted {
                    at_start: vec![10_000],
                    later: Some((SimDuration::from_millis(20), 64)),
                },
                Scripted {
                    at_start: Vec::new(),
                    later: Some((SimDuration::from_millis(10), 64)),
                },
            );
            assert!(Position::new(50.0, 50.0).distance(&sim.position(q)) > 3.0 * 100.0);

            // Both nodes queue onto an idle medium, so each first frame
            // starts one DIFS after it is queued. Nobody hears Q's first
            // frame, sent from x = 50; S hears its second. Times in µs.
            let q_first_end = difs + air(10_000);
            let s_start = 10_000 + difs;
            assert!(s_start < q_first_end, "S's frame must overlap Q's");
            let q_heard = heard(&sim, s, q);
            assert_eq!(q_heard.len(), 1, "S hears Q's second frame only");
            let q_second_start = q_heard[0].as_micros() - air(64);

            let m = sim.metrics();
            assert_eq!(m.half_duplex_losses, 1, "spatial_index {spatial_index}");
            assert!(!m.deliveries.iter().any(|d| d.node == q));
            assert!(
                q_second_start >= q_first_end,
                "Q's second frame started at {q_second_start} µs, before its first ended at {q_first_end} µs"
            );
        }
    }

    /// The half-duplex verdict reads a receiver's *previous* own frame when
    /// its latest one starts at the very instant the resolved frame ends.
    /// Q queues two frames at start, far from S. The follow-up attempt for
    /// its second frame is pushed when the first starts, before S's
    /// `TxEnd`, so at S's end instant it runs first and, the medium now
    /// idle at Q, starts the second frame. Meanwhile a tick has moved Q into
    /// S's range, so S's frame reaches Q, which was sending its first frame
    /// when S's started: a half-duplex loss through the previous slot.
    #[test]
    fn half_duplex_reads_the_previous_frame_when_the_latest_starts_at_the_end() {
        for spatial_index in [true, false] {
            let mut config = line_config(SimDuration::ZERO, spatial_index);
            let (difs, radio) = (config.mac.difs_us, config.radio);
            let air = |bytes| radio.air_time_us(bytes);
            let (q_first, q_second, s_bytes) = (1000, 64, 200);
            // Times in µs. Q's first frame runs over [DIFS, q_first_end);
            // S's must end one DIFS later, when Q's follow-up attempt fires.
            let q_first_end = difs + air(q_first);
            let s_end = q_first_end + difs;
            let s_start = s_end - air(s_bytes);
            assert!(difs < s_start && s_start < q_first_end);
            let s_queued = SimDuration::from_micros(s_start - difs);
            // The one teleport tick lands while S is on the air.
            config.mobility_tick = SimDuration::from_micros(s_start + air(s_bytes) / 2);
            let (q, s) = (NodeId(0), NodeId(1));
            let sim = run_pair(
                config,
                Scripted {
                    at_start: vec![q_first, q_second],
                    later: None,
                },
                Scripted {
                    at_start: Vec::new(),
                    later: Some((s_queued, s_bytes)),
                },
            );
            // S heard Q's second frame, which started exactly at S's end.
            let q_second_end = SimTime::from_micros(s_end + air(q_second));
            assert_eq!(heard(&sim, s, q), vec![q_second_end]);
            let m = sim.metrics();
            assert_eq!(m.half_duplex_losses, 1, "spatial_index {spatial_index}");
            assert!(!m.deliveries.iter().any(|d| d.node == q));
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::Flooder;
    use super::*;
    use crate::mobility::RandomWaypoint;

    fn pair_config() -> SimConfig {
        SimConfig {
            radio: RadioConfig::ideal_disk(150.0),
            field: Field::new(1000.0, 100.0),
            ..SimConfig::default()
        }
    }

    fn pair_positions() -> Vec<Position> {
        vec![Position::new(0.0, 50.0), Position::new(100.0, 50.0)]
    }

    #[test]
    fn crashed_node_neither_receives_nor_delivers() {
        let plan = FaultPlan::new().crash(SimDuration::from_millis(500), NodeId(1), true);
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_secs(1), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(2));
        assert!(!sim.is_up(NodeId(1)));
        let m = sim.metrics();
        assert_eq!(m.faults.crashes, 1);
        assert!(!m.deliveries.iter().any(|d| d.node == NodeId(1)));
        // Only node 1 could receive: node 0's sole frame is the one it
        // originates, and node 1, down, sends nothing.
        assert_eq!(m.frames_received, 0);
    }

    #[test]
    fn restart_with_retained_state_resumes_and_remembers() {
        // Crash node 1 with state retention, broadcast payload 1 while it is
        // down, restart it, then broadcast payload 2: it must deliver 2 but
        // not 1 (it was off the air), and keep its pre-crash `seen` set.
        let plan = FaultPlan::new()
            .crash(SimDuration::from_millis(200), NodeId(1), true)
            .restart(SimDuration::from_secs(2), NodeId(1));
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(100), NodeId(0), 1, 64);
        sim.schedule_app_broadcast(SimDuration::from_secs(1), NodeId(0), 2, 64);
        sim.schedule_app_broadcast(SimDuration::from_secs(3), NodeId(0), 3, 64);
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.is_up(NodeId(1)));
        let at_1: Vec<u64> = sim
            .metrics()
            .deliveries
            .iter()
            .filter(|d| d.node == NodeId(1))
            .map(|d| d.payload_id)
            .collect();
        assert_eq!(at_1, vec![1, 3], "missed while down, resumed after");
        assert_eq!(sim.metrics().faults.restarts, 1);
    }

    #[test]
    fn restart_after_state_loss_uses_the_factory() {
        // Node 1 sees payload 1, crashes losing state, restarts fresh — so a
        // re-flood of payload 1 after the restart is new to it again.
        let plan = FaultPlan::new()
            .crash(SimDuration::from_secs(1), NodeId(1), false)
            .restart(SimDuration::from_secs(2), NodeId(1));
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .with_restart_factory(Box::new(Flooder::boxed))
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(100), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(5));
        // Flooder delivers on first sight: the rebuilt instance has an empty
        // `seen` set, which we can observe by injecting the same id at node 0
        // again — node 0 still remembers it (no re-flood), so instead check
        // the protocol state directly.
        let seen = &sim.protocol::<Flooder>(NodeId(1)).unwrap().seen;
        assert!(
            seen.is_empty(),
            "factory-rebuilt protocol kept state: {seen:?}"
        );
    }

    #[test]
    #[should_panic(expected = "requires a restart factory")]
    fn state_losing_restart_without_factory_panics() {
        let plan = FaultPlan::new()
            .crash(SimDuration::from_secs(1), NodeId(0), false)
            .restart(SimDuration::from_secs(2), NodeId(0));
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(vec![Position::new(0.0, 50.0)])
            .with_nodes(1, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
        sim.run_for(SimDuration::from_secs(3));
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn plan_referencing_missing_node_panics_at_build() {
        let plan = FaultPlan::new().crash(SimDuration::from_secs(1), NodeId(9), true);
        let _ = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
    }

    #[test]
    fn broadcast_injected_at_a_down_node_is_dropped_not_recorded() {
        let plan = FaultPlan::new().crash(SimDuration::from_millis(100), NodeId(0), true);
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_secs(1), NodeId(0), 1, 64);
        sim.run_for(SimDuration::from_secs(2));
        let m = sim.metrics();
        assert_eq!(m.broadcasts.len(), 0, "dropped injections must not count");
        assert_eq!(m.faults.injections_dropped, 1);
        assert!(m.deliveries.is_empty());
    }

    #[test]
    fn jam_window_destroys_receptions_then_lifts() {
        // Total jam over the receiver for seconds 1..3; broadcasts at 1.5 s
        // (inside) and 4 s (after) — only the second arrives.
        let plan = FaultPlan::new().jam_window(
            1,
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            Position::new(100.0, 50.0),
            50.0,
            1.0,
        );
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(pair_positions())
            .with_nodes(2, Flooder::boxed)
            .with_fault_plan(plan)
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1500), NodeId(0), 1, 64);
        sim.schedule_app_broadcast(SimDuration::from_secs(4), NodeId(0), 2, 64);
        sim.run_for(SimDuration::from_secs(6));
        let m = sim.metrics();
        let at_1: Vec<u64> = m
            .deliveries
            .iter()
            .filter(|d| d.node == NodeId(1))
            .map(|d| d.payload_id)
            .collect();
        assert_eq!(at_1, vec![2], "jammed frame must be lost, later one heard");
        assert!(m.faults.jam_losses >= 1);
        assert_eq!(m.faults.jam_starts, 1);
        assert_eq!(m.faults.jam_ends, 1);
    }

    #[test]
    fn jam_outside_the_region_changes_nothing() {
        let run = |plan: FaultPlan| {
            let mut sim = SimBuilder::new(pair_config())
                .with_positions(pair_positions())
                .with_nodes(2, Flooder::boxed)
                .with_fault_plan(plan)
                .build();
            sim.schedule_app_broadcast(SimDuration::from_secs(1), NodeId(0), 1, 64);
            sim.run_for(SimDuration::from_secs(3));
            let mut m = sim.metrics().clone();
            // Jam bookkeeping differs by construction; everything else must not.
            m.faults = crate::metrics::FaultStats::default();
            m
        };
        let far_jam = FaultPlan::new().jam_window(
            1,
            SimDuration::ZERO,
            SimDuration::from_secs(3),
            Position::new(900.0, 50.0),
            50.0,
            1.0,
        );
        assert_eq!(run(FaultPlan::new()), run(far_jam));
    }

    #[test]
    fn on_byzantine_hook_reaches_the_protocol() {
        struct Toggled {
            log: Vec<bool>,
        }
        impl Protocol for Toggled {
            type Msg = super::tests::TestMsg;
            fn on_packet(&mut self, _: &mut Context<'_, Self::Msg>, _: NodeId, _: &Self::Msg) {}
            fn on_timer(&mut self, _: &mut Context<'_, Self::Msg>, _: TimerKey) {}
            fn on_app_broadcast(&mut self, _: &mut Context<'_, Self::Msg>, _: AppPayload) {}
            fn on_byzantine(&mut self, _: &mut Context<'_, Self::Msg>, active: bool) {
                self.log.push(active);
            }
        }
        let plan = FaultPlan::new()
            .set_byzantine(SimDuration::from_secs(1), NodeId(0), true)
            .set_byzantine(SimDuration::from_secs(2), NodeId(0), false);
        let mut sim = SimBuilder::new(pair_config())
            .with_positions(vec![Position::new(0.0, 50.0)])
            .with_node(Box::new(Toggled { log: Vec::new() }))
            .with_fault_plan(plan)
            .build();
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(
            sim.protocol::<Toggled>(NodeId(0)).unwrap().log,
            [true, false]
        );
        assert_eq!(sim.metrics().faults.byz_activations, 1);
        assert_eq!(sim.metrics().faults.byz_deactivations, 1);
    }

    /// The differential guarantee at the engine level: a crash/restart of a
    /// node whose radio never reaches the others leaves the run's counters
    /// and deliveries bit-identical to a fault-free run (fork isolation + no
    /// extra RNG draws on the shared paths). The isolated node neither
    /// sends nor hears a frame, so every total is the rest's alone.
    #[test]
    fn faults_on_an_isolated_node_do_not_perturb_the_rest() {
        let run = |plan: FaultPlan| {
            let config = SimConfig {
                seed: 11,
                radio: RadioConfig::default(),
                mobility_tick: SimDuration::from_millis(100),
                ..SimConfig::default()
            };
            let mut positions: Vec<Position> = Vec::new();
            for i in 0..30 {
                positions.push(Position::new(60.0 * (i % 6) as f64, 60.0 * (i / 6) as f64));
            }
            // Node 30: far corner, out of audible range of the cluster.
            positions.push(Position::new(990.0, 990.0));
            let mut sim = SimBuilder::new(config)
                .with_mobility(Box::new(StaticPlacement::UniformRandom))
                .with_positions(positions)
                .with_nodes(31, Flooder::boxed)
                .with_fault_plan(plan)
                .with_restart_factory(Box::new(Flooder::boxed))
                .build();
            for k in 0..5u64 {
                sim.schedule_app_broadcast(
                    SimDuration::from_millis(10 + k * 300),
                    NodeId((k % 5) as u32),
                    k,
                    256,
                );
            }
            sim.run_for(SimDuration::from_secs(6));
            let mut m = sim.metrics().clone();
            // Fault bookkeeping differs by construction; nothing else may.
            m.faults = crate::metrics::FaultStats::default();
            m
        };
        let faulty = FaultPlan::new()
            .crash(SimDuration::from_secs(1), NodeId(30), false)
            .restart(SimDuration::from_secs(2), NodeId(30))
            .crash(SimDuration::from_secs(3), NodeId(30), true)
            .restart(SimDuration::from_secs(4), NodeId(30));
        assert_eq!(run(FaultPlan::new()), run(faulty));
    }

    #[test]
    fn mobile_runs_with_empty_plan_match_plan_free_builds() {
        // Belt and braces for the zero-effect property on the mobile path.
        let run = |with_plan: bool| {
            let config = SimConfig {
                seed: 5,
                mobility_tick: SimDuration::from_millis(100),
                ..SimConfig::default()
            };
            let mut b = SimBuilder::new(config)
                .with_mobility(Box::new(RandomWaypoint::new(
                    1.0,
                    10.0,
                    SimDuration::from_secs(1),
                )))
                .with_nodes(25, Flooder::boxed);
            if with_plan {
                b = b
                    .with_fault_plan(FaultPlan::new())
                    .with_restart_factory(Box::new(Flooder::boxed));
            }
            let mut sim = b.build();
            for k in 0..4u64 {
                sim.schedule_app_broadcast(
                    SimDuration::from_millis(10 + k * 250),
                    NodeId(k as u32),
                    k,
                    256,
                );
            }
            sim.run_for(SimDuration::from_secs(5));
            sim.metrics().clone()
        };
        assert_eq!(run(false), run(true));
    }
}

#[cfg(test)]
mod capture_engine_tests {
    use super::*;
    use std::collections::HashSet;

    #[derive(Clone, Debug)]
    struct Flat(u64);
    impl Message for Flat {
        fn wire_size(&self) -> usize {
            64
        }
        fn kind(&self) -> &'static str {
            "flat"
        }
    }
    struct Deliverer {
        got: HashSet<u64>,
    }
    impl Protocol for Deliverer {
        type Msg = Flat;
        fn on_packet(&mut self, ctx: &mut Context<'_, Flat>, from: NodeId, msg: &Flat) {
            if self.got.insert(msg.0) {
                ctx.deliver(from, msg.0);
            }
        }
        fn on_timer(&mut self, _: &mut Context<'_, Flat>, _: TimerKey) {}
        fn on_app_broadcast(&mut self, ctx: &mut Context<'_, Flat>, p: AppPayload) {
            ctx.send(Flat(p.id));
        }
    }

    fn collision_setup(capture_ratio: f64) -> Simulator<Flat> {
        // Receiver at 0; near sender at 40 m; far interferer at 240 m.
        // Senders are out of range of each other (no carrier sense rescue),
        // MAC jitter zeroed so they truly overlap.
        let config = SimConfig {
            radio: RadioConfig {
                capture_ratio,
                ..RadioConfig::ideal_disk(250.0)
            },
            mac: MacConfig {
                slot_us: 0,
                difs_us: 0,
                cw_slots: 1,
                queue_capacity: 8,
            },
            field: Field::new(600.0, 100.0),
            ..SimConfig::default()
        };
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![
                Position::new(250.0, 50.0), // receiver
                Position::new(210.0, 50.0), // near sender (40 m, left)
                Position::new(490.0, 50.0), // far interferer (240 m, right)
                                            // near ↔ far = 280 m > 250 m: hidden terminals — no carrier
                                            // sense rescue, their frames genuinely overlap at the
                                            // receiver.
            ])
            .with_nodes(3, |_| {
                Box::new(Deliverer {
                    got: HashSet::new(),
                })
            })
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(1), 1, 64);
        sim.schedule_app_broadcast(SimDuration::from_millis(1), NodeId(2), 2, 64);
        sim.run_for(SimDuration::from_millis(100));
        sim
    }

    #[test]
    fn without_capture_the_overlap_destroys_both() {
        let sim = collision_setup(0.0);
        assert!(
            !sim.metrics().deliveries.iter().any(|d| d.node == NodeId(0)),
            "receiver decoded through a collision with capture disabled"
        );
        assert!(sim.metrics().collision_losses >= 1);
    }

    #[test]
    fn undecodable_receivers_count_no_collision() {
        // Range 100 m, audible to 250 m. S at 0 and I at 300 m cannot hear
        // each other, so their frames overlap. Q (150 m from both) decodes
        // neither; R (80 m from S, 220 m from I) decodes only S's.
        let config = SimConfig {
            radio: RadioConfig {
                carrier_sense_factor: 2.5,
                ..RadioConfig::ideal_disk(100.0)
            },
            mac: MacConfig {
                slot_us: 0,
                difs_us: 0,
                cw_slots: 1,
                queue_capacity: 8,
            },
            field: Field::new(400.0, 100.0),
            ..SimConfig::default()
        };
        let (s, q, r, i) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut sim = SimBuilder::new(config)
            .with_positions(vec![
                Position::new(10.0, 50.0),
                Position::new(160.0, 50.0),
                Position::new(90.0, 50.0),
                Position::new(310.0, 50.0),
            ])
            .with_nodes(4, |_| {
                Box::new(Deliverer {
                    got: HashSet::new(),
                })
            })
            .build();
        sim.schedule_app_broadcast(SimDuration::from_millis(1), s, 1, 64);
        sim.schedule_app_broadcast(SimDuration::from_millis(1), i, 2, 64);
        sim.run_for(SimDuration::from_millis(100));
        // Q and R hear both frames; S and I hear neither of the other's.
        // Only R can decode a frame, S's, so the run total is R's alone: R
        // lost S's frame to I's, while I's frame was never decodable at R
        // and Q decodes neither.
        let radio = sim.radio();
        assert!(!radio.audible(&sim.position(s), &sim.position(i)));
        for tx in [s, i] {
            for rx in [q, r] {
                let (a, b) = (sim.position(tx), sim.position(rx));
                assert!(radio.audible(&a, &b));
                let decodable = radio.link_success_probability(&a, &b) > 0.0;
                assert_eq!(decodable, (tx, rx) == (s, r));
            }
        }
        let m = sim.metrics();
        assert_eq!(m.collision_losses, 1);
        assert!(m.deliveries.is_empty());
    }

    #[test]
    fn with_capture_the_near_frame_survives() {
        let sim = collision_setup(3.0);
        let got: Vec<u64> = sim
            .metrics()
            .deliveries
            .iter()
            .filter(|d| d.node == NodeId(0))
            .map(|d| d.payload_id)
            .collect();
        assert_eq!(got, vec![1], "near frame should capture; got {got:?}");
    }
}
