//! Scenario construction: from a declarative config to a running simulation.

use std::collections::BTreeSet;
use std::sync::Arc;

use byzcast_adversary::{ByzantineNode, Deviation, MutePolicy, SabotageKind, SilentNode};
use byzcast_baselines::{plan_overlays, FloodingNode, MoMsg, MultiOverlayNode};
use byzcast_core::message::WireMsg;
use byzcast_core::{ByzcastConfig, ByzcastNode};
use byzcast_crypto::{CachingVerifier, KeyRegistry, SignerId, SimScheme, Verifier};
use byzcast_overlay::analysis::connected_correct_cover;
use byzcast_sim::{
    BoxedProtocol, FaultPlan, Message, MobilityModel, NodeId, Position, RandomWaypoint, SimBuilder,
    SimConfig, SimDuration, SimRng, Simulator, StaticPlacement,
};

use crate::summary::RunSummary;
use crate::workload::Workload;

/// How nodes are placed and move.
#[derive(Clone, Debug, Default)]
pub enum MobilityChoice {
    /// Uniform-random static placement.
    #[default]
    Static,
    /// Static grid filling the field.
    Grid,
    /// Static horizontal line with the given spacing in metres.
    Line {
        /// Distance between consecutive nodes.
        spacing: f64,
    },
    /// Exactly these static positions.
    Explicit(Vec<Position>),
    /// Random waypoint with speeds in `[min, max]` m/s and a pause.
    Waypoint {
        /// Minimum speed (must be positive).
        min_mps: f64,
        /// Maximum speed.
        max_mps: f64,
        /// Pause at each waypoint.
        pause: SimDuration,
    },
}

impl MobilityChoice {
    /// Instantiates the mobility model.
    pub fn build(&self) -> Box<dyn MobilityModel> {
        match self {
            MobilityChoice::Static => Box::new(StaticPlacement::UniformRandom),
            MobilityChoice::Grid => Box::new(StaticPlacement::Grid),
            MobilityChoice::Line { spacing } => {
                Box::new(StaticPlacement::Line { spacing: *spacing })
            }
            MobilityChoice::Explicit(ps) => Box::new(StaticPlacement::Explicit(ps.clone())),
            MobilityChoice::Waypoint {
                min_mps,
                max_mps,
                pause,
            } => Box::new(RandomWaypoint::new(*min_mps, *max_mps, *pause)),
        }
    }
}

/// Which broadcast protocol the run uses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum ProtocolChoice {
    /// The paper's protocol (configured by [`ScenarioConfig::byzcast`]).
    #[default]
    Byzcast,
    /// The flooding baseline.
    Flooding,
    /// The f+1-overlays baseline with `f` tolerated Byzantine nodes.
    MultiOverlay {
        /// Number of tolerated Byzantine nodes (f+1 overlays are built).
        f: u8,
    },
}

/// A full experiment scenario.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed (also used for key generation and placement).
    pub seed: u64,
    /// Node count.
    pub n: usize,
    /// Simulator configuration (field, radio, MAC). Its `seed` field is
    /// overwritten by `self.seed`.
    pub sim: SimConfig,
    /// Placement and mobility.
    pub mobility: MobilityChoice,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Byzcast configuration (used when `protocol` is `Byzcast`).
    pub byzcast: ByzcastConfig,
    /// The adversarial nodes and the deviation of each (empty: all nodes
    /// are correct). [`highest_ids`] builds the usual worst-case placement.
    pub adversary_assignments: Vec<(NodeId, Deviation)>,
    /// Timed fault events (crashes, restarts, Byzantine windows, jamming)
    /// executed through the deterministic event queue. Empty by default; an
    /// empty plan changes nothing, bit for bit.
    pub fault_plan: FaultPlan,
    /// A deliberately broken "correct" node — a test instrument proving the
    /// chaos oracles catch real protocol bugs. The node stays in the
    /// *correct* mask on purpose: its buggy deliveries must trip invariants.
    pub sabotage: Option<(NodeId, SabotageKind)>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            n: 50,
            sim: SimConfig::default(),
            mobility: MobilityChoice::Static,
            protocol: ProtocolChoice::Byzcast,
            byzcast: ByzcastConfig::default(),
            adversary_assignments: Vec::new(),
            fault_plan: FaultPlan::new(),
            sabotage: None,
        }
    }
}

/// Adjacency of the disk graph of radius `r` (metres) over `positions`.
pub(crate) fn adjacency_within(positions: &[Position], r: f64) -> Vec<Vec<NodeId>> {
    (0..positions.len())
        .map(|i| {
            (0..positions.len())
                .filter(|&j| j != i && positions[i].distance(&positions[j]) <= r)
                .map(|j| NodeId(j as u32))
                .collect()
        })
        .collect()
}

/// Assigns `deviation` to the `count` highest ids of an `n`-node scenario
/// (all of them if `count >= n`). These ids win the id-based overlay
/// election, so adversaries there are the worst case for the protocol.
pub fn highest_ids(n: usize, count: usize, deviation: Deviation) -> Vec<(NodeId, Deviation)> {
    (n.saturating_sub(count)..n)
        .map(|i| (NodeId(i as u32), deviation.clone()))
        .collect()
}

impl ScenarioConfig {
    /// The adversarial node ids for this scenario.
    pub fn adversary_set(&self) -> BTreeSet<NodeId> {
        self.adversary_assignments
            .iter()
            .map(|&(id, _)| id)
            .collect()
    }

    /// The deviation assigned to `id`, if it is adversarial (the first
    /// assignment naming `id`).
    pub fn deviation_of(&self, id: NodeId) -> Option<&Deviation> {
        self.adversary_assignments
            .iter()
            .find(|&&(a, _)| a == id)
            .map(|(_, k)| k)
    }

    /// The correctness mask: `mask[i]` iff node `i` is correct.
    pub fn correct_mask(&self) -> Vec<bool> {
        let adv = self.adversary_set();
        (0..self.n as u32)
            .map(|i| !adv.contains(&NodeId(i)))
            .collect()
    }

    /// Ground-truth initial positions (deterministic from the seed).
    pub fn initial_positions(&self) -> Vec<Position> {
        let mut rng = SimRng::new(self.seed ^ 0x706f_7300);
        self.mobility
            .build()
            .initial_positions(self.n, &self.sim.field, &mut rng)
    }

    /// Nominal-range adjacency for the given positions.
    pub fn adjacency(&self, positions: &[Position]) -> Vec<Vec<NodeId>> {
        adjacency_within(positions, self.sim.radio.range_m)
    }

    /// A short protocol label for reports.
    pub fn protocol_label(&self) -> String {
        match &self.protocol {
            ProtocolChoice::Byzcast => format!("byzcast/{}", self.byzcast.overlay.name()),
            ProtocolChoice::Flooding => "flooding".to_owned(),
            ProtocolChoice::MultiOverlay { f } => format!("{}-overlays", *f as u32 + 1),
        }
    }

    /// Builds the simulation, injects the workload, runs to the workload
    /// horizon, and summarizes.
    pub fn run(&self, workload: &Workload) -> RunSummary {
        match self.protocol {
            ProtocolChoice::MultiOverlay { f } => self.run_multi_overlay(workload, f),
            _ => self.run_wire(workload),
        }
    }

    fn sim_config(&self) -> SimConfig {
        SimConfig {
            seed: self.seed,
            ..self.sim.clone()
        }
    }

    /// One verifier instance **per run**, shared by every node: a single
    /// bounded signature-verification cache (sized by
    /// `ByzcastConfig::sig_cache_capacity`; `0` means a bare shared-keyset
    /// verifier). Verification is a pure function of
    /// `(signer, data, signature)`, so sharing the cache across nodes cannot
    /// change any verdict — results stay bit-identical — while a frame heard
    /// by many neighbours is verified once for the whole run instead of once
    /// per receiver.
    fn make_verifier(&self, keys: &KeyRegistry<SimScheme>) -> Arc<dyn Verifier + Send + Sync> {
        let capacity = self.byzcast.sig_cache_capacity;
        if capacity > 0 {
            Arc::new(CachingVerifier::new(keys.verifier(), capacity))
        } else {
            Arc::new(keys.verifier())
        }
    }

    /// Byzcast and flooding (both speak `WireMsg`).
    fn run_wire(&self, workload: &Workload) -> RunSummary {
        let mut sim = self.build_wire_sim();
        workload.drive(&mut sim);
        self.summarize_wire(&sim)
    }

    /// Builds (without running) the simulator for a `WireMsg` protocol —
    /// exposed so experiments can inspect per-node state mid-run.
    ///
    /// # Panics
    ///
    /// Panics if the scenario selects the multi-overlay baseline, whose
    /// message type differs.
    pub fn build_wire_sim(&self) -> Simulator<WireMsg> {
        assert!(
            !matches!(self.protocol, ProtocolChoice::MultiOverlay { .. }),
            "multi-overlay runs use MoMsg; use run() instead"
        );
        let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(self.seed, self.n as u32);
        let verifier = self.make_verifier(&keys);
        let factory = WireNodeFactory {
            flooding: self.protocol == ProtocolChoice::Flooding,
            byzcast: self.byzcast.clone(),
            keys,
            verifier,
            deviations: (0..self.n as u32)
                .map(|i| self.deviation_of(NodeId(i)).cloned())
                .collect(),
            sabotage: self.sabotage,
        };
        self.build_sim(self.initial_positions(), move |id| factory.make(id))
    }

    /// Builds the simulator with this scenario's mobility and fault plan,
    /// nodes at `positions`, and each node's protocol from `make`.
    fn build_sim<M: Message + 'static>(
        &self,
        positions: Vec<Position>,
        make: impl Fn(NodeId) -> BoxedProtocol<M> + 'static,
    ) -> Simulator<M> {
        let mut builder = SimBuilder::new(self.sim_config())
            .with_mobility(self.mobility.build())
            .with_positions(positions)
            .with_nodes(self.n, &make)
            .with_fault_plan(self.fault_plan.clone());
        if !self.fault_plan.is_empty() {
            // The same factory rebuilds nodes after state-losing restarts,
            // so a restarted node is indistinguishable from a fresh one.
            builder = builder.with_restart_factory(Box::new(make));
        }
        builder.build()
    }

    /// Summarizes a finished `WireMsg` run (byzcast extras included when the
    /// protocol is byzcast).
    pub fn summarize_wire(&self, sim: &Simulator<WireMsg>) -> RunSummary {
        let correct = self.correct_mask();
        let mut summary = RunSummary::from_metrics(self.protocol_label(), sim.metrics(), &correct);
        if self.protocol != ProtocolChoice::Flooding {
            self.fill_byzcast_stats(sim, &correct, &mut summary);
        }
        if !self.fault_plan.is_empty() {
            summary.faults = Some(sim.metrics().faults.clone());
        }
        summary
    }

    fn run_multi_overlay(&self, workload: &Workload, f: u8) -> RunSummary {
        let positions = self.initial_positions();
        let adj = self.adjacency(&positions);
        let memberships = plan_overlays(&adj, f + 1, self.seed);
        let adv = self.adversary_set();
        let keys: KeyRegistry<SimScheme> = KeyRegistry::generate(self.seed, self.n as u32);
        let verifier = self.make_verifier(&keys);

        let make = move |id: NodeId| -> BoxedProtocol<MoMsg> {
            let node = MultiOverlayNode::new(
                id,
                memberships[id.index()].clone(),
                Box::new(keys.signer(SignerId(id.0))),
                Arc::clone(&verifier),
            );
            if adv.contains(&id) {
                // Against the baseline, every adversary model reduces to
                // refusing to relay (the baseline has no gossip to lie
                // about and forged frames are dropped on signature).
                Box::new(SilentNode::new(node))
            } else {
                Box::new(node)
            }
        };

        let mut sim = self.build_sim(positions, make);
        workload.drive(&mut sim);
        let correct = self.correct_mask();
        let mut summary = RunSummary::from_metrics(self.protocol_label(), sim.metrics(), &correct);
        if !self.fault_plan.is_empty() {
            summary.faults = Some(sim.metrics().faults.clone());
        }
        summary
    }

    fn fill_byzcast_stats(
        &self,
        sim: &Simulator<WireMsg>,
        correct: &[bool],
        summary: &mut RunSummary,
    ) {
        let adv = self.adversary_set();
        let mut overlay_mask = vec![false; self.n];
        let mut totals = byzcast_core::ProtocolCounters::default();
        let mut high_water = 0usize;
        let mut true_sus = 0u64;
        let mut false_sus = 0u64;
        let mut cache_stats = None;
        let mut resources = byzcast_core::ResourceStats::default();
        let mut recovery = byzcast_core::RecoveryStats::default();
        for i in 0..self.n as u32 {
            let id = NodeId(i);
            overlay_mask[id.index()] = claims_overlay(sim, id);
            let Some(node) = byz_view(sim, id) else {
                continue;
            };
            if correct[id.index()] {
                totals.merge(node.counters());
                // The verifier cache is one shared instance per run, so
                // every node reports the same global counters — record them
                // once instead of summing.
                if cache_stats.is_none() {
                    cache_stats = node.sig_cache_stats();
                }
                high_water = high_water.max(node.store().high_water());
                resources.merge(&node.resource_stats());
                recovery.merge(node.recovery_stats());
                for ep in node.suspicion_log().episodes() {
                    if adv.contains(&ep.suspect) {
                        true_sus += 1;
                    } else {
                        false_sus += 1;
                    }
                }
            }
        }
        if let Some(cache) = cache_stats {
            totals.sig_cache_hits = cache.hits;
            totals.sig_cache_misses = cache.misses;
        }
        // Overlay quality on the *final* positions.
        let adj = self.adjacency(sim.positions());
        summary.overlay_size = Some(overlay_mask.iter().filter(|&&b| b).count());
        summary.overlay_ok = Some(connected_correct_cover(&adj, &overlay_mask, correct));
        summary.counters = Some(totals);
        summary.store_high_water = high_water;
        summary.true_suspicions = true_sus;
        summary.false_suspicions = false_sus;
        // Only governed runs report resource stats: ungoverned records stay
        // byte-identical to before the governance layer existed.
        if !self.byzcast.resources.is_unlimited() {
            summary.resources = Some(resources);
        }
        // Likewise only runs with the recovery envelope on report its stats.
        if self.byzcast.recovery {
            summary.recovery = Some(recovery);
        }
    }
}

/// Builds one node's protocol stack for a `WireMsg` run: the correct
/// protocol, an adversary wrapper, or a sabotaged instrument, per the
/// scenario's assignments. Owns everything it needs (`KeyRegistry` is
/// cheaply cloneable, the verifier is shared behind an `Arc`), so the same
/// factory serves both initial construction and post-crash restarts.
struct WireNodeFactory {
    flooding: bool,
    byzcast: ByzcastConfig,
    keys: KeyRegistry<SimScheme>,
    verifier: Arc<dyn Verifier + Send + Sync>,
    deviations: Vec<Option<Deviation>>,
    sabotage: Option<(NodeId, SabotageKind)>,
}

impl WireNodeFactory {
    fn make_byz(&self, id: NodeId) -> ByzcastNode {
        ByzcastNode::new(
            id,
            self.byzcast.clone(),
            Box::new(self.keys.signer(SignerId(id.0))),
            Arc::clone(&self.verifier),
        )
    }

    fn make_flooder(&self, id: NodeId) -> FloodingNode {
        FloodingNode::new(
            id,
            Box::new(self.keys.signer(SignerId(id.0))),
            Arc::clone(&self.verifier),
        )
    }

    fn make(&self, id: NodeId) -> BoxedProtocol<WireMsg> {
        let deviation = match &self.deviations[id.index()] {
            None => match self.sabotage {
                Some((sab_id, kind)) if sab_id == id => Deviation::Sabotage(kind),
                _ if self.flooding => return Box::new(self.make_flooder(id)),
                _ => return Box::new(self.make_byz(id)),
            },
            // Against flooding every adversary degrades to silence.
            Some(_) if self.flooding => return Box::new(SilentNode::new(self.make_flooder(id))),
            Some(deviation) => deviation.clone(),
        };
        Box::new(ByzantineNode::new(self.make_byz(id), deviation))
    }
}

/// Builds the paper's Figure-5 worst case — "all nodes that belong to the
/// overlay are Byzantine and therefore all messages will be disseminated
/// using the gossip-request mechanism" — as a concrete scenario:
///
/// * `c` correct nodes (ids `0..c`) on a line at 100 m spacing (radio range
///   250 m, so the correct graph is connected through ±1/±2 links);
/// * `c − 1` mute Byzantine nodes with the **highest ids**, interleaved at
///   the 50 m offsets. Each mute node's closed neighbourhood covers every
///   neighbour of the adjacent correct nodes, so under the id-based election
///   every correct node prunes itself and the overlay is mutes-only — until
///   the MUTE failure detector evicts them.
///
/// Returns a scenario with an ideal-disk radio (the formal model §3.5
/// analyses).
pub fn figure5_worst_case(c: usize, seed: u64) -> ScenarioConfig {
    assert!(c >= 3, "need at least 3 correct nodes");
    let mut positions: Vec<Position> = (0..c)
        .map(|i| Position::new(100.0 * i as f64, 50.0))
        .collect();
    let mutes = c - 1;
    positions.extend((0..mutes).map(|j| Position::new(100.0 * j as f64 + 50.0, 50.0)));
    let n = positions.len();
    let width = 100.0 * c as f64 + 1.0;
    ScenarioConfig {
        seed,
        n,
        sim: SimConfig {
            field: byzcast_sim::Field::new(width, 100.0),
            radio: byzcast_sim::RadioConfig::ideal_disk(250.0),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Explicit(positions),
        adversary_assignments: highest_ids(
            n,
            mutes,
            Deviation::Mute(MutePolicy::DropDataAndGossip),
        ),
        ..ScenarioConfig::default()
    }
}

/// Looks through a [`ByzantineNode`] to its inner [`ByzcastNode`]; `None`
/// only for a baseline's nodes. An injecting adversary's inner node never
/// started, so it reads as a fresh node.
pub fn byz_view(sim: &Simulator<WireMsg>, id: NodeId) -> Option<&ByzcastNode> {
    sim.protocol::<ByzcastNode>(id)
        .or_else(|| sim.protocol::<ByzantineNode>(id).map(ByzantineNode::inner))
}

/// Whether node `id` counts as an overlay member: a correct node's role, or
/// a [`ByzantineNode`]'s own claim ([`ByzantineNode::claims_overlay`]).
pub fn claims_overlay(sim: &Simulator<WireMsg>, id: NodeId) -> bool {
    match sim.protocol::<ByzantineNode>(id) {
        Some(w) => w.claims_overlay(),
        None => sim
            .protocol::<ByzcastNode>(id)
            .is_some_and(ByzcastNode::is_overlay),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scenario() -> ScenarioConfig {
        // Dense enough (25 nodes, 250 m range, 500 m × 500 m) that the
        // ground topology is connected with overwhelming probability.
        ScenarioConfig {
            seed: 7,
            n: 25,
            sim: SimConfig {
                field: byzcast_sim::Field::new(500.0, 500.0),
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }

    fn small_workload() -> Workload {
        Workload {
            count: 3,
            start: SimDuration::from_secs(4),
            interval: SimDuration::from_secs(1),
            drain: SimDuration::from_secs(8),
            ..Workload::default()
        }
    }

    #[test]
    fn byzcast_run_delivers_most_messages() {
        let s = small_scenario().run(&small_workload());
        assert_eq!(s.n, 25);
        assert_eq!(s.correct, 25);
        assert_eq!(s.messages, 3);
        assert!(
            s.delivery_ratio > 0.9,
            "delivery ratio {}",
            s.delivery_ratio
        );
        assert!(s.overlay_size.is_some());
        assert!(s.frames_sent > 0);
    }

    #[test]
    fn flooding_run_delivers_and_sends_more_data_frames() {
        let byz = small_scenario().run(&small_workload());
        let flood = ScenarioConfig {
            protocol: ProtocolChoice::Flooding,
            ..small_scenario()
        }
        .run(&small_workload());
        assert!(
            flood.delivery_ratio > 0.9,
            "flooding ratio {}",
            flood.delivery_ratio
        );
        assert!(
            flood.data_frames > byz.data_frames,
            "flooding {} vs byzcast {} data frames",
            flood.data_frames,
            byz.data_frames
        );
        assert_eq!(flood.overlay_size, None);
    }

    #[test]
    fn multi_overlay_run_sends_multiple_copies() {
        let mo = ScenarioConfig {
            protocol: ProtocolChoice::MultiOverlay { f: 1 },
            ..small_scenario()
        }
        .run(&small_workload());
        assert!(mo.delivery_ratio > 0.9, "f+1 ratio {}", mo.delivery_ratio);
        assert_eq!(mo.protocol, "2-overlays");
    }

    #[test]
    fn highest_ids_picks_the_top_of_the_id_range() {
        let s = ScenarioConfig {
            adversary_assignments: highest_ids(25, 3, Deviation::Silent),
            ..small_scenario()
        };
        let adv = s.adversary_set();
        assert_eq!(
            adv.into_iter().collect::<Vec<_>>(),
            vec![NodeId(22), NodeId(23), NodeId(24)]
        );
        assert!(matches!(
            s.deviation_of(NodeId(23)),
            Some(Deviation::Silent)
        ));
        assert!(s.deviation_of(NodeId(21)).is_none());
        let mask = s.correct_mask();
        assert!(mask[0] && !mask[24]);
        assert!(highest_ids(4, 0, Deviation::Silent).is_empty());
        assert_eq!(highest_ids(4, 9, Deviation::Silent).len(), 4);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = small_scenario().run(&small_workload());
        let b = small_scenario().run(&small_workload());
        assert_eq!(a.frames_sent, b.frames_sent);
        assert_eq!(a.delivery_ratio, b.delivery_ratio);
        assert_eq!(a.collisions, b.collisions);
    }

    #[test]
    fn mute_adversaries_reduce_nothing_fatal() {
        let s = ScenarioConfig {
            n: 30,
            adversary_assignments: highest_ids(30, 3, Deviation::Mute(MutePolicy::DropData)),
            ..small_scenario()
        }
        .run(&small_workload());
        assert_eq!(s.correct, 27);
        // Gossip+recovery should keep delivery useful even with mute overlay
        // claimants (generous threshold; the experiment measures precisely).
        assert!(s.delivery_ratio > 0.5, "ratio {}", s.delivery_ratio);
    }
}

#[cfg(test)]
mod figure5_tests {
    use super::*;
    use crate::Workload;

    #[test]
    fn figure5_forces_the_gossip_request_path() {
        let config = figure5_worst_case(8, 1);
        let w = Workload {
            senders: vec![NodeId(0)],
            count: 5,
            payload_bytes: 256,
            start: SimDuration::from_secs(8),
            interval: SimDuration::from_secs(2),
            drain: SimDuration::from_secs(60),
        };
        let s = config.run(&w);
        let c = s.counters.expect("byzcast counters");
        // Every correct node still accepts every message…
        assert_eq!(s.delivery_ratio, 1.0, "delivery {}", s.delivery_ratio);
        // …but only through the recovery machinery: the mute overlay forces
        // requests, and far nodes pay a per-hop gossip/request cycle.
        assert!(
            c.requests_sent > 0,
            "no requests — the overlay was not mute-only"
        );
        assert!(
            c.recoveries_served > 0,
            "no recovery responses — dissemination took the fast path"
        );
        assert!(
            s.max_latency_s > 0.5,
            "far nodes arrived too fast ({}) for the gossip-request chain",
            s.max_latency_s
        );
    }
}
