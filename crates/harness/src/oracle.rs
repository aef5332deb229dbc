//! Invariant oracles: machine-checked end-of-run properties of a broadcast
//! run.
//!
//! Each [`Oracle`] inspects a finished run (its metrics, its suspicion
//! history, the scenario that produced it) and reports [`Violation`]s of one
//! protocol property. The five standard oracles encode the guarantees the
//! paper claims:
//!
//! * **validity** — every payload delivered at a correct node was actually
//!   originated (signatures make fabrication impossible, §2.1's "a node
//!   cannot impersonate another node"), and not before its injection;
//! * **no-duplication** — no correct node accepts the same `(origin,
//!   payload)` twice;
//! * **semi-reliability** — on a static topology, every correct, up,
//!   connected node eventually accepts every message a correct node sent
//!   (the paper's semi-reliability property, modulo partitions);
//! * **fd-accuracy** — no correct node ends the run permanently suspecting
//!   another correct node (suspicions of correct nodes must be transient);
//! * **bounded-resources** — on governed runs, no correct node's observed
//!   peaks (store bodies/bytes, seen-ids, per-second verifications, request
//!   bookkeeping) ever exceed the configured [`ResourceConfig`] envelope,
//!   regardless of what the adversaries inject.
//!
//! Nodes that the fault plan crashes or flips Byzantine are excluded from
//! the obligations ("eligible" below means correct, never crashed, never
//! inside a Byzantine window); a deliberately sabotaged node ([`crate::
//! scenario::ScenarioConfig::sabotage`]) stays eligible on purpose — its
//! buggy deliveries are exactly what the oracles exist to catch.

use std::collections::{BTreeMap, BTreeSet};

use byzcast_adversary::Deviation;
use byzcast_core::resources::burst;
use byzcast_core::{ResourceConfig, ResourceStats};
use byzcast_fd::interval::SuspicionEpisode;
use byzcast_sim::{FaultKind, Metrics, NodeId, SimDuration, SimTime};

use crate::scenario::{adjacency_within, byz_view, MobilityChoice, ProtocolChoice, ScenarioConfig};
use crate::summary::{DeliveriesByPayload, RunSummary};
use crate::workload::Workload;

/// One invariant violation, with enough detail to debug the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// The violated oracle's name.
    pub oracle: &'static str,
    /// Human-readable description of the specific failure.
    pub detail: String,
}

/// Everything an oracle may inspect about a finished run.
pub struct OracleCtx<'a> {
    /// The scenario that produced the run.
    pub scenario: &'a ScenarioConfig,
    /// The workload driven through it.
    pub workload: &'a Workload,
    /// The simulator's end-of-run metrics.
    pub metrics: &'a Metrics,
    /// The run horizon (when the simulation stopped).
    pub horizon: SimTime,
    /// `eligible[i]` iff node `i` is correct, never crashed, and never
    /// Byzantine-flipped — the nodes the protocol's guarantees cover.
    pub eligible: Vec<bool>,
    /// All suspicion episodes observed by byzcast nodes (`None` when the
    /// protocol under test has no failure detector to audit).
    pub episodes: Option<Vec<SuspicionEpisode>>,
    /// Per-node resource-governance stats (`None` when the protocol under
    /// test has no governance layer to audit).
    pub resources: Option<Vec<(NodeId, ResourceStats)>>,
}

/// An end-of-run invariant check.
pub trait Oracle {
    /// Stable name, used in JSONL records and corpus `expect` lines.
    fn name(&self) -> &'static str;
    /// Checks the invariant, returning every violation found.
    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation>;
}

/// Nodes covered by the protocol's guarantees: correct per the scenario and
/// untouched by crash or Byzantine-window fault events.
pub fn eligible_mask(scenario: &ScenarioConfig) -> Vec<bool> {
    let mut eligible = scenario.correct_mask();
    for ev in scenario.fault_plan.events() {
        match ev.kind {
            FaultKind::Crash { node, .. } | FaultKind::SetByzantine { node, .. }
                if node.index() < eligible.len() =>
            {
                eligible[node.index()] = false;
            }
            _ => {}
        }
    }
    eligible
}

/// Validity: every delivery at an eligible node corresponds to a recorded
/// broadcast of the same `(origin, payload)`, no earlier than its injection.
///
/// Deliveries whose *origin* is adversarial are exempt: a Byzantine node
/// with a registered key can genuinely originate signed messages (the
/// flooder does exactly that), and accepting an authentic message is not a
/// validity violation — the paper's validity clause only promises that a
/// delivered message was really sent by its named sender, which signatures
/// enforce. Fabrications naming *correct* origins remain fully checked.
pub struct Validity;

impl Oracle for Validity {
    fn name(&self) -> &'static str {
        "validity"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation> {
        let origins: BTreeMap<(NodeId, u64), SimTime> = ctx
            .metrics
            .broadcasts
            .iter()
            .map(|b| ((b.origin, b.payload_id), b.time))
            .collect();
        let correct = ctx.scenario.correct_mask();
        let mut out = Vec::new();
        for d in &ctx.metrics.deliveries {
            if !ctx.eligible[d.node.index()] {
                continue;
            }
            if d.origin.index() < correct.len() && !correct[d.origin.index()] {
                continue;
            }
            match origins.get(&(d.origin, d.payload_id)) {
                None => out.push(Violation {
                    oracle: self.name(),
                    detail: format!(
                        "node {} delivered payload {} from {} that was never broadcast",
                        d.node.0, d.payload_id, d.origin.0
                    ),
                }),
                Some(&injected) if d.time < injected => out.push(Violation {
                    oracle: self.name(),
                    detail: format!(
                        "node {} delivered payload {} before its injection",
                        d.node.0, d.payload_id
                    ),
                }),
                Some(_) => {}
            }
        }
        out
    }
}

/// No-duplication: no eligible node delivers the same `(origin, payload)`
/// more than once.
pub struct NoDuplication;

impl Oracle for NoDuplication {
    fn name(&self) -> &'static str {
        "no-duplication"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation> {
        let mut keys: Vec<(NodeId, NodeId, u64)> = ctx
            .metrics
            .deliveries
            .iter()
            .filter(|d| ctx.eligible[d.node.index()])
            .map(|d| (d.node, d.origin, d.payload_id))
            .collect();
        keys.sort_unstable();
        keys.chunk_by(|a, b| a == b)
            .filter(|run| run.len() > 1)
            .map(|run| {
                let (node, origin, payload_id) = run[0];
                Violation {
                    oracle: self.name(),
                    detail: format!(
                        "node {} delivered payload {} from {} {} times",
                        node.0,
                        payload_id,
                        origin.0,
                        run.len()
                    ),
                }
            })
            .collect()
    }
}

/// Semi-reliability: on a static topology, every eligible node reachable
/// from an eligible origin through eligible nodes accepts the origin's
/// messages, given enough drain time.
///
/// Obligations are skipped when they cannot be sound: mobile runs (the
/// ground graph changes), broadcasts injected before the last jam window
/// closed, runs whose jam never closes, broadcasts too close to the
/// horizon for the gossip-request recovery machinery to finish — and any
/// run with Byzantine adversaries. The paper's delivery guarantee presumes
/// enough correct coverage in the dominating set; a mute node that wins the
/// id-based dominator election legitimately black-holes its neighborhood's
/// recovery requests (the R4 worst case), so adversary-induced loss is
/// measured by the experiments, not asserted away here. Crash/restart and
/// jam fault plans, and sabotaged (locally buggy but non-adversarial)
/// nodes, remain fully checked.
///
/// Obligations run over *certain* links only (within the fading band's
/// inner radius, where reception is deterministic): a node whose only path
/// crosses the probabilistic fringe of the radio range may genuinely never
/// hear a frame, so the nominal disk graph over-approximates reachability.
pub struct SemiReliability;

/// The radius within which reception is certain (modulo collisions and
/// background noise): the fading band's inner edge. Connectivity claims
/// built on longer links are not sound obligations.
fn certain_radius(scenario: &ScenarioConfig) -> f64 {
    scenario.sim.radio.range_m * (1.0 - scenario.sim.radio.fading_fraction)
}

/// Recovery time granted before an undelivered message counts as lost: the
/// recovery path pays a gossip (1 s) + request cycle per hop, so allow the
/// network diameter's worth with slack.
fn recovery_slack() -> SimDuration {
    SimDuration::from_secs(12)
}

impl Oracle for SemiReliability {
    fn name(&self) -> &'static str {
        "semi-reliability"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation> {
        if !matches!(
            ctx.scenario.mobility,
            MobilityChoice::Static
                | MobilityChoice::Grid
                | MobilityChoice::Line { .. }
                | MobilityChoice::Explicit(_)
        ) {
            return Vec::new();
        }
        if !ctx.scenario.adversary_set().is_empty() {
            return Vec::new();
        }
        // Jam windows suppress receptions arbitrarily; only obligations
        // injected after the last jam lifted are checkable. An unclosed jam
        // makes every obligation void.
        let mut jam_starts = BTreeSet::new();
        let mut jam_ends = BTreeSet::new();
        let mut last_jam_end = SimTime::ZERO;
        for ev in ctx.scenario.fault_plan.events() {
            match ev.kind {
                FaultKind::JamStart { id, .. } => {
                    jam_starts.insert(id);
                }
                FaultKind::JamEnd { id } => {
                    jam_ends.insert(id);
                    last_jam_end = last_jam_end.max(SimTime::ZERO + ev.at);
                }
                _ => {}
            }
        }
        if jam_starts.iter().any(|id| !jam_ends.contains(id)) {
            return Vec::new();
        }

        let positions = ctx.scenario.initial_positions();
        let adj = adjacency_within(&positions, certain_radius(ctx.scenario));
        let by_payload = DeliveriesByPayload::new(ctx.metrics);
        let mut reachable: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut delivered: Vec<NodeId> = Vec::new();
        let mut out = Vec::new();
        for b in &ctx.metrics.broadcasts {
            if !ctx.eligible[b.origin.index()]
                || b.time < last_jam_end
                || ctx.horizon.saturating_since(b.time) < recovery_slack()
            {
                continue;
            }
            let reachable = reachable
                .entry(b.origin)
                .or_insert_with(|| reachable_from(b.origin, &adj, &ctx.eligible));
            delivered.clear();
            delivered.extend(by_payload.of(b.origin, b.payload_id).iter().map(|d| d.node));
            delivered.sort_unstable();
            for &node in reachable.iter() {
                if delivered.binary_search(&node).is_err() {
                    out.push(Violation {
                        oracle: self.name(),
                        detail: format!(
                            "node {} never delivered payload {} from {} despite being \
                             connected and up",
                            node.0, b.payload_id, b.origin.0
                        ),
                    });
                }
            }
        }
        out
    }
}

/// BFS over the adjacency restricted to eligible nodes.
fn reachable_from(origin: NodeId, adj: &[Vec<NodeId>], eligible: &[bool]) -> Vec<NodeId> {
    if !eligible[origin.index()] {
        return Vec::new();
    }
    let mut seen = vec![false; adj.len()];
    seen[origin.index()] = true;
    let mut queue = vec![origin];
    let mut order = vec![origin];
    while let Some(u) = queue.pop() {
        for &v in &adj[u.index()] {
            if eligible[v.index()] && !seen[v.index()] {
                seen[v.index()] = true;
                queue.push(v);
                order.push(v);
            }
        }
    }
    order.sort_by_key(|id| id.0);
    order
}

/// FD accuracy: no eligible observer ends the run *permanently* suspecting
/// an eligible node. Transient suspicions (collision-induced, later
/// retracted) are the detectors working as designed; an episode still open
/// at the horizon after a grace period is a permanent false accusation.
///
/// Only static runs are checked, and only pairs within the certain radius:
/// a mobile node that wanders out of range — or a static pair whose link
/// sits in the probabilistic fading fringe — is *correctly* suspected, and
/// the retraction can only arrive once a beacon gets through again. Runs
/// with air-congesting adversaries (flooders, signature grinders) are
/// skipped entirely: a saturated medium destroys beacons for everyone, so
/// sustained suspicion of correct nodes is the detectors reporting the
/// truth about an unusable channel, not a mistake.
pub struct FdAccuracy;

/// Suspicions opened this close to the horizon have not had time to be
/// retracted and are not counted as permanent.
fn accuracy_grace() -> SimDuration {
    SimDuration::from_secs(10)
}

impl Oracle for FdAccuracy {
    fn name(&self) -> &'static str {
        "fd-accuracy"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation> {
        let Some(episodes) = &ctx.episodes else {
            return Vec::new();
        };
        if !matches!(
            ctx.scenario.mobility,
            MobilityChoice::Static
                | MobilityChoice::Grid
                | MobilityChoice::Line { .. }
                | MobilityChoice::Explicit(_)
        ) {
            return Vec::new();
        }
        let congested = ctx.scenario.adversary_set().iter().any(|&id| {
            ctx.scenario
                .deviation_of(id)
                .is_some_and(Deviation::congests_air)
        });
        if congested {
            return Vec::new();
        }
        let positions = ctx.scenario.initial_positions();
        let certain = certain_radius(ctx.scenario);
        episodes
            .iter()
            .filter(|ep| {
                ep.end == SimTime::MAX
                    && ctx.eligible[ep.observer.index()]
                    && ep.suspect.index() < ctx.eligible.len()
                    && ctx.eligible[ep.suspect.index()]
                    && positions[ep.observer.index()].distance(&positions[ep.suspect.index()])
                        <= certain
                    && ctx.horizon.saturating_since(ep.start) >= accuracy_grace()
            })
            .map(|ep| Violation {
                oracle: self.name(),
                detail: format!(
                    "correct node {} still suspects correct node {} at the horizon \
                     (since {:.1}s)",
                    ep.observer.0,
                    ep.suspect.0,
                    ep.start.saturating_since(SimTime::ZERO).as_secs_f64()
                ),
            })
            .collect()
    }
}

/// Bounded resources: on governed runs, no correct node's observed peaks
/// exceed the configured [`ResourceConfig`] envelope — the tentpole safety
/// property of the resource-governance layer. Each bound is checked only
/// when its limit is configured (non-zero); the oracle is vacuous on
/// ungoverned runs, so adding it changes nothing for existing scenarios.
///
/// The derived ceilings: store bodies/bytes and seen-ids are per-node hard
/// caps; the active-gossip and missing maps hold at most
/// `quota × n` entries (one quota per possible origin); and one calendar
/// second can see at most `rate + burst` admitted verifications *per
/// sender* (the bucket's [`burst`] is two seconds of its rate), i.e.
/// `(rate + burst) × (n − 1)` per node.
pub struct BoundedResources;

impl Oracle for BoundedResources {
    fn name(&self) -> &'static str {
        "bounded-resources"
    }

    fn check(&self, ctx: &OracleCtx<'_>) -> Vec<Violation> {
        let cfg = &ctx.scenario.byzcast.resources;
        if cfg.is_unlimited() {
            return Vec::new();
        }
        let Some(resources) = &ctx.resources else {
            return Vec::new();
        };
        let correct = ctx.scenario.correct_mask();
        let n = ctx.scenario.n as u64;
        let mut out = Vec::new();
        let mut check = |node: NodeId, what: &str, peak: u64, limit: u64| {
            if limit != 0 && peak > limit {
                out.push(Violation {
                    oracle: "bounded-resources",
                    detail: format!("node {} {what} peaked at {peak} > {limit}", node.0),
                });
            }
        };
        for &(node, ref stats) in resources {
            if !correct[node.index()] {
                continue;
            }
            check(
                node,
                "store bodies",
                stats.peak_store_msgs,
                cfg.max_store_msgs as u64,
            );
            check(
                node,
                "store bytes",
                stats.peak_store_bytes,
                cfg.max_store_bytes as u64,
            );
            check(
                node,
                "seen ids",
                stats.peak_seen_ids,
                cfg.max_seen_ids as u64,
            );
            check(
                node,
                "active gossip",
                stats.peak_active_gossip,
                cfg.max_gossip_per_origin as u64 * n,
            );
            check(
                node,
                "missing entries",
                stats.peak_missing,
                cfg.max_missing_per_origin as u64 * n,
            );
            let verif_ceiling = if cfg.verifs_per_sec == 0 {
                0
            } else {
                (u64::from(cfg.verifs_per_sec) + burst(cfg.verifs_per_sec)) * n.saturating_sub(1)
            };
            check(
                node,
                "verifications/sec",
                stats.peak_verifs_per_sec,
                verif_ceiling,
            );
        }
        out
    }
}

/// A paper-derived resource envelope for chaos and DoS runs. Each bound is
/// a §3.5-style worst case for *correct* traffic with generous slack — a
/// correct neighbour sends a beacon and a gossip per second plus a handful
/// of data forwards and recovery frames, far under 50 frames/s — so
/// governance never drops legitimate traffic (the validity and
/// semi-reliability oracles stay binding) while sustained floods hit the
/// ceiling. `max_seen_ids` is sized so a run-length flood cannot evict a
/// legitimate delivered id (which would re-open the no-duplication hole).
pub fn paper_envelope() -> ResourceConfig {
    ResourceConfig {
        frames_per_sec: 50,
        verifs_per_sec: 200,
        max_store_msgs: 4096,
        max_store_bytes: 4 << 20,
        max_seen_ids: 32768,
        max_gossip_per_origin: 64,
        max_missing_per_origin: 64,
    }
}

/// The five standard oracles, in stable order.
pub fn standard_oracles() -> Vec<Box<dyn Oracle + Send + Sync>> {
    vec![
        Box::new(Validity),
        Box::new(NoDuplication),
        Box::new(SemiReliability),
        Box::new(FdAccuracy),
        Box::new(BoundedResources),
    ]
}

/// A finished, invariant-checked run.
#[derive(Clone, Debug)]
pub struct CheckedRun {
    /// The usual distilled summary, with [`RunSummary::oracle_outcomes`]
    /// filled in (and [`RunSummary::faults`] when a fault plan ran).
    pub summary: RunSummary,
    /// Every violation, in oracle order.
    pub violations: Vec<Violation>,
}

/// Builds the scenario's simulator, drives the workload through it, and
/// checks every oracle against the finished run.
///
/// # Panics
///
/// Panics if the scenario selects the multi-overlay baseline (oracles audit
/// the `WireMsg` protocols).
pub fn check_run(
    scenario: &ScenarioConfig,
    workload: &Workload,
    oracles: &[Box<dyn Oracle + Send + Sync>],
) -> CheckedRun {
    let mut sim = scenario.build_wire_sim();
    workload.drive(&mut sim);

    let (episodes, resources) = if scenario.protocol == ProtocolChoice::Byzcast {
        let mut all = Vec::new();
        let mut res = Vec::new();
        for i in 0..scenario.n as u32 {
            if let Some(node) = byz_view(&sim, NodeId(i)) {
                all.extend_from_slice(node.suspicion_log().episodes());
                res.push((NodeId(i), node.resource_stats()));
            }
        }
        (Some(all), Some(res))
    } else {
        (None, None)
    };

    let ctx = OracleCtx {
        scenario,
        workload,
        metrics: sim.metrics(),
        horizon: SimTime::ZERO + workload.horizon(),
        eligible: eligible_mask(scenario),
        episodes,
        resources,
    };
    let mut violations = Vec::new();
    let mut outcomes = Vec::new();
    for oracle in oracles {
        let found = oracle.check(&ctx);
        outcomes.push((oracle.name().to_owned(), found.len() as u64));
        violations.extend(found);
    }

    let mut summary = scenario.summarize_wire(&sim);
    summary.oracle_outcomes = outcomes;
    CheckedRun {
        summary,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzcast_adversary::SabotageKind;
    use byzcast_sim::{Field, SimConfig};

    fn scenario(n: usize) -> ScenarioConfig {
        ScenarioConfig {
            seed: 11,
            n,
            sim: SimConfig {
                field: Field::new(500.0, 500.0),
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        }
    }

    fn workload() -> Workload {
        Workload {
            count: 3,
            start: SimDuration::from_secs(4),
            interval: SimDuration::from_secs(1),
            drain: SimDuration::from_secs(15),
            ..Workload::default()
        }
    }

    #[test]
    fn clean_run_passes_every_oracle() {
        let checked = check_run(&scenario(25), &workload(), &standard_oracles());
        assert!(
            checked.violations.is_empty(),
            "unexpected violations: {:?}",
            checked.violations
        );
        assert_eq!(checked.summary.oracle_outcomes.len(), 5);
        assert!(checked.summary.oracle_outcomes.iter().all(|(_, c)| *c == 0));
    }

    #[test]
    fn double_deliver_sabotage_trips_no_duplication() {
        let s = ScenarioConfig {
            sabotage: Some((NodeId(3), SabotageKind::DoubleDeliver)),
            ..scenario(25)
        };
        let checked = check_run(&s, &workload(), &standard_oracles());
        assert!(
            checked
                .violations
                .iter()
                .any(|v| v.oracle == "no-duplication"),
            "sabotage went undetected: {:?}",
            checked.violations
        );
    }

    #[test]
    fn phantom_deliver_sabotage_trips_validity() {
        let s = ScenarioConfig {
            sabotage: Some((NodeId(3), SabotageKind::PhantomDeliver)),
            ..scenario(25)
        };
        let checked = check_run(&s, &workload(), &standard_oracles());
        assert!(
            checked.violations.iter().any(|v| v.oracle == "validity"),
            "phantom delivery went undetected: {:?}",
            checked.violations
        );
    }

    #[test]
    fn drop_deliver_sabotage_trips_semi_reliability() {
        let s = ScenarioConfig {
            sabotage: Some((NodeId(3), SabotageKind::DropDeliver)),
            ..scenario(25)
        };
        let checked = check_run(&s, &workload(), &standard_oracles());
        assert!(
            checked
                .violations
                .iter()
                .any(|v| v.oracle == "semi-reliability"),
            "dropped deliveries went undetected: {:?}",
            checked.violations
        );
    }

    #[test]
    fn governed_flooded_run_stays_inside_the_envelope() {
        use crate::scenario::highest_ids;
        let mut s = scenario(20);
        s.byzcast.resources = paper_envelope();
        let flooder = Deviation::Flooder {
            period: SimDuration::from_millis(200),
            per_tick: 4,
            payload_bytes: 256,
        };
        s.adversary_assignments = highest_ids(s.n, 2, flooder);
        let checked = check_run(&s, &workload(), &standard_oracles());
        assert!(
            checked.violations.is_empty(),
            "governed flood violated an oracle: {:?}",
            checked.violations
        );
        let res = checked
            .summary
            .resources
            .expect("governed runs report resource stats");
        assert!(res.frames_admitted > 0);
        assert!(
            res.peak_store_msgs <= paper_envelope().max_store_msgs as u64,
            "store peak {} above the cap",
            res.peak_store_msgs
        );
    }

    #[test]
    fn ungoverned_runs_report_no_resource_stats() {
        let checked = check_run(&scenario(25), &workload(), &standard_oracles());
        assert!(checked.summary.resources.is_none());
        assert!(checked
            .summary
            .oracle_outcomes
            .iter()
            .any(|(name, count)| name == "bounded-resources" && *count == 0));
    }

    #[test]
    fn crashed_nodes_are_not_obligated() {
        let mut s = scenario(25);
        s.fault_plan.push(
            SimDuration::from_secs(2),
            FaultKind::Crash {
                node: NodeId(5),
                retain_state: false,
            },
        );
        let eligible = eligible_mask(&s);
        assert!(!eligible[5]);
        assert!(eligible[4]);
    }

    /// Nodes 0–2 a few metres apart, node 3 far out of range; origins 0
    /// and 1 both broadcast payload id 7 at 1 s. Node 0 delivers 0's
    /// message three times and 1's once, node 1 delivers 0's twice and 1's
    /// once, node 2 delivers only 1's.
    fn hand_built_run() -> (ScenarioConfig, Metrics) {
        use byzcast_sim::metrics::{BroadcastRecord, DeliveryRecord};
        use byzcast_sim::Position;
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(20.0, 0.0),
            Position::new(5000.0, 0.0),
        ];
        let scenario = ScenarioConfig {
            n: 4,
            mobility: MobilityChoice::Explicit(positions),
            sim: SimConfig {
                field: Field::new(6000.0, 100.0),
                ..SimConfig::default()
            },
            ..ScenarioConfig::default()
        };
        let mut m = Metrics::default();
        for origin in [0, 1] {
            m.broadcasts.push(BroadcastRecord {
                origin: NodeId(origin),
                payload_id: 7,
                time: SimTime::from_secs(1),
                size_bytes: 64,
            });
        }
        for (node, origin) in [
            (1, 0),
            (0, 0),
            (2, 1),
            (1, 0),
            (0, 0),
            (1, 1),
            (0, 0),
            (0, 1),
        ] {
            m.deliveries.push(DeliveryRecord {
                node: NodeId(node),
                origin: NodeId(origin),
                payload_id: 7,
                time: SimTime::from_secs(2),
            });
        }
        (scenario, m)
    }

    fn hand_built_check(oracle: &dyn Oracle) -> Vec<String> {
        let (scenario, metrics) = hand_built_run();
        let ctx = OracleCtx {
            eligible: vec![true; 4],
            scenario: &scenario,
            workload: &Workload::default(),
            metrics: &metrics,
            horizon: SimTime::from_secs(30),
            episodes: None,
            resources: None,
        };
        oracle.check(&ctx).into_iter().map(|v| v.detail).collect()
    }

    #[test]
    fn no_duplication_counts_each_node_origin_payload_once_in_key_order() {
        assert_eq!(
            hand_built_check(&NoDuplication),
            [
                "node 0 delivered payload 7 from 0 3 times",
                "node 1 delivered payload 7 from 0 2 times",
            ]
        );
    }

    #[test]
    fn semi_reliability_keeps_origins_apart_and_skips_the_unreachable() {
        // One payload id, two origins: node 2's delivery of 1's message
        // does not discharge 0's, and node 3, out of everyone's range, owes
        // nothing.
        assert_eq!(
            hand_built_check(&SemiReliability),
            ["node 2 never delivered payload 7 from 0 despite being connected and up"]
        );
    }
}
