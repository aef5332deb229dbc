//! Seeded chaos generation, invariant-checked soak runs, and scenario
//! shrinking.
//!
//! A [`ChaosCase`] is a complete randomized run — topology, mobility,
//! adversary mix, fault plan, workload — generated deterministically from
//! one seed by [`generate_case`]. [`run_case`] executes it under the
//! standard [`crate::oracle`] suite; [`shrink`] greedily minimizes a
//! violating case while preserving the violated-oracle set; and the
//! line-based corpus format ([`ChaosCase::to_text`] / [`parse_case`])
//! persists reproducers under version control for byte-exact replay.

use std::collections::BTreeMap;

use byzcast_adversary::{Deviation, FlapBehavior, MutePolicy, SabotageKind};
use byzcast_sim::{FaultKind, Field, NodeId, Position, SimConfig, SimDuration, SimRng};

use byzcast_core::{RecoveryConfig, ResourceConfig};

use crate::oracle::{check_run, paper_envelope, standard_oracles, CheckedRun, Violation};
use crate::par::par_map;
use crate::record::{run_record, RecordMeta};
use crate::scenario::{MobilityChoice, ScenarioConfig};
use crate::workload::Workload;

/// One self-contained chaos scenario, replayable from its fields alone.
#[derive(Clone, Debug)]
pub struct ChaosCase {
    /// Stable case name (derived from the generating seed, or the corpus
    /// file stem).
    pub name: String,
    /// The full scenario, fault plan and adversary mix included.
    pub scenario: ScenarioConfig,
    /// The workload driven through it.
    pub workload: Workload,
    /// Expected per-oracle violation counts (empty for healthy cases; a
    /// persisted reproducer records what it reproduces).
    pub expect: Vec<(String, u64)>,
}

/// Which generator a soak draws its cases from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// The full mixed space: adversaries, flappers, crash/restart pairs,
    /// mobility, jams.
    Standard,
    /// Sparse, static, adversary-free topologies with several crashes —
    /// many of them permanent. This is the space that produced the
    /// thin-chain stranding reproducer: with no adversaries and static
    /// mobility the semi-reliability oracle is binding on *every* case, so
    /// any stranded-but-connected node is a violation, not noise.
    CrashHeavy,
}

impl ChaosProfile {
    /// Parses the CLI spelling (`standard` / `crash-heavy`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "standard" => Some(ChaosProfile::Standard),
            "crash-heavy" => Some(ChaosProfile::CrashHeavy),
            _ => None,
        }
    }
}

/// Deterministically generates one chaos case from a seed. `quick` bounds
/// the node count lower so soak smokes stay fast.
///
/// The generated space composes every fault dimension the harness knows:
/// node count and density, static or waypoint mobility, a mixed adversary
/// assignment (≤ n/8, at the highest — overlay-election-winning — ids),
/// flapping Byzantine windows, crash/restart pairs with and without state
/// retention, and at most one closed jam window. Senders are always low-id
/// eligible nodes, and the workload stays light enough (≥ 500 ms spacing)
/// that queue saturation cannot masquerade as a protocol bug.
pub fn generate_case(seed: u64, quick: bool) -> ChaosCase {
    let mut rng = SimRng::new(seed ^ 0xC4A0_5EED);
    let n = 20 + rng.gen_range_u64(if quick { 21 } else { 41 }) as usize;
    let side = 500.0 + rng.gen_range_u64(701) as f64;
    let mobility = if rng.gen_f64() < 0.7 {
        MobilityChoice::Static
    } else {
        MobilityChoice::Waypoint {
            min_mps: 1.0,
            max_mps: 1.0 + 2.0 * rng.gen_f64(),
            pause: SimDuration::from_secs(1),
        }
    };

    let sender_count = 1 + rng.gen_range_u64(3) as usize;
    let workload = Workload {
        senders: (0..sender_count as u32).map(NodeId).collect(),
        count: 3 + rng.gen_range_u64(4) as usize,
        payload_bytes: 256,
        start: SimDuration::from_secs(5 + rng.gen_range_u64(4)),
        interval: SimDuration::from_millis(500 + rng.gen_range_u64(1001)),
        drain: SimDuration::from_secs(15 + rng.gen_range_u64(6)),
    };
    let horizon = workload.horizon();

    let mut scenario = ScenarioConfig {
        seed,
        n,
        sim: SimConfig {
            field: Field::new(side, side),
            ..SimConfig::default()
        },
        mobility,
        ..ScenarioConfig::default()
    };
    // Every chaos case runs governed under the paper-derived envelope, so
    // the bounded-resources oracle is binding on all of them — and the
    // exhaustion adversaries below cannot blow up correct nodes.
    scenario.byzcast.resources = paper_envelope();
    // And every chaos case runs with recovery escalation on, so crash
    // scenarios exercise the widened-retry and overlay-repair paths the
    // thin-chain reproducer needs.
    scenario.byzcast.recovery = RecoveryConfig::standard();

    // Mixed adversaries at the highest ids (never senders).
    let adv_count = rng.gen_range_u64(n as u64 / 8 + 1) as usize;
    let mut next_high = n as u32;
    for _ in 0..adv_count {
        next_high -= 1;
        let kind = match rng.gen_range_u64(12) {
            0 => Deviation::Mute(MutePolicy::DropData),
            1 => Deviation::Mute(MutePolicy::DropDataAndGossip),
            2 => Deviation::Mute(MutePolicy::DropEverything),
            3 => Deviation::Silent,
            4 => Deviation::Forger,
            5 => Deviation::Verbose {
                period: SimDuration::from_millis(500),
                per_tick: 3,
            },
            6 => Deviation::GossipLiar,
            7 => Deviation::Censor(vec![NodeId(0)]),
            8 => Deviation::Impersonator { victim: NodeId(0) },
            9 => Deviation::Flooder {
                period: SimDuration::from_millis(200),
                per_tick: 4,
                payload_bytes: 256,
            },
            10 => Deviation::Replayer {
                delay: SimDuration::from_secs(6),
            },
            _ => Deviation::SigGrinder {
                period: SimDuration::from_millis(200),
                per_tick: 4,
            },
        };
        scenario
            .adversary_assignments
            .push((NodeId(next_high), kind));
    }

    // Flappers: correct nodes with SetByzantine on/off windows.
    let flap_count = rng.gen_range_u64(3) as usize;
    for _ in 0..flap_count {
        next_high -= 1;
        let id = NodeId(next_high);
        let behavior = if rng.gen_f64() < 0.5 {
            FlapBehavior::Mute(MutePolicy::DropEverything)
        } else {
            FlapBehavior::Forger
        };
        scenario
            .adversary_assignments
            .push((id, Deviation::Flapping(behavior)));
        let on = SimDuration::from_secs(4 + rng.gen_range_u64(5));
        let off = on + SimDuration::from_secs(2 + rng.gen_range_u64(5));
        scenario.fault_plan.push(
            on,
            FaultKind::SetByzantine {
                node: id,
                active: true,
            },
        );
        scenario.fault_plan.push(
            off,
            FaultKind::SetByzantine {
                node: id,
                active: false,
            },
        );
    }

    // Crash/restart pairs on correct non-sender nodes.
    let crash_count = rng.gen_range_u64(4) as usize;
    let mut pool: Vec<u32> = (sender_count as u32..next_high).collect();
    rng.shuffle(&mut pool);
    for &raw in pool.iter().take(crash_count) {
        let id = NodeId(raw);
        let latest = (horizon.as_secs_f64() as u64).saturating_sub(12).max(3);
        let at = SimDuration::from_secs(2 + rng.gen_range_u64(latest - 2));
        let downtime = SimDuration::from_secs(2 + rng.gen_range_u64(7));
        let retain = rng.gen_f64() < 0.5;
        scenario.fault_plan.push(
            at,
            FaultKind::Crash {
                node: id,
                retain_state: retain,
            },
        );
        scenario
            .fault_plan
            .push(at + downtime, FaultKind::Restart { node: id });
    }

    // At most one closed jam window, lifted before the tail of the run so
    // post-jam injections still carry semi-reliability obligations.
    if rng.gen_f64() < 0.3 {
        let center = Position::new(rng.gen_f64() * side, rng.gen_f64() * side);
        let radius = 150.0 + rng.gen_range_u64(151) as f64;
        let loss = 0.5 + 0.4 * rng.gen_f64();
        let from = SimDuration::from_secs(2 + rng.gen_range_u64(3));
        let until = from + SimDuration::from_secs(3 + rng.gen_range_u64(4));
        scenario.fault_plan.push(
            from,
            FaultKind::JamStart {
                id: 1,
                center,
                radius_m: radius,
                loss,
            },
        );
        scenario.fault_plan.push(until, FaultKind::JamEnd { id: 1 });
    }

    ChaosCase {
        name: format!("chaos-{seed:08x}"),
        scenario,
        workload,
        expect: Vec::new(),
    }
}

/// Generates one case from the given profile.
pub fn generate_case_profiled(seed: u64, quick: bool, profile: ChaosProfile) -> ChaosCase {
    match profile {
        ChaosProfile::Standard => generate_case(seed, quick),
        ChaosProfile::CrashHeavy => generate_crash_heavy(seed, quick),
    }
}

/// The crash-heavy generator: sparse static fields (thin chains and
/// marginal links form naturally at low density), no adversaries or jams
/// (the semi-reliability oracle stays binding), and 2–4 crashes on correct
/// non-senders of which a fraction never restart — the recovery layer must
/// route around them, not wait them out.
fn generate_crash_heavy(seed: u64, quick: bool) -> ChaosCase {
    let mut rng = SimRng::new(seed ^ 0xCBA5_4EED);
    let n = 16 + rng.gen_range_u64(if quick { 17 } else { 33 }) as usize;
    // Density tuned low: scale the side with √n so the mean degree stays
    // roughly constant and small as n grows.
    let side = (850.0 + rng.gen_range_u64(301) as f64) * (n as f64 / 32.0).sqrt();

    let sender_count = 1 + rng.gen_range_u64(2) as usize;
    let workload = Workload {
        senders: (0..sender_count as u32).map(NodeId).collect(),
        count: 1 + rng.gen_range_u64(3) as usize,
        payload_bytes: 256,
        start: SimDuration::from_secs(5),
        interval: SimDuration::from_millis(1000 + rng.gen_range_u64(501)),
        drain: SimDuration::from_secs(18 + rng.gen_range_u64(7)),
    };
    let horizon = workload.horizon();

    let mut scenario = ScenarioConfig {
        seed,
        n,
        sim: SimConfig {
            field: Field::new(side, side),
            ..SimConfig::default()
        },
        mobility: MobilityChoice::Static,
        ..ScenarioConfig::default()
    };
    scenario.byzcast.resources = paper_envelope();
    scenario.byzcast.recovery = RecoveryConfig::standard();

    let crash_count = 2 + rng.gen_range_u64(3) as usize;
    let mut pool: Vec<u32> = (sender_count as u32..n as u32).collect();
    rng.shuffle(&mut pool);
    for &raw in pool.iter().take(crash_count) {
        let id = NodeId(raw);
        let latest = (horizon.as_secs_f64() as u64).saturating_sub(12).max(3);
        let at = SimDuration::from_secs(2 + rng.gen_range_u64(latest - 2));
        scenario.fault_plan.push(
            at,
            FaultKind::Crash {
                node: id,
                retain_state: rng.gen_f64() < 0.5,
            },
        );
        // Most crashes are permanent — the hard case: the survivors must
        // recover without the crashed node ever coming back.
        if rng.gen_f64() < 0.4 {
            let downtime = SimDuration::from_secs(3 + rng.gen_range_u64(6));
            scenario
                .fault_plan
                .push(at + downtime, FaultKind::Restart { node: id });
        }
    }

    ChaosCase {
        name: format!("crashy-{seed:08x}"),
        scenario,
        workload,
        expect: Vec::new(),
    }
}

/// Runs a case under the standard oracle suite.
pub fn run_case(case: &ChaosCase) -> CheckedRun {
    check_run(&case.scenario, &case.workload, &standard_oracles())
}

/// Groups violations into sorted `(oracle, count)` pairs — the `expect`
/// representation.
pub fn violation_counts(violations: &[Violation]) -> Vec<(String, u64)> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for v in violations {
        *counts.entry(v.oracle).or_insert(0) += 1;
    }
    counts.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// A size measure for shrinking: fewer nodes, fault events, adversaries,
/// messages and seconds all count as smaller.
pub fn case_size(case: &ChaosCase) -> u64 {
    case.scenario.n as u64
        + case.scenario.fault_plan.len() as u64
        + case.scenario.adversary_assignments.len() as u64
        + case.workload.count as u64
        + case.workload.drain.as_secs_f64() as u64
}

/// The result of shrinking a violating case.
#[derive(Clone, Debug)]
pub struct ShrinkResult {
    /// The minimized case, its `expect` set to what it still reproduces.
    pub case: ChaosCase,
    /// Simulation runs spent.
    pub runs: usize,
}

fn violated_names(checked: &CheckedRun) -> Vec<String> {
    violation_counts(&checked.violations)
        .into_iter()
        .map(|(k, _)| k)
        .collect()
}

/// Greedily minimizes `case` while every originally-violated oracle keeps
/// violating, spending at most `budget` simulation runs. Reductions try, in
/// order: dropping fault events (latest first), dropping adversary
/// assignments, halving the message count, halving the drain, and cutting
/// the node count by a quarter. Each accepted reduction restarts the pass;
/// the loop stops at a fixpoint or when the budget runs out.
pub fn shrink(case: &ChaosCase, budget: usize) -> ShrinkResult {
    let mut runs = 0usize;
    let mut current = case.clone();
    let first = run_case(&current);
    runs += 1;
    let target = violated_names(&first);
    current.expect = violation_counts(&first.violations);
    if target.is_empty() {
        return ShrinkResult {
            case: current,
            runs,
        };
    }

    'outer: loop {
        for cand in candidates(&current) {
            if runs >= budget {
                break 'outer;
            }
            let checked = run_case(&cand);
            runs += 1;
            let got = violated_names(&checked);
            if target.iter().all(|t| got.contains(t)) {
                let mut accepted = cand;
                accepted.expect = violation_counts(&checked.violations);
                current = accepted;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        case: current,
        runs,
    }
}

/// All one-step reductions of a case, in preference order.
fn candidates(case: &ChaosCase) -> Vec<ChaosCase> {
    let mut out = Vec::new();
    for i in (0..case.scenario.fault_plan.len()).rev() {
        let mut c = case.clone();
        c.scenario.fault_plan.remove(i);
        out.push(c);
    }
    for i in (0..case.scenario.adversary_assignments.len()).rev() {
        let mut c = case.clone();
        c.scenario.adversary_assignments.remove(i);
        out.push(c);
    }
    if case.workload.count > 1 {
        let mut c = case.clone();
        c.workload.count /= 2;
        out.push(c);
    }
    if case.workload.drain > SimDuration::from_secs(5) {
        let mut c = case.clone();
        let halved = case.workload.drain.as_secs_f64() / 2.0;
        c.workload.drain = SimDuration::from_secs_f64(halved.max(5.0));
        out.push(c);
    }
    let smaller_n = case.scenario.n - case.scenario.n / 4;
    if smaller_n >= 4 && smaller_n < case.scenario.n && fits_in(case, smaller_n) {
        let mut c = case.clone();
        c.scenario.n = smaller_n;
        out.push(c);
    }
    out
}

/// Whether every node the case references still exists with `n` nodes.
fn fits_in(case: &ChaosCase, n: usize) -> bool {
    let ok = |id: NodeId| id.index() < n;
    case.scenario
        .adversary_assignments
        .iter()
        .all(|&(id, _)| ok(id))
        && case.scenario.fault_plan.touched_nodes().into_iter().all(ok)
        && case.scenario.sabotage.is_none_or(|(id, _)| ok(id))
        && case.workload.senders.iter().all(|&id| ok(id))
}

/// One soak run's result: the replayable case, its JSONL record (with
/// `wall_ms` pinned to zero so records are byte-identical across thread
/// counts), and any violations.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// The generated case.
    pub case: ChaosCase,
    /// The generating seed.
    pub seed: u64,
    /// One JSONL line describing the run.
    pub record: String,
    /// Invariant violations (empty on healthy runs).
    pub violations: Vec<Violation>,
}

/// Runs `count` generated cases starting at `seed_start` across `threads`
/// workers, drawing from `profile`. Output is bit-identical for any thread
/// count.
pub fn soak(
    seed_start: u64,
    count: usize,
    quick: bool,
    threads: usize,
    profile: ChaosProfile,
) -> Vec<SoakOutcome> {
    let seeds: Vec<u64> = (0..count as u64).map(|i| seed_start + i).collect();
    par_map(&seeds, threads, |i, &seed| {
        let case = generate_case_profiled(seed, quick, profile);
        let checked = run_case(&case);
        let params = vec![
            ("n".to_owned(), case.scenario.n.to_string()),
            (
                "faults".to_owned(),
                case.scenario.fault_plan.len().to_string(),
            ),
            (
                "adversaries".to_owned(),
                case.scenario.adversary_assignments.len().to_string(),
            ),
        ];
        let meta = RecordMeta {
            experiment: "chaos",
            label: &case.name,
            params: &params,
            seed,
            run_index: i,
            wall_ms: 0.0,
        };
        let record = run_record(&meta, &checked.summary, &[]);
        SoakOutcome {
            case,
            seed,
            record,
            violations: checked.violations,
        }
    })
}

// ---------------------------------------------------------------------------
// Corpus format: "byzcast-chaos v1", one declaration per line.
// ---------------------------------------------------------------------------

/// The corpus format's header line.
pub const CORPUS_HEADER: &str = "# byzcast-chaos v1";

fn millis(d: SimDuration) -> u64 {
    d.as_micros() / 1000
}

/// One `adversary` or `flap` corpus line.
fn role_to_text(id: NodeId, deviation: &Deviation) -> String {
    let kind = match deviation {
        Deviation::Flapping(b) => return format!("flap {} {}", id.0, flap_text(*b)),
        Deviation::Mute(p) => mute_policy_text(*p).to_owned(),
        Deviation::Silent => "silent".to_owned(),
        Deviation::Forger => "forger".to_owned(),
        Deviation::Verbose { period, per_tick } => {
            format!("verbose {} {per_tick}", millis(*period))
        }
        Deviation::Sabotage(k) => format!("sabotage {}", k.name()),
        Deviation::GossipLiar => "gossip-liar".to_owned(),
        Deviation::Censor(victims) => {
            let csv: Vec<String> = victims.iter().map(|v| v.0.to_string()).collect();
            format!("selective-forwarder {}", csv.join(","))
        }
        Deviation::Impersonator { victim } => format!("impersonator {}", victim.0),
        Deviation::Flooder {
            period,
            per_tick,
            payload_bytes,
        } => format!("flooder {} {per_tick} {payload_bytes}", millis(*period)),
        Deviation::Replayer { delay } => format!("replayer {}", millis(*delay)),
        Deviation::SigGrinder { period, per_tick } => {
            format!("sig-grinder {} {per_tick}", millis(*period))
        }
    };
    format!("adversary {} {kind}", id.0)
}

fn mute_policy_text(p: MutePolicy) -> &'static str {
    match p {
        MutePolicy::DropData => "mute-drop-data",
        MutePolicy::DropDataAndGossip => "mute-drop-data-gossip",
        MutePolicy::DropEverything => "mute-drop-everything",
    }
}

fn parse_mute_policy(s: &str) -> Option<MutePolicy> {
    match s {
        "mute-drop-data" => Some(MutePolicy::DropData),
        "mute-drop-data-gossip" => Some(MutePolicy::DropDataAndGossip),
        "mute-drop-everything" => Some(MutePolicy::DropEverything),
        _ => None,
    }
}

fn flap_text(b: FlapBehavior) -> &'static str {
    match b {
        FlapBehavior::Mute(p) => mute_policy_text(p),
        FlapBehavior::Forger => "forger",
    }
}

fn parse_flap(s: &str) -> Option<FlapBehavior> {
    if s == "forger" {
        return Some(FlapBehavior::Forger);
    }
    parse_mute_policy(s).map(FlapBehavior::Mute)
}

impl ChaosCase {
    /// Serializes the case in the versioned line-based corpus format.
    /// [`parse_case`] inverts it exactly.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.scenario;
        let w = &self.workload;
        let mut out = String::new();
        let _ = writeln!(out, "{CORPUS_HEADER}");
        let _ = writeln!(out, "name {}", self.name);
        let _ = writeln!(out, "seed {}", s.seed);
        let _ = writeln!(out, "n {}", s.n);
        let _ = writeln!(out, "field {} {}", s.sim.field.width, s.sim.field.height);
        let _ = writeln!(out, "radio default");
        let r = &s.byzcast.resources;
        if !r.is_unlimited() {
            let _ = writeln!(
                out,
                "resources {} {} {} {} {} {} {}",
                r.frames_per_sec,
                r.verifs_per_sec,
                r.max_store_msgs,
                r.max_store_bytes,
                r.max_seen_ids,
                r.max_gossip_per_origin,
                r.max_missing_per_origin
            );
        }
        let rec = &s.byzcast.recovery;
        if rec.enabled() {
            let _ = writeln!(
                out,
                "recovery {} {} {} {} {} {} {}",
                rec.escalate_after,
                rec.max_escalations,
                millis(rec.backoff_base),
                millis(rec.backoff_cap),
                rec.widen_fanout,
                rec.find_ttl,
                u8::from(rec.reelect_on_indictment)
            );
        }
        match &s.mobility {
            MobilityChoice::Static => {
                let _ = writeln!(out, "mobility static");
            }
            MobilityChoice::Grid => {
                let _ = writeln!(out, "mobility grid");
            }
            MobilityChoice::Line { spacing } => {
                let _ = writeln!(out, "mobility line {spacing}");
            }
            MobilityChoice::Explicit(ps) => {
                let pts: Vec<String> = ps.iter().map(|p| format!("{},{}", p.x, p.y)).collect();
                let _ = writeln!(out, "mobility explicit {}", pts.join(" "));
            }
            MobilityChoice::Waypoint {
                min_mps,
                max_mps,
                pause,
            } => {
                let _ = writeln!(
                    out,
                    "mobility waypoint {min_mps} {max_mps} {}",
                    millis(*pause)
                );
            }
        }
        for (id, deviation) in &s.adversary_assignments {
            let _ = writeln!(out, "{}", role_to_text(*id, deviation));
        }
        if let Some((id, kind)) = s.sabotage {
            let _ = writeln!(out, "sabotage {} {}", id.0, kind.name());
        }
        for ev in s.fault_plan.events() {
            let at = millis(ev.at);
            match ev.kind {
                FaultKind::Crash { node, retain_state } => {
                    let keep = if retain_state { "retain" } else { "lose" };
                    let _ = writeln!(out, "fault {at} crash {} {keep}", node.0);
                }
                FaultKind::Restart { node } => {
                    let _ = writeln!(out, "fault {at} restart {}", node.0);
                }
                FaultKind::SetByzantine { node, active } => {
                    let state = if active { "on" } else { "off" };
                    let _ = writeln!(out, "fault {at} byz {} {state}", node.0);
                }
                FaultKind::JamStart {
                    id,
                    center,
                    radius_m,
                    loss,
                } => {
                    let _ = writeln!(
                        out,
                        "fault {at} jam-start {id} {} {} {radius_m} {loss}",
                        center.x, center.y
                    );
                }
                FaultKind::JamEnd { id } => {
                    let _ = writeln!(out, "fault {at} jam-end {id}");
                }
            }
        }
        let senders: Vec<String> = w.senders.iter().map(|v| v.0.to_string()).collect();
        let _ = writeln!(
            out,
            "workload senders {} count {} bytes {} start_ms {} interval_ms {} drain_ms {}",
            senders.join(","),
            w.count,
            w.payload_bytes,
            millis(w.start),
            millis(w.interval),
            millis(w.drain)
        );
        for (oracle, count) in &self.expect {
            let _ = writeln!(out, "expect {oracle} {count}");
        }
        out
    }
}

/// Parses the corpus format back into a case. Unknown or malformed lines
/// are errors — a corpus file either replays exactly or not at all.
pub fn parse_case(text: &str) -> Result<ChaosCase, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.trim() == CORPUS_HEADER => {}
        other => return Err(format!("bad corpus header: {other:?}")),
    }
    let mut case = ChaosCase {
        name: String::new(),
        scenario: ScenarioConfig::default(),
        workload: Workload::default(),
        expect: Vec::new(),
    };
    let mut saw_n = false;
    // The node ids each line names, checked once `n` is surely known.
    let mut named: Vec<(usize, &str, Vec<NodeId>)> = Vec::new();
    // The line that gave each node its adversary, flap or sabotage role.
    let mut roles: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (lineno, raw) in lines.enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", lineno + 2);
        let mut name = |ids: &[NodeId]| named.push((lineno + 2, line, ids.to_vec()));
        let mut role = |id: NodeId| match roles.insert(id, lineno + 2) {
            Some(first) => Err(err(&format!(
                "node {} already has a role (line {first})",
                id.0
            ))),
            None => Ok(()),
        };
        let mut it = line.split_whitespace();
        let key = it.next().expect("non-empty line has a first token");
        let rest: Vec<&str> = it.collect();
        match key {
            "name" => case.name = rest.join(" "),
            "seed" => case.scenario.seed = parse_num(rest.first(), &err)?,
            "n" => {
                case.scenario.n = parse_num(rest.first(), &err)?;
                saw_n = true;
            }
            "field" => {
                let w: f64 = parse_num(rest.first(), &err)?;
                let h: f64 = parse_num(rest.get(1), &err)?;
                case.scenario.sim.field = Field::new(w, h);
            }
            "radio" => {
                if rest != ["default"] {
                    return Err(err("unsupported radio"));
                }
            }
            "resources" => {
                if rest.len() != 7 {
                    return Err(err("resources needs 7 limits"));
                }
                case.scenario.byzcast.resources = ResourceConfig {
                    frames_per_sec: parse_num(rest.first(), &err)?,
                    verifs_per_sec: parse_num(rest.get(1), &err)?,
                    max_store_msgs: parse_num(rest.get(2), &err)?,
                    max_store_bytes: parse_num(rest.get(3), &err)?,
                    max_seen_ids: parse_num(rest.get(4), &err)?,
                    max_gossip_per_origin: parse_num(rest.get(5), &err)?,
                    max_missing_per_origin: parse_num(rest.get(6), &err)?,
                };
            }
            "recovery" => {
                if rest.len() != 7 {
                    return Err(err("recovery needs 7 values"));
                }
                case.scenario.byzcast.recovery = RecoveryConfig {
                    escalate_after: parse_num(rest.first(), &err)?,
                    max_escalations: parse_num(rest.get(1), &err)?,
                    backoff_base: SimDuration::from_millis(parse_num(rest.get(2), &err)?),
                    backoff_cap: SimDuration::from_millis(parse_num(rest.get(3), &err)?),
                    widen_fanout: parse_num(rest.get(4), &err)?,
                    find_ttl: parse_num(rest.get(5), &err)?,
                    reelect_on_indictment: match *rest.get(6).expect("len checked") {
                        "1" => true,
                        "0" => false,
                        _ => return Err(err("bad reelect flag")),
                    },
                };
            }
            "mobility" => {
                case.scenario.mobility = parse_mobility(&rest).ok_or_else(|| err("bad mobility"))?
            }
            "adversary" => {
                let id = NodeId(parse_num(rest.first(), &err)?);
                let kind = parse_kind(&rest[1..]).ok_or_else(|| err("bad adversary kind"))?;
                role(id)?;
                name(&[id]);
                match &kind {
                    Deviation::Censor(victims) => name(victims),
                    Deviation::Impersonator { victim } => name(&[*victim]),
                    _ => {}
                }
                case.scenario.adversary_assignments.push((id, kind));
            }
            "flap" => {
                let id = NodeId(parse_num(rest.first(), &err)?);
                role(id)?;
                name(&[id]);
                let b = rest
                    .get(1)
                    .and_then(|s| parse_flap(s))
                    .ok_or_else(|| err("bad flap behavior"))?;
                case.scenario
                    .adversary_assignments
                    .push((id, Deviation::Flapping(b)));
            }
            "sabotage" => {
                let id = NodeId(parse_num(rest.first(), &err)?);
                role(id)?;
                name(&[id]);
                let kind = rest
                    .get(1)
                    .and_then(|s| SabotageKind::parse(s))
                    .ok_or_else(|| err("bad sabotage kind"))?;
                case.scenario.sabotage = Some((id, kind));
            }
            "fault" => {
                let at = SimDuration::from_millis(parse_num(rest.first(), &err)?);
                let kind = parse_fault(&rest[1..]).ok_or_else(|| err("bad fault"))?;
                match kind {
                    FaultKind::Crash { node, .. }
                    | FaultKind::Restart { node }
                    | FaultKind::SetByzantine { node, .. } => name(&[node]),
                    FaultKind::JamStart { .. } | FaultKind::JamEnd { .. } => {}
                }
                case.scenario.fault_plan.push(at, kind);
            }
            "workload" => {
                parse_workload(&rest, &mut case.workload).map_err(|m| err(&m))?;
                name(&case.workload.senders);
            }
            "expect" => {
                let oracle = rest.first().ok_or_else(|| err("missing oracle"))?;
                let count: u64 = parse_num(rest.get(1), &err)?;
                case.expect.push(((*oracle).to_owned(), count));
            }
            _ => return Err(err("unknown declaration")),
        }
    }
    if !saw_n || case.scenario.n == 0 {
        return Err("corpus file never declared n".to_owned());
    }
    let n = case.scenario.n;
    for (lineno, line, ids) in named {
        if let Some(id) = ids.iter().find(|id| id.index() >= n) {
            return Err(format!(
                "line {lineno}: node {} does not exist (n = {n}): {line:?}",
                id.0
            ));
        }
    }
    Ok(case)
}

fn parse_num<T: std::str::FromStr>(
    tok: Option<&&str>,
    err: &impl Fn(&str) -> String,
) -> Result<T, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad number"))
}

fn parse_mobility(rest: &[&str]) -> Option<MobilityChoice> {
    match *rest.first()? {
        "static" => Some(MobilityChoice::Static),
        "grid" => Some(MobilityChoice::Grid),
        "line" => Some(MobilityChoice::Line {
            spacing: rest.get(1)?.parse().ok()?,
        }),
        "explicit" => {
            let mut ps = Vec::new();
            for tok in &rest[1..] {
                let (x, y) = tok.split_once(',')?;
                ps.push(Position::new(x.parse().ok()?, y.parse().ok()?));
            }
            Some(MobilityChoice::Explicit(ps))
        }
        "waypoint" => Some(MobilityChoice::Waypoint {
            min_mps: rest.get(1)?.parse().ok()?,
            max_mps: rest.get(2)?.parse().ok()?,
            pause: SimDuration::from_millis(rest.get(3)?.parse().ok()?),
        }),
        _ => None,
    }
}

fn parse_kind(rest: &[&str]) -> Option<Deviation> {
    match *rest.first()? {
        "silent" => Some(Deviation::Silent),
        "forger" => Some(Deviation::Forger),
        "gossip-liar" => Some(Deviation::GossipLiar),
        "sabotage" => SabotageKind::parse(rest.get(1)?).map(Deviation::Sabotage),
        "verbose" => Some(Deviation::Verbose {
            period: SimDuration::from_millis(rest.get(1)?.parse().ok()?),
            per_tick: rest.get(2)?.parse().ok()?,
        }),
        "selective-forwarder" => {
            let mut victims = Vec::new();
            for tok in rest.get(1)?.split(',') {
                victims.push(NodeId(tok.parse().ok()?));
            }
            Some(Deviation::Censor(victims))
        }
        "impersonator" => Some(Deviation::Impersonator {
            victim: NodeId(rest.get(1)?.parse().ok()?),
        }),
        "flooder" => Some(Deviation::Flooder {
            period: SimDuration::from_millis(rest.get(1)?.parse().ok()?),
            per_tick: rest.get(2)?.parse().ok()?,
            payload_bytes: rest.get(3)?.parse().ok()?,
        }),
        "replayer" => Some(Deviation::Replayer {
            delay: SimDuration::from_millis(rest.get(1)?.parse().ok()?),
        }),
        "sig-grinder" => Some(Deviation::SigGrinder {
            period: SimDuration::from_millis(rest.get(1)?.parse().ok()?),
            per_tick: rest.get(2)?.parse().ok()?,
        }),
        mute => parse_mute_policy(mute).map(Deviation::Mute),
    }
}

fn parse_fault(rest: &[&str]) -> Option<FaultKind> {
    match *rest.first()? {
        "crash" => Some(FaultKind::Crash {
            node: NodeId(rest.get(1)?.parse().ok()?),
            retain_state: match *rest.get(2)? {
                "retain" => true,
                "lose" => false,
                _ => return None,
            },
        }),
        "restart" => Some(FaultKind::Restart {
            node: NodeId(rest.get(1)?.parse().ok()?),
        }),
        "byz" => Some(FaultKind::SetByzantine {
            node: NodeId(rest.get(1)?.parse().ok()?),
            active: match *rest.get(2)? {
                "on" => true,
                "off" => false,
                _ => return None,
            },
        }),
        "jam-start" => Some(FaultKind::JamStart {
            id: rest.get(1)?.parse().ok()?,
            center: Position::new(rest.get(2)?.parse().ok()?, rest.get(3)?.parse().ok()?),
            radius_m: rest.get(4)?.parse().ok()?,
            loss: rest.get(5)?.parse().ok()?,
        }),
        "jam-end" => Some(FaultKind::JamEnd {
            id: rest.get(1)?.parse().ok()?,
        }),
        _ => None,
    }
}

fn parse_workload(rest: &[&str], w: &mut Workload) -> Result<(), String> {
    let mut it = rest.iter();
    while let Some(key) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {key}"))?;
        match *key {
            "senders" => {
                let mut senders = Vec::new();
                for tok in val.split(',') {
                    senders.push(NodeId(
                        tok.parse().map_err(|_| format!("bad sender {tok}"))?,
                    ));
                }
                w.senders = senders;
            }
            "count" => w.count = val.parse().map_err(|_| "bad count".to_owned())?,
            "bytes" => w.payload_bytes = val.parse().map_err(|_| "bad bytes".to_owned())?,
            "start_ms" => {
                w.start = SimDuration::from_millis(val.parse().map_err(|_| "bad start".to_owned())?)
            }
            "interval_ms" => {
                w.interval =
                    SimDuration::from_millis(val.parse().map_err(|_| "bad interval".to_owned())?)
            }
            "drain_ms" => {
                w.drain = SimDuration::from_millis(val.parse().map_err(|_| "bad drain".to_owned())?)
            }
            other => return Err(format!("unknown workload key {other}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_case(7, true);
        let b = generate_case(7, true);
        assert_eq!(a.to_text(), b.to_text());
        let c = generate_case(8, true);
        assert_ne!(a.to_text(), c.to_text());
    }

    #[test]
    fn corpus_round_trips_textually() {
        for seed in [0u64, 1, 2, 3, 10, 99] {
            let case = generate_case(seed, true);
            let text = case.to_text();
            let parsed = parse_case(&text).expect("parse back");
            assert_eq!(parsed.to_text(), text, "seed {seed}");
        }
    }

    #[test]
    fn crash_heavy_profile_is_adversary_free_and_round_trips() {
        for seed in 0..10u64 {
            let case = generate_case_profiled(seed, true, ChaosProfile::CrashHeavy);
            assert!(case.scenario.adversary_assignments.is_empty());
            assert!(matches!(case.scenario.mobility, MobilityChoice::Static));
            assert!(case.scenario.byzcast.recovery.enabled());
            assert!(
                case.scenario
                    .fault_plan
                    .events()
                    .iter()
                    .any(|ev| matches!(ev.kind, FaultKind::Crash { .. })),
                "seed {seed} generated no crash"
            );
            assert!(
                case.scenario.fault_plan.validate(case.scenario.n).is_ok(),
                "seed {seed}"
            );
            let text = case.to_text();
            assert!(text.contains("\nrecovery "), "recovery line missing");
            let parsed = parse_case(&text).expect("parse back");
            assert_eq!(parsed.to_text(), text, "seed {seed}");
            assert_eq!(
                parsed.scenario.byzcast.recovery,
                case.scenario.byzcast.recovery
            );
        }
    }

    #[test]
    fn corpus_without_recovery_line_parses_to_the_off_envelope() {
        let text = format!(
            "{CORPUS_HEADER}\nname old\nseed 1\nn 8\nmobility static\n\
             workload senders 0 count 1 bytes 256 start_ms 5000 interval_ms 1000 drain_ms 15000\n"
        );
        let case = parse_case(&text).expect("parse");
        assert!(
            !case.scenario.byzcast.recovery.enabled(),
            "pre-recovery corpus files must replay with the envelope off"
        );
    }

    /// Every adversary kind, both flap behaviours and a sabotaged node, as
    /// corpus text: the format is pinned independently of the types it
    /// parses into.
    const EVERY_ROLE: &str = "# byzcast-chaos v1
name every-role
seed 5
n 24
field 800 600
radio default
mobility static
adversary 23 mute-drop-data
adversary 22 mute-drop-data-gossip
adversary 21 mute-drop-everything
adversary 20 silent
adversary 19 forger
adversary 18 verbose 250 5
adversary 17 gossip-liar
adversary 16 selective-forwarder 0,1
adversary 15 impersonator 2
adversary 14 flooder 200 4 256
adversary 13 replayer 6000
adversary 12 sig-grinder 200 4
flap 11 mute-drop-everything
flap 10 forger
sabotage 9 double-deliver
fault 4000 byz 11 on
fault 7000 byz 11 off
workload senders 0,1 count 3 bytes 256 start_ms 5000 interval_ms 1000 drain_ms 15000
";

    #[test]
    fn every_adversary_role_round_trips_byte_for_byte() {
        let case = parse_case(EVERY_ROLE).expect("parse");
        assert_eq!(case.to_text(), EVERY_ROLE);
        assert_eq!(
            case.scenario
                .adversary_set()
                .into_iter()
                .collect::<Vec<_>>(),
            (10..24).map(NodeId).collect::<Vec<_>>()
        );
        assert!(case.scenario.correct_mask()[9], "sabotage stays correct");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_case("nonsense").is_err());
        assert!(parse_case(&format!("{CORPUS_HEADER}\nfrobnicate 7\n")).is_err());
        assert!(parse_case(&format!("{CORPUS_HEADER}\nname x\n")).is_err());
        assert!(parse_case(&format!("{CORPUS_HEADER}\nn 5\nmobility walk 1 1000\n")).is_err());
        // The 9-value form that also named the two bucket bursts.
        let bursts = "resources 50 100 200 400 4096 4194304 32768 64 64";
        let e = parse_case(&format!("{CORPUS_HEADER}\nn 5\n{bursts}\n")).expect_err(bursts);
        assert!(e.starts_with("line 3: resources needs 7 limits"), "{e}");
    }

    #[test]
    fn parse_rejects_nodes_beyond_n() {
        let head = format!("{CORPUS_HEADER}\nn 7\n");
        for bad in [
            "adversary 99 silent",
            "flap 7 mute-drop-data",
            "sabotage 9 double-deliver",
            "fault 1000 crash 8 retain",
            "fault 1000 restart 8",
            "fault 1000 byz 8 on",
            "workload senders 0,42 count 1",
            "adversary 2 selective-forwarder 1,7",
            "adversary 2 impersonator 12",
        ] {
            let e = parse_case(&format!("{head}{bad}\n")).expect_err(bad);
            assert!(
                e.starts_with("line 3: node ") && e.contains("does not exist (n = 7)"),
                "{bad}: {e}"
            );
        }
        // n may come after the lines that name nodes; ids below it parse.
        let late_n = format!(
            "{CORPUS_HEADER}\nadversary 6 impersonator 0\nflap 5 mute-drop-data\n\
             workload senders 0,6\nfault 1000 crash 4 lose\nsabotage 3 double-deliver\nn 7\n"
        );
        assert!(parse_case(&late_n).is_ok());
        let at_n = format!("{CORPUS_HEADER}\nname x\nsabotage 3 double-deliver\nn 3\n");
        let e = parse_case(&at_n).expect_err("sabotage 3 with n = 3");
        assert!(
            e.starts_with("line 3: node 3 does not exist (n = 3)"),
            "{e}"
        );
    }

    #[test]
    fn parse_rejects_a_node_in_two_roles() {
        let head = format!("{CORPUS_HEADER}\nn 7\n");
        let roles = [
            "adversary 3 silent",
            "adversary 3 sabotage drop-deliver",
            "flap 3 forger",
            "sabotage 3 double-deliver",
        ];
        for first in roles {
            for second in roles {
                let text = format!("{head}adversary 4 forger\n{first}\n{second}\n");
                let e = parse_case(&text).expect_err(&text);
                assert!(
                    e.starts_with("line 5: node 3 already has a role (line 4)"),
                    "{first} / {second}: {e}"
                );
            }
        }
        // Victims are not roles: a censor's victim may be an adversary too.
        let victims = format!(
            "{head}adversary 3 silent\nadversary 4 selective-forwarder 3\n\
             adversary 5 impersonator 3\n"
        );
        assert!(parse_case(&victims).is_ok());
    }

    #[test]
    fn adversary_sabotage_round_trips_as_an_adversary() {
        let text = format!(
            "{CORPUS_HEADER}\nname s\nseed 1\nn 8\nfield 500 500\nradio default\n\
             mobility static\nadversary 7 sabotage phantom-deliver\n\
             workload senders 0 count 1 bytes 256 start_ms 5000 interval_ms 1000 drain_ms 15000\n"
        );
        let case = parse_case(&text).expect("parse");
        assert_eq!(case.to_text(), text);
        assert!(matches!(
            case.scenario.deviation_of(NodeId(7)),
            Some(Deviation::Sabotage(SabotageKind::PhantomDeliver))
        ));
        assert!(case.scenario.sabotage.is_none());
    }

    #[test]
    fn generated_cases_reference_only_existing_nodes() {
        for seed in 0..20u64 {
            let case = generate_case(seed, true);
            let n = case.scenario.n;
            assert!(case
                .scenario
                .adversary_assignments
                .iter()
                .all(|&(id, _)| id.index() < n));
            assert!(case.scenario.fault_plan.validate(n).is_ok(), "seed {seed}");
            assert!(case.workload.senders.iter().all(|&id| id.index() < n));
        }
    }

    #[test]
    fn shrinker_strictly_shrinks_a_sabotaged_case() {
        // A deliberately bloated reproducer: a sabotaged node plus redundant
        // fault events and adversaries that have nothing to do with the bug.
        let mut case = generate_case(3, true);
        case.scenario.sabotage = Some((NodeId(1), SabotageKind::DoubleDeliver));
        case.scenario.fault_plan.push(
            SimDuration::from_secs(3),
            FaultKind::Crash {
                node: NodeId(5),
                retain_state: true,
            },
        );
        case.scenario.fault_plan.push(
            SimDuration::from_secs(6),
            FaultKind::Restart { node: NodeId(5) },
        );
        let before = case_size(&case);

        let result = shrink(&case, 120);
        assert!(
            !result.case.expect.is_empty(),
            "shrinker lost the violation"
        );
        assert!(
            result
                .case
                .expect
                .iter()
                .any(|(o, _)| o == "no-duplication"),
            "wrong violation preserved: {:?}",
            result.case.expect
        );
        assert!(
            case_size(&result.case) < before,
            "no reduction: {} -> {}",
            before,
            case_size(&result.case)
        );
    }
}
