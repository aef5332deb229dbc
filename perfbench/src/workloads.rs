//! The benchmark's workloads and the phased drive that times them.
//!
//! A workload is a list of cases (one scenario plus the message stream
//! driven through it). Each case runs in two timed phases:
//!
//! * **set-up** — generating the case, `ScenarioConfig::build_wire_sim`, and
//!   the beacon/overlay warm-up up to 1 ms before the first scheduled
//!   broadcast;
//! * **run** — the rest of the run to the workload horizon, then
//!   `summarize_wire` and the five standard oracles.
//!
//! Splitting `run_until` at an instant changes nothing: the engine pops the
//! same events in the same order either way, which [`Reference`] checks
//! against `ScenarioConfig::run` on every case.

use std::collections::BTreeSet;
use std::time::Instant;

use byzcast_core::message::WireMsg;
use byzcast_harness::chaos::{generate_case_profiled, ChaosProfile};
use byzcast_harness::oracle::{eligible_mask, standard_oracles, OracleCtx};
use byzcast_harness::scenario::byz_view;
use byzcast_harness::{RunSummary, ScenarioConfig, Workload};
use byzcast_sim::{
    DeliveryRecord, Field, Metrics, NodeId, SimConfig, SimDuration, SimTime, Simulator,
};

/// Messages in the standard stream.
const STREAM_MESSAGES: usize = 120;
/// Cases in one pass of `chaos-soak`.
const CHAOS_CASES: u64 = 120;

/// A workload family, parsed from its command-line name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `scale-<n>`: plain byzcast, static uniform placement at R5 density.
    Scale(usize),
    /// `chaos-soak`: 120 standard-profile chaos cases back to back.
    ChaosSoak,
}

impl Family {
    /// Parses `scale-<n>` (n ≥ 8) or `chaos-soak`.
    pub fn parse(name: &str) -> Option<Family> {
        match name {
            "chaos-soak" => Some(Family::ChaosSoak),
            _ => {
                let n: usize = name.strip_prefix("scale-")?.parse().ok()?;
                (n >= 8).then_some(Family::Scale(n))
            }
        }
    }

    /// Number of cases in one pass.
    pub fn case_count(self) -> u64 {
        match self {
            Family::Scale(_) => 1,
            Family::ChaosSoak => CHAOS_CASES,
        }
    }

    /// Oracles whose violation fails the run. Safety — validity, no
    /// duplication, bounded resources — is gated everywhere; the paper's
    /// semi-reliability guarantee only on `chaos-soak`, because some
    /// `scale-1280` seeds end with a few correct nodes missing a message,
    /// an open program finding (see README). `fd-accuracy` is counted, not
    /// gated, on both: open correct-to-correct suspicions at the horizon
    /// are another open finding.
    pub fn gated_oracles(self) -> &'static [&'static str] {
        match self {
            Family::Scale(_) => &["validity", "no-duplication", "bounded-resources"],
            Family::ChaosSoak => &[
                "validity",
                "no-duplication",
                "semi-reliability",
                "bounded-resources",
            ],
        }
    }

    /// Case `index` of this workload under `seed`. The same seed always
    /// gives the same cases; case `index` runs on scenario seed
    /// `seed·1000 + index`.
    pub fn case(self, seed: u64, index: u64) -> Case {
        let seed = seed.wrapping_mul(1000).wrapping_add(index);
        match self {
            Family::Scale(n) => Case {
                scenario: ScenarioConfig {
                    seed,
                    n,
                    sim: r5_density(n),
                    ..ScenarioConfig::default()
                },
                workload: standard_stream(),
            },
            Family::ChaosSoak => {
                // Case i keeps generator seed i's structure (node count,
                // adversary mix, fault plan, stream); the run seed re-seeds
                // its placement, keys and radio randomness. The cost of a
                // chaos case is dominated by its structure — one flooder
                // costs more than fifty clean cases — so drawing structures
                // afresh per seed would measure the draw, not the program.
                let mut c = generate_case_profiled(index, false, ChaosProfile::Standard);
                c.scenario.seed = seed;
                Case {
                    scenario: c.scenario,
                    workload: c.workload,
                }
            }
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Family::Scale(n) => write!(f, "scale-{n}"),
            Family::ChaosSoak => f.write_str("chaos-soak"),
        }
    }
}

/// R5's density — 80 nodes per km² — on a square field sized for `n`.
fn r5_density(n: usize) -> SimConfig {
    let side = 1000.0 * (n as f64 / 80.0).sqrt();
    SimConfig {
        field: Field::new(side, side),
        ..SimConfig::default()
    }
}

/// The standard stream: 512 B messages at 8 msg/s from 4 senders after a
/// 10 s warm-up, followed by a 12 s drain.
fn standard_stream() -> Workload {
    Workload {
        senders: (0..4).map(NodeId).collect(),
        count: STREAM_MESSAGES,
        payload_bytes: 512,
        start: SimDuration::from_secs(10),
        interval: SimDuration::from_millis(125),
        drain: SimDuration::from_secs(12),
    }
}

/// One scenario and the message stream driven through it.
pub struct Case {
    pub scenario: ScenarioConfig,
    pub workload: Workload,
}

/// Host time per phase, summed over the cases of a pass.
#[derive(Clone, Debug, Default)]
pub struct Phases {
    pub generate_s: f64,
    pub build_s: f64,
    pub warmup_s: f64,
    pub run_until_s: f64,
    pub summarize_s: f64,
    /// The whole oracle check, context collection included.
    pub oracle_s: f64,
    /// Each standard oracle's `check`, in suite order.
    pub oracle_each_s: Vec<(&'static str, f64)>,
}

impl Phases {
    /// Time up to 1 ms before the first scheduled broadcast.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s + self.warmup_s
    }

    /// Time from the end of set-up to the horizon, plus summary and oracles.
    pub fn run_s(&self) -> f64 {
        self.run_until_s + self.summarize_s + self.oracle_s
    }

    /// Adds `other` phase by phase.
    pub fn add(&mut self, other: &Phases) {
        self.generate_s += other.generate_s;
        self.build_s += other.build_s;
        self.warmup_s += other.warmup_s;
        self.run_until_s += other.run_until_s;
        self.summarize_s += other.summarize_s;
        self.oracle_s += other.oracle_s;
        if self.oracle_each_s.is_empty() {
            self.oracle_each_s = other.oracle_each_s.clone();
        } else {
            for (mine, theirs) in self.oracle_each_s.iter_mut().zip(&other.oracle_each_s) {
                mine.1 += theirs.1;
            }
        }
    }
}

/// What a finished run must reproduce exactly, whoever built its nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub frames_sent: u64,
    pub frames_received: u64,
    pub collision_losses: u64,
    pub deliveries: Vec<DeliveryRecord>,
    pub latencies_s: Vec<f64>,
}

/// The simulated outcome of one case.
pub struct CaseResult {
    pub phases: Phases,
    /// `summarize_wire`'s summary with the oracle outcomes filled in.
    pub summary: RunSummary,
    /// Delivered correct (node, message) copies.
    pub copies: u64,
    pub fingerprint: Fingerprint,
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds a simulator with `build`, schedules the case's broadcasts, and
/// runs it to 1 ms before the first broadcast: the set-up phase.
pub fn drive_phased(
    case: &Case,
    phases: &mut Phases,
    build: impl FnOnce(&ScenarioConfig) -> Simulator<WireMsg>,
) -> Simulator<WireMsg> {
    let t = Instant::now();
    let mut sim = build(&case.scenario);
    phases.build_s += secs_since(t);

    let t = Instant::now();
    let schedule = case.workload.schedule();
    let first = schedule
        .iter()
        .map(|&(at, ..)| at)
        .min()
        .expect("every workload schedules a broadcast");
    let warm_until = first
        .as_micros()
        .checked_sub(1_000)
        .expect("the first broadcast is at least 1 ms in");
    for (at, sender, payload_id, size) in schedule {
        sim.schedule_app_broadcast(at, sender, payload_id, size);
    }
    sim.run_until(SimTime::from_micros(warm_until));
    phases.warmup_s += secs_since(t);
    sim
}

/// Runs a set-up simulator on to the workload horizon.
pub fn finish_phased(case: &Case, phases: &mut Phases, sim: &mut Simulator<WireMsg>) {
    let t = Instant::now();
    sim.run_until(SimTime::ZERO + case.workload.horizon());
    phases.run_until_s += secs_since(t);
}

/// Runs `case` through the phased drive on the harness's own simulator and
/// checks it with the five standard oracles, exactly as
/// `byzcast_harness::oracle::check_run` does.
pub fn run_case(case: &Case, generate_s: f64) -> CaseResult {
    let mut phases = Phases {
        generate_s,
        ..Phases::default()
    };
    let mut sim = drive_phased(case, &mut phases, ScenarioConfig::build_wire_sim);
    finish_phased(case, &mut phases, &mut sim);
    let scenario = &case.scenario;

    let t = Instant::now();
    let mut episodes = Vec::new();
    let mut resources = Vec::new();
    for i in 0..scenario.n as u32 {
        if let Some(node) = byz_view(&sim, NodeId(i)) {
            episodes.extend_from_slice(node.suspicion_log().episodes());
            resources.push((NodeId(i), node.resource_stats()));
        }
    }
    let ctx = OracleCtx {
        scenario,
        workload: &case.workload,
        metrics: sim.metrics(),
        horizon: SimTime::ZERO + case.workload.horizon(),
        eligible: eligible_mask(scenario),
        episodes: Some(episodes),
        resources: Some(resources),
    };
    let mut outcomes = Vec::new();
    for oracle in standard_oracles() {
        let t = Instant::now();
        let found = oracle.check(&ctx).len() as u64;
        phases.oracle_each_s.push((oracle.name(), secs_since(t)));
        outcomes.push((oracle.name().to_owned(), found));
    }
    phases.oracle_s += secs_since(t);

    let t = Instant::now();
    let mut summary = scenario.summarize_wire(&sim);
    phases.summarize_s += secs_since(t);
    summary.oracle_outcomes = outcomes;

    let fingerprint = fingerprint(&sim, &summary);
    CaseResult {
        phases,
        copies: delivered_copies(sim.metrics(), &scenario.correct_mask()),
        summary,
        fingerprint,
    }
}

/// The frames, collisions, delivery records and latencies of a finished run.
pub fn fingerprint(sim: &Simulator<WireMsg>, summary: &RunSummary) -> Fingerprint {
    let m = sim.metrics();
    Fingerprint {
        frames_sent: m.frames_sent,
        frames_received: m.frames_received,
        collision_losses: m.collision_losses,
        deliveries: m.deliveries.clone(),
        latencies_s: summary.latencies_s.clone(),
    }
}

/// Distinct correct nodes that accepted each message a correct node sent,
/// summed over messages — the denominator of the per-copy metrics, counted
/// the way `RunSummary::from_metrics` counts delivery.
pub fn delivered_copies(metrics: &Metrics, correct: &[bool]) -> u64 {
    metrics
        .broadcasts
        .iter()
        .filter(|b| correct[b.origin.index()])
        .map(|b| {
            metrics
                .deliveries_of(b.payload_id)
                .filter(|d| correct[d.node.index()] && d.origin == b.origin)
                .map(|d| d.node)
                .collect::<BTreeSet<_>>()
                .len() as u64
        })
        .sum()
}

/// `ScenarioConfig::run`'s summaries for every case: the answer each timed
/// pass must reproduce.
pub struct Reference {
    pub summaries: Vec<RunSummary>,
}

impl Reference {
    pub fn compute(family: Family, seed: u64) -> Reference {
        let summaries = (0..family.case_count())
            .map(|i| {
                let case = family.case(seed, i);
                case.scenario.run(&case.workload)
            })
            .collect();
        Reference { summaries }
    }

    /// Whether a phased run of case `index` matches the reference (oracle
    /// outcomes aside, which `ScenarioConfig::run` does not compute).
    pub fn matches(&self, index: usize, result: &CaseResult) -> bool {
        let mut summary = result.summary.clone();
        summary.oracle_outcomes.clear();
        self.summaries[index] == summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_parse() {
        assert_eq!(Family::parse("scale-1280"), Some(Family::Scale(1280)));
        assert_eq!(Family::parse("scale-320"), Some(Family::Scale(320)));
        assert_eq!(Family::parse("chaos-soak"), Some(Family::ChaosSoak));
        for bad in ["scale-", "scale-x", "scale-4", "chaos", "mobile-mute", ""] {
            assert_eq!(Family::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn semi_reliability_is_gated_on_chaos_soak_only() {
        for family in [Family::Scale(1280), Family::ChaosSoak] {
            let gated = family.gated_oracles();
            for safety in ["validity", "no-duplication", "bounded-resources"] {
                assert!(gated.contains(&safety), "{family} {safety}");
            }
            assert!(!gated.contains(&"fd-accuracy"), "{family}");
        }
        assert!(!Family::Scale(1280)
            .gated_oracles()
            .contains(&"semi-reliability"));
        assert!(Family::ChaosSoak
            .gated_oracles()
            .contains(&"semi-reliability"));
    }

    #[test]
    fn cases_are_a_function_of_the_seed() {
        let a = Family::ChaosSoak.case(4, 7);
        let b = Family::ChaosSoak.case(4, 7);
        let c = Family::ChaosSoak.case(5, 7);
        assert_eq!(a.scenario.seed, b.scenario.seed);
        assert_eq!(
            a.scenario.initial_positions(),
            b.scenario.initial_positions()
        );
        // Another seed moves the nodes but keeps the case's structure.
        assert_ne!(
            a.scenario.initial_positions(),
            c.scenario.initial_positions()
        );
        assert_eq!(a.scenario.n, c.scenario.n);
        assert_eq!(a.scenario.fault_plan.len(), c.scenario.fault_plan.len());
        assert_eq!(a.workload.count, c.workload.count);
    }

    #[test]
    fn phased_drive_matches_scenario_run() {
        let case = Family::Scale(24).case(2, 0);
        let result = run_case(&case, 0.0);
        let reference = Reference {
            summaries: vec![case.scenario.run(&case.workload)],
        };
        assert!(reference.matches(0, &result));
        assert!(result.summary.oracle_outcomes.iter().all(|(_, n)| *n == 0));
        assert_eq!(
            result.copies as usize,
            result.summary.latencies_s.len(),
            "no duplicate deliveries in a clean run"
        );
    }
}
