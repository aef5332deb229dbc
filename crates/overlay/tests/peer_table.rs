//! The one peer table against the per-detector maps it replaced.
//!
//! A reference written here keeps each column in a map of its own, the way
//! the detectors used to: MUTE's and VERBOSE's counters and suspicions,
//! VERBOSE's arrivals (a slot for each of the five kinds) and quota counts,
//! TRUST's suspicions, reports and logged set, and the neighbour table's
//! beacons. A random schedule drives it and a `NeighborTable` with
//! `FailureDetectors` side by side; after every step both must agree on
//! suspects, levels, aged counters, the neighbour view and which peers have
//! a row at all.

use std::collections::{BTreeMap, BTreeSet};

use byzcast_fd::trust::{REPORT_DURATION, SUSPICION_DURATION};
use byzcast_fd::verbose::{self, QUOTA_VIOLATION_THRESHOLD};
use byzcast_fd::{mute, DataId, Detector, FailureDetectors, MsgKind, Peers, TrustLevel};
use byzcast_overlay::{NeighborTable, OverlayRole};
use byzcast_sim::{NodeId, SimDuration, SimTime};
use proptest::prelude::ProptestConfig;
use proptest::prop_assert_eq;
use proptest::test_runner::TestCaseError;

const TIMEOUT: SimDuration = SimDuration::from_secs(3);
const KINDS: [MsgKind; 5] = [
    MsgKind::Data,
    MsgKind::Gossip,
    MsgKind::RequestMsg,
    MsgKind::FindMissingMsg,
    MsgKind::Beacon,
];
/// The spacing rule of each of [`KINDS`], if it has one.
const RULES: [Option<SimDuration>; 5] = [
    None,
    Some(SimDuration::from_millis(600)),
    None,
    None,
    Some(SimDuration::from_millis(1500)),
];

/// One detector's aged counters and suspicions, one map each.
#[derive(Default)]
struct Offences {
    counters: BTreeMap<NodeId, u32>,
    suspected: BTreeMap<NodeId, SimTime>,
    last_decay: SimTime,
}

fn raise(map: &mut BTreeMap<NodeId, SimTime>, node: NodeId, until: SimTime) {
    let entry = map.entry(node).or_insert(until);
    *entry = (*entry).max(until);
}

fn live(map: &BTreeMap<NodeId, SimTime>, now: SimTime) -> Vec<NodeId> {
    map.iter()
        .filter(|&(_, &until)| until > now)
        .map(|(&n, _)| n)
        .collect()
}

impl Offences {
    fn count(&mut self, now: SimTime, node: NodeId, threshold: u32, duration: SimDuration) {
        let c = self.counters.entry(node).or_insert(0);
        *c += 1;
        if *c >= threshold {
            raise(&mut self.suspected, node, now + duration);
        }
    }

    fn tick(&mut self, now: SimTime, interval: SimDuration) -> bool {
        let aged = now.saturating_since(self.last_decay) >= interval;
        while now.saturating_since(self.last_decay) >= interval {
            self.last_decay += interval;
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
        self.suspected.retain(|_, until| *until > now);
        aged
    }

    fn counter(&self, node: NodeId) -> u32 {
        self.counters.get(&node).copied().unwrap_or(0)
    }
}

/// The detectors and neighbour table as separate maps.
#[derive(Default)]
struct Reference {
    beacons: BTreeMap<NodeId, SimTime>,
    expectations: Vec<(DataId, SimTime, Vec<NodeId>, bool)>,
    mute: Offences,
    verbose: Offences,
    arrivals: BTreeMap<NodeId, [Option<SimTime>; 5]>,
    quota: BTreeMap<NodeId, u32>,
    trust: BTreeMap<NodeId, SimTime>,
    reports: BTreeMap<(NodeId, NodeId), SimTime>,
    logged: BTreeSet<NodeId>,
}

impl Reference {
    /// Registers an expectation; returns whether the cap evicted one.
    fn expect(&mut self, now: SimTime, id: DataId, nodes: &[NodeId]) -> bool {
        if let Some(e) = self.expectations.iter_mut().find(|e| !e.3 && e.0 == id) {
            for &n in nodes {
                if !e.2.contains(&n) {
                    e.2.push(n);
                }
            }
            return false;
        }
        let evicts = self.expectations.len() >= mute::MAX_EXPECTATIONS;
        if evicts {
            self.expectations.remove(0);
        }
        let deadline = now + mute::EXPECT_TIMEOUT;
        self.expectations
            .push((id, deadline, nodes.to_vec(), false));
        evicts
    }

    fn indict(&mut self, now: SimTime, node: NodeId) {
        let (threshold, duration) = (verbose::THRESHOLD, verbose::SUSPICION_DURATION);
        self.verbose.count(now, node, threshold, duration);
    }

    fn quota_violation(&mut self, now: SimTime, node: NodeId) {
        let c = self.quota.entry(node).or_insert(0);
        *c += 1;
        if *c >= QUOTA_VIOLATION_THRESHOLD {
            *c = 0;
            self.indict(now, node);
        }
    }

    fn arrival(&mut self, now: SimTime, node: NodeId, kind: usize) {
        let Some(spacing) = RULES[kind] else {
            return;
        };
        let prev = self.arrivals.entry(node).or_insert([None; 5])[kind].replace(now);
        if prev.is_some_and(|prev| now.saturating_since(prev) < spacing) {
            self.indict(now, node);
        }
    }

    fn trusted(&self, node: NodeId, now: SimTime) -> bool {
        self.trust.get(&node).is_none_or(|&until| until <= now)
    }

    fn report(&mut self, now: SimTime, reporter: NodeId, suspected: NodeId) {
        if self.trusted(reporter, now) && self.trusted(suspected, now) {
            self.reports
                .insert((suspected, reporter), now + REPORT_DURATION);
        }
    }

    /// A tick; returns the suspicions opened and closed since the last
    /// logged tick if `log`.
    fn tick(&mut self, now: SimTime, log: bool) -> (Vec<NodeId>, Vec<NodeId>) {
        let mute = &mut self.mute;
        self.expectations.retain(|(_, deadline, nodes, satisfied)| {
            if !satisfied && *deadline <= now {
                for &n in nodes {
                    mute.count(now, n, mute::THRESHOLD, mute::SUSPICION_DURATION);
                }
            }
            !satisfied && *deadline > now
        });
        self.mute.tick(now, mute::DECAY_INTERVAL);
        if self.verbose.tick(now, verbose::DECAY_INTERVAL) {
            for row in self.arrivals.values_mut() {
                for (slot, rule) in row.iter_mut().zip(RULES) {
                    if slot.is_some_and(|at| rule.is_none_or(|s| now.saturating_since(at) >= s)) {
                        *slot = None;
                    }
                }
            }
            self.arrivals
                .retain(|_, row| row.iter().any(Option::is_some));
        }
        let fresh = [
            live(&self.mute.suspected, now),
            live(&self.verbose.suspected, now),
        ];
        for n in fresh.into_iter().flatten() {
            raise(&mut self.trust, n, now + SUSPICION_DURATION);
        }
        self.trust.retain(|_, until| *until > now);
        self.reports.retain(|_, until| *until > now);
        if !log {
            return (Vec::new(), Vec::new());
        }
        let current: BTreeSet<NodeId> = self.trust.keys().copied().collect();
        let begun = current.difference(&self.logged).copied().collect();
        let ended = self.logged.difference(&current).copied().collect();
        self.logged = current;
        (begun, ended)
    }

    fn level(&self, node: NodeId, now: SimTime) -> TrustLevel {
        if !self.trusted(node, now) {
            return TrustLevel::Untrusted;
        }
        let reported = self
            .reports
            .iter()
            .any(|(&(s, r), &until)| s == node && until > now && self.trusted(r, now));
        if reported {
            TrustLevel::Unknown
        } else {
            TrustLevel::Trusted
        }
    }

    /// The peers some column holds anything about.
    fn rows(&self) -> BTreeSet<NodeId> {
        let quota = self.quota.iter().filter(|&(_, &c)| c > 0).map(|(n, _)| n);
        self.beacons
            .keys()
            .chain(self.mute.counters.keys())
            .chain(self.mute.suspected.keys())
            .chain(self.verbose.counters.keys())
            .chain(self.verbose.suspected.keys())
            .chain(self.arrivals.keys())
            .chain(quota)
            .chain(self.trust.keys())
            .chain(&self.logged)
            .copied()
            .collect()
    }
}

/// The table and detectors under test.
struct Subject {
    fd: FailureDetectors,
    table: NeighborTable,
}

impl Subject {
    fn tick(&mut self, now: SimTime, log: bool) -> (Vec<NodeId>, Vec<NodeId>) {
        self.fd.tick(now, &mut self.table);
        if !log {
            return (Vec::new(), Vec::new());
        }
        self.fd.trust.sync_logged(now, &mut self.table)
    }
}

/// Which paths a run reached: MUTE and VERBOSE suspicions, an `Unknown`
/// level, a row without a live beacon, a freed row, an opened and a closed
/// logged suspicion, an expectation evicted by MUTE's cap.
type Hits = [u64; 8];

fn one_table_matches_case(
    ops: &[(u8, u32, u32, u64)],
    hits: &mut Hits,
) -> Result<(), TestCaseError> {
    let mut sub = Subject {
        fd: FailureDetectors::default(),
        table: NeighborTable::new(TIMEOUT),
    };
    for (kind, rule) in KINDS.iter().zip(RULES) {
        if let Some(spacing) = rule {
            sub.fd.verbose.set_min_spacing(*kind, spacing);
        }
    }
    let mut model = Reference::default();
    let mut now = SimTime::from_secs(1);
    let mut fresh = 0u64;
    for &(op, a, b, gap_ms) in ops {
        now += SimDuration::from_millis(gap_ms);
        let nb = NodeId(b);
        let id: DataId = (NodeId(9), u64::from(a % 3));
        let rows_before = sub.table.peers().count();
        let (mut begun, mut ended) = (Vec::new(), Vec::new());
        let mut model_log = (Vec::new(), Vec::new());
        match op {
            0 => {
                let nodes = [nb, NodeId((b + 1) % 8)];
                sub.fd.mute.expect(now, id, &nodes);
                hits[7] += u64::from(model.expect(now, id, &nodes));
            }
            13 if a + b == 0 => {
                // Rarely, one expectation more than the cap holds, each on
                // a message of its own: the oldest entries are evicted.
                for _ in 0..=mute::MAX_EXPECTATIONS {
                    fresh += 1;
                    let id = (NodeId(8), fresh);
                    sub.fd.mute.expect(now, id, &[nb]);
                    hits[7] += u64::from(model.expect(now, id, &[nb]));
                }
            }
            1 => {
                sub.fd.mute.observe(id, nb);
                for e in &mut model.expectations {
                    e.3 |= !e.3 && e.0 == id && e.2.contains(&nb);
                }
            }
            2 => {
                sub.fd.mute.satisfy(id);
                for e in &mut model.expectations {
                    e.3 |= e.0 == id;
                }
            }
            3 => {
                for _ in 0..=a {
                    sub.fd.verbose.indict(now, &mut sub.table, NodeId(b % 4));
                    model.indict(now, NodeId(b % 4));
                }
            }
            4 => {
                for _ in 0..=a {
                    let table = &mut sub.table;
                    sub.fd
                        .verbose
                        .report_quota_violation(now, table, NodeId(b % 4));
                    model.quota_violation(now, NodeId(b % 4));
                }
            }
            5 => {
                let kind = (a % 5) as usize;
                let table = &mut sub.table;
                sub.fd.verbose.observe_arrival(now, table, nb, KINDS[kind]);
                model.arrival(now, nb, kind);
            }
            6 => {
                let from = NodeId(b % 6);
                sub.table
                    .record_beacon(now, from, OverlayRole::Passive, [], []);
                model.beacons.insert(from, now);
            }
            7 => {
                let reporter = NodeId(a % 6);
                sub.fd
                    .trust
                    .report_from_neighbor(now, &sub.table, reporter, nb);
                model.report(now, reporter, nb);
            }
            8 => {
                sub.fd.trust.suspect(now, &mut sub.table, nb);
                raise(&mut model.trust, nb, now + SUSPICION_DURATION);
            }
            9 | 10 => {
                let log = op == 9;
                (begun, ended) = sub.tick(now, log);
                model_log = model.tick(now, log);
            }
            11 => {
                sub.table.prune(now);
                model
                    .beacons
                    .retain(|_, &mut heard| now.saturating_since(heard) <= TIMEOUT);
            }
            _ => {
                sub.table.remove(nb);
                model.beacons.remove(&nb);
            }
        }
        prop_assert_eq!((&begun, &ended), (&model_log.0, &model_log.1));
        let (fd, table) = (&sub.fd, &sub.table);
        for node in (0..10).map(NodeId) {
            prop_assert_eq!(
                table.offences(Detector::Mute, node),
                model.mute.counter(node)
            );
            prop_assert_eq!(
                table.offences(Detector::Verbose, node),
                model.verbose.counter(node)
            );
            prop_assert_eq!(fd.trust.level(table, node, now), model.level(node, now));
            prop_assert_eq!(table.contains(node), model.beacons.contains_key(&node));
            hits[2] += u64::from(model.level(node, now) == TrustLevel::Unknown);
        }
        prop_assert_eq!(
            table.suspects(Detector::Mute, now),
            live(&model.mute.suspected, now)
        );
        prop_assert_eq!(
            table.suspects(Detector::Verbose, now),
            live(&model.verbose.suspected, now)
        );
        prop_assert_eq!(
            table.suspects(Detector::Trust, now),
            live(&model.trust, now)
        );
        let view: Vec<(NodeId, SimTime)> = table.iter().map(|(n, i)| (n, i.last_heard)).collect();
        let model_view: Vec<(NodeId, SimTime)> =
            model.beacons.iter().map(|(&n, &t)| (n, t)).collect();
        prop_assert_eq!(view, model_view);
        prop_assert_eq!(table.len(), model.beacons.len());
        let ids: Vec<NodeId> = model.beacons.keys().copied().collect();
        prop_assert_eq!(table.neighbor_ids(), ids);
        let rows: BTreeSet<NodeId> = table.peers().map(|(n, _)| n).collect();
        prop_assert_eq!(&rows, &model.rows());
        hits[0] += u64::from(!model.mute.suspected.is_empty());
        hits[1] += u64::from(!model.verbose.suspected.is_empty());
        hits[3] += u64::from(rows.len() > model.beacons.len());
        hits[4] += u64::from(rows.len() < rows_before);
        hits[5] += u64::from(!begun.is_empty());
        hits[6] += u64::from(!ended.is_empty());
    }
    Ok(())
}

#[test]
fn one_table_matches_the_per_detector_maps() {
    let mut hits: Hits = [0; 8];
    let ops = proptest::collection::vec((0u8..14, 0u32..8, 0u32..8, 0u64..400), 1..150);
    proptest::test_runner::run_cases(
        "one_table_matches_the_per_detector_maps",
        &ProptestConfig::default(),
        &ops,
        |ops| one_table_matches_case(&ops, &mut hits),
    );
    assert!(hits.iter().all(|&h| h > 0), "uncovered path: {hits:?}");
}
