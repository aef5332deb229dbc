//! The VERBOSE failure detector (classes ◇P_verbose and I_verbose).
//!
//! "The goal of the VERBOSE failure detector is to detect verbose nodes.
//! Such nodes try to overload the system by sending too many messages…
//! Detecting such nodes is therefore useful in order to allow nodes to stop
//! reacting to messages from these nodes." Its interface method is
//! `indict(node id)`: "VERBOSE maintains a counter for each node that was
//! listed in any invocation of its method. The counter is incremented on each
//! such event, and after a given threshold, the node is considered to be a
//! suspect." The paper also mentions "a method that allows to specify general
//! requirements about the minimal spacing between consecutive arrivals of
//! messages of the same type", invoked at initialization time — implemented
//! here as [`VerboseDetector::set_min_spacing`] plus
//! [`VerboseDetector::observe_arrival`]. Counters age down periodically.
//!
//! The protocol sends two kinds on a fixed period, gossips and beacons, so
//! those are the kinds a spacing rule can name; arrivals of any other kind
//! are ignored.

use byzcast_sim::{NodeId, SimDuration, SimTime};

use crate::header::MsgKind;
use crate::suspicion::{NodeMap, Offences};

/// VERBOSE detector parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerboseConfig {
    /// Indictments at which a node becomes suspected.
    pub threshold: u32,
    /// How often counters are decremented by one (the aging mechanism).
    pub decay_interval: SimDuration,
    /// How long a node stays suspected after crossing the threshold.
    pub suspicion_duration: SimDuration,
    /// Resource-governance feed: how many admission/quota violations from
    /// one neighbour convert into a single VERBOSE indictment (see
    /// [`VerboseDetector::report_quota_violation`]). `0` disables the feed.
    /// Only reachable when resource limits are configured, so the default is
    /// inert under ungoverned configurations.
    pub quota_violation_threshold: u32,
}

impl Default for VerboseConfig {
    fn default() -> Self {
        VerboseConfig {
            threshold: 10,
            decay_interval: SimDuration::from_secs(5),
            suspicion_duration: SimDuration::from_secs(10),
            quota_violation_threshold: 8,
        }
    }
}

/// The kinds a spacing rule can name, in slot order.
const SPACED: [MsgKind; 2] = [MsgKind::Gossip, MsgKind::Beacon];

/// The slot of `kind` in a row and in the rules, if it can have a rule.
fn slot(kind: MsgKind) -> Option<usize> {
    SPACED.iter().position(|&k| k == kind)
}

/// An empty arrival slot (no arrival of that kind is tracked).
const NO_ARRIVAL: SimTime = SimTime::MAX;

/// The latest Gossip and Beacon arrival from one sender, [`NO_ARRIVAL`]
/// where none is tracked: 16 bytes, four rows to a cache line.
type ArrivalRow = [SimTime; SPACED.len()];

/// The VERBOSE failure detector of one node.
#[derive(Debug)]
pub struct VerboseDetector {
    config: VerboseConfig,
    /// Indictments per node.
    indictments: Offences,
    /// Spacing rule per slot of [`SPACED`]; zero means no rule (a zero
    /// spacing could never be violated).
    min_spacing: [SimDuration; SPACED.len()],
    /// Senders with a tracked arrival, ascending; `arrivals[i]` is the row of
    /// `arrival_from[i]`.
    arrival_from: Vec<NodeId>,
    /// One row per tracked sender, so a gossip's Gossip and Beacon arrivals
    /// share one lookup. A row goes once all its arrivals have aged out.
    arrivals: Vec<ArrivalRow>,
    /// Accumulated resource-quota violations per node, reset each time they
    /// convert into an indictment.
    quota_violations: NodeMap<u32>,
}

impl VerboseDetector {
    /// Creates a detector.
    pub fn new(config: VerboseConfig) -> Self {
        VerboseDetector {
            config,
            indictments: Offences::new(
                config.threshold,
                config.decay_interval,
                config.suspicion_duration,
            ),
            min_spacing: [SimDuration::ZERO; SPACED.len()],
            arrival_from: Vec::new(),
            arrivals: Vec::new(),
            quota_violations: NodeMap::default(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &VerboseConfig {
        &self.config
    }

    /// Declares that consecutive messages of `kind` from the same node closer
    /// together than `spacing` constitute a verbose fault. Typically invoked
    /// at initialization time.
    ///
    /// # Panics
    ///
    /// Panics unless `kind` is [`MsgKind::Gossip`] or [`MsgKind::Beacon`],
    /// the kinds the protocol sends on a fixed period.
    pub fn set_min_spacing(&mut self, kind: MsgKind, spacing: SimDuration) {
        let slot = slot(kind).unwrap_or_else(|| panic!("no spacing rule for {kind:?}"));
        self.min_spacing[slot] = spacing;
    }

    /// Indicts `node` for sending too many messages of some type.
    pub fn indict(&mut self, now: SimTime, node: NodeId) {
        self.indictments.count(now, node);
    }

    /// Feeds one resource-governance violation by `node` (an admission
    /// drop, refused verification, or per-origin quota rejection). Every
    /// `quota_violation_threshold` violations convert into one [`indict`]
    /// call, so *sustained* flooding is suspected and shed — not just
    /// throttled — while isolated bursts merely lose the dropped frames.
    /// Returns whether this violation produced an indictment.
    ///
    /// [`indict`]: VerboseDetector::indict
    pub fn report_quota_violation(&mut self, now: SimTime, node: NodeId) -> bool {
        if self.config.quota_violation_threshold == 0 {
            return false;
        }
        let c = self.quota_violations.entry(node, 0);
        *c += 1;
        let converts = *c >= self.config.quota_violation_threshold;
        if converts {
            *c = 0;
            self.indict(now, node);
        }
        converts
    }

    /// Feeds a message arrival; auto-indicts if it violates the minimum
    /// spacing registered for its kind.
    pub fn observe_arrival(&mut self, now: SimTime, node: NodeId, kind: MsgKind) {
        // Arrival times are only ever compared against a spacing rule, so
        // kinds without one need no tracking at all (rules are registered at
        // initialization time, before any arrivals).
        let Some(slot) = slot(kind) else {
            return;
        };
        let spacing = self.min_spacing[slot];
        if spacing == SimDuration::ZERO {
            return;
        }
        // One probe: record this arrival and get the previous one back.
        let prev = match self.arrival_from.binary_search(&node) {
            Ok(pos) => std::mem::replace(&mut self.arrivals[pos][slot], now),
            Err(pos) => {
                let mut row = [NO_ARRIVAL; SPACED.len()];
                row[slot] = now;
                self.arrival_from.insert(pos, node);
                self.arrivals.insert(pos, row);
                NO_ARRIVAL
            }
        };
        if prev != NO_ARRIVAL && now.saturating_since(prev) < spacing {
            self.indict(now, node);
        }
    }

    /// Ages counters down and expires old suspicions. At each aging step it
    /// also forgets arrivals at least their kind's spacing old: the next
    /// arrival of that kind from that node cannot violate the rule against
    /// them, so dropping them changes no verdict and bounds the table by the
    /// senders heard within one decay interval.
    pub fn tick(&mut self, now: SimTime) {
        if self.indictments.tick(now) {
            let spacing = &self.min_spacing;
            for row in &mut self.arrivals {
                for (at, &rule) in row.iter_mut().zip(spacing) {
                    if *at != NO_ARRIVAL && now.saturating_since(*at) >= rule {
                        *at = NO_ARRIVAL;
                    }
                }
            }
            let live = |row: &ArrivalRow| row.iter().any(|&at| at != NO_ARRIVAL);
            let mut rows = self.arrivals.iter();
            self.arrival_from.retain(|_| rows.next().is_some_and(live));
            self.arrivals.retain(live);
        }
    }

    /// Bytes its tables allocate (from their capacities).
    pub fn heap_bytes(&self) -> usize {
        self.indictments.heap_bytes()
            + self.arrival_from.capacity() * std::mem::size_of::<NodeId>()
            + self.arrivals.capacity() * std::mem::size_of::<ArrivalRow>()
            + self.quota_violations.heap_bytes()
    }

    /// Whether `node` is currently suspected.
    pub fn is_suspected(&self, node: NodeId, now: SimTime) -> bool {
        self.indictments.suspected().contains(node, now)
    }

    /// The nodes currently suspected, in id order.
    pub fn suspects(&self, now: SimTime) -> Vec<NodeId> {
        self.indictments.suspected().at(now)
    }

    /// The current (aged) counter for `node`.
    pub fn counter(&self, node: NodeId) -> u32 {
        self.indictments.counter(node)
    }

    /// Total indictments of `node` over the run (diagnostic).
    pub fn indict_count(&self, node: NodeId) -> u64 {
        self.indictments.total(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> VerboseConfig {
        VerboseConfig {
            threshold: 3,
            decay_interval: SimDuration::from_secs(1),
            suspicion_duration: SimDuration::from_secs(5),
            quota_violation_threshold: 2,
        }
    }

    #[test]
    fn below_threshold_is_not_suspected() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        fd.indict(t, NodeId(1));
        fd.indict(t, NodeId(1));
        assert!(!fd.is_suspected(NodeId(1), t));
        assert_eq!(fd.counter(NodeId(1)), 2);
    }

    #[test]
    fn threshold_crossing_suspects() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            fd.indict(t, NodeId(1));
        }
        assert!(fd.is_suspected(NodeId(1), t));
        assert_eq!(fd.suspects(t), vec![NodeId(1)]);
        assert_eq!(fd.indict_count(NodeId(1)), 3);
    }

    #[test]
    fn counters_decay_over_time() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        fd.indict(t, NodeId(1));
        fd.indict(t, NodeId(1));
        // Two decay intervals pass: counter 2 -> 0.
        fd.tick(t + SimDuration::from_secs(2));
        assert_eq!(fd.counter(NodeId(1)), 0);
        // Slow indictments never accumulate to the threshold.
        let mut now = t;
        for _ in 0..10 {
            now += SimDuration::from_secs(2);
            fd.indict(now, NodeId(2));
            fd.tick(now);
        }
        assert!(!fd.is_suspected(NodeId(2), now));
    }

    #[test]
    fn suspicion_expires() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            fd.indict(t, NodeId(1));
        }
        let later = t + SimDuration::from_secs(6);
        fd.tick(later);
        assert!(!fd.is_suspected(NodeId(1), later));
    }

    #[test]
    fn min_spacing_violations_auto_indict() {
        let mut fd = VerboseDetector::new(config());
        fd.set_min_spacing(MsgKind::Gossip, SimDuration::from_millis(500));
        let t = SimTime::from_secs(1);
        // Four rapid-fire gossips: three spacing violations ≥ threshold.
        for i in 0..4u64 {
            fd.observe_arrival(
                t + SimDuration::from_millis(i * 10),
                NodeId(3),
                MsgKind::Gossip,
            );
        }
        assert!(fd.is_suspected(NodeId(3), t + SimDuration::from_millis(40)));
    }

    #[test]
    fn spaced_arrivals_do_not_indict() {
        let mut fd = VerboseDetector::new(config());
        fd.set_min_spacing(MsgKind::Beacon, SimDuration::from_millis(500));
        let t = SimTime::from_secs(1);
        for i in 0..10u64 {
            fd.observe_arrival(t + SimDuration::from_secs(i), NodeId(3), MsgKind::Beacon);
        }
        assert_eq!(fd.counter(NodeId(3)), 0);
    }

    #[test]
    fn quota_violations_accumulate_into_indictments() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        // Threshold 2: every second violation is one indictment.
        assert!(!fd.report_quota_violation(t, NodeId(4)));
        assert!(fd.report_quota_violation(t, NodeId(4)));
        assert_eq!(fd.indict_count(NodeId(4)), 1);
        // Sustained flooding crosses the suspicion threshold (3).
        for _ in 0..4 {
            fd.report_quota_violation(t, NodeId(4));
        }
        assert!(fd.is_suspected(NodeId(4), t));
    }

    #[test]
    fn zero_quota_threshold_disables_the_feed() {
        let mut fd = VerboseDetector::new(VerboseConfig {
            quota_violation_threshold: 0,
            ..config()
        });
        let t = SimTime::from_secs(1);
        for _ in 0..100 {
            assert!(!fd.report_quota_violation(t, NodeId(4)));
        }
        assert_eq!(fd.indict_count(NodeId(4)), 0);
        assert!(!fd.is_suspected(NodeId(4), t));
    }

    #[test]
    fn aging_arrivals_changes_no_verdict() {
        let mut fd = VerboseDetector::new(config());
        let spacing = SimDuration::from_millis(500);
        fd.set_min_spacing(MsgKind::Gossip, spacing);
        let t = SimTime::from_secs(1);
        fd.observe_arrival(t, NodeId(3), MsgKind::Gossip);
        fd.observe_arrival(
            t + SimDuration::from_millis(200),
            NodeId(4),
            MsgKind::Gossip,
        );
        // At the tick node 3 has been quiet for exactly the spacing, so its
        // arrival may be forgotten; node 4 was heard too recently for that.
        let later = t + spacing;
        fd.tick(later);
        // Node 3's next arrival is compliant and does not indict.
        fd.observe_arrival(later, NodeId(3), MsgKind::Gossip);
        assert_eq!(fd.indict_count(NodeId(3)), 0);
        // Node 4's arrival survived the tick and still catches an early one.
        fd.observe_arrival(
            later + SimDuration::from_millis(100),
            NodeId(4),
            MsgKind::Gossip,
        );
        assert_eq!(fd.indict_count(NodeId(4)), 1);
    }

    #[test]
    fn one_senders_kinds_keep_independent_spacing_and_age_out_independently() {
        let mut fd = VerboseDetector::new(config());
        let ms = SimDuration::from_millis;
        fd.set_min_spacing(MsgKind::Gossip, ms(500));
        fd.set_min_spacing(MsgKind::Beacon, ms(3000));
        let (node, t) = (NodeId(3), SimTime::from_secs(1));
        fd.observe_arrival(t, node, MsgKind::Gossip);
        fd.observe_arrival(t, node, MsgKind::Beacon);
        // Each kind is held to its own rule: a gossip past its 500 ms is
        // compliant although the beacon rule is longer…
        fd.observe_arrival(t + ms(600), node, MsgKind::Gossip);
        assert_eq!(fd.indict_count(node), 0);
        // …and an early beacon indicts whatever the gossips did.
        fd.observe_arrival(t + ms(1000), node, MsgKind::Beacon);
        assert_eq!(fd.indict_count(node), 1);
        // The tick (decay interval 1 s) ages the gossip arrival (1.4 s old)
        // out of the shared row but keeps the beacon arrival (1 s old): an
        // early beacon still indicts, and the next gossip has nothing to be
        // early against.
        fd.tick(t + ms(2000));
        fd.observe_arrival(t + ms(2000), node, MsgKind::Gossip);
        fd.observe_arrival(t + ms(2100), node, MsgKind::Beacon);
        assert_eq!(fd.indict_count(node), 2);
        // Later the beacon ages out (4.1 s old) while a fresh gossip (0.2 s
        // old) stays: the early gossip indicts, the beacon has nothing to be
        // early against.
        fd.observe_arrival(t + ms(6000), node, MsgKind::Gossip);
        fd.tick(t + ms(6200));
        fd.observe_arrival(t + ms(6300), node, MsgKind::Beacon);
        assert_eq!(fd.indict_count(node), 2);
        fd.observe_arrival(t + ms(6300), node, MsgKind::Gossip);
        assert_eq!(fd.indict_count(node), 3);
        // New senders on either side of node 3 get rows of their own, and
        // node 3's row stays its own.
        fd.observe_arrival(t + ms(6300), NodeId(2), MsgKind::Gossip);
        fd.observe_arrival(t + ms(6300), NodeId(4), MsgKind::Gossip);
        fd.observe_arrival(t + ms(6400), node, MsgKind::Gossip);
        assert_eq!(fd.indict_count(node), 4);
        assert_eq!(fd.indict_count(NodeId(2)) + fd.indict_count(NodeId(4)), 0);
    }

    #[test]
    fn kinds_without_spacing_rule_are_ignored() {
        let mut fd = VerboseDetector::new(config());
        let t = SimTime::from_secs(1);
        for i in 0..10u64 {
            fd.observe_arrival(t + SimDuration::from_micros(i), NodeId(3), MsgKind::Gossip);
        }
        assert_eq!(fd.counter(NodeId(3)), 0);
    }

    /// The detector as it was before its rows were compacted: one slot for
    /// each of the five kinds per sender, `None` where no arrival is
    /// tracked, and a rule slot for every kind.
    struct FiveKindReference {
        indictments: Offences,
        min_spacing: [Option<SimDuration>; 5],
        arrival_from: Vec<NodeId>,
        arrivals: Vec<[Option<SimTime>; 5]>,
    }

    impl FiveKindReference {
        fn new(config: VerboseConfig) -> Self {
            FiveKindReference {
                indictments: Offences::new(
                    config.threshold,
                    config.decay_interval,
                    config.suspicion_duration,
                ),
                min_spacing: [None; 5],
                arrival_from: Vec::new(),
                arrivals: Vec::new(),
            }
        }

        fn observe_arrival(&mut self, now: SimTime, node: NodeId, kind: MsgKind) {
            let Some(spacing) = self.min_spacing[kind as usize] else {
                return;
            };
            let prev = match self.arrival_from.binary_search(&node) {
                Ok(pos) => self.arrivals[pos][kind as usize].replace(now),
                Err(pos) => {
                    let mut row = [None; 5];
                    row[kind as usize] = Some(now);
                    self.arrival_from.insert(pos, node);
                    self.arrivals.insert(pos, row);
                    None
                }
            };
            if prev.is_some_and(|prev| now.saturating_since(prev) < spacing) {
                self.indictments.count(now, node);
            }
        }

        fn tick(&mut self, now: SimTime) {
            if self.indictments.tick(now) {
                let spacing = &self.min_spacing;
                for row in &mut self.arrivals {
                    for (slot, rule) in row.iter_mut().zip(spacing) {
                        if slot.is_some_and(|at| rule.is_none_or(|s| now.saturating_since(at) >= s))
                        {
                            *slot = None;
                        }
                    }
                }
                let live = |row: &[Option<SimTime>; 5]| row.iter().any(Option::is_some);
                let mut rows = self.arrivals.iter();
                self.arrival_from.retain(|_| rows.next().is_some_and(live));
                self.arrivals.retain(live);
            }
        }
    }

    const KINDS: [MsgKind; 5] = [
        MsgKind::Data,
        MsgKind::Gossip,
        MsgKind::RequestMsg,
        MsgKind::FindMissingMsg,
        MsgKind::Beacon,
    ];

    /// One schedule: `rules` picks which of Gossip and Beacon get a spacing
    /// rule (and how long), then each op advances time by `gap_ms` and
    /// either ticks (`action` 0) or delivers an arrival of `KINDS[kind]`
    /// from `sender`.
    fn compact_rows_match_case(
        (gossip_rule, beacon_rule): (u64, u64),
        ops: &[(u64, u32, usize, u8)],
        hits: &mut [u64; 3],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        let config = VerboseConfig {
            threshold: 3,
            decay_interval: SimDuration::from_millis(700),
            suspicion_duration: SimDuration::from_millis(1500),
            quota_violation_threshold: 2,
        };
        let mut fd = VerboseDetector::new(config);
        let mut model = FiveKindReference::new(config);
        for (kind, rule) in [
            (MsgKind::Gossip, gossip_rule),
            (MsgKind::Beacon, beacon_rule),
        ] {
            if rule > 0 {
                let spacing = SimDuration::from_millis(rule * 100);
                fd.set_min_spacing(kind, spacing);
                model.min_spacing[kind as usize] = Some(spacing);
            }
        }
        let mut now = SimTime::from_secs(1);
        for &(gap_ms, sender, kind, action) in ops {
            now += SimDuration::from_millis(gap_ms);
            let rows_before = fd.arrival_from.len();
            let tick = action == 0;
            if tick {
                fd.tick(now);
                model.tick(now);
            } else {
                fd.observe_arrival(now, NodeId(sender), KINDS[kind]);
                model.observe_arrival(now, NodeId(sender), KINDS[kind]);
            }
            for node in (0..5).map(NodeId) {
                prop_assert_eq!(fd.counter(node), model.indictments.counter(node));
                prop_assert_eq!(fd.indict_count(node), model.indictments.total(node));
                prop_assert_eq!(
                    fd.is_suspected(node, now),
                    model.indictments.suspected().contains(node, now)
                );
            }
            prop_assert_eq!(fd.suspects(now), model.indictments.suspected().at(now));
            prop_assert_eq!(&fd.arrival_from, &model.arrival_from);
            hits[0] += u64::from(fd.indict_count(NodeId(sender)) > 0);
            hits[1] += u64::from(!fd.suspects(now).is_empty());
            hits[2] += u64::from(fd.arrival_from.len() < rows_before);
        }
        Ok(())
    }

    #[test]
    fn compact_rows_match_the_five_kind_reference() {
        use proptest::prelude::ProptestConfig;
        let mut hits = [0u64; 3];
        let strategy = (
            (0u64..6, 0u64..6),
            proptest::collection::vec((0u64..150, 0u32..5, 0usize..5, 0u8..3), 1..120),
        );
        proptest::test_runner::run_cases(
            "compact_rows_match_the_five_kind_reference",
            &ProptestConfig::default(),
            &strategy,
            |(rules, ops)| compact_rows_match_case(rules, &ops, &mut hits),
        );
        // Spacing violations, suspicions and aged-out rows were all reached.
        assert!(hits.iter().all(|&h| h > 0), "uncovered path: {hits:?}");
    }

    #[test]
    #[should_panic(expected = "no spacing rule for RequestMsg")]
    fn only_periodic_kinds_take_a_spacing_rule() {
        VerboseDetector::new(config()).set_min_spacing(MsgKind::RequestMsg, SimDuration::ZERO);
    }
}
