//! Property-based tests for the detectors' expectations, counters and
//! suspicion tables.

use proptest::prelude::*;

use byzcast_fd::trust::SUSPICION_DURATION;
use byzcast_fd::{
    DataId, MuteConfig, MuteDetector, SuspicionReason, TrustDetector, VerboseConfig,
    VerboseDetector,
};
use byzcast_sim::{NodeId, SimDuration, SimTime};

/// Expects `id` from nodes 1 and 2, runs `discharge`, ticks at the
/// deadline, and returns node 1's misses.
fn misses_after(id: DataId, discharge: impl FnOnce(&mut MuteDetector)) -> u64 {
    let timeout = SimDuration::from_millis(100);
    let mut fd = MuteDetector::new(MuteConfig {
        expect_timeout: timeout,
        threshold: 1,
        ..MuteConfig::default()
    });
    let t = SimTime::from_secs(1);
    fd.expect(t, id, &[NodeId(1), NodeId(2)]);
    discharge(&mut fd);
    fd.tick(t + timeout);
    fd.miss_count(NodeId(1))
}

fn mute_expectation_binds_its_id_case(origin: u32, seq: u64) -> Result<(), TestCaseError> {
    let id = (NodeId(origin), seq);
    for listed in [NodeId(1), NodeId(2)] {
        prop_assert_eq!(misses_after(id, |fd| fd.observe(id, listed)), 0);
    }
    prop_assert_eq!(misses_after(id, |fd| fd.satisfy(id)), 0);
    prop_assert_eq!(misses_after(id, |fd| fd.observe(id, NodeId(7))), 1);
    let others = [
        (NodeId(origin.wrapping_add(1)), seq),
        (NodeId(origin), seq.wrapping_add(1)),
    ];
    for other in others {
        prop_assert_eq!(misses_after(id, |fd| fd.observe(other, NodeId(1))), 1);
        prop_assert_eq!(misses_after(id, |fd| fd.satisfy(other)), 1);
    }
    Ok(())
}

/// The wrap-around boundaries of both id fields, pinned so they replay on
/// every run.
#[test]
fn regression_mute_ids_at_type_boundaries() {
    mute_expectation_binds_its_id_case(0, 0).unwrap();
    mute_expectation_binds_its_id_case(u32::MAX, u64::MAX).unwrap();
}

proptest! {
    /// MUTE: an expectation on `(origin, seq)` is discharged by that message
    /// from a listed node, or by `satisfy` on it; the message from an
    /// unlisted node, or a message one origin or one sequence number off,
    /// leaves a miss.
    #[test]
    fn mute_expectation_binds_its_id(origin in any::<u32>(), seq in any::<u64>()) {
        mute_expectation_binds_its_id_case(origin, seq)?;
    }

    /// MUTE and VERBOSE count offences in one shared table: the same
    /// schedule of missed deadlines and indictments, under equal threshold,
    /// decay and suspicion duration, leaves equal counters, totals and
    /// suspects after every step.
    #[test]
    fn mute_misses_and_verbose_indictments_count_alike(
        threshold in 1u32..5,
        decay_ms in 1u64..4000,
        duration_ms in 1u64..5000,
        steps in proptest::collection::vec(
            (0u64..2500, proptest::collection::vec(0u32..4, 0..4)),
            1..40,
        ),
    ) {
        let ms = SimDuration::from_millis;
        let timeout = ms(100);
        let mut mute = MuteDetector::new(MuteConfig {
            expect_timeout: timeout,
            threshold,
            decay_interval: ms(decay_ms),
            suspicion_duration: ms(duration_ms),
            max_expectations: 1024,
        });
        let mut verbose = VerboseDetector::new(VerboseConfig {
            threshold,
            decay_interval: ms(decay_ms),
            suspicion_duration: ms(duration_ms),
            ..VerboseConfig::default()
        });
        let mut at = SimTime::from_secs(1);
        let mut seq = 0u64;
        let mut totals = [0u64; 4];
        for (gap, offenders) in steps {
            at += ms(gap);
            // Each offence lands at the deadline `at + timeout`: a missed
            // expectation for MUTE, an indictment for VERBOSE.
            let now = at + timeout;
            for &n in &offenders {
                seq += 1;
                mute.expect(at, (NodeId(9), seq), &[NodeId(n)]);
                verbose.indict(now, NodeId(n));
                totals[n as usize] += 1;
            }
            mute.tick(now);
            verbose.tick(now);
            for n in 0..4u32 {
                let node = NodeId(n);
                prop_assert_eq!(mute.counter(node), verbose.counter(node));
                prop_assert_eq!(mute.miss_count(node), totals[n as usize]);
                prop_assert_eq!(verbose.indict_count(node), totals[n as usize]);
            }
            prop_assert_eq!(mute.suspects(now), verbose.suspects(now));
            let probe = now + ms(duration_ms / 2);
            prop_assert_eq!(mute.suspects(probe), verbose.suspects(probe));
        }
    }

    /// MUTE: observations before the deadline prevent misses; the counter
    /// never exceeds the total expectations registered.
    #[test]
    fn mute_counters_bounded_by_expectations(
        misses in 0u32..12,
        satisfied in 0u32..12,
    ) {
        let mut fd = MuteDetector::new(MuteConfig {
            expect_timeout: SimDuration::from_millis(100),
            threshold: 1000, // never actually suspect; we check counters
            decay_interval: SimDuration::from_secs(3600),
            suspicion_duration: SimDuration::from_secs(1),
            max_expectations: 1024,
        });
        let mut t = SimTime::from_secs(1);
        let mut seq = 0u64;
        for _ in 0..misses {
            seq += 1;
            fd.expect(t, (NodeId(9), seq), &[NodeId(1)]);
            t += SimDuration::from_millis(150);
            fd.tick(t);
        }
        for _ in 0..satisfied {
            seq += 1;
            fd.expect(t, (NodeId(9), seq), &[NodeId(1)]);
            fd.observe((NodeId(9), seq), NodeId(1));
            t += SimDuration::from_millis(150);
            fd.tick(t);
        }
        prop_assert_eq!(fd.miss_count(NodeId(1)), u64::from(misses));
        prop_assert_eq!(fd.counter(NodeId(1)), misses);
    }

    /// VERBOSE: suspicion iff the aged counter reached the threshold.
    #[test]
    fn verbose_threshold_is_exact(threshold in 1u32..20, indictments in 0u32..40) {
        let mut fd = VerboseDetector::new(VerboseConfig {
            threshold,
            decay_interval: SimDuration::from_secs(3600),
            suspicion_duration: SimDuration::from_secs(60),
            ..VerboseConfig::default()
        });
        let t = SimTime::from_secs(1);
        for _ in 0..indictments {
            fd.indict(t, NodeId(2));
        }
        prop_assert_eq!(fd.is_suspected(NodeId(2), t), indictments >= threshold);
    }

    /// TRUST: second-hand reports never upgrade a direct suspicion, and a
    /// suspicion always outranks reports.
    #[test]
    fn trust_levels_are_ordered(reporters in proptest::collection::vec(1u32..50, 0..8)) {
        let mut d = TrustDetector::default();
        let t = SimTime::from_secs(1);
        for &r in &reporters {
            d.report_from_neighbor(t, NodeId(r), NodeId(0));
        }
        d.suspect(t, NodeId(0), SuspicionReason::Mute);
        prop_assert_eq!(d.level(NodeId(0), t), byzcast_fd::TrustLevel::Untrusted);
        // After the suspicion ages out, reports (if any remain) demote to
        // Unknown at most.
        let later = t + SUSPICION_DURATION + SimDuration::from_secs(1);
        d.tick(later);
        let level = d.level(NodeId(0), later);
        prop_assert!(level != byzcast_fd::TrustLevel::Untrusted);
    }
}
