//! Property-based tests for the detectors' expectations, counters and
//! suspicion tables.

use proptest::prelude::*;

use std::collections::BTreeMap;

use byzcast_fd::trust::SUSPICION_DURATION;
use byzcast_fd::{
    verbose, DataId, Detector, FailureDetectors, MuteConfig, MuteDetector, PeerFd, Peers,
};
use byzcast_sim::{NodeId, SimDuration, SimTime};

/// A stand-alone peer table.
type Table = BTreeMap<NodeId, PeerFd>;

/// The detectors under `mute`, with an empty peer table.
fn detectors(mute: MuteConfig) -> (FailureDetectors, Table) {
    (FailureDetectors::new(mute), Table::new())
}

/// Expects `id` from nodes 1 and 2, runs `discharge`, ticks at the
/// deadline, and returns node 1's misses.
fn misses_after(id: DataId, discharge: impl FnOnce(&mut MuteDetector)) -> u32 {
    let timeout = SimDuration::from_millis(100);
    let (mut fd, mut peers) = detectors(MuteConfig {
        expect_timeout: timeout,
        threshold: 1,
        ..MuteConfig::default()
    });
    let t = SimTime::from_secs(1);
    fd.mute.expect(t, id, &[NodeId(1), NodeId(2)]);
    discharge(&mut fd.mute);
    fd.tick(t + timeout, &mut peers);
    peers.offences(Detector::Mute, NodeId(1))
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

    /// MUTE and VERBOSE count offences alike: the same schedule of missed
    /// deadlines and indictments, with MUTE under VERBOSE's threshold, aging
    /// step and suspicion length, leaves equal aged counters and suspects
    /// after every step, in the two columns of one peer table.
    #[test]
    fn mute_misses_and_verbose_indictments_count_alike(
        steps in proptest::collection::vec(
            (0u64..8000, proptest::collection::vec(0u32..4, 0..14)),
            1..40,
        ),
    ) {
        let ms = SimDuration::from_millis;
        let timeout = ms(100);
        let (mut fd, mut peers) = detectors(MuteConfig {
            expect_timeout: timeout,
            threshold: verbose::THRESHOLD,
            decay_interval: verbose::DECAY_INTERVAL,
            suspicion_duration: verbose::SUSPICION_DURATION,
            max_expectations: 1024,
        });
        let mut at = SimTime::from_secs(1);
        let mut seq = 0u64;
        for (gap, offenders) in steps {
            at += ms(gap);
            // Each offence lands at the deadline `at + timeout`: a missed
            // expectation for MUTE, an indictment for VERBOSE.
            let now = at + timeout;
            for &n in &offenders {
                seq += 1;
                fd.mute.expect(at, (NodeId(9), seq), &[NodeId(n)]);
                fd.verbose.indict(now, &mut peers, NodeId(n));
            }
            fd.tick(now, &mut peers);
            for n in 0..4u32 {
                let node = NodeId(n);
                prop_assert_eq!(peers.offences(Detector::Mute, node), peers.offences(Detector::Verbose, node));
            }
            prop_assert_eq!(peers.suspects(Detector::Mute, now), peers.suspects(Detector::Verbose, now));
            let probe = now + ms(5000);
            prop_assert_eq!(peers.suspects(Detector::Mute, probe), peers.suspects(Detector::Verbose, probe));
        }
    }

    /// MUTE: observations before the deadline prevent misses; the counter
    /// never exceeds the total expectations registered.
    #[test]
    fn mute_counters_bounded_by_expectations(
        misses in 0u32..12,
        satisfied in 0u32..12,
    ) {
        let (mut fd, mut peers) = detectors(MuteConfig {
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
            fd.mute.expect(t, (NodeId(9), seq), &[NodeId(1)]);
            t += SimDuration::from_millis(150);
            fd.tick(t, &mut peers);
        }
        for _ in 0..satisfied {
            seq += 1;
            fd.mute.expect(t, (NodeId(9), seq), &[NodeId(1)]);
            fd.mute.observe((NodeId(9), seq), NodeId(1));
            t += SimDuration::from_millis(150);
            fd.tick(t, &mut peers);
        }
        prop_assert_eq!(peers.offences(Detector::Mute, NodeId(1)), misses);
    }

    /// VERBOSE: suspicion iff the aged counter reached the threshold.
    #[test]
    fn verbose_threshold_is_exact(indictments in 0u32..2 * verbose::THRESHOLD) {
        let (mut fd, mut peers) = detectors(MuteConfig::default());
        let t = SimTime::from_secs(1);
        for _ in 0..indictments {
            fd.verbose.indict(t, &mut peers, NodeId(2));
        }
        prop_assert_eq!(peers.offences(Detector::Verbose, NodeId(2)), indictments);
        prop_assert_eq!(
            peers.suspected(Detector::Verbose, NodeId(2), t),
            indictments >= verbose::THRESHOLD
        );
    }

    /// TRUST: second-hand reports never upgrade a direct suspicion, and a
    /// suspicion always outranks reports.
    #[test]
    fn trust_levels_are_ordered(reporters in proptest::collection::vec(1u32..50, 0..8)) {
        let (mut fd, mut peers) = detectors(MuteConfig::default());
        let t = SimTime::from_secs(1);
        for &r in &reporters {
            fd.trust.report_from_neighbor(t, &peers, NodeId(r), NodeId(0));
        }
        fd.trust.suspect(t, &mut peers, NodeId(0));
        prop_assert_eq!(fd.trust.level(&peers, NodeId(0), t), byzcast_fd::TrustLevel::Untrusted);
        // After the suspicion ages out, reports (if any remain) demote to
        // Unknown at most.
        let later = t + SUSPICION_DURATION + SimDuration::from_secs(1);
        fd.tick(later, &mut peers);
        let level = fd.trust.level(&peers, NodeId(0), later);
        prop_assert!(level != byzcast_fd::TrustLevel::Untrusted);
    }
}
