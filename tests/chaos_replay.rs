//! Replays the committed chaos corpus: every reproducer under
//! `tests/chaos_corpus/` must parse, run, and produce exactly the per-oracle
//! violation counts its `expect` lines record. The corpus pins the oracles'
//! ability to catch deliberately broken protocol behavior — if a refactor
//! makes a reproducer stop reproducing, either the bug class is genuinely
//! impossible now (regenerate the corpus) or an oracle went blind.
//!
//! A case with *no* `expect` lines is an explicitly healthy reproducer: a
//! scenario that used to violate an oracle and was fixed (e.g.
//! `crash-thin-chain`, stranded before the recovery-escalation layer). It
//! must replay with zero violations — a regression there is a fixed bug
//! coming back.

use std::path::PathBuf;

use byzcast_harness::chaos::violation_counts;
use byzcast_harness::{parse_case, run_case};

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("tests/chaos_corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "chaos"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_corpus_reproducer_replays_verbatim() {
    let files = corpus_files();
    assert!(
        files.len() >= 3,
        "corpus should hold at least the three sabotage reproducers, found {files:?}"
    );
    let mut violating = 0usize;
    for path in &files {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        let case = parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if !case.expect.is_empty() {
            violating += 1;
        }
        let got = violation_counts(&run_case(&case).violations);
        assert_eq!(
            got,
            case.expect,
            "{}: reproducer no longer replays (empty expect = must run clean)",
            path.display()
        );
    }
    assert!(
        violating >= 3,
        "corpus lost its violating reproducers — the oracles are unpinned"
    );
}

#[test]
fn committed_corpus_files_are_canonical() {
    // Each file is exactly what the writer emits for the case it parses
    // to, so a format change cannot leave a file in a form the writer no
    // longer produces.
    for path in corpus_files() {
        let text = std::fs::read_to_string(&path).expect("read corpus file");
        let case = parse_case(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(case.to_text(), text, "{} is not canonical", path.display());
    }
}

#[test]
fn crash_thin_chain_replays_clean_under_recovery() {
    // The PR-4 soak found this case: a crash next to a thin chain stranded
    // 4 connected, up, correct nodes past the recovery slack, because
    // retries only travelled the stale dominator overlay. With the recovery
    // envelope on (the corpus file carries a `recovery on` line) it must
    // deliver everywhere.
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/chaos_corpus");
    let text =
        std::fs::read_to_string(path.join("crash-thin-chain.chaos")).expect("corpus file exists");
    let case = parse_case(&text).expect("parse");
    assert!(
        case.scenario.byzcast.recovery,
        "the thin-chain reproducer must run with the recovery envelope on"
    );
    assert!(case.expect.is_empty(), "the case is pinned as healthy");
    let checked = run_case(&case);
    assert!(
        checked.violations.is_empty(),
        "thin-chain stranding is back: {:?}",
        checked.violations
    );
    // The clean replay must come from recovery doing work, not from the
    // topology accidentally healing: the run reports escalation activity.
    let recovery = checked
        .summary
        .recovery
        .expect("recovery-enabled runs report RecoveryStats");
    assert!(
        recovery.requests_originated > 0,
        "no recovery requests at all — the case no longer exercises the path"
    );

    // The control arm: the same case with the envelope forced off must
    // still strand the chain. If it runs clean too, the clean replay above
    // proves nothing about the recovery layer.
    let mut control = case;
    control.scenario.byzcast.recovery = false;
    let stranded = run_case(&control);
    let semi = stranded
        .violations
        .iter()
        .filter(|v| v.oracle == "semi-reliability")
        .count();
    assert!(
        semi > 0,
        "the thin-chain case no longer strands without recovery — regenerate it"
    );
}

#[test]
fn corpus_violations_vanish_without_the_sabotage() {
    // The control arm: the same scenarios run clean once the deliberately
    // broken delivery layer is removed, so the corpus findings are caused by
    // the sabotage, not by the topology or workload.
    for path in &corpus_files() {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        let mut case = parse_case(&text).expect("parse corpus file");
        if case.scenario.sabotage.is_none() {
            continue;
        }
        case.scenario.sabotage = None;
        let checked = run_case(&case);
        assert!(
            checked.violations.is_empty(),
            "{}: violations persist without sabotage: {:?}",
            path.display(),
            checked.violations
        );
    }
}

#[test]
fn corpus_covers_three_distinct_oracles() {
    let mut oracles = std::collections::BTreeSet::new();
    for path in &corpus_files() {
        let text = std::fs::read_to_string(path).expect("read corpus file");
        let case = parse_case(&text).expect("parse corpus file");
        oracles.extend(case.expect.iter().map(|(o, _)| o.clone()));
    }
    for needed in ["validity", "no-duplication", "semi-reliability"] {
        assert!(
            oracles.contains(needed),
            "corpus lost its {needed} reproducer (has {oracles:?})"
        );
    }
}
