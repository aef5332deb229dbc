//! # byzcast-bench — experiment binaries and Criterion micro-benchmarks
//!
//! One `exp_*` binary per reconstructed experiment of the paper's evaluation
//! (see `EXPERIMENTS.md` at the repository root for the index and
//! provenance), plus Criterion benches for signing and verification and for
//! the overlay decision; end-to-end and per-handler timings come from
//! perfbench.
//!
//! Every experiment binary runs on the shared parallel runner
//! ([`byzcast_harness::runner`]) and accepts:
//!
//! * `--quick` / `-q` — reduced sweep for smoke-testing;
//! * `--threads N` — worker threads (default: available parallelism, or
//!   `BYZCAST_THREADS`); results are bit-identical for any `N`;
//! * `--seeds N` — replicate each point over seeds `1..=N`;
//! * `--results-dir DIR` — write one JSONL record per run to
//!   `DIR/<experiment>.jsonl`;
//! * `--no-progress` — suppress the per-run progress lines on stderr.
//!
//! Aggregated tables go to stdout and depend only on the scenario and
//! seeds, never on thread count or scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use byzcast_harness::{RunnerConfig, ScenarioConfig, Workload};
use byzcast_sim::{Field, NodeId, SimConfig, SimDuration};

/// Options shared by all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Reduced sweep for smoke-testing.
    pub quick: bool,
    /// Worker threads for the runner.
    pub threads: usize,
    /// Override the replication seed count (`--seeds N` → seeds `1..=N`).
    pub seed_count: Option<usize>,
    /// Where to write per-run JSONL records.
    pub results_dir: Option<PathBuf>,
    /// Per-run progress lines on stderr.
    pub progress: bool,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            quick: false,
            threads: 1,
            seed_count: None,
            results_dir: None,
            progress: false,
        }
    }
}

/// Parses experiment options from the process arguments.
pub fn opts() -> ExpOpts {
    parse_opts(std::env::args().skip(1))
}

fn parse_opts(mut args: impl Iterator<Item = String>) -> ExpOpts {
    let mut opts = ExpOpts {
        threads: byzcast_harness::default_threads(),
        progress: true,
        ..ExpOpts::default()
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--quick" | "-q" => opts.quick = true,
            "--threads" => {
                opts.threads = value("--threads").parse().expect("--threads: not a number")
            }
            "--seeds" => {
                let n: usize = value("--seeds").parse().expect("--seeds: not a number");
                assert!(n >= 1, "--seeds: need at least 1");
                opts.seed_count = Some(n);
            }
            "--results-dir" => opts.results_dir = Some(PathBuf::from(value("--results-dir"))),
            "--no-progress" => opts.progress = false,
            flag if flag.starts_with('-') => panic!("{flag}: unknown flag"),
            _ => {} // positional args are parsed by the binaries themselves
        }
    }
    opts
}

/// Replication seeds: `1..=N` under `--seeds N`, otherwise `[1]` quick /
/// `[1, 2, 3]` full.
pub fn seeds(opts: &ExpOpts) -> Vec<u64> {
    match opts.seed_count {
        Some(count) => (1..=count as u64).collect(),
        None if opts.quick => vec![1],
        None => vec![1, 2, 3],
    }
}

/// The runner configuration for an experiment: threads, seeds, results dir
/// and progress from the options, `experiment` as the JSONL file stem.
pub fn runner(opts: &ExpOpts, experiment: &str) -> RunnerConfig {
    RunnerConfig {
        experiment: experiment.to_owned(),
        threads: opts.threads,
        seeds: seeds(opts),
        results_dir: opts.results_dir.clone(),
        progress: opts.progress,
    }
}

/// The node-count sweep of experiments R1–R3/R5 (paper-era densities on a
/// 1000 m × 1000 m field with 250 m range).
pub fn n_sweep(opts: &ExpOpts) -> Vec<usize> {
    if opts.quick {
        vec![40, 80]
    } else {
        vec![40, 60, 80, 100, 120, 140, 160]
    }
}

/// The standard scenario: 1000 m × 1000 m field, default radio (250 m range,
/// mild fading and background noise), static uniform placement.
pub fn default_scenario(n: usize, seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        n,
        sim: SimConfig {
            field: Field::new(1000.0, 1000.0),
            ..SimConfig::default()
        },
        ..ScenarioConfig::default()
    }
}

/// The standard workload: a 512 B message stream at 8 msg/s from 4 senders
/// after a 10 s warm-up (overlay convergence), with a drain tail so
/// stragglers can recover. The stream is long enough that steady-state
/// per-message cost dominates the fixed gossip/beacon background.
pub fn default_workload(opts: &ExpOpts) -> Workload {
    Workload {
        senders: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
        count: if opts.quick { 40 } else { 120 },
        payload_bytes: 512,
        start: SimDuration::from_secs(10),
        interval: SimDuration::from_millis(125),
        drain: SimDuration::from_secs(12),
    }
}

/// Prints the experiment banner with its provenance line.
pub fn banner(id: &str, title: &str, provenance: &str) {
    println!("== {id}: {title}");
    println!("   provenance: {provenance}");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_of(args: &[&str]) -> ExpOpts {
        parse_opts(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn quick_sweeps_are_subsets() {
        let q = ExpOpts {
            quick: true,
            ..ExpOpts::default()
        };
        let f = ExpOpts::default();
        assert!(seeds(&q).len() < seeds(&f).len());
        for n in n_sweep(&q) {
            assert!(n_sweep(&f).contains(&n));
        }
    }

    #[test]
    fn flag_parsing() {
        // A leading non-flag argument is left to the binary (`exp_probe`'s n).
        let o = opts_of(&["320", "--quick", "--threads", "3", "--seeds", "8"]);
        assert!(o.quick);
        assert_eq!(o.threads, 3);
        assert_eq!(seeds(&o), (1..=8).collect::<Vec<u64>>());
        let o = opts_of(&["--results-dir", "/tmp/results", "--no-progress"]);
        assert_eq!(o.results_dir, Some(PathBuf::from("/tmp/results")));
        assert!(!o.progress);
        assert!(o.threads >= 1);
    }

    #[test]
    #[should_panic(expected = "--seed: unknown flag")]
    fn misspelled_flag_is_rejected() {
        opts_of(&["--seed", "3"]);
    }

    #[test]
    #[should_panic(expected = "--result-dir: unknown flag")]
    fn misspelled_results_dir_is_rejected() {
        opts_of(&["--quick", "--result-dir", "x"]);
    }

    #[test]
    fn runner_config_carries_options() {
        let o = opts_of(&["--seeds", "2", "--threads", "4"]);
        let r = runner(&o, "r1_overhead");
        assert_eq!(r.experiment, "r1_overhead");
        assert_eq!(r.seeds, vec![1, 2]);
        assert_eq!(r.threads, 4);
    }

    #[test]
    fn default_scenario_is_paper_geometry() {
        let s = default_scenario(100, 1);
        assert_eq!(s.n, 100);
        assert_eq!(s.sim.field.width, 1000.0);
        assert_eq!(s.sim.radio.range_m, 250.0);
    }

    #[test]
    fn default_workload_has_warmup() {
        let w = default_workload(&ExpOpts::default());
        assert!(w.start >= SimDuration::from_secs(5));
        assert_eq!(w.payload_bytes, 512);
    }
}
