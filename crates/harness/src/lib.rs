//! # byzcast-harness — scenarios, workloads and reporting for experiments
//!
//! The experiment layer that regenerates the paper's evaluation: it builds a
//! full simulation from a declarative [`ScenarioConfig`] (topology, radio,
//! protocol choice, adversary mix), injects a [`Workload`], runs it, and
//! distils the simulator's metrics into a [`RunSummary`] — delivery ratio,
//! frames/bytes by kind, latency distribution, overlay quality, recovery and
//! suspicion statistics. [`report`] renders aligned text tables for the
//! `exp_*` binaries; [`sweep`] replicates runs over seeds and aggregates.
//!
//! [`runner`] is the shared experiment driver: it fans a grid of
//! [`SweepPoint`]s × seeds out over worker threads ([`par`]) with results
//! bit-identical to serial order, and emits one JSONL record per run
//! ([`record`]) plus a progress line as runs complete.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod oracle;
pub mod par;
pub mod record;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod summary;
pub mod sweep;
pub mod workload;

pub use chaos::{generate_case, parse_case, run_case, shrink, ChaosCase, ShrinkResult};
pub use oracle::{
    check_run, eligible_mask, paper_envelope, standard_oracles, CheckedRun, Oracle, Violation,
};
pub use par::{default_threads, par_map};
pub use report::Table;
pub use runner::{run_sweep, PointResult, RunFn, RunOutcome, RunnerConfig, SweepPoint};
pub use scenario::{
    byz_view, claims_overlay, figure5_worst_case, highest_ids, MobilityChoice, ProtocolChoice,
    ScenarioConfig,
};
pub use summary::RunSummary;
pub use sweep::{aggregate, replicate};
pub use workload::Workload;
