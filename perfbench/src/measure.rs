//! The two kinds of invocation: the untraced run that yields the end-to-end
//! metrics and the traced run that yields the per-layer split.

use std::time::Instant;

use byzcast_core::{ProtocolCounters, RecoveryStats, ResourceStats};
use byzcast_crypto::CacheStats;
use byzcast_harness::{RunSummary, ScenarioConfig};

use crate::host;
use crate::report::{highest_supported_percentile, median, percentile, Metric, Outcome};
use crate::traced::{self, Tallies, PACKET_KINDS, TIMERS};
use crate::workloads::{
    drive_phased, fingerprint, finish_phased, run_case, Family, Fingerprint, Phases, Reference,
};

/// Timed passes per invocation never go below this, whatever `--seconds`
/// says, so every host-time median rests on at least three samples and one
/// slow pass cannot move it.
const MIN_PASSES: usize = 3;
/// Set-up-only passes after each timed pass, so `setup_s` is the median of
/// three times as many samples as `run_s`.
const EXTRA_SETUPS: usize = 2;
/// The `us_per_copy` scaling curve printed by traced `scale` runs.
const CURVE_N: [usize; 3] = [320, 640, 1280];

/// One timed pass over all of a workload's cases.
struct Pass {
    phases: Phases,
    totals: SimTotals,
}

/// Simulated outcomes of a pass, pooled over its cases.
#[derive(Debug, Default, PartialEq)]
struct SimTotals {
    copies: u64,
    expected: u64,
    frames: u64,
    worst_ratio: f64,
    latencies: Vec<f64>,
    summaries: Vec<RunSummary>,
    fingerprints: Vec<Fingerprint>,
}

/// Runs every case once through the phased drive, checking each against
/// the reference. Returns the pass and how many cases failed.
fn run_pass(family: Family, seed: u64, reference: &Reference) -> (Pass, u64) {
    let mut phases = Phases::default();
    let mut totals = SimTotals {
        worst_ratio: f64::INFINITY,
        ..SimTotals::default()
    };
    let mut failed = 0;
    for i in 0..family.case_count() {
        let t = Instant::now();
        let case = family.case(seed, i);
        let result = run_case(&case, t.elapsed().as_secs_f64());
        let violated = result
            .summary
            .oracle_outcomes
            .iter()
            .any(|(name, n)| *n > 0 && family.gated_oracles().contains(&name.as_str()));
        if !reference.matches(i as usize, &result) {
            eprintln!("perfbench: case {i} differs from ScenarioConfig::run");
            failed += 1;
        } else if violated {
            eprintln!(
                "perfbench: case {i} violates a gated oracle: {:?}",
                result.summary.oracle_outcomes
            );
            failed += 1;
        }
        phases.add(&result.phases);
        let s = &result.summary;
        totals.copies += result.copies;
        totals.expected += (s.messages * s.correct) as u64;
        totals.frames += s.frames_sent;
        totals.worst_ratio = totals.worst_ratio.min(s.min_delivery_ratio);
        totals.latencies.extend_from_slice(&s.latencies_s);
        totals.summaries.push(result.summary);
        totals.fingerprints.push(result.fingerprint);
    }
    totals.latencies.sort_by(f64::total_cmp);
    (Pass { phases, totals }, failed)
}

/// Times the set-up phase of every case once more, dropping each simulator
/// at the end of its set-up.
fn setup_pass(family: Family, seed: u64) -> f64 {
    let mut phases = Phases::default();
    for i in 0..family.case_count() {
        let t = Instant::now();
        let case = family.case(seed, i);
        phases.generate_s += t.elapsed().as_secs_f64();
        drive_phased(&case, &mut phases, ScenarioConfig::build_wire_sim);
    }
    phases.setup_s()
}

/// The reference plus timed passes until `seconds` are spent (at least
/// [`MIN_PASSES`]), with the checks every invocation makes. Only the first
/// pass's simulated outcomes are kept — later passes are compared with it
/// and dropped — so peak memory does not grow with the number of passes.
struct Measured {
    first: SimTotals,
    phases: Vec<Phases>,
    /// Set-up times of each pass: its own, then its set-up-only passes'.
    setups: Vec<Vec<f64>>,
    /// Reference kernel timings: one before each pass and one after the last.
    kernel: Vec<host::KernelTiming>,
    /// Memory the reference kernel held throughout.
    kernel_mib: f64,
    attempted: u64,
    failed: u64,
}

impl Measured {
    fn run(family: Family, seed: u64, seconds: f64) -> Measured {
        let start = Instant::now();
        let mut ref_kernel = host::RefKernel::new();
        let reference = Reference::compute(family, seed);
        let mut first: Option<SimTotals> = None;
        let mut phases = Vec::new();
        let mut setups = Vec::new();
        let mut kernel = Vec::new();
        let mut attempted = 0;
        let mut failed = 0;
        loop {
            kernel.push(ref_kernel.time());
            let t = Instant::now();
            let (pass, pass_failed) = run_pass(family, seed, &reference);
            let mut setup = vec![pass.phases.setup_s()];
            setup.extend((0..EXTRA_SETUPS).map(|_| setup_pass(family, seed)));
            setups.push(setup);
            let pass_s = t.elapsed().as_secs_f64();
            attempted += family.case_count();
            failed += pass_failed;
            match &first {
                None => first = Some(pass.totals),
                Some(f) if *f != pass.totals => {
                    eprintln!("perfbench: a pass gave other simulated results than the first");
                    failed += family.case_count();
                }
                Some(_) => {}
            }
            phases.push(pass.phases);
            let next_end = start.elapsed().as_secs_f64() + pass_s;
            if phases.len() >= MIN_PASSES && next_end > seconds {
                break;
            }
        }
        kernel.push(ref_kernel.time());
        Measured {
            first: first.expect("at least one pass ran"),
            phases,
            setups,
            kernel,
            kernel_mib: ref_kernel.resident_mib(),
            attempted,
            failed,
        }
    }

    /// Host speed during pass `i` relative to the calibration host: one
    /// over the mean relative kernel time of the timings around the pass.
    /// Multiplying a host time by it gives the time the calibration host
    /// would have taken, which removes most of the drift of a shared host
    /// (see README) while leaving any change in the program's own cost in
    /// full: the kernel does not depend on the program.
    fn speed(&self, i: usize) -> f64 {
        2.0 / (self.kernel[i].relative + self.kernel[i + 1].relative)
    }

    /// Median over passes of the run time, scaled to the calibration host.
    fn scaled_run_s(&self) -> f64 {
        let scaled: Vec<f64> = (0..self.phases.len())
            .map(|i| self.phases[i].run_s() * self.speed(i))
            .collect();
        median(&scaled)
    }

    /// Median of every set-up sample, scaled to the calibration host.
    fn scaled_setup_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .setups
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |x| x * self.speed(i)))
            .collect();
        median(&scaled)
    }

    /// Median of every set-up sample as measured.
    fn raw_setup_s(&self) -> f64 {
        median(&self.setups.concat())
    }

    fn totals(&self) -> &SimTotals {
        &self.first
    }

    fn median_of(&self, f: impl Fn(&Phases) -> f64) -> f64 {
        median(&self.phases.iter().map(f).collect::<Vec<_>>())
    }

    /// The pass whose run phase took the median time (the lower middle one
    /// for an even count), for per-phase breakdowns that must add up.
    fn median_pass(&self) -> &Phases {
        let mut order: Vec<&Phases> = self.phases.iter().collect();
        order.sort_by(|a, b| a.run_s().total_cmp(&b.run_s()));
        order[(order.len() - 1) / 2]
    }

    /// Checks shared by both kinds of invocation; `false` fails the run.
    fn checks_pass(&self) -> bool {
        let totals = self.totals();
        let n = totals.latencies.len();
        let tail_ok = highest_supported_percentile(n).is_some_and(|q| q >= 0.99);
        if !tail_ok {
            eprintln!("perfbench: {n} latency samples cannot support a p99");
        }
        self.failed == 0 && totals.copies > 0 && tail_ok
    }

    fn diagnostics(&self, family: Family) {
        let list = |xs: &mut dyn Iterator<Item = f64>| {
            xs.map(|x| format!("{x:.5}")).collect::<Vec<_>>().join(",")
        };
        println!(
            "perfbench-diagnostics {{\"workload\":\"{family}\",\"passes\":{},\"setup_s\":[{}],\"run_s\":[{}],\"ref_kernel_relative\":[{}]}}",
            self.phases.len(),
            list(&mut self.setups.iter().flatten().copied()),
            list(&mut self.phases.iter().map(Phases::run_s)),
            list(&mut self.kernel.iter().map(|k| k.relative)),
        );
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The untraced run: every end-to-end metric.
pub fn end_to_end(family: Family, seed: u64, seconds: f64) -> Outcome {
    let m = Measured::run(family, seed, seconds);
    m.diagnostics(family);
    let totals = m.totals();
    let run_s = m.scaled_run_s();
    let copies = totals.copies as f64;
    let metrics = vec![
        metric("setup_s", "s", m.scaled_setup_s()),
        metric("run_s", "s", run_s),
        metric("us_per_copy", "us", run_s * 1e6 / copies),
        metric(
            "peak_rss_mb",
            "MiB",
            host::peak_rss_mib().map_or(f64::NAN, |p| p - m.kernel_mib),
        ),
        metric("delivery_ratio", "ratio", copies / totals.expected as f64),
        metric(
            "frames_per_copy",
            "frames/copy",
            totals.frames as f64 / copies,
        ),
    ];
    Outcome {
        correct: m.checks_pass(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    }
}

/// What the timing wrappers saw in one traced pass.
struct TracedPass {
    /// Callback and crypto tallies of the run phases.
    run: Tallies,
    run_until_s: f64,
    /// Cases the traced run did not reproduce exactly.
    failed: u64,
}

/// One pass over every case through the traced node factory, recording the
/// run phase of each and comparing it with the untraced pass's fingerprint.
fn traced_pass(family: Family, seed: u64, untraced: &[Fingerprint]) -> TracedPass {
    traced::reset();
    let mut phases = Phases::default();
    let mut failed = 0;
    for (i, expected) in untraced.iter().enumerate() {
        let case = family.case(seed, i as u64);
        let mut verifier = None;
        let mut sim = drive_phased(&case, &mut phases, |scenario| {
            let (sim, v) = traced::build_sim(scenario);
            verifier = Some(v);
            sim
        });
        let verifier = verifier.expect("drive_phased builds the simulator");
        let cache = || {
            verifier
                .cache_stats()
                .expect("the benchmark scenarios verify through a cache")
        };
        let (cache_before, counted_before) = (cache(), traced::snapshot());
        traced::set_recording(true);
        finish_phased(&case, &mut phases, &mut sim);
        traced::set_recording(false);
        let (cache_after, counted) = (cache(), traced::snapshot());

        let calls = |c: CacheStats| c.hits + c.misses;
        let counts_agree = counted.verify.n - counted_before.verify.n
            == calls(cache_after) - calls(cache_before)
            && counted.verify_miss.n - counted_before.verify_miss.n
                == cache_after.misses - cache_before.misses;
        let correct = case.scenario.correct_mask();
        let summary = RunSummary::from_metrics("traced", sim.metrics(), &correct);
        let reproduced = fingerprint(&sim, &summary) == *expected;
        if !counts_agree || !reproduced {
            eprintln!(
                "perfbench: traced case {i}: reproduced untraced run: {reproduced}, \
                 verifier wrappers agree with the cache: {counts_agree}"
            );
            failed += 1;
        }
    }
    TracedPass {
        run: traced::snapshot(),
        run_until_s: phases.run_until_s,
        failed,
    }
}

/// Layer counters summed over a pass's cases (correct nodes only, as
/// `summarize_wire` reports them).
#[derive(Default)]
struct LayerCounts {
    counters: ProtocolCounters,
    resources: ResourceStats,
    recovery: RecoveryStats,
    store_high_water: usize,
    overlay_size: usize,
    true_suspicions: u64,
    false_suspicions: u64,
}

impl LayerCounts {
    fn of(summaries: &[RunSummary]) -> LayerCounts {
        let mut c = LayerCounts::default();
        for s in summaries {
            if let Some(x) = &s.counters {
                c.counters.merge(x);
            }
            if let Some(x) = &s.resources {
                c.resources.merge(x);
            }
            if let Some(x) = &s.recovery {
                c.recovery.merge(x);
            }
            c.store_high_water = c.store_high_water.max(s.store_high_water);
            c.overlay_size += s.overlay_size.unwrap_or(0);
            c.true_suspicions += s.true_suspicions;
            c.false_suspicions += s.false_suspicions;
        }
        c
    }
}

/// Prints the `us_per_copy` curve over [`CURVE_N`] in host time as
/// measured, not scaled to the calibration host (not gated).
fn print_scale_curve(seed: u64, have: (usize, f64)) {
    let mut points = Vec::new();
    for n in CURVE_N {
        let us = if n == have.0 {
            have.1
        } else {
            let case = Family::Scale(n).case(seed, 0);
            let result = run_case(&case, 0.0);
            result.phases.run_s() * 1e6 / result.copies as f64
        };
        points.push(format!("{{\"n\":{n},\"us_per_copy\":{us:.3}}}"));
    }
    println!("perfbench-scale-curve [{}]", points.join(","));
}

/// The traced run: every per-layer metric.
pub fn traced(family: Family, seed: u64, seconds: f64) -> Outcome {
    let m = Measured::run(family, seed, seconds);
    m.diagnostics(family);
    let p = m.median_pass();
    let totals = m.totals();
    let counts = LayerCounts::of(&totals.summaries);
    let mut correct = m.checks_pass();

    // Workloads whose nodes the benchmark builds itself get the wrapper
    // split; chaos-soak builds its nodes inside the harness and is timed
    // per phase only, so its wrapper figures stay zero.
    let wrapped = match family {
        Family::ChaosSoak => None,
        _ => {
            let traced = traced_pass(family, seed, &totals.fingerprints);
            correct &= traced.failed == 0;
            Some(traced)
        }
    };
    if let Family::Scale(n) = family {
        print_scale_curve(
            seed,
            (n, m.median_of(Phases::run_s) * 1e6 / totals.copies as f64),
        );
    }

    let untraced_run_until = m.median_of(|p| p.run_until_s);
    let mut metrics = vec![
        metric(
            "host.ref_kernel_s",
            "s",
            median(&m.kernel.iter().map(|k| k.seconds).collect::<Vec<_>>()),
        ),
        metric(
            "host.ref_kernel_drift",
            "ratio",
            m.kernel[m.kernel.len() - 1].relative / m.kernel[0].relative,
        ),
        metric(
            "host.speed",
            "ratio",
            median(&(0..m.phases.len()).map(|i| m.speed(i)).collect::<Vec<_>>()),
        ),
        metric("host.raw_setup_s", "s", m.raw_setup_s()),
        metric("host.raw_run_s", "s", m.median_of(Phases::run_s)),
        metric("harness.chaos.generate_s", "s", p.generate_s),
        metric("harness.build_s", "s", p.build_s),
        metric("sim.warmup_s", "s", p.warmup_s),
        metric("sim.run_until_s", "s", p.run_until_s),
        metric("harness.summarize_s", "s", p.summarize_s),
        metric("harness.oracle_s", "s", p.oracle_s),
    ];
    for (name, s) in &p.oracle_each_s {
        metrics.push(metric(format!("harness.oracle.{name}_s"), "s", *s));
    }
    let frames: u64 = totals.fingerprints.iter().map(|f| f.frames_sent).sum();
    let received: u64 = totals.fingerprints.iter().map(|f| f.frames_received).sum();
    let collisions: u64 = totals.fingerprints.iter().map(|f| f.collision_losses).sum();
    // Simulated outcomes too placement-dependent to gate across seeds (see
    // README): exact for a seed, reported here.
    let latency = |q| percentile(&totals.latencies, q).unwrap_or(f64::NAN);
    metrics.push(metric(
        "outcome.min_delivery_ratio",
        "ratio",
        totals.worst_ratio,
    ));
    metrics.push(metric("outcome.latency_p50_s", "s", latency(0.5)));
    metrics.push(metric("outcome.latency_p99_s", "s", latency(0.99)));
    metrics.push(metric(
        "outcome.latency_samples_n",
        "count",
        totals.latencies.len() as f64,
    ));
    let mut per_oracle: Vec<(String, u64)> = Vec::new();
    for (name, n) in totals.summaries.iter().flat_map(|s| &s.oracle_outcomes) {
        match per_oracle.iter_mut().find(|(k, _)| k == name) {
            Some(entry) => entry.1 += n,
            None => per_oracle.push((name.clone(), *n)),
        }
    }
    let violations: u64 = per_oracle.iter().map(|(_, n)| n).sum();
    metrics.push(metric(
        "harness.oracle_violations",
        "count",
        violations as f64,
    ));
    for (name, n) in per_oracle {
        metrics.push(metric(
            format!("harness.oracle.{name}_n"),
            "count",
            n as f64,
        ));
    }
    metrics.push(metric("sim.frames_sent", "count", frames as f64));
    metrics.push(metric(
        "sim.rx_per_frame",
        "ratio",
        received as f64 / frames as f64,
    ));
    metrics.push(metric("sim.collision_losses", "count", collisions as f64));

    let run = wrapped.as_ref().map(|t| t.run.clone()).unwrap_or_default();
    let callbacks = run.callbacks();
    let (overhead, self_s) = match &wrapped {
        Some(t) => (
            t.run_until_s / untraced_run_until,
            t.run_until_s - callbacks.s,
        ),
        // Per-phase timing is all chaos-soak's traced run adds, and the
        // untraced run takes the same timings: no overhead to report.
        None => (1.0, 0.0),
    };
    metrics.push(metric("trace.overhead_ratio", "ratio", overhead));
    let traced_run_until = wrapped.as_ref().map_or(0.0, |t| t.run_until_s);
    metrics.push(metric("trace.run_until_s", "s", traced_run_until));
    metrics.push(metric("sim.self_s", "s", self_s));
    metrics.push(metric("sim.callback_s", "s", callbacks.s));
    metrics.push(metric("sim.callbacks_n", "count", callbacks.n as f64));

    let cache_hits = counts.counters.sig_cache_hits;
    let cache_misses = counts.counters.sig_cache_misses;
    let (verify_n, miss_n) = match &wrapped {
        Some(_) => (run.verify.n, run.verify_miss.n),
        None => (cache_hits + cache_misses, cache_misses),
    };
    metrics.push(metric("crypto.verify_n", "count", verify_n as f64));
    metrics.push(metric("crypto.verify_s", "s", run.verify.s));
    metrics.push(metric("crypto.verify_miss_n", "count", miss_n as f64));
    metrics.push(metric("crypto.verify_miss_s", "s", run.verify_miss.s));
    metrics.push(metric("crypto.sign_n", "count", run.sign.n as f64));
    metrics.push(metric("crypto.sign_s", "s", run.sign.s));
    let hit_ratio = if verify_n == 0 {
        0.0
    } else {
        1.0 - miss_n as f64 / verify_n as f64
    };
    metrics.push(metric("crypto.cache_hit_ratio", "ratio", hit_ratio));

    for (kind, t) in PACKET_KINDS.iter().zip(&run.packet) {
        metrics.push(metric(format!("core.packet.{kind}_n"), "count", t.n as f64));
        metrics.push(metric(format!("core.packet.{kind}_s"), "s", t.s));
    }
    metrics.push(metric(
        "core.app_broadcast_n",
        "count",
        run.app_broadcast.n as f64,
    ));
    metrics.push(metric("core.app_broadcast_s", "s", run.app_broadcast.s));
    for ((name, _), t) in TIMERS.iter().zip(&run.timer) {
        metrics.push(metric(format!("core.timer.{name}_n"), "count", t.n as f64));
        metrics.push(metric(format!("core.timer.{name}_s"), "s", t.s));
    }

    let c = &counts.counters;
    metrics.push(metric(
        "core.requests_sent",
        "count",
        c.requests_sent as f64,
    ));
    metrics.push(metric("core.finds_sent", "count", c.finds_sent as f64));
    let per_request = if c.requests_sent == 0 {
        0.0
    } else {
        c.recovered_via_request as f64 / c.requests_sent as f64
    };
    metrics.push(metric("core.recovered_per_request", "ratio", per_request));
    metrics.push(metric(
        "core.store_high_water",
        "count",
        counts.store_high_water as f64,
    ));
    metrics.push(metric(
        "fd.true_suspicions",
        "count",
        counts.true_suspicions as f64,
    ));
    metrics.push(metric(
        "fd.false_suspicions",
        "count",
        counts.false_suspicions as f64,
    ));
    let suspicions = counts.true_suspicions + counts.false_suspicions;
    let precision = if suspicions == 0 {
        1.0
    } else {
        counts.true_suspicions as f64 / suspicions as f64
    };
    metrics.push(metric("fd.precision", "ratio", precision));
    metrics.push(metric("overlay.size", "count", counts.overlay_size as f64));
    metrics.push(metric(
        "overlay.reelections",
        "count",
        counts.recovery.reelections as f64,
    ));
    let r = &counts.resources;
    metrics.push(metric(
        "core.resources.frames_admitted",
        "count",
        r.frames_admitted as f64,
    ));
    metrics.push(metric(
        "core.resources.frames_dropped",
        "count",
        r.frames_dropped as f64,
    ));
    metrics.push(metric(
        "core.resources.verifs_dropped",
        "count",
        r.verifs_dropped as f64,
    ));
    metrics.push(metric(
        "core.resources.store_rejects",
        "count",
        r.store_rejects as f64,
    ));
    let rec = &counts.recovery;
    metrics.push(metric(
        "core.recovery.requests_widened",
        "count",
        rec.requests_widened as f64,
    ));
    metrics.push(metric(
        "core.recovery.finds_escalated",
        "count",
        rec.finds_escalated as f64,
    ));

    Outcome {
        correct,
        attempted: m.attempted + wrapped.as_ref().map_or(0, |_| family.case_count()),
        failed: m.failed + wrapped.as_ref().map_or(0, |t| t.failed),
        metrics,
    }
}
