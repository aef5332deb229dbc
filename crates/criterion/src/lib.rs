//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The workspace builds in environments with no access to crates.io, so the
//! benches link against this shim. It reproduces the API subset the benches
//! use — `Criterion`, benchmark groups, `Bencher::iter`, `BenchmarkId`,
//! `Throughput`, and the `criterion_group!`/`criterion_main!` macros — with a
//! simple calibrated timing loop printing mean ns/iter (and throughput when
//! configured) instead of criterion's statistical machinery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Throughput configuration for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier, optionally parameterized.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id made of a parameter alone (the group supplies the name).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Times closures passed to [`Bencher::iter`].
pub struct Bencher {
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Runs `f` in a calibrated loop and records the elapsed time.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Calibrate: grow the batch until it takes ~10 ms, then measure.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(10) || batch >= 1 << 24 {
                self.total = elapsed;
                self.iters = batch;
                return;
            }
            batch *= 4;
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to report rates for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(&mut self, id: impl Display, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.throughput, f);
        self
    }

    /// Runs one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(&format!("{}/{}", self.name, id), self.throughput, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Self {
        run_one(name, None, f);
        self
    }

    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Accepted for compatibility with `criterion_main!`'s configuration
    /// hook; the shim has no external configuration.
    pub fn configure_from_args(self) -> Self {
        self
    }
}

fn run_one(label: &str, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher {
        total: Duration::ZERO,
        iters: 0,
    };
    f(&mut b);
    if b.iters == 0 {
        println!("{label:<40} (no iterations recorded)");
        return;
    }
    let ns_per_iter = b.total.as_nanos() as f64 / b.iters as f64;
    let rate = throughput.map(|Throughput::Bytes(bytes)| {
        let mbps = bytes as f64 / ns_per_iter * 1e9 / (1024.0 * 1024.0);
        format!("  {mbps:10.1} MiB/s")
    });
    println!(
        "{label:<40} {ns_per_iter:12.1} ns/iter{}",
        rate.unwrap_or_default()
    );
}

/// Declares a group of benchmark functions, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench entry point running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(64)).bench_with_input(
            BenchmarkId::from_parameter(64),
            &64usize,
            |b, &n| b.iter(|| n * 2),
        );
        g.finish();
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("sha", 64).to_string(), "sha/64");
        assert_eq!(BenchmarkId::from_parameter(512).to_string(), "512");
    }
}
