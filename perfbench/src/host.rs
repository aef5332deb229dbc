//! Host measurements that do not depend on the program under test: peak
//! memory and a fixed reference kernel that tracks host speed.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A fixed, repository-independent workload whose time tracks how fast the
/// host runs code like the simulator's at the moment it is timed.
///
/// Three parts, weighted equally, each against its own time on the
/// calibration host (a shared 2-vCPU Intel Xeon at 2.1 GHz):
///
/// * **core** — dependent random walks over a 4 MiB and a 32 MiB
///   permutation, then branchy hashing into a 256 KiB table;
/// * **shared cache** — a walk over a 128 MiB permutation, the size at
///   which the 300 MiB last-level cache shared with other tenants matters;
/// * **memory** — a walk over a 32 MiB permutation flushed from every
///   cache first, so each step goes to memory.
///
/// All memory is allocated and shuffled once, in [`RefKernel::new`]. Before
/// each timing the first two parts' memory is touched and the third's
/// flushed, untimed, so the cache state the program under test leaves
/// behind does not reach the figure.
pub struct RefKernel {
    small: Vec<u32>,
    large: Vec<u32>,
    table: Vec<u64>,
    shared: Vec<u32>,
    flushed: Vec<u32>,
}

/// One timing of the kernel.
#[derive(Clone, Copy, Debug)]
pub struct KernelTiming {
    /// Seconds all three parts took.
    pub seconds: f64,
    /// Mean over the parts of their time over the calibration host's: 1 at
    /// the calibration host's speed, above 1 on a slower host.
    pub relative: f64,
}

/// Steps of the core part's 4 MiB and 32 MiB walks and hashing loop.
const SMALL_STEPS: usize = 600_000;
const LARGE_STEPS: usize = 250_000;
const HASH_STEPS: usize = 3_000_000;
/// Steps of the shared-cache and memory walks.
const SHARED_STEPS: usize = 250_000;
const FLUSHED_STEPS: usize = 125_000;
/// Median seconds of the core, shared-cache and memory parts on the
/// calibration host.
const CALIBRATION_S: [f64; 3] = [0.1055, 0.0399, 0.0183];

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Sattolo's shuffle: a single-cycle permutation, so a walk visits every slot.
fn cycle(len: usize, mut x: u64) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    for i in (1..len).rev() {
        next.swap(i, (xorshift(&mut x) % i as u64) as usize);
    }
    next
}

fn walk(next: &[u32], steps: usize) -> u64 {
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..steps {
        at = next[at] as usize;
        acc = acc.rotate_left(5).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ at as u64;
    }
    acc
}

fn touch(xs: &[u32]) {
    black_box(xs.iter().map(|&v| v as u64).sum::<u64>());
}

/// Evicts `xs` from every cache level.
fn flush(xs: &[u32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: every address flushed lies inside `xs`; `clflush` and
    // `mfence` are part of SSE2, which every x86_64 CPU has.
    unsafe {
        use std::arch::x86_64::{_mm_clflush, _mm_mfence};
        for line in xs.chunks(16) {
            _mm_clflush(line.as_ptr().cast());
        }
        _mm_mfence();
    }
    #[cfg(not(target_arch = "x86_64"))]
    black_box(xs);
}

fn timed(f: impl FnOnce() -> u64) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            small: cycle(1 << 20, 0x9E37_79B9_7F4A_7C15),
            large: cycle(1 << 23, 0xD1B5_4A32_D192_ED03),
            table: vec![0; 1 << 15],
            shared: cycle(1 << 25, 0x3234_5678_9ABC_DEF1),
            flushed: cycle(1 << 23, 0x4234_5678_9ABC_DEF1),
        }
    }

    /// MiB the kernel holds resident from [`RefKernel::new`] on (every
    /// timing touches all of it), to take out of the process's peak.
    pub fn resident_mib(&self) -> f64 {
        let words = self.small.len() + self.large.len() + self.shared.len() + self.flushed.len();
        (4 * words + 8 * self.table.len()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the kernel once.
    pub fn time(&mut self) -> KernelTiming {
        touch(&self.small);
        touch(&self.large);
        self.table.fill(0);
        let table = &mut self.table;
        let (small, large) = (&self.small, &self.large);
        let core = timed(|| {
            let mut acc = walk(small, SMALL_STEPS) ^ walk(large, LARGE_STEPS);
            let mask = table.len() - 1;
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            for _ in 0..HASH_STEPS {
                let h = xorshift(&mut x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let slot = &mut table[(h >> 40) as usize & mask];
                if *slot & 1 == h & 1 {
                    *slot = slot.wrapping_add(h);
                } else {
                    acc ^= *slot;
                }
            }
            acc
        });

        touch(&self.shared);
        let shared = timed(|| walk(&self.shared, SHARED_STEPS));

        flush(&self.flushed);
        let memory = timed(|| walk(&self.flushed, FLUSHED_STEPS));

        let parts = [core, shared, memory];
        let relative = parts
            .iter()
            .zip(CALIBRATION_S)
            .map(|(s, c)| s / c)
            .sum::<f64>()
            / parts.len() as f64;
        KernelTiming {
            seconds: parts.iter().sum(),
            relative,
        }
    }
}
