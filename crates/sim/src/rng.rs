//! Deterministic pseudo-random number generation for the simulator.
//!
//! The engine must be bit-for-bit reproducible from a seed across platforms
//! and across versions of external crates, so it carries its own small PRNG —
//! a PCG32 seeded through SplitMix64 — instead of depending on `rand`'s
//! implementation details. Workload generation in higher layers may still use
//! `rand`; the simulator core uses only this.

/// A PCG-XSH-RR 32-bit generator with a SplitMix64-expanded seed.
///
/// Statistically strong for simulation purposes, 16 bytes of state, and
/// trivially reproducible.
///
/// ```
/// use byzcast_sim::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// let die = a.gen_range(1, 7);
/// assert!((1..7).contains(&die));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1; // stream must be odd
        let mut rng = SimRng { state: 0, inc };
        rng.state = state.wrapping_add(inc);
        rng.next_u32();
        rng
    }

    /// Derives an independent child generator; used to give each node its own
    /// stream so that adding a node does not perturb the draws of the others.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let mut sm = self.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
        let state = splitmix64(&mut sm);
        let inc = splitmix64(&mut sm) | 1;
        let mut rng = SimRng { state: 0, inc };
        rng.state = state.wrapping_add(inc);
        rng.next_u32();
        rng
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Uniform integer in `[0, bound)` using Lemire-style rejection.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range_u64 bound must be positive");
        // Rejection sampling over the top of the range to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let r = self.next_u64();
            if r >= threshold {
                return r % bound;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.gen_range_u64(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range_u64(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.gen_range_u64(xs.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn forked_streams_are_independent_of_sibling_draws() {
        let mut root1 = SimRng::new(7);
        let mut root2 = SimRng::new(7);
        let mut f1 = root1.fork(0);
        let mut f2 = root2.fork(0);
        // Using root2 further must not change what fork 0 produces.
        let _ = root2.fork(1);
        for _ in 0..100 {
            assert_eq!(f1.next_u64(), f2.next_u64());
        }
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(0, 10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-3.0));
        assert!(rng.gen_bool(7.0));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(13);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = SimRng::new(17);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::new(1).gen_range_u64(0);
    }
}
