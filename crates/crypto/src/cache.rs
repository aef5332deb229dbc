//! Bounded memoization of signature verification.
//!
//! In the broadcast protocol the same signed `DATA` frame, gossip entry or
//! `BEACON` reaches many nodes as neighbours relay it, and each receiving
//! node re-verifies an identical `(signer, data, signature)` triple.
//! [`CachingVerifier`] wraps any [`Verifier`] and remembers verdicts, so each
//! distinct triple costs one real verification; repeats cost a hash-map probe
//! plus a byte comparison of the (short) signed preimage.
//!
//! The map is keyed on `(signer, signature)` alone — both small `Copy`
//! values — and each map slot holds the full signed bytes for an exact
//! comparison. Hashing the 40-byte signature is far cheaper than digesting
//! `data` (the signed preimages in this protocol are tens of bytes, and a
//! SHA-256 digest of them would cost as much as the verification it is meant
//! to save), while the stored copy of `data` keeps the verdict exact: a
//! colliding `(signer, signature)` pair with different bytes simply falls
//! through to the inner verifier.
//!
//! Caching the *negative* verdicts too is deliberate and safe: the match
//! requires the full signature and the full data, so a forged signature is
//! cached as `false` and can never alias a valid one. What must never happen
//! — and is covered by a test — is a forged signature being remembered as
//! valid.
//!
//! One instance is intended to be **shared by every verifying node in a
//! run** (the harness builds a single `Arc`'d cache per run). Verification
//! is a pure function of the triple, so a verdict computed for one node is
//! exactly the verdict any other node would compute — sharing cannot change
//! a single simulation result, and it is what makes the cache pay off: a
//! beacon heard by 80 neighbours is verified once, not 80 times. (A
//! per-node cache would model a real device's memory more literally, but
//! measures ~30% hit rate against ~97% shared, because the protocol already
//! deduplicates data before re-verifying at any one node.)
//!
//! The maps hash a key with a word-wise multiply–rotate hasher
//! (`WordHasher`) over the signer and the signature's five 8-byte words,
//! not with SipHash: signature words are already near uniform (MAC
//! outputs, or a Schnorr pair), so a keyed hash would buy nothing but
//! time. A flooding defence is not needed either: a crafted collision
//! only lengthens a probe chain, because every key and every data
//! preimage is still compared in full, so it costs probes, never a
//! verdict.
//!
//! The cache is bounded with a two-generation (segmented) LRU: lookups
//! promote entries into the hot generation, and when the hot generation
//! reaches `capacity` it becomes the cold one, dropping the previous cold
//! generation. Memory is therefore bounded by ~2 × `capacity` entries, with
//! deterministic operations — no clocks, no randomness, so simulation runs
//! stay reproducible.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{CacheStats, Signature, SignerId, Verifier};

/// A cache key: the signer and the signature, compared in full.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key(SignerId, Signature);

impl Hash for Key {
    /// The signer, then the signature as five 8-byte words.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(u64::from(self.0 .0));
        for word in self.1 .0.chunks_exact(8) {
            state.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
}

/// A multiply–rotate hasher over 8-byte words (the FxHash step): cheap,
/// and enough for keys whose signature words are already uniform.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    const MULTIPLIER: u64 = 0x51_7c_c1_b7_27_22_0a_95;
}

impl Hasher for WordHasher {
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type Map = HashMap<Key, Bucket, BuildHasherDefault<WordHasher>>;

/// The verdicts recorded under one `(signer, signature)` key. Almost always
/// a single entry; multiple only if distinct data bytes ever map to the same
/// signature (e.g. a replayed signature probed against other payloads).
type Bucket = Vec<(Box<[u8]>, bool)>;

#[derive(Default)]
struct Generations {
    hot: Map,
    cold: Map,
    /// Entry counts (a bucket can hold several verdicts).
    hot_len: usize,
    cold_len: usize,
}

impl Generations {
    fn find(bucket: &Bucket, data: &[u8]) -> Option<bool> {
        bucket
            .iter()
            .find(|(d, _)| d.as_ref() == data)
            .map(|&(_, ok)| ok)
    }
}

/// A bounded memoizing wrapper around any [`Verifier`].
///
/// Intended to be instantiated **once per run** and shared (`Arc`) by every
/// verifying node — see the module docs for why sharing is result-neutral.
/// `capacity` is the size of one LRU generation; a run without a cache
/// uses the inner verifier itself.
pub struct CachingVerifier<V> {
    inner: V,
    capacity: usize,
    generations: Mutex<Generations>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Verifier> CachingVerifier<V> {
    /// Wraps `inner` with a cache of `capacity` entries per generation.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0: a run without a cache verifies with `inner`
    /// directly.
    pub fn new(inner: V, capacity: usize) -> Self {
        assert!(capacity > 0, "a verification cache needs a capacity");
        CachingVerifier {
            inner,
            capacity,
            generations: Mutex::new(Generations::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The wrapped verifier.
    pub fn inner(&self) -> &V {
        &self.inner
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

impl<V: Verifier> Verifier for CachingVerifier<V> {
    fn verify(&self, signer: SignerId, data: &[u8], sig: &Signature) -> bool {
        let key = Key(signer, *sig);
        let mut gens = self.generations.lock().expect("cache poisoned");
        if let Some(bucket) = gens.hot.get(&key) {
            if let Some(ok) = Generations::find(bucket, data) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ok;
            }
        }
        if let Some(ok) = gens.cold.get(&key).and_then(|b| Generations::find(b, data)) {
            // Promote: move the whole bucket so recently used entries
            // survive the next rotation.
            let mut bucket = gens.cold.remove(&key).expect("just probed");
            gens.cold_len -= bucket.len();
            gens.hot_len += bucket.len();
            gens.hot.entry(key).or_default().append(&mut bucket);
            self.hits.fetch_add(1, Ordering::Relaxed);
            if gens.hot_len >= self.capacity {
                self.rotate(&mut gens);
            }
            return ok;
        }
        let ok = self.inner.verify(signer, data, sig);
        self.misses.fetch_add(1, Ordering::Relaxed);
        gens.hot.entry(key).or_default().push((data.into(), ok));
        gens.hot_len += 1;
        if gens.hot_len >= self.capacity {
            self.rotate(&mut gens);
        }
        ok
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        Some(self.stats())
    }
}

impl<V: Verifier> CachingVerifier<V> {
    fn rotate(&self, gens: &mut Generations) {
        let dropped = gens.cold_len;
        gens.cold = std::mem::take(&mut gens.hot);
        gens.cold_len = gens.hot_len;
        gens.hot_len = 0;
        self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SignatureScheme, Signer, SimScheme};

    /// A verifier that counts how often it is actually consulted.
    struct Counting<V> {
        inner: V,
        calls: AtomicU64,
    }
    impl<V: Verifier> Verifier for Counting<V> {
        fn verify(&self, signer: SignerId, data: &[u8], sig: &Signature) -> bool {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.verify(signer, data, sig)
        }
    }

    fn scheme() -> SimScheme {
        SimScheme::generate(7, 4)
    }

    #[test]
    fn repeats_hit_the_cache_and_skip_the_inner_verifier() {
        let s = scheme();
        let sig = s.signer(SignerId(0)).sign(b"payload");
        let v = CachingVerifier::new(
            Counting {
                inner: s.verifier(),
                calls: AtomicU64::new(0),
            },
            64,
        );
        for _ in 0..5 {
            assert!(v.verify(SignerId(0), b"payload", &sig));
        }
        assert_eq!(v.inner().calls.load(Ordering::Relaxed), 1);
        let st = v.stats();
        assert_eq!((st.hits, st.misses), (4, 1));
        assert_eq!(v.cache_stats().unwrap().hits, 4);
    }

    #[test]
    fn forged_signature_is_never_cached_as_valid() {
        let s = scheme();
        let good = s.signer(SignerId(0)).sign(b"m");
        let mut forged = good;
        forged.0[5] ^= 0xff;
        let v = CachingVerifier::new(s.verifier(), 64);
        // Cold and cached verdicts agree: the forgery stays invalid, and
        // caching it does not shadow the genuine signature (distinct keys).
        assert!(!v.verify(SignerId(0), b"m", &forged));
        assert!(!v.verify(SignerId(0), b"m", &forged));
        assert!(v.verify(SignerId(0), b"m", &good));
        assert!(v.verify(SignerId(0), b"m", &good));
        let st = v.stats();
        assert_eq!((st.hits, st.misses), (2, 2));
    }

    #[test]
    fn same_signature_different_data_is_an_exact_miss() {
        // The map key is (signer, signature); distinct data under the same
        // signature must fall through to the inner verifier, not alias.
        let s = scheme();
        let sig = s.signer(SignerId(0)).sign(b"aaaa");
        let v = CachingVerifier::new(
            Counting {
                inner: s.verifier(),
                calls: AtomicU64::new(0),
            },
            64,
        );
        assert!(v.verify(SignerId(0), b"aaaa", &sig));
        assert!(!v.verify(SignerId(0), b"bbbb", &sig)); // same key, new data
        assert!(!v.verify(SignerId(0), b"bbbb", &sig)); // now cached false
        assert!(v.verify(SignerId(0), b"aaaa", &sig)); // original still true
        assert_eq!(v.inner().calls.load(Ordering::Relaxed), 2);
        let st = v.stats();
        assert_eq!((st.hits, st.misses), (2, 2));
    }

    #[test]
    fn distinct_data_and_impersonation_miss_separately() {
        let s = scheme();
        let sig = s.signer(SignerId(0)).sign(b"a");
        let v = CachingVerifier::new(s.verifier(), 64);
        assert!(v.verify(SignerId(0), b"a", &sig));
        assert!(!v.verify(SignerId(1), b"a", &sig)); // impersonation: own key
        assert!(!v.verify(SignerId(0), b"b", &sig)); // different data
        assert_eq!(v.stats().misses, 3);
    }

    #[test]
    fn colliding_keys_cost_probes_never_a_verdict() {
        use std::hash::BuildHasher;
        let s = scheme();
        let good = s.signer(SignerId(0)).sign(b"m");
        // Signer 1 with the first signature word offset by what signer 1
        // adds to the hasher state: the two keys hash alike.
        let mut crafted = good;
        let offset = WordHasher::MULTIPLIER.rotate_left(5).to_le_bytes();
        crafted.0[..8]
            .iter_mut()
            .zip(offset)
            .for_each(|(b, o)| *b ^= o);
        let build = BuildHasherDefault::<WordHasher>::default();
        let (a, b) = (Key(SignerId(0), good), Key(SignerId(1), crafted));
        assert_eq!(build.hash_one(a), build.hash_one(b), "keys must collide");
        let v = CachingVerifier::new(s.verifier(), 64);
        for _ in 0..2 {
            assert!(v.verify(SignerId(0), b"m", &good));
            assert!(!v.verify(SignerId(1), b"m", &crafted));
        }
        let st = v.stats();
        assert_eq!((st.hits, st.misses), (2, 2));
    }

    #[test]
    fn eviction_bounds_the_cache_and_is_counted() {
        let s = scheme();
        let signer = s.signer(SignerId(0));
        let v = CachingVerifier::new(s.verifier(), 4);
        // 16 distinct messages through a 4-per-generation cache: at most
        // 2 × 4 verdicts retained, the rest evicted.
        for i in 0..16u32 {
            let data = i.to_le_bytes();
            let sig = signer.sign(&data);
            assert!(v.verify(SignerId(0), &data, &sig));
        }
        let st = v.stats();
        assert_eq!(st.misses, 16);
        assert!(st.evictions >= 8, "evictions: {}", st.evictions);
        // The earliest entry is long gone: verifying it again is a miss.
        let sig = signer.sign(&0u32.to_le_bytes());
        assert!(v.verify(SignerId(0), &0u32.to_le_bytes(), &sig));
        assert_eq!(v.stats().misses, 17);
    }

    #[test]
    fn recently_used_entries_survive_rotation() {
        let s = scheme();
        let signer = s.signer(SignerId(0));
        let v = CachingVerifier::new(s.verifier(), 4);
        let hot_data = 99u32.to_le_bytes();
        let hot_sig = signer.sign(&hot_data);
        assert!(v.verify(SignerId(0), &hot_data, &hot_sig));
        // Interleave the hot entry with a stream of one-shot entries: the
        // promotions keep it cached throughout.
        for i in 0..12u32 {
            let data = i.to_le_bytes();
            let sig = signer.sign(&data);
            assert!(v.verify(SignerId(0), &data, &sig));
            assert!(v.verify(SignerId(0), &hot_data, &hot_sig));
        }
        assert_eq!(v.stats().misses, 13, "the hot entry was evicted");
    }

    #[test]
    #[should_panic(expected = "a verification cache needs a capacity")]
    fn zero_capacity_is_refused() {
        CachingVerifier::new(scheme().verifier(), 0);
    }
}
