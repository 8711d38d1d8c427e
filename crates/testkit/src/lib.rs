//! Dependency-free testing and micro-bench helpers.
//!
//! The workspace builds in hermetic environments with no access to a crates
//! registry, so the usual suspects (`proptest`, `criterion`) are replaced by
//! this small kit (substitution #4 in `DESIGN.md`):
//!
//! * [`Rng`] — a SplitMix64 PRNG with the generation helpers the property
//!   suites need. Deterministic: a failing case's seed is printed so the run
//!   can be reproduced exactly with [`replay`].
//! * [`cases`] — a fixed-count property-test driver over derived seeds.
//! * [`bench()`] — wall-clock micro-benchmark with warmup and per-iteration
//!   reporting, used by the `harness = false` bench targets.

use std::hint::black_box as bb;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// SplitMix64: tiny, fast, and plenty for test-case generation.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Modulo bias is irrelevant at test-generation quality.
        self.next_u64() % bound
    }

    /// Uniform `usize` in `[0, bound)`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo) as u64) as u32
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.index(hi - lo)
    }

    pub fn i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Uniform float in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Random string of length `[0, max_len]` drawn from `alphabet`.
    pub fn string(&mut self, alphabet: &[char], max_len: usize) -> String {
        let len = self.index(max_len + 1);
        (0..len)
            .map(|_| alphabet[self.index(alphabet.len())])
            .collect()
    }

    /// Lowercase ASCII string of length `[min_len, max_len]`.
    pub fn lowercase(&mut self, min_len: usize, max_len: usize) -> String {
        let len = self.usize_in(min_len, max_len + 1);
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    /// Weighted choice: returns the index of the chosen weight.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let mut roll = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if roll < w as u64 {
                return i;
            }
            roll -= w as u64;
        }
        unreachable!("weights sum exceeded")
    }
}

/// Run `f` against `n` derived seeds. On a panic the offending seed is
/// printed before the panic is propagated, so the case can be replayed in
/// isolation with [`replay`].
pub fn cases(n: u64, base_seed: u64, f: impl Fn(&mut Rng)) {
    for i in 0..n {
        let seed = base_seed ^ (i.wrapping_mul(0xA076_1D64_78BD_642F));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            f(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("testkit: case {i}/{n} failed; replay with seed {seed:#x}");
            resume_unwind(e);
        }
    }
}

/// Re-run a single failing case by seed.
pub fn replay(seed: u64, f: impl FnOnce(&mut Rng)) {
    let mut rng = Rng::new(seed);
    f(&mut rng);
}

/// One benchmark measurement.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    pub iters: u64,
    pub total: Duration,
}

impl Measurement {
    pub fn per_iter_ns(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters as f64
    }
}

/// Wall-clock micro-benchmark: warm up, then run `f` until ~`target` of
/// measured time accumulates, and print ns/iter. Returns the measurement so
/// callers can compute ratios between comparison arms.
pub fn bench(name: &str, target: Duration, mut f: impl FnMut()) -> Measurement {
    // Warmup: run for ~20% of the target to populate caches/allocators.
    let warm_until = Instant::now() + target / 5;
    while Instant::now() < warm_until {
        f();
    }
    let mut iters = 0u64;
    let mut total = Duration::ZERO;
    while total < target {
        let t0 = Instant::now();
        f();
        total += t0.elapsed();
        iters += 1;
    }
    let m = Measurement { iters, total };
    println!(
        "{name:<48} {:>12.1} ns/iter ({} iters)",
        m.per_iter_ns(),
        m.iters
    );
    m
}

/// Prevent the optimizer from deleting a benchmarked computation.
pub fn black_box<T>(x: T) -> T {
    bb(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn bounds_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.u32_in(5, 9);
            assert!((5..9).contains(&v));
            let s = r.lowercase(1, 5);
            assert!((1..=5).contains(&s.len()));
            let f = r.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn weighted_covers_all_arms() {
        let mut r = Rng::new(3);
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[r.weighted(&[1, 2, 3])] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn cases_runs_requested_count() {
        let counter = std::cell::Cell::new(0u64);
        cases(25, 99, |_| counter.set(counter.get() + 1));
        assert_eq!(counter.get(), 25);
    }
}
