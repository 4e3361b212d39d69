//! Deterministic pseudo-random number generation.
//!
//! Two generators, both tiny, fast and fully reproducible:
//!
//! * [`SplitMix64`] — a 64-bit state mixer, used to expand seeds and to
//!   derive independent per-case streams in the property harness.
//! * [`TestRng`] — xoshiro256++, the workhorse generator behind every
//!   workload generator, random search and property test in the
//!   workspace. Seeded from a single `u64` via SplitMix64 (the seeding
//!   procedure recommended by the xoshiro authors).
//!
//! The [`Rng`] trait carries the distribution helpers the repository
//! actually uses: uniform integer/float ranges (Lemire rejection for
//! integers, so there is no modulo bias), Bernoulli draws, Fisher–Yates
//! shuffles, and slice choice. [`Zipf`] adds the skewed distribution the
//! workloads sample from.
//!
//! Everything here is `std`-only: no registry dependencies, so the
//! workspace builds with an empty cargo registry cache.

use std::ops::Range;

/// Mixes `state` one SplitMix64 step and returns the next output.
///
/// This is the stateless core of [`SplitMix64`]; it is exposed because
/// deriving "a good seed from a counter" (`mix(base ^ counter)`) is a
/// common need in deterministic test harnesses.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator: 64 bits of state, equidistributed output.
///
/// Used to expand single-`u64` seeds into larger state and to derive
/// independent sub-seeds; for bulk generation prefer [`TestRng`].
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }
}

/// xoshiro256++ — the default deterministic generator of the workspace.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush; the same seed
/// always yields the same stream on every platform (the algorithm is pure
/// integer arithmetic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seeds the generator from a single `u64`, expanding it through
    /// SplitMix64 as the xoshiro reference code recommends (this also
    /// guarantees the state is never all-zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent generator from this one's stream —
    /// deterministic, and the parent advances by one draw.
    pub fn fork(&mut self) -> TestRng {
        let seed = self.next_u64();
        TestRng::seed_from_u64(seed)
    }
}

impl Rng for TestRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A deterministic random source plus the distribution helpers the
/// workspace uses. Only [`Rng::next_u64`] is required; everything else is
/// derived.
pub trait Rng {
    /// The next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.gen_f64() < p
        }
    }

    /// A uniform draw from a half-open range, without modulo bias for
    /// integer types (Lemire's multiply-shift rejection method).
    ///
    /// # Panics
    /// Panics if the range is empty.
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T
    where
        Self: Sized,
    {
        T::sample_range(self, range.start, range.end)
    }

    /// Fisher–Yates shuffle, in place.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = uniform_u64(self, i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` if the slice is empty.
    fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T>
    where
        Self: Sized,
    {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[uniform_u64(self, xs.len() as u64) as usize])
        }
    }
}

/// Uniform `u64` in `[0, span)` via Lemire rejection. `span` must be ≥ 1.
#[inline]
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span >= 1);
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Types that support uniform sampling from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Samples uniformly from `[lo, hi)`. Panics if `lo >= hi`.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty sample range {lo}..{hi}");
                let span = (hi as i128 - lo as i128) as u64;
                lo.wrapping_add(uniform_u64(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, usize, i8, i16, i32, i64, isize);

impl SampleUniform for u64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty sample range {lo}..{hi}");
        lo + uniform_u64(rng, hi - lo)
    }
}

impl SampleUniform for f64 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty sample range {lo}..{hi}");
        let v = lo + rng.gen_f64() * (hi - lo);
        // Guard against rounding up to the excluded endpoint.
        if v >= hi {
            lo
        } else {
            v
        }
    }
}

impl SampleUniform for f32 {
    #[inline]
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        f64::sample_range(rng, lo as f64, hi as f64) as f32
    }
}

/// An inverse-CDF Zipf sampler over `{0, …, n-1}`: `P(k) ∝ 1/(k+1)^theta`.
///
/// `theta = 0` is uniform; `theta ≈ 1` is the classic skew of real access
/// traces. Rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler. `n` must be ≥ 1, `theta` finite and ≥ 0.
    pub fn new(n: usize, theta: f64) -> Option<Self> {
        if n == 0 || !theta.is_finite() || theta < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Some(Zipf { cdf })
    }

    /// Samples a rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u = rng.gen_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values: lock the exact output streams so that any future
    /// change to the generators (which would silently re-randomize every
    /// seeded workload and test in the workspace) fails loudly.
    #[test]
    fn xoshiro_stream_is_stable() {
        let mut rng = TestRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let mut again = TestRng::seed_from_u64(0);
        let repeat: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(first, repeat, "same seed must give the same stream");

        let mut other = TestRng::seed_from_u64(1);
        assert_ne!(first[0], other.next_u64(), "seeds must differ");

        // Golden: pinned once, must never change.
        assert_eq!(
            first,
            vec![
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330,
            ]
        );
    }

    #[test]
    fn splitmix_stream_is_stable() {
        let mut sm = SplitMix64::new(42);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                13679457532755275413,
                2949826092126892291,
                5139283748462763858,
            ]
        );
    }

    #[test]
    fn gen_range_respects_bounds_and_hits_extremes() {
        let mut rng = TestRng::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = rng.gen_range(0usize..5);
            assert!(v < 5);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable: {seen:?}");

        for _ in 0..500 {
            let v = rng.gen_range(-3i64..4);
            assert!((-3..4).contains(&v));
        }
        for _ in 0..500 {
            let v = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty sample range")]
    fn empty_range_panics() {
        let mut rng = TestRng::seed_from_u64(0);
        let _ = rng.gen_range(3usize..3);
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = TestRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        let frac = hits as f64 / 10_000.0;
        assert!((frac - 0.3).abs() < 0.02, "observed {frac}");
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn gen_f64_is_unit_interval() {
        let mut rng = TestRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_deterministic() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        TestRng::seed_from_u64(5).shuffle(&mut a);
        TestRng::seed_from_u64(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(a, sorted, "20 elements virtually never shuffle to identity");
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = TestRng::seed_from_u64(9);
        let xs = [10, 20, 30];
        assert!(rng.choose::<i32>(&[]).is_none());
        let mut seen = [false; 3];
        for _ in 0..100 {
            let v = *rng.choose(&xs).unwrap();
            seen[xs.iter().position(|&x| x == v).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = TestRng::seed_from_u64(1);
        let mut a = parent.fork();
        let mut b = parent.fork();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn zipf_is_skewed_normalized_and_validated() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(4, -1.0).is_none());
        assert!(Zipf::new(4, f64::NAN).is_none());

        let z = Zipf::new(10, 1.5).unwrap();
        let mut rng = TestRng::seed_from_u64(0);
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 4 * counts[4], "{counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
    }
}
