//! Deterministic PRNG: xoshiro256** seeded via SplitMix64.
//!
//! Implemented in-crate (rather than via the `rand` façade) so that
//! experiment results are bit-stable across dependency upgrades — the
//! reproduction harness commits expected table shapes that must not drift
//! with a `rand` minor bump.

/// A small, fast, deterministic PRNG (xoshiro256**, Blackman & Vigna).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed. Any seed (including 0) gives
    /// a well-mixed state because the state is expanded with SplitMix64.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Derive an independent child stream, for giving each simulation
    /// component its own generator.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's method.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Debiased multiply-shift.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when the range is empty.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn below_usize(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed sample with the given rate parameter
    /// (mean = `1/rate`), for Poisson inter-arrival times.
    ///
    /// # Panics
    /// Panics when `rate <= 0`.
    pub fn exp(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Inverse CDF; 1-f64() is in (0,1], avoiding ln(0).
        -(1.0 - self.f64()).ln() / rate
    }

    /// Choose a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    /// Panics on an empty slice.
    #[inline]
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.below_usize(items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_diverge() {
        let mut root = SimRng::new(7);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn below_unbiased_over_small_bound() {
        let mut rng = SimRng::new(9);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "count {c} far from 10000");
        }
    }

    #[test]
    fn range_bounds_respected() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.range(100, 110);
            assert!((100..110).contains(&x));
        }
    }

    #[test]
    fn exp_mean_matches_rate() {
        let mut rng = SimRng::new(13);
        let rate = 4.0;
        let mean: f64 = (0..20_000).map(|_| rng.exp(rate)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean} far from 0.25");
    }

    #[test]
    fn chance_probability() {
        let mut rng = SimRng::new(17);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn known_vector_stability() {
        // Pin the output streams by value: every simulated output of the
        // repository is a function of these draws, so a change to the
        // seeding, xoshiro, Lemire's rejection or the f64 mapping must
        // fail here, not as a drifted digit somewhere downstream.
        let mut rng = SimRng::new(2008);
        let raw: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            raw,
            [
                12_276_367_685_406_418_331,
                17_182_001_240_435_893_362,
                1_086_393_118_668_997_739,
                11_258_345_600_511_543_604,
            ]
        );

        let mut rng = SimRng::new(2008);
        let small: Vec<u64> = (0..6).map(|_| rng.below(7)).collect();
        assert_eq!(small, [4, 6, 0, 4, 1, 1]);

        // Just above 2^63 about half of all raw draws are rejected: these
        // six values take 16 draws, which the next raw output pins.
        let mut rng = SimRng::new(2008);
        let big: Vec<u64> = (0..6).map(|_| rng.below((1 << 63) + 1)).collect();
        assert_eq!(
            big,
            [
                8_591_000_620_217_946_681,
                543_196_559_334_498_869,
                5_629_172_800_255_771_802,
                812_559_558_355_411_673,
                506_234_201_081_223_252,
                3_190_502_600_429_972_559,
            ]
        );
        assert_eq!(rng.next_u64(), 1_314_263_308_137_366_668);

        let mut rng = SimRng::new(2008);
        let unit: Vec<f64> = (0..3).map(|_| rng.f64()).collect();
        assert_eq!(
            unit,
            [0.665503225737424, 0.9314381536264613, 0.05889348897171143]
        );

        let mut rng = SimRng::new(2008);
        let hits: Vec<bool> = (0..8).map(|_| rng.chance(0.3)).collect();
        assert_eq!(hits, [false, false, true, false, true, true, false, false]);

        let mut rng = SimRng::new(2008);
        let ranged: Vec<u64> = (0..4).map(|_| rng.range(100, 110)).collect();
        assert_eq!(ranged, [106, 109, 100, 106]);
    }
}
