//! Samplers used by the workload generators.
//!
//! Disk-write locality is the load-bearing statistical property in the
//! paper: the block-bitmap wins over delta queues *because* workloads
//! rewrite the same blocks (11 % for a kernel build, 25.2 % for SPECweb
//! Banking, 35.6 % for Bonnie++). These samplers let the generators dial in
//! those rewrite ratios.

use crate::SimRng;

/// Zipf distribution over ranks `0..n` with exponent `s`, sampled by
/// rejection-inversion (Hörmann & Derflinger), O(1) per sample with no
/// per-rank tables — usable for the 10-million-block rank spaces of a
/// 40 GB disk.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants of Hörmann & Derflinger's rejection-inversion
    // scheme (the algorithm behind Apache Commons' Zipf sampler).
    h_integral_x1: f64,
    h_integral_n: f64,
    threshold: f64,
}

impl Zipf {
    /// Create a Zipf sampler over `n` ranks with exponent `s > 0` (`s == 1`
    /// is handled via the logarithmic antiderivative).
    ///
    /// # Panics
    /// Panics when `n == 0` or `s <= 0`.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "rank space must be non-empty");
        assert!(s > 0.0, "exponent must be positive");
        let h_integral = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-9 {
                x.ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h = |x: f64| -> f64 { x.powf(-s) };
        let h_integral_inverse = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-9 {
                x.exp()
            } else {
                (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        Self {
            n,
            s,
            h_integral_x1: h_integral(1.5) - 1.0,
            h_integral_n: h_integral(n as f64 + 0.5),
            threshold: 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0)),
        }
    }

    fn h_integral(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-9 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Sample a rank in `[0, n)`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            let u = self.h_integral_n + rng.f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5) as i64;
            let k = k.clamp(1, self.n as i64) as f64;
            if k - x <= self.threshold || u >= self.h_integral(k + 0.5) - k.powf(-self.s) {
                return k as u64 - 1;
            }
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> u64 {
        self.n
    }
}

/// A two-tier locality model: with probability `hot_prob` a draw lands
/// uniformly in a *hot region* of `hot_size` values, otherwise uniformly in
/// the whole space.
///
/// This is the model used to calibrate the paper's rewrite ratios: a small
/// hot set re-hit often produces exactly the "write operations rewriting
/// blocks written before" behaviour §IV-A-2 measures.
#[derive(Debug, Clone)]
pub struct HotCold {
    total: u64,
    hot_start: u64,
    hot_size: u64,
    hot_prob: f64,
}

impl HotCold {
    /// Create a hot/cold sampler over `[0, total)` where the hot region is
    /// `[hot_start, hot_start + hot_size)`.
    ///
    /// # Panics
    /// Panics when the hot region is empty or exceeds the space, or when
    /// `hot_prob` is outside `[0, 1]`.
    pub fn new(total: u64, hot_start: u64, hot_size: u64, hot_prob: f64) -> Self {
        assert!(total > 0, "space must be non-empty");
        assert!(hot_size > 0, "hot region must be non-empty");
        assert!(
            hot_start + hot_size <= total,
            "hot region [{hot_start}, {}) exceeds space of {total}",
            hot_start + hot_size
        );
        assert!(
            (0.0..=1.0).contains(&hot_prob),
            "hot probability must be in [0,1]"
        );
        Self {
            total,
            hot_start,
            hot_size,
            hot_prob,
        }
    }

    /// Draw a value.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if rng.chance(self.hot_prob) {
            self.hot_start + rng.below(self.hot_size)
        } else {
            rng.below(self.total)
        }
    }

    /// Size of the underlying space.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Sequential cursor with wrap-around, for streaming workloads (video
/// reads, Bonnie++ sequential phases).
#[derive(Debug, Clone)]
pub struct SequentialCursor {
    start: u64,
    len: u64,
    pos: u64,
    /// Number of complete passes over the region so far.
    pub wraps: u64,
}

impl SequentialCursor {
    /// Cursor over `[start, start + len)`, beginning at `start`.
    ///
    /// # Panics
    /// Panics when `len == 0`.
    pub fn new(start: u64, len: u64) -> Self {
        assert!(len > 0, "region must be non-empty");
        Self {
            start,
            len,
            pos: 0,
            wraps: 0,
        }
    }

    /// Next value, advancing the cursor (wrapping at the region end).
    #[inline]
    pub fn next_value(&mut self) -> u64 {
        let v = self.start + self.pos;
        self.pos += 1;
        if self.pos == self.len {
            self.pos = 0;
            self.wraps += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_in_range_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SimRng::new(5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..50_000 {
            let r = z.sample(&mut rng) as usize;
            assert!(r < 1000);
            counts[r] += 1;
        }
        // Rank 0 must dominate rank 100 heavily under s=1.
        assert!(
            counts[0] > counts[100] * 5,
            "{} vs {}",
            counts[0],
            counts[100]
        );
        // Head mass: top-10 ranks should hold a large share.
        let head: u32 = counts[..10].iter().sum();
        assert!(head as f64 > 0.25 * 50_000.0, "head mass {head}");
    }

    #[test]
    fn zipf_large_rank_space() {
        // 10 Mi ranks (40 GB disk in blocks) — must stay O(1).
        let z = Zipf::new(10 * 1024 * 1024, 0.9);
        let mut rng = SimRng::new(6);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 10 * 1024 * 1024);
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.2);
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "rank space must be non-empty")]
    fn zipf_zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn hot_cold_respects_regions() {
        let hc = HotCold::new(10_000, 100, 50, 0.9);
        let mut rng = SimRng::new(8);
        let mut hot_hits = 0;
        for _ in 0..10_000 {
            let v = hc.sample(&mut rng);
            assert!(v < 10_000);
            if (100..150).contains(&v) {
                hot_hits += 1;
            }
        }
        // ~90% land hot (plus a sliver of cold draws hitting the region).
        assert!(hot_hits > 8_500, "hot hits {hot_hits}");
    }

    #[test]
    fn hot_cold_zero_prob_is_uniform() {
        let hc = HotCold::new(100, 0, 10, 0.0);
        let mut rng = SimRng::new(9);
        let in_hot = (0..10_000).filter(|_| hc.sample(&mut rng) < 10).count();
        assert!((700..1_300).contains(&in_hot), "in_hot {in_hot}");
    }

    #[test]
    #[should_panic(expected = "exceeds space")]
    fn hot_region_overflow_panics() {
        HotCold::new(100, 95, 10, 0.5);
    }

    #[test]
    fn sequential_cursor_wraps() {
        let mut c = SequentialCursor::new(10, 3);
        let vals: Vec<u64> = (0..7).map(|_| c.next_value()).collect();
        assert_eq!(vals, vec![10, 11, 12, 10, 11, 12, 10]);
        assert_eq!(c.wraps, 2);
    }
}
