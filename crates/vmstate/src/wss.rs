//! Writable-working-set dirtying model.
//!
//! Iterative memory pre-copy converges because real guests concentrate
//! their writes on a *writable working set* (WWS) much smaller than total
//! RAM (Clark et al., NSDI'05). [`WssModel`] reproduces that behaviour: a
//! configurable fraction of pages forms a hot set absorbing most writes;
//! the rest of RAM takes a uniform trickle.

use des::dist::HotCold;
use des::{SimDuration, SimRng};

/// Parameters of the WSS dirtying model.
#[derive(Debug, Clone)]
pub struct WssModel {
    /// Page writes per second of guest execution.
    pub writes_per_sec: f64,
    hot: HotCold,
}

impl WssModel {
    /// Build a model over `num_pages` pages: `hot_fraction` of the pages
    /// receive `hot_prob` of the writes, at `writes_per_sec` overall.
    ///
    /// # Panics
    /// Panics when `num_pages == 0`, `hot_fraction` is outside `(0, 1]`,
    /// or `writes_per_sec` is negative.
    pub fn new(num_pages: usize, hot_fraction: f64, hot_prob: f64, writes_per_sec: f64) -> Self {
        assert!(num_pages > 0, "page space must be non-empty");
        assert!(
            hot_fraction > 0.0 && hot_fraction <= 1.0,
            "hot fraction must be in (0, 1]"
        );
        assert!(writes_per_sec >= 0.0, "write rate must be non-negative");
        let hot_size = ((num_pages as f64 * hot_fraction).ceil() as u64).max(1);
        Self {
            writes_per_sec,
            hot: HotCold::new(num_pages as u64, 0, hot_size, hot_prob),
        }
    }

    /// An idle guest (no memory dirtying).
    pub fn idle(num_pages: usize) -> Self {
        Self::new(num_pages, 0.01, 1.0, 0.0)
    }

    /// Number of page writes expected during `dt` (deterministic mean;
    /// the per-page placement is what is random).
    pub fn writes_in(&self, dt: SimDuration) -> u64 {
        (self.writes_per_sec * dt.as_secs_f64()).round() as u64
    }

    /// Run `dt` of guest execution: draw each page write the model makes
    /// and hand its page to `touch` ([`crate::GuestMemory::touch`], or a
    /// dirty bitmap's `set`). Returns the number of write events drawn.
    pub fn dirty_for(
        &self,
        dt: SimDuration,
        rng: &mut SimRng,
        mut touch: impl FnMut(usize),
    ) -> u64 {
        let n = self.writes_in(dt);
        for _ in 0..n {
            touch(self.hot.sample(rng) as usize);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuestMemory;
    use block_bitmap::DirtyMap as _;

    #[test]
    fn write_count_scales_with_time() {
        let m = WssModel::new(1000, 0.1, 0.9, 500.0);
        assert_eq!(m.writes_in(SimDuration::from_secs(2)), 1000);
        assert_eq!(m.writes_in(SimDuration::from_millis(500)), 250);
    }

    #[test]
    fn dirtying_concentrates_on_hot_set() {
        let model = WssModel::new(10_000, 0.05, 0.95, 10_000.0);
        let mut mem = GuestMemory::new(10_000);
        let mut rng = SimRng::new(1);
        model.dirty_for(SimDuration::from_secs(1), &mut rng, |p| mem.touch(p));
        // 10k writes over a 500-page hot set: dirty count must be far less
        // than the write count (rewrites) and concentrated low.
        let dirty = mem.drain_dirty().to_indices();
        assert!(dirty.len() < 2_000, "dirty {} pages", dirty.len());
        let in_hot = dirty.iter().filter(|&&p| p < 500).count();
        assert!(in_hot as f64 > 0.4 * dirty.len() as f64);
    }

    #[test]
    fn idle_guest_never_dirties() {
        let model = WssModel::idle(100);
        let mut mem = GuestMemory::new(100);
        let mut rng = SimRng::new(2);
        let n = model.dirty_for(SimDuration::from_secs(100), &mut rng, |p| mem.touch(p));
        assert_eq!(n, 0);
        assert!(mem.drain_dirty().none_set());
    }

    #[test]
    #[should_panic(expected = "hot fraction")]
    fn bad_fraction_panics() {
        WssModel::new(100, 1.5, 0.5, 1.0);
    }
}
