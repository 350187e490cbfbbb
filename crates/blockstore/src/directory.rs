//! Cluster-wide block directory: the one store of the images hosts kept
//! of each VM, and the queries that say which blocks they hold at the
//! live generation.
//!
//! Incremental migration (§V) pays because the host a VM left still
//! holds its image; §VII generalises this to "version maintenance among
//! any recently used physical machines". The directory keeps those
//! images, `(vm, host) → MetaDisk`: one [`BlockDirectory::publish`] where
//! a host keeps an image, one [`BlockDirectory::retire`] where an
//! incoming migration consumes it. Freshness is always judged against a
//! caller-supplied live [`MetaDisk`]: a kept image is never "stale" in the
//! abstract, only relative to the generation the live image has reached.

use std::collections::BTreeMap;

use block_bitmap::{DirtyMap, FlatBitmap};
use vdisk::{hash_u64, MetaDisk};

/// Content-addressed, generation-aware map from `(vm, host)` to the image
/// the host kept of the VM.
///
/// Keyed on `BTreeMap` so every iteration order — holder lists, plan
/// assignment — is deterministic across runs.
#[derive(Debug, Clone, Default)]
pub struct BlockDirectory {
    images: BTreeMap<(u64, u64), MetaDisk>,
}

impl BlockDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// `host` now holds `vm`'s image as `disk` records it (the image a
    /// departing VM left behind, a failed stream's partial copy, a
    /// template clone). Replaces any image kept for the same pair. An
    /// image handed in by value is kept as it is; one handed in by
    /// reference is cloned.
    pub fn publish(&mut self, vm: u64, host: u64, disk: impl Into<MetaDisk>) {
        self.images.insert((vm, host), disk.into());
    }

    /// `host` no longer holds `vm`'s image (an incoming migration
    /// consumed it): remove and return it.
    pub fn retire(&mut self, vm: u64, host: u64) -> Option<MetaDisk> {
        self.images.remove(&(vm, host))
    }

    /// The image `host` kept of `vm`, whatever its geometry.
    pub fn image(&self, vm: u64, host: u64) -> Option<&MetaDisk> {
        self.images.get(&(vm, host))
    }

    /// Hosts holding an image of `vm`, ascending.
    pub fn holders(&self, vm: u64) -> Vec<u64> {
        self.of(vm).map(|(host, _)| host).collect()
    }

    /// Every `(host, generation vector)` kept of `vm` with `live`'s
    /// geometry, ascending host id. A mismatched image can never be
    /// trusted to serve, so no freshness query sees it.
    pub fn views<'a>(
        &'a self,
        vm: u64,
        live: &MetaDisk,
    ) -> impl Iterator<Item = (u64, &'a [u32])> + 'a {
        let n = live.num_blocks();
        self.of(vm)
            .filter(move |(_, held)| held.num_blocks() == n)
            .map(|(host, held)| (host, held.generations()))
    }

    /// Every `(host, image)` kept of `vm`, ascending host id.
    fn of(&self, vm: u64) -> impl Iterator<Item = (u64, &MetaDisk)> + '_ {
        self.images
            .range((vm, 0)..=(vm, u64::MAX))
            .map(|(&(_, host), held)| (host, held))
    }

    /// `host`'s generation vector of `vm`, when its image has `live`'s
    /// geometry.
    fn view(&self, vm: u64, host: u64, live: &MetaDisk) -> Option<&[u32]> {
        let held = self.image(vm, host)?;
        (held.num_blocks() == live.num_blocks()).then_some(held.generations())
    }

    /// Number of `(vm, host)` images in the directory.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True when no host holds an image.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// The sim-wide content fingerprint of a block at `generation`.
    ///
    /// The simulation convention (established by the PR-7 dedup path)
    /// is that equal generation values imply equal content globally, so
    /// a block's fingerprint is a pure function of its generation.
    pub fn fingerprint(generation: u32) -> u64 {
        hash_u64(generation as u64)
    }

    /// Bitmap of blocks `host` holds at exactly the live generation.
    ///
    /// Returns `None` when the host holds no image of `vm` or its
    /// image's geometry disagrees with `live` (a mismatched holder can
    /// never be trusted to serve, so it contributes no fresh blocks).
    pub fn fresh_bitmap(&self, vm: u64, host: u64, live: &MetaDisk) -> Option<FlatBitmap> {
        Some(fresh_words(self.view(vm, host, live)?, live))
    }

    /// How many blocks of `host`'s image of `vm` are *not* at the live
    /// generation — the first-pass size of an incremental hop onto that
    /// host. `None` exactly when [`BlockDirectory::fresh_bitmap`] is.
    pub fn stale_count(&self, vm: u64, host: u64, live: &MetaDisk) -> Option<usize> {
        let view = self.view(vm, host, live)?;
        Some(
            view.iter()
                .zip(live.generations())
                .filter(|(a, b)| a != b)
                .count(),
        )
    }

    /// Partition-driven failover planning: among `allowed` sites (the
    /// holders still reachable from the destination after a partition or
    /// host loss), pick the one that can serve the most blocks of `owed`
    /// at the live generation. Returns the chosen site and the bitmap of
    /// owed blocks it can serve; `None` when no allowed site serves any
    /// owed block. Ties break to the lowest site id, so the plan is a
    /// pure function of the directory state.
    pub fn best_holder(
        &self,
        vm: u64,
        live: &MetaDisk,
        owed: &FlatBitmap,
        allowed: &[u64],
    ) -> Option<(u64, FlatBitmap)> {
        let mut best: Option<(u64, FlatBitmap, usize)> = None;
        for &site in allowed {
            let Some(fresh) = self.fresh_bitmap(vm, site, live) else {
                continue;
            };
            let mut servable = fresh;
            servable.intersect_with(owed);
            let count = servable.count_ones();
            if count == 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((s, _, c)) => count > *c || (count == *c && site < *s),
            };
            if better {
                best = Some((site, servable, count));
            }
        }
        best.map(|(site, servable, _)| (site, servable))
    }
}

/// Bitmap of the blocks where `view` is at `live`'s generation, a word
/// per 64 blocks ([`MetaDisk::agreement`]).
fn fresh_words(view: &[u32], live: &MetaDisk) -> FlatBitmap {
    let words = (0..view.len().div_ceil(64))
        .map(|w| live.agreement(w, view))
        .collect();
    FlatBitmap::from_words(view.len(), words)
}

/// A seeded directory for the property tests here and in the planner:
/// one live image of `1..=200` blocks written in bursts, up to five
/// holders (hosts `1..=5`) that snapshot it at different ages — so
/// their fresh sets differ in runs — and now and then a holder of the
/// wrong geometry. Returns the directory, the live image and the VM id.
#[cfg(test)]
pub(crate) fn random_directory(seed: u64) -> (BlockDirectory, MetaDisk, u64) {
    let mut rng = proptest::TestRng::new(seed);
    let n = 1 + rng.below(200) as usize;
    let vm = rng.below(3);
    let mut live = MetaDisk::new(n);
    let mut dir = BlockDirectory::new();
    for host in 1..=rng.below(6) {
        // A burst of writes: a contiguous stretch plus scattered blocks.
        let start = rng.below(n as u64) as usize;
        let len = rng.below(n as u64 / 2 + 1) as usize;
        for b in start..(start + len).min(n) {
            live.write(b);
        }
        for _ in 0..rng.below(8) {
            live.write(rng.below(n as u64) as usize);
        }
        if rng.below(8) == 0 {
            dir.publish(vm, host, MetaDisk::new(n + 1));
        } else {
            dir.publish(vm, host, &live);
        }
    }
    for _ in 0..rng.below(n as u64 / 4 + 1) {
        live.write(rng.below(n as u64) as usize);
    }
    // Another VM's holder never shows up in this VM's answers.
    dir.publish(vm + 1, 1, &live);
    (dir, live, vm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Fresh bitmaps and stale counts agree with the per-block
        /// definition: a block is fresh where the held generation equals
        /// the live one, and an image of another geometry has neither.
        #[test]
        fn bulk_queries_equal_the_per_block_definition(seed in any::<u64>()) {
            let (dir, live, vm) = random_directory(seed);
            let n = live.num_blocks();
            for host in 0..=6 {
                let per_block = dir
                    .image(vm, host)
                    .filter(|held| held.num_blocks() == n)
                    .map(|held| {
                        (0..n)
                            .filter(|&b| held.generation(b) == live.generation(b))
                            .collect::<Vec<_>>()
                    });
                let fresh = dir.fresh_bitmap(vm, host, &live);
                prop_assert_eq!(fresh.as_ref().map(|bm| bm.to_indices()), per_block);
                prop_assert_eq!(
                    dir.stale_count(vm, host, &live),
                    fresh.map(|bm| n - bm.count_ones())
                );
            }
        }
    }

    fn disk_with_writes(n: usize, writes: &[usize]) -> MetaDisk {
        let mut d = MetaDisk::new(n);
        for &b in writes {
            d.write(b);
        }
        d
    }

    #[test]
    fn publish_then_fresh_bitmap_tracks_generation_match() {
        let mut live = MetaDisk::new(8);
        live.write(2);
        live.write(5);

        let mut dir = BlockDirectory::new();
        // Peer snapshotted the image *before* the writes to 2 and 5.
        dir.publish(7, 100, MetaDisk::new(8));

        let fresh = dir.fresh_bitmap(7, 100, &live).expect("view exists");
        assert_eq!(fresh.count_ones(), 6);
        assert!(!fresh.get(2));
        assert!(!fresh.get(5));
        assert!(fresh.get(0));
    }

    #[test]
    fn exact_copy_is_fully_fresh() {
        let live = disk_with_writes(16, &[1, 3, 9]);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 42, live.clone());
        let fresh = dir.fresh_bitmap(1, 42, &live).expect("view exists");
        assert_eq!(fresh.count_ones(), 16);
    }

    #[test]
    fn geometry_mismatch_yields_none() {
        let live = MetaDisk::new(8);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 5, MetaDisk::new(9));
        assert!(dir.fresh_bitmap(1, 5, &live).is_none());
        assert_eq!(dir.views(1, &live).count(), 0);
    }

    #[test]
    fn best_holder_prefers_widest_owed_coverage() {
        let live = disk_with_writes(8, &[6]);
        let mut dir = BlockDirectory::new();
        // Site 10: fresh everywhere except block 6. Site 20: an exact
        // copy. Site 30: geometry mismatch, never trusted.
        dir.publish(1, 10, MetaDisk::new(8));
        dir.publish(1, 20, live.clone());
        dir.publish(1, 30, MetaDisk::new(9));

        let mut owed = FlatBitmap::new(8);
        owed.set(5);
        owed.set(6);

        // All sites reachable: site 20 serves both owed blocks.
        let (site, servable) = dir
            .best_holder(1, &live, &owed, &[10, 20, 30])
            .expect("a holder serves");
        assert_eq!(site, 20);
        assert_eq!(servable.count_ones(), 2);

        // Partition cuts site 20 off: site 10 still serves block 5.
        let (site, servable) = dir
            .best_holder(1, &live, &owed, &[10, 30])
            .expect("fallback holder");
        assert_eq!(site, 10);
        assert_eq!(servable.count_ones(), 1);
        assert!(servable.get(5) && !servable.get(6));

        // Nobody reachable serves anything owed.
        assert!(dir.best_holder(1, &live, &owed, &[30]).is_none());
        assert!(dir.best_holder(1, &live, &owed, &[]).is_none());
    }

    #[test]
    fn best_holder_ties_break_to_lowest_site() {
        let live = disk_with_writes(4, &[]);
        let mut dir = BlockDirectory::new();
        dir.publish(2, 7, live.clone());
        dir.publish(2, 3, live.clone());
        let owed = FlatBitmap::all_set(4);
        let (site, servable) = dir
            .best_holder(2, &live, &owed, &[7, 3])
            .expect("both serve");
        assert_eq!(site, 3, "equal coverage resolves to the lowest site");
        assert_eq!(servable.count_ones(), 4);
    }

    #[test]
    fn fingerprint_is_generation_pure() {
        assert_eq!(
            BlockDirectory::fingerprint(3),
            BlockDirectory::fingerprint(3)
        );
        assert_ne!(
            BlockDirectory::fingerprint(3),
            BlockDirectory::fingerprint(4)
        );
        assert_eq!(BlockDirectory::fingerprint(3), hash_u64(3));
    }
}
