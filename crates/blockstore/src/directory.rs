//! Cluster-wide block directory: which hosts hold which blocks of
//! which VM image, and at what generation.
//!
//! The directory is the journal-consumer side of the replica story.
//! `vdisk::ReplicaTable` records what a *site* kept behind after a
//! migration; the directory holds those generation vectors (plus any
//! live publishes) as one queryable map, kept current by whoever owns
//! the table: one [`BlockDirectory::publish`] where a replica is
//! recorded, one [`BlockDirectory::retire`] where it is consumed.
//! Freshness is always judged against a caller-supplied live
//! [`MetaDisk`]: a holder entry is never "stale" in the abstract, only
//! relative to the generation the live image has reached.

use std::collections::BTreeMap;

use block_bitmap::{DirtyMap, FlatBitmap};
use vdisk::{hash_u64, MetaDisk, ReplicaTable};

/// A maximal run of blocks over which the fresh-holder set is constant.
///
/// This is the `(vm, block-range, generation) → holder set` shape from
/// the design: consumers that journal or size plans want ranges, not a
/// per-block map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageRange {
    /// First block of the run (inclusive).
    pub start: usize,
    /// One past the last block of the run (exclusive).
    pub end: usize,
    /// Hosts holding every block in the run at the live generation,
    /// ascending host id. Empty means only the source can serve it.
    pub holders: Vec<u64>,
}

/// Content-addressed, generation-aware map from `(vm, host)` to the
/// per-block generation vector the holder had when it last published.
///
/// Keyed on `BTreeMap` so every iteration order — holder lists,
/// coverage runs, plan assignment — is deterministic across runs.
#[derive(Debug, Clone, Default)]
pub struct BlockDirectory {
    holders: BTreeMap<(u64, u64), Vec<u32>>,
}

impl BlockDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Journal-style update: `host` now holds `vm`'s image at the
    /// generations recorded in `disk`. Replaces any previous view for
    /// the same `(vm, host)` pair.
    pub fn publish(&mut self, vm: u64, host: u64, disk: &MetaDisk) {
        self.holders.insert((vm, host), disk.generations().to_vec());
    }

    /// Fold every replica the table knows about for `vm` into the
    /// directory. Sites already present are refreshed in place.
    pub fn merge_replicas(&mut self, vm: u64, table: &ReplicaTable) {
        for site in table.sites_with_replica(vm) {
            if let Some(replica) = table.get(vm, site) {
                self.publish(vm, site, &replica.disk);
            }
        }
    }

    /// Journal-style update: `host` no longer holds `vm`'s image
    /// (evicted, repurposed, or its copy was consumed by a migration).
    pub fn retire(&mut self, vm: u64, host: u64) {
        self.holders.remove(&(vm, host));
    }

    /// Drop every view published by `host` — the host died or left the
    /// cluster. This is what source-death failover calls before
    /// re-planning.
    pub fn retire_host(&mut self, host: u64) {
        self.holders.retain(|&(_, h), _| h != host);
    }

    /// Hosts with any view of `vm`, ascending.
    pub fn holders(&self, vm: u64) -> Vec<u64> {
        self.holders
            .range((vm, 0)..=(vm, u64::MAX))
            .map(|(&(_, host), _)| host)
            .collect()
    }

    /// Every `(host, generation vector)` published for `vm` with
    /// `live`'s geometry, ascending host id. A mismatched holder can
    /// never be trusted to serve, so no freshness query sees it.
    pub fn views<'a>(
        &'a self,
        vm: u64,
        live: &MetaDisk,
    ) -> impl Iterator<Item = (u64, &'a [u32])> + 'a {
        let n = live.num_blocks();
        self.holders
            .range((vm, 0)..=(vm, u64::MAX))
            .filter(move |(_, view)| view.len() == n)
            .map(|(&(_, host), view)| (host, view.as_slice()))
    }

    /// `host`'s view of `vm`, when it has one of `live`'s geometry.
    fn view(&self, vm: u64, host: u64, live: &MetaDisk) -> Option<&[u32]> {
        let view = self.holders.get(&(vm, host))?;
        (view.len() == live.num_blocks()).then_some(view.as_slice())
    }

    /// Number of `(vm, host)` views in the directory.
    pub fn len(&self) -> usize {
        self.holders.len()
    }

    /// True when no holder views are recorded.
    pub fn is_empty(&self) -> bool {
        self.holders.is_empty()
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
    /// Returns `None` when the host has no view of `vm` or its view's
    /// geometry disagrees with `live` (a mismatched holder can never be
    /// trusted to serve, so it contributes no fresh blocks).
    pub fn fresh_bitmap(&self, vm: u64, host: u64, live: &MetaDisk) -> Option<FlatBitmap> {
        Some(fresh_words(self.view(vm, host, live)?, live))
    }

    /// How many blocks of `host`'s view of `vm` are *not* at the live
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

    /// Hosts that hold `block` of `vm` at the live generation,
    /// ascending. Geometry-mismatched views never match.
    pub fn holders_of_block(&self, vm: u64, block: usize, live: &MetaDisk) -> Vec<u64> {
        if block >= live.num_blocks() {
            return Vec::new();
        }
        let want = live.generation(block);
        self.views(vm, live)
            .filter(|(_, view)| view[block] == want)
            .map(|(host, _)| host)
            .collect()
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

    /// Run-length coverage of `vm`'s image: maximal block ranges over
    /// which the fresh-holder set is constant. The concatenation of the
    /// returned ranges is exactly `0..live.num_blocks()`.
    pub fn coverage(&self, vm: u64, live: &MetaDisk) -> Vec<CoverageRange> {
        let n = live.num_blocks();
        let fresh: Vec<(u64, FlatBitmap)> = self
            .views(vm, live)
            .map(|(host, view)| (host, fresh_words(view, live)))
            .collect();
        // The holder set changes exactly where some holder's fresh bit
        // differs from the block before: `w ^ (w << 1 | carry)` marks
        // those blocks a word at a time.
        let mut edges = FlatBitmap::new(n);
        for (_, bm) in &fresh {
            let mut carry = 0u64;
            let flips = bm
                .words()
                .iter()
                .map(|&w| {
                    let flips = w ^ (w << 1 | carry);
                    carry = w >> 63;
                    flips
                })
                .collect();
            edges.union_with(&FlatBitmap::from_words(n, flips));
        }
        let mut runs = Vec::new();
        let mut start = 0;
        while start < n {
            let end = edges.next_set_from(start + 1).unwrap_or(n);
            runs.push(CoverageRange {
                start,
                end,
                holders: fresh
                    .iter()
                    .filter(|(_, bm)| bm.get(start))
                    .map(|&(host, _)| host)
                    .collect(),
            });
            start = end;
        }
        runs
    }
}

/// Bitmap of the blocks where `view` is at `live`'s generation, built a
/// word per 64 blocks: the compare loop carries no per-bit bounds check
/// or read-modify-write of the bitmap.
fn fresh_words(view: &[u32], live: &MetaDisk) -> FlatBitmap {
    let words = view
        .chunks(64)
        .zip(live.generations().chunks(64))
        .map(|(held, want)| {
            held.iter()
                .zip(want)
                .enumerate()
                .fold(0u64, |word, (bit, (a, b))| {
                    word | (u64::from(a == b) << bit)
                })
        })
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
            dir.publish(vm, host, &MetaDisk::new(n + 1));
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

    /// What [`BlockDirectory::coverage`] is defined to equal: the
    /// per-block holder lists, run-length encoded.
    fn coverage_per_block(dir: &BlockDirectory, vm: u64, live: &MetaDisk) -> Vec<CoverageRange> {
        let mut runs: Vec<CoverageRange> = Vec::new();
        for block in 0..live.num_blocks() {
            let holders = dir.holders_of_block(vm, block, live);
            match runs.last_mut() {
                Some(run) if run.holders == holders => run.end = block + 1,
                _ => runs.push(CoverageRange {
                    start: block,
                    end: block + 1,
                    holders,
                }),
            }
        }
        runs
    }

    proptest! {
        /// Coverage runs, fresh bitmaps and stale counts all agree with
        /// the per-block definition, `holders_of_block`.
        #[test]
        fn bulk_queries_equal_the_per_block_definition(seed in any::<u64>()) {
            let (dir, live, vm) = random_directory(seed);
            prop_assert_eq!(dir.coverage(vm, &live), coverage_per_block(&dir, vm, &live));
            for host in 0..=6 {
                let per_block: Vec<usize> = (0..live.num_blocks())
                    .filter(|&b| dir.holders_of_block(vm, b, &live).contains(&host))
                    .collect();
                let fresh = dir.fresh_bitmap(vm, host, &live);
                prop_assert_eq!(
                    fresh.as_ref().map(|bm| bm.to_indices()),
                    dir.views(vm, &live).any(|(h, _)| h == host).then_some(per_block)
                );
                prop_assert_eq!(
                    dir.stale_count(vm, host, &live),
                    fresh.map(|bm| live.num_blocks() - bm.count_ones())
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
        dir.publish(7, 100, &MetaDisk::new(8));

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
        dir.publish(1, 42, &live.clone());
        let fresh = dir.fresh_bitmap(1, 42, &live).expect("view exists");
        assert_eq!(fresh.count_ones(), 16);
    }

    #[test]
    fn geometry_mismatch_yields_none() {
        let live = MetaDisk::new(8);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 5, &MetaDisk::new(9));
        assert!(dir.fresh_bitmap(1, 5, &live).is_none());
        assert!(dir.holders_of_block(1, 0, &live).is_empty());
    }

    #[test]
    fn merge_replicas_imports_all_sites() {
        let live = disk_with_writes(4, &[0]);
        let mut table = ReplicaTable::new();
        table.record(9, 3, live.clone());
        table.record(9, 1, MetaDisk::new(4));
        table.record(8, 2, MetaDisk::new(4)); // other vm: untouched

        let mut dir = BlockDirectory::new();
        dir.merge_replicas(9, &table);
        assert_eq!(dir.holders(9), vec![1, 3]);
        assert!(dir.holders(8).is_empty());

        // Site 3 kept an exact copy; site 1 predates the write to 0.
        assert_eq!(
            dir.fresh_bitmap(9, 3, &live).expect("site 3").count_ones(),
            4
        );
        assert_eq!(
            dir.fresh_bitmap(9, 1, &live).expect("site 1").count_ones(),
            3
        );
    }

    #[test]
    fn retire_and_retire_host() {
        let disk = MetaDisk::new(2);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, &disk);
        dir.publish(1, 11, &disk);
        dir.publish(2, 10, &disk);
        assert_eq!(dir.len(), 3);

        dir.retire(1, 10);
        assert_eq!(dir.holders(1), vec![11]);

        dir.retire_host(10);
        assert_eq!(dir.holders(2), Vec::<u64>::new());
        assert_eq!(dir.len(), 1);
    }

    #[test]
    fn holders_of_block_is_ascending_and_generation_exact() {
        let live = disk_with_writes(4, &[2]);
        let mut dir = BlockDirectory::new();
        dir.publish(5, 30, &live.clone());
        dir.publish(5, 20, &live.clone());
        dir.publish(5, 25, &MetaDisk::new(4)); // stale at block 2

        assert_eq!(dir.holders_of_block(5, 2, &live), vec![20, 30]);
        assert_eq!(dir.holders_of_block(5, 0, &live), vec![20, 25, 30]);
        assert!(dir.holders_of_block(5, 99, &live).is_empty());
    }

    #[test]
    fn coverage_runs_partition_the_image() {
        let live = disk_with_writes(6, &[2, 3]);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 50, &MetaDisk::new(6)); // fresh except 2,3

        let runs = dir.coverage(1, &live);
        assert_eq!(
            runs,
            vec![
                CoverageRange {
                    start: 0,
                    end: 2,
                    holders: vec![50]
                },
                CoverageRange {
                    start: 2,
                    end: 4,
                    holders: vec![]
                },
                CoverageRange {
                    start: 4,
                    end: 6,
                    holders: vec![50]
                },
            ]
        );
        // Ranges tile the whole image.
        assert_eq!(runs.first().map(|r| r.start), Some(0));
        assert_eq!(runs.last().map(|r| r.end), Some(6));
    }

    #[test]
    fn best_holder_prefers_widest_owed_coverage() {
        let live = disk_with_writes(8, &[6]);
        let mut dir = BlockDirectory::new();
        // Site 10: fresh everywhere except block 6. Site 20: an exact
        // copy. Site 30: geometry mismatch, never trusted.
        dir.publish(1, 10, &MetaDisk::new(8));
        dir.publish(1, 20, &live.clone());
        dir.publish(1, 30, &MetaDisk::new(9));

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
        dir.publish(2, 7, &live.clone());
        dir.publish(2, 3, &live.clone());
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
