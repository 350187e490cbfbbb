//! Fetch planning: partition a migration's owed bitmap across the
//! holder set under per-host NIC budgets.
//!
//! The planner never moves a byte itself — it decides, once per
//! (re-)plan, which class every owed block falls into:
//!
//! * **ref-only** — the destination already holds identical content
//!   (by fingerprint); materialize locally, send nothing.
//! * **any-peer** — a fresh replica holder can serve it; assigned to a
//!   concrete peer, balanced by each peer's max-min bandwidth share.
//! * **source-only** — only the migration source has it.
//!
//! Peer shares come from [`simnet::capacity::max_min_share`] over the
//! destination's ingest capacity and each holder's advertised NIC
//! budget, so fan-in from K peers is bounded by what the destination
//! can absorb and no single holder is pressed beyond what it offered.

use std::collections::BTreeMap;

use block_bitmap::{DirtyMap, FlatBitmap};
use simnet::capacity::max_min_share;
use vdisk::{ContentIndex, MetaDisk};

use crate::directory::BlockDirectory;
use crate::session::BlockWant;

/// The outcome of one planning pass over an owed bitmap.
#[derive(Debug, Clone)]
pub struct FetchPlan {
    /// Owed blocks only the source can serve.
    pub source_only: FlatBitmap,
    /// Owed blocks assigned to a peer holder (union of `per_peer`).
    pub any_peer: FlatBitmap,
    /// Owed blocks whose content the destination already holds.
    pub ref_only: FlatBitmap,
    /// Concrete per-peer assignment of the `any_peer` class.
    pub per_peer: BTreeMap<u64, FlatBitmap>,
    /// Max-min bandwidth share granted to each budgeted peer.
    pub shares: BTreeMap<u64, f64>,
}

impl FetchPlan {
    /// Total owed blocks the plan covers.
    pub fn owed_total(&self) -> usize {
        self.source_only.count_ones() + self.any_peer.count_ones() + self.ref_only.count_ones()
    }

    /// Fraction of owed *full* blocks (those that must actually move)
    /// that arrive from non-source peers. This is the E14 headline
    /// number; ref-only blocks move no bytes so they are excluded.
    pub fn peer_fraction(&self) -> f64 {
        let peers = self.any_peer.count_ones();
        let fulls = peers + self.source_only.count_ones();
        if fulls == 0 {
            0.0
        } else {
            peers as f64 / fulls as f64
        }
    }

    /// The want-list for one peer's fetch session, using the sim
    /// content convention (fingerprint is a pure function of the live
    /// generation, [`BlockDirectory::fingerprint`]). Live migrations
    /// build their want-lists from the freeze-time content manifest
    /// instead.
    pub fn wants_for(&self, peer: u64, live: &MetaDisk) -> Vec<BlockWant> {
        let Some(bm) = self.per_peer.get(&peer) else {
            return Vec::new();
        };
        bm.iter_set()
            .filter(|&b| b < live.num_blocks())
            .map(|b| {
                let generation = live.generation(b);
                BlockWant {
                    block: b as u64,
                    fingerprint: BlockDirectory::fingerprint(generation),
                    generation: generation as u64,
                }
            })
            .collect()
    }
}

/// Stateless planning entry point; see [`FetchPlanner::plan`].
#[derive(Debug, Default)]
pub struct FetchPlanner;

impl FetchPlanner {
    /// Partition `owed` for one migration of `vm`.
    ///
    /// * `dst_resident` — fingerprints already materialized at the
    ///   destination (template image, prior clone); `None` disables the
    ///   ref-only class.
    /// * `peer_budgets` — NIC bandwidth each candidate holder offers
    ///   this migration (same unit as `dest_ingest`); hosts absent from
    ///   the map are never assigned, budget `0.0` means "hold but do
    ///   not serve".
    /// * `dest_ingest` — the destination's ingest capacity; peer shares
    ///   are max-min fair within it. `0.0` forces everything that must
    ///   move onto the source path.
    ///
    /// Assignment is deterministic: blocks are visited in ascending
    /// index order and each goes to the eligible peer with the least
    /// load per unit of share (ties to the lowest host id). Where every
    /// serving peer has the same share and holds a word's every held
    /// block, that rule is a rotation, and the word is dealt out as one.
    pub fn plan(
        dir: &BlockDirectory,
        vm: u64,
        live: &MetaDisk,
        owed: &FlatBitmap,
        dst_resident: Option<&ContentIndex>,
        peer_budgets: &BTreeMap<u64, f64>,
        dest_ingest: f64,
    ) -> FetchPlan {
        let n = live.num_blocks();
        let words = n.div_ceil(64);
        let mut plan = FetchPlan {
            source_only: FlatBitmap::new(n),
            any_peer: FlatBitmap::new(n),
            ref_only: FlatBitmap::new(n),
            per_peer: BTreeMap::new(),
            shares: BTreeMap::new(),
        };

        // Max-min shares over the budgeted holders, in ascending host
        // order (BTreeMap iteration) so the allocation is reproducible.
        let demands: Vec<f64> = peer_budgets.values().copied().collect();
        let alloc = max_min_share(dest_ingest, &demands);
        plan.shares = peer_budgets.keys().copied().zip(alloc).collect();

        // The serving-eligible peers, resolved once into a dense list
        // (still ascending host id): the per-block loop below indexes
        // it and looks nothing up.
        let mut peers: Vec<ServingPeer> = plan
            .shares
            .iter()
            .filter(|(_, &share)| share > 0.0)
            .filter_map(|(&host, &share)| {
                Some(ServingPeer {
                    host,
                    share,
                    fresh: dir.fresh_bitmap(vm, host, live)?,
                    assigned: vec![0; words],
                    load: 0,
                })
            })
            .collect();

        // With every serving peer on one share, least load per share is
        // least load: the cross-products below are one share times two
        // loads (far below 2^52, and the products finite), so the float
        // compare picks what an integer compare picks. Loads that form a
        // staircase (one more on a prefix of the peers) then hand the
        // next block to the first peer past the prefix, and the one after
        // to the next: a word whose held blocks every serving peer holds
        // is dealt out in rotation from `turn`. The per-block weighing
        // below stays for the rest: a word some serving peer holds only
        // part of, and unequal shares, which the per-host budget map
        // admits although the simulator and the benchmark's planning
        // kernel pass one budget for every host (ROADMAP item 9); that
        // part goes when the map does.
        let equal_shares = peers.windows(2).all(|p| p[0].share == p[1].share)
            && peers
                .first()
                .is_none_or(|p| (p.share * n as f64).is_finite());
        let mut turn = equal_shares.then_some(0);
        // One word's deal, a mask per serving peer.
        let mut dealt = vec![0u64; peers.len()];

        // A word of owed blocks at a time: the classes are masks over
        // the word, and only a block some peer holds fresh is weighed
        // peer by peer.
        let (mut source_only, mut any_peer, mut ref_only) =
            (vec![0u64; words], vec![0u64; words], vec![0u64; words]);
        for (w, &owed_word) in owed.words().iter().enumerate().take(words) {
            let live_bits = if (w + 1) * 64 > n {
                (1u64 << (n - w * 64)) - 1
            } else {
                u64::MAX
            };
            let mut todo = owed_word & live_bits;
            if let Some(resident) = dst_resident {
                let mut bits = todo;
                while bits != 0 {
                    let j = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let fp = BlockDirectory::fingerprint(live.generation(w * 64 + j));
                    if resident.contains(fp) {
                        ref_only[w] |= 1 << j;
                    }
                }
                todo &= !ref_only[w];
            }
            let held = peers.iter().fold(0, |acc, p| acc | p.fresh.words()[w]) & todo;
            source_only[w] = todo & !held;
            any_peer[w] = held;
            if held == 0 {
                continue;
            }
            let everywhere = peers
                .iter()
                .fold(u64::MAX, |acc, p| acc & p.fresh.words()[w]);
            if let Some(next) = turn.as_mut().filter(|_| held & !everywhere == 0) {
                let mut bits = held;
                while bits != 0 {
                    dealt[*next] |= bits & bits.wrapping_neg();
                    bits &= bits - 1;
                    *next += 1;
                    if *next == dealt.len() {
                        *next = 0;
                    }
                }
                for (peer, mask) in peers.iter_mut().zip(&mut dealt) {
                    peer.assigned[w] |= *mask;
                    peer.load += mask.count_ones() as usize;
                    *mask = 0;
                }
                continue;
            }

            // Least load per unit of share, scanning ascending host id;
            // strict inequality keeps the lowest id on ties. Comparing
            // cross-products avoids dividing by tiny shares.
            let mut bits = held;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let mut best: Option<usize> = None;
                for (i, peer) in peers.iter().enumerate() {
                    if peer.fresh.words()[w] & bit == 0 {
                        continue;
                    }
                    let better = best.is_none_or(|b| {
                        (peer.load as f64) * peers[b].share < (peers[b].load as f64) * peer.share
                    });
                    if better {
                        best = Some(i);
                    }
                }
                // `held` has the bit only where some peer is fresh.
                if let Some(i) = best {
                    peers[i].assigned[w] |= bit;
                    peers[i].load += 1;
                }
            }
            if equal_shares {
                turn = staircase(&peers);
            }
        }
        plan.source_only = FlatBitmap::from_words(n, source_only);
        plan.any_peer = FlatBitmap::from_words(n, any_peer);
        plan.ref_only = FlatBitmap::from_words(n, ref_only);
        plan.per_peer = peers
            .into_iter()
            .filter(|peer| peer.load > 0)
            .map(|peer| (peer.host, FlatBitmap::from_words(n, peer.assigned)))
            .collect();
        plan
    }
}

/// Where the rotation stands when the peers' loads form a staircase: the
/// first peer of those one below the rest (the first peer when all are
/// level); `None` when they do not.
fn staircase(peers: &[ServingPeer]) -> Option<usize> {
    let top = peers.first()?.load;
    match peers.iter().position(|p| p.load != top) {
        None => Some(0),
        Some(step) => peers[step..]
            .iter()
            .all(|p| p.load + 1 == top)
            .then_some(step),
    }
}

/// One serving-eligible holder inside [`FetchPlanner::plan`]: a positive
/// max-min share and a view of the live geometry.
struct ServingPeer {
    host: u64,
    share: f64,
    /// Blocks the peer holds at the live generation.
    fresh: FlatBitmap,
    /// Words of the owed blocks assigned to the peer so far, and how many.
    assigned: Vec<u64>,
    load: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::random_directory;
    use proptest::prelude::*;
    use vdisk::hash_u64;

    /// The planner as it was before the flat pass: every per-block
    /// question answered by a `BTreeMap` keyed on host id. Kept as the
    /// definition [`FetchPlanner::plan`] must reproduce bit for bit.
    fn plan_reference(
        dir: &BlockDirectory,
        vm: u64,
        live: &MetaDisk,
        owed: &FlatBitmap,
        dst_resident: Option<&ContentIndex>,
        peer_budgets: &BTreeMap<u64, f64>,
        dest_ingest: f64,
    ) -> FetchPlan {
        let n = live.num_blocks();
        let mut plan = FetchPlan {
            source_only: FlatBitmap::new(n),
            any_peer: FlatBitmap::new(n),
            ref_only: FlatBitmap::new(n),
            per_peer: BTreeMap::new(),
            shares: BTreeMap::new(),
        };
        let hosts: Vec<u64> = peer_budgets.keys().copied().collect();
        let demands: Vec<f64> = peer_budgets.values().copied().collect();
        let alloc = max_min_share(dest_ingest, &demands);
        for (host, share) in hosts.iter().copied().zip(alloc) {
            plan.shares.insert(host, share);
        }
        let mut fresh: BTreeMap<u64, FlatBitmap> = BTreeMap::new();
        for (&host, &share) in &plan.shares {
            if share > 0.0 {
                if let Some(bm) = dir.fresh_bitmap(vm, host, live) {
                    fresh.insert(host, bm);
                }
            }
        }
        let mut assigned: BTreeMap<u64, usize> = BTreeMap::new();
        for block in owed.iter_set() {
            if block >= n {
                continue;
            }
            let fp = BlockDirectory::fingerprint(live.generation(block));
            if dst_resident.is_some_and(|idx| idx.contains(fp)) {
                plan.ref_only.set(block);
                continue;
            }
            let mut best: Option<(u64, f64, usize)> = None;
            for (&host, bm) in &fresh {
                if !bm.get(block) {
                    continue;
                }
                let share = plan.shares.get(&host).copied().unwrap_or(0.0);
                let load = assigned.get(&host).copied().unwrap_or(0);
                let better = match best {
                    None => true,
                    Some((_, best_share, best_load)) => {
                        (load as f64) * best_share < (best_load as f64) * share
                    }
                };
                if better {
                    best = Some((host, share, load));
                }
            }
            match best {
                Some((host, _, _)) => {
                    plan.any_peer.set(block);
                    plan.per_peer
                        .entry(host)
                        .or_insert_with(|| FlatBitmap::new(n))
                        .set(block);
                    *assigned.entry(host).or_insert(0) += 1;
                }
                None => {
                    plan.source_only.set(block);
                }
            }
        }
        plan
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The flat pass is the `BTreeMap` planner, bit for bit: over
        /// random holders (stale in runs, wrong geometry, absent),
        /// budgets (zero, absent hosts, hosts that hold nothing), a zero
        /// or tight ingest, sparse owed sets of the wrong length, and the
        /// ref-only class on and off; and over images of many words
        /// every holder holds fresh under one budget (the rotation), the
        /// same with one holder stale in part of a word (rotation and
        /// per-block weighing in turn), and distinct budgets.
        #[test]
        fn flat_planner_equals_the_btreemap_reference(seed in any::<u64>(), shape in 0u8..4) {
            let (dir, live, vm) = match shape {
                0 => random_directory(seed),
                _ => replicated_directory(seed, shape == 2),
            };
            let mut rng = proptest::TestRng::new(!seed);
            let n = live.num_blocks();
            // Hosts 1..=5 may hold the image; 6 and 7 never do.
            let budgets: BTreeMap<u64, f64> = (1..=7u64)
                .filter_map(|h| {
                    let budget = [0.0, 1.0, 40.0, 100.0, 250.0][rng.below(5) as usize];
                    (rng.below(3) > 0).then_some((h, budget))
                })
                .collect();
            // Shapes 1 and 2 give every holder one budget (the rotation's
            // case); shape 3 gives each its own.
            let budgets: BTreeMap<u64, f64> = match shape {
                0 => budgets,
                1 | 2 => budgets.keys().map(|&h| (h, 100.0)).collect(),
                _ => budgets.keys().map(|&h| (h, 10.0 * h as f64)).collect(),
            };
            let ingest = [0.0, 30.0, 150.0, 1e9][rng.below(4) as usize];
            let mut owed = FlatBitmap::new(n + [0, 0, 7, 64][rng.below(4) as usize]);
            let keep = 1 + rng.below(4);
            for b in 0..owed.len() {
                if rng.below(4) < keep {
                    owed.set(b);
                }
            }
            // Content resident at the destination: some of the live
            // generations, by the sim fingerprint convention.
            let resident = ContentIndex::from_fps(
                (0..n)
                    .filter(|_| rng.below(3) == 0)
                    .map(|b| BlockDirectory::fingerprint(live.generation(b)))
                    .collect(),
            );
            for dst_resident in [None, Some(&resident)] {
                let flat =
                    FetchPlanner::plan(&dir, vm, &live, &owed, dst_resident, &budgets, ingest);
                let reference =
                    plan_reference(&dir, vm, &live, &owed, dst_resident, &budgets, ingest);
                prop_assert_eq!(flat.source_only.words(), reference.source_only.words());
                prop_assert_eq!(flat.any_peer.words(), reference.any_peer.words());
                prop_assert_eq!(flat.ref_only.words(), reference.ref_only.words());
                prop_assert_eq!(
                    flat.per_peer.iter().map(|(h, bm)| (*h, bm.to_indices())).collect::<Vec<_>>(),
                    reference.per_peer.iter().map(|(h, bm)| (*h, bm.to_indices())).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    flat.shares.iter().map(|(h, s)| (*h, s.to_bits())).collect::<Vec<_>>(),
                    reference.shares.iter().map(|(h, s)| (*h, s.to_bits())).collect::<Vec<_>>()
                );
            }
        }
    }

    /// A live image of up to ten words that hosts `1..=5` (some of
    /// them) hold at the live generation; with `stale`, one holder's
    /// copy is stale in a run of blocks inside one word.
    fn replicated_directory(seed: u64, stale: bool) -> (BlockDirectory, MetaDisk, u64) {
        let mut rng = proptest::TestRng::new(seed);
        let n = 1 + rng.below(640) as usize;
        let mut live = MetaDisk::installed(n);
        for _ in 0..rng.below(n as u64) {
            live.write(rng.below(n as u64) as usize);
        }
        let mut dir = BlockDirectory::new();
        let holders: Vec<u64> = (1..=5).filter(|_| rng.below(4) > 0).collect();
        for &host in &holders {
            dir.publish(7, host, &live);
        }
        if let Some(&host) = holders.get(rng.below(holders.len() as u64 + 1) as usize) {
            if stale {
                let mut held = live.clone();
                let start = rng.below(n as u64) as usize;
                let end = (start + 1 + rng.below(63) as usize).min(n);
                for b in start..end {
                    held.write(b);
                }
                dir.publish(7, host, held);
            }
        }
        (dir, live, 7)
    }

    fn owed_all(n: usize) -> FlatBitmap {
        FlatBitmap::all_set(n)
    }

    fn budgets(pairs: &[(u64, f64)]) -> BTreeMap<u64, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn no_peers_means_all_source_only() {
        let live = MetaDisk::new(32);
        let dir = BlockDirectory::new();
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(32),
            None,
            &BTreeMap::new(),
            1000.0,
        );
        assert_eq!(plan.source_only.count_ones(), 32);
        assert_eq!(plan.any_peer.count_ones(), 0);
        assert_eq!(plan.owed_total(), 32);
        assert_eq!(plan.peer_fraction(), 0.0);
    }

    #[test]
    fn zero_ingest_forces_source_path() {
        let live = MetaDisk::new(8);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(8),
            None,
            &budgets(&[(10, 500.0)]),
            0.0,
        );
        assert_eq!(plan.source_only.count_ones(), 8);
        assert!(plan.per_peer.is_empty());
    }

    #[test]
    fn fresh_peers_absorb_fulls_balanced() {
        let live = MetaDisk::new(100);
        let mut dir = BlockDirectory::new();
        for host in [10, 11, 12, 13] {
            dir.publish(1, host, live.clone());
        }
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(100),
            None,
            &budgets(&[(10, 250.0), (11, 250.0), (12, 250.0), (13, 250.0)]),
            1000.0,
        );
        assert_eq!(plan.source_only.count_ones(), 0);
        assert_eq!(plan.any_peer.count_ones(), 100);
        assert_eq!(plan.peer_fraction(), 1.0);
        // Equal shares: assignment balanced to exactly 25 each.
        for host in [10, 11, 12, 13] {
            assert_eq!(plan.per_peer.get(&host).map(|b| b.count_ones()), Some(25));
        }
    }

    #[test]
    fn stale_blocks_fall_back_to_source() {
        let mut live = MetaDisk::new(10);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        // Writes after the peer's snapshot make blocks 0..3 stale there.
        for b in 0..3 {
            live.write(b);
        }
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(10),
            None,
            &budgets(&[(10, 100.0)]),
            100.0,
        );
        assert_eq!(plan.source_only.count_ones(), 3);
        assert_eq!(plan.any_peer.count_ones(), 7);
        for b in 0..3 {
            assert!(plan.source_only.get(b));
        }
    }

    #[test]
    fn resident_content_becomes_ref_only() {
        let live = MetaDisk::new(6);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        // Destination already holds content for generation 0 (all blocks).
        let resident = ContentIndex::from_fps(vec![hash_u64(0)]);
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(6),
            Some(&resident),
            &budgets(&[(10, 100.0)]),
            100.0,
        );
        assert_eq!(plan.ref_only.count_ones(), 6);
        assert_eq!(plan.any_peer.count_ones(), 0);
        assert_eq!(plan.source_only.count_ones(), 0);
        // ref-only blocks move no bytes, so peer_fraction has no fulls.
        assert_eq!(plan.peer_fraction(), 0.0);
    }

    #[test]
    fn shares_track_budget_ratios() {
        let live = MetaDisk::new(90);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        dir.publish(1, 11, live.clone());
        // Host 11 offers twice the budget; ingest is the binding cap.
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(90),
            None,
            &budgets(&[(10, 100.0), (11, 200.0)]),
            300.0,
        );
        let s10 = plan.shares.get(&10).copied().unwrap_or(0.0);
        let s11 = plan.shares.get(&11).copied().unwrap_or(0.0);
        assert!((s10 - 100.0).abs() < 1e-9, "s10={s10}");
        assert!((s11 - 200.0).abs() < 1e-9, "s11={s11}");
        // Assignment follows the 1:2 share ratio.
        let a10 = plan.per_peer.get(&10).map(|b| b.count_ones()).unwrap_or(0);
        let a11 = plan.per_peer.get(&11).map(|b| b.count_ones()).unwrap_or(0);
        assert_eq!(a10 + a11, 90);
        assert_eq!(a10, 30, "a10={a10} a11={a11}");
    }

    #[test]
    fn zero_budget_peer_never_serves() {
        let live = MetaDisk::new(12);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        dir.publish(1, 11, live.clone());
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(12),
            None,
            &budgets(&[(10, 0.0), (11, 100.0)]),
            100.0,
        );
        assert!(!plan.per_peer.contains_key(&10));
        assert_eq!(plan.per_peer.get(&11).map(|b| b.count_ones()), Some(12));
    }

    #[test]
    fn wants_for_uses_sim_fingerprint_convention() {
        let mut live = MetaDisk::new(4);
        live.write(1);
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        let plan = FetchPlanner::plan(
            &dir,
            1,
            &live,
            &owed_all(4),
            None,
            &budgets(&[(10, 100.0)]),
            100.0,
        );
        let wants = plan.wants_for(10, &live);
        assert_eq!(wants.len(), 4);
        let w1 = wants.iter().find(|w| w.block == 1).expect("block 1 owed");
        assert_eq!(w1.generation, live.generation(1) as u64);
        assert_eq!(w1.fingerprint, hash_u64(live.generation(1) as u64));
        assert!(plan.wants_for(99, &live).is_empty());
    }

    #[test]
    fn plan_is_deterministic() {
        let mut live = MetaDisk::new(64);
        for b in (0..64).step_by(5) {
            live.write(b);
        }
        let mut dir = BlockDirectory::new();
        dir.publish(1, 10, live.clone());
        dir.publish(1, 11, MetaDisk::new(64));
        let b = budgets(&[(10, 100.0), (11, 80.0)]);
        let p1 = FetchPlanner::plan(&dir, 1, &live, &owed_all(64), None, &b, 150.0);
        let p2 = FetchPlanner::plan(&dir, 1, &live, &owed_all(64), None, &b, 150.0);
        assert_eq!(p1.source_only.words(), p2.source_only.words());
        assert_eq!(p1.any_peer.words(), p2.any_peer.words());
        for host in [10u64, 11] {
            assert_eq!(
                p1.per_peer.get(&host).map(|x| x.words().to_vec()),
                p2.per_peer.get(&host).map(|x| x.words().to_vec())
            );
        }
    }
}
