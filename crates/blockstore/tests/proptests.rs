//! Property tests for the fleet's one replica store: `BlockDirectory`
//! against a naive reference model (a plain map of generation-vector
//! snapshots), and an image of another geometry read as absent.

use std::collections::HashMap;

use block_bitmap::DirtyMap;
use blockstore::BlockDirectory;
use proptest::prelude::*;
use vdisk::MetaDisk;

const BLOCKS: usize = 64;

proptest! {
    /// The directory agrees with the naive model under any interleaving
    /// of guest writes, kept images and consumed ones — the contract the
    /// IM-aware scheduler, failover re-plans and fan-in planning are
    /// built on: `publish` replaces, `retire` returns the image and
    /// removes it, `holders` is ascending, and the freshness queries
    /// match the snapshot.
    #[test]
    fn directory_matches_naive_model(
        ops in prop::collection::vec(
            (0u8..3, 0u64..3, 0u64..4, 0usize..BLOCKS),
            0..150,
        ),
    ) {
        const VMS: u64 = 3;
        const SITES: u64 = 4;
        let mut dir = BlockDirectory::new();
        // The reference: (vm, site) -> generation snapshot.
        let mut naive: HashMap<(u64, u64), Vec<u32>> = HashMap::new();
        // One live image per VM, shared by both models.
        let mut live: Vec<MetaDisk> = (0..VMS).map(|_| MetaDisk::new(BLOCKS)).collect();
        for (step, &(op, vm, site, block)) in ops.iter().enumerate() {
            match op {
                // A guest write on the live image.
                0 => {
                    live[vm as usize].write(block);
                }
                // The VM departs `site`, leaving today's image behind:
                // handed over by value and by reference on alternate
                // steps, so both forms meet the one model.
                1 => {
                    if step % 2 == 0 {
                        dir.publish(vm, site, live[vm as usize].clone());
                    } else {
                        dir.publish(vm, site, &live[vm as usize]);
                    }
                    let snapshot: Vec<u32> =
                        (0..BLOCKS).map(|b| live[vm as usize].generation(b)).collect();
                    naive.insert((vm, site), snapshot);
                }
                // An incremental migration consumes the stale copy.
                _ => {
                    let took = dir.retire(vm, site);
                    prop_assert_eq!(
                        took.map(|d| d.generations().to_vec()),
                        naive.remove(&(vm, site))
                    );
                    prop_assert!(dir.image(vm, site).is_none());
                }
            }
        }
        prop_assert_eq!(dir.len(), naive.len());
        prop_assert_eq!(dir.is_empty(), naive.is_empty());
        for vm in 0..VMS {
            let mut expected_sites: Vec<u64> = naive
                .keys()
                .filter(|(v, _)| *v == vm)
                .map(|&(_, s)| s)
                .collect();
            expected_sites.sort_unstable();
            prop_assert_eq!(dir.holders(vm), expected_sites);
            let now = &live[vm as usize];
            for site in 0..SITES {
                match naive.get(&(vm, site)) {
                    None => {
                        prop_assert!(dir.image(vm, site).is_none());
                        prop_assert!(dir.fresh_bitmap(vm, site, now).is_none());
                        prop_assert!(dir.stale_count(vm, site, now).is_none());
                    }
                    Some(snapshot) => {
                        let held = dir.image(vm, site).expect("naive says present");
                        prop_assert_eq!(held.generations(), snapshot.as_slice());
                        let (fresh, stale): (Vec<usize>, Vec<usize>) =
                            (0..BLOCKS).partition(|&b| now.generation(b) == snapshot[b]);
                        prop_assert_eq!(dir.stale_count(vm, site, now), Some(stale.len()));
                        let bm = dir.fresh_bitmap(vm, site, now).expect("usable image");
                        prop_assert_eq!(bm.to_indices(), fresh);
                    }
                }
            }
        }
    }

    /// An image of a resized disk reads as absent from every freshness
    /// query (`None`), while the entry itself survives for when the
    /// geometry matches again.
    #[test]
    fn directory_geometry_mismatch_is_absence(
        records in prop::collection::vec((0u64..3, 0u64..3), 1..20),
        grow in 1usize..32,
    ) {
        let mut dir = BlockDirectory::new();
        for &(vm, site) in &records {
            dir.publish(vm, site, MetaDisk::new(BLOCKS));
        }
        let resized = MetaDisk::new(BLOCKS + grow);
        for &(vm, site) in &records {
            prop_assert!(dir.image(vm, site).is_some(), "the entry itself survives");
            prop_assert!(dir.holders(vm).contains(&site));
            prop_assert!(dir.fresh_bitmap(vm, site, &resized).is_none());
            prop_assert!(dir.stale_count(vm, site, &resized).is_none());
            prop_assert_eq!(dir.views(vm, &resized).count(), 0);
        }
    }
}
