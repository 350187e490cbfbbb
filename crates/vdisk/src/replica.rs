//! First-class stale-replica table for incremental migration.
//!
//! §V of the paper: when a VM returns to a machine it recently left, the
//! machine still holds the disk image from the departure, so only the
//! blocks written since — the bitmap diff — need to cross the wire. §VII
//! names the generalization "local disk storage version maintenance …
//! among any recently used physical machines". [`ReplicaTable`] is that
//! mechanism as a standalone structure: a map from (VM, site) to the
//! [`MetaDisk`] image the site kept at the VM's last departure, with
//! staleness computed on demand by diffing generation vectors into a
//! [`FlatBitmap`].
//!
//! The cluster orchestrator keeps the fleet's table; its IM-aware
//! placement ranks candidate destinations by the same staleness, read
//! through the block directory kept beside the table.

use std::collections::BTreeMap;

use block_bitmap::{DirtyMap, FlatBitmap};

use crate::MetaDisk;

/// One remembered disk image: what a site held when the VM departed.
#[derive(Debug, Clone)]
pub struct Replica {
    /// The image as of the VM's last departure from the site.
    pub disk: MetaDisk,
    /// How many departures have refreshed this replica.
    pub departures: u64,
}

/// Map from (VM, site) to the stale replica the site keeps.
///
/// Keys are plain `u64` identifiers so the table is agnostic to how the
/// caller names VMs and machines (the orchestrator uses host indices). Iteration order is the
/// `BTreeMap` key order, so every traversal is deterministic.
#[derive(Debug, Clone, Default)]
pub struct ReplicaTable {
    replicas: BTreeMap<(u64, u64), Replica>,
}

impl ReplicaTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `disk` as the replica site `site` keeps for `vm`,
    /// replacing any older replica for the pair.
    pub fn record(&mut self, vm: u64, site: u64, disk: MetaDisk) {
        let departures = self.replicas.get(&(vm, site)).map_or(0, |r| r.departures);
        self.replicas.insert(
            (vm, site),
            Replica {
                disk,
                departures: departures + 1,
            },
        );
    }

    /// The replica site `site` keeps for `vm`, if any.
    pub fn get(&self, vm: u64, site: u64) -> Option<&Replica> {
        self.replicas.get(&(vm, site))
    }

    /// Remove and return the replica for (vm, site) — the destination
    /// consumes its stale copy when an incremental migration starts.
    pub fn take(&mut self, vm: u64, site: u64) -> Option<Replica> {
        self.replicas.remove(&(vm, site))
    }

    /// `true` when site `site` holds a replica of `vm`.
    pub fn has(&self, vm: u64, site: u64) -> bool {
        self.replicas.contains_key(&(vm, site))
    }

    /// Sites holding a replica of `vm`, ascending.
    pub fn sites_with_replica(&self, vm: u64) -> Vec<u64> {
        self.replicas
            .keys()
            .filter(|(v, _)| *v == vm)
            .map(|(_, s)| *s)
            .collect()
    }

    /// Staleness of site `site`'s replica of `vm` against the live image:
    /// a bitmap of every block whose generation differs. `None` when the
    /// site holds no replica or the geometries disagree (a replica of a
    /// resized disk is useless and treated as absent).
    pub fn stale_bitmap(&self, vm: u64, site: u64, live: &MetaDisk) -> Option<FlatBitmap> {
        let replica = self.replicas.get(&(vm, site))?;
        if replica.disk.num_blocks() != live.num_blocks() {
            return None;
        }
        let mut bm = FlatBitmap::new(live.num_blocks());
        for b in live.diff_blocks(&replica.disk) {
            bm.set(b);
        }
        Some(bm)
    }

    /// Number of stale blocks in site `site`'s replica of `vm`, or `None`
    /// when no usable replica exists. The IM-aware scheduler's ranking key.
    pub fn stale_count(&self, vm: u64, site: u64, live: &MetaDisk) -> Option<usize> {
        self.stale_bitmap(vm, site, live).map(|bm| bm.count_ones())
    }

    /// Total replicas stored, across all VMs and sites.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// `true` when no replica is stored.
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_pair_has_no_replica() {
        let t = ReplicaTable::new();
        let live = MetaDisk::new(8);
        assert!(!t.has(0, 0));
        assert!(t.stale_bitmap(0, 0, &live).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn stale_bitmap_is_exactly_the_diff() {
        let mut t = ReplicaTable::new();
        let mut live = MetaDisk::new(16);
        live.write(3);
        t.record(7, 2, live.clone());
        // No writes since departure: nothing stale.
        let bm = t.stale_bitmap(7, 2, &live).expect("replica exists");
        assert_eq!(bm.count_ones(), 0);
        // Writes since departure: exactly those blocks are stale.
        live.write(5);
        live.write(9);
        live.write(5);
        let bm = t.stale_bitmap(7, 2, &live).expect("replica exists");
        assert_eq!(bm.to_indices(), vec![5, 9]);
        assert_eq!(t.stale_count(7, 2, &live), Some(2));
    }

    #[test]
    fn record_refreshes_and_counts_departures() {
        let mut t = ReplicaTable::new();
        let mut live = MetaDisk::new(4);
        t.record(1, 0, live.clone());
        live.write(2);
        t.record(1, 0, live.clone());
        let r = t.get(1, 0).expect("replica");
        assert_eq!(r.departures, 2);
        assert_eq!(t.stale_count(1, 0, &live), Some(0));
    }

    #[test]
    fn take_consumes_the_replica() {
        let mut t = ReplicaTable::new();
        t.record(1, 3, MetaDisk::new(4));
        assert!(t.take(1, 3).is_some());
        assert!(t.take(1, 3).is_none());
        assert!(!t.has(1, 3));
    }

    #[test]
    fn sites_with_replica_is_sorted_and_per_vm() {
        let mut t = ReplicaTable::new();
        t.record(1, 5, MetaDisk::new(4));
        t.record(1, 2, MetaDisk::new(4));
        t.record(9, 0, MetaDisk::new(4));
        assert_eq!(t.sites_with_replica(1), vec![2, 5]);
        assert_eq!(t.sites_with_replica(9), vec![0]);
        assert!(t.sites_with_replica(3).is_empty());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn geometry_mismatch_reads_as_no_replica() {
        let mut t = ReplicaTable::new();
        t.record(0, 0, MetaDisk::new(4));
        let live = MetaDisk::new(8);
        assert!(t.stale_bitmap(0, 0, &live).is_none());
    }
}
