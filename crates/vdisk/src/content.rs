//! Content addressing for block transfer: fingerprints and the
//! destination-side index.
//!
//! The migration data plane ships a 16-byte *reference* instead of a
//! full block whenever the destination can prove it already holds the
//! block's content (DESIGN.md §15). Two pieces live here:
//!
//! * [`hash_block`] — a hand-rolled, dependency-free 64-bit block hash
//!   in the xxhash/FxHash family. The hot path is word-batched (four
//!   independent accumulator lanes over 32-byte stripes, the same
//!   batching trick as `block-bitmap`'s `zip_words_in_place`), with a
//!   byte-assembled scalar twin ([`hash_block_scalar`]) that computes
//!   the *identical* function — property tests pin the two together so
//!   tail handling and endianness can never drift.
//! * [`ContentIndex`] — fingerprint → resident block(s) for one disk,
//!   maintained as blocks are overwritten, so the destination can
//!   answer "already have it" and resolve a reference to a local copy;
//!   and [`FingerprintSet`], the source's "the destination has this"
//!   set, on the same flat table.
//!
//! A fingerprint match is always treated as a *hint*: the destination
//! re-hashes the resident block before reusing it and falls back to a
//! full send on mismatch, so images stay bit-identical under any hash
//! behaviour (including adversarial collisions).
//!
//! This file is in the transport lint zone (DESIGN.md §11): it runs
//! inline on receive paths and must never panic.

// Lint zones (DESIGN.md §11): transport.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

use block_bitmap::{DirtyMap, FlatBitmap};

// xxh64 prime constants — the multipliers are odd and high-entropy,
// which is all the mixing below needs.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc)).wrapping_mul(P1).wrapping_add(P4)
}

/// Final avalanche: every input bit affects every output bit.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^= h >> 32;
    h
}

/// Mix a single word into a 64-bit fingerprint (splitmix-style). Used
/// for metadata-driven fingerprints in the simulated engines, where a
/// block's content *is* its generation counter.
#[inline]
pub fn hash_u64(v: u64) -> u64 {
    avalanche(v.wrapping_mul(P1).wrapping_add(P5))
}

/// 64-bit content fingerprint of a block — word-batched hot path.
///
/// Four accumulator lanes consume 32-byte stripes via `chunks_exact`,
/// then the sub-stripe tail is folded in 8 bytes at a time and finally
/// byte-wise, with the total length mixed in before the avalanche.
pub fn hash_block(data: &[u8]) -> u64 {
    let mut h: u64;
    let mut stripes = data.chunks_exact(32);
    if data.len() >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        for s in stripes.by_ref() {
            // Four independent lanes: the multiplies pipeline instead
            // of serialising on one accumulator.
            for (a, w) in acc.iter_mut().zip(s.chunks_exact(8)) {
                let lane = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
                *a = round(*a, lane);
            }
        }
        h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = merge_round(h, a);
        }
    } else {
        h = P5;
    }
    h = h.wrapping_add(data.len() as u64);
    let tail = stripes.remainder();
    let mut words = tail.chunks_exact(8);
    for w in words.by_ref() {
        let lane = u64::from_le_bytes([w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]]);
        h = (h ^ round(0, lane))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    avalanche(h)
}

/// Byte-at-a-time twin of [`hash_block`]: identical function, no
/// `chunks_exact`, every word assembled from individual byte loads.
/// Exists so property tests can pin the batched path to a reference.
pub fn hash_block_scalar(data: &[u8]) -> u64 {
    #[inline]
    fn word_at(data: &[u8], i: usize) -> u64 {
        let mut w = 0u64;
        for k in 0..8 {
            w |= u64::from(*data.get(i + k).unwrap_or(&0)) << (8 * k);
        }
        w
    }
    let n = data.len();
    let mut h: u64;
    let mut i = 0usize;
    if n >= 32 {
        let mut acc = [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)];
        while i + 32 <= n {
            for (j, a) in acc.iter_mut().enumerate() {
                *a = round(*a, word_at(data, i + 8 * j));
            }
            i += 32;
        }
        h = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        for a in acc {
            h = merge_round(h, a);
        }
    } else {
        h = P5;
    }
    h = h.wrapping_add(n as u64);
    while i + 8 <= n {
        h = (h ^ round(0, word_at(data, i)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
        i += 8;
    }
    while i < n {
        let b = u64::from(*data.get(i).unwrap_or(&0));
        h = (h ^ b.wrapping_mul(P5)).rotate_left(11).wrapping_mul(P1);
        i += 1;
    }
    avalanche(h)
}

/// "No id": an empty table slot, the end of a holder chain.
const NIL: u32 = u32::MAX;

/// Fingerprints are already avalanched, but callers (and tests) may hand
/// in small integers: one more odd multiply spreads those too, and the
/// table takes the product's high bits.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// Open-addressing table of `u32` ids keyed by fingerprint, where the
/// keys live in a slice the owner passes to every call: id `i`'s key is
/// `keys[i]`. Slots hold only the id, so the table is 4 bytes per slot
/// and the owner's array — which it needs anyway — is the key store.
///
/// Linear probing over a power-of-two capacity, deletion by backward
/// shift (no tombstones, so probe runs never degrade). Hand-rolled over
/// a `Vec` because this directory is in the deterministic lint zone
/// (no `HashMap`: no random state) and this file in the transport zone;
/// every probe loop is bounded by the capacity.
#[derive(Debug, Clone)]
struct IdTable {
    /// The id in each slot; [`NIL`] marks it empty.
    slots: Vec<u32>,
    /// `64 - log2(capacity)`: a key's home slot is its spread hash's top
    /// bits.
    shift: u32,
    /// Occupied slots.
    len: usize,
}

impl IdTable {
    /// A table that holds `entries` ids at no more than half load.
    fn with_room_for(entries: usize) -> Self {
        let capacity = entries.saturating_mul(2).max(2).next_power_of_two();
        Self {
            slots: vec![NIL; capacity],
            shift: 64 - capacity.trailing_zeros(),
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, fp: u64) -> usize {
        (fp.wrapping_mul(SPREAD) >> self.shift) as usize
    }

    /// The slot whose id has key `fp` (`Ok`), or the empty slot where
    /// such an id would go (`Err`). A table with no empty slot — owners
    /// keep the load under one — reports `Err(capacity)`, which `put`
    /// ignores.
    fn find(&self, keys: &[u64], fp: u64) -> Result<usize, usize> {
        let mask = self.mask();
        let mut at = self.home(fp);
        for _ in 0..self.slots.len() {
            match self.slots.get(at) {
                Some(&NIL) | None => return Err(at),
                Some(&id) if keys.get(id as usize) == Some(&fp) => return Ok(at),
                Some(_) => at = (at + 1) & mask,
            }
        }
        Err(self.slots.len())
    }

    /// The id with key `fp`, if any.
    fn get(&self, keys: &[u64], fp: u64) -> Option<u32> {
        let at = self.find(keys, fp).ok()?;
        self.slots.get(at).copied()
    }

    /// Store `id` in slot `at` (one [`IdTable::find`] returned): an empty
    /// slot becomes occupied, an occupied one changes its id.
    fn put(&mut self, at: usize, id: u32) {
        if let Some(slot) = self.slots.get_mut(at) {
            if *slot == NIL {
                self.len += 1;
            }
            *slot = id;
        }
    }

    /// Empty the occupied slot `at`, closing the gap so later ids of its
    /// probe run stay reachable: each following id moves back into the
    /// hole unless its home slot lies cyclically after the hole.
    fn remove(&mut self, keys: &[u64], at: usize) {
        let mask = self.mask();
        let mut hole = at;
        let mut j = at;
        for _ in 0..self.slots.len() {
            j = (j + 1) & mask;
            let Some(&id) = self.slots.get(j).filter(|&&id| id != NIL) else {
                break;
            };
            let Some(&key) = keys.get(id as usize) else {
                break;
            };
            if (j.wrapping_sub(self.home(key)) & mask) >= (j.wrapping_sub(hole) & mask) {
                if let Some(h) = self.slots.get_mut(hole) {
                    *h = id;
                }
                hole = j;
            }
        }
        if let Some(h) = self.slots.get_mut(hole) {
            *h = NIL;
        }
        self.len -= 1;
    }
}

/// A set of fingerprints — the source's view of what the destination can
/// resolve. An [`IdTable`] over the list of members, doubling when three
/// quarters full.
#[derive(Debug, Clone)]
pub struct FingerprintSet {
    members: Vec<u64>,
    table: IdTable,
}

impl FingerprintSet {
    /// An empty set with room for `entries` fingerprints before it first
    /// grows.
    pub fn with_capacity(entries: usize) -> Self {
        Self {
            members: Vec::with_capacity(entries),
            table: IdTable::with_room_for(entries),
        }
    }

    /// Is `fp` in the set?
    pub fn contains(&self, fp: u64) -> bool {
        self.table.find(&self.members, fp).is_ok()
    }

    /// Add `fp` and say whether it was new — one probe where
    /// [`FingerprintSet::contains`] then `insert` would be two. Adding it
    /// twice is a no-op. (So is adding the 2³²-th distinct fingerprint:
    /// ids are `u32`, and a set that under-reports — it answers "new"
    /// again next time — only costs its user a dedup hit.)
    pub fn insert(&mut self, fp: u64) -> bool {
        let Err(mut at) = self.table.find(&self.members, fp) else {
            return false;
        };
        let Some(id) = u32::try_from(self.members.len())
            .ok()
            .filter(|&id| id != NIL)
        else {
            return true;
        };
        if (self.table.len + 1) * 4 > self.table.slots.len() * 3 {
            self.table = IdTable::with_room_for(self.table.slots.len());
            for (i, &m) in self.members.iter().enumerate() {
                if let Err(free) = self.table.find(&self.members, m) {
                    self.table.put(free, i as u32);
                }
            }
            match self.table.find(&self.members, fp) {
                Ok(free) | Err(free) => at = free,
            }
        }
        self.members.push(fp);
        self.table.put(at, id);
        true
    }
}

impl Default for FingerprintSet {
    fn default() -> Self {
        Self::with_capacity(0)
    }
}

impl Extend<u64> for FingerprintSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, fps: I) {
        for fp in fps {
            self.insert(fp);
        }
    }
}

/// Content index of one disk: fingerprint → resident block(s).
///
/// It lives with the disk ([`crate::TrackedDisk::content_index`]), not
/// with a migration session: every fingerprint a migration computes is
/// recorded here, every write that is not re-fingerprinted invalidates
/// its block, and the next session — a reconnect, or the incremental
/// migration back — answers its dedup handshake from what is known
/// instead of reading the disk. A `BlockRef` is resolved against it.
///
/// The index may be *partial*: a block whose fingerprint is unknown
/// (never computed, or invalidated since) is in no holder chain, so it is
/// never resolved to and never summarised. Knowing less only costs dedup
/// hits; knowing something wrong costs a bounce, because users re-hash
/// the resolved holder before they trust it.
///
/// Layout: an [`IdTable`] over `fp_of` holds, for each resident
/// fingerprint, the *head* of its holder chain; the chain itself is
/// intrusive — two `u32` links per block — so duplicate content (zero
/// blocks, clones) costs no allocation and [`ContentIndex::record`] is
/// `O(1)` whether the old content had one holder or every block of the
/// disk. At most `num_blocks` fingerprints are resident at once and the
/// table is sized for twice that, so it never grows.
#[derive(Debug, Clone)]
pub struct ContentIndex {
    /// Fingerprint of each block; meaningful only where `known` is set.
    fp_of: Vec<u64>,
    /// Blocks whose fingerprint is known — exactly the blocks on a chain.
    known: FlatBitmap,
    /// Calls to [`ContentIndex::invalidate`] so far.
    invalidations: u64,
    /// Chain heads: one block per distinct fingerprint in `fp_of`.
    heads: IdTable,
    /// Holder-chain links, [`NIL`]-terminated at both ends.
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Default for ContentIndex {
    fn default() -> Self {
        Self::from_fps(Vec::new())
    }
}

impl ContentIndex {
    /// Index a disk from its per-block fingerprints (index order =
    /// block order). Chain links are `u32`: blocks past `u32::MAX - 1`
    /// are left out of the index (never resolved to, never summarised),
    /// which costs dedup hits on such a disk, not correctness.
    pub fn from_fps(mut fps: Vec<u64>) -> Self {
        fps.truncate(NIL as usize);
        let n = fps.len();
        let mut index = Self::unknown(n);
        index.fp_of = fps;
        index.known = FlatBitmap::all_set(n);
        for block in 0..n {
            index.link(block);
        }
        index
    }

    /// The index of a `num_blocks` disk nothing is known about yet (the
    /// same `u32` limit as [`ContentIndex::from_fps`] applies).
    pub fn unknown(num_blocks: usize) -> Self {
        let n = num_blocks.min(NIL as usize);
        Self {
            fp_of: vec![0; n],
            known: FlatBitmap::new(n),
            invalidations: 0,
            heads: IdTable::with_room_for(n),
            next: vec![NIL; n],
            prev: vec![NIL; n],
        }
    }

    /// Number of resident blocks covered.
    pub fn num_blocks(&self) -> usize {
        self.fp_of.len()
    }

    /// Number of blocks whose fingerprint is known.
    pub fn known_blocks(&self) -> usize {
        self.known.count_ones()
    }

    /// Block `block`'s fingerprint, if known.
    pub fn fingerprint_of(&self, block: usize) -> Option<u64> {
        let &fp = self.fp_of.get(block)?;
        self.known.get(block).then_some(fp)
    }

    /// How many times [`ContentIndex::invalidate`] has run. Whoever
    /// fingerprints blocks it read while writers were free to run samples
    /// this first and records only if it has not moved since: a write
    /// that slipped in between has invalidated, and what was hashed may
    /// be the content it replaced.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Number of distinct fingerprints resident.
    pub fn distinct(&self) -> usize {
        self.heads.len
    }

    /// Does any resident block hold this content?
    pub fn contains(&self, fp: u64) -> bool {
        self.heads.find(&self.fp_of, fp).is_ok()
    }

    /// *A* resident block holding this content, if any. Which holder
    /// comes back is fixed by the sequence of operations that built the
    /// index (so replays agree) but is otherwise unspecified — in
    /// particular it need not be the lowest block. Callers re-hash the
    /// candidate before using it, so the choice cannot affect an image.
    pub fn resolve(&self, fp: u64) -> Option<usize> {
        self.heads.get(&self.fp_of, fp).map(|head| head as usize)
    }

    /// The distinct fingerprints resident, in ascending order (this is
    /// the `ContentSummary` the destination acknowledges at handshake).
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .heads
            .slots
            .iter()
            .filter_map(|&head| self.fp_of.get(head as usize).copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Block `block`'s content is now `fp`: keep the index exact.
    /// Out-of-range blocks are ignored (the caller validated the
    /// protocol frame; a stale index entry is worse than a dropped one).
    pub fn record(&mut self, block: usize, fp: u64) {
        if block >= self.fp_of.len() {
            return;
        }
        match self.fingerprint_of(block) {
            Some(old) if old == fp => return,
            // Order matters: the table finds a block through `fp_of`, so
            // the old fingerprint must still be in place while it is
            // unlinked.
            Some(_) => self.unlink(block),
            None => {
                self.known.set(block);
            }
        }
        if let Some(slot) = self.fp_of.get_mut(block) {
            *slot = fp;
        }
        self.link(block);
    }

    /// Block `block` was written and nobody fingerprinted the new
    /// content: forget what it held.
    pub fn invalidate(&mut self, block: usize) {
        self.invalidations += 1;
        if self.fingerprint_of(block).is_some() {
            self.unlink(block);
            self.known.clear(block);
        }
    }

    /// Push `block` (in no chain) onto the front of the holder chain of
    /// `fp_of[block]`.
    fn link(&mut self, block: usize) {
        let Some(&fp) = self.fp_of.get(block) else {
            return;
        };
        let me = block as u32;
        let (at, head) = match self.heads.find(&self.fp_of, fp) {
            Ok(at) => (at, self.heads.slots.get(at).copied().unwrap_or(NIL)),
            Err(at) => (at, NIL),
        };
        self.heads.put(at, me);
        if let Some(p) = self.prev.get_mut(head as usize) {
            *p = me;
        }
        if let (Some(n), Some(p)) = (self.next.get_mut(block), self.prev.get_mut(block)) {
            *n = head;
            *p = NIL;
        }
    }

    /// Take `block` off the holder chain of `fp_of[block]`; the
    /// fingerprint leaves the table with its last holder.
    fn unlink(&mut self, block: usize) {
        let (Some(&fp), Some(&next), Some(&prev)) = (
            self.fp_of.get(block),
            self.next.get(block),
            self.prev.get(block),
        ) else {
            return;
        };
        if let Some(p) = self.prev.get_mut(next as usize) {
            *p = prev;
        }
        if let Some(n) = self.next.get_mut(prev as usize) {
            // Mid-chain: the table never pointed here.
            *n = next;
        } else if let Ok(at) = self.heads.find(&self.fp_of, fp) {
            if next == NIL {
                self.heads.remove(&self.fp_of, at);
            } else {
                self.heads.put(at, next);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_and_scalar_agree_on_edges() {
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 512, 4096] {
            let data: Vec<u8> = (0..n)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(5))
                .collect();
            assert_eq!(hash_block(&data), hash_block_scalar(&data), "len {n}");
        }
    }

    #[test]
    fn property_batched_equals_scalar_on_random_inputs() {
        // Hand-rolled property test (no proptest dep): 500 xorshift-
        // driven inputs of arbitrary length and content must hash the
        // same through the word-batched path and its scalar twin — the
        // stability claim the wire protocol depends on.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..500 {
            let len = (next() % 5000) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(
                hash_block(&data),
                hash_block_scalar(&data),
                "case {case}, len {len}"
            );
        }
    }

    #[test]
    fn fingerprint_distinguishes_lengths_and_contents() {
        assert_ne!(hash_block(&[0u8; 4096]), hash_block(&[0u8; 512]));
        assert_ne!(hash_block(&[0u8; 4096]), hash_block(&[1u8; 4096]));
        assert_eq!(hash_block(&[7u8; 4096]), hash_block(&[7u8; 4096]));
        let mut a = [0u8; 4096];
        let mut b = [0u8; 4096];
        a[0] = 1;
        b[4095] = 1;
        assert_ne!(hash_block(&a), hash_block(&b));
    }

    #[test]
    fn hash_u64_is_injective_looking() {
        let mut seen = std::collections::HashSet::new();
        for g in 0u64..10_000 {
            assert!(seen.insert(hash_u64(g)));
        }
    }

    #[test]
    fn index_tracks_overwrites_and_duplicates() {
        let mut idx = ContentIndex::from_fps(vec![10, 20, 10, 30]);
        assert_eq!(idx.num_blocks(), 4);
        assert_eq!(idx.distinct(), 3);
        assert!(idx.contains(10));
        // Either holder may come back: the contract is "a current
        // holder", not "the lowest".
        assert!(matches!(idx.resolve(10), Some(0 | 2)));
        // Overwrite block 0: fp 10 still resolvable via block 2.
        idx.record(0, 40);
        assert_eq!(idx.resolve(10), Some(2));
        assert_eq!(idx.resolve(40), Some(0));
        // Overwrite block 2: fp 10 gone.
        idx.record(2, 40);
        assert!(!idx.contains(10));
        assert_eq!(idx.resolve(10), None);
        assert!(matches!(idx.resolve(40), Some(0 | 2)));
        assert_eq!(idx.distinct(), 3);
        // Same-fp rewrite is a no-op.
        idx.record(3, 30);
        assert_eq!(idx.resolve(30), Some(3));
        // Out-of-range writes are ignored.
        idx.record(99, 1);
        assert!(!idx.contains(1));
        assert_eq!(idx.fingerprints(), vec![20, 30, 40]);
    }

    #[test]
    fn removal_keeps_colliding_keys_reachable() {
        // Eight blocks -> 16 slots; keys built to share one home slot
        // exercise the backward shift, including a run that wraps past
        // the end of the table.
        let probe = IdTable::with_room_for(8);
        for target in [0usize, probe.mask()] {
            let same_home: Vec<u64> = (1u64..)
                .filter(|&k| probe.home(k) == target)
                .take(6)
                .collect();
            let mut idx = ContentIndex::from_fps(same_home.clone());
            // Drop keys from the middle, front and back of the run; the
            // survivors must stay findable after every removal.
            const ORDER: [usize; 4] = [2, 0, 5, 3];
            for (gone, &block) in ORDER.iter().enumerate() {
                idx.record(block, 1_000_000 + block as u64);
                for (b, &k) in same_home.iter().enumerate() {
                    let removed = ORDER[..=gone].contains(&b);
                    assert_eq!(idx.contains(k), !removed, "key {k} home {target}");
                    if !removed {
                        assert_eq!(idx.resolve(k), Some(b));
                    }
                }
            }
            assert_eq!(idx.distinct(), 6);
        }
    }

    #[test]
    fn fingerprint_set_grows_and_keeps_every_member() {
        let mut set = FingerprintSet::default();
        assert!(!set.contains(0));
        // Small integers, as a caller outside the hash family might use.
        set.extend((0u64..5_000).map(|i| i * 10));
        assert!(!set.insert(40), "again: a no-op that says so");
        assert!(set.insert(7) && !set.insert(7));
        assert!(set.contains(7));
        for i in 0u64..5_000 {
            assert!(set.contains(i * 10));
            assert!(!set.contains(i * 10 + 1));
        }
    }

    #[test]
    fn summary_is_sorted_and_distinct() {
        let idx = ContentIndex::from_fps(vec![5, 3, 5, 1]);
        assert_eq!(idx.fingerprints(), vec![1, 3, 5]);
    }
}
