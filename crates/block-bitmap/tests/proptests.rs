//! Property-based tests: layered ≡ flat semantics, wire round-trips, and
//! set-operation algebra.

use block_bitmap::{ser, AtomicBitmap, BlockMapper, DirtyMap, FlatBitmap, LayeredBitmap};
use proptest::prelude::*;

/// An arbitrary sequence of set/clear operations over a fixed bit space.
#[derive(Debug, Clone)]
enum Op {
    Set(usize),
    Clear(usize),
}

fn ops(nbits: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![(0..nbits).prop_map(Op::Set), (0..nbits).prop_map(Op::Clear),],
        0..200,
    )
}

/// Bits of the receiver in [`a_peer_frame_decodes_to_its_geometry_or_a_typed_error`].
const RECEIVER_BITS: usize = 1000;

/// A bitmap frame from a peer: any tag (three valid, one not), a header
/// bit count that is the receiver's, near it or anywhere, and payload
/// words that are indices or runs in range, near it, or anything.
fn peer_frames() -> impl Strategy<Value = Vec<u8>> {
    let bits = RECEIVER_BITS as u64;
    let word = prop_oneof![0..bits + 64, any::<u64>()];
    (
        0u8..4,
        prop_oneof![Just(bits), Just(bits), 0..2 * bits, any::<u64>()],
        prop::collection::vec(word, 0..40),
    )
        .prop_map(|(tag, nbits, words)| {
            let mut frame = vec![tag];
            frame.extend(nbits.to_le_bytes());
            frame.extend(words.iter().flat_map(|w| w.to_le_bytes()));
            frame
        })
}

proptest! {
    /// Layered and flat bitmaps stay bit-identical under any op sequence.
    #[test]
    fn layered_equals_flat(ops in ops(1000), part_bits in 1usize..200) {
        let mut flat = FlatBitmap::new(1000);
        let mut layered = LayeredBitmap::with_part_bits(1000, part_bits);
        for op in &ops {
            match *op {
                Op::Set(i) => {
                    prop_assert_eq!(flat.set(i), layered.set(i));
                }
                Op::Clear(i) => {
                    prop_assert_eq!(flat.clear(i), layered.clear(i));
                }
            }
        }
        prop_assert_eq!(flat.count_ones(), layered.count_ones());
        prop_assert_eq!(flat.to_indices(), layered.to_indices());
        for i in 0..1000 {
            prop_assert_eq!(flat.get(i), layered.get(i));
        }
    }

    /// Layered top-layer invariant: a part is marked dirty in the top layer
    /// iff it contains at least one dirty bit; clean parts are unallocated.
    #[test]
    fn layered_top_invariant(ops in ops(512)) {
        let mut layered = LayeredBitmap::with_part_bits(512, 64);
        for op in &ops {
            match *op {
                Op::Set(i) => { layered.set(i); }
                Op::Clear(i) => { layered.clear(i); }
            }
        }
        let dirty: std::collections::HashSet<usize> =
            layered.to_indices().iter().map(|i| i / 64).collect();
        // allocated_parts == number of parts with >= 1 dirty bit
        prop_assert_eq!(layered.allocated_parts(), dirty.len());
    }

    /// Wire encoding round-trips for every encoder.
    #[test]
    fn wire_roundtrip(idxs in prop::collection::btree_set(0usize..5000, 0..100)) {
        let mut bm = FlatBitmap::new(5000);
        for &i in &idxs {
            bm.set(i);
        }
        prop_assert_eq!(&ser::decode(&ser::encode_raw(&bm)).unwrap(), &bm);
        prop_assert_eq!(&ser::decode(&ser::encode_sparse(&bm)).unwrap(), &bm);
        let auto = ser::encode(&bm);
        prop_assert_eq!(auto.len(), ser::encoded_len(&bm));
        prop_assert_eq!(&ser::decode(&auto).unwrap(), &bm);
    }

    /// Whatever a peer sends, cut anywhere, decodes to a bitmap of the
    /// receiver's length or to a typed error; it never panics and never
    /// lets the header size an allocation.
    #[test]
    fn a_peer_frame_decodes_to_its_geometry_or_a_typed_error(
        frame in peer_frames(),
        cut in prop_oneof![Just(usize::MAX), 0usize..340],
    ) {
        let frame = &frame[..cut.min(frame.len())];
        if let Ok(bm) = ser::decode_expecting(frame, RECEIVER_BITS) {
            prop_assert_eq!(bm.len(), RECEIVER_BITS);
        }
    }

    /// Set algebra: (A ∪ B) ⊇ A, (A − B) ∩ B = ∅, |A ∪ B| + |A ∩ B| = |A| + |B|.
    #[test]
    fn set_algebra(
        a_idx in prop::collection::btree_set(0usize..600, 0..80),
        b_idx in prop::collection::btree_set(0usize..600, 0..80),
    ) {
        let mut a = FlatBitmap::new(600);
        let mut b = FlatBitmap::new(600);
        for &i in &a_idx { a.set(i); }
        for &i in &b_idx { b.set(i); }

        let mut union = a.clone();
        union.union_with(&b);
        let mut inter = a.clone();
        inter.intersect_with(&b);
        let mut diff = a.clone();
        diff.subtract(&b);

        for &i in &a_idx {
            prop_assert!(union.get(i));
        }
        let mut check = diff.clone();
        check.intersect_with(&b);
        prop_assert!(check.none_set());
        prop_assert_eq!(
            union.count_ones() + inter.count_ones(),
            a.count_ones() + b.count_ones()
        );
        // diff ∪ inter == a
        let mut rebuilt = diff;
        rebuilt.union_with(&inter);
        prop_assert_eq!(rebuilt, a);
    }

    /// Extent splitting covers exactly the bytes of the request: every byte
    /// of the extent lies in a returned block and the first/last blocks
    /// actually overlap the extent.
    #[test]
    fn mapper_extent_cover(offset in 0u64..1_000_000, len in 0u64..100_000) {
        let m = BlockMapper::new(4096, 1024);
        prop_assume!(offset + len <= m.capacity_bytes());
        let r = m.byte_extent(offset, len);
        if len == 0 {
            prop_assert!(r.is_empty());
        } else {
            prop_assert_eq!(r.start, (offset / 4096) as usize);
            prop_assert_eq!(r.end, ((offset + len - 1) / 4096) as usize + 1);
            // Every block in range overlaps [offset, offset+len).
            for b in r.iter() {
                let bs = b as u64 * 4096;
                prop_assert!(bs < offset + len && bs + 4096 > offset);
            }
        }
    }

    /// `next_set_from` agrees with a linear scan.
    #[test]
    fn next_set_from_agrees(idxs in prop::collection::btree_set(0usize..300, 0..40), from in 0usize..310) {
        let mut bm = FlatBitmap::new(300);
        for &i in &idxs { bm.set(i); }
        let expect = idxs.iter().copied().find(|&i| i >= from);
        prop_assert_eq!(bm.next_set_from(from), expect);
    }

    /// All three bitmap implementations agree on any op sequence. The bit
    /// space (195 = 3×64+3) straddles word boundaries and leaves tail
    /// bits in the final partial word, where masking bugs live.
    #[test]
    fn flat_layered_atomic_agree(ops in ops(195)) {
        let mut flat = FlatBitmap::new(195);
        let mut layered = LayeredBitmap::with_part_bits(195, 64);
        let atomic = AtomicBitmap::new(195);
        for op in &ops {
            match *op {
                Op::Set(i) => {
                    let f = flat.set(i);
                    prop_assert_eq!(f, layered.set(i));
                    prop_assert_eq!(f, atomic.set(i));
                }
                Op::Clear(i) => {
                    let f = flat.clear(i);
                    prop_assert_eq!(f, layered.clear(i));
                    prop_assert_eq!(f, atomic.clear(i));
                }
            }
        }
        prop_assert_eq!(flat.count_ones(), layered.count_ones());
        prop_assert_eq!(flat.count_ones(), atomic.count_ones());
        for i in 0..195 {
            prop_assert_eq!(flat.get(i), layered.get(i));
            prop_assert_eq!(flat.get(i), atomic.get(i));
        }
        // The atomic snapshot is the flat bitmap, exactly.
        prop_assert_eq!(&atomic.snapshot(), &flat);
        prop_assert_eq!(&layered.to_flat(), &flat);
    }

    /// Sharding partitions: restrict_to over shard_bounds yields disjoint
    /// bitmaps whose union is the original, for any shard count.
    #[test]
    fn shards_partition_any_bitmap(
        idxs in prop::collection::btree_set(0usize..1000, 0..120),
        k in 1usize..9,
    ) {
        let mut bm = FlatBitmap::new(1000);
        for &i in &idxs { bm.set(i); }
        let shards: Vec<FlatBitmap> = FlatBitmap::shard_bounds(1000, k)
            .into_iter()
            .map(|r| bm.restrict_to(r))
            .collect();
        // Disjoint: per-shard counts sum to the total.
        let total: usize = shards.iter().map(DirtyMap::count_ones).sum();
        prop_assert_eq!(total, bm.count_ones());
        // Union rebuilds the original.
        let mut rebuilt = FlatBitmap::new(1000);
        for s in &shards {
            rebuilt.union_with(s);
        }
        prop_assert_eq!(rebuilt, bm);
    }
}
