//! Property tests for the block layer: storage equivalence (per-block
//! and batched), `hash_all` against its per-block definition, the flat
//! content index — partial form included — against a `BTreeMap` oracle,
//! tracker completeness (the
//! correctness property migration rests on), pending queue conservation,
//! MetaDisk synchronization, the tiled stamp generator against its
//! per-byte definition, and a computed stamp-0 image against one laid
//! out.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use block_bitmap::AtomicBitmap;
use proptest::prelude::*;
use vdisk::{
    hash_block, is_stamp, stamp_append, stamp_bytes, stamp_into, ContentIndex, DenseStorage,
    DomainId, IoRequest, MetaDisk, PendingQueue, TrackedDisk, VirtualDisk,
};

const BLOCKS: usize = 64;
const BS: usize = 512;

/// One write of a storage property: a stamp, or a block of zeroes (which
/// the store's allocation map marks written like any other).
fn block_bytes(b: usize, stamp: u64) -> Vec<u8> {
    if stamp == 0 {
        vec![0u8; BS]
    } else {
        stamp_bytes(b, stamp, BS)
    }
}

/// What [`VirtualDisk::hash_all`] is defined to equal.
fn hash_each(disk: &VirtualDisk) -> Vec<u64> {
    (0..disk.num_blocks())
        .map(|b| hash_block(&disk.read_block(b)))
        .collect()
}

/// The content index's reference model: what is known of each block,
/// and fingerprint → holders over the known ones.
struct IndexOracle {
    fp_of: Vec<Option<u64>>,
    holders: BTreeMap<u64, BTreeSet<usize>>,
}

impl IndexOracle {
    fn new(fps: &[Option<u64>]) -> Self {
        let mut o = Self {
            fp_of: fps.to_vec(),
            holders: BTreeMap::new(),
        };
        for (b, fp) in fps.iter().enumerate() {
            if let Some(fp) = fp {
                o.holders.entry(*fp).or_default().insert(b);
            }
        }
        o
    }

    fn record(&mut self, block: usize, fp: u64) {
        let Some(old) = self.fp_of.get(block).copied() else {
            return;
        };
        if let Some(old) = old {
            let set = self.holders.entry(old).or_default();
            set.remove(&block);
            if set.is_empty() {
                self.holders.remove(&old);
            }
        }
        self.fp_of[block] = Some(fp);
        self.holders.entry(fp).or_default().insert(block);
    }

    /// Every observable of `index` agrees with the model, probing the
    /// fingerprints in `pool` (resident or not). A block of unknown
    /// fingerprint is in no holder set, so `resolve` landing in the
    /// model's set is also "never resolved to an unknown block".
    fn check(&self, index: &ContentIndex, pool: &[u64]) -> Result<(), TestCaseError> {
        prop_assert_eq!(index.num_blocks(), self.fp_of.len());
        prop_assert_eq!(
            index.known_blocks(),
            self.fp_of.iter().filter(|fp| fp.is_some()).count()
        );
        for (b, &fp) in self.fp_of.iter().enumerate() {
            prop_assert_eq!(index.fingerprint_of(b), fp);
        }
        prop_assert_eq!(index.fingerprint_of(self.fp_of.len()), None);
        prop_assert_eq!(index.distinct(), self.holders.len());
        let expected: Vec<u64> = self.holders.keys().copied().collect();
        prop_assert_eq!(index.fingerprints(), expected);
        for &fp in pool {
            match self.holders.get(&fp) {
                Some(set) => {
                    prop_assert!(index.contains(fp));
                    let got = index.resolve(fp);
                    prop_assert!(
                        got.is_some_and(|b| set.contains(&b)),
                        "resolve({}) = {:?}, holders {:?}",
                        fp,
                        got,
                        set
                    );
                }
                None => {
                    prop_assert!(!index.contains(fp));
                    prop_assert_eq!(index.resolve(fp), None);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    /// The flat content index agrees with a `BTreeMap<fp, BTreeSet<block>>`
    /// oracle after every step of any `record` / `invalidate` sequence,
    /// started fully known (`from_fps`) or knowing nothing (`unknown`).
    /// Fingerprints come from a pool of eight so holder chains form,
    /// grow and empty; a ninth pick invalidates; blocks range past the
    /// disk so out-of-range calls are exercised, and same-fingerprint
    /// rewrites and double invalidations fall out of the small pool.
    #[test]
    fn content_index_matches_oracle(
        initial in prop::collection::vec(0usize..8, 0..24),
        start_unknown in any::<bool>(),
        ops in prop::collection::vec((0usize..28, 0usize..8), 0..200),
        salt in any::<u64>(),
    ) {
        // Small multiples and salted values: both clustered and spread keys.
        let pool: Vec<u64> = (0..8u64)
            .map(|i| if i % 2 == 0 { i * 10 } else { (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) })
            .collect();
        let (mut oracle, mut index) = if start_unknown {
            (IndexOracle::new(&vec![None; initial.len()]), ContentIndex::unknown(initial.len()))
        } else {
            let fps: Vec<u64> = initial.iter().map(|&i| pool[i]).collect();
            let known: Vec<Option<u64>> = fps.iter().copied().map(Some).collect();
            (IndexOracle::new(&known), ContentIndex::from_fps(fps))
        };
        oracle.check(&index, &pool)?;
        for &(block, i) in &ops {
            index.record(block, pool[i]);
            oracle.record(block, pool[i]);
            oracle.check(&index, &pool)?;
        }
    }

    /// `read_blocks_append` / `write_blocks` are the per-block calls, for any
    /// index list (repeats included: the last piece wins), on a zero-based
    /// store and a stamp-0 one alike.
    #[test]
    fn batch_io_equals_per_block_io(
        writes in prop::collection::vec((0usize..BLOCKS, 0u64..4), 0..60),
        reads in prop::collection::vec(0usize..BLOCKS, 0..60),
    ) {
        let idxs: Vec<u64> = writes.iter().map(|&(b, _)| b as u64).collect();
        let data: Vec<u8> = writes.iter().flat_map(|&(b, s)| block_bytes(b, s)).collect();
        let stores = [
            (DenseStorage::new(BS, BLOCKS), DenseStorage::new(BS, BLOCKS)),
            (DenseStorage::stamp_zero(BS, BLOCKS), DenseStorage::stamp_zero(BS, BLOCKS)),
        ];
        for (mut batched, mut single) in stores {
            batched.write_blocks(&idxs, &data);
            for &(b, s) in &writes {
                single.write_block(b, &block_bytes(b, s));
            }
            // Appended behind what the buffer already holds.
            let mut got = vec![0xAAu8; 3];
            batched.read_blocks_append(&reads, &mut got);
            let mut want = vec![0u8; 3 + reads.len() * BS];
            want[..3].fill(0xAA);
            for (slot, &b) in want[3..].chunks_exact_mut(BS).zip(&reads) {
                single.read_block(b, slot);
            }
            prop_assert_eq!(got, want);
        }
    }

    /// `hash_all`, and `hash_block_at` block by block, are
    /// `hash_block(read_block(b))` for every block — on a blank disk,
    /// after any writes, and whether zeroes were written to a block that
    /// held data or to one never touched (stamp 0 = zeroes). It counts
    /// every block written as hashed, whatever was written.
    #[test]
    fn hash_all_equals_hashing_every_block(
        writes in prop::collection::vec((0usize..BLOCKS, 0u64..3), 0..80),
    ) {
        let disk = VirtualDisk::dense(BS, BLOCKS);
        let in_place = |disk: &VirtualDisk| (0..BLOCKS).map(|b| disk.hash_block_at(b)).collect::<Vec<_>>();
        prop_assert_eq!(disk.hash_all(), (hash_each(&disk), 0));
        prop_assert_eq!(in_place(&disk), hash_each(&disk));
        for &(b, s) in &writes {
            disk.write_block(b, &block_bytes(b, s));
        }
        let written = writes.iter().map(|&(b, _)| b).collect::<BTreeSet<_>>().len() as u64;
        prop_assert_eq!(disk.hash_all(), (hash_each(&disk), written));
        prop_assert_eq!(in_place(&disk), hash_each(&disk));
    }

    /// The tracker never misses a guest write while enabled: after any
    /// interleaving of writes and drains, union(drains) ∪ tracker ⊇ all
    /// written blocks — the property that makes iterative pre-copy sound.
    #[test]
    fn tracker_never_loses_a_write(
        ops in prop::collection::vec((0usize..BLOCKS, proptest::bool::ANY), 1..200),
    ) {
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(BS, BLOCKS)));
        let bm = Arc::new(AtomicBitmap::new(BLOCKS));
        disk.attach_tracker(Arc::clone(&bm), Some(DomainId(1)));
        disk.enable_tracking();
        let mut written = std::collections::HashSet::new();
        let mut drained = block_bitmap::FlatBitmap::new(BLOCKS);
        for &(b, drain_now) in &ops {
            disk.submit(IoRequest::write(b, DomainId(1)), Some(&stamp_bytes(b, 1, BS)));
            written.insert(b);
            if drain_now {
                drained.union_with(&bm.snapshot_and_clear());
            }
        }
        drained.union_with(&bm.snapshot_and_clear());
        for &b in &written {
            prop_assert!(block_bitmap::DirtyMap::get(&drained, b), "write to {} lost", b);
        }
    }

    /// Pending queue conserves requests: everything pushed is taken
    /// exactly once, in per-block FIFO order.
    #[test]
    fn pending_queue_conserves(blocks in prop::collection::vec(0usize..16, 0..100)) {
        let mut q = PendingQueue::new();
        let mut expected: HashMap<usize, usize> = HashMap::new();
        for (i, &b) in blocks.iter().enumerate() {
            q.push(IoRequest::read(b, DomainId(i as u32 % 4)));
            *expected.entry(b).or_default() += 1;
        }
        prop_assert_eq!(q.len(), blocks.len());
        let mut taken = 0usize;
        for b in 0..16 {
            let got = q.take_for_block(b);
            prop_assert_eq!(got.len(), expected.get(&b).copied().unwrap_or(0));
            prop_assert!(got.iter().all(|r| r.block == b));
            taken += got.len();
        }
        prop_assert_eq!(taken, blocks.len());
        prop_assert!(q.is_empty());
    }

    /// MetaDisk diff/copy synchronization converges for any write split
    /// across two disks, and `content_equals` agrees with `diff_blocks`.
    #[test]
    fn metadisk_sync_converges(
        src_writes in prop::collection::vec(0usize..BLOCKS, 0..80),
        dst_writes in prop::collection::vec(0usize..BLOCKS, 0..80),
    ) {
        let mut src = MetaDisk::new(BLOCKS);
        let mut dst = MetaDisk::new(BLOCKS);
        for &b in &src_writes {
            src.write(b);
        }
        for &b in &dst_writes {
            dst.write(b);
        }
        let diff = src.diff_blocks(&dst);
        prop_assert_eq!(diff.is_empty(), src.content_equals(&dst));
        for b in diff {
            dst.copy_block_from(&src, b);
        }
        prop_assert!(src.content_equals(&dst));
        prop_assert!(dst.diff_blocks(&src).is_empty());
    }

    /// A tracked read never mutates the disk or the bitmap.
    #[test]
    fn reads_are_pure(reads in prop::collection::vec(0usize..BLOCKS, 1..50)) {
        let disk = TrackedDisk::new(Arc::new(VirtualDisk::dense(BS, BLOCKS)));
        let bm = Arc::new(AtomicBitmap::new(BLOCKS));
        disk.attach_tracker(Arc::clone(&bm), None);
        disk.enable_tracking();
        let before = disk.disk().fingerprint_all();
        for &b in &reads {
            disk.submit(IoRequest::read(b, DomainId(1)), None);
        }
        prop_assert_eq!(disk.disk().fingerprint_all(), before);
        prop_assert_eq!(bm.count_ones(), 0);
    }
}

/// The stamp generator's specification, one byte at a time: what
/// `stamp_bytes` computed before it tiled one period.
fn stamp_spec(idx: usize, stamp: u64, block_size: usize) -> Vec<u8> {
    let mut out = vec![0u8; block_size];
    let seed = (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stamp;
    for (i, b) in out.iter_mut().enumerate() {
        *b = (seed.rotate_left((i % 64) as u32) >> (i % 8)) as u8;
    }
    if block_size >= 16 {
        out[..8].copy_from_slice(&(idx as u64).to_le_bytes());
        out[8..16].copy_from_slice(&stamp.to_le_bytes());
    }
    out
}

/// Block sizes of every shape: headerless (under 16 bytes), inside one
/// period, and any length up to 9 000, multiples of 64 or not.
fn any_block_size() -> impl Strategy<Value = usize> {
    prop_oneof![
        0usize..16,
        16usize..=130,
        (0usize..=140).prop_map(|k| k * 64),
        0usize..=9000
    ]
}

proptest! {
    /// Every generator form is the per-byte definition: the allocating
    /// one, the in-place one over a dirty buffer, and the check. Besides
    /// the drawn size, every size up to two periods and a byte runs, so
    /// each edge of the header and of a period is met on every case.
    #[test]
    fn tiled_stamp_equals_the_per_byte_definition(
        idx in any::<usize>(),
        stamp in any::<u64>(),
        block_size in any_block_size(),
    ) {
        for len in (0..=129).chain([block_size]) {
            let want = stamp_spec(idx, stamp, len);
            prop_assert_eq!(&stamp_bytes(idx, stamp, len), &want);
            let mut buf = vec![0xa5; len];
            stamp_into(idx, stamp, &mut buf);
            prop_assert_eq!(&buf, &want);
            let mut appended = vec![0xa5; 3];
            stamp_append(idx, stamp, len, &mut appended);
            prop_assert_eq!(&appended[..3], &[0xa5; 3]);
            prop_assert_eq!(&appended[3..], &want[..]);
            prop_assert!(is_stamp(idx, stamp, &want));
        }
    }

    /// `is_stamp` holds for its own block and nothing else: not after
    /// any single-byte flip, and not for another index's or another
    /// stamp's block (which, once the header fits, always differs).
    #[test]
    fn is_stamp_rejects_every_other_block(
        idx in any::<usize>(),
        stamp in any::<u64>(),
        block_size in 0usize..=1100,
        mask in 1u8..=255,
        other_idx in any::<usize>(),
        other_stamp in any::<u64>(),
    ) {
        let mut block = stamp_spec(idx, stamp, block_size);
        for i in 0..block_size {
            block[i] ^= mask;
            prop_assert!(!is_stamp(idx, stamp, &block), "flip at byte {} of {}", i, block_size);
            block[i] ^= mask;
        }
        for (i, s) in [(other_idx, stamp), (idx, other_stamp)] {
            let other = stamp_spec(i, s, block_size);
            prop_assert_eq!(is_stamp(idx, stamp, &other), other == block);
            if block_size >= 16 && (i, s) != (idx, stamp) {
                prop_assert!(!is_stamp(idx, stamp, &other));
            }
        }
    }
}

/// A write of the computed-image property: zeroes (stamp 0, which must
/// then read as zeroes, not as the initial content), the stamp-0 content
/// written back explicitly (stamp 1), or a later generation.
fn image_bytes(b: usize, stamp: u64) -> Vec<u8> {
    match stamp {
        0 => vec![0u8; BS],
        1 => stamp_bytes(b, 0, BS),
        s => stamp_bytes(b, s, BS),
    }
}

/// One step of the computed-image property: a single-block write or a
/// batch (repeats included).
#[derive(Debug, Clone)]
enum ImageWrite {
    One(usize, u64),
    Batch(Vec<(usize, u64)>),
}

fn image_write() -> impl Strategy<Value = ImageWrite> {
    prop_oneof![
        (0usize..BLOCKS, 0u64..5).prop_map(|(b, s)| ImageWrite::One(b, s)),
        prop::collection::vec((0usize..BLOCKS, 0u64..5), 0..8).prop_map(ImageWrite::Batch),
    ]
}

impl ImageWrite {
    /// The write as `write_blocks` arguments.
    fn batch(&self) -> (Vec<u64>, Vec<u8>) {
        let ws = match self {
            ImageWrite::One(b, s) => vec![(*b, *s)],
            ImageWrite::Batch(ws) => ws.clone(),
        };
        let idxs = ws.iter().map(|&(b, _)| b as u64).collect();
        let data = ws.iter().flat_map(|&(b, s)| image_bytes(b, s)).collect();
        (idxs, data)
    }
}

fn apply_image_write(disk: &VirtualDisk, w: &ImageWrite) {
    match w {
        ImageWrite::One(b, s) => disk.write_block(*b, &image_bytes(*b, *s)),
        ImageWrite::Batch(_) => {
            let (idxs, data) = w.batch();
            disk.write_blocks(&idxs, &data);
        }
    }
}

/// Every block of `disk`, in one batched read.
fn read_all(disk: &VirtualDisk) -> Vec<u8> {
    let mut out = Vec::new();
    disk.read_blocks_append(&(0..BLOCKS).collect::<Vec<_>>(), &mut out);
    out
}

/// The stamp-0 image written block by block into a zero-based disk.
fn laid_out_stamp_zero() -> VirtualDisk {
    let disk = VirtualDisk::dense(BS, BLOCKS);
    for b in 0..BLOCKS {
        disk.write_block(b, &stamp_bytes(b, 0, BS));
    }
    disk
}

/// Every observation of `a` is that of `b`, diffs and equality taken
/// against each of `probes` in both directions.
fn observed_alike(
    a: &VirtualDisk,
    b: &VirtualDisk,
    reads: &[usize],
    probes: &[&VirtualDisk],
) -> Result<(), TestCaseError> {
    for blk in 0..BLOCKS {
        prop_assert_eq!(a.read_block(blk), b.read_block(blk), "block {}", blk);
        prop_assert_eq!(a.hash_block_at(blk), b.hash_block_at(blk), "block {}", blk);
    }
    let (mut got_a, mut got_b) = (vec![0xAAu8; 3], vec![0xAAu8; 3]);
    a.read_blocks_append(reads, &mut got_a);
    b.read_blocks_append(reads, &mut got_b);
    prop_assert_eq!(got_a, got_b);
    prop_assert_eq!(a.hash_all(), b.hash_all());
    prop_assert_eq!(a.hash_all().0, hash_each(a));
    prop_assert_eq!(a.fingerprint_all(), b.fingerprint_all());
    prop_assert!(a.content_equals(b) && b.content_equals(a));
    prop_assert!(a.diff_blocks(b).is_empty());
    for probe in probes {
        prop_assert_eq!(a.diff_blocks(probe), b.diff_blocks(probe));
        prop_assert_eq!(probe.diff_blocks(a), probe.diff_blocks(b));
        prop_assert_eq!(a.content_equals(probe), b.content_equals(probe));
        prop_assert_eq!(probe.content_equals(a), probe.content_equals(b));
    }
    Ok(())
}

proptest! {
    /// A stamp-0 store, whose unwritten blocks are computed, is
    /// observationally the zero-based store the stamp-0 image was
    /// written into, under any interleaving of single and batched
    /// writes. Zeroes written read as zeroes, and the image written back
    /// reads as itself. Every observation is compared before and after
    /// the writes, the whole image after each one.
    #[test]
    fn a_computed_stamp_zero_image_is_the_laid_out_one(
        writes in prop::collection::vec(image_write(), 0..24),
        reads in prop::collection::vec(0usize..BLOCKS, 0..40),
    ) {
        let blank = VirtualDisk::dense(BS, BLOCKS);
        let laid_out = laid_out_stamp_zero();
        let probes = [&blank, &laid_out];

        let computed = VirtualDisk::stamp_zero(BS, BLOCKS);
        let eager = laid_out_stamp_zero();
        observed_alike(&computed, &eager, &reads, &probes)?;
        for w in &writes {
            apply_image_write(&computed, w);
            apply_image_write(&eager, w);
            prop_assert_eq!(read_all(&computed), read_all(&eager));
        }
        observed_alike(&computed, &eager, &reads, &probes)?;
    }
}

/// A stamp-0 store occupies a block's worth of memory per written block
/// and nothing for the blocks it computes; zeroes written are data.
#[test]
fn a_stamp_zero_store_occupies_what_was_written() {
    let mut s = DenseStorage::stamp_zero(BS, BLOCKS);
    let empty = s.resident_bytes();
    assert!(empty < BS, "{empty} bytes before any write");
    s.write_block(3, &[0u8; BS]);
    s.write_block(9, &stamp_bytes(9, 4, BS));
    s.write_block(9, &stamp_bytes(9, 5, BS));
    assert_eq!(s.resident_bytes(), empty + 2 * BS);
    let mut buf = vec![0xAAu8; BS];
    s.read_block(3, &mut buf);
    assert_eq!(buf, vec![0u8; BS]);
    s.read_block(4, &mut buf);
    assert_eq!(buf, stamp_bytes(4, 0, BS));
    assert_eq!(DenseStorage::new(BS, BLOCKS).resident_bytes(), empty);
}

/// The blank-destination shape that cost the old index 59 ms per
/// migration: every block holds the zero fingerprint (one chain of
/// 65 536 holders), then every block is overwritten with unique content.
/// Each `record` must be O(1). Measured on the 2-vCPU development box:
/// 3 ms in release and 20 ms in debug, against 27 ms and 216 ms for the
/// ordered-set index it replaced; the ceiling sits between the two in
/// either build, and the best of three attempts is what is held to it so
/// a descheduled run cannot fail the test.
#[test]
fn blank_disk_shape_is_linear() {
    const N: usize = 65_536;
    let ceiling = std::time::Duration::from_millis(if cfg!(debug_assertions) { 100 } else { 15 });
    let zero = hash_block(&[0u8; BS]);
    let mut best = std::time::Duration::MAX;
    for _ in 0..3 {
        let t = std::time::Instant::now();
        let mut index = ContentIndex::from_fps(vec![zero; N]);
        assert_eq!(index.distinct(), 1);
        assert_eq!(index.fingerprints(), vec![zero]);
        for b in 0..N {
            index.record(b, vdisk::hash_u64(b as u64));
        }
        best = best.min(t.elapsed());
        assert!(!index.contains(zero));
        assert_eq!(index.distinct(), N);
        assert_eq!(index.resolve(vdisk::hash_u64(7)), Some(7));
        if best < ceiling {
            return;
        }
    }
    panic!("65 536 records on a one-fingerprint index took {best:?} at best (ceiling {ceiling:?})");
}

/// Zeroes written over data, and zeroes written to a never-touched
/// block, both hash as the zero block — the allocation map may say
/// "written", the answer may not change.
#[test]
fn hash_all_after_zero_writes() {
    let zero = hash_block(&[0u8; BS]);
    let disk = VirtualDisk::dense(BS, 8);
    assert_eq!(disk.hash_all(), (vec![zero; 8], 0));
    disk.write_block(2, &stamp_bytes(2, 5, BS));
    assert_eq!(disk.hash_all().0[2], hash_block(&stamp_bytes(2, 5, BS)));
    disk.write_block(2, &[0u8; BS]); // written, then zeroed
    disk.write_block(6, &[0u8; BS]); // never written, zeroed
    assert_eq!(disk.hash_all(), (vec![zero; 8], 2));
    assert_eq!(disk.hash_all().0, hash_each(&disk));
}

#[test]
#[should_panic(expected = "out of range")]
fn dense_batch_write_out_of_range_panics() {
    DenseStorage::new(BS, 4).write_blocks(&[1, 4], &[0u8; 2 * BS]);
}

#[test]
#[should_panic(expected = "out of range")]
fn dense_batch_read_out_of_range_panics() {
    DenseStorage::new(BS, 4).read_blocks_append(&[0, 9], &mut Vec::new());
}

#[test]
#[should_panic(expected = "size mismatch")]
fn dense_batch_write_length_mismatch_panics() {
    DenseStorage::new(BS, 4).write_blocks(&[0, 1], &[0u8; 3 * BS]);
}
