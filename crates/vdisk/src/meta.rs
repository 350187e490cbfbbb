//! Metadata-only disk model for full-scale simulation.
//!
//! The paper's disks are 40 GB. Simulated experiments need to know *which*
//! block holds *which version* of its data — not the bytes themselves — so
//! [`MetaDisk`] stores one `u32` generation per block. Generation 0 is the
//! pristine image; each guest write stamps the block with a fresh global
//! generation. Consistency after a simulated migration reduces to
//! generation-vector equality, checked block-by-block.

/// Blocks per bitmap word: the width of [`MetaDisk`]'s word operations,
/// which name blocks `64 w .. 64 w + 64` by a mask over word `w`.
const WORD: usize = 64;

/// Per-block generation counters standing in for block contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaDisk {
    generations: Vec<u32>,
    next_gen: u32,
    writes: u64,
}

impl MetaDisk {
    /// A pristine disk of `num_blocks` blocks (all at generation 0).
    pub fn new(num_blocks: usize) -> Self {
        Self {
            generations: vec![0; num_blocks],
            next_gen: 1,
            writes: 0,
        }
    }

    /// An installed image of `num_blocks` blocks: what `num_blocks`
    /// ascending [`MetaDisk::write`]s leave on a pristine disk, each
    /// block distinct from a blank one (generations `1..=num_blocks`).
    pub fn installed(num_blocks: usize) -> Self {
        let stamped = u32::try_from(num_blocks).expect("a generation per block fits a u32");
        Self {
            generations: (1..=stamped).collect(),
            next_gen: stamped + 1,
            writes: num_blocks as u64,
        }
    }

    /// Capacity in blocks.
    pub fn num_blocks(&self) -> usize {
        self.generations.len()
    }

    /// Record a guest write to `block`, stamping a fresh generation.
    /// Returns the new generation.
    ///
    /// # Panics
    /// Panics when `block` is out of range.
    #[inline]
    pub fn write(&mut self, block: usize) -> u32 {
        let g = self.next_gen;
        self.generations[block] = g;
        self.next_gen += 1;
        self.writes += 1;
        g
    }

    /// Current generation of `block`.
    ///
    /// # Panics
    /// Panics when `block` is out of range.
    #[inline]
    pub fn generation(&self, block: usize) -> u32 {
        self.generations[block]
    }

    /// The whole generation vector, block by block.
    pub fn generations(&self) -> &[u32] {
        &self.generations
    }

    /// Copy one block's "contents" (its generation) from `src` — the
    /// simulated transfer of a block between hosts.
    ///
    /// # Panics
    /// Panics when geometries differ or `block` is out of range.
    #[inline]
    pub fn copy_block_from(&mut self, src: &MetaDisk, block: usize) {
        assert_eq!(
            self.num_blocks(),
            src.num_blocks(),
            "disk geometries must match"
        );
        self.generations[block] = src.generations[block];
    }

    /// Copy the blocks `mask` names in word `word` from `src`, as
    /// [`MetaDisk::copy_block_from`] of each would; a full word is one
    /// slice copy.
    ///
    /// # Panics
    /// Panics when geometries differ or a named block is out of range.
    #[inline]
    pub fn copy_masked_from(&mut self, src: &MetaDisk, word: usize, mask: u64) {
        assert_eq!(
            self.num_blocks(),
            src.num_blocks(),
            "disk geometries must match"
        );
        let base = word * WORD;
        if mask == u64::MAX {
            let span = base..base + WORD;
            self.generations[span.clone()].copy_from_slice(&src.generations[span]);
            return;
        }
        let mut rest = mask;
        while rest != 0 {
            let b = base + rest.trailing_zeros() as usize;
            self.generations[b] = src.generations[b];
            rest &= rest - 1;
        }
    }

    /// The mask of the blocks of word `word` whose generation equals
    /// `other`'s at the same index (a tail word past the disk's end reads
    /// clear there): what the destination already holds verbatim, or
    /// what a replica holds fresh.
    ///
    /// # Panics
    /// Panics when `other` is shorter than the disk or `word` lies
    /// past its end.
    #[inline]
    pub fn agreement(&self, word: usize, other: &[u32]) -> u64 {
        let lo = word * WORD;
        let hi = (lo + WORD).min(self.generations.len());
        (self.generations[lo..hi].iter())
            .zip(&other[lo..hi])
            .enumerate()
            .fold(0, |mask, (bit, (a, b))| mask | (u64::from(a == b) << bit))
    }

    /// Total guest writes applied.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Blocks whose generations differ from `other`.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn diff_blocks(&self, other: &MetaDisk) -> Vec<usize> {
        assert_eq!(
            self.num_blocks(),
            other.num_blocks(),
            "disk geometries must match"
        );
        (0..self.num_blocks())
            .filter(|&i| self.generations[i] != other.generations[i])
            .collect()
    }

    /// `true` when every block matches `other`.
    pub fn content_equals(&self, other: &MetaDisk) -> bool {
        self.generations == other.generations
    }
}

/// A clone: lets a call that keeps an image take it by value (moved in)
/// or by reference (`BlockDirectory::publish`).
impl From<&MetaDisk> for MetaDisk {
    fn from(disk: &MetaDisk) -> Self {
        disk.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_bump_generations_monotonically() {
        let mut d = MetaDisk::new(4);
        assert_eq!(d.generation(2), 0);
        let g1 = d.write(2);
        let g2 = d.write(2);
        let g3 = d.write(0);
        assert!(g1 < g2 && g2 < g3);
        assert_eq!(d.generation(2), g2);
        assert_eq!(d.write_count(), 3);
    }

    #[test]
    fn copy_block_transfers_generation() {
        let mut src = MetaDisk::new(4);
        let mut dst = MetaDisk::new(4);
        src.write(1);
        assert!(!src.content_equals(&dst));
        assert_eq!(src.diff_blocks(&dst), vec![1]);
        dst.copy_block_from(&src, 1);
        assert!(src.content_equals(&dst));
    }

    #[test]
    fn full_sync_by_diff() {
        let mut src = MetaDisk::new(16);
        let mut dst = MetaDisk::new(16);
        for b in [0usize, 3, 3, 9, 15] {
            src.write(b);
        }
        for b in src.diff_blocks(&dst) {
            dst.copy_block_from(&src, b);
        }
        assert!(src.content_equals(&dst));
        assert!(dst.diff_blocks(&src).is_empty());
    }

    /// A disk of `n` blocks written by `writes` (indices taken mod `n`).
    fn written(n: usize, writes: &[usize]) -> MetaDisk {
        let mut d = MetaDisk::new(n);
        for &b in writes {
            d.write(b % n);
        }
        d
    }

    proptest::proptest! {
        /// `installed(n)` is `n` ascending writes on a pristine disk: the
        /// same generations, write count and next generation.
        #[test]
        fn installed_is_n_ascending_writes(n in 0usize..300, after in 0usize..4) {
            let mut want = MetaDisk::new(n);
            for b in 0..n {
                want.write(b);
            }
            let mut got = MetaDisk::installed(n);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.write_count(), n as u64);
            if n > 0 {
                for i in 0..after {
                    proptest::prop_assert_eq!(got.write(i % n), want.write(i % n));
                }
                proptest::prop_assert_eq!(&got, &want);
            }
        }

        /// The mask copy is a per-block copy of every named block, and the
        /// agreement mask is a per-block compare: over full, empty and
        /// random masks, and disks whose last word is partial.
        #[test]
        fn word_operations_are_per_block_loops(
            n in 1usize..300,
            src_writes in proptest::collection::vec(0usize..300, 0..200),
            dst_writes in proptest::collection::vec(0usize..300, 0..200),
            word in 0usize..5,
            mask in proptest::prelude::any::<u64>(),
            shape in 0u8..3,
        ) {
            let src = written(n, &src_writes);
            let dst = written(n, &[&src_writes[..src_writes.len() / 2], &dst_writes].concat());
            let word = word % n.div_ceil(WORD);
            let in_range = |b: &usize| *b < n;
            let mask = match shape {
                0 => u64::MAX,
                1 => 0,
                _ => mask,
            };
            let blocks: Vec<usize> = (0..WORD)
                .filter(|j| mask >> j & 1 == 1)
                .map(|j| word * WORD + j)
                .collect();
            if blocks.iter().all(in_range) {
                let (mut got, mut want) = (dst.clone(), dst.clone());
                got.copy_masked_from(&src, word, mask);
                for &b in &blocks {
                    want.copy_block_from(&src, b);
                }
                proptest::prop_assert_eq!(got, want);
            }
            let want = (0..WORD)
                .map(|j| word * WORD + j)
                .filter(in_range)
                .filter(|&b| src.generation(b) == dst.generation(b))
                .fold(0u64, |m, b| m | 1 << (b % WORD));
            proptest::prop_assert_eq!(src.agreement(word, dst.generations()), want);
        }
    }

    #[test]
    #[should_panic(expected = "geometries must match")]
    fn geometry_mismatch_panics() {
        let a = MetaDisk::new(4);
        let b = MetaDisk::new(5);
        a.diff_blocks(&b);
    }
}
