//! Metadata-only disk model for full-scale simulation.
//!
//! The paper's disks are 40 GB. Simulated experiments need to know *which*
//! block holds *which version* of its data — not the bytes themselves — so
//! [`MetaDisk`] stores one `u32` generation per block. Generation 0 is the
//! pristine image; each guest write stamps the block with a fresh global
//! generation. Consistency after a simulated migration reduces to
//! generation-vector equality, checked block-by-block.

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

    #[test]
    #[should_panic(expected = "geometries must match")]
    fn geometry_mismatch_panics() {
        let a = MetaDisk::new(4);
        let b = MetaDisk::new(5);
        a.diff_blocks(&b);
    }
}
