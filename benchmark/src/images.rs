//! Seeded disk-image generators.
//!
//! Two content classes stress opposite ends of the content-aware data
//! plane: word-random blocks that neither dedup nor LZ can shrink, and
//! text-like blocks (a Zipf-ish vocabulary) that LZ roughly halves. Every
//! block of an image is distinct, so dedup hits come only from what the
//! destination was pre-seeded with, never from intra-image repeats.

use block_bitmap::{DirtyMap, FlatBitmap};
use des::SimRng;
use vdisk::VirtualDisk;

/// One block of incompressible, unique content.
fn random_block(rng: &mut SimRng, block_size: usize) -> Vec<u8> {
    let mut block = vec![0u8; block_size];
    for chunk in block.chunks_mut(8) {
        let word = rng.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    block
}

/// Generator of text-like blocks: sentences drawn from a fixed pool,
/// themselves built from a small skewed vocabulary.
pub struct TextSource {
    sentences: Vec<Vec<u8>>,
}

impl TextSource {
    /// Build the sentence pool from `rng`.
    pub fn new(rng: &mut SimRng) -> Self {
        let vocabulary: Vec<Vec<u8>> = (0..512)
            .map(|_| {
                let len = 2 + rng.below_usize(8);
                (0..len).map(|_| b'a' + rng.below(26) as u8).collect()
            })
            .collect();
        let sentences = (0..2048)
            .map(|_| {
                let words = 4 + rng.below_usize(9);
                let mut s = Vec::new();
                for _ in 0..words {
                    // Squaring the uniform draw skews picks toward the
                    // head of the vocabulary, like word frequencies do.
                    let u = rng.f64();
                    let idx = ((u * u) * vocabulary.len() as f64) as usize;
                    s.extend_from_slice(&vocabulary[idx.min(vocabulary.len() - 1)]);
                    s.push(b' ');
                }
                s.push(b'\n');
                s
            })
            .collect();
        Self { sentences }
    }

    /// One block of text. The leading 16 bytes are a per-block serial in
    /// hex, which keeps every block of an image distinct.
    pub fn block(&self, rng: &mut SimRng, block_size: usize) -> Vec<u8> {
        let mut block = format!("{:016x}", rng.next_u64()).into_bytes();
        while block.len() < block_size {
            block.extend_from_slice(&self.sentences[rng.below_usize(self.sentences.len())]);
        }
        block.truncate(block_size);
        block
    }
}

/// A dense disk of unique incompressible blocks.
pub fn random_image(rng: &mut SimRng, block_size: usize, num_blocks: usize) -> VirtualDisk {
    let disk = VirtualDisk::dense(block_size, num_blocks);
    for b in 0..num_blocks {
        disk.write_block(b, &random_block(rng, block_size));
    }
    disk
}

/// A dense disk of distinct text-like blocks.
pub fn text_image(
    text: &TextSource,
    rng: &mut SimRng,
    block_size: usize,
    num_blocks: usize,
) -> VirtualDisk {
    let disk = VirtualDisk::dense(block_size, num_blocks);
    for b in 0..num_blocks {
        disk.write_block(b, &text.block(rng, block_size));
    }
    disk
}

/// A block-for-block copy of `disk` on fresh storage.
pub fn clone_disk(disk: &VirtualDisk) -> VirtualDisk {
    let copy = VirtualDisk::dense(disk.block_size(), disk.num_blocks());
    let mut buf = vec![0u8; disk.block_size()];
    for b in 0..disk.num_blocks() {
        disk.read_block_into(b, &mut buf);
        copy.write_block(b, &buf);
    }
    copy
}

/// Exactly `count` distinct block indices below `num_blocks`, chosen
/// uniformly by `rng`.
pub fn sample_blocks(rng: &mut SimRng, num_blocks: usize, count: usize) -> FlatBitmap {
    let mut picked = FlatBitmap::new(num_blocks);
    let mut left = count.min(num_blocks);
    while left > 0 {
        let b = rng.below_usize(num_blocks);
        if !picked.get(b) {
            picked.set(b);
            left -= 1;
        }
    }
    picked
}

/// Rewrite every block marked in `which` with fresh text.
pub fn rewrite_blocks(disk: &VirtualDisk, which: &FlatBitmap, text: &TextSource, rng: &mut SimRng) {
    for b in which.iter_set() {
        disk.write_block(b, &text.block(rng, disk.block_size()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_image_and_blocks_are_distinct() {
        let make = |seed| {
            let mut rng = SimRng::new(seed);
            let text = TextSource::new(&mut rng);
            text_image(&text, &mut rng, 512, 64)
        };
        let (a, b, c) = (make(7), make(7), make(8));
        assert!(a.content_equals(&b));
        assert!(!a.content_equals(&c));
        let mut fps = a.fingerprint_all();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), 64);
    }

    #[test]
    fn sample_is_exact_and_rewrite_touches_only_the_sample() {
        let mut rng = SimRng::new(3);
        let text = TextSource::new(&mut rng);
        let base = text_image(&text, &mut rng, 512, 256);
        let copy = clone_disk(&base);
        let picked = sample_blocks(&mut rng, 256, 20);
        assert_eq!(picked.count_ones(), 20);
        rewrite_blocks(&copy, &picked, &text, &mut rng);
        assert_eq!(copy.diff_blocks(&base), picked.to_indices());
    }
}
