//! Byte-real guest RAM for live (threaded) migration.
//!
//! The simulated engine models memory as generation counters
//! ([`crate::GuestMemory`]); live mode needs the real thing: actual page
//! contents that guest threads write while the migration thread copies
//! pages out — Xen's log-dirty mode rebuilt in userspace. Page writes are
//! intercepted exactly like disk writes in `vdisk::TrackedDisk`: an
//! atomic dirty bitmap records them while tracking is enabled, and the
//! migration loop drains it at every pre-copy iteration boundary.

use std::sync::atomic::{AtomicBool, Ordering};

use block_bitmap::{AtomicBitmap, FlatBitmap};
use vdisk::VirtualDisk;

/// Thread-safe, write-tracked guest RAM: a [`VirtualDisk`] of page-sized
/// blocks, so pages are stored, read and applied as disk blocks are, plus
/// the log-dirty bitmap guest writes mark while tracking is on.
pub struct LiveRam {
    pages: VirtualDisk,
    dirty: AtomicBitmap,
    tracking: AtomicBool,
}

impl LiveRam {
    fn over(pages: VirtualDisk) -> Self {
        Self {
            dirty: AtomicBitmap::new(pages.num_blocks()),
            pages,
            tracking: AtomicBool::new(false),
        }
    }

    /// Allocate zeroed RAM of `num_pages` × `page_size` bytes.
    ///
    /// # Panics
    /// Panics when `page_size == 0`.
    pub fn new(page_size: usize, num_pages: usize) -> Self {
        Self::over(VirtualDisk::dense(page_size, num_pages))
    }

    /// RAM whose every page reads as its stamp-0 content until written,
    /// and which occupies no memory until then.
    ///
    /// # Panics
    /// Panics when `page_size == 0`.
    pub fn stamp_zero(page_size: usize, num_pages: usize) -> Self {
        Self::over(VirtualDisk::stamp_zero(page_size, num_pages))
    }

    /// The pages as a disk of page-sized blocks. A write through it is a
    /// migration-side write, as [`Self::apply_pages`]'s are: the dirty
    /// log does not see it.
    pub fn pages(&self) -> &VirtualDisk {
        &self.pages
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.pages.block_size()
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.num_blocks()
    }

    /// Start recording page writes (log-dirty on).
    pub fn enable_tracking(&self) {
        self.tracking.store(true, Ordering::Release);
    }

    /// Stop recording page writes.
    pub fn disable_tracking(&self) {
        self.tracking.store(false, Ordering::Release);
    }

    /// Guest write: overwrite page `idx`, marking it dirty when tracking.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or the data is not page-sized.
    pub fn write_page(&self, idx: usize, data: &[u8]) {
        self.pages.write_block(idx, data);
        if self.tracking.load(Ordering::Acquire) {
            self.dirty.set(idx);
        }
    }

    /// Read page `idx` into a fresh buffer.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    pub fn read_page(&self, idx: usize) -> Vec<u8> {
        self.pages.read_block(idx)
    }

    /// Read page `idx` into `out`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `out` is not page-sized.
    pub fn read_page_into(&self, idx: usize, out: &mut [u8]) {
        self.pages.read_block_into(idx, out);
    }

    /// Copy several pages into one contiguous buffer (a `MemPages`
    /// payload), in the order given.
    ///
    /// # Panics
    /// Panics when a page is out of range.
    pub fn read_pages(&self, pages: &[usize]) -> Vec<u8> {
        let mut out = Vec::new();
        self.pages.read_blocks_append(pages, &mut out);
        out
    }

    /// Apply a received `MemPages` payload under one write lock
    /// (migration-side write: not tracked, mirroring how pushed blocks
    /// bypass the guest trackers). Page indices are `u64` as they arrive
    /// off the wire, or `usize`.
    ///
    /// # Panics
    /// Panics on size mismatch or out-of-range pages.
    pub fn apply_pages<I: Copy + TryInto<usize>>(&self, pages: &[I], payload: &[u8]) {
        self.pages.write_blocks(pages, payload);
    }

    /// Drain the dirty-page set — one pre-copy iteration boundary.
    pub fn drain_dirty(&self) -> FlatBitmap {
        self.dirty.snapshot_and_clear()
    }

    /// Dirty pages right now (racy under concurrent writers).
    pub fn dirty_count(&self) -> usize {
        self.dirty.count_ones()
    }

    /// `true` when every page matches `other`.
    pub fn content_equals(&self, other: &LiveRam) -> bool {
        self.pages.content_equals(&other.pages)
    }
}

impl std::fmt::Debug for LiveRam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRam")
            .field("page_size", &self.page_size())
            .field("num_pages", &self.num_pages())
            .field("dirty", &self.dirty_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use block_bitmap::DirtyMap as _;
    use std::sync::Arc;

    fn page(v: u8, size: usize) -> Vec<u8> {
        vec![v; size]
    }

    #[test]
    fn write_read_roundtrip() {
        let ram = LiveRam::new(256, 8);
        ram.write_page(3, &page(7, 256));
        assert_eq!(ram.read_page(3), page(7, 256));
        assert_eq!(ram.read_page(2), page(0, 256));
    }

    #[test]
    fn tracking_gates_dirty_recording() {
        let ram = LiveRam::new(256, 8);
        ram.write_page(1, &page(1, 256));
        assert_eq!(ram.dirty_count(), 0, "untracked write must not record");
        ram.enable_tracking();
        ram.write_page(2, &page(2, 256));
        ram.write_page(2, &page(3, 256));
        assert_eq!(ram.drain_dirty().to_indices(), vec![2]);
        assert_eq!(ram.dirty_count(), 0);
    }

    #[test]
    fn batch_read_apply_roundtrip() {
        let src = LiveRam::new(128, 16);
        let dst = LiveRam::new(128, 16);
        for p in [1usize, 5, 9] {
            src.write_page(p, &page(p as u8 + 1, 128));
        }
        let pages = [1usize, 5, 9];
        let payload = src.read_pages(&pages);
        dst.apply_pages(&pages, &payload);
        assert!(src.content_equals(&dst));
    }

    #[test]
    fn iterative_precopy_pattern_converges() {
        // Pre-copy loop: full pass, then dirty-only passes.
        let src = Arc::new(LiveRam::new(128, 32));
        let dst = LiveRam::new(128, 32);
        src.enable_tracking();
        for p in 0..32 {
            src.write_page(p, &page(p as u8, 128));
        }
        // Iteration 1: everything.
        let all: Vec<usize> = (0..32).collect();
        src.drain_dirty();
        dst.apply_pages(&all, &src.read_pages(&all));
        // Guest dirties during the pass.
        src.write_page(7, &page(77, 128));
        src.write_page(8, &page(88, 128));
        let dirty: Vec<usize> = src.drain_dirty().to_indices();
        assert_eq!(dirty, vec![7, 8]);
        dst.apply_pages(&dirty, &src.read_pages(&dirty));
        assert!(src.content_equals(&dst));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        LiveRam::new(128, 4).write_page(4, &page(0, 128));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_sized_write_panics() {
        LiveRam::new(128, 4).write_page(0, &page(0, 64));
    }
}
