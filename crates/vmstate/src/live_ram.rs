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

use block_bitmap::{AtomicBitmap, DirtyMap, FlatBitmap};
use parking_lot::RwLock;
use vdisk::Unwritten;

/// Thread-safe, write-tracked guest RAM.
pub struct LiveRam {
    page_size: usize,
    num_pages: usize,
    pages: RwLock<Pages>,
    unwritten: Unwritten,
    dirty: AtomicBitmap,
    tracking: AtomicBool,
}

/// Page bytes and the allocation map that says which of them hold data:
/// a page never written reads as the RAM's initial content, computed
/// when read, and its bytes are never touched.
struct Pages {
    bytes: Vec<u8>,
    written: FlatBitmap,
}

impl Pages {
    fn write(&mut self, idx: usize, data: &[u8]) {
        let start = idx * data.len();
        self.bytes[start..start + data.len()].copy_from_slice(data);
        self.written.set(idx);
    }

    /// Page `idx`'s bytes, or `None` for a page never written.
    fn resident(&self, idx: usize, page_size: usize) -> Option<&[u8]> {
        let range = idx * page_size..(idx + 1) * page_size;
        self.written.get(idx).then(|| &self.bytes[range])
    }
}

impl LiveRam {
    /// Allocate zeroed RAM of `num_pages` × `page_size` bytes.
    ///
    /// # Panics
    /// Panics when `page_size == 0`.
    pub fn new(page_size: usize, num_pages: usize) -> Self {
        assert!(page_size > 0, "page size must be non-zero");
        Self {
            page_size,
            num_pages,
            pages: RwLock::new(Pages {
                bytes: vec![0; page_size * num_pages],
                written: FlatBitmap::new(num_pages),
            }),
            unwritten: Unwritten::Zeroes,
            dirty: AtomicBitmap::new(num_pages),
            tracking: AtomicBool::new(false),
        }
    }

    /// RAM whose every page reads as its stamp-0 content until written,
    /// and which occupies no memory until then.
    ///
    /// # Panics
    /// Panics when `page_size == 0`.
    pub fn stamp_zero(page_size: usize, num_pages: usize) -> Self {
        Self {
            unwritten: Unwritten::StampZero,
            ..Self::new(page_size, num_pages)
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages.
    pub fn num_pages(&self) -> usize {
        self.num_pages
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
        assert!(idx < self.num_pages, "page {idx} out of range");
        assert_eq!(data.len(), self.page_size, "buffer/page size mismatch");
        self.pages.write().write(idx, data);
        if self.tracking.load(Ordering::Acquire) {
            self.dirty.set(idx);
        }
    }

    /// Read page `idx` into a fresh buffer.
    ///
    /// # Panics
    /// Panics when `idx` is out of range.
    pub fn read_page(&self, idx: usize) -> Vec<u8> {
        self.read_pages(&[idx])
    }

    /// Read page `idx` into `out`.
    ///
    /// # Panics
    /// Panics when `idx` is out of range or `out` is not page-sized.
    pub fn read_page_into(&self, idx: usize, out: &mut [u8]) {
        assert!(idx < self.num_pages, "page {idx} out of range");
        assert_eq!(out.len(), self.page_size, "buffer/page size mismatch");
        match self.pages.read().resident(idx, self.page_size) {
            Some(page) => out.copy_from_slice(page),
            None => self.unwritten.fill(idx, out),
        }
    }

    /// Copy several pages into one contiguous buffer (a `MemPages`
    /// payload), in the order given.
    ///
    /// # Panics
    /// Panics when a page is out of range.
    pub fn read_pages(&self, pages: &[usize]) -> Vec<u8> {
        let guard = self.pages.read();
        let mut out = Vec::with_capacity(pages.len() * self.page_size);
        for &p in pages {
            assert!(p < self.num_pages, "page {p} out of range");
            match guard.resident(p, self.page_size) {
                Some(page) => out.extend_from_slice(page),
                None => self.unwritten.append(p, self.page_size, &mut out),
            }
        }
        out
    }

    /// Apply a received `MemPages` payload (migration-side write: not
    /// tracked, mirroring how pushed blocks bypass the guest trackers).
    ///
    /// # Panics
    /// Panics on size mismatch or out-of-range pages.
    pub fn apply_pages(&self, pages: &[usize], payload: &[u8]) {
        assert_eq!(
            payload.len(),
            pages.len() * self.page_size,
            "payload/page-count mismatch"
        );
        let mut guard = self.pages.write();
        for (&p, piece) in pages.iter().zip(payload.chunks_exact(self.page_size)) {
            assert!(p < self.num_pages, "page {p} out of range");
            guard.write(p, piece);
        }
    }

    /// Drain the dirty-page set — one pre-copy iteration boundary.
    pub fn drain_dirty(&self) -> FlatBitmap {
        self.dirty.snapshot_and_clear()
    }

    /// Dirty pages right now (racy under concurrent writers).
    pub fn dirty_count(&self) -> usize {
        self.dirty.count_ones()
    }

    /// Indices of pages whose contents differ from `other`. Each page is
    /// read under its own lock, so compare RAMs nobody is writing.
    ///
    /// # Panics
    /// Panics when geometries differ.
    pub fn diff_pages(&self, other: &LiveRam) -> Vec<usize> {
        assert_eq!(self.page_size, other.page_size, "page sizes must match");
        assert_eq!(self.num_pages, other.num_pages, "page counts must match");
        let mut a = vec![0u8; self.page_size];
        let mut b = vec![0u8; self.page_size];
        (0..self.num_pages)
            .filter(|&p| {
                self.read_page_into(p, &mut a);
                other.read_page_into(p, &mut b);
                a != b
            })
            .collect()
    }

    /// `true` when every page matches `other`.
    pub fn content_equals(&self, other: &LiveRam) -> bool {
        self.diff_pages(other).is_empty()
    }
}

impl std::fmt::Debug for LiveRam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRam")
            .field("page_size", &self.page_size)
            .field("num_pages", &self.num_pages)
            .field("dirty", &self.dirty_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn diff_pages_finds_divergence() {
        let a = LiveRam::new(128, 4);
        let b = LiveRam::new(128, 4);
        assert!(a.content_equals(&b));
        a.write_page(2, &page(9, 128));
        assert_eq!(a.diff_pages(&b), vec![2]);
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
