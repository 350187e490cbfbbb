//! The `blkback` analogue: write interception into block-bitmaps.
//!
//! The paper modifies Xen's block backend so that, while migration is in
//! progress, every write from the migrated domain sets bits in a
//! block-bitmap. Several bitmaps are live at different times:
//!
//! * during pre-copy, the per-iteration dirty map (drained and reset at
//!   every iteration boundary);
//! * during post-copy on the destination, the *transferred* map (cleared as
//!   blocks arrive or are overwritten) and the *new* map that feeds a later
//!   Incremental Migration.
//!
//! [`TrackedDisk`] therefore supports any number of simultaneously attached
//! trackers; each guest write is recorded in all of them. Tracking can be
//! switched on and off as a whole — the paper measures the overhead of
//! exactly this interception in Table III.
//!
//! The write hook touches trackers and nothing else: what a block holds
//! is the disk's business, and a content index over it belongs to the
//! migration that builds one (DESIGN.md §15a).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use block_bitmap::AtomicBitmap;
use parking_lot::RwLock;

use crate::{DomainId, IoOp, IoRequest, VirtualDisk};

/// Handle identifying an attached tracker, for later detachment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackerHandle(u64);

struct Tracker {
    handle: TrackerHandle,
    bitmap: Arc<AtomicBitmap>,
    /// Restrict recording to writes from this domain; `None` records all
    /// domains (Dom0 housekeeping writes are normally excluded, matching
    /// the paper's check `R.VM != migrated VM`).
    domain: Option<DomainId>,
}

/// Per-device telemetry counters, registered once on attach so the I/O
/// paths only do relaxed atomic adds.
struct DiskStats {
    reads: telemetry::Counter,
    writes: telemetry::Counter,
}

/// A [`VirtualDisk`] wrapped with write interception.
pub struct TrackedDisk {
    disk: Arc<VirtualDisk>,
    trackers: RwLock<Vec<Tracker>>,
    next_handle: AtomicU64,
    tracking_enabled: AtomicBool,
    telemetry_on: AtomicBool,
    telemetry: RwLock<Option<DiskStats>>,
}

impl TrackedDisk {
    /// Wrap a disk. Tracking starts disabled (the paper's `blkback` only
    /// monitors once signalled at migration start).
    pub fn new(disk: Arc<VirtualDisk>) -> Self {
        Self {
            disk,
            trackers: RwLock::new(Vec::new()),
            next_handle: AtomicU64::new(0),
            tracking_enabled: AtomicBool::new(false),
            telemetry_on: AtomicBool::new(false),
            telemetry: RwLock::new(None),
        }
    }

    /// Mirror this device's read/write totals into `recorder`'s metrics
    /// as `{prefix}.reads` / `{prefix}.writes`. A disabled recorder keeps
    /// the I/O paths at a single relaxed atomic load.
    pub fn set_telemetry(&self, recorder: &telemetry::Recorder, prefix: &str) {
        if !recorder.is_enabled() {
            return;
        }
        let m = recorder.metrics();
        *self.telemetry.write() = Some(DiskStats {
            reads: m.counter(&format!("{prefix}.reads")),
            writes: m.counter(&format!("{prefix}.writes")),
        });
        self.telemetry_on.store(true, Ordering::Release);
    }

    fn tel_read(&self) {
        if self.telemetry_on.load(Ordering::Relaxed) {
            if let Some(s) = &*self.telemetry.read() {
                s.reads.inc();
            }
        }
    }

    fn tel_write(&self) {
        if self.telemetry_on.load(Ordering::Relaxed) {
            if let Some(s) = &*self.telemetry.read() {
                s.writes.inc();
            }
        }
    }

    /// The wrapped device.
    pub fn disk(&self) -> &Arc<VirtualDisk> {
        &self.disk
    }

    /// Enable write interception ("signal blkback to start monitoring").
    pub fn enable_tracking(&self) {
        self.tracking_enabled.store(true, Ordering::Release);
    }

    /// Disable write interception.
    pub fn disable_tracking(&self) {
        self.tracking_enabled.store(false, Ordering::Release);
    }

    /// Whether interception is currently on.
    pub fn tracking_enabled(&self) -> bool {
        self.tracking_enabled.load(Ordering::Acquire)
    }

    /// Attach a tracker bitmap. When `domain` is `Some`, only writes from
    /// that domain are recorded.
    ///
    /// # Panics
    /// Panics when the bitmap size does not match the disk's block count.
    pub fn attach_tracker(
        &self,
        bitmap: Arc<AtomicBitmap>,
        domain: Option<DomainId>,
    ) -> TrackerHandle {
        assert_eq!(
            bitmap.len(),
            self.disk.num_blocks(),
            "tracker bitmap must cover the whole disk"
        );
        let handle = TrackerHandle(self.next_handle.fetch_add(1, Ordering::Relaxed));
        self.trackers.write().push(Tracker {
            handle,
            bitmap,
            domain,
        });
        handle
    }

    /// Detach a tracker. Detaching twice is a no-op.
    pub fn detach_tracker(&self, handle: TrackerHandle) {
        self.trackers.write().retain(|t| t.handle != handle);
    }

    /// Number of attached trackers.
    pub fn tracker_count(&self) -> usize {
        self.trackers.read().len()
    }

    /// Submit a block-granular request; performs the I/O and records writes
    /// into every matching tracker. Returns the read data for reads.
    pub fn submit(&self, req: IoRequest, data: Option<&[u8]>) -> Option<Vec<u8>> {
        match req.op {
            IoOp::Read => {
                self.tel_read();
                Some(self.disk.read_block(req.block))
            }
            IoOp::Write => {
                self.tel_write();
                let data = data.expect("write request requires data");
                self.disk.write_block(req.block, data);
                self.record_write(req.block, req.domain);
                None
            }
        }
    }

    /// Read one block, counted like a submitted read request. Reads are
    /// infallible by construction (the disk owns its backing store), so
    /// guest read paths can use this without an unwrap on the
    /// [`TrackedDisk::submit`] `Option`.
    pub fn read_block(&self, block: usize) -> Vec<u8> {
        self.tel_read();
        self.disk.read_block(block)
    }

    /// Record a write into the trackers without performing byte I/O — used
    /// by the metadata-only simulation path, where the same interception
    /// semantics apply but blocks have no materialized contents.
    pub fn record_write(&self, block: usize, domain: DomainId) {
        if !self.tracking_enabled() {
            return;
        }
        for t in self.trackers.read().iter() {
            if t.domain.is_none() || t.domain == Some(domain) {
                t.bitmap.set(block);
            }
        }
    }

    /// Submit a byte-extent write, splitting it into blocks exactly as
    /// the paper's `blkback` does: "it will split the requested area into
    /// 4K blocks and set corresponding bits in the block-bitmap."
    ///
    /// Partial head/tail blocks are read-modify-written (the whole block
    /// is still marked dirty — bitmap granularity is the block).
    ///
    /// # Panics
    /// Panics when the extent exceeds the device or `data.len()` differs
    /// from the extent length.
    pub fn write_extent(&self, offset: u64, data: &[u8], domain: DomainId) {
        let mapper = self.disk.mapper();
        let bs = mapper.block_size() as usize;
        let range = mapper.byte_extent(offset, data.len() as u64);
        let mut consumed = 0usize;
        for block in range.iter() {
            let block_start = mapper.byte_of_block(block);
            let in_block_off = offset.saturating_sub(block_start) as usize;
            let span = (bs - in_block_off).min(data.len() - consumed);
            if in_block_off == 0 && span == bs {
                // Aligned full block: straight overwrite.
                self.disk
                    .write_block(block, &data[consumed..consumed + span]);
            } else {
                // Partial block: read-modify-write.
                let mut buf = self.disk.read_block(block);
                buf[in_block_off..in_block_off + span]
                    .copy_from_slice(&data[consumed..consumed + span]);
                self.disk.write_block(block, &buf);
            }
            self.record_write(block, domain);
            self.tel_write();
            consumed += span;
        }
        debug_assert_eq!(consumed, data.len());
    }

    /// Submit a sector-granular write (the 512 B unit "on which physical
    /// disk performs reading and writing"), mapped onto blocks.
    ///
    /// # Panics
    /// Panics when the sector extent exceeds the device or `data` is not
    /// a whole number of sectors.
    pub fn write_sectors(&self, sector: u64, data: &[u8], domain: DomainId) {
        assert!(
            (data.len() as u64).is_multiple_of(block_bitmap::BlockMapper::SECTOR_SIZE),
            "data must be whole sectors"
        );
        self.write_extent(
            sector * block_bitmap::BlockMapper::SECTOR_SIZE,
            data,
            domain,
        );
    }

    /// Read a byte extent, crossing block boundaries as needed.
    ///
    /// # Panics
    /// Panics when the extent exceeds the device.
    pub fn read_extent(&self, offset: u64, len: usize, domain: DomainId) -> Vec<u8> {
        let mapper = self.disk.mapper();
        let bs = mapper.block_size() as usize;
        let range = mapper.byte_extent(offset, len as u64);
        let mut out = Vec::with_capacity(len);
        for block in range.iter() {
            self.tel_read();
            let buf = self.disk.read_block(block);
            let block_start = mapper.byte_of_block(block);
            let start = offset.saturating_sub(block_start) as usize;
            let end = (start + (len - out.len())).min(bs);
            out.extend_from_slice(&buf[start..end]);
        }
        debug_assert_eq!(out.len(), len);
        let _ = domain;
        out
    }
}

impl std::fmt::Debug for TrackedDisk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedDisk")
            .field("disk", &self.disk)
            .field("trackers", &self.tracker_count())
            .field("tracking_enabled", &self.tracking_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamp_bytes;
    use block_bitmap::DirtyMap;

    fn setup(blocks: usize) -> (TrackedDisk, Arc<AtomicBitmap>) {
        let disk = Arc::new(VirtualDisk::dense(512, blocks));
        let td = TrackedDisk::new(disk);
        let bm = Arc::new(AtomicBitmap::new(blocks));
        td.attach_tracker(Arc::clone(&bm), Some(DomainId(1)));
        (td, bm)
    }

    #[test]
    fn disabled_tracking_records_nothing() {
        let (td, bm) = setup(8);
        td.submit(
            IoRequest::write(3, DomainId(1)),
            Some(&stamp_bytes(3, 1, 512)),
        );
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn enabled_tracking_records_writes_only() {
        let (td, bm) = setup(8);
        let rec = telemetry::Recorder::enabled();
        td.set_telemetry(&rec, "disk");
        td.enable_tracking();
        td.submit(
            IoRequest::write(3, DomainId(1)),
            Some(&stamp_bytes(3, 1, 512)),
        );
        let read = td.submit(IoRequest::read(3, DomainId(1)), None).unwrap();
        assert_eq!(read, stamp_bytes(3, 1, 512));
        assert_eq!(bm.snapshot().to_indices(), vec![3]);
        let count = |name| rec.metrics().counter(name).get();
        assert_eq!((count("disk.reads"), count("disk.writes")), (1, 1));
    }

    #[test]
    fn other_domains_writes_not_recorded() {
        let (td, bm) = setup(8);
        td.enable_tracking();
        // Dom0 write: performed, but not tracked for the migrated domain.
        td.submit(
            IoRequest::write(5, DomainId::DOM0),
            Some(&stamp_bytes(5, 1, 512)),
        );
        assert_eq!(bm.count_ones(), 0);
        assert_eq!(td.disk().read_block(5), stamp_bytes(5, 1, 512));
    }

    #[test]
    fn multiple_trackers_all_record() {
        let (td, bm1) = setup(8);
        let bm2 = Arc::new(AtomicBitmap::new(8));
        let h2 = td.attach_tracker(Arc::clone(&bm2), None);
        td.enable_tracking();
        td.submit(
            IoRequest::write(2, DomainId(1)),
            Some(&stamp_bytes(2, 1, 512)),
        );
        assert!(bm1.get(2));
        assert!(bm2.get(2));
        // Detach the second; further writes only land in the first.
        td.detach_tracker(h2);
        td.detach_tracker(h2); // idempotent
        td.submit(
            IoRequest::write(6, DomainId(1)),
            Some(&stamp_bytes(6, 1, 512)),
        );
        assert!(bm1.get(6));
        assert!(!bm2.get(6));
    }

    #[test]
    fn iteration_boundary_drain() {
        // Pre-copy loop pattern: drain at each iteration boundary.
        let (td, bm) = setup(16);
        td.enable_tracking();
        for b in [1usize, 2, 3] {
            td.record_write(b, DomainId(1));
        }
        let iter1 = bm.snapshot_and_clear();
        assert_eq!(iter1.to_indices(), vec![1, 2, 3]);
        for b in [3usize, 9] {
            td.record_write(b, DomainId(1));
        }
        let iter2 = bm.snapshot_and_clear();
        assert_eq!(iter2.to_indices(), vec![3, 9]);
        assert!(bm.snapshot().none_set());
    }

    #[test]
    fn extent_write_splits_into_blocks_and_marks_all() {
        // 512 B blocks; an unaligned 1200-byte write at offset 700 spans
        // blocks 1..=3 — all three must be dirtied (the paper's blkback
        // splitting rule).
        let (td, bm) = setup(8);
        td.enable_tracking();
        let data: Vec<u8> = (0..1200u32).map(|i| (i % 251) as u8).collect();
        td.write_extent(700, &data, DomainId(1));
        assert_eq!(bm.snapshot().to_indices(), vec![1, 2, 3]);
        // Bytes land exactly where they were aimed.
        let back = td.read_extent(700, 1200, DomainId(1));
        assert_eq!(back, data);
        // Bytes around the extent are untouched (partial-block RMW).
        let head = td.read_extent(512, 188, DomainId(1));
        assert!(head.iter().all(|&b| b == 0));
        let tail = td.read_extent(1900, 100, DomainId(1));
        assert!(tail.iter().all(|&b| b == 0));
    }

    #[test]
    fn aligned_extent_write_is_full_blocks() {
        let (td, bm) = setup(8);
        td.enable_tracking();
        let data = vec![0xCD; 1024]; // blocks 2 and 3 exactly
        td.write_extent(1024, &data, DomainId(1));
        assert_eq!(bm.snapshot().to_indices(), vec![2, 3]);
        assert_eq!(td.disk().read_block(2), vec![0xCD; 512]);
        assert_eq!(td.disk().read_block(3), vec![0xCD; 512]);
    }

    #[test]
    fn sector_writes_map_onto_blocks() {
        // 512 B blocks here, so sector == block; one sector write dirties
        // exactly one block.
        let (td, bm) = setup(8);
        td.enable_tracking();
        td.write_sectors(5, &vec![7u8; 512], DomainId(1));
        assert_eq!(bm.snapshot().to_indices(), vec![5]);
    }

    #[test]
    #[should_panic(expected = "whole sectors")]
    fn ragged_sector_write_panics() {
        let (td, _) = setup(8);
        td.write_sectors(0, &[1, 2, 3], DomainId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn extent_past_device_panics() {
        let (td, _) = setup(8);
        td.write_extent(8 * 512 - 10, &[0u8; 20], DomainId(1));
    }

    #[test]
    #[should_panic(expected = "cover the whole disk")]
    fn wrong_sized_tracker_panics() {
        let disk = Arc::new(VirtualDisk::dense(512, 8));
        let td = TrackedDisk::new(disk);
        td.attach_tracker(Arc::new(AtomicBitmap::new(4)), None);
    }

    #[test]
    #[should_panic(expected = "requires data")]
    fn write_without_data_panics() {
        let (td, _) = setup(8);
        td.submit(IoRequest::write(0, DomainId(1)), None);
    }

    #[test]
    fn telemetry_counters_count_reads_and_writes() {
        let (td, _) = setup(8);
        let rec = telemetry::Recorder::enabled();
        td.set_telemetry(&rec, "disk.src");
        td.submit(
            IoRequest::write(1, DomainId(1)),
            Some(&stamp_bytes(1, 1, 512)),
        );
        td.read_block(1);
        td.read_block(2);
        assert_eq!(rec.metrics().counter("disk.src.reads").get(), 2);
        assert_eq!(rec.metrics().counter("disk.src.writes").get(), 1);
        // A disabled recorder attaches nothing.
        let (td2, _) = setup(8);
        td2.set_telemetry(&telemetry::Recorder::off(), "disk.dst");
        td2.read_block(0);
        assert_eq!(rec.metrics().counter("disk.dst.reads").get(), 0);
    }
}
