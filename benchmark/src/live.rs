//! The four workloads that run the threaded live engine (`migrate::live`)
//! through its public entry points with default settings: dedup, LZ and
//! multisource on, one stream.

use std::sync::Arc;
use std::time::Instant;

use block_bitmap::{DirtyMap, FlatBitmap};
use des::SimRng;
use migrate::live::{
    run_live_migration_tcp, run_live_migration_with, LiveConfig, LiveOutcome, MigrationError,
};
use serde_json::{json, Value};
use telemetry::{reconstruct_phases, PhaseDurations, Recorder};
use vdisk::{stamp_bytes, TrackedDisk, VirtualDisk};
use workloads::WorkloadKind;

use crate::images::{
    clone_disk, random_image, rewrite_blocks, sample_blocks, text_image, TextSource,
};
use crate::measure::process_cpu_ms;
use crate::Case;

/// Disk blocks of `bulk_unique` and `template_clone_paced`: 16 MiB, one
/// migration in 0.1 to 0.5 s. Migrations this short often finish between
/// two disturbances from the host, which is what makes the 10th percentile
/// of their totals repeat (see README, "Steadiness"); at 64 MiB none did.
const IMAGE_BLOCKS: usize = 4096;
/// Disk blocks of `incremental_return`, which moves 2 % of them: the
/// CLI's floor, 64 MiB, one migration in about 35 ms.
const RETURN_BLOCKS: usize = 16_384;
const IMAGE_BLOCK_SIZE: usize = 4096;
const IMAGE_RAM_PAGES: usize = 512;

/// Link rate of `template_clone_paced`, bytes/second.
const PACED_RATE: f64 = 10.0 * 1024.0 * 1024.0;
/// Share of the template's blocks the paced clone rewrote, in percent.
const PACED_DIVERGED_PCT: usize = 25;

/// Which transport a workload crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// In-process duplex channel: messages move, nothing is encoded.
    Duplex,
    /// Loopback TCP: every message is framed, written, read and decoded.
    Tcp,
}

/// One prepared live workload: configuration plus the images every run
/// starts from.
pub struct LiveCase {
    pub cfg: LiveConfig,
    pub wire: Wire,
    /// Source image; `None` means the engine's own stamp-0 image, the
    /// only image an active guest may run on (its reads are checked
    /// against the stamp model).
    pub src_image: Option<Arc<VirtualDisk>>,
    /// What the destination disk holds before the migration (`None` =
    /// blank).
    pub dst_seed: Option<VirtualDisk>,
    /// Incremental migration: the blocks that differ from `dst_seed`.
    pub initial_bitmap: Option<FlatBitmap>,
}

/// What one migration produced, reduced to plain numbers.
#[derive(Debug, Clone, Default)]
pub struct LiveSample {
    pub total_ms: f64,
    pub downtime_ms: f64,
    /// Process CPU consumed inside the engine call.
    pub cpu_ms: f64,
    /// Wall time of the engine call (the bracket `cpu_ms` was taken over).
    pub wall_ms: f64,
    pub disk_iterations: f64,
    pub mem_iterations: f64,
    pub blocks_sent: f64,
    pub frozen_dirty_blocks: f64,
    pub frozen_dirty_pages: f64,
    pub pushed: f64,
    pub pulled: f64,
    pub dropped: f64,
    pub stalled_reads: f64,
    pub reconnects: f64,
    pub blocks_deduped: f64,
    pub blocks_compressed: f64,
    pub src_bytes: f64,
    pub dst_bytes: f64,
    /// Phase spans from the journal, when the run kept one.
    pub phases: Option<PhaseDurations>,
}

impl Case for LiveCase {
    type Sample = LiveSample;

    /// Build the named workload's images from `seed`.
    fn prepare(workload: &str, seed: u64) -> Result<Self, String> {
        let mut rng = SimRng::new(seed);
        let idle_image_cfg = LiveConfig {
            block_size: IMAGE_BLOCK_SIZE,
            num_blocks: IMAGE_BLOCKS,
            mem_pages: IMAGE_RAM_PAGES,
            mem_page_size: IMAGE_BLOCK_SIZE,
            workload: WorkloadKind::Idle,
            // An idle guest dirties no RAM either; the driver's default of
            // 8 page writes per tick would keep a 512-page guest from ever
            // converging and let RAM retransmission dominate the wire.
            mem_writes_per_tick: 0,
            multisource: true,
            seed,
            ..LiveConfig::test_default()
        };
        Ok(match workload {
            "bulk_unique" => Self {
                cfg: idle_image_cfg,
                wire: Wire::Duplex,
                src_image: Some(Arc::new(random_image(
                    &mut rng,
                    IMAGE_BLOCK_SIZE,
                    IMAGE_BLOCKS,
                ))),
                dst_seed: None,
                initial_bitmap: None,
            },
            "template_clone_paced" => {
                let text = TextSource::new(&mut rng);
                let template = text_image(&text, &mut rng, IMAGE_BLOCK_SIZE, IMAGE_BLOCKS);
                let src = clone_disk(&template);
                let diverged = sample_blocks(
                    &mut rng,
                    IMAGE_BLOCKS,
                    IMAGE_BLOCKS * PACED_DIVERGED_PCT / 100,
                );
                rewrite_blocks(&src, &diverged, &text, &mut rng);
                Self {
                    cfg: LiveConfig {
                        rate_limit: Some(PACED_RATE),
                        ..idle_image_cfg
                    },
                    wire: Wire::Duplex,
                    src_image: Some(Arc::new(src)),
                    dst_seed: Some(template),
                    initial_bitmap: None,
                }
            }
            "web_tcp" => Self {
                // Exactly `vmmigrate live --tcp --workload web`, plus the
                // guest-tick floor that makes the freeze bitmap non-empty
                // on every run instead of racing the guest thread.
                cfg: LiveConfig {
                    min_guest_ticks: 20,
                    multisource: true,
                    seed,
                    ..LiveConfig::test_default()
                },
                wire: Wire::Tcp,
                src_image: None,
                dst_seed: None,
                initial_bitmap: None,
            },
            "incremental_return" => {
                let text = TextSource::new(&mut rng);
                let stale = text_image(&text, &mut rng, IMAGE_BLOCK_SIZE, RETURN_BLOCKS);
                let src = clone_disk(&stale);
                let dirty = sample_blocks(&mut rng, RETURN_BLOCKS, RETURN_BLOCKS * 2 / 100);
                rewrite_blocks(&src, &dirty, &text, &mut rng);
                Self {
                    cfg: LiveConfig {
                        num_blocks: RETURN_BLOCKS,
                        ..idle_image_cfg
                    },
                    wire: Wire::Duplex,
                    src_image: Some(Arc::new(src)),
                    dst_seed: Some(stale),
                    initial_bitmap: Some(dirty),
                }
            }
            other => return Err(format!("{other} is not a live workload")),
        })
    }

    /// Run one whole migration, journaled when `traced`, and verify the
    /// destination. `Err` carries why the run counts as failed.
    /// `corrupt_dest` flips one destination byte before verification (the
    /// checker's own self-test).
    fn run_once(&self, traced: bool, corrupt_dest: bool) -> Result<LiveSample, String> {
        let telemetry = if traced {
            Recorder::enabled()
        } else {
            Recorder::off()
        };
        let mut sample = self.migrate(Arc::clone(&telemetry), corrupt_dest)?;
        if traced {
            let phases = reconstruct_phases(&telemetry.records());
            // The journal stamps suspend and resume at the instants the
            // engine computes downtime from; any gap is a lost event.
            if (phases.freeze_secs * 1e3 - sample.downtime_ms).abs() > 1e-6 {
                return Err(format!(
                    "journal freeze span {} ms != downtime {} ms",
                    phases.freeze_secs * 1e3,
                    sample.downtime_ms
                ));
            }
            sample.phases = Some(phases);
        }
        Ok(sample)
    }

    fn total_ms(s: &LiveSample) -> f64 {
        s.total_ms
    }

    fn cpu_ms(s: &LiveSample) -> f64 {
        s.cpu_ms
    }

    /// Downtime and data volume of every timed run. They are layer metrics
    /// (see README, "End-to-end metrics"); the raw values let `repeat.py`
    /// show how far they spread.
    fn raw(&self, samples: &[LiveSample]) -> Value {
        let wire: Vec<f64> = samples
            .iter()
            .map(|s| (s.src_bytes + s.dst_bytes) / self.image_bytes())
            .collect();
        let downtime: Vec<f64> = samples.iter().map(|s| s.downtime_ms).collect();
        json!({"downtime_ms_raw": downtime, "wire_bytes_per_image_byte_raw": wire})
    }
}

impl LiveCase {
    /// Disk plus RAM bytes of the migrated VM.
    pub fn image_bytes(&self) -> f64 {
        (self.cfg.num_blocks * self.cfg.block_size + self.cfg.mem_pages * self.cfg.mem_page_size)
            as f64
    }

    /// The blocks that differ between source and destination before the
    /// run: the inherited bitmap, the divergence from the pre-seeded
    /// image, or `None` when the destination is blank.
    pub fn first_pass_dirty(&self) -> Option<FlatBitmap> {
        if let Some(bm) = &self.initial_bitmap {
            return Some(bm.clone());
        }
        let (src, seed) = (self.src_image.as_ref()?, self.dst_seed.as_ref()?);
        let mut bm = FlatBitmap::new(self.cfg.num_blocks);
        for b in src.diff_blocks(seed) {
            bm.set(b);
        }
        Some(bm)
    }

    /// Bytes a perfect data plane would have to move: the differing
    /// blocks plus RAM.
    pub fn dirty_bytes(&self) -> f64 {
        let blocks = self
            .first_pass_dirty()
            .map_or(self.cfg.num_blocks, |bm| bm.count_ones());
        (blocks * self.cfg.block_size + self.cfg.mem_pages * self.cfg.mem_page_size) as f64
    }

    /// The image the source holds: the workload's own, or the stamp-0
    /// image the engine lays out for an active guest.
    pub fn source_image(&self) -> Arc<VirtualDisk> {
        match &self.src_image {
            Some(image) => Arc::clone(image),
            None => {
                let (bs, n) = (self.cfg.block_size, self.cfg.num_blocks);
                let image = VirtualDisk::dense(bs, n);
                for b in 0..n {
                    image.write_block(b, &stamp_bytes(b, 0, bs));
                }
                Arc::new(image)
            }
        }
    }

    /// A destination disk in its pre-migration state, on fresh storage.
    pub fn fresh_destination(&self) -> VirtualDisk {
        match &self.dst_seed {
            Some(seed) => clone_disk(seed),
            None => VirtualDisk::dense(self.cfg.block_size, self.cfg.num_blocks),
        }
    }

    /// One migration through the engine's public entry point, timed, then
    /// verified outside the timed region.
    fn migrate(&self, telemetry: Arc<Recorder>, corrupt_dest: bool) -> Result<LiveSample, String> {
        let cfg = LiveConfig {
            telemetry,
            ..self.cfg.clone()
        };
        // Disks are laid out before the clocks start. The idle guest never
        // writes, so every run may share the source bytes; tracking state
        // lives in the `TrackedDisk` wrapper.
        let disks = self.src_image.as_ref().map(|image| {
            (
                Arc::new(TrackedDisk::new(Arc::clone(image))),
                Arc::new(TrackedDisk::new(Arc::new(self.fresh_destination()))),
            )
        });
        let cpu_before = process_cpu_ms();
        let wall = Instant::now();
        let outcome: Result<LiveOutcome, MigrationError> = match disks {
            None => run_live_migration_tcp(&cfg),
            Some((src, dst)) => {
                run_live_migration_with(&cfg, src, dst, self.initial_bitmap.clone())
            }
        };
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - cpu_before;
        let out = outcome.map_err(|e| format!("engine error: {e}"))?;

        if corrupt_dest {
            let disk = out.dst_disk.disk();
            let mut block = disk.read_block(0);
            block[0] ^= 0xff;
            disk.write_block(0, &block);
        }
        let bad_blocks = match &self.src_image {
            None => out.inconsistent_blocks().len(),
            Some(_) => out.src_disk.disk().diff_blocks(out.dst_disk.disk()).len(),
        };
        let bad_pages = out.inconsistent_pages().len();
        if out.read_violations > 0 || bad_blocks > 0 || bad_pages > 0 {
            return Err(format!(
                "verification failed: {} read violations, {bad_blocks} bad blocks, {bad_pages} bad pages",
                out.read_violations
            ));
        }

        Ok(LiveSample {
            total_ms: out.total.as_secs_f64() * 1e3,
            downtime_ms: out.downtime.as_secs_f64() * 1e3,
            cpu_ms,
            wall_ms,
            disk_iterations: out.iterations.len() as f64,
            mem_iterations: out.mem_iterations.len() as f64,
            blocks_sent: (out.iterations.iter().sum::<u64>() + out.pushed + out.pulled) as f64,
            frozen_dirty_blocks: out.frozen_dirty as f64,
            frozen_dirty_pages: out.frozen_mem_dirty as f64,
            pushed: out.pushed as f64,
            pulled: out.pulled as f64,
            dropped: out.dropped as f64,
            stalled_reads: out.stalled_reads as f64,
            reconnects: f64::from(out.reconnects),
            blocks_deduped: out.wire.blocks_deduped as f64,
            blocks_compressed: out.wire.blocks_compressed as f64,
            src_bytes: out.src_ledger.total() as f64,
            dst_bytes: out.dst_ledger.total() as f64,
            phases: None,
        })
    }
}
