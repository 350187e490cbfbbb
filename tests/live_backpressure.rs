//! Downtime as an invariant under a slow destination (ROADMAP 4c).
//!
//! A destination that applies slower than the source sends builds a
//! backlog of pre-copy frames. If the source suspends the guest into that
//! backlog, `Suspended` and the freeze payloads queue behind it and the
//! backlog's whole drain time becomes downtime. The per-iteration
//! `Barrier`/`BarrierAck` exchange forbids that: an iteration ends when
//! the destination has applied it, so total time absorbs the slowness and
//! downtime does not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use block_bitmap_migration::migrate::live::{
    duplex_connector_pair, run_live_migration_connected, Connector, LiveConfig, LiveOutcome,
    MigrationError, OnceConnector,
};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::simnet::fault::{Fault, FaultKind, FaultTrigger};
use block_bitmap_migration::simnet::proto::{Category, MigMessage, TransferLedger};
use block_bitmap_migration::simnet::tcp::loopback_pair;
use block_bitmap_migration::simnet::transport::{duplex, Transport, TransportError, SEND_WINDOW};
use block_bitmap_migration::telemetry::Side;
use block_bitmap_migration::vdisk::stamp_bytes;

/// What the slow destination spends on every bulk frame it receives.
const APPLY_DELAY: Duration = Duration::from_millis(2);

/// A destination transport that is slow to take bulk frames off the
/// link: every received block or page batch costs [`APPLY_DELAY`].
struct SlowRecv<T> {
    inner: T,
    delayed: Arc<AtomicU64>,
}

impl<T: Transport> SlowRecv<T> {
    fn delay(&self, got: Result<MigMessage, TransportError>) -> Result<MigMessage, TransportError> {
        if matches!(
            got,
            Ok(MigMessage::DiskBlocks { .. }
                | MigMessage::CompressedBlocks { .. }
                | MigMessage::MemPages { .. }
                | MigMessage::CompressedPages { .. })
        ) {
            std::thread::sleep(APPLY_DELAY);
            self.delayed.fetch_add(1, Ordering::Relaxed);
        }
        got
    }
}

impl<T: Transport> Transport for SlowRecv<T> {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        self.inner.send(msg)
    }
    fn recv(&self) -> Result<MigMessage, TransportError> {
        self.delay(self.inner.recv())
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        self.delay(self.inner.recv_timeout(timeout))
    }
    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        self.delay(self.inner.try_recv())
    }
    fn sent_ledger(&self) -> TransferLedger {
        self.inner.sent_ledger()
    }
    fn link_ns_per_byte(&self) -> Option<f64> {
        self.inner.link_ns_per_byte()
    }
    fn shutdown(&self) {
        self.inner.shutdown();
    }
    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        self.inner.set_telemetry(recorder, side);
    }
}

/// Wraps every connection a destination connector produces in
/// [`SlowRecv`].
struct SlowDest<C> {
    inner: C,
    delayed: Arc<AtomicU64>,
}

impl<C: Connector> Connector for SlowDest<C> {
    type Link = SlowRecv<C::Link>;

    fn connect(&mut self, attempt: u32) -> Result<Self::Link, MigrationError> {
        Ok(SlowRecv {
            inner: self.inner.connect(attempt)?,
            delayed: Arc::clone(&self.delayed),
        })
    }

    fn abort(&self) {
        self.inner.abort();
    }
}

fn cfg() -> LiveConfig {
    LiveConfig {
        num_blocks: 16_384,
        ..LiveConfig::test_default()
    }
}

/// The stamp-0 source image and a blank destination, as the engine's own
/// entry points lay them out.
fn disks(cfg: &LiveConfig) -> (Arc<TrackedDisk>, Arc<TrackedDisk>) {
    let dense = || VirtualDisk::dense(cfg.block_size, cfg.num_blocks);
    let src = dense();
    for b in 0..cfg.num_blocks {
        src.write_block(b, &stamp_bytes(b, 0, cfg.block_size));
    }
    (
        Arc::new(TrackedDisk::new(Arc::new(src))),
        Arc::new(TrackedDisk::new(Arc::new(dense()))),
    )
}

fn assert_slow_but_live(out: &LiveOutcome, delayed: u64) {
    assert_eq!(out.read_violations, 0, "guest observed stale data");
    assert!(
        out.inconsistent_blocks().is_empty(),
        "image not block-exact"
    );
    assert!(out.inconsistent_pages().is_empty(), "RAM not page-exact");
    // The first pass alone is 64 block batches and 16 page batches, in
    // whichever form (raw or compressed) each batch crossed.
    assert!(delayed >= 80, "only {delayed} bulk frames were delayed");
    assert!(
        out.total >= APPLY_DELAY * delayed as u32,
        "total {:?} does not account for {delayed} delayed frames",
        out.total
    );
    // What the barrier guards against is the guest being suspended into
    // the destination's backlog: then draining it — `APPLY_DELAY` per
    // delayed frame — is downtime. Downtime under half of that cannot
    // have absorbed it, however loaded the box running the tests is; a
    // fixed number of milliseconds would measure the box instead.
    let backlog = APPLY_DELAY * delayed as u32;
    assert!(
        out.downtime < backlog / 2,
        "downtime {:?} absorbed the destination's backlog ({delayed} delayed frames = {backlog:?}; \
         total {:?}, reconnects {}, owed {:?})",
        out.downtime,
        out.total,
        out.reconnects,
        out.resume_owed
    );
}

#[test]
fn slow_destination_costs_total_time_not_downtime() {
    let cfg = cfg();
    let (src, dst) = disks(&cfg);
    let delayed = Arc::new(AtomicU64::new(0));
    let (src_ep, dst_ep) = duplex();
    let slow = SlowRecv {
        inner: dst_ep,
        delayed: Arc::clone(&delayed),
    };
    let out = run_live_migration_connected(
        &cfg,
        src,
        dst,
        None,
        OnceConnector::new(src_ep),
        OnceConnector::new(slow),
    )
    .expect("migration completes against a slow destination");
    assert_eq!(out.reconnects, 0);
    assert_slow_but_live(&out, delayed.load(Ordering::Relaxed));
}

#[test]
fn slow_destination_over_a_socket_costs_total_time_not_downtime_nor_memory() {
    // The same shape over loopback TCP. Inside a pass nothing in the
    // protocol paces the source, and the destination's reader thread
    // takes frames off the socket however slowly the protocol thread
    // applies them: what keeps the source from running a whole disk pass
    // ahead is that reader's byte budget, then the kernel's buffers, then
    // its own blocked write.
    let cfg = LiveConfig {
        telemetry: Recorder::enabled(),
        ..cfg()
    };
    let (src, dst) = disks(&cfg);
    let delayed = Arc::new(AtomicU64::new(0));
    let (src_ep, dst_ep) = loopback_pair().expect("loopback");
    let slow = SlowRecv {
        inner: dst_ep,
        delayed: Arc::clone(&delayed),
    };
    let out = run_live_migration_connected(
        &cfg,
        src,
        dst,
        None,
        OnceConnector::new(src_ep),
        OnceConnector::new(slow),
    )
    .expect("migration completes against a slow destination");
    assert_eq!(out.reconnects, 0);
    assert_slow_but_live(&out, delayed.load(Ordering::Relaxed));
    // Same-host socket: batches cross raw, 8 MiB of them, 2 ms apart at
    // the far end. A queue formed (the source outran the destination)
    // and never held more than its window.
    assert_eq!(out.wire.blocks_compressed, 0);
    let held = cfg
        .telemetry
        .metrics()
        .gauge("transport.dst.inbox_bytes_peak")
        .get();
    let frame = 256 * (cfg.block_size as u64 + 8) + 16;
    assert!(
        frame < held && held <= SEND_WINDOW,
        "destination inbox peaked at {held} B against a {SEND_WINDOW} B window"
    );
    // The source's inbox saw acks and bounces only: never counted.
    let src_held = cfg
        .telemetry
        .metrics()
        .gauge("transport.src.inbox_bytes_peak")
        .get();
    assert_eq!(src_held, 0);
}

#[test]
fn reset_while_waiting_on_a_barrier_resumes_and_completes() {
    let cfg = cfg();
    let (src, dst) = disks(&cfg);
    // The source's third control frame (after SessionHello and
    // PrepareVbd) is the barrier that closes the first disk pass.
    // Truncating it makes the send look delivered, so the source is
    // parked on the echo — with the destination still working through
    // its backlog — when the link dies under it.
    let mut plan = FaultPlan::none();
    plan.faults.push(Fault {
        attempt: 0,
        trigger: FaultTrigger::CategoryMessages(Category::Control, 3),
        kind: FaultKind::Truncate,
    });
    let (src_conn, dst_conn) = duplex_connector_pair(plan, None);
    let delayed = Arc::new(AtomicU64::new(0));
    let slow = SlowDest {
        inner: dst_conn,
        delayed: Arc::clone(&delayed),
    };
    let out = run_live_migration_connected(&cfg, src, dst, None, src_conn, slow)
        .expect("migration resumes after losing the link at a barrier");
    assert_eq!(
        out.reconnects, 1,
        "the cut barrier costs one reconnect (owed {:?}, total {:?})",
        out.resume_owed, out.total
    );
    // Everything sent before the barrier was in flight and still arrived:
    // the resumed session owes nothing and re-ships no disk pass. Under a
    // loaded test run this is the assertion that once failed unrecorded,
    // so it says everything a diagnosis needs.
    assert_eq!(
        out.resume_owed,
        vec![0],
        "blocks owed per reconnect; {} reconnects, iterations {:?}, {} bulk frames delayed, \
         total {:?}, downtime {:?}",
        out.reconnects,
        out.iterations,
        delayed.load(Ordering::Relaxed),
        out.total,
        out.downtime
    );
    assert_slow_but_live(&out, delayed.load(Ordering::Relaxed));
}
