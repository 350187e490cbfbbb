//! The workspace's one locking rule, checked at run time by the
//! `parking_lot` stand-in under debug assertions: a thread takes a lock
//! only while it holds none, except a leaf under the one outer lock
//! (`DestIo`'s gate), and blocks on another thread (a transport send or
//! receive, a driver wait) holding no lock at all. Each violation panics
//! naming both sites; each test here reads the two source lines the panic
//! names and checks they are the lock taken and the lock held.
//!
//! Release builds compile the check out, so this file tests nothing there.
#![cfg(debug_assertions)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use block_bitmap_migration::migrate::live::{
    DestIo, DriverHandle, GuestIo, LiveWorkload, SourceIo,
};
use block_bitmap_migration::prelude::*;
use block_bitmap_migration::simnet::proto::MigMessage;
use block_bitmap_migration::simnet::transport::duplex;
use block_bitmap_migration::vdisk::{stamp_bytes, DomainId};
use block_bitmap_migration::vmstate::LiveRam;
use parking_lot::{Condvar, Mutex, RwLock};

/// Run `f`, which must panic; the two sites its message names, in order:
/// the lock taken (or the blocking call), then the lock held.
fn panic_sites(f: impl FnOnce()) -> [String; 2] {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the check let the call through");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("a text panic");
    // "<what> at FILE:LINE:COL while the lock taken at FILE:LINE:COL is held"
    let (first, second) = msg.split_once(" while ").unwrap_or_else(|| panic!("{msg}"));
    let site = |part: &str| {
        let (_, site) = part.rsplit_once(" at ").unwrap_or_else(|| panic!("{msg}"));
        site.trim_end_matches(" is held").to_string()
    };
    [site(first), site(second)]
}

/// The source line at `FILE:LINE:COL`, a path relative to the workspace.
fn line_at(site: &str) -> String {
    let mut parts = site.rsplitn(3, ':');
    let (_col, line, file) = (parts.next(), parts.next(), parts.next());
    let line: usize = line.and_then(|l| l.parse().ok()).expect(site);
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file.expect(site)))
            .unwrap_or_else(|e| panic!("{site}: {e}"));
    text.lines().nth(line - 1).expect(site).trim().to_string()
}

/// Assert that `f` panics naming a site whose line holds `taken` and a
/// site whose line holds `held`.
fn assert_names(f: impl FnOnce(), taken: &str, held: &str) {
    let [at, held_at] = panic_sites(f);
    assert!(line_at(&at).contains(taken), "{at}: {}", line_at(&at));
    assert!(
        line_at(&held_at).contains(held),
        "{held_at}: {}",
        line_at(&held_at)
    );
}

#[test]
fn an_inverted_order_panics_at_its_first_nesting() {
    let (ledger, pending) = (Mutex::new(0u64), Mutex::new(0u64));
    // The source side takes ledger → pending; the destination side the
    // other way round. Every lock is a leaf, so neither order is allowed
    // and the cycle cannot form.
    let source_side = || {
        let a = ledger.lock();
        let b = pending.lock();
        *a + *b
    };
    assert_names(
        || {
            source_side();
        },
        "let b = pending.lock();",
        "let a = ledger.lock();",
    );
    let dest_side = || {
        let b = pending.lock();
        let a = ledger.lock();
        *a + *b
    };
    assert_names(
        || {
            dest_side();
        },
        "let a = ledger.lock();",
        "let b = pending.lock();",
    );
}

#[test]
fn a_reacquire_panics_instead_of_deadlocking() {
    let ledger = RwLock::new(0u64);
    assert_names(
        || {
            let first = ledger.write();
            let again = ledger.write();
            assert_eq!(*first, *again);
        },
        "let again = ledger.write();",
        "let first = ledger.write();",
    );
    // Two shared reads of one lock on one thread are a nesting too.
    assert_names(
        || {
            let first = ledger.read();
            let again = ledger.read();
            assert_eq!(*first, *again);
        },
        "let again = ledger.read();",
        "let first = ledger.read();",
    );
}

#[test]
fn a_guard_across_a_transport_send_panics() {
    let (src, _dst) = duplex();
    let ledger = Mutex::new(0u64);
    assert_names(
        || {
            let guard = ledger.lock();
            let _sent = src.send(MigMessage::PrepareAck);
            drop(guard);
        },
        "parking_lot::assert_no_lock_held();",
        "let guard = ledger.lock();",
    );
}

#[test]
fn a_guard_across_a_transport_recv_panics() {
    let (src, dst) = duplex();
    // A message waits, so a receive the check let through would return.
    src.send(MigMessage::PrepareAck).expect("the peer is alive");
    let ledger = Mutex::new(0u64);
    assert_names(
        || {
            let guard = ledger.lock();
            let _got = dst.recv_timeout(Duration::from_millis(1));
            drop(guard);
        },
        "parking_lot::assert_no_lock_held();",
        "let guard = ledger.lock();",
    );
    assert_names(
        || {
            let guard = ledger.lock();
            let _got = dst.recv();
            drop(guard);
        },
        "parking_lot::assert_no_lock_held();",
        "let guard = ledger.lock();",
    );
}

#[test]
fn a_guard_across_a_driver_wait_panics() {
    let disk = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(512, 64))));
    let io: Arc<dyn GuestIo> = Arc::new(SourceIo::new(disk, DomainId(1)));
    let driver = DriverHandle::start(
        LiveWorkload::from_kind(WorkloadKind::Idle, 64, SimDuration::from_millis(1)),
        io,
        Arc::new(LiveRam::new(512, 8)),
        0,
        512,
        1,
        Duration::from_millis(1),
        Recorder::off(),
    );
    let ctl = driver.ctl();
    let ledger = Mutex::new(0u64);
    assert_names(
        || {
            let guard = ledger.lock();
            ctl.wait_ticks(1, Duration::from_secs(5));
            drop(guard);
        },
        "parking_lot::assert_no_lock_held();",
        "let guard = ledger.lock();",
    );
    // With the guard gone the same wait and the join are allowed.
    ctl.wait_ticks(1, Duration::from_secs(5));
    driver.finish().expect("the driver thread stops");
}

#[test]
fn a_helper_that_locks_under_a_held_guard_panics_where_it_locks() {
    // A call on another receiver, in another crate: the disk's read takes
    // its storage lock under the caller's guard.
    let disk = VirtualDisk::dense(512, 8);
    let ledger = Mutex::new(0u64);
    let [at, held] = panic_sites(|| {
        let guard = ledger.lock();
        let _block = disk.read_block(0);
        drop(guard);
    });
    assert!(at.starts_with("crates/vdisk/src/disk.rs:"), "{at}");
    assert!(line_at(&at).contains("self.storage.read()"), "{at}");
    assert!(
        line_at(&held).contains("let guard = ledger.lock();"),
        "{held}"
    );
}

#[test]
fn a_condvar_wait_releases_its_own_guard_and_takes_it_back() {
    let (state, cv, other) = (Mutex::new(false), Condvar::new(), Mutex::new(0u64));
    let mut guard = state.lock();
    let woke = cv.wait_for(&mut guard, Duration::from_millis(1));
    assert!(woke.timed_out());
    // After the wait the guard is held again: another lock still nests.
    assert_names(
        || {
            let _other = other.lock();
        },
        "let _other = other.lock();",
        "let mut guard = state.lock();",
    );
    drop(guard);
    // A leaf waited on under the outer lock blocks holding the outer one.
    let gate = Mutex::new_outer(());
    assert_names(
        || {
            let _gate = gate.lock();
            let mut guard = state.lock();
            cv.wait_for(&mut guard, Duration::from_millis(1));
        },
        "cv.wait_for(&mut guard",
        "let _gate = gate.lock();",
    );
}

#[test]
fn the_gate_is_held_over_a_disk_write() {
    // §IV-A-3: `DestIo`'s gate makes check, write and clear one step
    // against an arrival. Under it the disk's storage, tracker list and
    // telemetry are each taken, one at a time.
    let disk = Arc::new(TrackedDisk::new(Arc::new(VirtualDisk::dense(512, 8))));
    let recorder = Recorder::enabled();
    disk.set_telemetry(&recorder, "dst.disk");
    disk.attach_tracker(Arc::new(AtomicBitmap::new(8)), None);
    disk.enable_tracking();
    let transferred = Arc::new(AtomicBitmap::new(8));
    transferred.set(3);
    transferred.set(5);
    let (pull_tx, _pull_rx) = crossbeam::channel::unbounded();
    let io = DestIo::new(
        Arc::clone(&disk),
        DomainId(1),
        transferred,
        pull_tx,
        Arc::clone(&recorder),
    );
    io.write(3, &stamp_bytes(3, 1, 512));
    assert!(io.apply_arrival(5, &stamp_bytes(5, 2, 512)));
    assert!(!io.apply_arrival(3, &stamp_bytes(3, 0, 512)));
    assert_eq!(io.read(3), stamp_bytes(3, 1, 512));
    assert_eq!(io.read(5), stamp_bytes(5, 2, 512));
}
