//! How many heap allocations one fleet run makes: the seed-1 fleet of the
//! benchmark's `virtual_time` suite (8 hosts, 8 VMs, cycle-aware rolling
//! maintenance), counted by a thread-local counting allocator around
//! `scenario::run`. A count is deterministic where a stopwatch is not: a
//! step loop that goes back to allocating per step or per pool fails
//! here on any machine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use block_bitmap_migration::scenario;
use block_bitmap_migration::telemetry::Recorder;

/// Counts every allocation and reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a const-initialized thread-local, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `virtual_time` suite's fleet at `seed` (`benchmark/src/virt.rs`).
fn fleet_scn(seed: u64) -> String {
    let mut text = format!("fleet hosts=8 vms=8 blocks=16384 seed={seed} policy=cycle-aware\n");
    for h in 0..8 {
        text += &format!("host h{h} nic=25MiB\n");
    }
    for vm in 0..8 {
        text += &format!("cycle vm{vm} high=20s low=40s scale=0.125 keep=1/8\n");
    }
    text += "at 0s maintenance h0 h1 h2 h3 h4 h5 h6 h7 dwell=15s\n";
    text
}

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn a_fleet_step_allocates_nothing_of_its_own() {
    let spec = scenario::parse(&fleet_scn(1)).expect("fleet spec parses");
    let recorder = Recorder::off();
    let mut migrations = 0;
    let n = allocations_in(|| {
        let run = scenario::run(&spec, recorder.clone()).expect("fleet runs");
        migrations = run.report.records.len();
    });
    assert_eq!(migrations, 15);
    // 38 242 before the step loop reused its buffers and held its pools'
    // solves (EXPERIMENTS.md).
    assert!(
        n <= MAX_ALLOCATIONS,
        "{n} allocations, at most {MAX_ALLOCATIONS} expected"
    );
}

/// The most allocations the seed-1 fleet run may make: what it makes,
/// the same in a debug and a release build.
const MAX_ALLOCATIONS: u64 = 1_954;
