//! Guest domain model: memory with dirty-page tracking, CPU state, and the
//! VM lifecycle the migration engine drives.
//!
//! The paper migrates a Xen DomainU with 512 MB of RAM and a 40 GB VBD.
//! Memory and CPU-state migration reuse Xen's iterative pre-copy (Clark et
//! al., NSDI'05); this crate supplies the state those algorithms operate
//! on:
//!
//! * [`CpuState`] — the opaque register/context blob transferred during
//!   freeze-and-copy.
//! * [`GuestMemory`] — page-granular memory for the virtual-time engines:
//!   a [`vdisk::MetaDisk`] of pages (generation counters for consistency
//!   checks) plus a dirty-page bitmap (the shadow-page-table log-dirty
//!   analogue).
//! * [`WssModel`] — a writable-working-set dirtying model: a hot set of
//!   pages written repeatedly plus a cold tail, the empirically observed
//!   behaviour that makes iterative pre-copy converge.
//! * [`Domain`] — VM identity plus the run-state machine
//!   (Running → Suspended → Resumed) whose transitions delimit downtime.
//! * [`LiveRam`] — byte-real, write-tracked RAM for the live (threaded)
//!   migration prototype: a [`vdisk::VirtualDisk`] of page-sized blocks
//!   plus its dirty bitmap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod domain;
mod live_ram;
mod memory;
mod wss;

pub use cpu::CpuState;
pub use domain::{Domain, DomainError, VmRunState};
pub use live_ram::LiveRam;
pub use memory::GuestMemory;
pub use vdisk::DomainId;
pub use wss::WssModel;
