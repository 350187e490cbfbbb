//! Deterministic virtual-time migration engines at full paper scale.
//!
//! The simulated engine reproduces the paper's testbed: a 40 GB VBD and a
//! 512 MB guest migrating over a Gigabit LAN while one of the §VI-B
//! workloads runs. Disk and memory contents are modelled as per-unit
//! generation counters ([`vdisk::MetaDisk`], [`vmstate::GuestMemory`]) —
//! every consistency property is still checked exactly, but 40 GB of
//! payload bytes never materialize.
//!
//! Phase structure follows §IV (see the crate docs). Pre-copy phases are
//! time-stepped (disk/NIC bandwidth shares change continuously as the
//! workload and the migration stream contend); the post-copy phase is
//! event-driven on the [`des::Simulator`] (pushes, pulls and guest I/O
//! interleave at millisecond scale).

// Lint zones (DESIGN.md §11): deterministic.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

pub(crate) mod engine;
mod extensions;
mod postcopy;

pub use crate::phase::DirtyTracker;
pub use engine::{dwell, run_im, run_im_traced, run_tpm, run_tpm_traced, TpmEngine, TpmOutcome};
pub use extensions::{
    reserve_workload_blocks, run_sparse_migration, run_template_clone_fanin,
    run_template_clone_fanin_traced, run_template_clone_tpm, run_template_clone_tpm_traced,
    run_template_migration, synthetic_free_map,
};
pub use postcopy::{run_postcopy, PostCopyConfig, PostCopyOutcome};
