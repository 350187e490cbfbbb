//! Network substrate for migration: link models, rate limiting, the wire
//! protocol, and a live-mode in-process transport.
//!
//! The paper's testbed connects source, destination and client through a
//! Gigabit LAN, and §VI-C-3 limits the bandwidth the migration process may
//! use to trade total migration time against workload interference. The
//! pieces here reproduce that environment:
//!
//! * [`Link`] — bandwidth/latency arithmetic in virtual time.
//! * [`TokenBucket`] — a virtual-time token-bucket limiter (the "limit the
//!   network bandwidth used by the migration process" knob).
//! * [`capacity`] — max-min fair sharing of a contended resource; used to
//!   model the migration stream and the guest workload competing for disk
//!   and NIC throughput (the mechanism behind Figure 6).
//! * [`proto`] — the migration wire protocol: typed messages with exact
//!   size accounting per traffic category, so "amount of migrated data"
//!   (Tables I & II) is measured, not estimated.
//! * [`transport`] — the [`transport::Transport`] interface plus a
//!   crossbeam-channel duplex implementation for live (threaded) mode,
//!   with byte counters and optional wall-clock pacing.
//! * [`codec`] — a binary wire codec and length-prefixed framing for the
//!   protocol, and [`tcp`] — a real-socket transport built on it, so the
//!   live prototype can migrate across processes/machines.
//! * [`fault`] — deterministic fault injection ([`fault::FaultyTransport`])
//!   for exercising the reconnect-and-resume path: seeded connection
//!   resets, stalls and truncated frames at exact wire offsets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lint zones (DESIGN.md §11): transport, result-dropped, protocol.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub mod capacity;
pub mod codec;
pub mod fault;
mod link;
pub mod proto;
mod ratelimit;
pub mod tcp;
pub mod transport;

pub use link::Link;
pub use ratelimit::TokenBucket;
