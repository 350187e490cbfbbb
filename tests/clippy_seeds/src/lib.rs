//! One module per lint zone, each a zone root carrying the zone's `deny`
//! lines as the real roots do, each holding seeded violations; `outside`
//! repeats them in no zone, where nothing may be reported.

#![forbid(unsafe_code)]

pub mod des_pump;
pub mod live_driver;
pub mod live_proto;
pub mod orchestrator_sched;
pub mod outside;
pub mod simnet_wire;
