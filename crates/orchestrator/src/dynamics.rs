//! Fleet dynamics: the executor's per-step view of topology and time.
//!
//! The PR-9 executor assumed a flat, always-on fleet: every host up,
//! every pair connected, one NIC/disk capacity for everyone, workloads
//! running flat-out forever. [`FleetDynamics`] abstracts exactly that
//! assumption set behind a trait the executor consults every step, so a
//! scenario engine (the `scenario` crate) can drive partitions, WAN
//! links, host maintenance, heterogeneous capacities and workload
//! activity cycles through one interface — while [`StaticDynamics`]
//! reproduces the flat fleet *exactly*: every default answer is the
//! mathematical identity of the corresponding executor computation
//! (`min(x, ∞) = x`, `x · 1.0 = x`) or the Gigabit LAN's own latency, so
//! a run through `StaticDynamics` is byte- and clock-identical to one
//! through `Orchestrator::run`.

use des::{SimDuration, SimTime};
use migrate::testbed;
use simnet::Link;
use telemetry::Recorder;

use crate::cluster::Cluster;
use crate::config::NIC_CAPACITY;
use crate::scheduler::MigrationRequest;

/// The executor's oracle for everything that can change under its feet:
/// connectivity, host lifecycle, per-host and per-link capacity, and
/// workload activity phases.
///
/// Called in a fixed order every step — [`FleetDynamics::advance`]
/// first (the only `&mut` call, where a timeline interprets its due
/// events and journals them), then the read-only queries — so one seed
/// still fixes every answer and the run stays a pure function of its
/// configuration.
pub trait FleetDynamics {
    /// Advance the dynamics to `now`: interpret timeline events due at
    /// or before this instant, journal every topology change as a typed
    /// telemetry event, and return migration requests to inject into
    /// the arrival queue (maintenance evacuations). `streams` lists the
    /// `(src, dst)` endpoints of every live migration, so a maintenance
    /// wave can hold a host up until the streams touching it drain.
    fn advance(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        streams: &[(usize, usize)],
        recorder: &Recorder,
    ) -> Vec<MigrationRequest> {
        let _ = (now, cluster, streams, recorder);
        Vec::new()
    }

    /// Is the host powered and in service? A down host's pools vanish,
    /// its resident VMs neither read nor write, and no stream may start
    /// or continue through it.
    fn host_up(&self, host: usize) -> bool {
        let _ = host;
        true
    }

    /// Is the host refusing *new* inbound migrations? A cordoned host
    /// (maintenance about to start) keeps its existing streams and may
    /// still act as a source — it is evacuating, after all.
    fn cordoned(&self, host: usize) -> bool {
        let _ = host;
        false
    }

    /// Can hosts `a` and `b` exchange migration traffic right now?
    /// Symmetric by convention; a partition answers `false` across
    /// island boundaries.
    fn connected(&self, a: usize, b: usize) -> bool {
        let _ = (a, b);
        true
    }

    /// Host `host`'s NIC capacity in bytes/second.
    fn nic_capacity(&self, host: usize) -> f64;

    /// Host `host`'s disk capacity in bytes/second.
    fn disk_capacity(&self, host: usize) -> f64;

    /// Per-stream bandwidth ceiling on the `a -> b` path (a WAN link's
    /// bottleneck), or `f64::INFINITY` for an uncapped LAN link. The
    /// executor applies it with `min`, so infinity is exact identity.
    fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        let _ = (a, b);
        f64::INFINITY
    }

    /// Goodput factor of the `a -> b` path in `(0, 1]` — a lossy link's
    /// retransmissions eat this fraction of the allocated rate. The
    /// executor multiplies by it, so `1.0` is exact identity.
    fn link_quality(&self, a: usize, b: usize) -> f64 {
        let _ = (a, b);
        1.0
    }

    /// One-way latency of the `a -> b` path, the freeze window's
    /// handshake term: the Gigabit LAN's unless a WAN link says otherwise.
    fn link_latency(&self, a: usize, b: usize) -> SimDuration {
        let _ = (a, b);
        Link::gigabit().latency()
    }

    /// Workload-cycle demand multiplier for `vm` at `now` (`1.0` = the
    /// flat demand the workload generator reports).
    fn workload_scale(&self, vm: usize, now: SimTime) -> f64 {
        let _ = (vm, now);
        1.0
    }

    /// Deterministic op thinning for `vm` at `now`: keep a guest op
    /// whose per-VM sequence number `s` satisfies `s % den < num`.
    /// `(1, 1)` keeps every op (exact identity); `(1, 4)` models a
    /// low-activity phase issuing a quarter of its ops.
    fn op_keep(&self, vm: usize, now: SimTime) -> (u64, u64) {
        let _ = (vm, now);
        (1, 1)
    }

    /// Is `vm` in a high-activity workload phase at `now`? Cycle-aware
    /// scheduling defers such requests (bounded by the starvation
    /// patience) until the phase passes.
    fn high_activity(&self, vm: usize, now: SimTime) -> bool {
        let _ = (vm, now);
        false
    }

    /// The first instant after `now` at which an answer above may change
    /// on its own (a timeline event, a maintenance dwell's end, a
    /// workload cycle's phase switch), so the executor can end its step
    /// there. `None` when nothing is scheduled: a static fleet never
    /// changes.
    fn next_change(&self, now: SimTime) -> Option<SimTime> {
        let _ = now;
        None
    }

    /// `true` once no future timeline event could change topology or
    /// inject a request — the run loop may terminate when its own
    /// queues drain. A static fleet is always exhausted.
    fn exhausted(&self, now: SimTime) -> bool {
        let _ = now;
        true
    }
}

/// The flat fleet: every host the testbed's ([`NIC_CAPACITY`],
/// [`testbed::DISK_CAPACITY`]), every host up, every link the Gigabit
/// LAN, no timeline. Every default answer is the identity element of the
/// operation the executor applies it with, or the LAN's latency.
#[derive(Debug, Clone, Copy)]
pub struct StaticDynamics;

impl FleetDynamics for StaticDynamics {
    fn nic_capacity(&self, _host: usize) -> f64 {
        NIC_CAPACITY
    }

    fn disk_capacity(&self, _host: usize) -> f64 {
        testbed::DISK_CAPACITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    #[test]
    fn static_defaults_are_identity_answers() {
        let cfg = ClusterConfig::new(3, 3);
        let mut d = StaticDynamics;
        assert_eq!(d.nic_capacity(0), NIC_CAPACITY);
        assert_eq!(d.nic_capacity(0), simnet::Link::gigabit().bandwidth());
        assert_eq!(d.disk_capacity(2), testbed::DISK_CAPACITY);
        assert!(d.host_up(0) && !d.cordoned(1) && d.connected(0, 2));
        assert_eq!(d.link_bandwidth(0, 1), f64::INFINITY);
        assert_eq!(d.link_quality(0, 1), 1.0);
        assert_eq!(d.link_latency(0, 1), Link::gigabit().latency());
        assert_eq!(d.workload_scale(0, SimTime::ZERO), 1.0);
        assert_eq!(d.op_keep(0, SimTime::ZERO), (1, 1));
        assert!(!d.high_activity(0, SimTime::ZERO));
        assert!(d.exhausted(SimTime::ZERO));
        let cluster = Cluster::new(&cfg).expect("valid config");
        let rec = Recorder::off();
        assert!(d.advance(SimTime::ZERO, &cluster, &[], &rec).is_empty());
    }
}
