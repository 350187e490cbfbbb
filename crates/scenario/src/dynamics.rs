//! The scenario dynamics oracle: interprets the timeline in virtual
//! time and answers the executor's per-step topology queries.
//!
//! [`ScenarioDynamics`] implements `orchestrator::FleetDynamics` over a
//! compiled [`Topology`] plus mutable chaos state (the active
//! partition, per-host lifecycle, link degrades, rolling maintenance
//! waves). Every state change is journaled through the recorder at its
//! virtual instant, so the chaos schedule is as visible in the JSONL
//! journal as the migrations it disrupts.
//!
//! Determinism: state lives in `Vec`s indexed by host/VM, events apply
//! in timeline order (stable on ties), and nothing reads a wall clock
//! or hashes — one seed plus one spec fixes the whole run, and an
//! empty spec leaves every query at its identity answer, reproducing
//! the flat-fleet run byte-for-byte.

use des::{SimDuration, SimTime};
use orchestrator::{Cluster, FleetDynamics, MigrationRequest};
use telemetry::{Event, Recorder};

use crate::timeline::{ChaosEvent, CycleSpec, ScenarioSpec, TimedEvent};
use crate::topology::{drop_quality, Topology};

/// Per-host lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HostState {
    /// In service.
    Up,
    /// In service but refusing new inbound migrations (draining).
    Cordoned,
    /// Powered off by a `host-down` event (until `host-up`).
    Down,
    /// Powered off for a maintenance dwell, back up at `until`.
    Dwell { until: SimTime },
}

/// Where a maintenance wave's current host is in its drain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WaveStage {
    /// Cordoned; waiting for residents and touching streams to clear.
    Draining,
    /// Powered off; rejoins at `until`.
    Dwelling { until: SimTime },
}

/// One rolling maintenance wave: hosts serviced strictly one at a time.
#[derive(Debug, Clone)]
struct Wave {
    hosts: Vec<usize>,
    next: usize,
    dwell: SimDuration,
    active: Option<(usize, WaveStage)>,
    /// VMs already issued an evacuation request for the active host —
    /// a VM that lands on a cordoned host mid-drain (admitted before
    /// the cordon) gets its own request exactly once.
    issued: Vec<usize>,
}

/// The chaos oracle. Build with [`ScenarioDynamics::new`], hand to
/// `Orchestrator::run_with_dynamics`.
#[derive(Debug, Clone)]
pub struct ScenarioDynamics {
    topo: Topology,
    events: Vec<TimedEvent>,
    next_event: usize,
    /// Partition island id per host; all equal when unpartitioned.
    group: Vec<usize>,
    state: Vec<HostState>,
    /// Active link-degrade overrides, per directed pair.
    deg_bandwidth: Vec<Option<f64>>,
    deg_quality: Vec<Option<f64>>,
    waves: Vec<Wave>,
    cycles: Vec<Option<CycleSpec>>,
    /// Last journaled phase per VM (None before the first advance), so
    /// `WorkloadPhase` fires exactly on transitions.
    prev_low: Vec<Option<bool>>,
}

impl ScenarioDynamics {
    /// Compile a spec; a host it gives no capacities has the testbed's.
    pub fn new(spec: &ScenarioSpec) -> Self {
        let hosts = spec.hosts;
        let topo = Topology::compile(hosts, &spec.caps, &spec.links);
        let mut events = spec.events.clone();
        // Stable: ties keep declaration order.
        events.sort_by_key(|e| e.at);
        let mut cycles = vec![None; spec.vms];
        for (vm, c) in &spec.cycles {
            if *vm < spec.vms {
                cycles[*vm] = Some(*c);
            }
        }
        Self {
            topo,
            events,
            next_event: 0,
            group: vec![0; hosts],
            state: vec![HostState::Up; hosts],
            deg_bandwidth: vec![None; hosts * hosts],
            deg_quality: vec![None; hosts * hosts],
            waves: Vec::new(),
            cycles,
            prev_low: vec![None; spec.vms],
        }
    }

    fn apply(
        &mut self,
        event: &ChaosEvent,
        now: SimTime,
        streams: &[(usize, usize)],
        recorder: &Recorder,
    ) {
        let t = now.as_nanos();
        match event {
            ChaosEvent::Partition { islands } => {
                // Listed islands get groups 0.., unlisted hosts share
                // one implicit remainder island.
                let remainder = islands.len();
                for g in self.group.iter_mut() {
                    *g = remainder;
                }
                for (g, island) in islands.iter().enumerate() {
                    for &h in island {
                        if h < self.group.len() {
                            self.group[h] = g;
                        }
                    }
                }
                let mut populated = vec![false; remainder + 1];
                for &g in &self.group {
                    populated[g] = true;
                }
                let count = populated.iter().filter(|&&p| p).count() as u64;
                recorder.record_at_nanos(t, || Event::PartitionStarted { islands: count });
            }
            ChaosEvent::Heal => {
                let stranded = streams
                    .iter()
                    .filter(|(s, d)| !self.connected(*s, *d))
                    .count() as u64;
                for g in self.group.iter_mut() {
                    *g = 0;
                }
                recorder.record_at_nanos(t, || Event::PartitionHealed { stranded });
            }
            ChaosEvent::HostDown { host } => {
                self.state[*host] = HostState::Down;
                recorder.record_at_nanos(t, || Event::HostDown { host: *host as u64 });
            }
            ChaosEvent::HostUp { host } => {
                self.state[*host] = HostState::Up;
                recorder.record_at_nanos(t, || Event::HostUp { host: *host as u64 });
            }
            ChaosEvent::LinkDegrade {
                a,
                b,
                bandwidth,
                drop_permille,
            } => {
                for (x, y) in [(*a, *b), (*b, *a)] {
                    let i = self.topo.at(x, y);
                    self.deg_bandwidth[i] = Some(*bandwidth);
                    self.deg_quality[i] = drop_permille.map(drop_quality);
                }
                recorder.record_at_nanos(t, || Event::LinkDegraded {
                    a: *a as u64,
                    b: *b as u64,
                    bandwidth: *bandwidth as u64,
                });
            }
            ChaosEvent::LinkRestore { a, b } => {
                for (x, y) in [(*a, *b), (*b, *a)] {
                    let i = self.topo.at(x, y);
                    self.deg_bandwidth[i] = None;
                    self.deg_quality[i] = None;
                }
                recorder.record_at_nanos(t, || Event::LinkRestored {
                    a: *a as u64,
                    b: *b as u64,
                });
            }
            ChaosEvent::Maintenance { hosts, dwell } => {
                self.waves.push(Wave {
                    hosts: hosts.clone(),
                    next: 0,
                    dwell: *dwell,
                    active: None,
                    issued: Vec::new(),
                });
            }
        }
    }

    /// Drive every maintenance wave one step: cordon → drain → dwell →
    /// rejoin, strictly one host per wave at a time.
    fn pump_waves(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        streams: &[(usize, usize)],
        recorder: &Recorder,
        out: &mut Vec<MigrationRequest>,
    ) {
        let t = now.as_nanos();
        for wi in 0..self.waves.len() {
            loop {
                match self.waves[wi].active {
                    None => {
                        let next = self.waves[wi].next;
                        if next >= self.waves[wi].hosts.len() {
                            break;
                        }
                        let h = self.waves[wi].hosts[next];
                        if self.state[h] != HostState::Up {
                            // A crashed or already-serviced host waits
                            // its turn until something brings it up.
                            break;
                        }
                        self.state[h] = HostState::Cordoned;
                        let residents: Vec<usize> = cluster
                            .residents(orchestrator::HostId(h))
                            .map(|v| v.0)
                            .collect();
                        recorder.record_at_nanos(t, || Event::MaintenanceStarted {
                            host: h as u64,
                            evacuating: residents.len() as u64,
                        });
                        for &vm in &residents {
                            out.push(MigrationRequest {
                                vm: orchestrator::VmId(vm),
                                dest: None,
                                at: now,
                            });
                        }
                        self.waves[wi].issued = residents;
                        self.waves[wi].active = Some((h, WaveStage::Draining));
                        break;
                    }
                    Some((h, WaveStage::Draining)) => {
                        // Late arrivals (streams admitted before the
                        // cordon that landed here) get evacuated too.
                        let residents: Vec<usize> = cluster
                            .residents(orchestrator::HostId(h))
                            .map(|v| v.0)
                            .collect();
                        for &vm in &residents {
                            if !self.waves[wi].issued.contains(&vm) {
                                out.push(MigrationRequest {
                                    vm: orchestrator::VmId(vm),
                                    dest: None,
                                    at: now,
                                });
                                self.waves[wi].issued.push(vm);
                            }
                        }
                        let busy = !residents.is_empty()
                            || streams.iter().any(|(s, d)| *s == h || *d == h);
                        if busy {
                            break;
                        }
                        let until = now + self.waves[wi].dwell;
                        self.state[h] = HostState::Dwell { until };
                        recorder.record_at_nanos(t, || Event::HostDown { host: h as u64 });
                        self.waves[wi].active = Some((h, WaveStage::Dwelling { until }));
                        break;
                    }
                    Some((h, WaveStage::Dwelling { until })) => {
                        if now < until {
                            break;
                        }
                        self.state[h] = HostState::Up;
                        recorder.record_at_nanos(t, || Event::HostUp { host: h as u64 });
                        recorder.record_at_nanos(t, || Event::MaintenanceEnded { host: h as u64 });
                        self.waves[wi].active = None;
                        self.waves[wi].next += 1;
                        self.waves[wi].issued.clear();
                        // Fall through: the next host may start this
                        // same tick.
                    }
                }
            }
        }
    }

    fn cycle_low(&self, vm: usize, now: SimTime) -> Option<bool> {
        self.cycles.get(vm).and_then(|c| *c).map(|c| c.low_at(now))
    }
}

impl FleetDynamics for ScenarioDynamics {
    fn advance(
        &mut self,
        now: SimTime,
        cluster: &Cluster,
        streams: &[(usize, usize)],
        recorder: &Recorder,
    ) -> Vec<MigrationRequest> {
        let mut out = Vec::new();
        while self.next_event < self.events.len() && self.events[self.next_event].at <= now {
            let ev = self.events[self.next_event].event.clone();
            self.next_event += 1;
            self.apply(&ev, now, streams, recorder);
        }
        self.pump_waves(now, cluster, streams, recorder, &mut out);
        for vm in 0..self.prev_low.len() {
            let Some(low) = self.cycle_low(vm, now) else {
                continue;
            };
            match self.prev_low[vm] {
                None => self.prev_low[vm] = Some(low),
                Some(prev) if prev != low => {
                    self.prev_low[vm] = Some(low);
                    recorder.record_at_nanos(now.as_nanos(), || Event::WorkloadPhase {
                        vm: vm as u64,
                        low,
                    });
                }
                Some(_) => {}
            }
        }
        out
    }

    fn host_up(&self, host: usize) -> bool {
        matches!(
            self.state.get(host),
            Some(HostState::Up) | Some(HostState::Cordoned)
        )
    }

    fn cordoned(&self, host: usize) -> bool {
        matches!(self.state.get(host), Some(HostState::Cordoned))
    }

    fn connected(&self, a: usize, b: usize) -> bool {
        match (self.group.get(a), self.group.get(b)) {
            (Some(ga), Some(gb)) => ga == gb,
            _ => false,
        }
    }

    fn nic_capacity(&self, host: usize) -> f64 {
        self.topo.nic.get(host).copied().unwrap_or(f64::INFINITY)
    }

    fn disk_capacity(&self, host: usize) -> f64 {
        self.topo.disk.get(host).copied().unwrap_or(f64::INFINITY)
    }

    fn link_bandwidth(&self, a: usize, b: usize) -> f64 {
        let i = self.topo.at(a, b);
        let base = self.topo.bandwidth.get(i).copied().unwrap_or(f64::INFINITY);
        match self.deg_bandwidth.get(i).copied().flatten() {
            Some(deg) => base.min(deg),
            None => base,
        }
    }

    fn link_quality(&self, a: usize, b: usize) -> f64 {
        let i = self.topo.at(a, b);
        let base = self.topo.quality.get(i).copied().unwrap_or(1.0);
        match self.deg_quality.get(i).copied().flatten() {
            Some(deg) => base * deg,
            None => base,
        }
    }

    fn link_latency(&self, a: usize, b: usize) -> SimDuration {
        self.topo
            .latency
            .get(self.topo.at(a, b))
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    fn workload_scale(&self, vm: usize, now: SimTime) -> f64 {
        match self.cycle_low(vm, now) {
            Some(true) => self.cycles[vm].map(|c| c.scale).unwrap_or(1.0),
            _ => 1.0,
        }
    }

    fn op_keep(&self, vm: usize, now: SimTime) -> (u64, u64) {
        match self.cycle_low(vm, now) {
            Some(true) => self.cycles[vm].map(|c| c.keep).unwrap_or((1, 1)),
            _ => (1, 1),
        }
    }

    fn high_activity(&self, vm: usize, now: SimTime) -> bool {
        matches!(self.cycle_low(vm, now), Some(false))
    }

    fn next_change(&self, now: SimTime) -> Option<SimTime> {
        let event = self.events.get(self.next_event).map(|e| e.at);
        let dwells = self.waves.iter().filter_map(|w| match w.active {
            Some((_, WaveStage::Dwelling { until })) => Some(until),
            _ => None,
        });
        let cycles = self
            .cycles
            .iter()
            .flatten()
            .filter_map(|c| c.next_switch(now));
        event
            .into_iter()
            .chain(dwells)
            .chain(cycles)
            .filter(|&at| at > now)
            .min()
    }

    fn exhausted(&self, _now: SimTime) -> bool {
        self.next_event >= self.events.len()
            && self
                .waves
                .iter()
                .all(|w| w.active.is_none() && w.next >= w.hosts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::SimDuration;
    use orchestrator::{testbed, ClusterConfig, NIC_CAPACITY};

    fn spec(hosts: usize, vms: usize) -> ScenarioSpec {
        ScenarioSpec::new(hosts, vms)
    }

    fn at(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn empty_spec_answers_every_query_with_the_identity() {
        let s = spec(3, 3);
        let cfg = ClusterConfig::new(3, 3);
        let mut d = ScenarioDynamics::new(&s);
        assert!(d.host_up(0) && !d.cordoned(1) && d.connected(0, 2));
        assert_eq!(d.nic_capacity(1), NIC_CAPACITY);
        assert_eq!(d.disk_capacity(2), testbed::DISK_CAPACITY);
        assert_eq!(d.link_bandwidth(0, 1), f64::INFINITY);
        assert_eq!(d.link_quality(0, 1), 1.0);
        assert_eq!(d.link_latency(0, 1), simnet::Link::gigabit().latency());
        assert_eq!(d.workload_scale(0, at(0)), 1.0);
        assert_eq!(d.op_keep(0, at(0)), (1, 1));
        assert!(!d.high_activity(0, at(0)));
        assert!(d.exhausted(at(0)));
        let cluster = Cluster::new(&cfg).expect("valid config");
        let rec = Recorder::off();
        assert!(d.advance(at(0), &cluster, &[], &rec).is_empty());
    }

    #[test]
    fn partition_splits_islands_heal_restores_and_counts_stranded() {
        let mut s = spec(4, 4);
        s.events.push(TimedEvent {
            at: at(10),
            event: ChaosEvent::Partition {
                islands: vec![vec![0, 1]],
            },
        });
        s.events.push(TimedEvent {
            at: at(20),
            event: ChaosEvent::Heal,
        });
        let cfg = ClusterConfig::new(4, 4);
        let cluster = Cluster::new(&cfg).expect("valid config");
        let mut d = ScenarioDynamics::new(&s);
        let rec = Recorder::enabled();
        assert_eq!(d.next_change(at(0)), Some(at(10)));
        d.advance(at(10), &cluster, &[], &rec);
        assert_eq!(d.next_change(at(10)), Some(at(20)), "the heal is next");
        assert!(d.connected(0, 1) && d.connected(2, 3));
        assert!(!d.connected(0, 2), "cross-island severed");
        assert!(!d.exhausted(at(10)));
        // One stream crosses the cut, one does not.
        d.advance(at(20), &cluster, &[(0, 2), (0, 1)], &rec);
        assert!(d.connected(0, 2));
        assert!(d.exhausted(at(20)));
        let events: Vec<Event> = rec.records().into_iter().map(|r| r.event).collect();
        assert!(events.contains(&Event::PartitionStarted { islands: 2 }));
        assert!(events.contains(&Event::PartitionHealed { stranded: 1 }));
    }

    #[test]
    fn maintenance_wave_cordons_drains_dwells_and_rejoins() {
        let mut s = spec(3, 3);
        s.events.push(TimedEvent {
            at: at(0),
            event: ChaosEvent::Maintenance {
                hosts: vec![0, 1],
                dwell: SimDuration::from_secs(5),
            },
        });
        let cfg = ClusterConfig::new(3, 3);
        let mut cluster = Cluster::new(&cfg).expect("valid config");
        let mut d = ScenarioDynamics::new(&s);
        let rec = Recorder::enabled();

        // t=0: h0 cordons, its resident vm0 is evacuated.
        let reqs = d.advance(at(0), &cluster, &[], &rec);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].vm.0, 0);
        assert!(d.cordoned(0) && d.host_up(0), "draining host stays up");
        assert!(!d.exhausted(at(0)));

        // Still draining while a stream touches h0.
        d.advance(at(1), &cluster, &[(0, 1)], &rec);
        assert!(d.cordoned(0));

        // Drained: resident moved away, no streams → dwell (down).
        cluster.vms[0].host = cluster.hosts[1].id;
        d.advance(at(2), &cluster, &[], &rec);
        assert!(!d.host_up(0), "dwelling host is down");
        assert_eq!(d.next_change(at(2)), Some(at(7)), "the dwell's end");

        // Dwell over at t=7: h0 rejoins, h1 starts its turn.
        let reqs = d.advance(at(7), &cluster, &[], &rec);
        assert!(d.host_up(0) && !d.cordoned(0));
        assert!(d.cordoned(1));
        // h1 hosts vm1 and (after our manual move) vm0.
        assert_eq!(reqs.len(), 2);
        let events: Vec<Event> = rec.records().into_iter().map(|r| r.event).collect();
        assert!(events.contains(&Event::MaintenanceStarted {
            host: 0,
            evacuating: 1
        }));
        assert!(events.contains(&Event::HostDown { host: 0 }));
        assert!(events.contains(&Event::HostUp { host: 0 }));
        assert!(events.contains(&Event::MaintenanceEnded { host: 0 }));
    }

    #[test]
    fn link_degrade_clamps_and_restore_lifts() {
        let mut s = spec(2, 2);
        s.events.push(TimedEvent {
            at: at(1),
            event: ChaosEvent::LinkDegrade {
                a: 0,
                b: 1,
                bandwidth: 1000.0,
                drop_permille: Some(100),
            },
        });
        s.events.push(TimedEvent {
            at: at(2),
            event: ChaosEvent::LinkRestore { a: 0, b: 1 },
        });
        let cfg = ClusterConfig::new(2, 2);
        let cluster = Cluster::new(&cfg).expect("valid config");
        let mut d = ScenarioDynamics::new(&s);
        let rec = Recorder::enabled();
        d.advance(at(1), &cluster, &[], &rec);
        assert_eq!(d.link_bandwidth(0, 1), 1000.0);
        assert_eq!(d.link_bandwidth(1, 0), 1000.0, "degrade is symmetric");
        assert!((d.link_quality(0, 1) - 0.9).abs() < 1e-12);
        d.advance(at(2), &cluster, &[], &rec);
        assert_eq!(d.link_bandwidth(0, 1), f64::INFINITY);
        assert_eq!(d.link_quality(0, 1), 1.0);
    }

    #[test]
    fn workload_cycles_thin_ops_and_journal_transitions() {
        let mut s = spec(2, 2);
        s.cycles.push((
            1,
            CycleSpec {
                high: SimDuration::from_secs(10),
                low: SimDuration::from_secs(10),
                scale: 0.25,
                keep: (1, 4),
            },
        ));
        let cfg = ClusterConfig::new(2, 2);
        let cluster = Cluster::new(&cfg).expect("valid config");
        let mut d = ScenarioDynamics::new(&s);
        let rec = Recorder::enabled();
        d.advance(at(0), &cluster, &[], &rec);
        assert!(d.high_activity(1, at(0)));
        assert!(!d.high_activity(0, at(0)), "no cycle, never high");
        assert_eq!(d.workload_scale(1, at(0)), 1.0);
        assert_eq!(d.next_change(at(0)), Some(at(10)), "vm1's phase switch");
        d.advance(at(12), &cluster, &[], &rec);
        assert!(!d.high_activity(1, at(12)));
        assert_eq!(d.next_change(at(12)), Some(at(20)));
        assert_eq!(d.workload_scale(1, at(12)), 0.25);
        assert_eq!(d.op_keep(1, at(12)), (1, 4));
        let events: Vec<Event> = rec.records().into_iter().map(|r| r.event).collect();
        assert_eq!(events, vec![Event::WorkloadPhase { vm: 1, low: true }]);
    }
}
