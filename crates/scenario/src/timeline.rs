//! The scenario timeline: a declarative, virtual-time schedule of
//! chaos events, workload activity cycles, and migration directives.
//!
//! A [`ScenarioSpec`] is the fully-resolved form of a `.scn` file:
//! island names expanded to host lists, durations and sizes to
//! nanoseconds and bytes. The executor never sees it directly — the
//! dynamics oracle interprets [`TimedEvent`]s in virtual-time order
//! (stable by declaration order on ties) and journals each one as a
//! typed telemetry event, so a chaos run's journal is as replayable as
//! a clean one's.

use des::{SimDuration, SimTime};
use orchestrator::{MigrationRequest, Policy};

use crate::topology::{HostCaps, Island, LinkSpec};
use crate::ScenarioError;

/// One scheduled topology change.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Split the fleet into disconnected islands. Each inner vec is one
    /// island; hosts in none of them form one implicit remainder
    /// island. Cross-island pairs cannot exchange migration traffic.
    Partition {
        /// Explicit island host lists.
        islands: Vec<Vec<usize>>,
    },
    /// Restore full connectivity.
    Heal,
    /// Power a host off (crash semantics: pools vanish, residents
    /// freeze) until a matching [`ChaosEvent::HostUp`].
    HostDown {
        /// Host index.
        host: usize,
    },
    /// Power a host back on.
    HostUp {
        /// Host index.
        host: usize,
    },
    /// Clamp a link's bandwidth (and optionally its goodput) until a
    /// [`ChaosEvent::LinkRestore`]. Applies in both directions.
    LinkDegrade {
        /// One endpoint.
        a: usize,
        /// Other endpoint.
        b: usize,
        /// New per-stream bandwidth ceiling, bytes/second.
        bandwidth: f64,
        /// Extra frame-drop rate, per mille.
        drop_permille: Option<u32>,
    },
    /// Lift a degrade, returning the link to its compiled topology.
    LinkRestore {
        /// One endpoint.
        a: usize,
        /// Other endpoint.
        b: usize,
    },
    /// A rolling maintenance wave: each listed host in turn is
    /// cordoned, its residents evacuated, then powered down for
    /// `dwell` of virtual time before rejoining — one host at a time,
    /// like a real fleet upgrade.
    Maintenance {
        /// Hosts to service, in order.
        hosts: Vec<usize>,
        /// Virtual downtime per host once drained.
        dwell: SimDuration,
    },
}

/// A [`ChaosEvent`] pinned to a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// When the event fires (events at the same instant apply in
    /// declaration order).
    pub at: SimTime,
    /// What happens.
    pub event: ChaosEvent,
}

/// A VM's workload activity cycle (Baruchi-style): `high` of full-rate
/// activity, then `low` of thinned activity, repeating from `t = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleSpec {
    /// High-activity phase length.
    pub high: SimDuration,
    /// Low-activity phase length.
    pub low: SimDuration,
    /// Disk-demand multiplier during the low phase.
    pub scale: f64,
    /// Guest-op thinning during the low phase: keep ops whose sequence
    /// number `s` satisfies `s % keep.1 < keep.0`.
    pub keep: (u64, u64),
}

impl CycleSpec {
    /// Is the cycle in its low-activity phase at `now`?
    pub fn low_at(&self, now: SimTime) -> bool {
        let period = self.high.as_nanos() + self.low.as_nanos();
        if period == 0 {
            return false;
        }
        now.as_nanos() % period >= self.high.as_nanos()
    }

    /// The first instant after `now` at which [`CycleSpec::low_at`]
    /// flips, or `None` for a cycle that never leaves one phase.
    pub fn next_switch(&self, now: SimTime) -> Option<SimTime> {
        let (high, low) = (self.high.as_nanos(), self.low.as_nanos());
        if high == 0 || low == 0 {
            return None;
        }
        let into = now.as_nanos() % (high + low);
        let left = if into < high {
            high - into
        } else {
            high + low - into
        };
        Some(now + SimDuration::from_nanos(left))
    }
}

/// A fully-resolved scenario: fleet geometry, topology declarations,
/// workload cycles, the chaos timeline, and the migration directives.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Number of hosts.
    pub hosts: usize,
    /// Number of VMs.
    pub vms: usize,
    /// Per-VM disk size override, blocks.
    pub disk_blocks: Option<usize>,
    /// Master seed override.
    pub seed: Option<u64>,
    /// Scheduling policy override.
    pub policy: Option<Policy>,
    /// Named host groups.
    pub islands: Vec<Island>,
    /// Per-host capacity overrides.
    pub caps: Vec<(usize, HostCaps)>,
    /// Static link declarations.
    pub links: Vec<LinkSpec>,
    /// Per-VM workload cycles.
    pub cycles: Vec<(usize, CycleSpec)>,
    /// The chaos timeline, in declaration order.
    pub events: Vec<TimedEvent>,
    /// Migration directives (`migrate` and `wave` lines).
    pub requests: Vec<MigrationRequest>,
}

impl ScenarioSpec {
    /// An empty scenario over a bare fleet — reproduces the classic
    /// orchestrator run byte-for-byte.
    pub fn new(hosts: usize, vms: usize) -> Self {
        Self {
            hosts,
            vms,
            disk_blocks: None,
            seed: None,
            policy: None,
            islands: Vec::new(),
            caps: Vec::new(),
            links: Vec::new(),
            cycles: Vec::new(),
            events: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// Look up an island by name.
    pub fn island(&self, name: &str) -> Option<&Island> {
        self.islands.iter().find(|i| i.name == name)
    }

    /// Cross-check every host, VM and island reference against the
    /// fleet geometry.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let host_err = |h: usize| {
            ScenarioError::spec(format!("host h{h} out of range (fleet has {})", self.hosts))
        };
        if self.hosts < 2 {
            return Err(ScenarioError::spec("fleet needs at least 2 hosts"));
        }
        if self.vms == 0 {
            return Err(ScenarioError::spec("fleet needs at least 1 vm"));
        }
        for island in &self.islands {
            for &h in &island.hosts {
                if h >= self.hosts {
                    return Err(host_err(h));
                }
            }
        }
        for (h, _) in &self.caps {
            if *h >= self.hosts {
                return Err(host_err(*h));
            }
        }
        for link in &self.links {
            for &h in link.from.iter().chain(link.to.iter()) {
                if h >= self.hosts {
                    return Err(host_err(h));
                }
            }
        }
        for (vm, cycle) in &self.cycles {
            if *vm >= self.vms {
                return Err(ScenarioError::spec(format!(
                    "vm{vm} out of range (fleet has {})",
                    self.vms
                )));
            }
            if cycle.high + cycle.low == SimDuration::ZERO {
                return Err(ScenarioError::spec(format!("vm{vm}: empty cycle")));
            }
            if cycle.keep.1 == 0 {
                return Err(ScenarioError::spec(format!("vm{vm}: keep=N/0")));
            }
        }
        for ev in &self.events {
            match &ev.event {
                ChaosEvent::Partition { islands } => {
                    // Sorted, not a table sized by the fleet: what is
                    // allocated is what the event lists.
                    let mut listed: Vec<usize> = islands.iter().flatten().copied().collect();
                    listed.sort_unstable();
                    if let Some(&h) = listed.iter().find(|&&h| h >= self.hosts) {
                        return Err(host_err(h));
                    }
                    if let Some(pair) = listed.windows(2).find(|pair| pair[0] == pair[1]) {
                        return Err(ScenarioError::spec(format!(
                            "partition lists h{} in two islands",
                            pair[0]
                        )));
                    }
                }
                ChaosEvent::HostDown { host } | ChaosEvent::HostUp { host } => {
                    if *host >= self.hosts {
                        return Err(host_err(*host));
                    }
                }
                ChaosEvent::LinkDegrade { a, b, .. } | ChaosEvent::LinkRestore { a, b } => {
                    if *a >= self.hosts || *b >= self.hosts {
                        return Err(host_err((*a).max(*b)));
                    }
                }
                ChaosEvent::Maintenance { hosts, .. } => {
                    for &h in hosts {
                        if h >= self.hosts {
                            return Err(host_err(h));
                        }
                    }
                }
                ChaosEvent::Heal => {}
            }
        }
        for req in &self.requests {
            if req.vm.0 >= self.vms {
                return Err(ScenarioError::spec(format!("vm{} out of range", req.vm.0)));
            }
            if let Some(d) = req.dest {
                if d.0 >= self.hosts {
                    return Err(host_err(d.0));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_phases_repeat_high_then_low() {
        let c = CycleSpec {
            high: SimDuration::from_secs(10),
            low: SimDuration::from_secs(20),
            scale: 0.25,
            keep: (1, 4),
        };
        let at = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        assert!(!c.low_at(at(0)));
        assert!(!c.low_at(at(9)));
        assert!(c.low_at(at(10)));
        assert!(c.low_at(at(29)));
        assert!(!c.low_at(at(30)), "period wraps back to high");
        assert_eq!(c.next_switch(at(0)), Some(at(10)));
        assert_eq!(c.next_switch(at(10)), Some(at(30)));
        assert_eq!(c.next_switch(at(29)), Some(at(30)));
        let flat = CycleSpec {
            low: SimDuration::ZERO,
            ..c
        };
        assert_eq!(
            flat.next_switch(at(0)),
            None,
            "a cycle without a low phase never flips"
        );
    }

    #[test]
    fn validate_rejects_out_of_range_references() {
        let mut s = ScenarioSpec::new(2, 2);
        assert!(s.validate().is_ok());
        s.events.push(TimedEvent {
            at: SimTime::ZERO,
            event: ChaosEvent::HostDown { host: 9 },
        });
        assert!(s.validate().is_err());
        s.events.clear();
        s.events.push(TimedEvent {
            at: SimTime::ZERO,
            event: ChaosEvent::Partition {
                islands: vec![vec![0], vec![0]],
            },
        });
        assert!(s.validate().is_err(), "host in two islands");
    }

    #[test]
    fn a_partition_is_checked_without_a_table_the_size_of_the_fleet() {
        let mut s = ScenarioSpec::new(usize::MAX, 1);
        s.events.push(TimedEvent {
            at: SimTime::ZERO,
            event: ChaosEvent::Partition {
                islands: vec![vec![0], vec![1]],
            },
        });
        assert!(s.validate().is_ok());
        s.events[0].event = ChaosEvent::Partition {
            islands: vec![vec![3, 7], vec![usize::MAX - 1, 7]],
        };
        assert_eq!(
            s.validate().map_err(|e| e.msg),
            Err("partition lists h7 in two islands".to_string())
        );
    }
}
