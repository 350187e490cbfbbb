//! The static topology model: islands, heterogeneous host capacities,
//! and per-link WAN properties, compiled into dense per-pair matrices.
//!
//! A scenario names hosts (`h0`, `h1`, …), optionally groups them into
//! *islands* (named host sets — a rack, a site, a WAN region), and
//! attaches properties to hosts and links. [`Topology::compile`] turns
//! those sparse declarations into dense `hosts × hosts` matrices the
//! dynamics oracle answers from in O(1) per query, with every unset
//! entry holding the identity element of the executor operation it
//! feeds: `f64::INFINITY` for bandwidth (applied with `min`), `1.0`
//! for quality (applied with `×`), and for latency the Gigabit LAN's
//! (`StaticDynamics`'). An empty topology therefore reproduces the flat
//! fleet byte-for-byte.

use des::SimDuration;
use orchestrator::{testbed, NIC_CAPACITY};
use simnet::Link;

/// A named group of hosts — the partition and link-declaration unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Island {
    /// The island's name as written in the scenario file.
    pub name: String,
    /// Member hosts, ascending.
    pub hosts: Vec<usize>,
}

/// Per-host capacity overrides (unset fields keep the testbed's).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HostCaps {
    /// NIC capacity override, bytes/second.
    pub nic: Option<f64>,
    /// Disk capacity override, bytes/second.
    pub disk: Option<f64>,
}

/// One link declaration: properties on every `from × to` host pair.
///
/// `symmetric` links (the `link A B …` form) apply the properties in
/// both directions; directed links (`link A->B …`) apply them one way,
/// which is how a scenario models asymmetric WAN uplinks.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Source endpoint hosts (an island or a single host, expanded).
    pub from: Vec<usize>,
    /// Destination endpoint hosts.
    pub to: Vec<usize>,
    /// Apply in both directions?
    pub symmetric: bool,
    /// Per-stream bandwidth ceiling, bytes/second.
    pub bandwidth: Option<f64>,
    /// One-way latency of freeze handshakes across this link (the
    /// Gigabit LAN's when unset).
    pub latency: Option<SimDuration>,
    /// Seeded probabilistic frame-drop rate, per mille. Goodput scales
    /// by `1 − drop/1000`.
    pub drop_permille: Option<u32>,
}

/// Goodput factor for a drop rate in per mille.
pub fn drop_quality(permille: u32) -> f64 {
    1.0 - f64::from(permille.min(999)) / 1000.0
}

/// The compiled topology: dense per-host and per-directed-pair
/// matrices, row-major (`a * hosts + b` is the `a → b` entry).
#[derive(Debug, Clone)]
pub struct Topology {
    /// Number of hosts.
    pub hosts: usize,
    /// Per-host NIC capacity, bytes/second.
    pub nic: Vec<f64>,
    /// Per-host disk capacity, bytes/second.
    pub disk: Vec<f64>,
    /// Per-pair stream bandwidth ceiling (`INFINITY` = uncapped LAN).
    pub bandwidth: Vec<f64>,
    /// Per-pair goodput factor in `(0, 1]`.
    pub quality: Vec<f64>,
    /// Per-pair one-way latency.
    pub latency: Vec<SimDuration>,
}

impl Topology {
    /// Compile sparse declarations into dense matrices. A host `caps`
    /// says nothing of has the testbed's NIC ([`NIC_CAPACITY`]) and disk
    /// ([`testbed::DISK_CAPACITY`]). Later declarations win on overlap,
    /// so a scenario can state a broad island-to-island rule and then
    /// carve out one special pair.
    pub fn compile(hosts: usize, caps: &[(usize, HostCaps)], links: &[LinkSpec]) -> Self {
        let mut topo = Self {
            hosts,
            nic: vec![NIC_CAPACITY; hosts],
            disk: vec![testbed::DISK_CAPACITY; hosts],
            bandwidth: vec![f64::INFINITY; hosts * hosts],
            quality: vec![1.0; hosts * hosts],
            latency: vec![Link::gigabit().latency(); hosts * hosts],
        };
        for (h, c) in caps {
            if *h >= hosts {
                continue;
            }
            if let Some(nic) = c.nic {
                topo.nic[*h] = nic;
            }
            if let Some(disk) = c.disk {
                topo.disk[*h] = disk;
            }
        }
        for link in links {
            for &a in &link.from {
                for &b in &link.to {
                    if a == b || a >= hosts || b >= hosts {
                        continue;
                    }
                    topo.apply(a, b, link);
                    if link.symmetric {
                        topo.apply(b, a, link);
                    }
                }
            }
        }
        topo
    }

    fn apply(&mut self, a: usize, b: usize, link: &LinkSpec) {
        let i = self.at(a, b);
        if let Some(bw) = link.bandwidth {
            self.bandwidth[i] = bw;
        }
        if let Some(lat) = link.latency {
            self.latency[i] = lat;
        }
        if let Some(drop) = link.drop_permille {
            self.quality[i] = drop_quality(drop);
        }
    }

    /// Row-major index of the `a → b` entry.
    pub fn at(&self, a: usize, b: usize) -> usize {
        a * self.hosts + b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_topology_is_all_identity_entries() {
        let t = Topology::compile(3, &[], &[]);
        assert!(t.nic.iter().all(|&n| n == NIC_CAPACITY));
        assert!(t.disk.iter().all(|&d| d == testbed::DISK_CAPACITY));
        assert!(t.bandwidth.iter().all(|&b| b == f64::INFINITY));
        assert!(t.quality.iter().all(|&q| q == 1.0));
        assert!(t.latency.iter().all(|&l| l == Link::gigabit().latency()));
    }

    #[test]
    fn directed_links_stay_one_way_and_symmetric_links_mirror() {
        let wan = LinkSpec {
            from: vec![0],
            to: vec![1, 2],
            symmetric: false,
            bandwidth: Some(5.0),
            latency: Some(SimDuration::from_millis(40)),
            drop_permille: Some(50),
        };
        let lan = LinkSpec {
            from: vec![1],
            to: vec![2],
            symmetric: true,
            bandwidth: Some(80.0),
            latency: None,
            drop_permille: None,
        };
        let t = Topology::compile(3, &[], &[wan, lan]);
        assert_eq!(t.bandwidth[t.at(0, 1)], 5.0);
        assert_eq!(t.bandwidth[t.at(1, 0)], f64::INFINITY, "directed");
        assert_eq!(t.latency[t.at(0, 2)], SimDuration::from_millis(40));
        assert!((t.quality[t.at(0, 2)] - 0.95).abs() < 1e-12);
        assert_eq!(t.bandwidth[t.at(1, 2)], 80.0);
        assert_eq!(t.bandwidth[t.at(2, 1)], 80.0, "symmetric");
    }

    #[test]
    fn host_caps_override_defaults_per_host() {
        let caps = [(
            1,
            HostCaps {
                nic: Some(7.0),
                disk: None,
            },
        )];
        let t = Topology::compile(2, &caps, &[]);
        assert_eq!(t.nic, vec![NIC_CAPACITY, 7.0]);
        assert_eq!(t.disk, vec![testbed::DISK_CAPACITY; 2]);
    }
}
