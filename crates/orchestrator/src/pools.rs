//! Each host's disk and NIC pools, held across the executor's steps.
//!
//! Every step the executor sorts each stream and guest into the pools of
//! the hosts it touches and shares each pool ([`simnet::capacity`]). A
//! pool's inputs move only when a stream joins or leaves it, a phase or
//! a workload cycle flips, or a capacity moves, so each pool keeps its
//! last solve and solves again only when an input differs by
//! [`f64::to_bits`]. The share functions are pure, so a held allocation
//! is the one a fresh solve would give, bit for bit.

use migrate::testbed;
use simnet::capacity::{max_min_share, seek_aware_share};

/// How a pool shares `capacity`: the guests' demands, then the streams'.
type Solve = fn(f64, &[f64], &[f64]) -> Vec<f64>;

/// A disk: guests, then streams, each stream's seeks taking their toll.
fn disk_solve(capacity: f64, guests: &[f64], streams: &[f64]) -> Vec<f64> {
    seek_aware_share(capacity, testbed::SEEK_PENALTY, guests, streams)
}

/// A NIC: max-min among its streams (it has no guests).
fn nic_solve(capacity: f64, _guests: &[f64], streams: &[f64]) -> Vec<f64> {
    max_min_share(capacity, streams)
}

/// One pool's last solve: the inputs it was given, as bits, and the
/// allocation they gave.
#[derive(Debug, Default)]
pub(crate) struct HeldShare {
    /// The capacity, how many demands are guests', then every demand.
    inputs: Vec<u64>,
    alloc: Vec<f64>,
    /// Solves run, for the tests that check a held allocation is reused.
    #[cfg(test)]
    pub(crate) solves: u64,
    /// Steps that reused the held allocation.
    #[cfg(test)]
    pub(crate) reuses: u64,
}

impl HeldShare {
    /// `solve`'s allocation of `capacity` among `demands`, the first
    /// `guests` of them guests': the held one when every input has the
    /// bits of the last solve's, else a fresh one, held from then on.
    fn share(&mut self, capacity: f64, guests: usize, demands: &[f64], solve: Solve) -> &[f64] {
        let (g, s) = demands.split_at(guests.min(demands.len()));
        let same = self.inputs.len() == demands.len() + 2
            && self.inputs[0] == capacity.to_bits()
            && self.inputs[1] == guests as u64
            && (self.inputs[2..].iter().zip(demands)).all(|(&held, d)| held == d.to_bits());
        if same {
            #[cfg(test)]
            {
                self.reuses += 1;
                let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&self.alloc), bits(&solve(capacity, g, s)));
            }
        } else {
            self.inputs.clear();
            self.inputs.extend([capacity.to_bits(), guests as u64]);
            self.inputs.extend(demands.iter().map(|d| d.to_bits()));
            self.alloc = solve(capacity, g, s);
            #[cfg(test)]
            {
                self.solves += 1;
            }
        }
        &self.alloc
    }

    /// The disk's allocation: the guests' then the streams'.
    pub(crate) fn disk(&mut self, capacity: f64, guests: usize, demands: &[f64]) -> &[f64] {
        self.share(capacity, guests, demands, disk_solve)
    }

    /// The NIC's allocation, one per stream.
    pub(crate) fn nic(&mut self, capacity: f64, demands: &[f64]) -> &[f64] {
        self.share(capacity, 0, demands, nic_solve)
    }
}

/// One host's pools this step, and each pool's held solve.
#[derive(Debug, Default)]
pub(crate) struct HostPools {
    /// Resident guests not suspended, ascending VM id.
    pub(crate) guests: Vec<usize>,
    /// Streams on this host's disk, ascending stream index.
    pub(crate) disk: Vec<usize>,
    /// Streams across this host's NIC, ascending stream index.
    pub(crate) nic: Vec<usize>,
    pub(crate) disk_share: HeldShare,
    pub(crate) nic_share: HeldShare,
}

impl HostPools {
    /// Empty the pools for the next step; the held solves stay.
    pub(crate) fn clear(&mut self) {
        self.guests.clear();
        self.disk.clear();
        self.nic.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(a: &[f64]) -> Vec<u64> {
        a.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_held_share_is_reused_only_for_the_same_bits() {
        let mut held = HeldShare::default();
        let c = 100.0;
        let fresh = seek_aware_share(c, testbed::SEEK_PENALTY, &[30.0], &[80.0, 80.0]);
        assert_eq!(bits(held.disk(c, 1, &[30.0, 80.0, 80.0])), bits(&fresh));
        assert_eq!(bits(held.disk(c, 1, &[30.0, 80.0, 80.0])), bits(&fresh));
        assert_eq!((held.solves, held.reuses), (1, 1));
        // The same demands split otherwise are another pool.
        let other = seek_aware_share(c, testbed::SEEK_PENALTY, &[30.0, 80.0], &[80.0]);
        assert_eq!(bits(held.disk(c, 2, &[30.0, 80.0, 80.0])), bits(&other));
        assert_eq!(held.solves, 2);
        // A stream leaves, then the capacity moves.
        held.disk(c, 2, &[30.0, 80.0]);
        held.disk(90.0, 2, &[30.0, 80.0]);
        assert_eq!((held.solves, held.reuses), (4, 1));
    }

    #[test]
    fn a_signed_zero_or_a_nan_input_forces_a_solve() {
        let mut held = HeldShare::default();
        let fresh = |c: f64, d: &[f64]| bits(&max_min_share(c, d));
        assert_eq!(
            bits(held.nic(50.0, &[0.0, 40.0])),
            fresh(50.0, &[0.0, 40.0])
        );
        // `-0.0 == 0.0`, but not bit for bit.
        assert_eq!(
            bits(held.nic(50.0, &[-0.0, 40.0])),
            fresh(50.0, &[-0.0, 40.0])
        );
        assert_eq!(
            bits(held.nic(-0.0, &[-0.0, 40.0])),
            fresh(-0.0, &[-0.0, 40.0])
        );
        assert_eq!(held.solves, 3);
        // `NaN != NaN`, but a NaN of the same bits is the same input.
        assert_eq!(
            bits(held.nic(f64::NAN, &[-0.0, 40.0])),
            fresh(f64::NAN, &[-0.0, 40.0])
        );
        assert_eq!(
            bits(held.nic(50.0, &[f64::NAN, 40.0])),
            fresh(50.0, &[f64::NAN, 40.0])
        );
        assert_eq!(held.solves, 5);
        assert_eq!(
            bits(held.nic(50.0, &[f64::NAN, 40.0])),
            fresh(50.0, &[f64::NAN, 40.0])
        );
        assert_eq!((held.solves, held.reuses), (5, 1));
    }
}
