//! Max-min fair sharing of a contended resource.
//!
//! During pre-copy the migration stream reads the whole disk while the
//! guest workload keeps issuing its own I/O; the paper observes that "the
//! disk I/O throughput is the bottleneck of the whole system performance"
//! (§VI-C-3) and that limiting the migration rate gives the workload back
//! about half of its lost throughput. We model both the disk and the NIC
//! as capacity pools shared max-min fairly among their demands.
//!
//! These functions sit on the orchestrator's per-tick hot loop, inside
//! the transport lint zone: degenerate inputs are *clamped*, never
//! asserted. A `NaN` or negative capacity allocates nothing (the pool is
//! unusable), an infinite capacity satisfies every demand, and `NaN` or
//! non-positive demands receive zero.

/// Clamp a capacity to the usable domain: `NaN` and negative values read
/// as an empty pool. `+inf` passes through (an uncontended pool).
fn sane_capacity(capacity: f64) -> f64 {
    if capacity.is_nan() || capacity < 0.0 {
        0.0
    } else {
        capacity
    }
}

/// Allocate `capacity` among `demands` using max-min fairness: every
/// demand receives `min(demand, fair share)`, with leftover capacity from
/// under-using demands redistributed among the rest.
///
/// Returns one allocation per demand, in order. Zero, negative and `NaN`
/// demands receive zero. The allocations never exceed the demands and
/// never sum to more than `capacity`.
///
/// Never panics: a `NaN` or negative capacity is clamped to an empty pool
/// (all-zero allocations) and an infinite capacity serves every demand in
/// full, so a degenerate demand set in the orchestrator's hot loop
/// degrades instead of aborting.
pub fn max_min_share(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let mut alloc = vec![0.0; demands.len()];
    let mut remaining = sane_capacity(capacity);
    let mut active: Vec<usize> = (0..demands.len()).filter(|&i| demands[i] > 0.0).collect();

    // Repeatedly give each active demand an equal share; demands smaller
    // than the share are satisfied exactly and drop out, freeing capacity.
    while !active.is_empty() && remaining > 1e-12 {
        let share = remaining / active.len() as f64;
        let mut satisfied = Vec::new();
        for &i in &active {
            if demands[i] - alloc[i] <= share {
                satisfied.push(i);
            }
        }
        if satisfied.is_empty() {
            // Everyone can absorb the full share.
            for &i in &active {
                alloc[i] += share;
            }
            remaining = 0.0;
        } else {
            for &i in &satisfied {
                remaining -= demands[i] - alloc[i];
                alloc[i] = demands[i];
            }
            active.retain(|i| !satisfied.contains(i));
        }
    }
    alloc
}

/// Convenience for the ubiquitous two-flow case (workload vs migration).
/// Returns `(workload_share, migration_share)`.
pub fn share_two(capacity: f64, workload_demand: f64, migration_demand: f64) -> (f64, f64) {
    let a = max_min_share(capacity, &[workload_demand, migration_demand]);
    (a[0], a[1])
}

/// Seek-aware disk sharing between a guest workload and the migration
/// stream.
///
/// A mechanical disk's aggregate throughput drops when a sequential
/// migration scan interleaves with guest I/O: every switch between the
/// two streams costs seeks. We model the effective capacity as
/// `c0 - penalty × migration_share` and solve the resulting fixed point
/// with damped iteration. This reproduces the paper's §VI-C-3
/// observation: rate-limiting the migration gives the workload back
/// about half of its lost throughput while stretching pre-copy by only
/// ~37 % — impossible under fixed-capacity sharing, natural under seek
/// interference.
///
/// Returns `(workload_share, migration_share)`.
///
/// Never panics: like [`max_min_share`], a `NaN` or negative `c0` reads
/// as an empty pool, and a `NaN`, negative or infinite `penalty` is
/// clamped to zero (no interference model rather than an undefined one).
pub fn seek_aware_share(
    c0: f64,
    penalty: f64,
    workload_demand: f64,
    migration_demand: f64,
) -> (f64, f64) {
    let c0 = sane_capacity(c0);
    let penalty = if penalty.is_finite() && penalty > 0.0 {
        penalty
    } else {
        0.0
    };
    let mut m = migration_demand.min(c0 / (1.0 + penalty).max(1.0));
    let mut w = workload_demand;
    for _ in 0..64 {
        let cap = (c0 - penalty * m).max(0.0);
        let (nw, nm) = share_two(cap, workload_demand, migration_demand);
        // Damping keeps the iteration from oscillating between regimes.
        let next_m = 0.5 * m + 0.5 * nm;
        if (next_m - m).abs() < 1e-6 && (nw - w).abs() < 1e-6 {
            m = next_m;
            w = nw;
            break;
        }
        m = next_m;
        w = nw;
    }
    (w, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn uncontended_demands_fully_served() {
        let a = max_min_share(100.0, &[30.0, 40.0]);
        assert!(close(a[0], 30.0) && close(a[1], 40.0));
    }

    #[test]
    fn contended_equal_split() {
        let (w, m) = share_two(100.0, 90.0, 110.0);
        assert!(close(w, 50.0) && close(m, 50.0));
    }

    #[test]
    fn small_demand_frees_capacity_for_big() {
        let (w, m) = share_two(100.0, 10.0, 1000.0);
        assert!(close(w, 10.0), "w = {w}");
        assert!(close(m, 90.0), "m = {m}");
    }

    #[test]
    fn three_way_max_min() {
        let a = max_min_share(90.0, &[10.0, 40.0, 100.0]);
        // 10 satisfied; remaining 80 split as 40 each.
        assert!(close(a[0], 10.0) && close(a[1], 40.0) && close(a[2], 40.0));
    }

    #[test]
    fn zero_demand_gets_zero() {
        let a = max_min_share(100.0, &[0.0, 50.0]);
        assert!(close(a[0], 0.0) && close(a[1], 50.0));
    }

    #[test]
    fn never_exceeds_capacity_or_demand() {
        let demands = [33.0, 7.0, 120.0, 0.5];
        let a = max_min_share(60.0, &demands);
        let total: f64 = a.iter().sum();
        assert!(total <= 60.0 + 1e-9);
        for (x, d) in a.iter().zip(&demands) {
            assert!(x <= d);
        }
    }

    #[test]
    fn empty_demands_ok() {
        assert!(max_min_share(10.0, &[]).is_empty());
    }

    #[test]
    fn degenerate_capacity_is_clamped_not_panicked() {
        // NaN / negative capacity: an unusable pool allocates nothing.
        for cap in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let a = max_min_share(cap, &[10.0, 20.0]);
            assert_eq!(a, vec![0.0, 0.0], "capacity {cap}");
        }
        // Infinite capacity: an uncontended pool serves every demand.
        let a = max_min_share(f64::INFINITY, &[10.0, 20.0]);
        assert!(close(a[0], 10.0) && close(a[1], 20.0));
    }

    #[test]
    fn degenerate_demands_get_zero() {
        let a = max_min_share(100.0, &[f64::NAN, -5.0, 30.0]);
        assert_eq!(a[0], 0.0);
        assert_eq!(a[1], 0.0);
        assert!(close(a[2], 30.0));
        // An infinite demand absorbs the slack but allocations stay
        // within capacity.
        let a = max_min_share(100.0, &[30.0, f64::INFINITY]);
        assert!(close(a[0], 30.0));
        assert!(a[1] <= 100.0 && a.iter().sum::<f64>() <= 100.0 + 1e-9);
    }

    #[test]
    fn seek_aware_degenerate_inputs_are_clamped() {
        let (w, m) = seek_aware_share(f64::NAN, 1.0, 50.0, 50.0);
        assert_eq!((w, m), (0.0, 0.0));
        let (w, m) = seek_aware_share(-10.0, 1.0, 50.0, 50.0);
        assert_eq!((w, m), (0.0, 0.0));
        // A NaN penalty degrades to no-interference sharing.
        let (w1, m1) = seek_aware_share(100.0, f64::NAN, 90.0, 110.0);
        let (w2, m2) = share_two(100.0, 90.0, 110.0);
        assert!((w1 - w2).abs() < 1e-3 && (m1 - m2).abs() < 1e-3);
    }

    #[test]
    fn seek_aware_share_reproduces_section_vi_c_3() {
        // Paper-calibrated constants: nominal streaming capacity
        // ~137.7 MB/s, ~1.2 MB/s of capacity lost per MB/s of interleaved
        // migration traffic.
        let c0 = 137.7;
        let pen = 1.2;
        // Unlimited migration (pipeline cap ~50 MB/s) against Bonnie++
        // (~96 MB/s demand): both converge near 43 MB/s.
        let (w_u, m_u) = seek_aware_share(c0, pen, 96.0, 50.0);
        assert!((40.0..46.0).contains(&m_u), "m {m_u}");
        assert!((40.0..47.0).contains(&w_u), "w {w_u}");
        // Rate-limited to 31 MB/s: the workload recovers about half of
        // what it lost, pre-copy stretches by ~38 %.
        let (w_l, m_l) = seek_aware_share(c0, pen, 96.0, 31.0);
        assert!((m_l - 31.0).abs() < 0.5, "m {m_l}");
        let recovery = (w_l - w_u) / (96.0 - w_u);
        assert!((0.35..0.65).contains(&recovery), "recovery {recovery}");
        let stretch = m_u / m_l;
        assert!((1.25..1.55).contains(&stretch), "stretch {stretch}");
        // A light workload (web server) leaves the migration unimpeded.
        let (w_web, m_web) = seek_aware_share(c0, pen, 2.1, 50.0);
        assert!((w_web - 2.1).abs() < 1e-6);
        assert!((m_web - 50.0).abs() < 0.5, "m {m_web}");
    }

    #[test]
    fn seek_aware_with_zero_penalty_matches_share_two() {
        let (w1, m1) = seek_aware_share(100.0, 0.0, 90.0, 110.0);
        let (w2, m2) = share_two(100.0, 90.0, 110.0);
        assert!((w1 - w2).abs() < 1e-3 && (m1 - m2).abs() < 1e-3);
    }

    #[test]
    fn figure6_shape_rate_limited_migration_helps_workload() {
        // Disk capacity 110 MB/s; Bonnie++ demands 95; unlimited migration
        // demands the link rate (119). Max-min: each side ~55.
        let (w_unlim, _) = share_two(110.0, 95.0, 119.0);
        // Rate-limited migration demands only 30 -> workload recovers.
        let (w_lim, m_lim) = share_two(110.0, 95.0, 30.0);
        assert!(w_unlim < 60.0);
        assert!(w_lim > 75.0);
        assert!(close(m_lim, 30.0));
        // The paper: limiting recovers roughly half the lost throughput.
        let recovered = (w_lim - w_unlim) / (95.0 - w_unlim);
        assert!(recovered > 0.5, "recovered fraction {recovered}");
    }
}
