//! Deterministic-order zone: no hash order; the wall clock is allowed.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::HashSet;

pub fn seen(blocks: &[u64]) -> HashSet<u64> {
    blocks.iter().copied().collect()
}

pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}
