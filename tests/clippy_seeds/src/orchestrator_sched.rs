//! Deterministic zone: no hash order, no wall clock.
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_methods))]

use std::collections::HashMap;

pub fn plan() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
