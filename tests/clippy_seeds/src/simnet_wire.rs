//! Transport and result-dropped zones: typed errors only, none discarded.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]

use std::sync::mpsc::Sender;

pub fn relay(ep: &Sender<u8>, b: u8) {
    ep.send(b);
    let _ = ep.send(b);
}

pub fn decode(b: Option<u8>) -> u8 {
    b.unwrap()
}
