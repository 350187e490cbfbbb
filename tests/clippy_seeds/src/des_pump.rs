//! Reactor-ready zone: nothing parks the thread.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use std::sync::mpsc::Receiver;

pub fn pump(rx: &Receiver<u8>) -> Option<u8> {
    let ev = rx.recv();
    std::thread::sleep(std::time::Duration::from_millis(1));
    ev.ok()
}
