//! In no zone: the same code as the seeds, none of it reported.

use std::collections::HashMap;
use std::sync::mpsc::Receiver;

pub fn plan() -> HashMap<u32, u32> {
    HashMap::new()
}

pub fn pump(rx: &Receiver<u8>) -> u8 {
    rx.recv().unwrap_or(0)
}

pub fn decode(b: Option<u8>) -> u8 {
    b.unwrap()
}
