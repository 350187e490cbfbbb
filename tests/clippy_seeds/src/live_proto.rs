//! Protocol zone: a match over a message enum names every variant.
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

pub enum Message {
    Prepare,
    Ack,
    Block(u64),
}

pub fn block_of(m: &Message) -> Option<u64> {
    match m {
        Message::Block(b) => Some(*b),
        _ => None,
    }
}
