//! The destination-side pending list *P* of the post-copy algorithm.
//!
//! In the paper, every I/O request intercepted on the destination is first
//! queued in a pending list. Requests that need no pull are submitted (and
//! removed) immediately; a read to a still-dirty block stays queued until
//! the block arrives from the source, at which point every queued request
//! for that block is released.

use std::collections::BTreeMap;

use crate::IoRequest;

/// FIFO-per-block pending request queue.
#[derive(Debug, Default)]
pub struct PendingQueue {
    by_block: BTreeMap<usize, Vec<IoRequest>>,
    len: usize,
    /// Largest simultaneous queue population observed (reported as an I/O
    /// blocking metric).
    high_water: usize,
}

impl PendingQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a request waiting on its block.
    pub fn push(&mut self, req: IoRequest) {
        self.by_block.entry(req.block).or_default().push(req);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Release every request waiting on `block`, in arrival order.
    /// Returns an empty vector when none are waiting.
    pub fn take_for_block(&mut self, block: usize) -> Vec<IoRequest> {
        match self.by_block.remove(&block) {
            Some(reqs) => {
                self.len -= reqs.len();
                reqs
            }
            None => Vec::new(),
        }
    }

    /// `true` when at least one request waits on `block`.
    pub fn waiting_on(&self, block: usize) -> bool {
        self.by_block.contains_key(&block)
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest queue population seen so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomainId;

    #[test]
    fn push_take_roundtrip() {
        let mut q = PendingQueue::new();
        assert!(q.is_empty());
        q.push(IoRequest::read(5, DomainId(1)));
        q.push(IoRequest::read(5, DomainId(1)));
        q.push(IoRequest::read(7, DomainId(1)));
        assert_eq!(q.len(), 3);
        assert!(q.waiting_on(5) && q.waiting_on(7) && !q.waiting_on(6));

        let released = q.take_for_block(5);
        assert_eq!(released.len(), 2);
        assert!(released.iter().all(|r| r.block == 5));
        assert_eq!(q.len(), 1);
        assert!(!q.waiting_on(5));
    }

    #[test]
    fn take_for_absent_block_is_empty() {
        let mut q = PendingQueue::new();
        assert!(q.take_for_block(42).is_empty());
    }

    #[test]
    fn fifo_order_per_block() {
        let mut q = PendingQueue::new();
        q.push(IoRequest::read(3, DomainId(1)));
        q.push(IoRequest::write(3, DomainId(2)));
        let released = q.take_for_block(3);
        assert_eq!(released[0].domain, DomainId(1));
        assert_eq!(released[1].domain, DomainId(2));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = PendingQueue::new();
        for b in 0..5 {
            q.push(IoRequest::read(b, DomainId(1)));
        }
        for b in 0..5 {
            q.take_for_block(b);
        }
        assert!(q.is_empty());
        assert_eq!(q.high_water(), 5);
    }
}
