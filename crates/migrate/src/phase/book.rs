//! The booking model: what a frame costs on the wire, by the rules of
//! [`MigMessage::wire_size`], what the freeze window costs in time, and
//! how a paced transfer steps. The virtual-time engines and the
//! baselines carry no real frames, so they book and pace through these
//! functions; the live engine books what it sends.

use des::SimDuration;
use simnet::proto::{Category, BLOCK_REF_WIRE, FRAME_OVERHEAD};

#[cfg(doc)]
use simnet::proto::MigMessage;

/// Guest page size every engine books memory in.
pub const PAGE_SIZE: u64 = 4096;

/// The index each payload unit carries ahead of its bytes.
const INDEX_WIRE: u64 = 8;

/// A [`MigMessage::BlockData`] header: block index and image generation.
const FETCH_HEAD_WIRE: u64 = 16;

/// Xen's costs of suspending and of resuming the guest.
const SUSPEND_OVERHEAD: SimDuration = SimDuration::from_millis(15);
const RESUME_OVERHEAD: SimDuration = SimDuration::from_millis(25);

/// The freeze window: the guest suspends, `bytes` cross at `rate`
/// bytes/second behind one `latency`, and the guest resumes.
pub fn freeze_window(bytes: u64, rate: f64, latency: SimDuration) -> SimDuration {
    SUSPEND_OVERHEAD + SimDuration::from_secs_f64(bytes as f64 / rate) + latency + RESUME_OVERHEAD
}

/// One step of a paced transfer of `remaining` units at `rate`
/// bytes/second: the step's length and the units that cross in it.
/// `carry` holds the fractional unit between steps; the step shrinks so
/// the last unit crosses exactly at its end, keeping phase timing exact.
pub fn pace_step(
    step: SimDuration,
    rate: f64,
    unit_bytes: f64,
    remaining: u64,
    carry: &mut f64,
) -> (SimDuration, u64) {
    if remaining == 0 {
        *carry = 0.0;
        return (SimDuration::ZERO, 0);
    }
    let full_step_units = rate * step.as_secs_f64() / unit_bytes;
    let dt = if full_step_units + *carry >= remaining as f64 {
        SimDuration::from_secs_f64(((remaining as f64 - *carry).max(0.0) * unit_bytes) / rate)
    } else {
        step
    };
    let raw = *carry + rate * dt.as_secs_f64() / unit_bytes;
    let mut n = (raw.floor() as u64).min(remaining);
    *carry = raw - n as f64;
    if dt == SimDuration::ZERO || (n == 0 && dt < step) {
        // Numerical corner: force the last unit(s) through.
        n = remaining;
        *carry = 0.0;
    }
    (dt, n)
}

/// `n` payload units of `unit` bytes, each behind its index: the body of
/// a [`MigMessage::DiskBlocks`] or [`MigMessage::MemPages`] frame.
#[inline]
pub fn units_wire(n: u64, unit: u64) -> u64 {
    n * (unit + INDEX_WIRE)
}

/// One frame around a `body` of that many bytes.
#[inline]
pub fn frame_wire(body: u64) -> u64 {
    FRAME_OVERHEAD + body
}

/// One data batch in one frame: `fulls` payload units of `unit` bytes
/// and `refs` content references ([`MigMessage::BlockRefs`]).
#[inline]
pub fn batch_wire(fulls: u64, unit: u64, refs: u64) -> u64 {
    frame_wire(units_wire(fulls, unit) + refs * BLOCK_REF_WIRE)
}

/// One batch of `n` blocks fetched from a peer holder, each a
/// [`MigMessage::BlockData`] body.
#[inline]
pub fn fetch_wire(n: u64, unit: u64) -> u64 {
    frame_wire(n * (FETCH_HEAD_WIRE + unit))
}

/// What the freeze sends while the guest is down, in frames: the tail
/// pages, the CPU context and the encoded block-bitmap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreezeBill {
    /// Dirty pages left when memory pre-copy stopped.
    pub pages: u64,
    /// CPU context bytes.
    pub cpu: u64,
    /// Encoded length of the frozen block-bitmap.
    pub bitmap: u64,
}

impl FreezeBill {
    /// Each freeze frame and the category it is booked under.
    pub fn frames(&self) -> [(Category, u64); 3] {
        [
            (Category::Memory, batch_wire(self.pages, PAGE_SIZE, 0)),
            (Category::Cpu, frame_wire(self.cpu)),
            (Category::Bitmap, frame_wire(self.bitmap)),
        ]
    }

    /// Bytes the freeze window must carry.
    pub fn bytes(&self) -> u64 {
        self.frames().iter().map(|&(_, b)| b).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simnet::proto::MigMessage;

    #[test]
    fn a_paced_transfer_ends_when_its_last_unit_crosses() {
        let step = SimDuration::from_secs(1);
        let mut carry = 0.0;
        // 2.5 units a step: two whole steps carry 2 and 3 units (half a
        // unit rides between them), and the sixth unit ends a 0.4 s step.
        assert_eq!(pace_step(step, 10.0, 4.0, 6, &mut carry), (step, 2));
        assert_eq!(carry, 0.5);
        assert_eq!(pace_step(step, 10.0, 4.0, 4, &mut carry), (step, 3));
        let half = SimDuration::from_millis(400);
        assert_eq!(pace_step(step, 10.0, 4.0, 1, &mut carry), (half, 1));
        assert_eq!(carry, 0.0);
        // Nothing to send is a zero step, even on a link with no rate.
        carry = 0.7;
        assert_eq!(
            pace_step(step, 0.0, 4.0, 0, &mut carry),
            (SimDuration::ZERO, 0)
        );
        assert_eq!(carry, 0.0);
    }

    #[test]
    fn bookings_are_the_wire_size_model() {
        for n in [0u64, 1, 7, 64] {
            let idx = (0..n).collect::<Vec<_>>();
            let blocks = MigMessage::DiskBlocks {
                blocks: idx.clone(),
                payload_len: n * 512,
                payload: None,
            };
            assert_eq!(batch_wire(n, 512, 0), blocks.wire_size());
            let pages = MigMessage::MemPages {
                pages: idx.clone(),
                payload_len: n * PAGE_SIZE,
                payload: None,
            };
            assert_eq!(batch_wire(n, PAGE_SIZE, 0), pages.wire_size());
            let refs = MigMessage::BlockRefs {
                blocks: idx.clone(),
                fingerprints: vec![0; n as usize],
            };
            assert_eq!(batch_wire(0, 512, n), refs.wire_size());
        }
        let fetch = MigMessage::BlockData {
            block: 3,
            generation: 1,
            payload_len: 4096,
            payload: None,
        };
        assert_eq!(fetch_wire(1, 4096), fetch.wire_size());
        let cpu = MigMessage::CpuState {
            payload_len: 8192,
            payload: None,
        };
        let bitmap = MigMessage::Bitmap {
            encoded: Bytes::from(vec![0u8; 40]),
        };
        let bill = FreezeBill {
            pages: 3,
            cpu: 8192,
            bitmap: 40,
        };
        assert_eq!(
            bill.bytes(),
            batch_wire(3, PAGE_SIZE, 0) + cpu.wire_size() + bitmap.wire_size()
        );
    }
}
