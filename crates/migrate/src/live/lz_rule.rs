//! When LZ and fingerprinting run: only when the link pays for them.
//!
//! `compress` in the handshake is a capability; this is the decision. LZ
//! spends CPU to save link time, so a batch is compressed iff the time
//! its saved bytes would have kept the link busy exceeds the time LZ
//! takes to save them — [`lz_pays`], per batch, from three measurements
//! and no setting (DESIGN.md §15, "When LZ runs"):
//!
//! * `saved_share` — from the head of the batch's own LZ stream, its
//!   first [`SAMPLE_UNITS`] units: the encoder is paused there, and if LZ
//!   pays it carries on from where it stands, so nothing is compressed
//!   twice and the stream is the one an unpaused encoder gives;
//! * `lz_ns_per_raw_byte` — the *fastest* such sample so far per unit
//!   kind: preemption and cache misses only ever add to a sample, so the
//!   minimum is the cost;
//! * `link_ns_per_byte` — [`Transport::link_ns_per_byte`], read first.
//!   Zero on an unpaced in-process link, which therefore never
//!   compresses and is not sampled; `1 / rate` on a paced one; zero
//!   again on an unpaced socket whose two ends are one host; unbounded
//!   on a link that cannot tell (an unpaced socket between two hosts),
//!   which therefore compresses whatever compresses, as every link did
//!   before this rule.
//!
//! `dedup` is a capability too, and [`fingerprinting_pays`] its decision:
//! per session, from the same link cost (DESIGN.md §15, "When
//! fingerprinting runs").

use std::time::Instant;

use simnet::codec::lz::{Encoder, MatchTables};
use simnet::transport::Transport;
use telemetry::{Event, Recorder, Resource, Side};

/// Units at the head of a batch compressed as the timed sample.
const SAMPLE_UNITS: usize = 8;

/// Whether LZ pays for itself: `saved_share` of every raw byte stays off
/// a link that costs `link_ns_per_byte`, for `lz_ns_per_raw_byte` of CPU.
/// Never on a free link, never when nothing is saved (an unbounded link
/// cost times a saving of zero is not a number, and not greater).
pub fn lz_pays(saved_share: f64, link_ns_per_byte: f64, lz_ns_per_raw_byte: f64) -> bool {
    saved_share * link_ns_per_byte > lz_ns_per_raw_byte
}

/// Whether content fingerprints can pay for themselves on a link: a hash
/// costs CPU on both sides and a hit saves link time, so never on a link
/// whose bytes are free, whatever the hit share. Any other link — one
/// that cannot tell what a byte costs included — repays a hash at a hit
/// share under 1 %, so there is no share to estimate.
pub fn fingerprinting_pays(link_ns_per_byte: Option<f64>) -> bool {
    link_ns_per_byte != Some(0.0)
}

/// One unit kind's cheapest sample, and what its batches did since the
/// last journal entry.
#[derive(Debug, Clone, Copy)]
struct Tally {
    lz_ns_per_raw_byte: f64,
    batches_compressed: u64,
    batches_raw: u64,
    sample_bytes: u64,
    /// Raw bytes of the batches that crossed compressed, and the stream
    /// bytes they crossed as.
    raw_bytes: u64,
    lz_bytes: u64,
}

impl Tally {
    fn starting_at(lz_ns_per_raw_byte: f64) -> Self {
        Self {
            lz_ns_per_raw_byte,
            batches_compressed: 0,
            batches_raw: 0,
            sample_bytes: 0,
            raw_bytes: 0,
            lz_bytes: 0,
        }
    }
}

/// The source's raw-versus-LZ decision for full batches, blocks and
/// pages alike. Lives as long as the migration: what LZ costs on this
/// machine does not change with the connection, and the encoder's
/// tables are allocated once, not per batch.
#[derive(Debug)]
pub(crate) struct LzRule {
    blocks: Tally,
    pages: Tally,
    /// What the last decision read off the link.
    link_ns_per_byte: f64,
    tables: MatchTables,
}

impl Default for LzRule {
    fn default() -> Self {
        Self {
            blocks: Tally::starting_at(f64::INFINITY),
            pages: Tally::starting_at(f64::INFINITY),
            link_ns_per_byte: 0.0,
            tables: MatchTables::default(),
        }
    }
}

impl LzRule {
    fn tally(&mut self, kind: Resource) -> &mut Tally {
        match kind {
            Resource::Disk => &mut self.blocks,
            Resource::Memory => &mut self.pages,
        }
    }

    /// The batch as one LZ stream when compressing it pays on `ep` and the
    /// stream comes out smaller; `None` to ship `payload` as it is.
    pub(crate) fn encode<T: Transport>(
        &mut self,
        ep: &T,
        kind: Resource,
        payload: &[u8],
        unit_size: usize,
    ) -> Option<Vec<u8>> {
        // A link that cannot say what a byte costs leaves nothing to weigh
        // LZ against: whatever it saves is taken.
        let link_ns_per_byte = ep.link_ns_per_byte().unwrap_or(f64::INFINITY);
        self.link_ns_per_byte = link_ns_per_byte;
        if link_ns_per_byte == 0.0 {
            // Free bytes repay no sample either: nothing is compressed.
            self.tally(kind).batches_raw += 1;
            return None;
        }
        let sample_len = payload.len().min(SAMPLE_UNITS * unit_size);
        let cheapest = self.tally(kind).lz_ns_per_raw_byte;
        // Clearing the encoder's tables is not what a sample weighs: the
        // clock starts after it.
        let mut encoder = Encoder::new(payload, &mut self.tables);
        let mut stream = Vec::new();
        let started = Instant::now();
        encoder.advance(sample_len, &mut stream);
        let sample_ns = started.elapsed().as_nanos() as f64;
        let lz_ns_per_raw_byte = cheapest.min(sample_ns / sample_len as f64);
        // A match that runs past the sample's end is booked against the
        // sample alone: the saving is never overstated.
        let saved_share = 1.0 - encoder.len_if_ended(&stream) as f64 / sample_len as f64;
        let pays = lz_pays(saved_share, link_ns_per_byte, lz_ns_per_raw_byte);
        if pays {
            encoder.finish(&mut stream);
        }
        let tally = self.tally(kind);
        tally.sample_bytes += sample_len as u64;
        tally.lz_ns_per_raw_byte = lz_ns_per_raw_byte;
        if pays && stream.len() < payload.len() {
            tally.batches_compressed += 1;
            tally.raw_bytes += payload.len() as u64;
            tally.lz_bytes += stream.len() as u64;
            return Some(stream);
        }
        tally.batches_raw += 1;
        None
    }

    /// Journal what the worklist pass just finished decided for `kind` —
    /// nothing if it decided nothing — and start the next pass's count.
    pub(crate) fn journal(&mut self, telemetry: &Recorder, kind: Resource) {
        let link_ps_per_byte = (self.link_ns_per_byte * 1e3) as u64;
        let tally = self.tally(kind);
        let pass = std::mem::replace(tally, Tally::starting_at(tally.lz_ns_per_raw_byte));
        if pass.batches_compressed + pass.batches_raw == 0 {
            return;
        }
        let lz_ps_per_raw_byte = (pass.lz_ns_per_raw_byte * 1e3) as u64;
        telemetry.record(|| {
            let m = telemetry.metrics();
            let name = match kind {
                Resource::Disk => "block",
                Resource::Memory => "page",
            };
            m.counter(&format!("codec.{name}.batches_compressed"))
                .add(pass.batches_compressed);
            m.counter(&format!("codec.{name}.batches_raw"))
                .add(pass.batches_raw);
            m.counter(&format!("codec.{name}.sample_bytes"))
                .add(pass.sample_bytes);
            m.counter(&format!("codec.{name}.raw_bytes"))
                .add(pass.raw_bytes);
            m.counter(&format!("codec.{name}.lz_bytes"))
                .add(pass.lz_bytes);
            m.gauge(&format!("codec.{name}.lz_ps_per_raw_byte"))
                .set(lz_ps_per_raw_byte);
            m.gauge("codec.link_ps_per_byte").set(link_ps_per_byte);
            Event::CodecDecision {
                side: Side::Source,
                resource: kind,
                batches_compressed: pass.batches_compressed,
                batches_raw: pass.batches_raw,
                sample_bytes: pass.sample_bytes,
                link_ps_per_byte,
                lz_ps_per_raw_byte,
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::codec::compress_blocks;
    use simnet::proto::{MigMessage, TransferLedger};
    use simnet::transport::{duplex, TransportError};
    use std::time::Duration;

    /// Text-like units, each opening with its own serial so no match
    /// runs from one into the next: LZ saves well over half of each.
    fn text(units: usize, unit_size: usize) -> Vec<u8> {
        (0..units)
            .flat_map(|u| {
                format!("{u:08x}")
                    .into_bytes()
                    .into_iter()
                    .chain(
                        b"the block-bitmap marks what the guest dirtied; "
                            .iter()
                            .copied()
                            .cycle(),
                    )
                    .take(unit_size)
            })
            .collect()
    }

    #[test]
    fn an_idle_link_ships_raw_and_a_paced_one_compresses_from_the_first_byte() {
        let payload = text(32, 4096);
        let (idle, _peer) = duplex();
        let mut rule = LzRule::default();
        assert!(rule.encode(&idle, Resource::Disk, &payload, 4096).is_none());
        // Asked first, the free link is not even sampled.
        assert_eq!((rule.blocks.batches_raw, rule.blocks.sample_bytes), (1, 0));
        assert!(rule.blocks.lz_ns_per_raw_byte.is_infinite());

        // 2 MiB/s is 477 ns a byte against a few ns of LZ. The limiter
        // still holds its whole burst: what counts is the rate.
        let (mut paced, _peer) = duplex();
        paced.set_rate_limit(2.0 * 1024.0 * 1024.0);
        let stream = rule
            .encode(&paced, Resource::Disk, &payload, 4096)
            .expect("the link pays");
        // The encoder paused after the sample and carried on: the stream
        // is the one an unpaused encoder gives, byte for byte.
        assert_eq!(stream, compress_blocks(&payload, 4096));
        assert_eq!(
            (rule.blocks.raw_bytes, rule.blocks.lz_bytes),
            (payload.len() as u64, stream.len() as u64)
        );
        assert_eq!(rule.blocks.batches_compressed, 1);
        assert_eq!(rule.link_ns_per_byte, 1e9 / (2.0 * 1024.0 * 1024.0));
        // Pages keep their own count and their own cost.
        assert_eq!(rule.pages.batches_raw + rule.pages.batches_compressed, 0);
        assert!(rule.pages.lz_ns_per_raw_byte.is_infinite());
    }

    /// A socket as one between two hosts presents itself: every method
    /// the socket's own but the link cost, left at the trait's default.
    struct BetweenHosts(simnet::tcp::TcpTransport);

    impl Transport for BetweenHosts {
        fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
            self.0.send(msg)
        }
        fn recv(&self) -> Result<MigMessage, TransportError> {
            self.0.recv()
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
            self.0.recv_timeout(timeout)
        }
        fn try_recv(&self) -> Result<MigMessage, TransportError> {
            self.0.try_recv()
        }
        fn sent_ledger(&self) -> TransferLedger {
            self.0.sent_ledger()
        }
    }

    #[test]
    fn a_link_that_cannot_tell_gets_whatever_compresses() {
        let (socket, _peer) = simnet::tcp::loopback_pair().expect("loopback");
        let socket = BetweenHosts(socket);
        assert_eq!(socket.link_ns_per_byte(), None);
        let mut rule = LzRule::default();
        let stream = rule.encode(&socket, Resource::Memory, &text(16, 512), 512);
        assert_eq!(stream, Some(compress_blocks(&text(16, 512), 512)));
        // Noise saves nothing: its own bytes behind a literal count.
        let noise: Vec<u8> = (0..8192u32)
            .flat_map(|i| i.wrapping_mul(0x9E37_79B9).to_le_bytes())
            .collect();
        assert!(rule
            .encode(&socket, Resource::Memory, &noise, 512)
            .is_none());
        // Journaled as unknown, and the journal survives its own format.
        let rec = Recorder::enabled();
        rule.journal(&rec, Resource::Memory);
        let records = rec.records();
        assert!(matches!(
            records[0].event,
            Event::CodecDecision {
                batches_compressed: 1,
                batches_raw: 1,
                link_ps_per_byte: u64::MAX,
                ..
            }
        ));
        let back = telemetry::from_jsonl(&telemetry::to_jsonl(&records)).expect("parse");
        assert_eq!(back, records);
    }

    #[test]
    fn a_pass_is_journaled_once_and_only_if_it_decided_something() {
        let rec = Recorder::enabled();
        let (idle, _peer) = duplex();
        let mut rule = LzRule::default();
        rule.journal(&rec, Resource::Memory);
        assert!(rec.is_empty());
        for _ in 0..3 {
            assert!(rule
                .encode(&idle, Resource::Memory, &text(4, 512), 512)
                .is_none());
        }
        rule.journal(&rec, Resource::Memory);
        rule.journal(&rec, Resource::Memory);
        let records = rec.records();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].event,
            Event::CodecDecision {
                resource: Resource::Memory,
                batches_compressed: 0,
                batches_raw: 3,
                sample_bytes: 0,
                link_ps_per_byte: 0,
                lz_ps_per_raw_byte: u64::MAX,
                ..
            }
        ));
        assert_eq!(rec.metrics().counter("codec.page.batches_raw").get(), 3);
        assert_eq!(rec.metrics().counter("codec.page.lz_bytes").get(), 0);
        // The counts do not survive the pass; what LZ costs does, once a
        // link that pays has had it measured.
        assert_eq!(rule.pages.batches_raw, 0);
        let (mut paced, _peer) = duplex();
        paced.set_rate_limit(2.0 * 1024.0 * 1024.0);
        assert!(rule
            .encode(&paced, Resource::Memory, &text(4, 512), 512)
            .is_some());
        rule.journal(&rec, Resource::Memory);
        assert!(rule.pages.lz_ns_per_raw_byte.is_finite());
        assert_eq!(rule.pages.sample_bytes, 0);
    }
}
