//! Property tests for the network substrate: codec totality, capacity
//! sharing invariants, token-bucket conservation, and seeded-chaos
//! fault-plan determinism.

use std::time::Duration;

use bytes::Bytes;
use des::{SimDuration, SimTime};
use proptest::prelude::*;
use simnet::capacity::{max_min_share, seek_aware_share};
use simnet::codec::{
    compress_blocks, decode, decode_owned, decompress_blocks, encode, encode_framed, read_frame,
    read_frame_or_eof, write_frame, CodecError,
};
use simnet::fault::{faulty_pair, FaultPlan};
use simnet::proto::{MigMessage, ResumePhase};
use simnet::transport::{duplex, Transport, TransportError};
use simnet::TokenBucket;

fn arb_message() -> impl Strategy<Value = MigMessage> {
    let bytes = prop::collection::vec(any::<u8>(), 0..512).prop_map(Bytes::from);
    let opt_bytes = prop::option::of(bytes.clone());
    prop_oneof![
        (any::<u32>(), any::<u64>()).prop_map(|(block_size, num_blocks)| {
            MigMessage::PrepareVbd {
                block_size,
                num_blocks,
            }
        }),
        Just(MigMessage::PrepareAck),
        (
            prop::collection::vec(any::<u64>(), 0..50),
            any::<u64>(),
            opt_bytes.clone()
        )
            .prop_map(|(blocks, payload_len, payload)| MigMessage::DiskBlocks {
                blocks,
                payload_len,
                payload,
            }),
        (
            prop::collection::vec(any::<u64>(), 0..50),
            any::<u64>(),
            opt_bytes.clone()
        )
            .prop_map(|(pages, payload_len, payload)| MigMessage::MemPages {
                pages,
                payload_len,
                payload,
            }),
        (
            prop::collection::vec(any::<u64>(), 0..50),
            any::<u64>(),
            bytes.clone()
        )
            .prop_map(|(pages, raw_len, payload)| MigMessage::CompressedPages {
                pages,
                raw_len,
                payload,
            }),
        (any::<u64>(), opt_bytes.clone()).prop_map(|(payload_len, payload)| {
            MigMessage::CpuState {
                payload_len,
                payload,
            }
        }),
        bytes
            .clone()
            .prop_map(|encoded| MigMessage::Bitmap { encoded }),
        Just(MigMessage::Suspended),
        Just(MigMessage::Resumed),
        any::<u64>().prop_map(|block| MigMessage::PullRequest { block }),
        (any::<u64>(), any::<bool>(), any::<u64>(), opt_bytes.clone()).prop_map(
            |(block, pulled, payload_len, payload)| MigMessage::PostCopyBlock {
                block,
                pulled,
                payload_len,
                payload,
            }
        ),
        Just(MigMessage::PushComplete),
        Just(MigMessage::MigrationComplete),
        Just(MigMessage::CompleteAck),
        Just(MigMessage::Barrier),
        Just(MigMessage::BarrierAck),
        arb_hello(),
        arb_block_refs(),
        (any::<u64>(), any::<u64>())
            .prop_map(|(block, fingerprint)| MigMessage::BlockRef { block, fingerprint }),
        any::<u64>().prop_map(|block| MigMessage::BlockRefMiss { block }),
        prop::collection::vec(any::<u64>(), 0..50)
            .prop_map(|fingerprints| MigMessage::ContentSummary { fingerprints }),
        (
            prop::collection::vec(any::<u64>(), 0..50),
            any::<u64>(),
            bytes.clone()
        )
            .prop_map(|(blocks, raw_len, payload)| MigMessage::CompressedBlocks {
                blocks,
                raw_len,
                payload,
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(block, fingerprint, generation)| {
            MigMessage::BlockRequest {
                block,
                fingerprint,
                generation,
            }
        }),
        (any::<u64>(), any::<u64>(), any::<u64>(), opt_bytes).prop_map(
            |(block, generation, payload_len, payload)| MigMessage::BlockData {
                block,
                generation,
                payload_len,
                payload,
            }
        ),
        any::<u64>().prop_map(|block| MigMessage::BlockMiss { block }),
        (
            prop::collection::vec(any::<u64>(), 0..50),
            prop::collection::vec(any::<u64>(), 0..50)
        )
            .prop_map(|(blocks, fingerprints)| MigMessage::BlockManifest {
                blocks,
                fingerprints,
            }),
        (
            prop_oneof![
                Just(ResumePhase::AwaitPrepare),
                Just(ResumePhase::Precopy),
                Just(ResumePhase::Frozen),
                Just(ResumePhase::PostCopy),
            ],
            0u8..4,
            bytes.clone(),
            bytes
        )
            .prop_map(|(phase, flags, disk_bitmap, mem_bitmap)| {
                MigMessage::ResumeFrom {
                    phase,
                    dedup: flags & 1 != 0,
                    compress: flags & 2 != 0,
                    disk_bitmap,
                    mem_bitmap,
                }
            }),
    ]
}

/// The number of `MigMessage` variants: [`variant`] numbers each one.
const VARIANTS: usize = 27;

/// Each variant's number, by a match with no wildcard: a new variant does
/// not compile until it is named here, and
/// `arb_message_draws_every_variant` fails until [`arb_message`] draws it.
fn variant(msg: &MigMessage) -> usize {
    match msg {
        MigMessage::PrepareVbd { .. } => 0,
        MigMessage::PrepareAck => 1,
        MigMessage::DiskBlocks { .. } => 2,
        MigMessage::BlockRef { .. } => 3,
        MigMessage::BlockRefs { .. } => 4,
        MigMessage::BlockRefMiss { .. } => 5,
        MigMessage::ContentSummary { .. } => 6,
        MigMessage::CompressedBlocks { .. } => 7,
        MigMessage::MemPages { .. } => 8,
        MigMessage::CompressedPages { .. } => 9,
        MigMessage::CpuState { .. } => 10,
        MigMessage::Bitmap { .. } => 11,
        MigMessage::Suspended => 12,
        MigMessage::Resumed => 13,
        MigMessage::PullRequest { .. } => 14,
        MigMessage::PostCopyBlock { .. } => 15,
        MigMessage::PushComplete => 16,
        MigMessage::MigrationComplete => 17,
        MigMessage::CompleteAck => 18,
        MigMessage::Barrier => 19,
        MigMessage::BarrierAck => 20,
        MigMessage::SessionHello { .. } => 21,
        MigMessage::BlockRequest { .. } => 22,
        MigMessage::BlockData { .. } => 23,
        MigMessage::BlockMiss { .. } => 24,
        MigMessage::BlockManifest { .. } => 25,
        MigMessage::ResumeFrom { .. } => 26,
    }
}

/// The round-trip, truncation and damage properties below see every
/// variant, and every `ResumeFrom` phase.
#[test]
fn arb_message_draws_every_variant() {
    let strategy = arb_message();
    let mut rng = proptest::TestRng::new(31);
    let mut seen = [false; VARIANTS];
    let mut phases = [false; 4];
    for _ in 0..10_000 {
        let msg = strategy.gen(&mut rng);
        seen[variant(&msg)] = true;
        if let MigMessage::ResumeFrom { phase, .. } = msg {
            phases[usize::from(phase.to_u8())] = true;
        }
    }
    let missing: Vec<usize> = (0..VARIANTS).filter(|&v| !seen[v]).collect();
    assert!(missing.is_empty(), "variants never drawn: {missing:?}");
    assert_eq!(phases, [true; 4]);
}

/// `msg` as the live engine sends it, when it can be: `payload_len` set to
/// the length of the payload it describes. A message whose payload is
/// absent is not live-form and comes back `None` — the simulator's
/// messages, and the live engine's `CpuState`, which books 8 KiB of
/// context and sends none (`payload: None`).
fn live_form(mut msg: MigMessage) -> Option<MigMessage> {
    match &mut msg {
        MigMessage::DiskBlocks {
            payload_len,
            payload,
            ..
        }
        | MigMessage::MemPages {
            payload_len,
            payload,
            ..
        }
        | MigMessage::CpuState {
            payload_len,
            payload,
        }
        | MigMessage::PostCopyBlock {
            payload_len,
            payload,
            ..
        }
        | MigMessage::BlockData {
            payload_len,
            payload,
            ..
        } => *payload_len = payload.as_ref()?.len() as u64,
        _ => {}
    }
    Some(msg)
}

/// A live-form message's framed length less its `wire_size`, by variant.
/// The frame is a 4-byte length prefix, the tag byte and the fields;
/// `wire_size` is [`FRAME_OVERHEAD`](simnet::proto::FRAME_OVERHEAD) (16)
/// and the fields it books. A fixed-size message books its fields byte for
/// byte: 4 + 1 − 16 = −11. A message with runs books their contents but
/// not their 8-byte lengths, nor an option byte, nor `payload_len` or
/// `raw_len` beside the payload they describe.
fn framed_less_booked(msg: &MigMessage) -> i64 {
    match msg {
        // Index run and payload lengths, `payload_len`, option byte.
        MigMessage::DiskBlocks { .. } | MigMessage::MemPages { .. } => 14,
        // Index run and stream lengths, `raw_len`.
        MigMessage::CompressedBlocks { .. } | MigMessage::CompressedPages { .. } => 13,
        // Payload length, option byte; `PostCopyBlock` books its `pulled`
        // byte and `BlockData` its two words.
        MigMessage::CpuState { .. }
        | MigMessage::PostCopyBlock { .. }
        | MigMessage::BlockData { .. } => 6,
        // Two run lengths (`ResumeFrom` books its three flag bytes).
        MigMessage::BlockRefs { .. }
        | MigMessage::BlockManifest { .. }
        | MigMessage::ResumeFrom { .. } => 5,
        // One run length.
        MigMessage::ContentSummary { .. } | MigMessage::Bitmap { .. } => -3,
        MigMessage::PrepareVbd { .. }
        | MigMessage::PrepareAck
        | MigMessage::BlockRef { .. }
        | MigMessage::BlockRefMiss { .. }
        | MigMessage::Suspended
        | MigMessage::Resumed
        | MigMessage::PullRequest { .. }
        | MigMessage::PushComplete
        | MigMessage::MigrationComplete
        | MigMessage::CompleteAck
        | MigMessage::Barrier
        | MigMessage::BarrierAck
        | MigMessage::SessionHello { .. }
        | MigMessage::BlockRequest { .. }
        | MigMessage::BlockMiss { .. } => -11,
    }
}

/// A frame of references: as many fingerprints as blocks, the only shape
/// the decoder accepts.
fn arb_block_refs() -> impl Strategy<Value = MigMessage> {
    prop::collection::vec((any::<u64>(), any::<u64>()), 0..50).prop_map(|refs| {
        let (blocks, fingerprints): (Vec<u64>, Vec<u64>) = refs.into_iter().unzip();
        MigMessage::BlockRefs {
            blocks,
            fingerprints,
        }
    })
}

fn arb_hello() -> impl Strategy<Value = MigMessage> {
    (any::<u64>(), any::<u32>(), 0u8..8).prop_map(|(session_id, attempt, flags)| {
        MigMessage::SessionHello {
            session_id,
            attempt,
            dedup: flags & 1 != 0,
            compress: flags & 2 != 0,
            incremental: flags & 4 != 0,
        }
    })
}

/// Unit size of the batches below.
const UNIT: usize = 600;

/// One unit of each kind a batch mixes: a run, a repeated motif and
/// noise, padded with zeroes to [`UNIT`] bytes.
fn arb_unit() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (any::<u8>(), 8usize..UNIT).prop_map(|(byte, len)| vec![byte; len]),
        (prop::collection::vec(any::<u8>(), 3..24), 8usize..UNIT).prop_map(|(motif, len)| motif
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect()),
        prop::collection::vec(any::<u8>(), 0..UNIT),
    ]
    .prop_map(|mut unit| {
        unit.resize(UNIT, 0);
        unit
    })
}

/// A batch of one to six units, some of them repeats of an earlier one.
fn arb_batch() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((arb_unit(), any::<bool>()), 1..7).prop_map(|units| {
        let mut batch: Vec<u8> = Vec::new();
        for (unit, repeat_first) in units {
            if repeat_first && !batch.is_empty() {
                batch.extend_from_within(..UNIT);
            } else {
                batch.extend_from_slice(&unit);
            }
        }
        batch
    })
}

/// A unit of noise, at least 32 KiB of byte runs, the unit again and
/// one more unit: the repeat's one match is too far back for a 2-byte
/// offset, so its stream carries the 3-byte form.
fn arb_far_batch() -> impl Strategy<Value = Vec<u8>> {
    (
        prop::collection::vec(any::<u8>(), UNIT),
        any::<u8>(),
        (32 * 1024usize).div_ceil(UNIT)..64,
        arb_unit(),
    )
        .prop_map(|(head, first_byte, runs, tail)| {
            let mut batch = head.clone();
            for run in 0..runs {
                batch.resize(batch.len() + UNIT, first_byte.wrapping_add(run as u8));
            }
            batch.extend_from_slice(&head);
            batch.extend_from_slice(&tail);
            batch
        })
}

/// Batches of either shape.
fn arb_any_batch() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![arb_batch(), arb_far_batch()]
}

/// `stream` with `flips` (bit index, wrapped to the stream) toggled.
fn flipped(mut stream: Vec<u8>, flips: &[usize]) -> Vec<u8> {
    for &bit in flips {
        let bit = bit % (stream.len() * 8);
        stream[bit / 8] ^= 1 << (bit % 8);
    }
    stream
}

/// The decoder's contract on bytes nobody vouches for: a typed error or
/// exactly `count x unit_size` bytes in a buffer of exactly that — never
/// a panic, never an allocation sized by what the stream merely claims,
/// and never one a payload this short could not decode to.
fn check_batch_decode(payload: &[u8], count: usize, unit_size: usize) -> Result<(), TestCaseError> {
    if let Ok(out) = decompress_blocks(payload, count, unit_size) {
        prop_assert_eq!(out.len(), count * unit_size);
        prop_assert_eq!(out.capacity(), out.len());
        prop_assert!(out.len() <= 255 * payload.len());
    }
    Ok(())
}

/// `body` through every door of the frame codec — the borrowing
/// decoder, the owning one, and the stream reader: a message or a typed
/// error, never a panic, and the three agree. What is accepted is
/// canonical: it re-encodes to the bytes it came from.
fn check_frame_doors(body: Vec<u8>) -> Result<(), TestCaseError> {
    let borrowed = decode(&body);
    if let Ok(msg) = &borrowed {
        prop_assert_eq!(&encode(msg), &body);
    }
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&body);
    let streamed = read_frame_or_eof(&mut std::io::Cursor::new(wire));
    for other in [
        decode_owned(body.clone()),
        streamed.map(|m| m.expect("not at eof")),
    ] {
        match (&borrowed, other) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, &b),
            (Err(CodecError::Malformed(a)), Err(CodecError::Malformed(b))) => {
                prop_assert_eq!(a, &b)
            }
            (a, b) => prop_assert!(false, "decoders disagree: {a:?} vs {b:?}"),
        }
    }
    // The bytes as a stream of their own: their first four are a length
    // prefix, as a hostile peer's would be.
    let alone = read_frame_or_eof(&mut std::io::Cursor::new(body));
    prop_assert!(
        matches!(alone, Ok(_) | Err(CodecError::Malformed(_))),
        "not a decode error: {alone:?}"
    );
    Ok(())
}

proptest! {
    // Totality is a claim about rare inputs; give it more than the
    // default 64 draws.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The frame decoders are total on arbitrary bytes. (`tag` steers
    /// half the cases past the first-byte lottery into a real variant's
    /// field parser.)
    #[test]
    fn frame_decoders_total_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        tag in 0u8..32,
    ) {
        let mut tagged = bytes.clone();
        if let Some(first) = tagged.first_mut() {
            *first = tag;
        }
        check_frame_doors(bytes)?;
        check_frame_doors(tagged)?;
    }

    /// And on valid frames with bytes overwritten and the end cut off or
    /// padded: deep in a real variant, where lengths and tags are
    /// plausible and one of them lies.
    #[test]
    fn frame_decoders_total_on_damaged_frames(
        msg in arb_message(),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
        keep in any::<usize>(),
        pad in prop::collection::vec(any::<u8>(), 0..9),
    ) {
        let mut body = encode(&msg);
        for (at, byte) in damage {
            let n = body.len();
            body[at % n] = byte;
        }
        body.truncate(keep % (body.len() + 1));
        body.extend_from_slice(&pad);
        check_frame_doors(body)?;
    }

    /// A batch of any mix of units round-trips as one stream, no longer
    /// than its own bytes behind a literal count, repeats too far back for
    /// a 2-byte offset included.
    #[test]
    fn lz_batch_roundtrips(batch in arb_any_batch()) {
        let stream = compress_blocks(&batch, UNIT);
        prop_assert!(stream.len() <= batch.len() + batch.len() / 255 + 16);
        let back = decompress_blocks(&stream, batch.len() / UNIT, UNIT);
        prop_assert_eq!(back.ok(), Some(batch));
    }

    /// ...and the far repeat crosses as a match, not as its literals: the
    /// 3-byte form is what these batches exercise. A run unit costs 7
    /// bytes, the head and the tail at most their own bytes and a count.
    #[test]
    fn lz_far_repeat_is_one_match(batch in arb_far_batch()) {
        let runs = batch.len() / UNIT - 3;
        let stream = compress_blocks(&batch, UNIT);
        prop_assert!(stream.len() < 2 * UNIT + 10 * runs + 32, "{} bytes", stream.len());
    }

    /// `decompress_blocks` is total on arbitrary bytes, whatever count
    /// and unit size they are claimed to hold.
    #[test]
    fn lz_decoder_total_on_arbitrary_bytes(
        junk in prop::collection::vec(any::<u8>(), 0..700),
        count in prop_oneof![0usize..8, 0usize..1_000_000, Just(usize::MAX)],
        unit_size in prop_oneof![Just(0usize), Just(1usize), Just(512usize), Just(4096usize)],
    ) {
        check_batch_decode(&junk, count, unit_size)?;
    }

    /// ...and on valid streams damaged: cut short, bits flipped, or
    /// decoded under a unit count that is not theirs, each is a typed
    /// error unless the bytes happen to be another valid stream of
    /// exactly the claimed size.
    #[test]
    fn lz_decoder_total_on_damaged_streams(
        batch in arb_any_batch(),
        flips in prop::collection::vec(any::<usize>(), 1..4),
        cut in 1usize..64,
        count in 0usize..12,
    ) {
        let units = batch.len() / UNIT;
        let stream = compress_blocks(&batch, UNIT);
        // A stream decodes under its own count only.
        if count != units {
            prop_assert!(decompress_blocks(&stream, count, UNIT).is_err());
        }
        // Every strict prefix is short of the batch.
        let keep = stream.len().saturating_sub(cut);
        prop_assert!(decompress_blocks(&stream[..keep], units, UNIT).is_err());
        check_batch_decode(&flipped(stream, &flips), units, UNIT)?;
    }
}

proptest! {
    /// Every encodable message decodes back to itself.
    #[test]
    fn codec_roundtrip(msg in arb_message()) {
        let enc = encode(&msg);
        prop_assert_eq!(decode(&enc).expect("decode"), msg);
    }

    /// `wire_size` is the booking model, not the encoded length, but the
    /// two move together: for a live-form message they differ by one
    /// constant per variant, whatever its runs hold.
    #[test]
    fn wire_size_is_the_framed_length_less_a_constant_per_variant(msg in arb_message()) {
        let Some(msg) = live_form(msg) else {
            return Ok(());
        };
        let framed = encode_framed(&msg).len() as i64;
        prop_assert_eq!(framed - msg.wire_size() as i64, framed_less_booked(&msg), "{:?}", msg);
    }

    /// Framed sequences round-trip over a byte stream.
    #[test]
    fn framing_roundtrip(msgs in prop::collection::vec(arb_message(), 1..10)) {
        let mut wire = Vec::new();
        for m in &msgs {
            write_frame(&mut wire, m).expect("write");
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expected in &msgs {
            prop_assert_eq!(&read_frame(&mut cursor).expect("read"), expected);
        }
    }

    /// Truncation is always detected, never mis-decoded.
    #[test]
    fn codec_rejects_truncation(msg in arb_message(), cut in 1usize..16) {
        let enc = encode(&msg);
        if enc.len() > cut {
            let truncated = &enc[..enc.len() - cut];
            // Either an error, or (never) a different message.
            if let Ok(m) = decode(truncated) {
                prop_assert_eq!(m, msg); // unreachable in practice
            }
        }
    }

    /// `SessionHello` carries three flags (offer dedup, offer compression,
    /// incremental) as its last three bytes, one byte each, 0 or 1. Any
    /// other value in any of them is a typed error: a byte that merely
    /// "looks true" must not open an incremental session.
    #[test]
    fn hello_flag_bytes_other_than_0_and_1_are_typed_errors(
        hello in arb_hello(),
        which in 0usize..3,
        value in 2u8..=255,
    ) {
        let mut enc = encode(&hello);
        prop_assert_eq!(enc.len(), 1 + 8 + 4 + 3);
        prop_assert_eq!(hello.wire_size(), simnet::proto::FRAME_OVERHEAD + enc.len() as u64 - 1);
        prop_assert_eq!(&decode(&enc).expect("decode"), &hello);
        let at = enc.len() - 3 + which;
        prop_assert!(enc[at] <= 1);
        enc[at] = value;
        prop_assert!(matches!(decode(&enc), Err(CodecError::Malformed(_))));
    }

    /// A `BlockRefs` frame is two runs of equal length, and nothing else
    /// decodes: a frame whose fingerprint run is longer or shorter than
    /// its block run is a typed error however well-formed each run is,
    /// and so is every frame cut short.
    #[test]
    fn block_refs_of_unequal_lengths_or_cut_short_are_typed_errors(
        refs in arb_block_refs(),
        extra in prop::collection::vec(any::<u64>(), 1..4),
        drop_one in any::<bool>(),
        cut in 1usize..64,
    ) {
        let enc = encode(&refs);
        prop_assert_eq!(&decode(&enc).expect("decode"), &refs);
        prop_assert!(decode(&enc[..enc.len().saturating_sub(cut)]).is_err());
        let MigMessage::BlockRefs { blocks, mut fingerprints } = refs else {
            unreachable!("arb_block_refs makes BlockRefs");
        };
        if drop_one && !fingerprints.is_empty() {
            fingerprints.pop();
        } else {
            fingerprints.extend(extra);
        }
        let uneven = encode(&MigMessage::BlockRefs { blocks, fingerprints });
        prop_assert!(matches!(decode(&uneven), Err(CodecError::Malformed(_))));
        check_frame_doors(uneven)?;
    }

    /// A `CompressedPages` frame with bits flipped anywhere — tag, index
    /// run, lengths or the page stream itself — is a typed error or a
    /// message whose every allocation the frame's own length paid for;
    /// and whatever stream survives decodes to a typed error or to
    /// exactly `pages × page size` bytes. Never a panic.
    #[test]
    fn compressed_pages_reject_bit_flips(
        raw in arb_batch(),
        flips in prop::collection::vec(any::<usize>(), 1..4),
    ) {
        let enc = encode(&MigMessage::CompressedPages {
            pages: (0..(raw.len() / UNIT) as u64).collect(),
            raw_len: raw.len() as u64,
            payload: Bytes::from(compress_blocks(&raw, UNIT)),
        });
        let enc = flipped(enc, &flips);
        if let Ok(MigMessage::CompressedPages { pages, payload, .. }) = decode(&enc) {
            prop_assert!(pages.len() * 8 + payload.len() <= enc.len());
            check_batch_decode(&payload, pages.len(), UNIT)?;
        }
    }

    /// Max-min allocations never exceed capacity or individual demand,
    /// and are work-conserving (full capacity used when demand suffices).
    #[test]
    fn max_min_invariants(
        capacity in 0.0f64..1_000.0,
        demands in prop::collection::vec(0.0f64..500.0, 0..8),
    ) {
        let alloc = max_min_share(capacity, &demands);
        let total: f64 = alloc.iter().sum();
        prop_assert!(total <= capacity + 1e-6);
        let total_demand: f64 = demands.iter().sum();
        for (a, d) in alloc.iter().zip(&demands) {
            prop_assert!(*a <= d + 1e-9);
            prop_assert!(*a >= 0.0);
        }
        if total_demand >= capacity {
            prop_assert!((total - capacity).abs() < 1e-6, "not work-conserving");
        } else {
            prop_assert!((total - total_demand).abs() < 1e-6);
        }
    }

    /// More capacity never hurts anyone: raising the pool capacity leaves
    /// every individual allocation the same or larger (max-min fairness
    /// is monotone in capacity).
    #[test]
    fn max_min_monotone_in_capacity(
        capacity in 0.0f64..1_000.0,
        extra in 0.0f64..1_000.0,
        demands in prop::collection::vec(0.0f64..500.0, 0..8),
    ) {
        let lo = max_min_share(capacity, &demands);
        let hi = max_min_share(capacity + extra, &demands);
        for (i, (a, b)) in lo.iter().zip(&hi).enumerate() {
            prop_assert!(
                *b >= a - 1e-6,
                "demand {i} shrank from {a} to {b} when capacity grew"
            );
        }
    }

    /// Fairness is order-independent: permuting the demand vector permutes
    /// the allocations identically (no flow is favoured by its position).
    /// Rotations and reversal generate the permutation group's evidence.
    #[test]
    fn max_min_order_independent(
        capacity in 0.0f64..1_000.0,
        demands in prop::collection::vec(0.0f64..500.0, 1..8),
        rot in 0usize..8,
        rev in any::<bool>(),
    ) {
        let base = max_min_share(capacity, &demands);
        let rot = rot % demands.len();
        let mut permuted = demands.clone();
        permuted.rotate_left(rot);
        if rev {
            permuted.reverse();
        }
        let mut expected = base.clone();
        expected.rotate_left(rot);
        if rev {
            expected.reverse();
        }
        let got = max_min_share(capacity, &permuted);
        for (i, (e, g)) in expected.iter().zip(&got).enumerate() {
            prop_assert!(
                (e - g).abs() < 1e-6,
                "slot {i}: permuted allocation {g} != expected {e}"
            );
        }
    }

    /// Degenerate inputs never panic and never manufacture capacity: the
    /// no-panic-zone contract of the orchestrator's hot loop.
    #[test]
    fn max_min_total_on_degenerate_inputs(
        capacity in prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            -1_000.0f64..1_000.0,
        ],
        demands in prop::collection::vec(
            prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                -500.0f64..500.0,
            ],
            0..6,
        ),
    ) {
        let alloc = max_min_share(capacity, &demands);
        prop_assert_eq!(alloc.len(), demands.len());
        for (a, d) in alloc.iter().zip(&demands) {
            prop_assert!(*a >= 0.0, "negative allocation {a}");
            prop_assert!(!a.is_nan(), "NaN allocation for demand {d}");
        }
        if capacity.is_finite() {
            let total: f64 = alloc.iter().sum();
            prop_assert!(total <= capacity.max(0.0) + 1e-6);
        }
    }

    /// Seek-aware sharing degrades gracefully: allocations are bounded by
    /// demands and by the zero-interference capacity.
    #[test]
    fn seek_aware_invariants(
        c0 in 1.0f64..500.0,
        penalty in 0.0f64..3.0,
        w in 0.0f64..400.0,
        m in 0.0f64..400.0,
    ) {
        let (ws, ms) = seek_aware_share(c0, penalty, w, m);
        prop_assert!(ws >= -1e-9 && ms >= -1e-9);
        prop_assert!(ws <= w + 1e-6);
        prop_assert!(ms <= m + 1e-6);
        // Together they never exceed the uncontended capacity.
        prop_assert!(ws + ms <= c0 + 1e-6);
    }

    /// A token bucket never releases more than rate*time + burst bytes.
    #[test]
    fn token_bucket_conservation(
        rate in 1.0f64..1e6,
        burst in 1.0f64..1e6,
        requests in prop::collection::vec((0u64..10_000, 0u64..1_000_000), 1..50),
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut granted = 0u64;
        let mut now = SimTime::ZERO;
        let mut latest = 0u64;
        for (dt_us, bytes) in requests {
            now += SimDuration::from_micros(dt_us);
            latest = latest.max(now.as_nanos());
            if tb.try_consume(bytes, now) {
                granted += bytes;
            }
        }
        let elapsed_secs = latest as f64 / 1e9;
        prop_assert!(
            granted as f64 <= rate * elapsed_secs + burst + 1.0,
            "granted {granted} exceeds rate*t+burst"
        );
    }

    /// Seeded chaos is a pure function of its seed: two plans built with
    /// one seed are identical, and two identical runs under that plan
    /// observe the identical fault sequence (the same frames drop).
    #[test]
    fn seeded_chaos_same_seed_same_fault_sequence(
        seed in any::<u64>(),
        messages in 1u64..200,
        drop_permille in 0u32..300,
    ) {
        let plan = FaultPlan::seeded_chaos(seed, 1, messages, drop_permille, 0, Duration::ZERO);
        prop_assert_eq!(
            &plan,
            &FaultPlan::seeded_chaos(seed, 1, messages, drop_permille, 0, Duration::ZERO)
        );
        // Replay the same send sequence twice; the delivered subsequence
        // (which frames survived the lossy link) must match exactly.
        let mut runs: Vec<Vec<u64>> = Vec::new();
        for _ in 0..2 {
            let (a, b) = duplex();
            let (a, b) = faulty_pair(a, b, &plan, 0);
            for i in 0..messages {
                a.send(MigMessage::PullRequest { block: i }).expect("lossy send still succeeds");
            }
            let mut got = Vec::new();
            loop {
                match b.try_recv() {
                    Ok(MigMessage::PullRequest { block }) => got.push(block),
                    Ok(other) => prop_assert!(false, "unexpected message {other:?}"),
                    Err(TransportError::Empty) => break,
                    Err(e) => prop_assert!(false, "unexpected error {e:?}"),
                }
            }
            runs.push(got);
        }
        prop_assert_eq!(&runs[0], &runs[1], "one seed, one delivery sequence");
        let dropped = messages - runs[0].len() as u64;
        prop_assert_eq!(dropped as usize, plan.faults.len(), "every armed drop fires exactly once");
    }
}
