//! The migration wire protocol.
//!
//! Every byte that crosses the source→destination link is carried by a
//! [`MigMessage`]. One table (`wire_messages!` below) describes each
//! message once — tag, fields in wire order, [traffic
//! category](Category) — and the enum, its category and the
//! [`codec`](crate::codec)'s encoder and decoder are generated from it.
//! Beside it, every message knows its [`wire size`](MigMessage::wire_size):
//! the "amount of migrated data" rows of Tables I and II are sums over a
//! [`TransferLedger`] fed from these sizes.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::codec::{CodecError, Reader, Writer};

/// Fixed per-message framing overhead (type tag, lengths, checksum) —
/// a deliberate, simple stand-in for the prototype's TCP record framing.
pub const FRAME_OVERHEAD: u64 = 16;

/// Wire payload of a [`MigMessage::BlockRef`]: block index plus
/// fingerprint, the 16 bytes a dedup hit costs instead of a full block.
pub const BLOCK_REF_WIRE: u64 = 16;

/// Traffic categories for byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Disk blocks sent during pre-copy iterations.
    DiskPrecopy,
    /// Disk blocks pushed by the source during post-copy.
    DiskPush,
    /// Disk blocks pulled on demand during post-copy (and the pull
    /// requests themselves).
    DiskPull,
    /// Memory pages (all pre-copy rounds plus the freeze-phase remainder).
    Memory,
    /// The block-bitmap transferred in freeze-and-copy.
    Bitmap,
    /// CPU context.
    Cpu,
    /// Handshakes, phase transitions, acknowledgements.
    Control,
}

/// All traffic categories, for iteration in reports.
pub const ALL_CATEGORIES: [Category; 7] = [
    Category::DiskPrecopy,
    Category::DiskPush,
    Category::DiskPull,
    Category::Memory,
    Category::Bitmap,
    Category::Cpu,
    Category::Control,
];

/// The Rust type a field of wire kind `$kind` holds (see
/// [`wire_messages!`]).
macro_rules! wire_type {
    (u32) => { u32 };
    (u64) => { u64 };
    (flag) => { bool };
    (phase) => { ResumePhase };
    (u64s) => { Vec<u64> };
    (bytes) => { Bytes };
    (tail) => { Bytes };
    (opt_tail) => { Option<Bytes> };
}

/// What a field of wire kind `$kind` adds to a message's head beyond the
/// fixed slack of [`MigMessage::head_size_hint`]: its run, when the run is
/// in the head.
macro_rules! head_hint {
    (u64s, $v:ident) => {
        $v.len() * 8
    };
    (bytes, $v:ident) => {
        $v.len()
    };
    ($kind:ident, $v:ident) => {
        0
    };
}

/// The wire protocol's one description. Each row is a variant: its docs,
/// its tag byte, its fields in wire order, an optional `check` a decoded
/// message must pass, and its [`Category`] as an expression over its
/// fields. A field's wire kind fixes both its type and its bytes, all
/// little-endian:
///
/// * `u32`, `u64` — the integer;
/// * `flag` — a `bool` as one byte, 0 or 1, anything else refused;
/// * `phase` — a [`ResumePhase`] as its one [`ResumePhase::to_u8`] byte;
/// * `u64s` — a `Vec<u64>`: its length as a `u64`, then the words;
/// * `bytes` — a [`Bytes`]: its length as a `u64`, then the run;
/// * `tail` — a `bytes` that is the message's last field: the run stays
///   out of the head, for the frame writer to send where it lies;
/// * `opt_tail` — an `Option<Bytes>` tail: a `flag` byte for `Some`,
///   then, when present, the `tail`.
///
/// The table generates the enum, `category`, and the codec's
/// `encode_head`, `decode_from` and `head_size_hint`. A decoded run is
/// bounded by [`MAX_FRAME`](crate::codec::MAX_FRAME) and a frame with
/// bytes after its last field is refused. A tag used twice makes an
/// unreachable decode arm, which the lint gate refuses.
/// [`MigMessage::wire_size`] is not generated: it is the booking model,
/// not the encoded length.
macro_rules! wire_messages {
    (
        $(#[$meta:meta])*
        pub enum $Msg:ident {
            $(
                $(#[$doc:meta])*
                $Variant:ident = $tag:literal $({
                    $($(#[$fdoc:meta])* $field:ident: $kind:ident,)*
                })?
                $(check($ok:expr, $why:literal $(, $arg:expr)*))?
                => $category:expr,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $Msg {
            $(
                $(#[$doc])*
                $Variant $({ $($(#[$fdoc])* $field: wire_type!($kind),)* })?,
            )*
        }

        impl $Msg {
            /// Traffic category the message is accounted under.
            #[allow(unused_variables)]
            pub fn category(&self) -> Category {
                match self {
                    $(Self::$Variant $({ $($field),* })? => $category,)*
                }
            }

            /// Close-enough capacity estimate for the encoded head —
            /// everything but the last byte run — so the head is one
            /// allocation. The fixed slack covers the tag and every length.
            #[allow(unused_variables)]
            pub(crate) fn head_size_hint(&self) -> usize {
                64 + match self {
                    $(Self::$Variant $({ $($field),* })? => {
                        0 $($(+ head_hint!($kind, $field))*)?
                    })*
                }
            }

            /// Encode the tag and every field into `w`, which keeps the
            /// last byte run (if any) out of the head.
            pub(crate) fn encode_head<'a>(&'a self, w: &mut Writer<'a>) {
                match self {
                    $(Self::$Variant $({ $($field),* })? => {
                        w.u8($tag);
                        $($(w.$kind($field);)*)?
                    })*
                }
            }

            /// Decode one message, the whole of `r`.
            pub(crate) fn decode_from(mut r: Reader<'_>) -> Result<Self, CodecError> {
                let msg = match r.u8()? {
                    $($tag => {
                        $($(let $field = r.$kind()?;)*)?
                        $(if !$ok {
                            return Err(CodecError::Malformed(format!($why $(, $arg)*)));
                        })?
                        Self::$Variant $({ $($field),* })?
                    })*
                    other => return Err(CodecError::Malformed(format!("unknown tag {other}"))),
                };
                r.finish()?;
                Ok(msg)
            }
        }
    };
}

wire_messages! {
    /// A migration protocol message.
    ///
    /// Block/page payloads are optional: live mode ships real bytes in
    /// `payload`, simulated mode ships `None` and relies on `payload_len` for
    /// accounting. `payload_len` is authoritative for wire sizing in both
    /// modes.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum MigMessage {
        /// Ask the destination to provision a VBD of the given geometry.
        PrepareVbd = 1 {
            /// Block size in bytes.
            block_size: u32,
            /// Capacity in blocks.
            num_blocks: u64,
        } => Category::Control,
        /// Destination is ready to receive.
        PrepareAck = 2 => Category::Control,
        /// A batch of disk blocks (pre-copy traffic).
        DiskBlocks = 3 {
            /// Block indices, ascending.
            blocks: u64s,
            /// Total payload bytes across the batch.
            payload_len: u64,
            /// Live-mode contents, concatenated in index order.
            payload: opt_tail,
        } => Category::DiskPrecopy,
        /// A dedup reference instead of a full block: "you already hold
        /// content with this fingerprint — copy it to `block`". Sent only
        /// on a session that negotiated dedup, for content the destination
        /// acknowledged (its [`MigMessage::ContentSummary`]) or that this
        /// session already shipped. The destination verifies the resident
        /// content by re-hash before reuse and answers
        /// [`MigMessage::BlockRefMiss`] when it cannot prove a match, so a
        /// reference never weakens bit-identity.
        BlockRef = 16 {
            /// Destination block to materialize.
            block: u64,
            /// Content fingerprint (`vdisk::content::hash_block`).
            fingerprint: u64,
        } => Category::DiskPrecopy,
        /// Many [`MigMessage::BlockRef`]s in one frame: block `blocks[i]` is
        /// to hold the content `fingerprints[i]` names. The live source sends
        /// references this way, after the full blocks they may name; each
        /// resolves, or bounces as a [`MigMessage::BlockRefMiss`], exactly as
        /// a lone reference does. Sized [`BLOCK_REF_WIRE`] a reference.
        BlockRefs = 27 {
            /// Destination blocks to materialize.
            blocks: u64s,
            /// Content fingerprint of each block, same order and length.
            fingerprints: u64s,
        } check(
            blocks.len() == fingerprints.len(),
            "{} references with {} fingerprints", blocks.len(), fingerprints.len()
        ) => Category::DiskPrecopy,
        /// Destination → source: a [`MigMessage::BlockRef`] could not be
        /// resolved against resident content (evicted, never applied, or a
        /// fingerprint mismatch on verification). The source falls back to
        /// a full `DiskBlocks` send for this block.
        BlockRefMiss = 17 {
            /// The unresolved block.
            block: u64,
        } // A miss is a control NAK; the resend it provokes carries the
          // data bytes.
        => Category::Control,
        /// Destination → source after a dedup-negotiated handshake: the
        /// distinct fingerprints of the resident image, seeding the
        /// source's view of what a reference can reach. Re-sent on every
        /// reconnect — a resumed session must re-validate, never trust,
        /// its previous view (DESIGN.md §15).
        ContentSummary = 18 {
            /// Distinct resident fingerprints, ascending.
            fingerprints: u64s,
        } => Category::Control,
        /// A batch of disk blocks whose payload is one LZ stream over the
        /// blocks in order (`simnet::codec::lz`): a block's matches may reach
        /// into the blocks before it, never outside the message. Used for
        /// residual full-block sends on a session that negotiated
        /// compression. `raw_len` is the uncompressed total,
        /// `blocks.len() × block size`, kept for `wire.bytes_raw` accounting.
        CompressedBlocks = 19 {
            /// Block indices, ascending.
            blocks: u64s,
            /// Uncompressed payload bytes across the batch.
            raw_len: u64,
            /// The batch's LZ stream.
            payload: tail,
        } => Category::DiskPrecopy,
        /// A batch of memory pages.
        MemPages = 4 {
            /// Page indices, ascending.
            pages: u64s,
            /// Total payload bytes across the batch.
            payload_len: u64,
            /// Live-mode contents, concatenated in index order.
            payload: opt_tail,
        } => Category::Memory,
        /// A batch of memory pages whose payload is one LZ stream over the
        /// pages in order — the `simnet::codec::lz` stream a
        /// [`MigMessage::CompressedBlocks`] carries. Sent in place of
        /// [`MigMessage::MemPages`] on a session that negotiated compression,
        /// when the stream comes out smaller. Zero or constant pages need no
        /// message of their own: a run is an offset-1 match, one stream byte
        /// per 255 of it, so 128 zero 4 KiB pages are about 2 KiB.
        CompressedPages = 26 {
            /// Page indices, ascending.
            pages: u64s,
            /// Uncompressed payload bytes across the batch.
            raw_len: u64,
            /// The batch's LZ stream.
            payload: tail,
        } => Category::Memory,
        /// The CPU context, sent while the VM is suspended.
        CpuState = 5 {
            /// Context size in bytes.
            payload_len: u64,
            /// Live-mode contents.
            payload: opt_tail,
        } => Category::Cpu,
        /// The block-bitmap of unsynchronized blocks (freeze-and-copy phase).
        Bitmap = 6 {
            /// Encoded bitmap (see `block_bitmap::ser`). Always materialized:
            /// its size is part of downtime in both modes.
            encoded: tail,
        } => Category::Bitmap,
        /// Source has suspended the VM (start of downtime).
        Suspended = 7 => Category::Control,
        /// Destination has resumed the VM (end of downtime).
        Resumed = 8 => Category::Control,
        /// Destination asks for one block it needs now (post-copy pull).
        PullRequest = 9 {
            /// The block a guest read is waiting on.
            block: u64,
        } => Category::DiskPull,
        /// One block sent during post-copy (pushed, or answering a pull).
        PostCopyBlock = 10 {
            /// Block index.
            block: u64,
            /// `true` when this answers a [`MigMessage::PullRequest`].
            pulled: flag,
            /// Payload size in bytes.
            payload_len: u64,
            /// Live-mode contents.
            payload: opt_tail,
        } => if *pulled { Category::DiskPull } else { Category::DiskPush },
        /// Source has pushed every block marked in its bitmap.
        PushComplete = 11 => Category::Control,
        /// Destination confirms full synchronization; source may be retired.
        MigrationComplete = 12 => Category::Control,
        /// Source acknowledges [`MigMessage::MigrationComplete`]; the
        /// destination may drop the link. Without this ack a lost completion
        /// message would strand the source in post-copy with no peer.
        CompleteAck = 13 => Category::Control,
        /// Source → destination after the last batch of a pre-copy
        /// iteration: "echo this once everything before it is applied". The
        /// link delivers in order, so the [`MigMessage::BarrierAck`] proves
        /// the destination holds the whole iteration and that every
        /// [`MigMessage::BlockRefMiss`] it provoked is already on its way
        /// back — the source ends the iteration on the destination's clock,
        /// not its own, and never suspends the guest into a backlog.
        Barrier = 24 => Category::Control,
        /// Destination's echo of a [`MigMessage::Barrier`].
        BarrierAck = 25 => Category::Control,
        /// First message on every (re)connection: identifies the migration
        /// session and the connection attempt, so a destination can tell a
        /// resumed source from a stranger.
        SessionHello = 14 {
            /// Random id chosen by the source at migration start.
            session_id: u64,
            /// 0 for the initial connection, incremented per reconnect.
            attempt: u32,
            /// Source offers content-addressed dedup for this session.
            dedup: flag,
            /// Source offers compressed residual block sends.
            compress: flag,
            /// The source ships only the blocks of an inherited block-bitmap
            /// (§V incremental migration): a previous hop left this image at
            /// the destination, and whatever fingerprints it left with it are
            /// all the destination summarises — it hashes nothing to answer.
            incremental: flag,
        } => Category::Control,
        /// Destination → peer holder: ask for one block by content identity
        /// (multi-source fetch). The peer serves the block only when it can
        /// prove it still holds content matching `fingerprint` at
        /// `generation`; anything else answers [`MigMessage::BlockMiss`], so
        /// a stale directory entry degrades to a miss, never to wrong bytes.
        BlockRequest = 20 {
            /// Destination block to fetch.
            block: u64,
            /// Expected content fingerprint (`vdisk::content::hash_block`).
            fingerprint: u64,
            /// Replica-table generation the fingerprint was recorded at.
            generation: u64,
        } // Peer fetches are on-demand traffic: the request and the data
          // it provokes account like a post-copy pull.
        => Category::DiskPull,
        /// Peer holder → destination: the content answering a
        /// [`MigMessage::BlockRequest`]. The destination re-verifies the
        /// payload hash against the requested fingerprint before applying.
        BlockData = 21 {
            /// Block index this content materializes.
            block: u64,
            /// Generation the peer holds the block at.
            generation: u64,
            /// Payload size in bytes.
            payload_len: u64,
            /// Live-mode contents.
            payload: opt_tail,
        } => Category::DiskPull,
        /// Peer holder → destination: a [`MigMessage::BlockRequest`] could
        /// not be served (generation moved on, content evicted, or a
        /// fingerprint mismatch). The planner re-routes the block to the
        /// source or another holder.
        BlockMiss = 22 {
            /// The unserved block.
            block: u64,
        } => Category::Control,
        /// Source → destination at freeze time: the content fingerprints of
        /// the frozen bitmap's blocks. The guest is suspended when this is
        /// built, so the fingerprints stay valid for the whole post-copy
        /// phase — they are the verification anchors a destination needs to
        /// fetch still-owed blocks from *peer holders* should the source die
        /// with its reconnect budget exhausted (multi-source failover).
        BlockManifest = 23 {
            /// Block indices, ascending (the frozen bitmap's set bits).
            blocks: u64s,
            /// `vdisk::content::hash_block` of each block, same order.
            fingerprints: u64s,
        } // Freeze-phase metadata about blocks, like the bitmap it rides
          // alongside.
        => Category::Bitmap,
        /// Destination's reply to a [`MigMessage::SessionHello`]: where it
        /// stands, so the source retransmits *only* what was lost — the
        /// paper's incremental-migration bitmap reused as crash recovery.
        ResumeFrom = 15 {
            /// Destination protocol phase (see [`ResumePhase`]).
            phase: phase,
            /// Destination accepts dedup (both sides must agree; a session
            /// is dedup-enabled only when offer and accept are both true).
            dedup: flag,
            /// Destination accepts compressed block sends.
            compress: flag,
            /// Encoded block-bitmap. During pre-copy and freeze: blocks the
            /// destination has RECEIVED. During post-copy: blocks it still
            /// NEEDS (its transferred-block bitmap).
            disk_bitmap: bytes,
            /// Encoded page bitmap of RECEIVED memory pages (empty once the
            /// guest has resumed: memory is complete by then).
            mem_bitmap: tail,
        } => Category::Bitmap,
    }
}

/// Destination protocol phase reported in [`MigMessage::ResumeFrom`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResumePhase {
    /// Nothing received yet (initial connection).
    #[default]
    AwaitPrepare,
    /// Receiving pre-copy disk blocks and memory pages.
    Precopy,
    /// `Suspended` seen; waiting for the freeze payloads (tail pages, CPU
    /// context, block-bitmap).
    Frozen,
    /// Guest resumed on the destination; post-copy in progress.
    PostCopy,
}

impl ResumePhase {
    /// Wire encoding.
    pub fn to_u8(self) -> u8 {
        match self {
            Self::AwaitPrepare => 0,
            Self::Precopy => 1,
            Self::Frozen => 2,
            Self::PostCopy => 3,
        }
    }

    /// Decode; `None` for unknown values.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(Self::AwaitPrepare),
            1 => Some(Self::Precopy),
            2 => Some(Self::Frozen),
            3 => Some(Self::PostCopy),
            _ => None,
        }
    }
}

impl MigMessage {
    /// Size the message is booked at on the wire: [`FRAME_OVERHEAD`]
    /// plus its fields, `payload_len` standing in for a payload a
    /// simulated message does not carry. A booking model, not the encoded
    /// length; for a message that carries its payloads the two differ by
    /// one constant per variant.
    pub fn wire_size(&self) -> u64 {
        FRAME_OVERHEAD
            + match self {
                Self::PrepareVbd { .. } => 12,
                Self::PrepareAck | Self::Suspended | Self::Resumed => 0,
                Self::PushComplete | Self::MigrationComplete => 0,
                Self::DiskBlocks {
                    blocks,
                    payload_len,
                    ..
                } => 8 * blocks.len() as u64 + payload_len,
                Self::BlockRef { .. } => BLOCK_REF_WIRE,
                Self::BlockRefs { blocks, .. } => BLOCK_REF_WIRE * blocks.len() as u64,
                Self::BlockRefMiss { .. } => 8,
                Self::ContentSummary { fingerprints } => 8 * fingerprints.len() as u64,
                Self::CompressedBlocks {
                    blocks, payload, ..
                } => 8 * blocks.len() as u64 + payload.len() as u64,
                Self::MemPages {
                    pages, payload_len, ..
                } => 8 * pages.len() as u64 + payload_len,
                Self::CompressedPages { pages, payload, .. } => {
                    8 * pages.len() as u64 + payload.len() as u64
                }
                Self::CpuState { payload_len, .. } => *payload_len,
                Self::Bitmap { encoded } => encoded.len() as u64,
                Self::PullRequest { .. } => 8,
                Self::BlockRequest { .. } => 24,
                Self::BlockData { payload_len, .. } => 16 + payload_len,
                Self::BlockMiss { .. } => 8,
                Self::BlockManifest {
                    blocks,
                    fingerprints,
                } => 8 * (blocks.len() + fingerprints.len()) as u64,
                Self::PostCopyBlock { payload_len, .. } => 8 + 1 + payload_len,
                Self::CompleteAck | Self::Barrier | Self::BarrierAck => 0,
                Self::SessionHello { .. } => 15,
                Self::ResumeFrom {
                    disk_bitmap,
                    mem_bitmap,
                    ..
                } => 3 + disk_bitmap.len() as u64 + mem_bitmap.len() as u64,
            }
    }
}

/// Dedup/compression wire accounting for one migration: what the data
/// plane *would* have sent block-for-block (`bytes_raw`) against what
/// actually crossed the link (`bytes_sent`), journaled in telemetry as
/// `wire.bytes_raw` / `wire.bytes_sent` / `wire.blocks_deduped` /
/// `wire.blocks_compressed`. Memory pages are kept in their own
/// `page_*` fields (`wire.page_*` counters): the block fields feed
/// ratios over blocks and never see page traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireStats {
    /// Block payload bytes before dedup/compression (full framing).
    pub bytes_raw: u64,
    /// Block payload bytes actually sent (refs + compressed frames).
    pub bytes_sent: u64,
    /// Blocks shipped as a 16-byte reference ([`MigMessage::BlockRefs`]).
    pub blocks_deduped: u64,
    /// Blocks whose payload went out smaller than raw.
    pub blocks_compressed: u64,
    /// Page payload bytes before compression, retransmissions included.
    pub page_bytes_raw: u64,
    /// Page payload bytes actually sent (raw or compressed frames).
    pub page_bytes_sent: u64,
    /// Pages whose batch went out as [`MigMessage::CompressedPages`].
    pub pages_compressed: u64,
}

impl WireStats {
    /// Block bytes the content-aware path kept off the wire (pages are
    /// not included; see [`WireStats::page_reduction_pct`]).
    pub fn saved(&self) -> u64 {
        self.bytes_raw.saturating_sub(self.bytes_sent)
    }

    /// Percentage reduction of block bytes-on-wire (0 when nothing was
    /// sent). Blocks only.
    pub fn reduction_pct(&self) -> f64 {
        pct_off(self.bytes_raw, self.bytes_sent)
    }

    /// Percentage reduction of page bytes-on-wire (0 when nothing was
    /// sent).
    pub fn page_reduction_pct(&self) -> f64 {
        pct_off(self.page_bytes_raw, self.page_bytes_sent)
    }

    /// Fold another migration's accounting into this one.
    pub fn merge(&mut self, other: &WireStats) {
        self.bytes_raw += other.bytes_raw;
        self.bytes_sent += other.bytes_sent;
        self.blocks_deduped += other.blocks_deduped;
        self.blocks_compressed += other.blocks_compressed;
        self.page_bytes_raw += other.page_bytes_raw;
        self.page_bytes_sent += other.page_bytes_sent;
        self.pages_compressed += other.pages_compressed;
    }

    /// Add every field to its `wire.*` counter of `m`.
    pub fn publish(&self, m: &telemetry::Registry) {
        for (name, value) in [
            ("wire.bytes_raw", self.bytes_raw),
            ("wire.bytes_sent", self.bytes_sent),
            ("wire.blocks_deduped", self.blocks_deduped),
            ("wire.blocks_compressed", self.blocks_compressed),
            ("wire.page_bytes_raw", self.page_bytes_raw),
            ("wire.page_bytes_sent", self.page_bytes_sent),
            ("wire.pages_compressed", self.pages_compressed),
        ] {
            m.counter(name).add(value);
        }
    }
}

fn pct_off(raw: u64, sent: u64) -> f64 {
    if raw == 0 {
        0.0
    } else {
        100.0 * raw.saturating_sub(sent) as f64 / raw as f64
    }
}

/// Per-category byte counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransferLedger {
    disk_precopy: u64,
    disk_push: u64,
    disk_pull: u64,
    memory: u64,
    bitmap: u64,
    cpu: u64,
    control: u64,
}

impl TransferLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` under `cat`.
    pub fn add(&mut self, cat: Category, bytes: u64) {
        *self.slot(cat) += bytes;
    }

    /// Record a message by its own size and category.
    pub fn record(&mut self, msg: &MigMessage) {
        self.add(msg.category(), msg.wire_size());
    }

    /// Bytes recorded under `cat`.
    pub fn get(&self, cat: Category) -> u64 {
        match cat {
            Category::DiskPrecopy => self.disk_precopy,
            Category::DiskPush => self.disk_push,
            Category::DiskPull => self.disk_pull,
            Category::Memory => self.memory,
            Category::Bitmap => self.bitmap,
            Category::Cpu => self.cpu,
            Category::Control => self.control,
        }
    }

    fn slot(&mut self, cat: Category) -> &mut u64 {
        match cat {
            Category::DiskPrecopy => &mut self.disk_precopy,
            Category::DiskPush => &mut self.disk_push,
            Category::DiskPull => &mut self.disk_pull,
            Category::Memory => &mut self.memory,
            Category::Bitmap => &mut self.bitmap,
            Category::Cpu => &mut self.cpu,
            Category::Control => &mut self.control,
        }
    }

    /// All disk bytes (pre-copy + push + pull).
    pub fn disk_total(&self) -> u64 {
        self.disk_precopy + self.disk_push + self.disk_pull
    }

    /// Grand total across categories.
    pub fn total(&self) -> u64 {
        ALL_CATEGORIES.iter().map(|&c| self.get(c)).sum()
    }

    /// Merge another ledger into this one.
    pub fn merge(&mut self, other: &TransferLedger) {
        for c in ALL_CATEGORIES {
            self.add(c, other.get(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_scale_with_content() {
        let empty = MigMessage::PrepareAck;
        assert_eq!(empty.wire_size(), FRAME_OVERHEAD);

        let one_block = MigMessage::DiskBlocks {
            blocks: vec![7],
            payload_len: 4096,
            payload: None,
        };
        assert_eq!(one_block.wire_size(), FRAME_OVERHEAD + 8 + 4096);

        let batch = MigMessage::DiskBlocks {
            blocks: (0..10).collect(),
            payload_len: 10 * 4096,
            payload: None,
        };
        assert_eq!(batch.wire_size(), FRAME_OVERHEAD + 80 + 40_960);

        // Compressed page batches are sized by their frames, not by what
        // they decode to.
        let pages = MigMessage::CompressedPages {
            pages: vec![1, 2, 3],
            raw_len: 3 * 4096,
            payload: Bytes::from(vec![0u8; 30]),
        };
        assert_eq!(pages.wire_size(), FRAME_OVERHEAD + 24 + 30);
        assert_eq!(pages.category(), Category::Memory);

        // A frame of references costs what the simulator books for a
        // step's references: one frame, 16 bytes a reference.
        let refs = MigMessage::BlockRefs {
            blocks: vec![4, 9, 2],
            fingerprints: vec![7, 7, 1],
        };
        assert_eq!(refs.wire_size(), FRAME_OVERHEAD + 3 * BLOCK_REF_WIRE);
        assert_eq!(refs.category(), Category::DiskPrecopy);
    }

    #[test]
    fn categories_assigned_correctly() {
        assert_eq!(
            MigMessage::PullRequest { block: 1 }.category(),
            Category::DiskPull
        );
        let pushed = MigMessage::PostCopyBlock {
            block: 1,
            pulled: false,
            payload_len: 4096,
            payload: None,
        };
        assert_eq!(pushed.category(), Category::DiskPush);
        let pulled = MigMessage::PostCopyBlock {
            block: 1,
            pulled: true,
            payload_len: 4096,
            payload: None,
        };
        assert_eq!(pulled.category(), Category::DiskPull);
        assert_eq!(MigMessage::Suspended.category(), Category::Control);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut a = TransferLedger::new();
        a.record(&MigMessage::DiskBlocks {
            blocks: vec![0, 1],
            payload_len: 8192,
            payload: None,
        });
        a.record(&MigMessage::PullRequest { block: 3 });
        assert_eq!(a.get(Category::DiskPrecopy), FRAME_OVERHEAD + 16 + 8192);
        assert_eq!(a.get(Category::DiskPull), FRAME_OVERHEAD + 8);
        assert_eq!(a.disk_total(), a.total());

        let mut b = TransferLedger::new();
        b.add(Category::Memory, 100);
        b.merge(&a);
        assert_eq!(b.total(), a.total() + 100);
    }

    #[test]
    fn bitmap_message_sized_by_encoding() {
        use block_bitmap::{ser, DirtyMap, FlatBitmap};
        let mut bm = FlatBitmap::new(10 * 1024 * 1024);
        for i in 0..62 {
            bm.set(i * 1000);
        }
        let msg = MigMessage::Bitmap {
            encoded: Bytes::from(ser::encode(&bm)),
        };
        // 62 dirty blocks on a 40 GB disk: the freeze-phase bitmap is tiny.
        assert!(msg.wire_size() < 1024);
        assert_eq!(msg.category(), Category::Bitmap);
    }
}
