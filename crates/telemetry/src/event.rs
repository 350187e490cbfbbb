//! The typed event taxonomy shared by the simulated and live engines.
//!
//! Every variant models one observable step of the paper's Three-Phase
//! Migration: phase transitions (§IV), pre-copy iteration stats (§IV-B),
//! bitmap snapshot/encoding sizes (§IV-A), transport-level reconnects and
//! injected faults (DESIGN.md §9), and the §III-A post-copy block events —
//! push, pull, drop, and the write-cancellation rule.
//!
//! Shapes are deliberately plain (unit and named-struct variants, `u64`
//! numeric fields) so the vendored serde derive round-trips them through
//! JSONL without attributes.

use serde::{Deserialize, Serialize};

use crate::clock::ClockDomain;

/// Which side of the migration recorded the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The host the VM is migrating away from.
    Source,
    /// The host the VM is migrating to.
    Destination,
}

/// The paper's §IV phase structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Iterative disk pre-copy under the block-bitmap.
    DiskPrecopy,
    /// Xen-style iterative memory pre-copy.
    MemPrecopy,
    /// Freeze-and-copy: the VM is suspended; the span is the downtime.
    Freeze,
    /// Push-and-pull post-copy after the VM resumed on the destination.
    PostCopy,
}

/// What a pre-copy iteration moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resource {
    /// Disk blocks (the block-bitmap's unit).
    Disk,
    /// Guest memory pages.
    Memory,
}

/// An injected transport fault, by kind.
///
/// Mirrors `simnet::fault::FaultKind` without its payloads, so it stays
/// within the journal's serializable shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultLabel {
    /// Connection severed; queued data lost.
    Reset,
    /// Transport wedged for a while, then recovered.
    Stall,
    /// Send reported success but the frame was lost.
    Truncate,
    /// A lossy link dropped the frame in flight; the connection
    /// survived.
    Drop,
}

/// One observable step of a migration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A §IV phase began on `side`.
    PhaseStart {
        /// Recording side.
        side: Side,
        /// Which phase began.
        phase: Phase,
    },
    /// A §IV phase ended on `side`.
    PhaseEnd {
        /// Recording side.
        side: Side,
        /// Which phase ended.
        phase: Phase,
    },
    /// A pre-copy iteration finished.
    Iteration {
        /// Recording side.
        side: Side,
        /// Disk blocks or memory pages.
        resource: Resource,
        /// Zero-based iteration index.
        index: u64,
        /// Units (blocks/pages) shipped this iteration.
        units_sent: u64,
        /// Bytes the iteration's units cost on the wire.
        bytes: u64,
        /// Units dirtied while the iteration ran (the next worklist).
        dirty_at_end: u64,
    },
    /// The frozen bitmap was encoded for the wire (§IV-C ships the bitmap,
    /// never the blocks).
    BitmapEncoded {
        /// Bits set in the encoded bitmap.
        set_bits: u64,
        /// Encoded wire size in bytes.
        encoded_bytes: u64,
    },
    /// The guest was suspended — downtime starts here.
    Suspended {
        /// Recording side.
        side: Side,
    },
    /// The guest resumed — downtime ends here.
    Resumed {
        /// Recording side.
        side: Side,
    },
    /// A protocol thread reconnected after a transport failure.
    Reconnect {
        /// Recording side.
        side: Side,
        /// One-based reconnect attempt number.
        attempt: u64,
    },
    /// The fault plan fired on a send.
    FaultInjected {
        /// Kind of fault injected.
        fault: FaultLabel,
        /// Messages sent on this transport before the fault fired.
        messages_before: u64,
    },
    /// Cumulative bytes a side has put on the wire (ledger total).
    TransportBytes {
        /// Recording side.
        side: Side,
        /// Cumulative bytes sent.
        bytes: u64,
    },
    /// The destination requested a dirty block a guest read touched.
    PullRequested {
        /// Block index.
        block: u64,
    },
    /// A pushed block arrived while still wanted and was applied.
    BlockPushed {
        /// Block index.
        block: u64,
    },
    /// A pulled block arrived while still wanted and was applied.
    BlockPulled {
        /// Block index.
        block: u64,
    },
    /// An arriving block was superseded (bit already clear) and discarded.
    BlockDropped {
        /// Block index.
        block: u64,
    },
    /// §III-A cancellation: a destination guest write to a still-dirty block
    /// cancelled its synchronization outright.
    SyncCancelled {
        /// Block index.
        block: u64,
    },
    /// A cluster migration passed admission control and its stream was
    /// created (orchestrator journal, virtual time).
    MigrationAdmitted {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// VM being moved.
        vm: u64,
        /// Source host.
        src: u64,
        /// Destination host.
        dst: u64,
        /// `true` when the destination held a usable stale replica, so
        /// the first pass ships only the bitmap diff (§V incremental).
        incremental: bool,
        /// Blocks in the first-pass worklist.
        first_pass_blocks: u64,
    },
    /// A §IV phase began for one cluster migration.
    MigrationPhaseStart {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Which phase began.
        phase: Phase,
    },
    /// A §IV phase ended for one cluster migration.
    MigrationPhaseEnd {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Which phase ended.
        phase: Phase,
    },
    /// One pre-copy pass of a cluster migration finished.
    MigrationPass {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Disk blocks or memory pages.
        resource: Resource,
        /// One-based pass number.
        index: u64,
        /// Units (blocks/pages) the pass shipped.
        units_sent: u64,
        /// Units dirtied while it ran (the next pass's worklist).
        dirty_at_end: u64,
    },
    /// §III-A cancellation in a cluster migration: a destination guest
    /// write to a still-owed block cancelled its push.
    MigrationSyncCancelled {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Block index.
        block: u64,
    },
    /// A cluster migration's stream was cut by an injected fault and
    /// spent one retry: it resumes from the block-bitmap, or fails in
    /// place when the retry was past its budget.
    MigrationRetry {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// One-based retry attempt number.
        attempt: u64,
    },
    /// A multi-source fetch plan was computed over an owed worklist
    /// (blockstore data plane).
    FetchPlanned {
        /// Recording side.
        side: Side,
        /// Owed full blocks routed to the migration source.
        source_blocks: u64,
        /// Owed full blocks routed to peer holders.
        peer_blocks: u64,
        /// Owed blocks satisfied by content already resident at the
        /// destination (no bytes move).
        ref_blocks: u64,
        /// Peer holders with at least one assigned block.
        peers: u64,
    },
    /// One peer-fetch session finished (blockstore data plane).
    PeerFetch {
        /// Recording side.
        side: Side,
        /// Peer host the session pulled from.
        peer: u64,
        /// Blocks verified and applied from this peer.
        blocks: u64,
        /// Payload bytes applied from this peer.
        bytes: u64,
    },
    /// The source died with its reconnect budget exhausted and the
    /// destination re-planned against the block directory to complete
    /// the migration from surviving holders.
    SourceFailover {
        /// Recording side.
        side: Side,
        /// Blocks still owed when the source was declared dead.
        owed_blocks: u64,
        /// Surviving holders the re-plan drew from.
        peers: u64,
    },
    /// A dedup session opened: the destination answered the handshake
    /// with a content summary. On an incremental session and on every
    /// reconnect `hashed_blocks` is 0: an incremental session's first
    /// summary is empty, and a reconnect's is what the content index the
    /// destination kept from the last session knew.
    HandshakeSummary {
        /// Recording side.
        side: Side,
        /// Distinct fingerprints in the summary.
        fingerprints: u64,
        /// Blocks read and hashed to build it.
        hashed_blocks: u64,
        /// Blocks whose fingerprint the index a reconnect kept already
        /// held (0 on a session's first handshake).
        cached_blocks: u64,
    },
    /// One worklist pass of the live source decided, batch by batch,
    /// whether LZ paid for itself on this link: a batch is compressed iff
    /// `saved share × link_ps_per_byte > lz_ps_per_raw_byte`.
    CodecDecision {
        /// Recording side.
        side: Side,
        /// Disk blocks or memory pages.
        resource: Resource,
        /// Batches that crossed as LZ frames.
        batches_compressed: u64,
        /// Batches that crossed raw (LZ would not have paid, or the
        /// frames came out no smaller).
        batches_raw: u64,
        /// Raw bytes compressed as timed samples to decide (none on a
        /// free link: it is asked first and never compresses).
        sample_bytes: u64,
        /// What a byte cost on the link at the last decision, in
        /// picoseconds of link time (`u64::MAX`: the transport could not
        /// tell).
        link_ps_per_byte: u64,
        /// The cheapest sample so far for this resource, in picoseconds
        /// of LZ per raw byte (`u64::MAX`: none taken yet).
        lz_ps_per_raw_byte: u64,
    },
    /// The fleet network split into disconnected islands (scenario
    /// timeline, virtual time). Hosts in different islands cannot
    /// exchange migration traffic until a `PartitionHealed`.
    PartitionStarted {
        /// Number of islands the partition produced.
        islands: u64,
    },
    /// The network partition healed; full connectivity restored.
    PartitionHealed {
        /// Migrations that were stranded when the heal arrived.
        stranded: u64,
    },
    /// A host left the fleet (crash or maintenance dwell).
    HostDown {
        /// Host index.
        host: u64,
    },
    /// A host rejoined the fleet.
    HostUp {
        /// Host index.
        host: u64,
    },
    /// A link's bandwidth was degraded (WAN weather, rate clamp).
    LinkDegraded {
        /// One endpoint host.
        a: u64,
        /// Other endpoint host.
        b: u64,
        /// New bandwidth ceiling on the link, bytes/second.
        bandwidth: u64,
    },
    /// A degraded link returned to its configured bandwidth.
    LinkRestored {
        /// One endpoint host.
        a: u64,
        /// Other endpoint host.
        b: u64,
    },
    /// A VM's workload crossed a cycle boundary (scenario workload
    /// phases — Baruchi-style activity cycles).
    WorkloadPhase {
        /// VM index.
        vm: u64,
        /// `true` when the VM entered its low-activity phase.
        low: bool,
    },
    /// A maintenance wave began draining a host: the host is cordoned
    /// (no new inbound migrations) and its residents are evacuated.
    MaintenanceStarted {
        /// Host index.
        host: u64,
        /// Resident VMs queued for evacuation.
        evacuating: u64,
    },
    /// A maintenance dwell finished; the host is back in service.
    MaintenanceEnded {
        /// Host index.
        host: u64,
    },
    /// A partition or host-down stranded an in-flight migration: its
    /// source became unreachable from the destination.
    MigrationStranded {
        /// Orchestrator-wide migration id.
        migration: u64,
    },
    /// A stranded migration re-planned against the block directory and
    /// is now fed by a reachable peer replica holder.
    MigrationPeerFed {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Peer host serving the fresh blocks.
        peer: u64,
        /// Owed blocks the peer can serve at the live generation.
        servable: u64,
    },
    /// A stranded migration's source became reachable again; the stream
    /// resumed from its block-bitmap after re-shipping it.
    MigrationReconnected {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Encoded worklist bitmap bytes re-shipped on resume.
        bitmap_bytes: u64,
    },
    /// A cluster migration finished.
    MigrationCompleted {
        /// Orchestrator-wide migration id.
        migration: u64,
        /// Total wire bytes the stream moved (all attempts).
        bytes: u64,
        /// `false` when the retry budget ran out and the VM stayed put.
        completed: bool,
    },
    /// The last record of an exported journal whose recorder was full:
    /// `n` records were dropped, so the journal no longer folds to its
    /// run's report.
    JournalDropped {
        /// Records the bound dropped.
        n: u64,
    },
}

impl Event {
    /// The two events of a phase change on `side`: `from` ends, `to` starts.
    pub fn phase_change(side: Side, from: Phase, to: Phase) -> [Event; 2] {
        [
            Event::PhaseEnd { side, phase: from },
            Event::PhaseStart { side, phase: to },
        ]
    }
}

/// One journal entry: a sequence number (total order of recording), a
/// timestamp in its [`ClockDomain`], and the [`Event`].
///
/// `seq` is assigned under the journal lock, so it is the canonical
/// happened-before order of the journal even when timestamps tie or when
/// multiple threads record concurrently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Journal-order sequence number (dense from 0 unless records dropped).
    pub seq: u64,
    /// Timestamp in nanoseconds; meaning depends on `clock`.
    pub t_nanos: u64,
    /// Which clock produced `t_nanos`.
    pub clock: ClockDomain,
    /// The recorded event.
    pub event: Event,
}
