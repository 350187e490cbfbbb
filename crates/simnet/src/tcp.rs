//! TCP transport: the live migration protocol over real sockets.
//!
//! The paper's prototype speaks TCP between `blkd` processes on two
//! hosts; [`TcpTransport`] is the equivalent here — the same
//! [`crate::transport::Transport`] interface as the in-process
//! channel, but framed over a `std::net::TcpStream` using the
//! [`codec`](crate::codec), so a migration can genuinely cross process or
//! machine boundaries.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};

use telemetry::{Gauge, Recorder, Side};

use crate::codec::{frame_parts, read_frame_or_eof, write_frame_parts};
use crate::proto::{MigMessage, TransferLedger};
use crate::transport::{
    inbox_peak_gauge, SendStats, SendWindow, Transport, TransportError, WallLimiter, SEND_WINDOW,
};

/// How the reader thread ended: set exactly once, before the channel
/// disconnects, so receive paths can report *why* the stream is over.
#[derive(Debug, Clone)]
enum ReaderExit {
    /// Peer closed on a frame boundary: normal end of session.
    CleanEof,
    /// Mid-stream failure: truncated frame, decode error, socket error.
    Failed(String),
}

/// What the reader thread and the receive paths share: the byte budget
/// of the decoded-frame queue between them, and the most it has held.
#[derive(Debug)]
struct Inbox {
    budget: SendWindow,
    peak: Mutex<InboxPeak>,
}

#[derive(Debug, Default)]
struct InboxPeak {
    bytes: u64,
    /// `transport.{src,dst}.inbox_bytes_peak`, once telemetry is attached.
    gauge: Option<Gauge>,
}

impl Inbox {
    /// Reader side: wait until `msg` fits under the budget. `Err` when
    /// the transport was dropped meanwhile.
    fn admit(&self, msg: &MigMessage) -> Result<(), TransportError> {
        if !carries_bulk(msg) {
            return Ok(());
        }
        let held = self.budget.acquire(msg.wire_size())?;
        let mut peak = self.peak.lock();
        if held > peak.bytes {
            peak.bytes = held;
            if let Some(g) = &peak.gauge {
                g.set(held);
            }
        }
        Ok(())
    }

    /// Receive side: `msg` left the queue.
    fn released(&self, msg: MigMessage) -> MigMessage {
        if carries_bulk(&msg) {
            self.budget.release(msg.wire_size());
        }
        msg
    }
}

/// The frames the inbox budget counts: those that carry block or page
/// bytes, and the frames of references that travel between them (up to a
/// window's worth each). Everything else — lone references, bounces, pull
/// requests, barriers, acks, handshakes — is small, is what the *other*
/// direction of a migration consists of, and must get through whatever
/// the bulk direction is doing: a reader parked on a full inbox with a
/// flood of `BlockRefMiss` behind it would stop the peer's writes, and
/// with them the very receives that would drain this inbox.
fn carries_bulk(msg: &MigMessage) -> bool {
    matches!(
        msg,
        MigMessage::DiskBlocks { .. }
            | MigMessage::BlockRefs { .. }
            | MigMessage::CompressedBlocks { .. }
            | MigMessage::MemPages { .. }
            | MigMessage::CompressedPages { .. }
            | MigMessage::PostCopyBlock { .. }
            | MigMessage::BlockData { .. }
    )
}

/// What an unpaced socket between `local` and `peer` costs per byte, if
/// it can say. Both ends on one host (loopback included) is a link with
/// no wire: free, as the in-process [`Endpoint`](crate::transport::Endpoint)
/// is and for the same reason — time spent parked on the receiver is not
/// link time. Two hosts is a real network this side cannot rate: `None`.
pub fn unpaced_link_ns_per_byte(local: SocketAddr, peer: SocketAddr) -> Option<f64> {
    (local.ip() == peer.ip()).then_some(0.0)
}

/// A duplex migration link over a TCP stream.
pub struct TcpTransport {
    stream: TcpStream,
    /// One frame at a time on the wire.
    write_lock: Mutex<()>,
    incoming: Receiver<MigMessage>,
    inbox: Arc<Inbox>,
    reader: Option<JoinHandle<()>>,
    reader_exit: Arc<Mutex<Option<ReaderExit>>>,
    sent: Arc<Mutex<TransferLedger>>,
    limiter: Option<Mutex<WallLimiter>>,
    /// [`unpaced_link_ns_per_byte`] of this socket's two addresses.
    unpaced_ns_per_byte: Option<f64>,
    telemetry: Mutex<Option<SendStats>>,
}

impl TcpTransport {
    /// Wrap a connected stream. Spawns a reader thread that decodes
    /// frames until the peer closes or the transport is dropped; whether
    /// the stream ended cleanly or mid-frame is recorded and surfaced by
    /// the receive methods as [`TransportError::Disconnected`] vs
    /// [`TransportError::Reset`].
    ///
    /// The reader queues a frame that carries block or page bytes only
    /// while the queue holds less than [`SEND_WINDOW`] of them; past that
    /// it stops reading, the kernel's socket buffers fill, and the peer's
    /// `send` blocks — a slow receiver costs the sender time, not this
    /// side memory. Control frames are never counted and never wait.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let unpaced_ns_per_byte =
            unpaced_link_ns_per_byte(stream.local_addr()?, stream.peer_addr()?);
        let mut read_half = stream.try_clone()?;
        let (tx, rx) = unbounded();
        let inbox = Arc::new(Inbox {
            budget: SendWindow::new(SEND_WINDOW),
            peak: Mutex::default(),
        });
        let reader_exit: Arc<Mutex<Option<ReaderExit>>> = Arc::new(Mutex::new(None));
        let exit_slot = Arc::clone(&reader_exit);
        let reader_inbox = Arc::clone(&inbox);
        let reader = std::thread::spawn(move || {
            let exit = loop {
                match read_frame_or_eof(&mut read_half) {
                    Ok(Some(msg)) => {
                        // Budget closed or receiver dropped: our side
                        // ended the session.
                        if reader_inbox.admit(&msg).is_err() || tx.send(msg).is_err() {
                            break ReaderExit::CleanEof;
                        }
                    }
                    Ok(None) => break ReaderExit::CleanEof,
                    Err(e) => break ReaderExit::Failed(e.to_string()),
                }
            };
            // Record the verdict *before* dropping `tx`: a receiver that
            // observes the disconnect must find the reason already set.
            *exit_slot.lock() = Some(exit);
            drop(tx);
        });
        Ok(Self {
            stream,
            write_lock: Mutex::new(()),
            incoming: rx,
            inbox,
            reader: Some(reader),
            reader_exit,
            sent: Arc::new(Mutex::new(TransferLedger::new())),
            limiter: None,
            unpaced_ns_per_byte,
            telemetry: Mutex::new(None),
        })
    }

    /// The error a dead stream should surface: `Reset` with the recorded
    /// failure for a mid-stream death, `Disconnected` for a clean close.
    fn dead_stream_error(&self) -> TransportError {
        match &*self.reader_exit.lock() {
            Some(ReaderExit::Failed(why)) => TransportError::Reset(why.clone()),
            Some(ReaderExit::CleanEof) | None => TransportError::Disconnected,
        }
    }

    /// Connect to a listening peer.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Self::new(TcpStream::connect(addr)?)
    }

    /// Pace all subsequent sends at `bytes_per_sec` of wall time.
    ///
    /// # Panics
    /// Panics when the rate is not strictly positive.
    pub fn set_rate_limit(&mut self, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "rate must be positive"
        );
        self.limiter = Some(Mutex::new(WallLimiter::new(bytes_per_sec)));
    }
}

/// Create a connected pair over the loopback interface — the test/demo
/// equivalent of two hosts on the paper's Gigabit LAN.
pub fn loopback_pair() -> std::io::Result<(TcpTransport, TcpTransport)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let join = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let client = TcpStream::connect(addr)?;
    let server = join
        .join()
        .map_err(|_| std::io::Error::other("accept thread panicked"))??;
    Ok((TcpTransport::new(client)?, TcpTransport::new(server)?))
}

impl Transport for TcpTransport {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        parking_lot::assert_no_lock_held();
        // Framed first: a message too large for the wire format is
        // refused before it is paced, counted or a byte of it written.
        let (head, payload) = frame_parts(&msg).map_err(TransportError::FrameTooLarge)?;
        if let Some(l) = &self.limiter {
            l.lock().acquire(msg.wire_size());
        }
        self.sent.lock().record(&msg);
        if let Some(stats) = &*self.telemetry.lock() {
            stats.bytes.add(msg.wire_size());
            stats.msgs.inc();
        }
        let _one_frame_at_a_time = self.write_lock.lock();
        write_frame_parts(&mut &self.stream, &head, payload)
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self) -> Result<MigMessage, TransportError> {
        parking_lot::assert_no_lock_held();
        match self.incoming.recv() {
            Ok(msg) => Ok(self.inbox.released(msg)),
            Err(_) => Err(self.dead_stream_error()),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        parking_lot::assert_no_lock_held();
        match self.incoming.recv_timeout(timeout) {
            Ok(msg) => Ok(self.inbox.released(msg)),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(self.dead_stream_error()),
        }
    }

    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        match self.incoming.try_recv() {
            Ok(msg) => Ok(self.inbox.released(msg)),
            Err(TryRecvError::Empty) => Err(TransportError::Empty),
            Err(TryRecvError::Disconnected) => Err(self.dead_stream_error()),
        }
    }

    fn sent_ledger(&self) -> TransferLedger {
        self.sent.lock().clone()
    }

    /// Paced, `1e9 ÷ rate` like any paced link. Unpaced, what the
    /// socket's two addresses say ([`unpaced_link_ns_per_byte`]): zero
    /// between two ends of one host, `None` between two hosts. Declared,
    /// not measured: wall time inside `write` on loopback is the peer's
    /// reader and everything it wakes taking the CPU, sits *on* what LZ
    /// costs (0.5–0.9 against 0.53–0.94 ns a byte) and flipped a rule fed
    /// it from run to run (EXPERIMENTS.md "PR 20", loopback). A raw batch
    /// is six times an LZ one, which only the inbox budget makes safe to
    /// say yes to.
    fn link_ns_per_byte(&self) -> Option<f64> {
        match &self.limiter {
            Some(l) => Some(l.lock().ns_per_byte()),
            None => self.unpaced_ns_per_byte,
        }
    }

    fn shutdown(&self) {
        // Not under the write lock: a send parked in `write` behind a
        // full peer is exactly what a shutdown has to be able to end.
        sever(&self.stream);
    }

    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        *self.telemetry.lock() = SendStats::register(recorder, side);
        let gauge = inbox_peak_gauge(recorder, side);
        let mut peak = self.inbox.peak.lock();
        peak.gauge = gauge;
        if let Some(g) = &peak.gauge {
            g.set(peak.bytes);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The reader thread holds a clone of the socket; without an
        // explicit shutdown the connection would stay half-open and the
        // peer would never observe EOF. Severing ends a reader blocked in
        // `read`, closing the budget one parked on a full inbox.
        sever(&self.stream);
        self.inbox.budget.close();
        if let Some(reader) = self.reader.take() {
            match reader.join() {
                Ok(()) => {}
                Err(_reader_panicked) => {}
            }
        }
    }
}

/// Close both halves of the socket. `Err` here means the peer (or a
/// prior `shutdown()` call) already closed it — the state we wanted —
/// so it is handled by naming it, not silently discarded.
fn sever(stream: &std::net::TcpStream) {
    match stream.shutdown(std::net::Shutdown::Both) {
        Ok(()) => {}
        Err(_already_closed) => {}
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("rate_limited", &self.limiter.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Category;
    use bytes::Bytes;

    #[test]
    fn loopback_roundtrip() {
        let (a, b) = loopback_pair().expect("loopback");
        a.send(MigMessage::Suspended).expect("send");
        assert_eq!(b.recv().expect("recv"), MigMessage::Suspended);
        b.send(MigMessage::Resumed).expect("send");
        assert_eq!(a.recv().expect("recv"), MigMessage::Resumed);
    }

    #[test]
    fn payloads_cross_intact() {
        let (a, b) = loopback_pair().expect("loopback");
        let payload = Bytes::from(
            (0..8192u32)
                .flat_map(|x| x.to_le_bytes())
                .collect::<Vec<_>>(),
        );
        let msg = MigMessage::DiskBlocks {
            blocks: (0..8).collect(),
            payload_len: payload.len() as u64,
            payload: Some(payload.clone()),
        };
        a.send(msg.clone()).expect("send");
        assert_eq!(b.recv().expect("recv"), msg);
        assert_eq!(a.sent_ledger().get(Category::DiskPrecopy), msg.wire_size());
        assert_eq!(
            a.link_ns_per_byte(),
            Some(0.0),
            "both ends on this host: no wire"
        );
    }

    #[test]
    fn an_unpaced_socket_is_free_on_one_host_and_cannot_tell_between_two() {
        let at = |ip: &str, port: u16| SocketAddr::new(ip.parse().expect("ip"), port);
        for host in ["127.0.0.1", "10.0.0.5", "::1"] {
            assert_eq!(
                unpaced_link_ns_per_byte(at(host, 40_000), at(host, 7_777)),
                Some(0.0),
                "{host} to itself"
            );
        }
        // Two hosts: a real network this side cannot rate, so the sender
        // keeps what the handshake agreed, as the paper's LAN should.
        assert_eq!(
            unpaced_link_ns_per_byte(at("10.0.0.5", 40_000), at("10.0.0.6", 7_777)),
            None,
            "an unpaced socket between two hosts cannot tell"
        );
        // Pacing overrides either answer with the pacer's own.
        let (mut a, _b) = loopback_pair().expect("loopback");
        a.set_rate_limit(1_000_000.0);
        assert_eq!(a.link_ns_per_byte(), Some(1_000.0));
    }

    /// A raw block batch of `kib` KiB whose bytes say which batch it is.
    fn batch(i: u64, kib: usize) -> MigMessage {
        let payload = Bytes::from(vec![i as u8; kib * 1024]);
        MigMessage::DiskBlocks {
            blocks: vec![i],
            payload_len: payload.len() as u64,
            payload: Some(payload),
        }
    }

    #[test]
    fn only_frames_with_block_or_page_bytes_count_against_the_inbox() {
        let payload = Bytes::from(vec![0u8; 8]);
        for bulk in [
            batch(0, 1),
            MigMessage::CompressedBlocks {
                blocks: vec![0],
                raw_len: 8,
                payload: payload.clone(),
            },
            MigMessage::MemPages {
                pages: vec![0],
                payload_len: 8,
                payload: Some(payload.clone()),
            },
            MigMessage::CompressedPages {
                pages: vec![0],
                raw_len: 8,
                payload: payload.clone(),
            },
            MigMessage::PostCopyBlock {
                block: 0,
                pulled: false,
                payload_len: 8,
                payload: Some(payload.clone()),
            },
            MigMessage::BlockData {
                block: 0,
                generation: 0,
                payload_len: 8,
                payload: Some(payload),
            },
        ] {
            assert!(carries_bulk(&bulk), "{bulk:?}");
        }
        // What the destination sends the source, and what orders a pass.
        for control in [
            MigMessage::BlockRef {
                block: 0,
                fingerprint: 0,
            },
            MigMessage::BlockRefMiss { block: 0 },
            MigMessage::PullRequest { block: 0 },
            MigMessage::Barrier,
            MigMessage::BarrierAck,
            MigMessage::PrepareAck,
            MigMessage::Resumed,
            MigMessage::MigrationComplete,
            MigMessage::CompleteAck,
        ] {
            assert!(!carries_bulk(&control), "{control:?}");
        }
    }

    #[test]
    fn a_receiver_that_stops_receiving_holds_one_window_and_blocks_the_sender() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const FRAMES: u64 = 256;
        const MISSES: u64 = 200_000;
        let frame_bytes = batch(0, 256).wire_size();
        let (a, b) = loopback_pair().expect("loopback");
        let rec = Recorder::enabled();
        a.set_telemetry(&rec, Side::Source);
        b.set_telemetry(&rec, Side::Destination);
        let peak = rec.metrics().gauge("transport.dst.inbox_bytes_peak");
        let sent = AtomicU64::new(0);
        // Until `sent` has stood still for 300 ms. Slow is not blocked,
        // but every assertion below holds of a slow sender too.
        let settle = || loop {
            let before = sent.load(Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(300));
            if sent.load(Ordering::SeqCst) == before {
                return before;
            }
        };
        std::thread::scope(|scope| {
            // 64 MiB toward a peer that is not receiving.
            let sender = scope.spawn(|| {
                for i in 0..FRAMES {
                    if a.send(batch(i, 256)).is_err() {
                        return i;
                    }
                    sent.fetch_add(1, Ordering::SeqCst);
                }
                FRAMES
            });
            let stalled_at = settle();
            assert!(
                stalled_at < FRAMES,
                "all {FRAMES} frames went to a peer that never received"
            );
            // The reader filled its budget and stopped: the rest sits in
            // the kernel's buffers and in the sender's blocked `write`.
            let held = peak.get();
            assert!(
                held <= SEND_WINDOW && held + frame_bytes > SEND_WINDOW,
                "inbox peaked at {held} B against a {SEND_WINDOW} B window of {frame_bytes} B frames"
            );

            // The other direction is control frames: never counted, so
            // they cross however full this one is — with `a` parked in
            // `send`, not receiving, until every one of them is written.
            for block in 0..MISSES {
                b.send(MigMessage::BlockRefMiss { block }).expect("bounce");
            }
            for block in 0..MISSES {
                assert_eq!(
                    a.recv().expect("bounce arrives"),
                    MigMessage::BlockRefMiss { block }
                );
            }
            assert_eq!(
                rec.metrics().gauge("transport.src.inbox_bytes_peak").get(),
                0,
                "bounces were counted against the source's inbox"
            );

            // Taking frames off the inbox is what lets the sender move.
            for i in 0..8 {
                assert_eq!(b.recv().expect("queued batch"), batch(i, 256));
            }
            let resumed = std::time::Instant::now();
            while sent.load(Ordering::SeqCst) == stalled_at {
                assert!(
                    resumed.elapsed() < Duration::from_secs(30),
                    "sender still parked after 8 receives"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let stalled_again = settle();
            assert!(stalled_again < FRAMES);
            assert!(peak.get() <= SEND_WINDOW, "{} B", peak.get());

            // Dropping the receiving end unparks its reader (and joins
            // it: `drop` returns) and fails the sender's blocked write.
            drop(b);
            let gave_up_at = sender.join().expect("sender thread");
            assert!(gave_up_at < FRAMES, "sends into a dropped peer succeeded");
        });
        // The sending end's reader is blocked in `read`; its drop joins too.
        drop(a);
    }

    #[test]
    fn a_frame_larger_than_the_window_passes_an_empty_inbox() {
        let (a, b) = loopback_pair().expect("loopback");
        let big = batch(1, 3 * 1024);
        assert!(big.wire_size() > SEND_WINDOW);
        let sender = std::thread::spawn(move || {
            a.send(batch(0, 1)).expect("small");
            a.send(batch(1, 3 * 1024)).expect("big");
            a.send(batch(2, 1)).expect("small");
            a
        });
        assert_eq!(b.recv().expect("small"), batch(0, 1));
        assert_eq!(b.recv().expect("big"), big);
        assert_eq!(b.recv().expect("small"), batch(2, 1));
        drop(sender.join().expect("sender"));
    }

    #[test]
    fn an_oversize_message_is_a_typed_refusal_and_the_stream_survives_it() {
        use crate::codec::MAX_FRAME;
        let (a, b) = loopback_pair().expect("loopback");
        // Never touched, so never resident: the frame is refused on its
        // length before a byte of it is read.
        let payload = Bytes::from(vec![0u8; MAX_FRAME as usize]);
        let oversize = MigMessage::DiskBlocks {
            blocks: vec![0],
            payload_len: payload.len() as u64,
            payload: Some(payload),
        };
        let refused = a.send(oversize).expect_err("64 MiB of payload plus a head");
        assert!(
            matches!(refused, TransportError::FrameTooLarge(n) if n > MAX_FRAME as usize),
            "{refused:?}"
        );
        assert!(
            !refused.is_fatal(),
            "the connection is fine: reconnecting would meet the same message"
        );
        assert_eq!(a.sent_ledger().total(), 0, "nothing was sent");
        // Nothing of it reached the wire: the next frame decodes.
        a.send(MigMessage::Suspended).expect("send");
        assert_eq!(b.recv().expect("recv"), MigMessage::Suspended);
    }

    #[test]
    fn ordering_preserved_under_load() {
        let (a, b) = loopback_pair().expect("loopback");
        let t = std::thread::spawn(move || {
            for i in 0..1000u64 {
                a.send(MigMessage::PullRequest { block: i }).expect("send");
            }
        });
        for i in 0..1000u64 {
            assert_eq!(
                b.recv().expect("recv"),
                MigMessage::PullRequest { block: i }
            );
        }
        t.join().expect("sender");
    }

    #[test]
    fn disconnect_detected() {
        let (a, b) = loopback_pair().expect("loopback");
        drop(b);
        // The reader thread sees EOF; recv eventually reports disconnect.
        assert_eq!(a.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn truncated_frame_surfaces_as_reset() {
        use std::io::Write;
        // Hand-roll the peer so we can kill it mid-frame: write a length
        // prefix promising 100 bytes, deliver 3, then sever the socket.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            s.write_all(&100u32.to_le_bytes()).expect("prefix");
            s.write_all(&[1, 2, 3]).expect("partial body");
            s.shutdown(std::net::Shutdown::Both).expect("sever");
        });
        let a = TcpTransport::connect(&addr.to_string()).expect("connect");
        join.join().expect("peer thread");
        match a.recv() {
            Err(TransportError::Reset(why)) => {
                assert!(why.contains("truncated"), "diagnosis lost: {why}")
            }
            other => panic!("expected Reset for a truncated frame, got {other:?}"),
        }
        // The verdict is sticky: later receives report the same failure.
        assert!(matches!(a.try_recv(), Err(TransportError::Reset(_))));
        assert!(matches!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(TransportError::Reset(_))
        ));
    }

    #[test]
    fn local_shutdown_severs_both_directions() {
        let (a, b) = loopback_pair().expect("loopback");
        Transport::shutdown(&a);
        // The peer sees a clean close (shutdown flushes the FIN).
        assert!(b.recv().is_err());
        assert!(a.send(MigMessage::Suspended).is_err());
    }

    #[test]
    fn timeout_and_try_recv() {
        let (a, _b) = loopback_pair().expect("loopback");
        assert_eq!(a.try_recv(), Err(TransportError::Empty));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(20)),
            Err(TransportError::Timeout)
        );
    }
}
