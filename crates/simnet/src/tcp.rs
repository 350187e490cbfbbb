//! TCP transport: the live migration protocol over real sockets.
//!
//! The paper's prototype speaks TCP between `blkd` processes on two
//! hosts; [`TcpTransport`] is the equivalent here — the same
//! [`crate::transport::Transport`] interface as the in-process
//! channel, but framed over a `std::net::TcpStream` using the
//! [`codec`](crate::codec), so a migration can genuinely cross process or
//! machine boundaries.

use std::io::BufWriter;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, TryRecvError};

use telemetry::{Recorder, Side};

use crate::codec::{read_frame_or_eof, write_frame};
use crate::proto::{MigMessage, TransferLedger};
use crate::transport::{SendStats, Transport, TransportError, WallLimiter};

/// How the reader thread ended: set exactly once, before the channel
/// disconnects, so receive paths can report *why* the stream is over.
#[derive(Debug, Clone)]
enum ReaderExit {
    /// Peer closed on a frame boundary: normal end of session.
    CleanEof,
    /// Mid-stream failure: truncated frame, decode error, socket error.
    Failed(String),
}

/// A duplex migration link over a TCP stream.
pub struct TcpTransport {
    writer: Mutex<BufWriter<TcpStream>>,
    incoming: Receiver<MigMessage>,
    reader_exit: Arc<Mutex<Option<ReaderExit>>>,
    sent: Arc<Mutex<TransferLedger>>,
    limiter: Option<Mutex<WallLimiter>>,
    telemetry: Mutex<Option<SendStats>>,
}

impl TcpTransport {
    /// Wrap a connected stream. Spawns a reader thread that decodes
    /// frames until the peer closes or the transport is dropped; whether
    /// the stream ended cleanly or mid-frame is recorded and surfaced by
    /// the receive methods as [`TransportError::Disconnected`] vs
    /// [`TransportError::Reset`].
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let mut read_half = stream.try_clone()?;
        let (tx, rx) = unbounded();
        let reader_exit: Arc<Mutex<Option<ReaderExit>>> = Arc::new(Mutex::new(None));
        let exit_slot = Arc::clone(&reader_exit);
        std::thread::spawn(move || {
            let exit = loop {
                match read_frame_or_eof(&mut read_half) {
                    Ok(Some(msg)) => {
                        if tx.send(msg).is_err() {
                            // Receiver dropped: our side ended the session.
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
            // Sized to hold a full block batch (batch × 4 KiB) so small
            // control frames coalesce with data frames; `write_frame`
            // flushes per frame, and frames larger than the buffer
            // bypass it entirely (one contiguous write either way).
            writer: Mutex::new(BufWriter::with_capacity(256 * 1024, stream)),
            incoming: rx,
            reader_exit,
            sent: Arc::new(Mutex::new(TransferLedger::new())),
            limiter: None,
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
        if let Some(l) = &self.limiter {
            l.lock().acquire(msg.wire_size());
        }
        self.sent.lock().record(&msg);
        if let Some(stats) = &*self.telemetry.lock() {
            stats.bytes.add(msg.wire_size());
            stats.msgs.inc();
        }
        let mut w = self.writer.lock();
        write_frame(&mut *w, &msg).map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self) -> Result<MigMessage, TransportError> {
        self.incoming.recv().map_err(|_| self.dead_stream_error())
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        self.incoming.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout,
            RecvTimeoutError::Disconnected => self.dead_stream_error(),
        })
    }

    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        self.incoming.try_recv().map_err(|e| match e {
            TryRecvError::Empty => TransportError::Empty,
            TryRecvError::Disconnected => self.dead_stream_error(),
        })
    }

    fn sent_ledger(&self) -> TransferLedger {
        self.sent.lock().clone()
    }

    /// Paced, `1e9 ÷ rate` like any paced link. Unpaced, a socket cannot
    /// say: `write` returns when the kernel has the bytes, and what that
    /// took on loopback (0.5–0.9 ns a byte warm, 6–8 cold) is the peer's
    /// reader keeping up or not, within noise of what LZ costs — a rule
    /// fed that number flipped with the box's mood, and every batch it
    /// shipped raw sat six times larger in the receiver's unbounded queue
    /// (EXPERIMENTS.md "PR 20", loopback).
    fn link_ns_per_byte(&self) -> Option<f64> {
        self.limiter.as_ref().map(|l| l.lock().ns_per_byte())
    }

    fn shutdown(&self) {
        let w = self.writer.lock();
        sever(w.get_ref());
    }

    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        *self.telemetry.lock() = SendStats::register(recorder, side);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // The reader thread holds a clone of the socket; without an
        // explicit shutdown the connection would stay half-open and the
        // peer would never observe EOF.
        let w = self.writer.lock();
        sever(w.get_ref());
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
        assert_eq!(a.link_ns_per_byte(), None, "an unpaced socket cannot tell");
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
