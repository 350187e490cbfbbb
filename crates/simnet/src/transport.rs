//! Live-mode transport: duplex message channels between two host threads.
//!
//! Live (threaded) migration runs the source and destination protocol
//! engines on real threads; this module gives them a duplex link built on
//! crossbeam channels, with the same per-category byte accounting as the
//! simulated link and an optional wall-clock rate limiter for the §VI-C-3
//! throttling experiments.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};

use telemetry::{Recorder, Side};

use crate::proto::{MigMessage, TransferLedger};

/// Send-path counters registered under a side-specific prefix. Cloned out
/// of the registry once on attach, so the hot path only does relaxed
/// atomic adds.
#[derive(Debug, Clone)]
pub(crate) struct SendStats {
    pub(crate) bytes: telemetry::Counter,
    pub(crate) msgs: telemetry::Counter,
}

fn metric_prefix(side: Side) -> &'static str {
    match side {
        Side::Source => "transport.src",
        Side::Destination => "transport.dst",
    }
}

impl SendStats {
    /// Register (or look up) the side's counters; `None` when telemetry is
    /// disabled, so instrumented transports skip the accounting entirely.
    pub(crate) fn register(recorder: &Recorder, side: Side) -> Option<Self> {
        if !recorder.is_enabled() {
            return None;
        }
        let prefix = metric_prefix(side);
        Some(Self {
            bytes: recorder.metrics().counter(&format!("{prefix}.bytes_sent")),
            msgs: recorder.metrics().counter(&format!("{prefix}.msgs_sent")),
        })
    }
}

/// The side's `inbox_bytes_peak` gauge — the most wire bytes of bulk
/// frames its socket reader has held decoded and unreceived — registered
/// as [`SendStats`] is: `None` when telemetry is disabled.
pub(crate) fn inbox_peak_gauge(recorder: &Recorder, side: Side) -> Option<telemetry::Gauge> {
    recorder.is_enabled().then(|| {
        recorder
            .metrics()
            .gauge(&format!("{}.inbox_bytes_peak", metric_prefix(side)))
    })
}

/// Errors surfaced by [`Endpoint`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer endpoint shut down cleanly (EOF at a frame boundary).
    Disconnected,
    /// The connection failed mid-stream: an I/O error, a frame truncated
    /// short of its declared length, or an injected fault. Unlike
    /// [`TransportError::Disconnected`], this is never a normal shutdown;
    /// recovery means reconnecting and resuming from the bitmap.
    Reset(String),
    /// No message arrived within the timeout.
    Timeout,
    /// No message is currently queued (non-blocking receive).
    Empty,
    /// The message encodes to this many bytes, more than the wire format
    /// frames ([`crate::codec::MAX_FRAME`]). Nothing was sent and the
    /// connection is intact — reconnecting would meet the same message,
    /// so this is not [`fatal`](Self::is_fatal) to the connection and is
    /// never answered with a retry.
    FrameTooLarge(usize),
}

impl TransportError {
    /// True for the failures that end a connection ([`Self::Disconnected`]
    /// and [`Self::Reset`]) rather than a single receive attempt.
    pub fn is_fatal(&self) -> bool {
        matches!(self, Self::Disconnected | Self::Reset(_))
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => write!(f, "peer endpoint disconnected"),
            Self::Reset(why) => write!(f, "connection reset mid-stream: {why}"),
            Self::Timeout => write!(f, "receive timed out"),
            Self::Empty => write!(f, "no message queued"),
            Self::FrameTooLarge(bytes) => {
                write!(f, "message of {bytes} bytes is too large to frame")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Wall-clock token bucket used to pace live-mode sends.
#[derive(Debug)]
pub(crate) struct WallLimiter {
    rate: f64,
    tokens: f64,
    burst: f64,
    last: Instant,
}

impl WallLimiter {
    pub(crate) fn new(rate: f64) -> Self {
        // One tenth of a second of burst keeps pacing smooth without
        // letting large sends bypass the limit.
        let burst = (rate * 0.1).max(1.0);
        Self {
            rate,
            tokens: burst,
            burst,
            last: Instant::now(),
        }
    }

    /// Block until `bytes` may pass.
    pub(crate) fn acquire(&mut self, bytes: u64) {
        if let Some(wait) = self.debit(bytes, Instant::now()) {
            std::thread::sleep(wait);
            // A sleep overshoots (tens of microseconds per timer wake-up,
            // whatever the debt was): the time it ran over is credit.
            self.refill(Instant::now());
        }
    }

    /// Credit the time since the last reading, up to a full bucket.
    fn refill(&mut self, now: Instant) {
        let earned = now.duration_since(self.last).as_secs_f64() * self.rate;
        self.tokens = (self.tokens + earned).min(self.burst);
        self.last = now;
    }

    /// Take `bytes` out of the bucket as of `now`; a bucket left in debt
    /// answers with the time that pays the debt back.
    fn debit(&mut self, bytes: u64, now: Instant) -> Option<Duration> {
        self.refill(now);
        self.tokens -= bytes as f64;
        (self.tokens < 0.0).then(|| Duration::from_secs_f64(-self.tokens / self.rate))
    }

    /// What the paced link takes per byte, `1 ÷ rate`: computed, not the
    /// sleeps observed, so the burst the bucket starts with does not read
    /// as an idle link.
    pub(crate) fn ns_per_byte(&self) -> f64 {
        1e9 / self.rate
    }
}

/// A duplex migration message channel: the interface both the in-process
/// ([`Endpoint`]) and TCP ([`crate::tcp::TcpTransport`]) links implement,
/// so protocol engines are transport-agnostic.
pub trait Transport: Send {
    /// Send a message (blocking for pacing when rate-limited).
    fn send(&self, msg: MigMessage) -> Result<(), TransportError>;

    /// Blocking receive.
    fn recv(&self) -> Result<MigMessage, TransportError>;

    /// Receive with a wall-clock timeout.
    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError>;

    /// Non-blocking receive.
    fn try_recv(&self) -> Result<MigMessage, TransportError>;

    /// Snapshot of bytes sent from this side, by category.
    fn sent_ledger(&self) -> TransferLedger;

    /// Nanoseconds this side's link is busy per byte sent — what a sender
    /// weighs compression against. A paced link reports `1e9 ÷ rate`; an
    /// unpaced in-process link reports zero, because a send moves a
    /// pointer, and time parked on the receiver's backlog is not link
    /// time (sending fewer bytes would not shorten it). `None`, the
    /// default, is a transport that cannot tell: its sender has no
    /// grounds to withhold a capability both sides agreed on.
    fn link_ns_per_byte(&self) -> Option<f64> {
        None
    }

    /// Tear the connection down immediately (both directions). Used by
    /// fault injection to sever a link mid-stream; the default is a no-op
    /// for transports with no independent lifetime.
    fn shutdown(&self) {}

    /// Attach a telemetry recorder: subsequent sends count bytes and
    /// messages into side-scoped counters, and instrumented wrappers (the
    /// fault injector) journal their events into it. The default is a
    /// no-op so bare test transports need no instrumentation.
    fn set_telemetry(&self, _recorder: &Arc<Recorder>, _side: Side) {}
}

/// Wire bytes a link lets sit sent but unreceived in user space before
/// the sender waits: what [`crate::tcp::TcpTransport`]'s reader queues
/// ahead of its receiver, and the window the live engine gives
/// [`duplex_windowed`] — one number, because it is one quantity: how far
/// the source may run ahead of the destination's apply loop. A default
/// batch of the largest blocks in use (256 × 4 KiB plus framing) fits
/// once: with one batch queued, one being applied and one being prepared
/// neither side waits on an empty pipe, and neither side's speed turns
/// into queue memory.
pub const SEND_WINDOW: u64 = 2 * 1024 * 1024;

/// Byte budget for one direction of a link: the wire bytes sent but not
/// yet taken off the queue by the receiver. Shared by the sending and
/// the receiving end of that direction — two [`Endpoint`]s, or a socket's
/// reader thread and its receive calls.
#[derive(Debug)]
pub(crate) struct SendWindow {
    limit: u64,
    state: Mutex<WindowState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct WindowState {
    in_flight: u64,
    /// One end is gone: nothing will ever drain (or fill) the queue.
    closed: bool,
}

impl SendWindow {
    pub(crate) fn new(limit: u64) -> Self {
        Self {
            limit,
            state: Mutex::new(WindowState::default()),
            changed: Condvar::new(),
        }
    }

    /// Block until `bytes` fit under the limit, then answer with the
    /// bytes in flight, these included. A message larger than the whole
    /// window passes once nothing else is in flight, so no message can
    /// wedge the link.
    pub(crate) fn acquire(&self, bytes: u64) -> Result<u64, TransportError> {
        let mut st = self.state.lock();
        while !st.closed && st.in_flight > 0 && st.in_flight + bytes > self.limit {
            self.changed.wait(&mut st);
        }
        if st.closed {
            return Err(TransportError::Disconnected);
        }
        st.in_flight += bytes;
        Ok(st.in_flight)
    }

    pub(crate) fn release(&self, bytes: u64) {
        let mut st = self.state.lock();
        st.in_flight = st.in_flight.saturating_sub(bytes);
        self.changed.notify_all();
    }

    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }
}

/// One side of a duplex migration link.
pub struct Endpoint {
    tx: Sender<MigMessage>,
    rx: Receiver<MigMessage>,
    sent: Arc<Mutex<TransferLedger>>,
    limiter: Option<Mutex<WallLimiter>>,
    /// Budget this side's sends wait on.
    send_window: Option<Arc<SendWindow>>,
    /// The peer's budget, released as this side receives.
    recv_window: Option<Arc<SendWindow>>,
    telemetry: Mutex<Option<SendStats>>,
}

/// A connected pair; `window`, when set, budgets the first → second
/// direction.
fn pair(window: Option<Arc<SendWindow>>) -> (Endpoint, Endpoint) {
    let (a_tx, b_rx) = unbounded();
    let (b_tx, a_rx) = unbounded();
    let mk = |tx, rx, send_window, recv_window| Endpoint {
        tx,
        rx,
        sent: Arc::new(Mutex::new(TransferLedger::new())),
        limiter: None,
        send_window,
        recv_window,
        telemetry: Mutex::new(None),
    };
    (
        mk(a_tx, a_rx, window.clone(), None),
        mk(b_tx, b_rx, None, window),
    )
}

/// Create a connected pair of endpoints. Both directions queue without
/// bound: a send never waits for the peer.
pub fn duplex() -> (Endpoint, Endpoint) {
    pair(None)
}

/// Create a connected pair whose first → second direction is flow
/// controlled: a send from the first endpoint blocks while more than
/// `window_bytes` of [`MigMessage::wire_size`] sit unreceived at the
/// second, and fails with [`TransportError::Disconnected`] once either
/// end is dropped. The opposite direction stays unbounded, so the second
/// endpoint's replies can never deadlock against the window.
pub fn duplex_windowed(window_bytes: u64) -> (Endpoint, Endpoint) {
    pair(Some(Arc::new(SendWindow::new(window_bytes))))
}

impl Endpoint {
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

    /// Send a message, blocking for pacing when a rate limit is set.
    pub fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        parking_lot::assert_no_lock_held();
        if let Some(l) = &self.limiter {
            l.lock().acquire(msg.wire_size());
        }
        self.sent.lock().record(&msg);
        if let Some(stats) = &*self.telemetry.lock() {
            stats.bytes.add(msg.wire_size());
            stats.msgs.inc();
        }
        if let Some(w) = &self.send_window {
            w.acquire(msg.wire_size())?;
        }
        self.tx.send(msg).map_err(|_| TransportError::Disconnected)
    }

    /// A message left the queue: hand its bytes back to the sender.
    fn received(&self, msg: MigMessage) -> MigMessage {
        if let Some(w) = &self.recv_window {
            w.release(msg.wire_size());
        }
        msg
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<MigMessage, TransportError> {
        parking_lot::assert_no_lock_held();
        match self.rx.recv() {
            Ok(msg) => Ok(self.received(msg)),
            Err(_) => Err(TransportError::Disconnected),
        }
    }

    /// Receive with a wall-clock timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        parking_lot::assert_no_lock_held();
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => Ok(self.received(msg)),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<MigMessage, TransportError> {
        match self.rx.try_recv() {
            Ok(msg) => Ok(self.received(msg)),
            Err(TryRecvError::Empty) => Err(TransportError::Empty),
            Err(TryRecvError::Disconnected) => Err(TransportError::Disconnected),
        }
    }

    /// Snapshot of bytes sent from this endpoint, by category.
    pub fn sent_ledger(&self) -> TransferLedger {
        self.sent.lock().clone()
    }
}

impl Transport for Endpoint {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        Endpoint::send(self, msg)
    }
    fn recv(&self) -> Result<MigMessage, TransportError> {
        Endpoint::recv(self)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        Endpoint::recv_timeout(self, timeout)
    }
    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        Endpoint::try_recv(self)
    }
    fn sent_ledger(&self) -> TransferLedger {
        Endpoint::sent_ledger(self)
    }
    fn link_ns_per_byte(&self) -> Option<f64> {
        Some(
            self.limiter
                .as_ref()
                .map_or(0.0, |l| l.lock().ns_per_byte()),
        )
    }

    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        *self.telemetry.lock() = SendStats::register(recorder, side);
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        // Whichever end goes first, a sender parked on the window must
        // not wait for a receive that will never come.
        for w in [&self.send_window, &self.recv_window].into_iter().flatten() {
            w.close();
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rate_limited", &self.limiter.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Category;

    #[test]
    fn roundtrip_between_threads() {
        let (a, b) = duplex();
        let t = std::thread::spawn(move || {
            let msg = b.recv().unwrap();
            assert_eq!(msg, MigMessage::Suspended);
            b.send(MigMessage::Resumed).unwrap();
        });
        a.send(MigMessage::Suspended).unwrap();
        assert_eq!(a.recv().unwrap(), MigMessage::Resumed);
        t.join().unwrap();
    }

    #[test]
    fn ledger_counts_sends() {
        let (a, _b) = duplex();
        a.send(MigMessage::PullRequest { block: 3 }).unwrap();
        a.send(MigMessage::PullRequest { block: 4 }).unwrap();
        let ledger = a.sent_ledger();
        assert_eq!(
            ledger.get(Category::DiskPull),
            2 * MigMessage::PullRequest { block: 0 }.wire_size()
        );
    }

    #[test]
    fn disconnect_reported() {
        let (a, b) = duplex();
        drop(b);
        assert_eq!(
            a.send(MigMessage::Suspended),
            Err(TransportError::Disconnected)
        );
        assert_eq!(a.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn try_recv_empty() {
        let (a, b) = duplex();
        assert_eq!(a.try_recv(), Err(TransportError::Empty));
        b.send(MigMessage::PrepareAck).unwrap();
        assert_eq!(a.try_recv(), Ok(MigMessage::PrepareAck));
    }

    #[test]
    fn recv_timeout_fires() {
        let (a, _b) = duplex();
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
    }

    fn block_msg(block: u64) -> MigMessage {
        MigMessage::DiskBlocks {
            blocks: vec![block],
            payload_len: 1000,
            payload: None,
        }
    }

    #[test]
    fn windowed_sender_blocks_at_the_window_and_resumes_on_recv() {
        let size = block_msg(0).wire_size();
        let (a, b) = duplex_windowed(2 * size);
        let (progress_tx, progress) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            for i in 0..3 {
                a.send(block_msg(i)).unwrap();
                progress_tx.send(i).unwrap();
            }
            a
        });
        // Two messages fill the window; the third send must park.
        assert_eq!(progress.recv().unwrap(), 0);
        assert_eq!(progress.recv().unwrap(), 1);
        assert!(
            progress.recv_timeout(Duration::from_millis(50)).is_err(),
            "third send went through a full window"
        );
        // Taking one message off the queue frees its bytes.
        assert_eq!(b.recv().unwrap(), block_msg(0));
        assert_eq!(progress.recv().unwrap(), 2);
        let _a = sender.join().unwrap();
        assert_eq!(b.try_recv().unwrap(), block_msg(1));
        assert_eq!(
            b.recv_timeout(Duration::from_millis(50)).unwrap(),
            block_msg(2)
        );
    }

    #[test]
    fn message_larger_than_the_window_passes_an_empty_link() {
        let (a, b) = duplex_windowed(16);
        a.send(block_msg(1)).unwrap();
        assert_eq!(b.recv().unwrap(), block_msg(1));
        a.send(block_msg(2)).unwrap();
        assert_eq!(b.recv().unwrap(), block_msg(2));
    }

    #[test]
    fn dropping_the_receiver_wakes_a_blocked_sender() {
        let (a, b) = duplex_windowed(block_msg(0).wire_size());
        a.send(block_msg(0)).unwrap();
        let (parked_tx, parked) = std::sync::mpsc::channel();
        let sender = std::thread::spawn(move || {
            parked_tx.send(()).unwrap();
            a.send(block_msg(1))
        });
        parked.recv().unwrap();
        // Whether the sender is already parked or still on its way to the
        // window, the drop must turn its send into `Disconnected`.
        drop(b);
        assert_eq!(sender.join().unwrap(), Err(TransportError::Disconnected));
    }

    #[test]
    fn opposite_direction_is_never_windowed() {
        let (a, b) = duplex_windowed(block_msg(0).wire_size());
        // Fill the windowed direction, then push far more than a window
        // the other way with nobody reading: none of it may block.
        a.send(block_msg(0)).unwrap();
        for i in 0..100 {
            b.send(block_msg(i)).unwrap();
        }
        for i in 0..100 {
            assert_eq!(a.recv().unwrap(), block_msg(i));
        }
    }

    #[test]
    fn limiter_credits_the_time_a_sleep_overshot() {
        const RATE: f64 = 10.0 * 1024.0 * 1024.0;
        let us = Duration::from_micros;
        let mut l = WallLimiter::new(RATE);
        let t0 = l.last;
        l.tokens = 0.0;
        // A 21-byte send into an empty bucket is a 2 µs debt.
        let wait = l.debit(21, t0).expect("an empty bucket makes a send wait");
        assert!(us(1) < wait && wait < us(3), "{wait:?}");
        // The timer wakes 60 µs later: 58 µs of that is in hand.
        l.refill(t0 + us(60));
        let in_hand = RATE * 60e-6 - 21.0;
        assert!(
            (l.tokens - in_hand).abs() < 1e-3,
            "{} vs {in_hand}",
            l.tokens
        );
        assert_eq!(
            l.debit(500, t0 + us(60)),
            None,
            "credit covers the next send"
        );
        // Credit stops at a full bucket however long the link sat idle.
        l.refill(t0 + Duration::from_secs(60));
        assert_eq!(l.tokens, l.burst);
    }

    #[test]
    fn limiter_never_passes_more_than_rate_nor_less_for_oversleeping() {
        const RATE: f64 = 1_000_000.0;
        let mut l = WallLimiter::new(RATE);
        let t0 = l.last;
        // Sends of mixed sizes, every wait overslept by 55 µs.
        let (mut now, mut sent) = (t0, 0u64);
        for i in 0..20_000u64 {
            let bytes = if i % 4 == 0 { 4_136 } else { 16 };
            if let Some(wait) = l.debit(bytes, now) {
                now += wait + Duration::from_micros(55);
                l.refill(now);
            }
            sent += bytes;
            assert!(l.tokens <= l.burst);
            // Never ahead of the rate by more than the opening burst.
            let allowed = l.burst + now.duration_since(t0).as_secs_f64() * RATE;
            assert!(sent as f64 <= allowed + 1e-6, "{sent} B by {now:?}");
        }
        // And the oversleeps cost no throughput: past the burst the link
        // ran at its rate, not under it.
        let elapsed = now.duration_since(t0).as_secs_f64();
        assert!(sent as f64 >= elapsed * RATE, "{sent} B in {elapsed} s");
    }

    #[test]
    fn a_byte_costs_nothing_unpaced_and_one_over_rate_paced() {
        let (mut a, _b) = duplex();
        assert_eq!(a.link_ns_per_byte(), Some(0.0));
        a.set_rate_limit(1_000_000.0);
        // Before the first send, and with the whole burst still in hand.
        assert_eq!(a.link_ns_per_byte(), Some(1_000.0));
    }

    #[test]
    fn rate_limit_paces_throughput() {
        let (mut a, b) = duplex();
        // 1 MB/s; send ~0.3 MB => at least ~0.2 s (minus the 0.1 s burst).
        a.set_rate_limit(1_000_000.0);
        let start = Instant::now();
        for i in 0..75 {
            a.send(MigMessage::DiskBlocks {
                blocks: vec![i],
                payload_len: 4096,
                payload: None,
            })
            .unwrap();
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed >= Duration::from_millis(150),
            "sent too fast: {elapsed:?}"
        );
        drop(b);
    }
}
