//! Deterministic fault injection for migration transports.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and severs, stalls or
//! truncates the link at precise, reproducible points — message offsets,
//! byte offsets, or per-category message counts. A wrapped *pair* shares
//! one cut flag, so a fault fired by the sender is observed by both sides
//! as [`TransportError::Reset`], exactly like a real connection reset:
//! the reconnect-and-resume path in `migrate::live` is exercised against
//! the same error surface a dead TCP stream produces.
//!
//! Faults are armed per connection *attempt* (0 = the initial
//! connection), so a plan can cut the first connection during disk
//! pre-copy, cut the second during post-copy, and leave the third alone.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use telemetry::{Event, FaultLabel, Recorder, Side};

use crate::proto::{Category, MigMessage, TransferLedger, ALL_CATEGORIES};
use crate::transport::{Transport, TransportError};

/// What happens when a fault's trigger fires.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Sever the connection. The triggering send fails immediately with
    /// [`TransportError::Reset`] and every later operation on either side
    /// fails too.
    Reset,
    /// Freeze the sending side for the duration, then deliver normally.
    Stall(Duration),
    /// Deliver a truncated frame: the triggering send *appears* to
    /// succeed (like a write into a socket buffer that never drains), but
    /// the message is lost and the connection is severed behind it — the
    /// peer sees a frame cut short, i.e. `Reset`, on its next receive.
    Truncate,
    /// Lose the frame in flight but keep the connection alive: the send
    /// appears to succeed, the peer simply never receives the message.
    /// This is a lossy link (WAN weather, congestion drops), not a cut
    /// one — later frames go through untouched.
    Drop,
}

/// When a fault fires, measured on the side holding the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After this many messages have been sent on this connection.
    Messages(u64),
    /// After this many wire bytes have been sent on this connection.
    Bytes(u64),
    /// After this many messages of the given category — e.g.
    /// `(Category::DiskPush, 5)` fires mid-post-copy regardless of how
    /// long the earlier phases ran.
    CategoryMessages(Category, u64),
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Connection attempt this fault arms on (0 = initial connection).
    pub attempt: u32,
    /// When it fires.
    pub trigger: FaultTrigger,
    /// What it does.
    pub kind: FaultKind,
}

/// A permanent kill of one named peer session: every connection attempt
/// of that session is reset after `after_messages` sends — modeling a
/// host that died, not a link that flapped. A killed session can never
/// ride out its reconnect budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionKill {
    /// Session name (matched exactly against the name a transport was
    /// wrapped with, e.g. `"source"` or `"peer-2"`).
    pub session: String,
    /// Messages the session may send on each attempt before it dies
    /// (0 = the first send already fails).
    pub after_messages: u64,
}

/// A deterministic schedule of transport faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in no particular order.
    pub faults: Vec<Fault>,
    /// Named sessions that are dead for good: armed on *every* attempt,
    /// unlike `faults`, which arm once per attempt number.
    pub kills: Vec<SessionKill>,
}

impl FaultPlan {
    /// An empty plan (no faults ever fire).
    pub fn none() -> Self {
        Self::default()
    }

    /// Add a connection reset after `n` messages on attempt `attempt`.
    pub fn reset_after_messages(mut self, attempt: u32, n: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::Messages(n),
            kind: FaultKind::Reset,
        });
        self
    }

    /// Add a connection reset after `n` wire bytes on attempt `attempt`.
    pub fn reset_after_bytes(mut self, attempt: u32, n: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::Bytes(n),
            kind: FaultKind::Reset,
        });
        self
    }

    /// Add a connection reset after `n` messages of `cat` on `attempt`.
    pub fn reset_after_category(mut self, attempt: u32, cat: Category, n: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::CategoryMessages(cat, n),
            kind: FaultKind::Reset,
        });
        self
    }

    /// Add a stall of `dur` after `n` messages on `attempt`.
    pub fn stall_after_messages(mut self, attempt: u32, n: u64, dur: Duration) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::Messages(n),
            kind: FaultKind::Stall(dur),
        });
        self
    }

    /// Add a truncated-frame fault after `n` messages on `attempt`.
    pub fn truncate_after_messages(mut self, attempt: u32, n: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::Messages(n),
            kind: FaultKind::Truncate,
        });
        self
    }

    /// Add a dropped-frame fault after `n` messages on `attempt`.
    pub fn drop_after_messages(mut self, attempt: u32, n: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            trigger: FaultTrigger::Messages(n),
            kind: FaultKind::Drop,
        });
        self
    }

    /// A seeded schedule of `attempts` connection resets at
    /// pseudo-random message offsets in `[lo, hi)`: attempt `k` is cut
    /// after `lo + splitmix(seed, k) % (hi - lo)` messages. Deterministic
    /// for a given seed, so a failing run is exactly reproducible.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn seeded_resets(seed: u64, attempts: u32, lo: u64, hi: u64) -> Self {
        assert!(lo < hi, "offset range must be non-empty");
        let mut plan = Self::none();
        for k in 0..attempts {
            let off = lo + splitmix64(seed.wrapping_add(u64::from(k))) % (hi - lo);
            plan = plan.reset_after_messages(k, off);
        }
        plan
    }

    /// A seeded lossy-link schedule: over the first `messages` sends of
    /// each of `attempts` connection attempts, every message offset
    /// independently draws a frame drop with probability
    /// `drop_permille`/1000 and a latency-jitter stall with probability
    /// `jitter_permille`/1000, the stall lasting a seeded fraction of
    /// `max_jitter`. Each (attempt, offset) pair hashes through
    /// `splitmix64`, so the whole schedule — which offsets fire, what
    /// they do, and how long each stall lasts — is a pure function of
    /// the seed: two plans built with one seed are identical, and so are
    /// the fault sequences two identical runs observe.
    pub fn seeded_chaos(
        seed: u64,
        attempts: u32,
        messages: u64,
        drop_permille: u32,
        jitter_permille: u32,
        max_jitter: Duration,
    ) -> Self {
        let mut plan = Self::none();
        for attempt in 0..attempts {
            for m in 1..=messages {
                let h =
                    splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F) ^ m);
                let roll = h % 1000;
                if roll < u64::from(drop_permille) {
                    plan.faults.push(Fault {
                        attempt,
                        trigger: FaultTrigger::Messages(m),
                        kind: FaultKind::Drop,
                    });
                } else if roll < u64::from(drop_permille) + u64::from(jitter_permille) {
                    // A second independent draw picks the stall length in
                    // (0, max_jitter], quantized to 1/256ths.
                    let q = (splitmix64(h) % 256) + 1;
                    let stall = max_jitter.mul_f64(q as f64 / 256.0);
                    plan.faults.push(Fault {
                        attempt,
                        trigger: FaultTrigger::Messages(m),
                        kind: FaultKind::Stall(stall),
                    });
                }
            }
        }
        plan
    }

    /// Kill the named session permanently: every connection attempt it
    /// makes is reset after `after_messages` sends. Unlike the
    /// per-attempt resets, a kill never disarms — the session's
    /// reconnect budget is guaranteed to exhaust.
    pub fn kill_session(mut self, session: &str, after_messages: u64) -> Self {
        self.kills.push(SessionKill {
            session: session.to_string(),
            after_messages,
        });
        self
    }

    /// Is the named session scheduled for a permanent kill?
    pub fn kills_session(&self, session: &str) -> bool {
        self.kills.iter().any(|k| k.session == session)
    }

    /// The faults armed for one connection attempt.
    pub fn for_attempt(&self, attempt: u32) -> Vec<Fault> {
        self.faults
            .iter()
            .filter(|f| f.attempt == attempt)
            .cloned()
            .collect()
    }

    /// The faults armed for one attempt of a *named* session: the
    /// per-attempt faults plus a reset for every kill targeting the
    /// session, re-armed on every attempt.
    pub fn for_session(&self, session: &str, attempt: u32) -> Vec<Fault> {
        let mut faults = self.for_attempt(attempt);
        faults.extend(
            self.kills
                .iter()
                .filter(|k| k.session == session)
                .map(|k| Fault {
                    attempt,
                    // `Messages(n)` fires ON the n-th send, so `after`
                    // clean sends means the cut lands on send after+1.
                    trigger: FaultTrigger::Messages(k.after_messages + 1),
                    kind: FaultKind::Reset,
                }),
        );
        faults
    }
}

/// Position of `cat` in [`ALL_CATEGORIES`] — exhaustive, so adding a
/// category is a compile error here until the counter array grows too.
fn cat_index(cat: Category) -> usize {
    match cat {
        Category::DiskPrecopy => 0,
        Category::DiskPush => 1,
        Category::DiskPull => 2,
        Category::Memory => 3,
        Category::Bitmap => 4,
        Category::Cpu => 5,
        Category::Control => 6,
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Shared fate of one wrapped connection: set once, observed by both
/// directions.
#[derive(Debug, Default)]
struct CutState {
    cut: AtomicBool,
    reason: Mutex<String>,
}

impl CutState {
    fn sever(&self, reason: String) {
        // First reason wins; later cuts (e.g. the peer's own shutdown)
        // keep the original diagnosis.
        let mut r = self.reason.lock();
        if !self.cut.swap(true, Ordering::SeqCst) {
            *r = reason;
        }
    }

    fn error(&self) -> TransportError {
        TransportError::Reset(self.reason.lock().clone())
    }

    fn is_cut(&self) -> bool {
        self.cut.load(Ordering::SeqCst)
    }
}

/// A [`Transport`] wrapper that injects the faults of a [`FaultPlan`].
///
/// Build connected pairs with [`faulty_pair`]; the plan is evaluated on
/// the first transport of the pair (by convention, the migration source).
pub struct FaultyTransport<T: Transport> {
    inner: T,
    shared: Arc<CutState>,
    faults: Mutex<Vec<Fault>>,
    sent_msgs: AtomicU64,
    sent_bytes: AtomicU64,
    sent_by_cat: Mutex<[u64; ALL_CATEGORIES.len()]>,
    telemetry: Mutex<Arc<Recorder>>,
}

/// How long receive paths wait between checks of the shared cut flag.
const CUT_POLL: Duration = Duration::from_millis(2);

impl<T: Transport> FaultyTransport<T> {
    fn new(inner: T, shared: Arc<CutState>, faults: Vec<Fault>) -> Self {
        Self {
            inner,
            shared,
            faults: Mutex::new(faults),
            sent_msgs: AtomicU64::new(0),
            sent_bytes: AtomicU64::new(0),
            sent_by_cat: Mutex::new([0; ALL_CATEGORIES.len()]),
            telemetry: Mutex::new(Recorder::off()),
        }
    }

    /// Wrap a single transport (no shared-fate peer wrapper) with the
    /// plan's faults for `attempt`. A fault fired here calls the inner
    /// transport's [`Transport::shutdown`], so a peer on the far side of
    /// a real socket still observes the failure as a dead stream.
    pub fn wrap(inner: T, plan: &FaultPlan, attempt: u32) -> Self {
        Self::new(
            inner,
            Arc::new(CutState::default()),
            plan.for_attempt(attempt),
        )
    }

    /// The fault (if any) fired by sending `msg` now. Counters include
    /// the message being sent, so `Messages(n)` fires ON the n-th send.
    fn fired_fault(&self, msg: &MigMessage) -> Option<Fault> {
        let msgs = self.sent_msgs.fetch_add(1, Ordering::SeqCst) + 1;
        let bytes = self.sent_bytes.fetch_add(msg.wire_size(), Ordering::SeqCst) + msg.wire_size();
        let cat = msg.category();
        let cat_idx = cat_index(cat);
        let cat_count = {
            let mut counts = self.sent_by_cat.lock();
            counts[cat_idx] += 1;
            counts[cat_idx]
        };
        let mut faults = self.faults.lock();
        let hit = faults.iter().position(|f| match f.trigger {
            FaultTrigger::Messages(n) => msgs >= n,
            FaultTrigger::Bytes(n) => bytes >= n,
            FaultTrigger::CategoryMessages(c, n) => c == cat && cat_count >= n,
        })?;
        Some(faults.swap_remove(hit))
    }

    /// Clone the attached recorder out of its cell. The lock guard is a
    /// temporary confined to this function, so callers (which may sleep
    /// on a Stall fault) never hold it across a blocking call.
    fn recorder(&self) -> Arc<Recorder> {
        self.telemetry.lock().clone()
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, msg: MigMessage) -> Result<(), TransportError> {
        if self.shared.is_cut() {
            return Err(self.shared.error());
        }
        if let Some(fault) = self.fired_fault(&msg) {
            // Journal the injection before acting on it: a Stall sleeps,
            // and no telemetry guard may be live across that, so the
            // recorder is cloned out behind a helper.
            let rec = self.recorder();
            let label = match fault.kind {
                FaultKind::Reset => FaultLabel::Reset,
                FaultKind::Stall(_) => FaultLabel::Stall,
                FaultKind::Truncate => FaultLabel::Truncate,
                FaultKind::Drop => FaultLabel::Drop,
            };
            let messages_before = self.sent_msgs.load(Ordering::SeqCst).saturating_sub(1);
            rec.record(|| Event::FaultInjected {
                fault: label,
                messages_before,
            });
            match fault.kind {
                FaultKind::Stall(dur) => std::thread::sleep(dur),
                FaultKind::Reset => {
                    self.shared
                        .sever(format!("injected reset at {:?}", fault.trigger));
                    self.inner.shutdown();
                    return Err(self.shared.error());
                }
                FaultKind::Truncate => {
                    // The sender believes the frame went out; the peer
                    // sees it cut short. Lost, plus a severed link.
                    self.shared
                        .sever(format!("injected truncated frame at {:?}", fault.trigger));
                    self.inner.shutdown();
                    return Ok(());
                }
                FaultKind::Drop => {
                    // The frame vanishes in flight; the link lives on.
                    // The sender cannot tell, and the next send goes
                    // through untouched.
                    return Ok(());
                }
            }
        }
        self.inner.send(msg)
    }

    fn recv(&self) -> Result<MigMessage, TransportError> {
        // Messages already in flight when the cut happened are still
        // delivered (data in the pipe survives a reset of the pipe);
        // only once the queue is dry does the cut surface.
        loop {
            match self.inner.try_recv() {
                Ok(msg) => return Ok(msg),
                Err(TransportError::Empty) => {}
                Err(e) => return Err(e),
            }
            if self.shared.is_cut() {
                return Err(self.shared.error());
            }
            match self.inner.recv_timeout(CUT_POLL) {
                Ok(msg) => return Ok(msg),
                Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<MigMessage, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.inner.try_recv() {
                Ok(msg) => return Ok(msg),
                Err(TransportError::Empty) => {}
                Err(e) => return Err(e),
            }
            if self.shared.is_cut() {
                return Err(self.shared.error());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(TransportError::Timeout);
            }
            match self.inner.recv_timeout(left.min(CUT_POLL)) {
                Ok(msg) => return Ok(msg),
                Err(TransportError::Timeout) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn try_recv(&self) -> Result<MigMessage, TransportError> {
        match self.inner.try_recv() {
            Err(TransportError::Empty) if self.shared.is_cut() => Err(self.shared.error()),
            other => other,
        }
    }

    fn sent_ledger(&self) -> TransferLedger {
        self.inner.sent_ledger()
    }

    fn link_ns_per_byte(&self) -> Option<f64> {
        self.inner.link_ns_per_byte()
    }

    fn shutdown(&self) {
        self.shared.sever("local shutdown".to_string());
        self.inner.shutdown();
    }

    fn set_telemetry(&self, recorder: &Arc<Recorder>, side: Side) {
        *self.telemetry.lock() = Arc::clone(recorder);
        self.inner.set_telemetry(recorder, side);
    }
}

impl<T: Transport> std::fmt::Debug for FaultyTransport<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTransport")
            .field("cut", &self.shared.is_cut())
            .field("sent_msgs", &self.sent_msgs.load(Ordering::SeqCst))
            .finish()
    }
}

/// Wrap a connected transport pair with a shared-fate fault injector.
/// The plan's faults for `attempt` are evaluated on sends from `a` (the
/// migration source); a fault fired there is observed on both sides.
pub fn faulty_pair<A: Transport, B: Transport>(
    a: A,
    b: B,
    plan: &FaultPlan,
    attempt: u32,
) -> (FaultyTransport<A>, FaultyTransport<B>) {
    let shared = Arc::new(CutState::default());
    (
        FaultyTransport::new(a, Arc::clone(&shared), plan.for_attempt(attempt)),
        FaultyTransport::new(b, Arc::clone(&shared), Vec::new()),
    )
}

/// Wrap a connected transport pair belonging to a *named* session: the
/// per-attempt faults arm as in [`faulty_pair`], and any
/// [`FaultPlan::kill_session`] targeting `session` re-arms on every
/// attempt, so a killed session dies no matter how often it reconnects.
pub fn faulty_named_pair<A: Transport, B: Transport>(
    a: A,
    b: B,
    plan: &FaultPlan,
    session: &str,
    attempt: u32,
) -> (FaultyTransport<A>, FaultyTransport<B>) {
    let shared = Arc::new(CutState::default());
    (
        FaultyTransport::new(a, Arc::clone(&shared), plan.for_session(session, attempt)),
        FaultyTransport::new(b, Arc::clone(&shared), Vec::new()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex;

    fn pull(block: u64) -> MigMessage {
        MigMessage::PullRequest { block }
    }

    #[test]
    fn reset_fires_at_exact_message_offset() {
        let (a, b) = duplex();
        let plan = FaultPlan::none().reset_after_messages(0, 3);
        let (a, b) = faulty_pair(a, b, &plan, 0);
        a.send(pull(1)).expect("1st");
        a.send(pull(2)).expect("2nd");
        assert!(matches!(a.send(pull(3)), Err(TransportError::Reset(_))));
        // Both directions are dead, with the diagnosis preserved.
        assert!(matches!(a.send(pull(4)), Err(TransportError::Reset(_))));
        // Messages in flight before the cut still arrive...
        assert_eq!(b.recv().expect("in flight"), pull(1));
        assert_eq!(b.recv().expect("in flight"), pull(2));
        // ...then the reset surfaces, with the diagnosis.
        match b.recv_timeout(Duration::from_millis(50)) {
            Err(TransportError::Reset(why)) => assert!(why.contains("Messages(3)"), "{why}"),
            other => panic!("peer must observe the reset, got {other:?}"),
        }
        assert!(matches!(b.send(pull(9)), Err(TransportError::Reset(_))));
    }

    #[test]
    fn byte_offset_trigger_counts_wire_size() {
        let (a, b) = duplex();
        // Each PullRequest is FRAME_OVERHEAD + 8 = 24 bytes: cut inside
        // the third message's window.
        let plan = FaultPlan::none().reset_after_bytes(0, 60);
        let (a, _b) = faulty_pair(a, b, &plan, 0);
        a.send(pull(1)).expect("24 bytes");
        a.send(pull(2)).expect("48 bytes");
        assert!(matches!(a.send(pull(3)), Err(TransportError::Reset(_))));
    }

    #[test]
    fn category_trigger_ignores_other_traffic() {
        let (a, b) = duplex();
        let plan = FaultPlan::none().reset_after_category(0, Category::DiskPush, 2);
        let (a, _b) = faulty_pair(a, b, &plan, 0);
        for i in 0..10 {
            a.send(pull(i)).expect("pulls are DiskPull traffic");
        }
        let push = |block| MigMessage::PostCopyBlock {
            block,
            pulled: false,
            payload_len: 16,
            payload: None,
        };
        a.send(push(1)).expect("1st push");
        assert!(matches!(a.send(push(2)), Err(TransportError::Reset(_))));
    }

    #[test]
    fn faults_arm_per_attempt() {
        let plan = FaultPlan::none()
            .reset_after_messages(0, 1)
            .reset_after_messages(1, 2);
        // Attempt 0: first send dies.
        let (a0, b0) = duplex();
        let (a0, _b0) = faulty_pair(a0, b0, &plan, 0);
        assert!(a0.send(pull(1)).is_err());
        // Attempt 1: survives one send, dies on the second.
        let (a1, b1) = duplex();
        let (a1, _b1) = faulty_pair(a1, b1, &plan, 1);
        a1.send(pull(1)).expect("attempt 1 survives the first send");
        assert!(a1.send(pull(2)).is_err());
        // Attempt 2: no faults armed.
        let (a2, b2) = duplex();
        let (a2, b2) = faulty_pair(a2, b2, &plan, 2);
        for i in 0..10 {
            a2.send(pull(i)).expect("attempt 2 is clean");
        }
        for i in 0..10 {
            assert_eq!(b2.recv().expect("delivery"), pull(i));
        }
    }

    #[test]
    fn stall_delays_but_does_not_kill() {
        let (a, b) = duplex();
        let plan = FaultPlan::none().stall_after_messages(0, 2, Duration::from_millis(40));
        let (a, b) = faulty_pair(a, b, &plan, 0);
        let start = Instant::now();
        a.send(pull(1)).expect("1st");
        a.send(pull(2)).expect("2nd (stalled)");
        assert!(start.elapsed() >= Duration::from_millis(40), "no stall");
        a.send(pull(3)).expect("3rd");
        for i in 1..=3 {
            assert_eq!(b.recv().expect("delivery"), pull(i));
        }
    }

    #[test]
    fn truncate_loses_the_frame_silently() {
        let (a, b) = duplex();
        let plan = FaultPlan::none().truncate_after_messages(0, 2);
        let (a, b) = faulty_pair(a, b, &plan, 0);
        a.send(pull(1)).expect("1st");
        // The truncated send *appears* to succeed...
        a.send(pull(2)).expect("sender cannot tell");
        // ...but the frame is lost and the link is dead behind it.
        assert_eq!(b.recv().expect("1st arrives"), pull(1));
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(50)),
            Err(TransportError::Reset(_))
        ));
        assert!(matches!(a.send(pull(3)), Err(TransportError::Reset(_))));
    }

    #[test]
    fn cat_index_agrees_with_all_categories_order() {
        for (i, &c) in ALL_CATEGORIES.iter().enumerate() {
            assert_eq!(cat_index(c), i, "{c:?} moved in ALL_CATEGORIES");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let p1 = FaultPlan::seeded_resets(42, 3, 10, 1000);
        let p2 = FaultPlan::seeded_resets(42, 3, 10, 1000);
        assert_eq!(p1, p2);
        assert_eq!(p1.faults.len(), 3);
        for (k, f) in p1.faults.iter().enumerate() {
            assert_eq!(f.attempt, k as u32);
            let FaultTrigger::Messages(n) = f.trigger else {
                panic!("seeded plans cut at message offsets")
            };
            assert!((10..1000).contains(&n));
        }
        assert_ne!(p1, FaultPlan::seeded_resets(43, 3, 10, 1000));
    }

    #[test]
    fn killed_session_dies_on_every_attempt() {
        // A reset disarms after firing once; a kill re-arms forever —
        // the difference between a flapping link and a dead host.
        let plan = FaultPlan::none().kill_session("peer-1", 2);
        assert!(plan.kills_session("peer-1"));
        assert!(!plan.kills_session("peer-0"));
        for attempt in 0..5 {
            let (a, b) = duplex();
            let (a, _b) = faulty_named_pair(a, b, &plan, "peer-1", attempt);
            a.send(pull(1)).expect("1st send survives");
            a.send(pull(2)).expect("2nd send survives");
            assert!(
                matches!(a.send(pull(3)), Err(TransportError::Reset(_))),
                "attempt {attempt} must die on the 3rd send"
            );
        }
        // Other sessions are untouched by the kill.
        let (a, b) = duplex();
        let (a, _b) = faulty_named_pair(a, b, &plan, "peer-0", 0);
        for i in 0..10 {
            a.send(pull(i)).expect("unkilled session is clean");
        }
    }

    #[test]
    fn drop_loses_the_frame_but_the_link_survives() {
        let (a, b) = duplex();
        let plan = FaultPlan::none().drop_after_messages(0, 2);
        let (a, b) = faulty_pair(a, b, &plan, 0);
        a.send(pull(1)).expect("1st");
        // The dropped send appears to succeed...
        a.send(pull(2)).expect("sender cannot tell");
        // ...and unlike Truncate the link survives it.
        a.send(pull(3)).expect("3rd goes through");
        assert_eq!(b.recv().expect("1st arrives"), pull(1));
        assert_eq!(b.recv().expect("3rd arrives, 2nd lost"), pull(3));
        assert_eq!(
            b.try_recv().expect_err("nothing else"),
            TransportError::Empty
        );
    }

    #[test]
    fn seeded_chaos_is_deterministic_and_within_bounds() {
        let p1 = FaultPlan::seeded_chaos(7, 2, 500, 40, 60, Duration::from_millis(8));
        let p2 = FaultPlan::seeded_chaos(7, 2, 500, 40, 60, Duration::from_millis(8));
        assert_eq!(p1, p2, "one seed, one schedule");
        assert_ne!(
            p1,
            FaultPlan::seeded_chaos(8, 2, 500, 40, 60, Duration::from_millis(8))
        );
        assert!(!p1.faults.is_empty(), "~10% of 1000 slots must fire");
        for f in &p1.faults {
            assert!(f.attempt < 2);
            let FaultTrigger::Messages(n) = f.trigger else {
                panic!("chaos cuts at message offsets")
            };
            assert!((1..=500).contains(&n));
            match f.kind {
                FaultKind::Drop => {}
                FaultKind::Stall(d) => {
                    assert!(d > Duration::ZERO && d <= Duration::from_millis(8));
                }
                ref other => panic!("chaos only drops and jitters, got {other:?}"),
            }
        }
    }

    #[test]
    fn clean_pair_is_transparent() {
        let (a, b) = duplex();
        let (a, b) = faulty_pair(a, b, &FaultPlan::none(), 0);
        a.send(MigMessage::Suspended).expect("send");
        assert_eq!(b.recv().expect("recv"), MigMessage::Suspended);
        assert_eq!(
            a.try_recv().expect_err("nothing queued"),
            TransportError::Empty
        );
        assert!(a.sent_ledger().total() > 0);
    }
}
