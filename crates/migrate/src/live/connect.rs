//! Connection establishment and re-establishment for live migration.
//!
//! The protocol engines never hold a transport across a failure; they
//! ask a [`Connector`] for attempt *k*'s connection and, when the link
//! dies mid-stream, come back for attempt *k+1*. Three implementations:
//!
//! * [`OnceConnector`] — wraps an existing transport; no reconnection
//!   (a fixed pair of transports, e.g. a test's instrumented link).
//! * [`DuplexConnector`] — in-process rendezvous that mints a fresh
//!   crossbeam duplex pair per attempt, wrapped in
//!   [`simnet::fault::FaultyTransport`] so a [`FaultPlan`] can sever
//!   specific attempts at specific wire offsets.
//! * [`TcpSourceConnector`] / [`TcpDestConnector`] — real sockets:
//!   connect-with-backoff on the source, re-accept on the destination.

use std::collections::HashMap;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use simnet::fault::{faulty_named_pair, FaultPlan, FaultyTransport};
use simnet::tcp::TcpTransport;
use simnet::transport::{duplex_windowed, Endpoint, Transport, SEND_WINDOW};
use telemetry::Side;

use crate::config::RetryPolicy;
use crate::live::error::MigrationError;

/// A factory for the migration link, invoked once per connection
/// attempt (attempt 0 is the initial connection).
pub trait Connector: Send {
    /// The transport this connector produces.
    type Link: Transport + 'static;

    /// Establish attempt `attempt`'s connection.
    fn connect(&mut self, attempt: u32) -> Result<Self::Link, MigrationError>;

    /// Tell the peer's connector this side will never connect again, so
    /// a peer blocked in [`Connector::connect`] can give up promptly.
    /// Call on final exit (success or failure). Default: no-op.
    fn abort(&self) {}
}

/// A connector around one pre-established transport: attempt 0 returns
/// it, any reconnect attempt fails, so a fixed pair of transports runs
/// through [`run_live_migration_connected`](crate::live::run_live_migration_connected)
/// and its first mid-stream failure surfaces as a [`MigrationError`].
pub struct OnceConnector<T: Transport>(Option<T>);

impl<T: Transport> OnceConnector<T> {
    /// Wrap an already-connected transport.
    pub fn new(t: T) -> Self {
        Self(Some(t))
    }
}

impl<T: Transport + 'static> Connector for OnceConnector<T> {
    type Link = T;

    fn connect(&mut self, attempt: u32) -> Result<T, MigrationError> {
        self.0.take().ok_or(MigrationError::Protocol {
            phase: "reconnect",
            detail: format!("transport cannot reconnect (attempt {attempt})"),
        })
    }
}

/// Shared state of a duplex rendezvous: the first side to ask for
/// attempt *k* mints the (fault-wrapped) pair, keeps its half, and
/// parks the peer's half here under `(k, peer_side)`. The fault plan is
/// evaluated on source sends.
struct Rendezvous {
    pending: Mutex<HashMap<(u32, Side), FaultyTransport<Endpoint>>>,
    aborted: AtomicBool,
}

/// In-process reconnecting link with fault injection; build pairs with
/// [`duplex_connector_pair`].
pub struct DuplexConnector {
    shared: Arc<Rendezvous>,
    side: Side,
    plan: FaultPlan,
    rate_limit: Option<f64>,
}

/// Create a source/destination connector pair sharing one rendezvous.
/// Each attempt *k* gets a fresh duplex channel wrapped with the plan's
/// attempt-*k* faults (evaluated on source sends); `rate_limit` paces
/// the source half of every attempt.
pub fn duplex_connector_pair(
    plan: FaultPlan,
    rate_limit: Option<f64>,
) -> (DuplexConnector, DuplexConnector) {
    let shared = Arc::new(Rendezvous {
        pending: Mutex::new(HashMap::new()),
        aborted: AtomicBool::new(false),
    });
    let mk = |side| DuplexConnector {
        shared: Arc::clone(&shared),
        side,
        plan: plan.clone(),
        rate_limit,
    };
    (mk(Side::Source), mk(Side::Destination))
}

impl Connector for DuplexConnector {
    type Link = FaultyTransport<Endpoint>;

    fn connect(&mut self, attempt: u32) -> Result<Self::Link, MigrationError> {
        if self.shared.aborted.load(Ordering::SeqCst) {
            return Err(MigrationError::Protocol {
                phase: "reconnect",
                detail: "peer will not reconnect".to_string(),
            });
        }
        let mut pending = self.shared.pending.lock();
        if let Some(mine) = pending.remove(&(attempt, self.side)) {
            return Ok(mine);
        }
        // First arriver for this attempt: mint the pair. Channels are
        // connected from birth, so we can start sending immediately; the
        // peer picks its half up whenever it gets here. Only the bulk
        // direction is windowed: the destination's bounces and pull
        // requests must never wait on the source.
        let (mut src_ep, dst_ep) = duplex_windowed(SEND_WINDOW);
        if let Some(limit) = self.rate_limit {
            src_ep.set_rate_limit(limit);
        }
        // The migration link belongs to the named session "source": a
        // `FaultPlan::kill_session("source", n)` re-arms on every
        // attempt, modeling a dead source host rather than a flapping
        // link. Plans without kills behave exactly as before.
        let (src, dst) = faulty_named_pair(src_ep, dst_ep, &self.plan, "source", attempt);
        let (mine, theirs, peer) = match self.side {
            Side::Source => (src, dst, Side::Destination),
            Side::Destination => (dst, src, Side::Source),
        };
        pending.insert((attempt, peer), theirs);
        Ok(mine)
    }

    fn abort(&self) {
        self.shared.aborted.store(true, Ordering::SeqCst);
    }
}

/// Source-side TCP connector: dials the destination with fixed backoff
/// until the policy's phase timeout, wrapping each connection with the
/// plan's faults for that attempt.
pub struct TcpSourceConnector {
    addr: String,
    plan: FaultPlan,
    rate_limit: Option<f64>,
    policy: RetryPolicy,
}

impl TcpSourceConnector {
    /// Dial `addr` (e.g. `127.0.0.1:7777`) for every attempt.
    pub fn new(addr: impl Into<String>, plan: FaultPlan, policy: RetryPolicy) -> Self {
        Self {
            addr: addr.into(),
            plan,
            rate_limit: None,
            policy,
        }
    }

    /// Pace every attempt's sends at `bytes_per_sec`.
    pub fn with_rate_limit(mut self, bytes_per_sec: f64) -> Self {
        self.rate_limit = Some(bytes_per_sec);
        self
    }
}

impl Connector for TcpSourceConnector {
    type Link = FaultyTransport<TcpTransport>;

    fn connect(&mut self, attempt: u32) -> Result<Self::Link, MigrationError> {
        let deadline = Instant::now() + self.policy.phase_timeout;
        let mut transport = loop {
            match TcpTransport::connect(&self.addr) {
                Ok(t) => break t,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(MigrationError::Io(format!(
                            "connect to {} (attempt {attempt}): {e}",
                            self.addr
                        )));
                    }
                    std::thread::sleep(self.policy.backoff);
                }
            }
        };
        if let Some(limit) = self.rate_limit {
            transport.set_rate_limit(limit);
        }
        Ok(FaultyTransport::wrap(transport, &self.plan, attempt))
    }
}

/// Destination-side TCP connector: accepts one connection per attempt
/// on a bound listener.
pub struct TcpDestConnector {
    listener: TcpListener,
    policy: RetryPolicy,
    aborted: Arc<AtomicBool>,
}

impl TcpDestConnector {
    /// Bind `addr` and accept one connection per attempt.
    pub fn bind(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, MigrationError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            policy,
            aborted: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address, for handing to the source.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, MigrationError> {
        Ok(self.listener.local_addr()?)
    }
}

impl Connector for TcpDestConnector {
    type Link = TcpTransport;

    fn connect(&mut self, attempt: u32) -> Result<TcpTransport, MigrationError> {
        let deadline = Instant::now() + self.policy.phase_timeout;
        loop {
            if self.aborted.load(Ordering::SeqCst) {
                return Err(MigrationError::Protocol {
                    phase: "reconnect",
                    detail: "peer will not reconnect".to_string(),
                });
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(TcpTransport::new(stream)?);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(MigrationError::Timeout {
                            phase: "accept",
                            waited: self.policy.phase_timeout,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(MigrationError::Io(format!(
                        "accept (attempt {attempt}): {e}"
                    )))
                }
            }
        }
    }

    fn abort(&self) {
        self.aborted.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::proto::MigMessage;
    use simnet::transport::duplex;

    #[test]
    fn once_connector_yields_exactly_once() {
        let (a, _b) = duplex();
        let mut c = OnceConnector::new(a);
        let t = c.connect(0).expect("first connect");
        drop(t);
        assert!(matches!(c.connect(1), Err(MigrationError::Protocol { .. })));
    }

    #[test]
    fn duplex_rendezvous_pairs_attempts() {
        let (mut src, mut dst) = duplex_connector_pair(FaultPlan::none(), None);
        // Source arrives first, can send before the dest picks up.
        let s0 = src.connect(0).expect("src attempt 0");
        s0.send(MigMessage::Suspended).expect("queued");
        let d0 = dst.connect(0).expect("dst attempt 0");
        assert_eq!(d0.recv().expect("delivered"), MigMessage::Suspended);
        // A second attempt gets a *fresh* channel, not the old one.
        let d1 = dst.connect(1).expect("dst attempt 1");
        let s1 = src.connect(1).expect("src attempt 1");
        s1.send(MigMessage::Resumed).expect("queued");
        assert_eq!(d1.recv().expect("delivered"), MigMessage::Resumed);
    }

    #[test]
    fn duplex_abort_fails_future_connects() {
        let (mut src, dst) = duplex_connector_pair(FaultPlan::none(), None);
        dst.abort();
        assert!(src.connect(0).is_err());
    }

    #[test]
    fn tcp_connectors_reconnect() {
        let policy = RetryPolicy {
            phase_timeout: Duration::from_secs(5),
            ..RetryPolicy::default()
        };
        let mut dst = TcpDestConnector::bind("127.0.0.1:0", policy.clone()).expect("bind");
        let addr = dst.local_addr().expect("addr").to_string();
        for attempt in 0..2 {
            let join = std::thread::spawn({
                let mut s =
                    TcpSourceConnector::new(addr.clone(), FaultPlan::none(), policy.clone());
                move || s.connect(attempt).expect("source connects")
            });
            let d = dst.connect(attempt).expect("dest accepts");
            let s = join.join().expect("source thread");
            s.send(MigMessage::PrepareAck).expect("send");
            assert_eq!(d.recv().expect("recv"), MigMessage::PrepareAck);
        }
    }
}
