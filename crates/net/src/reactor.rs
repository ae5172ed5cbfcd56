//! The event-driven connection reactor.
//!
//! One thread runs a `poll(2)` readiness loop over a nonblocking listener
//! and every accepted connection (an *edge-tolerant* loop: readiness is
//! level-triggered, and every ready fd is drained to `WouldBlock`, so a
//! missed edge can never wedge a connection). Protocol logic lives in a
//! [`Handler`]: the reactor calls [`Handler::on_line`] for each complete
//! newline-terminated request line and [`Handler::on_close`] exactly once
//! per connection — promptly on client EOF/HUP, which is what lets a server
//! cancel in-flight work the moment its client vanishes.
//!
//! Responses flow back through the [`ReactorHandle`]: any thread (typically
//! a worker pool) calls [`ReactorHandle::send`], which appends to the
//! connection's capped write buffer and wakes the poller to flush. A
//! connection whose peer stops reading fills its write buffer to the
//! configured cap and is disconnected — memory per connection is bounded by
//! configuration, never by client behavior. Idle connections are reaped
//! after [`ReactorConfig::idle_timeout`]; shutdown drains pending writes
//! for up to [`ReactorConfig::drain_timeout`] before force-closing.

use crate::buffer::{ReadBuffer, WriteBuffer};
use crate::poller::{Poller, Waker};
use crate::sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
use spq_obs::{Counter, Named};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static LINES: Named<Counter> = Named::new("spq_net_lines_total", Counter::new());

/// Identifies one accepted connection for the lifetime of a reactor.
/// Never reused.
pub type ConnId = u64;

/// Reactor limits and timeouts.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Connections held open simultaneously; further accepts are closed
    /// immediately.
    pub max_connections: usize,
    /// Hard cap on one connection's buffered inbound bytes — effectively
    /// the longest admissible request line. Exceeding it disconnects.
    pub read_buffer_bytes: usize,
    /// Hard cap on one connection's unflushed outbound bytes. A peer that
    /// stops reading hits this cap and is disconnected rather than growing
    /// the buffer without bound.
    pub write_buffer_bytes: usize,
    /// Close connections with no inbound traffic for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// On shutdown, how long to keep flushing pending responses before
    /// force-closing the stragglers.
    pub drain_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 1024,
            read_buffer_bytes: 1 << 20,
            write_buffer_bytes: 4 << 20,
            idle_timeout: None,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// Why the reactor closed a connection (passed to [`Handler::on_close`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed or reset the connection (EOF / HUP / read error).
    PeerClosed,
    /// The inbound buffer cap was exceeded (overlong request line).
    ReadCapExceeded,
    /// The outbound buffer cap was exceeded (peer stopped reading).
    WriteCapExceeded,
    /// No inbound traffic within the idle timeout.
    IdleTimeout,
    /// The handler or owner asked for the close
    /// ([`ReactorHandle::close`]), or the reactor is shutting down.
    Requested,
}

/// Protocol logic driven by the reactor. Callbacks run **on the reactor
/// thread** and must not block: hand slow work to a pool and answer later
/// through the [`ReactorHandle`].
pub trait Handler: Send + Sync + 'static {
    /// A connection was accepted.
    fn on_open(&self, _conn: ConnId, _peer: SocketAddr) {}

    /// One complete request line arrived (terminator stripped; empty lines
    /// are filtered out by the reactor).
    fn on_line(&self, conn: ConnId, line: &str, reactor: &ReactorHandle);

    /// The connection is gone: the peer hung up, a buffer cap fired, the
    /// idle timer expired, or the reactor is shutting down. Called exactly
    /// once per accepted connection; in-flight work for the connection
    /// should be cancelled here.
    fn on_close(&self, _conn: ConnId, _reason: CloseReason) {}
}

/// One connection's cross-thread half: the write buffer workers append to,
/// and the kill switch.
#[derive(Debug)]
struct ConnShared {
    out: Mutex<WriteBuffer>,
    /// Set (with a reason) to make the reactor close this connection at the
    /// next loop iteration.
    kill: Mutex<Option<CloseReason>>,
}

impl ConnShared {
    fn request_close(&self, reason: CloseReason) {
        let mut kill = self.kill.lock().expect("kill flag poisoned");
        if kill.is_none() {
            *kill = Some(reason);
        }
    }
}

#[derive(Debug)]
struct Shared {
    conns: Mutex<HashMap<ConnId, Arc<ConnShared>>>,
    waker: Waker,
    stopping: AtomicBool,
    open: AtomicUsize,
}

/// Cloneable handle for talking to a running reactor from any thread.
#[derive(Clone, Debug)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    /// Queue `line` (newline appended) for delivery on `conn`. Returns
    /// `false` when the connection is already gone. When the append would
    /// exceed the connection's write-buffer cap the connection is marked
    /// for disconnect instead — a stalled reader never grows server memory
    /// past the cap.
    pub fn send(&self, conn: ConnId, line: &str) -> bool {
        let shared = {
            let conns = self.shared.conns.lock().expect("conn map poisoned");
            match conns.get(&conn) {
                Some(c) => c.clone(),
                None => return false,
            }
        };
        {
            let mut out = shared.out.lock().expect("write buffer poisoned");
            let mut pushed = out.push(line.as_bytes()).is_ok();
            if pushed {
                pushed = out.push(b"\n").is_ok();
            }
            if !pushed {
                shared.request_close(CloseReason::WriteCapExceeded);
            }
        }
        self.shared.waker.wake();
        true
    }

    /// Ask the reactor to close `conn` after flushing what is already
    /// buffered.
    pub fn close(&self, conn: ConnId) {
        let conns = self.shared.conns.lock().expect("conn map poisoned");
        if let Some(c) = conns.get(&conn) {
            c.request_close(CloseReason::Requested);
        }
        drop(conns);
        self.shared.waker.wake();
    }

    /// Connections currently open on this reactor.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Begin shutdown: stop accepting, drain, close. [`Reactor::shutdown`]
    /// calls this and then joins the thread.
    pub fn begin_shutdown(&self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }
}

/// One live connection as seen by the reactor thread.
struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    rbuf: ReadBuffer,
    last_inbound: Instant,
}

/// A running reactor; [`Reactor::shutdown`] (or drop) drains and joins it.
pub struct Reactor {
    handle: ReactorHandle,
    local_addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reactor {
    /// Take ownership of `listener` and serve it with `handler` on a new
    /// thread.
    pub fn start<H: Handler>(
        listener: TcpListener,
        handler: Arc<H>,
        config: ReactorConfig,
    ) -> std::io::Result<Reactor> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let shared = Arc::new(Shared {
            conns: Mutex::new(HashMap::new()),
            waker: poller.waker(),
            stopping: AtomicBool::new(false),
            open: AtomicUsize::new(0),
        });
        let handle = ReactorHandle {
            shared: shared.clone(),
        };
        let loop_handle = handle.clone();
        let thread = std::thread::Builder::new()
            .name("spq-net-reactor".into())
            .spawn(move || {
                let mut state = LoopState {
                    listener,
                    poller,
                    handler,
                    config,
                    shared,
                    handle: loop_handle,
                    conns: HashMap::new(),
                    next_id: 1,
                };
                state.run();
            })?;
        Ok(Reactor {
            handle,
            local_addr,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A cloneable cross-thread handle.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Stop accepting, drain pending writes (bounded by
    /// [`ReactorConfig::drain_timeout`]), close every connection, and join
    /// the reactor thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.handle.begin_shutdown();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

struct LoopState<H: Handler> {
    listener: TcpListener,
    poller: Poller,
    handler: Arc<H>,
    config: ReactorConfig,
    shared: Arc<Shared>,
    handle: ReactorHandle,
    conns: HashMap<ConnId, Conn>,
    next_id: ConnId,
}

impl<H: Handler> LoopState<H> {
    fn run(&mut self) {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut drain_started: Option<Instant> = None;
        loop {
            let stopping = self.shared.stopping.load(Ordering::SeqCst);
            if stopping && drain_started.is_none() {
                drain_started = Some(Instant::now());
            }
            if let Some(started) = drain_started {
                // Drain mode: flush what's buffered, close connections as
                // their buffers empty, force-close at the deadline.
                let deadline_hit = started.elapsed() >= self.config.drain_timeout;
                let ids: Vec<ConnId> = self.conns.keys().copied().collect();
                for id in ids {
                    let done = {
                        let conn = self.conns.get_mut(&id).expect("conn present");
                        let _ = flush_conn(conn);
                        conn.shared
                            .out
                            .lock()
                            .expect("write buffer poisoned")
                            .is_empty()
                    };
                    if done || deadline_hit {
                        self.close_conn(id, CloseReason::Requested);
                    }
                }
                if self.conns.is_empty() {
                    return;
                }
                // Wait for writability progress only.
                fds.clear();
                for conn in self.conns.values() {
                    fds.push(PollFd {
                        fd: conn.stream.as_raw_fd(),
                        events: POLLOUT,
                        revents: 0,
                    });
                }
                let _ = self.poller.wait(&mut fds, 50);
                continue;
            }

            // ---- build the interest set -------------------------------
            fds.clear();
            let mut order: Vec<Option<ConnId>> = Vec::new();
            // The listener stays in the interest set even at the connection
            // limit: over-limit clients are accepted and closed immediately
            // (a visible, counted rejection) instead of idling in the
            // kernel backlog.
            fds.push(PollFd {
                fd: self.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            order.push(None);
            for (&id, conn) in &self.conns {
                let mut events = POLLIN;
                if !conn
                    .shared
                    .out
                    .lock()
                    .expect("write buffer poisoned")
                    .is_empty()
                {
                    events |= POLLOUT;
                }
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                order.push(Some(id));
            }

            // A finite timeout bounds idle-reaping latency and guards
            // against a (theoretically) lost wake.
            let timeout_ms = match self.config.idle_timeout {
                Some(_) => 250,
                None => 1000,
            };
            if self.poller.wait(&mut fds, timeout_ms).is_err() {
                // poll failing outright (EBADF from a racing close) —
                // re-loop; individual fd errors surface as POLLNVAL next
                // round.
                continue;
            }

            // ---- dispatch readiness -----------------------------------
            for (slot, entry) in fds.iter().enumerate() {
                if entry.revents == 0 {
                    continue;
                }
                match order[slot] {
                    None => self.accept_ready(),
                    Some(id) => self.conn_ready(id, entry.revents),
                }
            }

            // ---- housekeeping: kill flags + idle timeout --------------
            let now = Instant::now();
            let mut to_close: Vec<(ConnId, CloseReason)> = Vec::new();
            for (&id, conn) in &self.conns {
                if let Some(reason) = *conn.shared.kill.lock().expect("kill flag poisoned") {
                    to_close.push((id, reason));
                } else if let Some(idle) = self.config.idle_timeout {
                    if now.duration_since(conn.last_inbound) >= idle {
                        to_close.push((id, CloseReason::IdleTimeout));
                    }
                }
            }
            for (id, reason) in to_close {
                // Give requested closes one last flush so already-queued
                // responses (e.g. an error message) reach the peer.
                if let Some(conn) = self.conns.get_mut(&id) {
                    let _ = flush_conn(conn);
                }
                self.close_conn(id, reason);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.conns.len() >= self.config.max_connections {
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    let shared = Arc::new(ConnShared {
                        out: Mutex::new(WriteBuffer::new(self.config.write_buffer_bytes)),
                        kill: Mutex::new(None),
                    });
                    self.shared
                        .conns
                        .lock()
                        .expect("conn map poisoned")
                        .insert(id, shared.clone());
                    self.shared.open.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            shared,
                            rbuf: ReadBuffer::new(self.config.read_buffer_bytes),
                            last_inbound: Instant::now(),
                        },
                    );
                    self.handler.on_open(id, peer);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, id: ConnId, revents: i16) {
        if revents & POLLNVAL != 0 {
            self.close_conn(id, CloseReason::PeerClosed);
            return;
        }
        // Read first: EOF/HUP detection is what makes disconnect-triggered
        // cancellation prompt, and POLLHUP can coincide with final bytes we
        // still want to parse.
        if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
            if let Err(reason) = self.read_and_dispatch(id) {
                // Flush any error line the handler queued before we close.
                if let Some(conn) = self.conns.get_mut(&id) {
                    let _ = flush_conn(conn);
                }
                self.close_conn(id, reason);
                return;
            }
        }
        if revents & POLLOUT != 0 {
            if let Some(conn) = self.conns.get_mut(&id) {
                if flush_conn(conn).is_err() {
                    self.close_conn(id, CloseReason::PeerClosed);
                }
            }
        }
    }

    /// Drain the socket, pump complete lines into the handler, and flush
    /// whatever the handler queued. Returns the close reason if the
    /// connection is finished.
    fn read_and_dispatch(&mut self, id: ConnId) -> Result<(), CloseReason> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = match self.conns.get_mut(&id) {
                Some(c) => c,
                None => return Ok(()),
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => return Err(CloseReason::PeerClosed),
                Ok(n) => {
                    conn.last_inbound = Instant::now();
                    if conn.rbuf.extend(&chunk[..n]).is_err() {
                        return Err(CloseReason::ReadCapExceeded);
                    }
                    // Pump every complete line before the next read so the
                    // read buffer stays small for pipelined clients.
                    while let Some(line) = {
                        let conn = self.conns.get_mut(&id).expect("conn present");
                        conn.rbuf.next_line()
                    } {
                        if line.trim().is_empty() {
                            continue;
                        }
                        LINES.inc();
                        self.handler.on_line(id, &line, &self.handle);
                    }
                    // The handler may have queued responses or requested a
                    // close; opportunistically flush now instead of waiting
                    // for the next POLLOUT round-trip.
                    let conn = match self.conns.get_mut(&id) {
                        Some(c) => c,
                        None => return Ok(()),
                    };
                    if flush_conn(conn).is_err() {
                        return Err(CloseReason::PeerClosed);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Err(CloseReason::PeerClosed),
            }
        }
    }

    fn close_conn(&mut self, id: ConnId, reason: CloseReason) {
        if let Some(conn) = self.conns.remove(&id) {
            self.shared
                .conns
                .lock()
                .expect("conn map poisoned")
                .remove(&id);
            self.shared.open.fetch_sub(1, Ordering::Relaxed);
            drop(conn);
            self.handler.on_close(id, reason);
        }
    }
}

/// Write as much buffered output as the socket accepts. `Err` means the
/// connection is dead.
fn flush_conn(conn: &mut Conn) -> Result<(), ()> {
    let mut out = conn.shared.out.lock().expect("write buffer poisoned");
    while !out.is_empty() {
        match conn.stream.write(out.pending()) {
            Ok(0) => return Err(()),
            Ok(n) => out.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}
