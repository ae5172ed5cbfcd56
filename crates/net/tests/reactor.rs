//! End-to-end reactor tests over real TCP sockets: echo service, write-cap
//! disconnect of a stalled reader, idle-timeout reaping, prompt close
//! notification on client drop, and graceful drain on shutdown.

use spq_net::{CloseReason, ConnId, Handler, Reactor, ReactorConfig, ReactorHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Echoes every line back, optionally amplified, and records lifecycle
/// events for assertions.
struct Echo {
    /// Bytes of padding appended to each echo (drives write-cap tests).
    pad: usize,
    opened: AtomicUsize,
    /// Lines answered so far.
    lines: AtomicUsize,
    closed: AtomicUsize,
    close_reasons: Mutex<Vec<(ConnId, CloseReason)>>,
}

impl Echo {
    fn new(pad: usize) -> Arc<Self> {
        Arc::new(Echo {
            pad,
            opened: AtomicUsize::new(0),
            lines: AtomicUsize::new(0),
            closed: AtomicUsize::new(0),
            close_reasons: Mutex::new(Vec::new()),
        })
    }
}

impl Handler for Echo {
    fn on_open(&self, _conn: ConnId, _peer: SocketAddr) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }

    fn on_line(&self, conn: ConnId, line: &str, reactor: &ReactorHandle) {
        let mut reply = String::from(line);
        reply.extend(std::iter::repeat_n('x', self.pad));
        reactor.send(conn, &reply);
        self.lines.fetch_add(1, Ordering::SeqCst);
    }

    fn on_close(&self, conn: ConnId, reason: CloseReason) {
        self.closed.fetch_add(1, Ordering::SeqCst);
        self.close_reasons.lock().unwrap().push((conn, reason));
    }
}

fn start(handler: Arc<Echo>, config: ReactorConfig) -> Reactor {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    Reactor::start(listener, handler, config).unwrap()
}

fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn echoes_lines_across_many_connections() {
    let handler = Echo::new(0);
    let reactor = start(handler.clone(), ReactorConfig::default());
    let addr = reactor.local_addr();

    let mut clients: Vec<_> = (0..8)
        .map(|_| {
            let stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            BufReader::new(stream)
        })
        .collect();
    for (i, client) in clients.iter_mut().enumerate() {
        // Two pipelined lines, plus a blank one the reactor must skip.
        client
            .get_mut()
            .write_all(format!("hello {i}\n\nworld {i}\n").as_bytes())
            .unwrap();
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let mut line = String::new();
        client.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), format!("hello {i}"));
        line.clear();
        client.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), format!("world {i}"));
    }
    assert_eq!(reactor.handle().open_connections(), 8);
    drop(clients);
    wait_until("all closes observed", || {
        handler.closed.load(Ordering::SeqCst) == 8
    });
    assert_eq!(reactor.handle().open_connections(), 0);
    reactor.shutdown();
}

#[test]
fn stalled_reader_is_disconnected_at_the_write_cap() {
    // Each request echoes ~4 KiB; the write cap holds two of those. A client
    // that keeps sending but never reads must be disconnected, not buffered.
    let handler = Echo::new(4096);
    let config = ReactorConfig {
        write_buffer_bytes: 8192,
        ..ReactorConfig::default()
    };
    let reactor = start(handler.clone(), config);
    let mut client = TcpStream::connect(reactor.local_addr()).unwrap();
    client.set_nodelay(true).unwrap();

    // Never read; just keep asking for output until the server hangs up.
    let mut disconnected = false;
    for _ in 0..10_000 {
        if client.write_all(b"gimme\n").is_err() {
            disconnected = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        if handler.closed.load(Ordering::SeqCst) == 1 {
            disconnected = true;
            break;
        }
    }
    assert!(disconnected, "server never dropped the stalled reader");
    wait_until("close recorded", || {
        handler.closed.load(Ordering::SeqCst) == 1
    });
    let reasons = handler.close_reasons.lock().unwrap();
    assert_eq!(reasons[0].1, CloseReason::WriteCapExceeded);
    drop(reasons);
    reactor.shutdown();
}

#[test]
fn overlong_request_line_is_disconnected_at_the_read_cap() {
    let handler = Echo::new(0);
    let config = ReactorConfig {
        read_buffer_bytes: 1024,
        ..ReactorConfig::default()
    };
    let reactor = start(handler.clone(), config);
    let mut client = TcpStream::connect(reactor.local_addr()).unwrap();
    // 1 MiB with no newline: the server must cut us off near 1 KiB.
    let blob = vec![b'a'; 1 << 20];
    let _ = client.write_all(&blob);
    wait_until("read-cap close", || {
        handler.closed.load(Ordering::SeqCst) == 1
    });
    let reasons = handler.close_reasons.lock().unwrap();
    assert_eq!(reasons[0].1, CloseReason::ReadCapExceeded);
    drop(reasons);
    reactor.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let handler = Echo::new(0);
    let config = ReactorConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..ReactorConfig::default()
    };
    let reactor = start(handler.clone(), config);
    let mut client = TcpStream::connect(reactor.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wait_until("open observed", || {
        handler.opened.load(Ordering::SeqCst) == 1
    });

    let started = Instant::now();
    let mut buf = [0u8; 16];
    // The server closes us; read returns 0 (EOF).
    let n = client.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected server-side close");
    assert!(started.elapsed() >= Duration::from_millis(200));
    wait_until("idle close recorded", || {
        handler.closed.load(Ordering::SeqCst) == 1
    });
    assert_eq!(
        handler.close_reasons.lock().unwrap()[0].1,
        CloseReason::IdleTimeout
    );
    reactor.shutdown();
}

#[test]
fn client_drop_is_noticed_promptly() {
    let handler = Echo::new(0);
    let reactor = start(handler.clone(), ReactorConfig::default());
    let client = TcpStream::connect(reactor.local_addr()).unwrap();
    wait_until("open observed", || {
        handler.opened.load(Ordering::SeqCst) == 1
    });

    let started = Instant::now();
    drop(client);
    wait_until("close observed", || {
        handler.closed.load(Ordering::SeqCst) == 1
    });
    // EOF must surface via poll readiness, not an idle/poll timeout sweep.
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "close took {:?}",
        started.elapsed()
    );
    assert_eq!(
        handler.close_reasons.lock().unwrap()[0].1,
        CloseReason::PeerClosed
    );
    reactor.shutdown();
}

#[test]
fn shutdown_drains_pending_responses() {
    let handler = Echo::new(0);
    let reactor = start(handler.clone(), ReactorConfig::default());
    let stream = TcpStream::connect(reactor.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut client = BufReader::new(stream);
    client.get_mut().write_all(b"parting words\n").unwrap();
    // An open connection is not yet a handled line: shutting down with the
    // request still unread resets the socket instead of answering it.
    wait_until("line handled", || handler.lines.load(Ordering::SeqCst) == 1);

    // Shut down immediately; the queued echo must still arrive, then EOF.
    reactor.shutdown();
    let mut line = String::new();
    client.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "parting words");
    line.clear();
    assert_eq!(
        client.read_line(&mut line).unwrap(),
        0,
        "clean EOF after drain"
    );
    assert_eq!(handler.closed.load(Ordering::SeqCst), 1);
}

#[test]
fn connection_limit_turns_away_excess_clients() {
    let handler = Echo::new(0);
    let config = ReactorConfig {
        max_connections: 2,
        ..ReactorConfig::default()
    };
    let reactor = start(handler.clone(), config);
    let addr = reactor.local_addr();
    let keep: Vec<_> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    wait_until("two admitted", || reactor.handle().open_connections() == 2);

    // The third connects at the TCP level but the reactor closes it.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 1];
    let n = extra.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "expected immediate close for over-limit client");
    assert_eq!(reactor.handle().open_connections(), 2);
    drop(keep);
    reactor.shutdown();
}
