//! The spqd TCP server: one poll(2) reactor feeding a worker pool.
//!
//! Architecture (std only, no async runtime):
//!
//! * A single [`spq_net::Reactor`] thread owns every socket: it accepts
//!   connections, frames NDJSON lines out of capped read buffers, flushes
//!   capped write buffers, reaps idle peers, and notices a hung-up client at
//!   the next poll — no thread per connection.
//! * The reactor's [`Handler`] answers cheap admin ops (`ping`, `stats`,
//!   `cancel`, `unload_relation`, `list_relations`) inline. Heavy ops
//!   (`query`, `validate`, `load_relation`) are stamped with their admission
//!   time and one [`Deadline`], which carries a fresh [`CancellationToken`],
//!   and admitted to the **job pool**. A full pool rejects the request
//!   immediately (`status:"rejected"`) — admission control over buffering,
//!   so latency stays bounded under overload — and so does a duplicate
//!   in-flight id, through the same refusal path.
//! * The pool is one mutex + condvar guarding per-tenant subqueues drained
//!   in round-robin rotation: one tenant flooding the server cannot starve
//!   another's queued work, and an idle worker wakes for any queued job.
//! * **Worker threads** run [`SpqService::execute_cached`] (queries) or
//!   [`SpqService::execute_validate`] / catalog loads, then write the
//!   response line back through the [`ReactorHandle`] (responses are tagged
//!   with the request id and may interleave across in-flight queries of the
//!   same connection).
//!
//! Cancellation is per connection: `{"op":"cancel","id":"..."}` fires the
//! token of that connection's in-flight query (the connection's registry
//! keeps each job's token), which the solver observes through the job's
//! deadline at its next pivot-loop checkpoint. One client cannot cancel
//! another's queries — and a client that *disconnects* has every in-flight
//! query cancelled the moment the reactor notices the hangup, so abandoned
//! work stops burning CPU.

use crate::json::object_line;
use crate::protocol::{
    LoadRequest, QueryRequest, QueryResponse, QueryStatus, Request, ValidateRequest,
    ValidateResponse,
};
use crate::service::{hit_rate, SpqService};
use spq_net::{CloseReason, ConnId, Handler, Reactor, ReactorConfig, ReactorHandle};
use spq_obs::{Counter, Named};
use spq_solver::{CancellationToken, Deadline};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Requests refused at admission (pool full or duplicate id).
static REJECTS: Named<Counter> = Named::new("spq_service_rejects_total", Counter::new());

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads evaluating queries. `0` = the machine's available
    /// parallelism.
    pub workers: usize,
    /// Maximum queued (admitted but not yet running) jobs before admission
    /// control rejects new ones.
    pub queue_capacity: usize,
    /// Connections held open simultaneously; further accepts are closed
    /// immediately.
    pub max_connections: usize,
    /// Hard cap on one connection's buffered inbound bytes (longest
    /// admissible request line).
    pub read_buffer_bytes: usize,
    /// Hard cap on one connection's unflushed outbound bytes; a peer that
    /// stops reading is disconnected at this cap instead of growing the
    /// buffer without bound.
    pub write_buffer_bytes: usize,
    /// Close connections with no inbound traffic for this long
    /// (`None` = never).
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let reactor = ReactorConfig::default();
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            max_connections: reactor.max_connections,
            read_buffer_bytes: reactor.read_buffer_bytes,
            write_buffer_bytes: reactor.write_buffer_bytes,
            idle_timeout: None,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        }
    }
}

/// The work item a job carries: a query evaluation, a package validation,
/// or a catalog load (relation builders and file reads are far too heavy
/// for the reactor thread). All go through the same admission control,
/// pool, cancellation registry and worker threads.
enum JobWork {
    Query(QueryRequest),
    Validate(ValidateRequest),
    Load(LoadRequest),
}

impl JobWork {
    fn id(&self) -> &str {
        match self {
            JobWork::Query(q) => &q.id,
            JobWork::Validate(v) => &v.id,
            JobWork::Load(l) => &l.id,
        }
    }

    fn tenant(&self) -> &str {
        let tenant = match self {
            JobWork::Query(q) => &q.tenant,
            JobWork::Validate(v) => &v.tenant,
            JobWork::Load(l) => &l.tenant,
        };
        SpqService::tenant_of(tenant)
    }

    fn timeout_ms(&self) -> Option<u64> {
        match self {
            JobWork::Query(q) => q.timeout_ms,
            JobWork::Validate(v) => v.timeout_ms,
            // Loads run to completion; quota checks bound their size.
            JobWork::Load(_) => None,
        }
    }

    /// The rejection/failure line matching this work item's response shape.
    fn failure_line(&self, status: QueryStatus, message: String) -> String {
        match self {
            JobWork::Query(q) => QueryResponse::failure(&q.id, status, message).to_line(),
            JobWork::Validate(v) => ValidateResponse::failure(&v.id, status, message).to_line(),
            JobWork::Load(l) => load_ack_error(&l.id, &message),
        }
    }
}

fn load_ack_error(id: &str, message: &str) -> String {
    object_line(|w| {
        w.field("op", "load_ack")
            .field("id", id)
            .field("status", "error")
            .field("error", message);
    })
}

/// One connection's server-side state: the in-flight cancellation tokens.
#[derive(Default)]
struct ConnState {
    /// Request id → cancellation token of this connection's admitted jobs.
    inflight: Mutex<HashMap<String, CancellationToken>>,
}

impl ConnState {
    fn inflight(&self) -> MutexGuard<'_, HashMap<String, CancellationToken>> {
        self.inflight.lock().expect("inflight registry poisoned")
    }
}

struct Job {
    work: JobWork,
    conn: ConnId,
    state: Arc<ConnState>,
    deadline: Deadline,
    enqueued: Instant,
}

/// The queued jobs: per-tenant subqueues drained in rotation, so tenants
/// share the queue's capacity fairly instead of first-come-first-served.
#[derive(Default)]
struct FairQueue {
    /// Tenant → its queued jobs. Entries exist only while non-empty.
    queues: HashMap<String, VecDeque<Box<Job>>>,
    /// Rotation order over `queues` keys.
    tenants: Vec<String>,
    /// Next rotation index to serve.
    cursor: usize,
    shutdown: bool,
}

impl FairQueue {
    fn push(&mut self, job: Box<Job>) {
        let tenant = job.work.tenant().to_string();
        match self.queues.get_mut(&tenant) {
            Some(queue) => queue.push_back(job),
            None => {
                self.queues.insert(tenant.clone(), VecDeque::from([job]));
                self.tenants.push(tenant);
            }
        }
    }

    /// Pop the next job in tenant rotation. The invariant that every listed
    /// tenant has a non-empty queue makes the first probe succeed.
    fn fair_pop(&mut self) -> Option<Box<Job>> {
        if self.tenants.is_empty() {
            return None;
        }
        let idx = self.cursor % self.tenants.len();
        let tenant = self.tenants[idx].clone();
        let queue = self.queues.get_mut(&tenant)?;
        let job = queue.pop_front()?;
        if queue.is_empty() {
            self.queues.remove(&tenant);
            self.tenants.remove(idx);
            self.cursor = if self.tenants.is_empty() {
                0
            } else {
                idx % self.tenants.len()
            };
        } else {
            self.cursor = (idx + 1) % self.tenants.len();
        }
        Some(job)
    }

    fn len(&self) -> usize {
        self.queues.values().map(VecDeque::len).sum()
    }
}

/// Bounded, tenant-fair MPMC job pool: one lock, one condvar.
struct Pool {
    queue: Mutex<FairQueue>,
    /// Signalled when a job is queued or the pool shuts down.
    available: Condvar,
    /// Queued jobs at which admission control rejects new ones.
    capacity: usize,
    /// Jobs currently executing on a worker.
    in_flight: AtomicUsize,
    /// Requests refused at admission since startup.
    rejected: AtomicU64,
}

impl Pool {
    fn new(capacity: usize) -> Self {
        Pool {
            queue: Mutex::new(FairQueue::default()),
            available: Condvar::new(),
            capacity: capacity.max(1),
            in_flight: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Admit a job, or give it back when the pool is at capacity.
    fn push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        {
            let mut queue = self.queue.lock().expect("job queue poisoned");
            if queue.len() >= self.capacity {
                return Err(job);
            }
            queue.push(job);
        }
        self.available.notify_one();
        Ok(())
    }

    /// Block until a job is available or the pool shuts down. Jobs queued
    /// before the shutdown still run.
    fn pop(&self) -> Option<Box<Job>> {
        let mut queue = self.queue.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = queue.fair_pop() {
                return Some(job);
            }
            if queue.shutdown {
                return None;
            }
            queue = self.available.wait(queue).expect("job queue poisoned");
        }
    }

    fn len(&self) -> usize {
        self.queue.lock().expect("job queue poisoned").len()
    }

    fn shutdown(&self) {
        self.queue.lock().expect("job queue poisoned").shutdown = true;
        self.available.notify_all();
    }
}

/// Everything the reactor handler and the workers share.
struct ServerShared {
    service: Arc<SpqService>,
    pool: Arc<Pool>,
    /// Live connections' server-side state (in-flight tokens).
    conns: Mutex<HashMap<ConnId, Arc<ConnState>>>,
}

impl ServerShared {
    fn conn_state(&self, conn: ConnId) -> Option<Arc<ConnState>> {
        self.conns
            .lock()
            .expect("conn table poisoned")
            .get(&conn)
            .cloned()
    }

    /// Admit one heavy work item: register its cancellation token (refusing
    /// a duplicate in-flight id), arm its deadline, and push it onto the
    /// pool — or answer with a `rejected`/`error` line in this work item's
    /// response shape.
    fn admit(&self, conn: ConnId, work: JobWork, reactor: &ReactorHandle) {
        let Some(state) = self.conn_state(conn) else {
            return; // Connection already gone; nobody to answer.
        };
        let tenant = work.tenant().to_string();
        // A load's admission is counted once the load resolves (in the
        // worker): a tenant's first load creates the tenant it counts
        // against.
        let count_admit = !matches!(work, JobWork::Load(_));
        let token = CancellationToken::new();
        let deadline = self.service.deadline_with(work.timeout_ms(), &token);
        // A duplicate in-flight id would clobber the first query's
        // cancellation token (and the worker completing either one would
        // deregister both): refuse it.
        let duplicate = match state.inflight().entry(work.id().to_string()) {
            Entry::Occupied(_) => true,
            Entry::Vacant(slot) => {
                slot.insert(token);
                false
            }
        };
        let refused = if duplicate {
            Err((
                work,
                QueryStatus::Error,
                "a query with this id is already in flight on this connection".to_string(),
            ))
        } else {
            let job = Box::new(Job {
                work,
                conn,
                state: state.clone(),
                deadline,
                enqueued: Instant::now(),
            });
            self.pool.push(job).map_err(|job| {
                job.state.inflight().remove(job.work.id());
                let message = format!("queue full ({} queued)", self.pool.len());
                (job.work, QueryStatus::Rejected, message)
            })
        };
        match refused {
            Ok(()) if count_admit => self.service.catalog().record_admit(&tenant),
            Ok(()) => {}
            Err((work, status, message)) => {
                REJECTS.inc();
                self.pool.rejected.fetch_add(1, Ordering::Relaxed);
                self.service.catalog().record_reject(&tenant);
                reactor.send(conn, &work.failure_line(status, message));
            }
        }
    }

    /// The `stats` response: service-level sections plus transport state.
    fn stats_line(&self, reactor: &ReactorHandle) -> String {
        self.service.stats_line(|w| {
            w.field("queue_depth", self.pool.len())
                .field("in_flight", self.pool.in_flight.load(Ordering::Relaxed))
                .field("open_connections", reactor.open_connections())
                .field(
                    "rejected_admissions",
                    self.pool.rejected.load(Ordering::Relaxed),
                );
        })
    }
}

/// The reactor-side protocol handler. Runs on the reactor thread: cheap ops
/// answer inline, heavy ops go through [`ServerShared::admit`].
struct ConnHandler {
    shared: Arc<ServerShared>,
}

impl Handler for ConnHandler {
    fn on_open(&self, conn: ConnId, _peer: SocketAddr) {
        self.shared
            .conns
            .lock()
            .expect("conn table poisoned")
            .insert(conn, Arc::new(ConnState::default()));
    }

    fn on_line(&self, conn: ConnId, line: &str, reactor: &ReactorHandle) {
        let shared = &self.shared;
        match Request::parse_line(line) {
            Ok(Request::Ping) => {
                let line = object_line(|w| {
                    w.field("op", "pong");
                });
                reactor.send(conn, &line);
            }
            Ok(Request::Stats) => {
                reactor.send(conn, &shared.stats_line(reactor));
            }
            Ok(Request::Cancel { id }) => {
                let found = shared
                    .conn_state(conn)
                    .and_then(|state| state.inflight().get(&id).map(|token| token.cancel()))
                    .is_some();
                let line = object_line(|w| {
                    w.field("op", "cancel_ack")
                        .field("id", &id)
                        .field("found", found);
                });
                reactor.send(conn, &line);
            }
            Ok(Request::Unload { name, tenant }) => {
                let tenant = SpqService::tenant_of(&tenant);
                let unloaded = shared.service.catalog().unload(tenant, &name);
                let line = object_line(|w| {
                    w.field("op", "unload_ack")
                        .field("name", name.to_ascii_lowercase());
                    match unloaded {
                        Ok(()) => w.field("status", "ok"),
                        Err(e) => w.field("status", "error").field("error", e.to_string()),
                    };
                });
                reactor.send(conn, &line);
            }
            Ok(Request::ListRelations { tenant }) => {
                let tenant = SpqService::tenant_of(&tenant);
                let relations = shared.service.catalog().list(tenant);
                let line = object_line(|w| {
                    w.field("op", "relations").field("tenant", tenant);
                    w.objects("relations", &relations, |w, info| {
                        w.field("name", &info.name)
                            .field("tuples", info.tuples)
                            .field("source", &info.source)
                            .field("shared", info.shared)
                            .field("storage", info.storage)
                            .field("resident_bytes", info.resident_bytes)
                            .field("disk_bytes", info.disk_bytes);
                        if let Some(cache) = &info.chunk_cache {
                            w.object("chunk_cache", |w| {
                                w.field("hits", cache.hits)
                                    .field("misses", cache.misses)
                                    .field("evictions", cache.evictions)
                                    .field("hit_rate", hit_rate(cache.hits, cache.misses));
                            });
                        }
                    });
                });
                reactor.send(conn, &line);
            }
            Ok(Request::Query(request)) => {
                shared.admit(conn, JobWork::Query(request), reactor);
            }
            Ok(Request::Validate(request)) => {
                shared.admit(conn, JobWork::Validate(request), reactor);
            }
            Ok(Request::Load(request)) => {
                shared.admit(conn, JobWork::Load(request), reactor);
            }
            Err(message) => {
                let line = object_line(|w| {
                    w.field("status", "error").field("error", &message);
                });
                reactor.send(conn, &line);
            }
        }
    }

    fn on_close(&self, conn: ConnId, _reason: CloseReason) {
        // The client is gone: nobody is left to read the answers, so every
        // in-flight job of this connection is cancelled (the solver observes
        // the token at its next checkpoint and stops burning CPU).
        let state = self
            .shared
            .conns
            .lock()
            .expect("conn table poisoned")
            .remove(&conn);
        if let Some(state) = state {
            for token in state.inflight().values() {
                token.cancel();
            }
        }
    }
}

fn worker_loop(pool: &Pool, service: &SpqService, reactor: &ReactorHandle) {
    while let Some(job) = pool.pop() {
        pool.in_flight.fetch_add(1, Ordering::Relaxed);
        let line = match &job.work {
            JobWork::Query(request) => service
                .execute_cached(request, job.deadline.clone(), job.enqueued.elapsed())
                .to_line(),
            JobWork::Validate(request) => service
                .execute_validate(request, job.deadline.clone(), job.enqueued.elapsed())
                .to_line(),
            JobWork::Load(request) => {
                let tenant = job.work.tenant();
                let line = if job.deadline.is_cancelled() {
                    load_ack_error(&request.id, "cancelled while queued")
                } else {
                    match service.catalog().load_with(
                        tenant,
                        &request.name,
                        &request.source,
                        request.storage,
                    ) {
                        Ok(tuples) => object_line(|w| {
                            w.field("op", "load_ack")
                                .field("id", &request.id)
                                .field("name", request.name.to_ascii_lowercase())
                                .field("tenant", tenant)
                                .field("tuples", tuples)
                                .field("storage", request.storage.as_str())
                                .field("status", "ok");
                        }),
                        Err(e) => {
                            // Quota refusals are per-tenant admission
                            // rejections; surface them in the stats op.
                            service.catalog().record_reject(tenant);
                            load_ack_error(&request.id, &e.to_string())
                        }
                    }
                };
                service.catalog().record_admit(tenant);
                line
            }
        };
        pool.in_flight.fetch_sub(1, Ordering::Relaxed);
        job.state.inflight().remove(job.work.id());
        // A vanished client is not an error: the send is a no-op.
        reactor.send(job.conn, &line);
    }
}

/// A running spqd server; dropping it (or calling [`SpqServer::shutdown`])
/// stops the pool, joins the workers, drains pending responses and joins
/// the reactor.
pub struct SpqServer {
    addr: SocketAddr,
    pool: Arc<Pool>,
    reactor: Option<Reactor>,
    worker_threads: Vec<std::thread::JoinHandle<()>>,
}

impl SpqServer {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`, port 0 for ephemeral) and start
    /// serving `service`.
    pub fn start(
        service: Arc<SpqService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<SpqServer> {
        let listener = TcpListener::bind(addr)?;
        let pool = Arc::new(Pool::new(config.queue_capacity));
        let shared = Arc::new(ServerShared {
            service: service.clone(),
            pool: pool.clone(),
            conns: Mutex::new(HashMap::new()),
        });
        let reactor = Reactor::start(
            listener,
            Arc::new(ConnHandler {
                shared: shared.clone(),
            }),
            ReactorConfig {
                max_connections: config.max_connections,
                read_buffer_bytes: config.read_buffer_bytes,
                write_buffer_bytes: config.write_buffer_bytes,
                idle_timeout: config.idle_timeout,
                ..ReactorConfig::default()
            },
        )?;
        let addr = reactor.local_addr();
        let handle = reactor.handle();
        let worker_threads = (0..config.effective_workers())
            .map(|i| {
                let pool = pool.clone();
                let service = service.clone();
                let handle = handle.clone();
                std::thread::Builder::new()
                    .name(format!("spqd-worker-{i}"))
                    .spawn(move || worker_loop(&pool, &service, &handle))
                    .expect("spawn worker")
            })
            .collect();
        Ok(SpqServer {
            addr,
            pool,
            reactor: Some(reactor),
            worker_threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the pool, join the workers (their final responses flush through
    /// the reactor's drain), and join the reactor.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.pool.shutdown();
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
        if let Some(reactor) = self.reactor.take() {
            reactor.shutdown();
        }
    }
}

impl Drop for SpqServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use spq_core::SpqOptions;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn tiny_service() -> Arc<SpqService> {
        let service = SpqService::new(ServiceConfig {
            base_options: SpqOptions::for_tests(),
            ..Default::default()
        });
        let relation = RelationBuilder::new("t")
            .deterministic_f64("price", vec![100.0, 100.0, 100.0])
            .stochastic(
                "gain",
                NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]),
            )
            .build()
            .unwrap();
        service.register_relation("t", relation);
        Arc::new(service)
    }

    #[test]
    fn ping_stats_and_malformed_lines() {
        let server = SpqServer::start(tiny_service(), "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let write = |line: &str| (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut read = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        write(r#"{"op":"ping"}"#);
        assert!(read().contains("pong"));
        write(r#"{"op":"stats"}"#);
        let stats = read();
        assert!(stats.contains("queue_depth") && stats.contains("scenario_cache"));
        assert!(stats.contains("open_connections") && stats.contains("rejected_admissions"));
        write("this is not json");
        assert!(read().contains("error"));
        write(r#"{"op":"cancel","id":"ghost"}"#);
        assert!(read().contains("\"found\":false"));
        server.shutdown();
    }

    #[test]
    fn a_validate_op_round_trips_over_tcp() {
        let server = SpqServer::start(tiny_service(), "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut s = &stream;
        s.write_all(
            concat!(
                r#"{"op":"validate","id":"v1","relation":"t","query":"SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)","package":[[0,1]],"validation_scenarios":400}"#,
                "\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = ValidateResponse::parse_line(line.trim_end()).unwrap();
        assert_eq!(response.id, "v1");
        assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
        assert!(response.feasible, "one copy of the safe tuple validates");
        assert_eq!(response.scenarios_used, 400);
        assert_eq!(response.constraints.len(), 1);
        assert!(response.wall_ms > 0.0);
        server.shutdown();
    }

    #[test]
    fn a_query_round_trips_over_tcp() {
        let server = SpqServer::start(tiny_service(), "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut s = &stream;
        s.write_all(
            concat!(
                r#"{"id":"q1","relation":"t","query":"SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)","validation_scenarios":400}"#,
                "\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = QueryResponse::parse_line(&line).unwrap();
        assert_eq!(response.id, "q1");
        assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
        assert!(response.feasible);
        assert!(!response.package.is_empty());
        assert!(response.wall_ms > 0.0);
        server.shutdown();
    }

    #[test]
    fn stats_report_latency_and_cache_counters_over_tcp() {
        let server = SpqServer::start(tiny_service(), "127.0.0.1:0", ServerConfig::default())
            .expect("server starts");
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut s = &stream;
        s.write_all(
            concat!(
                r#"{"id":"q1","relation":"t","query":"SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)","validation_scenarios":400}"#,
                "\n"
            )
            .as_bytes(),
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let response = QueryResponse::parse_line(&line).unwrap();
        assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);

        s.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut stats_line = String::new();
        reader.read_line(&mut stats_line).unwrap();
        let stats = crate::json::parse(stats_line.trim_end()).expect("stats is valid JSON");

        // Per-op latency: the one executed query is in the histogram with
        // non-zero quantiles; the validate histogram is still empty.
        let latency = stats.get("latency").expect("latency object");
        let query = latency.get("query").unwrap();
        assert_eq!(query.get("count").unwrap().as_u64(), Some(1));
        assert!(query.get("p50_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(query.get("p99_ms").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            latency
                .get("validate")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(0)
        );

        // Cache counters: the first compile is a miss, nothing evicted yet,
        // and the scenario cache reports a hit rate in [0, 1].
        let prepared = stats.get("prepared_cache").unwrap();
        assert_eq!(prepared.get("misses").unwrap().as_u64(), Some(1));
        assert!(prepared.get("hit_rate").unwrap().as_f64().is_some());
        let results = stats.get("result_cache").unwrap();
        assert_eq!(results.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(results.get("entries").unwrap().as_u64(), Some(1));
        let scenario = stats.get("scenario_cache").unwrap();
        assert_eq!(scenario.get("evicted").unwrap().as_u64(), Some(0));
        let rate = scenario.get("hit_rate").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&rate));
        // Without --scenario-store the disk tier reports disabled/zeroed.
        let store = stats.get("scenario_store").unwrap();
        assert_eq!(store.get("enabled").unwrap().as_bool(), Some(false));
        assert_eq!(store.get("spill_writes").unwrap().as_u64(), Some(0));
        // Transport state rides along.
        assert_eq!(stats.get("open_connections").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("in_flight").unwrap().as_u64(), Some(0));
        server.shutdown();
    }

    #[test]
    fn scenario_store_counters_round_trip_over_tcp() {
        // A service with the disk tier enabled: after one query the store
        // holds spilled blocks; after a "restart" (second service over the
        // same directory, same workload parameters) the same query is
        // served by store reads — all visible through the `stats` op.
        let dir = std::env::temp_dir().join(format!("spqd-store-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let query_line = concat!(
            r#"{"id":"q1","relation":"t","query":"SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)","validation_scenarios":400}"#,
            "\n"
        );
        let run_once = || {
            let service = SpqService::new(ServiceConfig {
                base_options: SpqOptions::for_tests(),
                scenario_store_dir: Some(dir.clone()),
                ..Default::default()
            });
            let relation = RelationBuilder::new("t")
                .deterministic_f64("price", vec![100.0, 100.0, 100.0])
                .stochastic(
                    "gain",
                    NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]),
                )
                .build()
                .unwrap();
            service.register_relation("t", relation);
            let server =
                SpqServer::start(Arc::new(service), "127.0.0.1:0", ServerConfig::default())
                    .expect("server starts");
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut s = &stream;
            s.write_all(query_line.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let response = QueryResponse::parse_line(&line).unwrap();
            assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
            s.write_all(b"{\"op\":\"stats\"}\n").unwrap();
            let mut stats_line = String::new();
            reader.read_line(&mut stats_line).unwrap();
            let stats = crate::json::parse(stats_line.trim_end()).expect("stats is valid JSON");
            server.shutdown();
            stats.get("scenario_store").unwrap().clone()
        };

        let first = run_once();
        assert_eq!(first.get("enabled").unwrap().as_bool(), Some(true));
        let spilled = first.get("spill_writes").unwrap().as_u64().unwrap();
        assert!(spilled > 0, "first run must spill realized blocks");
        assert_eq!(first.get("reads").unwrap().as_u64(), Some(0));
        assert!(first.get("bytes").unwrap().as_u64().unwrap() > 0);

        let second = run_once();
        assert!(
            second.get("reads").unwrap().as_u64().unwrap() > 0,
            "warm restart must serve blocks from the store: {second:?}"
        );
        assert_eq!(
            second.get("spill_writes").unwrap().as_u64(),
            Some(0),
            "nothing should regenerate on a warm restart"
        );
        assert_eq!(second.get("corrupt").unwrap().as_u64(), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_fair_rotation_interleaves_queued_tenants() {
        // Directly exercise the queue's rotation: tenant `a` floods the
        // queue first, then `b` adds one job — `b`'s job must run second,
        // not last.
        let mut state = FairQueue::default();
        let job = |tenant: &str, id: &str| {
            Box::new(Job {
                work: JobWork::Query(QueryRequest {
                    id: id.into(),
                    relation: "t".into(),
                    query: "q".into(),
                    tenant: Some(tenant.into()),
                    algorithm: None,
                    timeout_ms: None,
                    seed: None,
                    initial_scenarios: None,
                    max_scenarios: None,
                    validation_scenarios: None,
                }),
                conn: 1,
                state: Arc::new(ConnState::default()),
                deadline: Deadline::none(),
                enqueued: Instant::now(),
            })
        };
        for i in 0..3 {
            state.push(job("a", &format!("a{i}")));
        }
        state.push(job("b", "b0"));
        let order: Vec<String> = std::iter::from_fn(|| state.fair_pop())
            .map(|j| j.work.id().to_string())
            .collect();
        assert_eq!(order, vec!["a0", "b0", "a1", "a2"]);
        assert!(state.queues.is_empty() && state.tenants.is_empty());
    }
}
