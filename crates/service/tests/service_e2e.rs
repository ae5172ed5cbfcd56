//! End-to-end tests of spqd over real TCP connections.
//!
//! Covers the acceptance criteria of the service subsystem:
//! * 8 and 64 concurrent clients over one shared relation produce
//!   **bit-identical** packages to a serial evaluation of the same requests;
//! * a `cancel` op interrupts a solve mid-flight (the pivot-loop checkpoint)
//!   and answers promptly — and a *disconnect* does the same without any op;
//! * admission control rejects requests once the bounded queue is full, and
//!   an idle worker starts a queued job without delay;
//! * a stalled reader is disconnected at the write-buffer cap instead of
//!   growing server memory;
//! * the relation catalog round-trips over the wire: `load_relation` →
//!   query → `unload_relation`, tenant isolation, quota admission errors;
//! * the `stats` op exposes catalog and reactor state, and lists only the
//!   tenants that hold a relation (plus the default tenant);
//! * the ε certificate's wire contract: `validate` responses carry it,
//!   `query` responses are byte-identical to the recorded ones.

use spq_core::{Algorithm, SpqOptions};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{Relation, RelationBuilder};
use spq_service::prelude::*;
use spq_service::Request;
use spq_workloads::{build_workload, WorkloadKind};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_service_config() -> ServiceConfig {
    ServiceConfig {
        base_options: SpqOptions::for_tests(),
        default_timeout: Some(Duration::from_secs(120)),
        ..Default::default()
    }
}

/// One NDJSON client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        let line = format!("{line}\n");
        self.stream.write_all(line.as_bytes()).expect("send");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "server closed the connection");
        line.trim_end().to_string()
    }

    /// Read `n` query responses (skipping interleaved admin acks); they may
    /// arrive in any completion order, so callers look them up by id.
    fn recv_responses(&mut self, n: usize) -> std::collections::HashMap<String, QueryResponse> {
        let mut responses = std::collections::HashMap::new();
        while responses.len() < n {
            let line = self.recv_line();
            if let Ok(response) = QueryResponse::parse_line(&line) {
                responses.insert(response.id.clone(), response);
            }
        }
        responses
    }
}

fn portfolio_request(id: &str, query: &str) -> QueryRequest {
    QueryRequest {
        id: id.to_string(),
        relation: "portfolio".to_string(),
        query: query.to_string(),
        tenant: None,
        algorithm: Some(Algorithm::SummarySearch),
        timeout_ms: Some(60_000),
        seed: Some(11),
        initial_scenarios: Some(20),
        max_scenarios: Some(100),
        validation_scenarios: Some(500),
    }
}

#[test]
fn concurrent_clients_get_bit_identical_packages() {
    let workload = build_workload(WorkloadKind::Portfolio, 400, 7);
    // Q1 and Q2 have distinct text (p = 0.9 vs 0.95); Q3 would alias Q1 in
    // the prepared cache.
    let queries: Vec<String> = vec![workload.query(1).to_string(), workload.query(2).to_string()];

    // Serial reference: the same requests through a fresh service, one at a
    // time.
    let serial = SpqService::new(test_service_config());
    serial.register_relation("portfolio", workload.relation.clone());
    let reference: Vec<QueryResponse> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let request = portfolio_request(&format!("ref-{i}"), q);
            let token = spq_solver::CancellationToken::new();
            let deadline = serial.deadline_with(request.timeout_ms, &token);
            let response = serial.execute(&request, deadline, Duration::ZERO);
            assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
            assert!(response.feasible, "reference query {i} must be feasible");
            response
        })
        .collect();

    // Concurrent runs at 8 and 64 clients, each client sending both
    // queries, against one shared service per level.
    for clients in [8, 64] {
        let service = Arc::new(SpqService::new(test_service_config()));
        service.register_relation("portfolio", workload.relation.clone());
        let server = SpqServer::start(
            service.clone(),
            "127.0.0.1:0",
            ServerConfig {
                workers: 8,
                // Every client pipelines both queries.
                queue_capacity: 2 * clients + 8,
                max_connections: clients + 16,
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let addr = server.local_addr();

        std::thread::scope(|scope| {
            for client_id in 0..clients {
                let queries = queries.clone();
                type PackageAndObjective = (Vec<(usize, u32)>, Option<f64>);
                let reference: Vec<PackageAndObjective> = reference
                    .iter()
                    .map(|r| (r.package.clone(), r.objective))
                    .collect();
                scope.spawn(move || {
                    let mut client = Client::connect(addr);
                    // Pipeline both queries, then collect both responses.
                    for (i, q) in queries.iter().enumerate() {
                        let request = portfolio_request(&format!("c{client_id}-q{i}"), q);
                        client.send(&Request::Query(request).to_line());
                    }
                    // Responses come back in completion order, not send order.
                    let responses = client.recv_responses(queries.len());
                    for (i, (expected_package, expected_objective)) in reference.iter().enumerate()
                    {
                        let response = &responses[&format!("c{client_id}-q{i}")];
                        assert_eq!(
                            response.status,
                            QueryStatus::Ok,
                            "client {client_id} query {i}: {:?}",
                            response.error
                        );
                        assert_eq!(
                            &response.package, expected_package,
                            "client {client_id} query {i}: package differs from serial run"
                        );
                        assert_eq!(
                            &response.objective, expected_objective,
                            "client {client_id} query {i}: objective differs from serial run"
                        );
                    }
                });
            }
        });

        // The caches did real sharing: `clients` × 2 queries ran exactly two
        // solves — the single-flight result cache answered every other request
        // bit-identically.
        assert_eq!(service.result_cache().misses(), 2);
        assert_eq!(service.result_cache().hits(), 2 * clients as u64 - 2);
        assert_eq!(service.prepared_cache().misses(), 2);
        assert!(
            service.scenario_cache().hits() > 0,
            "concurrent solves must share scenario blocks"
        );
        server.shutdown();
    }
}

/// A relation whose very first Naïve MILP runs for tens of seconds — the
/// cancellation target.
fn heavy_relation(n: usize) -> Relation {
    let means: Vec<f64> = (0..n).map(|i| 4.0 + (i % 13) as f64 * 0.4).collect();
    let sds: Vec<f64> = (0..n).map(|i| 6.0 + (i % 7) as f64 * 1.5).collect();
    RelationBuilder::new("heavy")
        .deterministic_f64("price", vec![100.0; n])
        .stochastic("gain", NormalNoise::around(means, sds))
        .build()
        .unwrap()
}

const HEAVY_QUERY: &str = "SELECT PACKAGE(*) FROM heavy \
                           SUCH THAT SUM(price) <= 1000 AND \
                           SUM(gain) >= 30 WITH PROBABILITY >= 0.95 \
                           MAXIMIZE EXPECTED SUM(gain)";

fn heavy_request(id: &str) -> QueryRequest {
    QueryRequest {
        id: id.to_string(),
        relation: "heavy".to_string(),
        query: HEAVY_QUERY.to_string(),
        tenant: None,
        algorithm: Some(Algorithm::Naive),
        timeout_ms: Some(600_000),
        seed: None,
        initial_scenarios: Some(80),
        max_scenarios: Some(800),
        validation_scenarios: Some(1000),
    }
}

#[test]
fn cancel_interrupts_a_solve_mid_flight() {
    let service = Arc::new(SpqService::new(test_service_config()));
    service.register_relation("heavy", heavy_relation(2000));
    let server = SpqServer::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(server.local_addr());
    let started = Instant::now();
    client.send(&Request::Query(heavy_request("slow")).to_line());
    // Give the worker time to get deep into the first MILP, then cancel.
    std::thread::sleep(Duration::from_millis(400));
    client.send(&Request::Cancel { id: "slow".into() }.to_line());

    // The ack (written by the reader) and the response (written by the
    // worker once the solve unwinds) race; accept either order.
    let mut saw_ack = false;
    let response = loop {
        let line = client.recv_line();
        if line.contains("cancel_ack") {
            assert!(line.contains("\"found\":true"), "unexpected ack: {line}");
            saw_ack = true;
            continue;
        }
        if let Ok(response) = QueryResponse::parse_line(&line) {
            if response.id == "slow" {
                break response;
            }
        }
    };
    assert!(saw_ack, "cancel_ack never arrived");
    let elapsed = started.elapsed();
    assert_eq!(response.status, QueryStatus::Cancelled);
    assert!(
        elapsed < Duration::from_secs(10),
        "cancellation took {elapsed:?}; an uninterrupted solve runs 20s+"
    );
    server.shutdown();
}

#[test]
fn admission_control_rejects_when_the_queue_is_full() {
    let service = Arc::new(SpqService::new(test_service_config()));
    service.register_relation("heavy", heavy_relation(2000));
    // One worker, queue of one: the third-and-later concurrent heavy
    // queries cannot all be admitted.
    let server = SpqServer::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(server.local_addr());
    let ids: Vec<String> = (0..4).map(|i| format!("h{i}")).collect();
    for id in &ids {
        client.send(&Request::Query(heavy_request(id)).to_line());
    }
    // Rejections are written synchronously at admission: of four heavy
    // requests against one busy worker and a queue of one, at least two are
    // rejected, and those answers arrive before any admitted query can
    // finish (an uninterrupted solve runs 20s+).
    let mut statuses: Vec<(String, QueryStatus)> = Vec::new();
    for _ in 0..2 {
        let line = client.recv_line();
        let response = QueryResponse::parse_line(&line).expect("query response");
        assert_eq!(
            response.status,
            QueryStatus::Rejected,
            "expected immediate rejections first, got: {line}"
        );
        statuses.push((response.id, response.status));
    }
    // Cancel everything still in flight so the test and shutdown are fast
    // (cancelling an already-rejected id is a found:false no-op).
    for id in &ids {
        client.send(&Request::Cancel { id: id.clone() }.to_line());
    }
    // Drain until all four queries have answered.
    while statuses.len() < ids.len() {
        let line = client.recv_line();
        if let Ok(response) = QueryResponse::parse_line(&line) {
            statuses.push((response.id, response.status));
        }
    }
    let rejected = statuses
        .iter()
        .filter(|(_, s)| *s == QueryStatus::Rejected)
        .count();
    let cancelled = statuses
        .iter()
        .filter(|(_, s)| *s == QueryStatus::Cancelled)
        .count();
    assert!(rejected >= 2, "statuses: {statuses:?}");
    assert_eq!(rejected + cancelled, 4, "statuses: {statuses:?}");
    server.shutdown();
}

#[test]
fn an_idle_worker_starts_a_queued_job_at_once() {
    let service = Arc::new(SpqService::new(test_service_config()));
    let relation = RelationBuilder::new("t")
        .deterministic_f64("price", vec![100.0, 100.0, 100.0])
        .stochastic(
            "gain",
            NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]),
        )
        .build()
        .unwrap();
    service.register_relation("t", relation);
    let server = SpqServer::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let validate = |id: &str, scenarios: usize| {
        Request::Validate(ValidateRequest {
            id: id.to_string(),
            relation: "t".to_string(),
            query: "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND \
                    SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)"
                .to_string(),
            tenant: None,
            package: vec![(0, 1)],
            validation_scenarios: Some(scenarios),
            seed: Some(11),
            timeout_ms: Some(600_000),
            early_stop: None,
            threads: Some(1),
        })
        .to_line()
    };

    // One worker busy with a validation of a billion scenarios...
    let mut busy = Client::connect(server.local_addr());
    busy.send(&validate("long", 1_000_000_000));
    let mut client = Client::connect(server.local_addr());
    loop {
        client.send(r#"{"op":"stats"}"#);
        let stats = spq_service::json::parse(&client.recv_line()).expect("stats json");
        if stats.get("in_flight").unwrap().as_u64() == Some(1) {
            break;
        }
    }
    // ...while short jobs arrive one at a time: the other worker is idle
    // for each of them, so they do not wait in the queue. The bound is on
    // the median, so one job delayed by the scheduler cannot fail it.
    let mut queue_ms = Vec::new();
    for i in 0..10 {
        client.send(&validate(&format!("short{i}"), 200));
        let reply = ValidateResponse::parse_line(&client.recv_line()).expect("validate response");
        assert_eq!(reply.status, QueryStatus::Ok, "{:?}", reply.error);
        queue_ms.push(reply.queue_ms);
        // The short job finished while the long one still ran.
        client.send(r#"{"op":"stats"}"#);
        let stats = spq_service::json::parse(&client.recv_line()).expect("stats json");
        assert_eq!(
            stats.get("in_flight").unwrap().as_u64(),
            Some(1),
            "after short{i}"
        );
    }
    queue_ms.sort_by(f64::total_cmp);
    let median = (queue_ms[4] + queue_ms[5]) / 2.0;
    assert!(
        median < 5.0,
        "short jobs waited {median} ms (median) for an idle worker: {queue_ms:?}"
    );

    busy.send(&Request::Cancel { id: "long".into() }.to_line());
    let long = loop {
        let line = busy.recv_line();
        if let Ok(reply) = ValidateResponse::parse_line(&line) {
            break reply;
        }
    };
    assert_eq!(long.status, QueryStatus::Cancelled, "{:?}", long.error);
    server.shutdown();
}

#[test]
fn a_stalled_reader_is_disconnected_at_the_write_cap() {
    // A client that requests responses but never reads them must be cut
    // off once its unflushed output hits the configured cap — not grow
    // server memory without bound, and not stall a worker.
    let service = Arc::new(SpqService::new(test_service_config()));
    let server = SpqServer::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            write_buffer_bytes: 8 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");

    let mut client = Client::connect(server.local_addr());
    client
        .stream
        .set_write_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Each stats response is ~1.5 KiB. Never reading, the kernel socket
    // buffers fill first, then the server-side write buffer hits its 8 KiB
    // cap and the server disconnects us (visible as a write error once the
    // reset arrives, or EOF when draining).
    let mut disconnected = false;
    for _ in 0..50_000 {
        if client.stream.write_all(b"{\"op\":\"stats\"}\n").is_err() {
            disconnected = true;
            break;
        }
    }
    if !disconnected {
        // Writes may have been absorbed locally; the buffered responses
        // must end in EOF, not an unbounded stream.
        client
            .stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut buf = [0u8; 64 * 1024];
        loop {
            match std::io::Read::read(&mut client.reader, &mut buf) {
                Ok(0) => {
                    disconnected = true;
                    break;
                }
                Ok(_) => continue,
                Err(_) => break,
            }
        }
    }
    assert!(
        disconnected,
        "the server never disconnected a reader stalled past the write cap"
    );

    // The server is still healthy: a well-behaved client round-trips.
    let mut fresh = Client::connect(server.local_addr());
    fresh.send(r#"{"op":"ping"}"#);
    assert!(fresh.recv_line().contains("pong"));
    server.shutdown();
}

#[test]
fn client_disconnect_cancels_an_in_flight_solve() {
    // No cancel op, no timeout: the client just vanishes. The reactor
    // notices the hangup at the next poll and fires the connection's
    // in-flight tokens, so the worker unwinds long before the 600s request
    // deadline (an uninterrupted solve runs 20s+).
    let service = Arc::new(SpqService::new(test_service_config()));
    service.register_relation("heavy", heavy_relation(2000));
    let server = SpqServer::start(
        service,
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServerConfig::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let mut victim = Client::connect(addr);
    victim.send(&Request::Query(heavy_request("doomed")).to_line());
    // Let the worker get deep into the MILP.
    std::thread::sleep(Duration::from_millis(400));

    let mut observer = Client::connect(addr);
    let in_flight = |observer: &mut Client| -> u64 {
        observer.send(r#"{"op":"stats"}"#);
        let stats = spq_service::json::parse(&observer.recv_line()).expect("stats json");
        stats.get("in_flight").unwrap().as_u64().unwrap()
    };
    assert_eq!(in_flight(&mut observer), 1, "the solve must be running");

    drop(victim);
    let started = Instant::now();
    while in_flight(&mut observer) > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "disconnect did not cancel the in-flight solve"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    // Cancelled well before the request deadline could expire.
    assert!(started.elapsed() < Duration::from_secs(10));
    server.shutdown();
}

/// `load_relation` ack lines are plain JSON (not query responses); pull the
/// fields the tests assert on.
fn recv_ack(client: &mut Client, op: &str) -> spq_service::Json {
    let line = client.recv_line();
    let json = spq_service::json::parse(&line).unwrap_or_else(|e| panic!("bad ack `{line}`: {e}"));
    assert_eq!(json.str_field("op"), Some(op), "unexpected ack: {line}");
    json
}

#[test]
fn catalog_lifecycle_round_trips_over_tcp() {
    // Start with an empty catalog: everything the client queries it must
    // load itself.
    let service = Arc::new(SpqService::new(test_service_config()));
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let workload = build_workload(WorkloadKind::Portfolio, 300, 9);
    let query = workload.query(1).to_string();

    let mut alice = Client::connect(addr);
    let mut bob = Client::connect(addr);

    // Load → query → unload as tenant alice.
    alice.send(
        r#"{"op":"load_relation","id":"l1","name":"portfolio","tenant":"alice","workload":"portfolio","scale":300,"seed":9}"#,
    );
    let ack = recv_ack(&mut alice, "load_ack");
    assert_eq!(ack.str_field("status"), Some("ok"), "{ack:?}");
    let alice_tuples = ack.get("tuples").unwrap().as_u64().unwrap();
    assert!(alice_tuples >= 300);

    let mut request = portfolio_request("a1", &query);
    request.tenant = Some("alice".into());
    alice.send(&Request::Query(request.clone()).to_line());
    let response = QueryResponse::parse_line(&alice.recv_line()).expect("query response");
    assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
    assert!(response.feasible);

    // Bob sees no such relation: alice's load is invisible to him.
    let mut bobs = portfolio_request("b1", &query);
    bobs.tenant = Some("bob".into());
    bob.send(&Request::Query(bobs).to_line());
    let response = QueryResponse::parse_line(&bob.recv_line()).expect("query response");
    assert_eq!(response.status, QueryStatus::Error);
    assert!(
        response
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unknown relation"),
        "{:?}",
        response.error
    );

    // Bob loads his own relation under the *same name* — different scale,
    // fully isolated from alice's.
    bob.send(
        r#"{"op":"load_relation","id":"l2","name":"portfolio","tenant":"bob","workload":"portfolio","scale":150,"seed":3}"#,
    );
    let ack = recv_ack(&mut bob, "load_ack");
    assert_eq!(ack.str_field("status"), Some("ok"), "{ack:?}");
    let bob_tuples = ack.get("tuples").unwrap().as_u64().unwrap();
    assert_ne!(alice_tuples, bob_tuples, "tenants must be isolated");

    bob.send(r#"{"op":"list_relations","tenant":"bob"}"#);
    let listed = recv_ack(&mut bob, "relations");
    let relations = listed.get("relations").unwrap().as_array().unwrap();
    assert_eq!(relations.len(), 1);
    assert_eq!(relations[0].str_field("name"), Some("portfolio"));
    assert_eq!(
        relations[0].get("tuples").unwrap().as_u64(),
        Some(bob_tuples)
    );
    assert_eq!(relations[0].get("shared").unwrap().as_bool(), Some(false));

    // Unload: alice's relation disappears for her queries; a second unload
    // is a clean error, as is unloading a name bob never loaded.
    alice.send(r#"{"op":"unload_relation","name":"portfolio","tenant":"alice"}"#);
    let ack = recv_ack(&mut alice, "unload_ack");
    assert_eq!(ack.str_field("status"), Some("ok"));
    request.id = "a2".into();
    alice.send(&Request::Query(request).to_line());
    let response = QueryResponse::parse_line(&alice.recv_line()).expect("query response");
    assert_eq!(response.status, QueryStatus::Error);
    assert!(
        response
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unknown relation"),
        "{:?}",
        response.error
    );
    alice.send(r#"{"op":"unload_relation","name":"portfolio","tenant":"alice"}"#);
    let ack = recv_ack(&mut alice, "unload_ack");
    assert_eq!(ack.str_field("status"), Some("error"));
    assert!(ack
        .str_field("error")
        .unwrap_or("")
        .contains("unknown relation"));
    server.shutdown();
}

#[test]
fn disk_backed_relations_round_trip_with_storage_accounting() {
    // The full storage-tier loop over real TCP: load with `"storage":"disk"`,
    // query it (paging chunks through the cache), and read the accounting
    // back through `list_relations` (per-relation bytes + chunk-cache stats)
    // and `stats` (process-wide counters + per-tenant byte totals).
    let service = Arc::new(SpqService::new(test_service_config()));
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let workload = build_workload(WorkloadKind::Portfolio, 300, 9);
    let query = workload.query(1).to_string();

    let mut client = Client::connect(addr);
    client.send(
        r#"{"op":"load_relation","id":"l1","name":"portfolio","tenant":"carol","workload":"portfolio","scale":300,"seed":9,"storage":"disk"}"#,
    );
    let ack = recv_ack(&mut client, "load_ack");
    assert_eq!(ack.str_field("status"), Some("ok"), "{ack:?}");
    assert_eq!(ack.str_field("storage"), Some("disk"));

    let mut request = portfolio_request("d1", &query);
    request.tenant = Some("carol".into());
    client.send(&Request::Query(request).to_line());
    let response = QueryResponse::parse_line(&client.recv_line()).expect("query response");
    assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
    assert!(response.feasible);

    // Per-relation accounting over the wire.
    client.send(r#"{"op":"list_relations","tenant":"carol"}"#);
    let listed = recv_ack(&mut client, "relations");
    let relations = listed.get("relations").unwrap().as_array().unwrap();
    assert_eq!(relations.len(), 1);
    let info = &relations[0];
    assert_eq!(info.str_field("storage"), Some("disk"));
    assert!(info.get("disk_bytes").unwrap().as_u64().unwrap() > 0);
    assert!(info.get("resident_bytes").unwrap().as_u64().unwrap() > 0);
    let cache = info
        .get("chunk_cache")
        .expect("disk tier reports its cache");
    // Binding + solving the query touched every deterministic column, so
    // chunks were faulted in (misses) and re-read (hits).
    assert!(cache.get("misses").unwrap().as_u64().unwrap() > 0);
    let rate = cache.get("hit_rate").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&rate), "hit rate {rate}");

    // Process-wide counters and tenant byte totals in `stats`.
    client.send(r#"{"op":"stats"}"#);
    let stats = spq_service::json::parse(&client.recv_line()).expect("stats json");
    let chunk = stats.get("relation_chunk_cache").expect("chunk section");
    assert!(chunk.get("misses").unwrap().as_u64().unwrap() > 0);
    let tenants = stats.get("tenants").unwrap().as_array().unwrap();
    let carol = tenants
        .iter()
        .find(|t| t.str_field("tenant") == Some("carol"))
        .expect("carol tenant listed");
    assert!(carol.get("disk_bytes").unwrap().as_u64().unwrap() > 0);
    assert!(carol.get("resident_bytes").unwrap().as_u64().unwrap() > 0);
    let tenant_rate = carol.get("chunk_hit_rate").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&tenant_rate));

    // Unload releases the chunk files with the relation.
    client.send(r#"{"op":"unload_relation","name":"portfolio","tenant":"carol"}"#);
    assert_eq!(
        recv_ack(&mut client, "unload_ack").str_field("status"),
        Some("ok")
    );
    server.shutdown();
}

#[test]
fn tenant_quota_exhaustion_is_a_clean_admission_error() {
    let service = Arc::new(SpqService::new(ServiceConfig {
        tenant_quotas: spq_service::TenantQuotas {
            max_relations: 1,
            max_resident_tuples: 100_000,
        },
        ..test_service_config()
    }));
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr());

    client.send(
        r#"{"op":"load_relation","id":"q1","name":"first","tenant":"t","workload":"portfolio","scale":150,"seed":1}"#,
    );
    assert_eq!(
        recv_ack(&mut client, "load_ack").str_field("status"),
        Some("ok")
    );

    // The second load is over the relation quota: a prompt, descriptive
    // admission error — never a hang.
    let started = Instant::now();
    client.send(
        r#"{"op":"load_relation","id":"q2","name":"second","tenant":"t","workload":"portfolio","scale":150,"seed":2}"#,
    );
    let ack = recv_ack(&mut client, "load_ack");
    assert!(started.elapsed() < Duration::from_secs(10));
    assert_eq!(ack.str_field("status"), Some("error"));
    assert!(
        ack.str_field("error").unwrap_or("").contains("quota"),
        "{ack:?}"
    );
    server.shutdown();
}

#[test]
fn stats_expose_catalog_and_reactor_state_over_tcp() {
    let service = Arc::new(SpqService::new(test_service_config()));
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();

    let mut acme = Client::connect(addr);
    acme.send(
        r#"{"op":"load_relation","id":"l1","name":"mine","tenant":"acme","workload":"galaxy","scale":150,"seed":4}"#,
    );
    assert_eq!(
        recv_ack(&mut acme, "load_ack").str_field("status"),
        Some("ok")
    );

    let mut observer = Client::connect(addr);
    observer.send(r#"{"op":"stats"}"#);
    let stats = spq_service::json::parse(&observer.recv_line()).expect("stats json");

    // Reactor and pool state.
    assert_eq!(stats.get("open_connections").unwrap().as_u64(), Some(2));
    assert_eq!(stats.get("queue_depth").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("in_flight").unwrap().as_u64(), Some(0));
    assert_eq!(stats.get("rejected_admissions").unwrap().as_u64(), Some(0));

    // Catalog state: the tenant, its relation list, and its admit counter.
    let tenants = stats.get("tenants").unwrap().as_array().unwrap();
    let acme_snap = tenants
        .iter()
        .find(|t| t.str_field("tenant") == Some("acme"))
        .expect("acme tenant listed");
    let relations = acme_snap.get("relations").unwrap().as_array().unwrap();
    assert_eq!(relations.len(), 1);
    assert!(acme_snap.get("resident_tuples").unwrap().as_u64().unwrap() >= 150);
    assert!(acme_snap.get("admits").unwrap().as_u64().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn tenant_names_on_the_wire_leave_no_state_behind() {
    // A tenant name is wire input: requests under 1 000 fresh names (each
    // admitted, then failing on an unknown relation), a refused first load
    // and a load that is unloaded again must not grow the `stats` reply.
    let service = Arc::new(SpqService::new(test_service_config()));
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr());

    client.send(
        r#"{"op":"load_relation","id":"l1","name":"mine","tenant":"acme","workload":"galaxy","scale":150,"seed":4}"#,
    );
    assert_eq!(
        recv_ack(&mut client, "load_ack").str_field("status"),
        Some("ok")
    );
    client.send(
        r#"{"op":"load_relation","id":"l2","name":"x","tenant":"ghost","path":"/nonexistent/rel.json"}"#,
    );
    assert_eq!(
        recv_ack(&mut client, "load_ack").str_field("status"),
        Some("error")
    );
    client.send(
        r#"{"op":"load_relation","id":"l3","name":"brief","tenant":"brief","workload":"portfolio","scale":150,"seed":3}"#,
    );
    assert_eq!(
        recv_ack(&mut client, "load_ack").str_field("status"),
        Some("ok")
    );
    client.send(r#"{"op":"unload_relation","name":"brief","tenant":"brief"}"#);
    assert_eq!(
        recv_ack(&mut client, "unload_ack").str_field("status"),
        Some("ok")
    );

    let mut request = portfolio_request("q", "SELECT PACKAGE(*) FROM t");
    request.relation = "nowhere".into();
    for i in 0..1_000 {
        request.id = format!("q{i}");
        request.tenant = Some(format!("fresh-{i}"));
        client.send(&Request::Query(request.clone()).to_line());
        let response = QueryResponse::parse_line(&client.recv_line()).expect("query response");
        assert_eq!(response.status, QueryStatus::Error, "{:?}", response.error);
    }
    // The default tenant keeps its counts without holding a relation.
    request.id = "d".into();
    request.tenant = None;
    client.send(&Request::Query(request).to_line());
    QueryResponse::parse_line(&client.recv_line()).expect("query response");

    client.send(r#"{"op":"stats"}"#);
    let stats = spq_service::json::parse(&client.recv_line()).expect("stats json");
    let tenants = stats.get("tenants").unwrap().as_array().unwrap();
    let names: Vec<&str> = tenants
        .iter()
        .filter_map(|t| t.str_field("tenant"))
        .collect();
    assert_eq!(names, ["acme", "default"]);
    assert_eq!(tenants[1].get("admits").unwrap().as_u64(), Some(1));
    server.shutdown();
}

/// A response line with its clocks (`queue_ms`, `wall_ms`,
/// `stats.wall_time_ms`) zeroed: everything left is deterministic.
fn without_clocks(line: &str) -> String {
    fn strip(value: spq_service::Json) -> spq_service::Json {
        use spq_service::Json;
        match value {
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .into_iter()
                    .map(|(key, value)| {
                        let clock = matches!(key.as_str(), "queue_ms" | "wall_ms" | "wall_time_ms");
                        let value = if clock { Json::Num(0.0) } else { strip(value) };
                        (key, value)
                    })
                    .collect(),
            ),
            other => other,
        }
    }
    strip(spq_service::json::parse(line).expect("response json")).to_string()
}

fn validate_request(id: &str, relation: &str, query: &str, package: &[(usize, u32)]) -> String {
    Request::Validate(ValidateRequest {
        id: id.to_string(),
        relation: relation.to_string(),
        query: query.to_string(),
        tenant: None,
        package: package.to_vec(),
        validation_scenarios: Some(500),
        seed: Some(11),
        timeout_ms: Some(60_000),
        early_stop: None,
        threads: None,
    })
    .to_line()
}

#[test]
fn the_epsilon_certificate_wire_contract() {
    let service = Arc::new(SpqService::new(test_service_config()));
    let portfolio = build_workload(WorkloadKind::Portfolio, 400, 7);
    let tpch = build_workload(WorkloadKind::Tpch, 300, 5);
    service.register_relation("portfolio", portfolio.relation.clone());
    service.register_relation("tpch", tpch.relation.clone());
    let server = SpqServer::start(service.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts");
    let mut client = Client::connect(server.local_addr());

    // `query` ops never compute ε; their responses (clocks aside) are
    // byte-identical to the ones recorded before the certificate became
    // demand-driven. (The SketchRefine line was re-recorded once since, when
    // partitioning features became closed-form on GBM columns: same package
    // and objective, from 5 sub-problems instead of 7.)
    let recorded = [
        (
            Algorithm::SummarySearch,
            r#"{"id":"q","status":"ok","feasible":true,"objective":3.5989011129299016,"package":[[60,1],[61,1],[363,2]],"algorithm":"SummarySearch","prepared_cache":"miss","result_cache":"miss","queue_ms":0,"wall_ms":0,"stats":{"scenarios":20,"summaries":1,"outer_iterations":1,"problems_solved":2,"validations":2,"validation_scenarios":1000,"solver_nodes":98,"lp_pivots":97,"max_problem_coefficients":802,"wall_time_ms":0}}"#,
        ),
        (
            Algorithm::SketchRefine,
            r#"{"id":"q","status":"ok","feasible":true,"objective":4.478374305362429,"package":[[60,1],[61,3],[185,1],[363,2]],"algorithm":"SketchRefine","prepared_cache":"hit","result_cache":"miss","queue_ms":0,"wall_ms":0,"stats":{"scenarios":20,"summaries":1,"outer_iterations":2,"problems_solved":5,"validations":6,"validation_scenarios":3000,"solver_nodes":53,"lp_pivots":63,"max_problem_coefficients":122,"wall_time_ms":0}}"#,
        ),
    ];
    for (algorithm, line) in recorded {
        let mut request = portfolio_request("q", portfolio.query(1));
        request.algorithm = Some(algorithm);
        client.send(&Request::Query(request).to_line());
        assert_eq!(without_clocks(&client.recv_line()), line, "{algorithm}");
    }

    // A `validate` op on the Portfolio query carries the finite ε an
    // in-process certificate of the same instance computes.
    let package = [(60, 1), (61, 1), (363, 2)];
    client.send(&validate_request(
        "v1",
        "portfolio",
        portfolio.query(1),
        &package,
    ));
    let wire = ValidateResponse::parse_line(&client.recv_line()).expect("validate response");
    assert_eq!(wire.status, QueryStatus::Ok, "{:?}", wire.error);
    let engine = spq_core::SpqEngine::new(SpqOptions {
        seed: 11,
        ..SpqOptions::for_tests()
    });
    let silp = engine
        .compile(&portfolio.relation, portfolio.query(1))
        .unwrap();
    let instance = engine.prepare(&portfolio.relation, silp).unwrap();
    let mut x = vec![0.0; instance.num_vars()];
    for (tuple, mult) in package {
        let position = instance.silp.tuples.iter().position(|&t| t == tuple);
        x[position.expect("a candidate")] = f64::from(mult);
    }
    let options = spq_core::ValidationOptions::full(500);
    let report = spq_core::validate_with(&instance, &x, &options).unwrap();
    assert_eq!(wire.objective_estimate, Some(report.objective_estimate));
    let epsilon = spq_core::bounds::certificate(&instance, report.objective_estimate).unwrap();
    assert_eq!(wire.epsilon_upper_bound, Some(epsilon));
    // ...which is the value the eager computation used to put on the wire
    // (Table 1's s̄·l̄ is loose on GBM gains, but finite).
    assert_eq!(epsilon, 72087.87021672422);

    // A probability objective is bounded by [0, 1]: ε = 1/objective − 1.
    // Tuple 1 alone meets TPC-H Q1's revenue threshold in 0.686 of the
    // scenarios.
    client.send(&validate_request("v2", "tpch", tpch.query(1), &[(1, 1)]));
    let wire = ValidateResponse::parse_line(&client.recv_line()).expect("validate response");
    assert_eq!(wire.status, QueryStatus::Ok, "{:?}", wire.error);
    assert_eq!(wire.objective_estimate, Some(0.686));
    assert_eq!(wire.epsilon_upper_bound, Some(1.0 / 0.686 - 1.0));

    // No bound applies to an empty package (ω = 0 certifies nothing under
    // maximization): the response carries no ε.
    client.send(&validate_request(
        "v3",
        "portfolio",
        portfolio.query(1),
        &[],
    ));
    let line = client.recv_line();
    assert!(line.contains(r#""epsilon":null"#), "{line}");
    let wire = ValidateResponse::parse_line(&line).expect("validate response");
    assert_eq!(wire.status, QueryStatus::Ok, "{:?}", wire.error);
    assert_eq!(wire.epsilon_upper_bound, None);
    server.shutdown();
}
