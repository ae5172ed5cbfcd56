//! Golden wire lines: one line of every reply shape spqd emits, pinned byte
//! for byte, plus the request and response lines the public encoders write.
//!
//! Each reply is read off a real TCP connection. Lines that carry clocks
//! (`queue_ms`, `wall_ms`, `stats.wall_time_ms`) are compared with those
//! fields zeroed; every other byte, key order and number format is exact.

use spq_core::validation::ConstraintValidation;
use spq_core::{Algorithm, EarlyStop, EvaluationStats};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::RelationBuilder;
use spq_service::catalog::RelationStorage;
use spq_service::prelude::*;
use spq_service::Json;
use spq_workloads::WorkloadKind;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &SpqServer) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    /// Send one line and return the next line the server writes.
    fn ask(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }

    fn send(&mut self, line: &str) {
        let line = format!("{line}\n");
        self.stream.write_all(line.as_bytes()).expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "server closed the connection");
        line.trim_end_matches('\n').to_string()
    }
}

/// `line` with its clock fields zeroed, re-serialized.
fn without_clocks(line: &str) -> String {
    fn strip(value: Json) -> Json {
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
    strip(spq_service::json::parse(line).expect("reply is JSON")).to_string()
}

const TINY_QUERY: &str = "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= 200 AND \
                          SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)";

fn start_server() -> SpqServer {
    let service = SpqService::new(ServiceConfig {
        base_options: spq_core::SpqOptions::for_tests(),
        default_timeout: Some(Duration::from_secs(120)),
        tenant_quotas: TenantQuotas {
            max_relations: 1,
            max_resident_tuples: 100_000,
        },
        ..Default::default()
    });
    let tiny = RelationBuilder::new("t")
        .deterministic_f64("price", vec![100.0, 100.0, 100.0])
        .stochastic(
            "gain",
            NormalNoise::around(vec![5.0, 1.0, 0.3], vec![1.0, 0.3, 0.1]),
        )
        .build()
        .expect("tiny relation");
    service.register_relation("t", tiny);
    // A relation whose Naive MILP runs for tens of seconds: the cancel target.
    let n = 2000;
    let heavy = RelationBuilder::new("heavy")
        .deterministic_f64("price", vec![100.0; n])
        .stochastic(
            "gain",
            NormalNoise::around(
                (0..n).map(|i| 4.0 + (i % 13) as f64 * 0.4).collect(),
                (0..n)
                    .map(|i| 6.0 + (i % 7) as f64 * 1.5)
                    .collect::<Vec<_>>(),
            ),
        )
        .build()
        .expect("heavy relation");
    service.register_relation("heavy", heavy);
    SpqServer::start(Arc::new(service), "127.0.0.1:0", ServerConfig::default())
        .expect("server starts")
}

#[test]
fn admin_and_catalog_replies_are_pinned() {
    let server = start_server();
    let mut client = Client::connect(&server);

    assert_eq!(client.ask(r#"{"op":"ping"}"#), r#"{"op":"pong"}"#);
    assert_eq!(
        client.ask(r#"{"op":"cancel","id":"ghost"}"#),
        r#"{"op":"cancel_ack","id":"ghost","found":false}"#
    );
    assert_eq!(
        client.ask("this is not json"),
        r#"{"status":"error","error":"invalid literal at byte 0"}"#
    );

    // load_ack ok; a second load over alice's one-relation quota errors.
    assert_eq!(
        client.ask(r#"{"op":"load_relation","id":"l1","name":"Mine","tenant":"alice","workload":"galaxy","scale":150,"seed":4}"#),
        r#"{"op":"load_ack","id":"l1","name":"mine","tenant":"alice","tuples":150,"storage":"memory","status":"ok"}"#
    );
    assert_eq!(
        client.ask(r#"{"op":"load_relation","id":"l2","name":"more","tenant":"alice","workload":"galaxy","scale":150,"seed":4}"#),
        r#"{"op":"load_ack","id":"l2","status":"error","error":"tenant quota exceeded: at most 1 loaded relations"}"#
    );
    assert_eq!(
        client.ask(r#"{"op":"load_relation","id":"l3","name":"big","tenant":"bob","workload":"portfolio","scale":150,"seed":2,"storage":"disk"}"#),
        r#"{"op":"load_ack","id":"l3","name":"big","tenant":"bob","tuples":150,"storage":"disk","status":"ok"}"#
    );

    // relations: a memory relation, and a disk relation with its chunk cache.
    assert_eq!(
        client.ask(r#"{"op":"list_relations","tenant":"alice"}"#),
        r#"{"op":"relations","tenant":"alice","relations":[{"name":"heavy","tuples":2000,"source":"startup","shared":true,"storage":"memory","resident_bytes":48000,"disk_bytes":0},{"name":"mine","tuples":150,"source":"workload:Galaxy(scale=150,seed=4)","shared":false,"storage":"memory","resident_bytes":14400,"disk_bytes":0},{"name":"t","tuples":3,"source":"startup","shared":true,"storage":"memory","resident_bytes":72,"disk_bytes":0}]}"#
    );
    assert_eq!(
        client.ask(r#"{"op":"list_relations","tenant":"bob"}"#),
        r#"{"op":"relations","tenant":"bob","relations":[{"name":"big","tuples":150,"source":"workload:Portfolio(scale=150,seed=2)","shared":false,"storage":"disk","resident_bytes":0,"disk_bytes":6149,"chunk_cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0}},{"name":"heavy","tuples":2000,"source":"startup","shared":true,"storage":"memory","resident_bytes":48000,"disk_bytes":0},{"name":"t","tuples":3,"source":"startup","shared":true,"storage":"memory","resident_bytes":72,"disk_bytes":0}]}"#
    );

    // unload_ack ok, then the same unload again errors.
    assert_eq!(
        client.ask(r#"{"op":"unload_relation","name":"MINE","tenant":"alice"}"#),
        r#"{"op":"unload_ack","name":"mine","status":"ok"}"#
    );
    assert_eq!(
        client.ask(r#"{"op":"unload_relation","name":"mine","tenant":"alice"}"#),
        r#"{"op":"unload_ack","name":"mine","status":"error","error":"unknown relation `mine`"}"#
    );

    // The stats reply's top-level keys, in order.
    let stats = spq_service::json::parse(&client.ask(r#"{"op":"stats"}"#)).expect("stats");
    let Json::Obj(pairs) = stats else {
        panic!("stats is an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "op",
            "queries_executed",
            "validations_executed",
            "latency",
            "prepared_cache",
            "result_cache",
            "scenario_cache",
            "scenario_store",
            "relations",
            "relation_chunk_cache",
            "tenants",
            "queue_depth",
            "in_flight",
            "open_connections",
            "rejected_admissions",
        ]
    );
    assert_eq!(pairs[0].1, Json::from("stats"));
    server.shutdown();
}

#[test]
fn query_and_validate_replies_are_pinned() {
    let server = start_server();
    let mut client = Client::connect(&server);

    assert_eq!(
        without_clocks(
            &client.ask(r#"{"id":"q1","relation":"nope","query":"SELECT PACKAGE(*) FROM nope"}"#)
        ),
        r#"{"id":"q1","status":"error","error":"unknown relation `nope`","feasible":false,"objective":null,"package":[],"prepared_cache":"miss","result_cache":"miss","queue_ms":0,"wall_ms":0}"#
    );
    assert_eq!(
        without_clocks(&client.ask(r#"{"op":"validate","id":"v1","relation":"nope","query":"SELECT PACKAGE(*) FROM nope","package":[[0,1]]}"#)),
        r#"{"op":"validate","id":"v1","status":"error","error":"unknown relation `nope`","feasible":false,"objective":null,"epsilon":null,"scenarios_used":0,"m_hat":0,"early_stopped":false,"constraints":[],"queue_ms":0,"wall_ms":0}"#
    );
    let validate = format!(
        r#"{{"op":"validate","id":"v2","relation":"t","query":"{TINY_QUERY}","package":[[0,1]],"validation_scenarios":400,"seed":3}}"#
    );
    assert_eq!(
        without_clocks(&client.ask(&validate)),
        r#"{"op":"validate","id":"v2","status":"ok","feasible":true,"objective":5,"epsilon":8.309601572523912,"scenarios_used":400,"m_hat":400,"early_stopped":false,"constraints":[{"index":1,"probability":0.9,"fraction":1,"surplus":0.09999999999999998,"feasible":true,"scenarios":400}],"queue_ms":0,"wall_ms":0}"#
    );

    // cancel_ack with `found` true: the heavy query's token is registered
    // when the reactor admits it, before it reads the cancel line.
    let heavy = Request::Query(QueryRequest {
        id: "slow".into(),
        relation: "heavy".into(),
        query: "SELECT PACKAGE(*) FROM heavy SUCH THAT SUM(price) <= 1000 AND \
                SUM(gain) >= 30 WITH PROBABILITY >= 0.95 MAXIMIZE EXPECTED SUM(gain)"
            .into(),
        tenant: None,
        algorithm: Some(Algorithm::Naive),
        timeout_ms: Some(600_000),
        seed: None,
        initial_scenarios: Some(80),
        max_scenarios: Some(800),
        validation_scenarios: Some(1000),
    });
    client.send(&heavy.to_line());
    client.send(r#"{"op":"cancel","id":"slow"}"#);
    let mut ack = None;
    let mut answered = false;
    while ack.is_none() || !answered {
        let line = client.recv();
        if line.contains("cancel_ack") {
            ack = Some(line);
        } else {
            answered = true;
        }
    }
    assert_eq!(
        ack.as_deref(),
        Some(r#"{"op":"cancel_ack","id":"slow","found":true}"#)
    );
    server.shutdown();
}

#[test]
fn public_encoders_write_pinned_lines() {
    let query = Request::Query(QueryRequest {
        id: "q\"1".into(),
        relation: "portfolio".into(),
        query: "SELECT PACKAGE(*)\tFROM p".into(),
        tenant: Some("alice".into()),
        algorithm: Some(Algorithm::SketchRefine),
        timeout_ms: Some(1500),
        seed: Some(9_007_199_254_740_991),
        initial_scenarios: Some(20),
        max_scenarios: Some(400),
        validation_scenarios: Some(1000),
    });
    let validate = Request::Validate(ValidateRequest {
        id: "v1".into(),
        relation: "portfolio".into(),
        query: "SELECT".into(),
        tenant: None,
        package: vec![(3, 1), (17, 2)],
        validation_scenarios: Some(100_000),
        seed: Some(4),
        timeout_ms: None,
        early_stop: Some(EarlyStop::Hoeffding {
            delta: spq_core::validation::DEFAULT_HOEFFDING_DELTA,
        }),
        threads: Some(8),
    });
    let load = |source, storage| {
        Request::Load(LoadRequest {
            id: "l1".into(),
            name: "P2".into(),
            tenant: Some("alice".into()),
            source,
            storage,
        })
        .to_line()
    };
    let lines = [
        (
            query.to_line(),
            r#"{"id":"q\"1","relation":"portfolio","query":"SELECT PACKAGE(*)\tFROM p","algorithm":"SketchRefine","timeout_ms":1500,"seed":9007199254740991,"initial_scenarios":20,"max_scenarios":400,"validation_scenarios":1000,"tenant":"alice"}"#,
        ),
        (
            validate.to_line(),
            r#"{"op":"validate","id":"v1","relation":"portfolio","query":"SELECT","package":[[3,1],[17,2]],"validation_scenarios":100000,"seed":4,"early_stop":"hoeffding","threads":8}"#,
        ),
        (
            Request::Cancel { id: "q1".into() }.to_line(),
            r#"{"op":"cancel","id":"q1"}"#,
        ),
        (Request::Stats.to_line(), r#"{"op":"stats"}"#),
        (Request::Ping.to_line(), r#"{"op":"ping"}"#),
        (
            load(
                RelationSource::Workload {
                    kind: WorkloadKind::Tpch,
                    scale: 5000,
                    seed: 7,
                },
                RelationStorage::Disk,
            ),
            r#"{"op":"load_relation","id":"l1","name":"P2","tenant":"alice","source":"workload","workload":"tpc-h","scale":5000,"seed":7,"storage":"disk"}"#,
        ),
        (
            load(
                RelationSource::File {
                    path: "/data/m.json".into(),
                },
                RelationStorage::Memory,
            ),
            r#"{"op":"load_relation","id":"l1","name":"P2","tenant":"alice","source":"file","path":"/data/m.json"}"#,
        ),
        (
            Request::Unload {
                name: "p2".into(),
                tenant: Some("alice".into()),
            }
            .to_line(),
            r#"{"op":"unload_relation","name":"p2","tenant":"alice"}"#,
        ),
        (
            Request::ListRelations { tenant: None }.to_line(),
            r#"{"op":"list_relations"}"#,
        ),
        (
            QueryResponse {
                id: "q1".into(),
                status: QueryStatus::Ok,
                error: None,
                feasible: true,
                objective: Some(12.25),
                package: vec![(3, 1), (17, 2)],
                algorithm: "SummarySearch".into(),
                prepared_cache_hit: true,
                result_cache_hit: false,
                queue_ms: 0.125,
                wall_ms: 18.0,
                stats: Some(EvaluationStats {
                    scenarios_used: 100,
                    summaries_used: 1,
                    outer_iterations: 2,
                    problems_solved: 4,
                    validations: 3,
                    validation_scenarios: 3000,
                    solver_nodes: 11,
                    lp_pivots: 903,
                    max_problem_coefficients: 4000,
                    wall_time: Duration::from_micros(1500),
                }),
            }
            .to_line(),
            r#"{"id":"q1","status":"ok","feasible":true,"objective":12.25,"package":[[3,1],[17,2]],"algorithm":"SummarySearch","prepared_cache":"hit","result_cache":"miss","queue_ms":0.125,"wall_ms":18,"stats":{"scenarios":100,"summaries":1,"outer_iterations":2,"problems_solved":4,"validations":3,"validation_scenarios":3000,"solver_nodes":11,"lp_pivots":903,"max_problem_coefficients":4000,"wall_time_ms":1.5}}"#,
        ),
        (
            QueryResponse::failure("q2", QueryStatus::Rejected, "queue full (64 queued)").to_line(),
            r#"{"id":"q2","status":"rejected","error":"queue full (64 queued)","feasible":false,"objective":null,"package":[],"prepared_cache":"miss","result_cache":"miss","queue_ms":0,"wall_ms":0}"#,
        ),
        (
            ValidateResponse {
                id: "v1".into(),
                status: QueryStatus::Ok,
                error: None,
                feasible: false,
                objective_estimate: Some(-0.5),
                epsilon_upper_bound: Some(f64::INFINITY),
                scenarios_used: 2048,
                m_hat: 100_000,
                early_stopped: true,
                constraints: vec![ConstraintValidation {
                    constraint_index: 1,
                    probability: 0.9,
                    satisfied_fraction: 0.875,
                    surplus: -0.025,
                    feasible: false,
                    scenarios_evaluated: 2048,
                }],
                queue_ms: 0.25,
                wall_ms: 3.5,
            }
            .to_line(),
            r#"{"op":"validate","id":"v1","status":"ok","feasible":false,"objective":-0.5,"epsilon":null,"scenarios_used":2048,"m_hat":100000,"early_stopped":true,"constraints":[{"index":1,"probability":0.9,"fraction":0.875,"surplus":-0.025,"feasible":false,"scenarios":2048}],"queue_ms":0.25,"wall_ms":3.5}"#,
        ),
    ];
    for (got, want) in lines {
        assert_eq!(got, want);
    }
}
