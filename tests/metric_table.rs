//! The README "Metrics registry" table is the metric registry.
//!
//! * The `spq_*` names declared with `Named::new` under `crates/*/src` are
//!   exactly the table's rows (a `{a,b}` group in a row expands to one name
//!   per member).
//! * Every `spq_*` name a smoke workload puts into `prometheus_text()` —
//!   one SummarySearch and one SketchRefine query, one validation, all over
//!   a disk-backed relation served by `spqd` — is a row.
//!
//! This file is its own test binary, so no other test registers names in
//! the process-global registry it reads.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use stochastic_package_queries::core::Algorithm;
use stochastic_package_queries::mcdb::StorageOptions;
use stochastic_package_queries::obs::metrics::prometheus_text;
use stochastic_package_queries::service::prelude::*;
use stochastic_package_queries::workloads::{build_workload_with, WorkloadKind};

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `spq_*` literal that opens a `Named::new(` call in `crates/*/src`
/// (the literal may sit on the next line).
fn declared_names() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut names = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source file");
        for (at, _) in text.match_indices("Named::new(") {
            let rest = text[at + "Named::new(".len()..].trim_start();
            let Some(literal) = rest.strip_prefix('"') else {
                continue;
            };
            let name = &literal[..literal.find('"').expect("closed literal")];
            if name.starts_with("spq_") {
                names.insert(name.to_string());
            }
        }
    }
    names
}

/// `spq_a_{x,y}_b` → `spq_a_x_b`, `spq_a_y_b` (groups may repeat).
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("closed group");
    name[open + 1..close]
        .split(',')
        .flat_map(|member| expand(&format!("{}{member}{}", &name[..open], &name[close + 1..])))
        .collect()
}

/// The first-column names of the README "Metrics registry" table.
fn table_names() -> BTreeSet<String> {
    let readme = std::fs::read_to_string(Path::new(ROOT).join("README.md")).expect("README.md");
    let section = readme
        .split("\n### Metrics registry\n")
        .nth(1)
        .expect("README has a Metrics registry section");
    let section = section.split("\n#").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .flat_map(|cell| expand(&cell[..cell.find('`').expect("closed code span")]))
        .collect()
}

/// The names `prometheus_text()` reports (one `# TYPE` line each).
fn emitted_names() -> BTreeSet<String> {
    prometheus_text()
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_whitespace().next())
        .filter(|name| name.starts_with("spq_"))
        .map(str::to_string)
        .collect()
}

#[test]
fn group_expansion() {
    assert_eq!(expand("spq_a"), ["spq_a"]);
    assert_eq!(expand("spq_{x,y}_total"), ["spq_x_total", "spq_y_total"]);
}

#[test]
fn the_readme_table_is_the_registry() {
    let declared = declared_names();
    let table = table_names();
    assert!(!declared.is_empty());
    assert_eq!(
        declared.difference(&table).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "declared under crates/*/src but missing from the README table"
    );
    assert_eq!(
        table.difference(&declared).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "README table rows that no crate declares"
    );

    // Smoke workload over TCP: a disk-backed relation, both search
    // algorithms, one validation.
    let dir = std::env::temp_dir().join(format!("spq-metric-table-{}", std::process::id()));
    let workload = build_workload_with(
        WorkloadKind::Portfolio,
        400,
        7,
        StorageOptions::disk(dir.clone()),
    )
    .expect("disk relation builds");
    let service = Arc::new(SpqService::new(ServiceConfig {
        base_options: stochastic_package_queries::core::SpqOptions::for_tests(),
        ..Default::default()
    }));
    service.register_relation("portfolio", workload.relation.clone());
    let server =
        SpqServer::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut round_trip = |line: String| {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("recv");
        reply
    };

    let mut package = Vec::new();
    for algorithm in [Algorithm::SummarySearch, Algorithm::SketchRefine] {
        let request = QueryRequest {
            id: format!("{algorithm}"),
            relation: "portfolio".into(),
            query: workload.query(1).to_string(),
            tenant: None,
            algorithm: Some(algorithm),
            timeout_ms: Some(60_000),
            seed: Some(11),
            initial_scenarios: Some(20),
            max_scenarios: Some(100),
            validation_scenarios: Some(500),
        };
        let response = QueryResponse::parse_line(&round_trip(Request::Query(request).to_line()))
            .expect("query response");
        assert_eq!(response.status, QueryStatus::Ok, "{:?}", response.error);
        package = response.package;
    }
    let validate = Request::Validate(ValidateRequest {
        id: "v".into(),
        relation: "portfolio".into(),
        query: workload.query(1).to_string(),
        tenant: None,
        package,
        validation_scenarios: Some(500),
        seed: Some(11),
        timeout_ms: Some(60_000),
        early_stop: None,
        threads: None,
    });
    let reply = round_trip(validate.to_line());
    assert!(reply.contains(r#""status":"ok""#), "{reply}");
    server.shutdown();
    drop(workload);
    let _ = std::fs::remove_dir_all(&dir);

    let emitted = emitted_names();
    // One name per layer the workload crosses, so an empty or partial
    // snapshot cannot pass.
    for name in [
        "spq_net_lines_total",
        "spq_scenario_cells_realized",
        "spq_sketch_blocks_refined",
        "spq_solver_refactorizations",
    ] {
        assert!(emitted.contains(name), "the smoke workload emits {name}");
    }
    assert_eq!(
        emitted.difference(&table).collect::<Vec<_>>(),
        Vec::<&String>::new(),
        "emitted by the smoke workload but missing from the README table"
    );
}
