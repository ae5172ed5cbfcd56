//! spqd — the stochastic package query server.
//!
//! Loads one or more of the paper's workload relations and serves sPaQL
//! queries over newline-delimited JSON on TCP. See the repository README
//! ("Running the server") for the wire protocol.
//!
//! ```text
//! spqd [--addr 127.0.0.1:7878] [--workloads portfolio,galaxy,tpch]
//!      [--scale 10000] [--seed 42] [--workers N] [--queue 64]
//!      [--max-connections 1024] [--idle-timeout-ms N]
//!      [--read-buffer-bytes N] [--write-buffer-bytes N]
//!      [--max-tenant-relations 8] [--max-tenant-tuples 2000000]
//!      [--result-cache N]
//!      [--default-timeout-ms 60000] [--validation 10000]
//!      [--scenario-store DIR] [--scenario-store-bytes N]
//! ```
//!
//! `--scenario-store` (or the `SPQ_SCENARIO_STORE` environment variable)
//! enables the persistent scenario store: realized scenario blocks are
//! spilled to checksummed files under the given directory and reloaded on
//! restart, so repeated traffic on the same workload pays scenario
//! generation once across restarts. `--scenario-store-bytes` bounds the
//! directory (default 1 GiB); the `stats` op reports
//! `scenario_store.{spill_writes,reads,bytes,corrupt,evictions}`.

use spq_core::SpqOptions;
use spq_service::{ServerConfig, ServiceConfig, SpqServer, SpqService};
use spq_workloads::WorkloadKind;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: spqd [--addr HOST:PORT] [--workloads portfolio,galaxy,tpch] [--scale N]\n\
         \x20           [--seed N] [--workers N] [--queue N]\n\
         \x20           [--max-connections N] [--idle-timeout-ms N]\n\
         \x20           [--read-buffer-bytes N] [--write-buffer-bytes N]\n\
         \x20           [--max-tenant-relations N] [--max-tenant-tuples N]\n\
         \x20           [--result-cache N] [--default-timeout-ms N]\n\
         \x20           [--validation N]\n\
         \x20           [--scenario-store DIR] [--scenario-store-bytes N]"
    );
    std::process::exit(2);
}

/// `flag`'s numeric `value`; a value that does not parse is named with its
/// flag and ends the process with status 2.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a non-negative integer, got `{value}`");
        usage()
    })
}

fn parse_workload(name: &str) -> Option<WorkloadKind> {
    spq_service::RelationSource::parse_workload_kind(name)
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workloads = vec![WorkloadKind::Portfolio];
    let mut scale = 10_000usize;
    let mut seed = 42u64;
    let mut server_config = ServerConfig::default();
    let mut tenant_quotas = spq_service::TenantQuotas::default();
    let mut result_cache_entries = spq_service::ResultCache::DEFAULT_CAPACITY;
    let mut default_timeout_ms = 60_000u64;
    let mut validation = 10_000usize;
    // Flag overrides environment so scripted runs can pin the store.
    let mut scenario_store_dir: Option<std::path::PathBuf> = std::env::var_os("SPQ_SCENARIO_STORE")
        .filter(|v| !v.is_empty())
        .map(std::path::PathBuf::from);
    let mut scenario_store_bytes = spq_mcdb::ScenarioStore::DEFAULT_MAX_BYTES;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || -> &str {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value().to_string(),
            "--workloads" | "--workload" => {
                workloads = value()
                    .split(',')
                    .filter(|s| !s.trim().is_empty())
                    .map(|s| {
                        parse_workload(s).unwrap_or_else(|| {
                            eprintln!("unknown workload `{s}`");
                            usage()
                        })
                    })
                    .collect();
            }
            "--scale" => scale = number(flag, value()),
            "--seed" => seed = number(flag, value()),
            "--workers" => server_config.workers = number(flag, value()),
            "--queue" => server_config.queue_capacity = number(flag, value()),
            "--max-connections" => server_config.max_connections = number(flag, value()),
            "--idle-timeout-ms" => {
                let ms: u64 = number(flag, value());
                server_config.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--read-buffer-bytes" => server_config.read_buffer_bytes = number(flag, value()),
            "--write-buffer-bytes" => server_config.write_buffer_bytes = number(flag, value()),
            "--max-tenant-relations" => tenant_quotas.max_relations = number(flag, value()),
            "--max-tenant-tuples" => tenant_quotas.max_resident_tuples = number(flag, value()),
            "--result-cache" => result_cache_entries = number(flag, value()),
            "--default-timeout-ms" => default_timeout_ms = number(flag, value()),
            "--validation" => validation = number(flag, value()),
            "--scenario-store" => scenario_store_dir = Some(std::path::PathBuf::from(value())),
            "--scenario-store-bytes" => scenario_store_bytes = number(flag, value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }

    let base_options = SpqOptions {
        seed,
        validation_scenarios: validation,
        ..SpqOptions::default()
    };

    if let Some(dir) = &scenario_store_dir {
        eprintln!("spqd: persistent scenario store at {}", dir.display());
    }
    let service = Arc::new(SpqService::new(ServiceConfig {
        base_options,
        default_timeout: Some(Duration::from_millis(default_timeout_ms)),
        scenario_store_dir,
        scenario_store_bytes,
        tenant_quotas,
        result_cache_entries,
        ..Default::default()
    }));
    for kind in workloads {
        let started = std::time::Instant::now();
        let (name, tuples) = service.register_workload(kind, scale, seed);
        eprintln!(
            "spqd: loaded workload `{name}` ({tuples} tuples) in {:?}",
            started.elapsed()
        );
    }

    let server = SpqServer::start(service, addr.as_str(), server_config).unwrap_or_else(|e| {
        eprintln!("spqd: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The smoke test greps this exact prefix to learn the bound port.
    println!("spqd listening on {}", server.local_addr());

    // Serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
