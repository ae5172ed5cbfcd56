//! spq — command-line client for spqd.
//!
//! Sends one query (optionally repeated, optionally over several concurrent
//! connections) and prints each NDJSON response. Exit status is 0 only when
//! every response completed (`status:"ok"`); `--expect-feasible` also
//! requires every response to carry a validation-feasible package, which is
//! what the CI smoke test asserts.
//!
//! ```text
//! spq --addr 127.0.0.1:7878 --relation portfolio --query "SELECT PACKAGE(*) ..."
//!     [--tenant NAME] [--algorithm summary-search] [--timeout-ms 30000] [--seed 7]
//!     [--validation 1000] [--initial-scenarios 100]
//!     [--repeat 1] [--concurrency 1] [--expect-feasible] [--quiet]
//!     [--validate-result] [--early-stop full|certain|hoeffding]
//! ```
//!
//! `--validate-result` sends a follow-up `{"op":"validate"}` for every
//! returned package (same relation/query/seed), exercising the server's
//! out-of-sample validator end-to-end; with `--expect-feasible` the
//! validation verdict must agree.

use spq_core::EarlyStop;
use spq_service::{
    QueryRequest, QueryResponse, QueryStatus, Request, ValidateRequest, ValidateResponse,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn usage() -> ! {
    eprintln!(
        "usage: spq --relation NAME --query SPAQL [--addr HOST:PORT] [--tenant NAME]\n\
         \x20          [--algorithm A]\n\
         \x20          [--timeout-ms N] [--seed N] [--validation N] [--initial-scenarios N]\n\
         \x20          [--repeat N] [--concurrency N] [--expect-feasible] [--quiet]\n\
         \x20          [--validate-result] [--early-stop full|certain|hoeffding]"
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

#[derive(Clone)]
struct Cli {
    addr: String,
    request: QueryRequest,
    repeat: usize,
    concurrency: usize,
    expect_feasible: bool,
    quiet: bool,
    validate_result: bool,
    early_stop: Option<EarlyStop>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        addr: "127.0.0.1:7878".to_string(),
        request: QueryRequest {
            id: String::new(),
            relation: String::new(),
            query: String::new(),
            tenant: None,
            algorithm: None,
            timeout_ms: None,
            seed: None,
            initial_scenarios: None,
            max_scenarios: None,
            validation_scenarios: None,
        },
        repeat: 1,
        concurrency: 1,
        expect_feasible: false,
        quiet: false,
        validate_result: false,
        early_stop: None,
    };
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
            "--addr" => cli.addr = value().to_string(),
            "--relation" => cli.request.relation = value().to_string(),
            "--query" => cli.request.query = value().to_string(),
            "--tenant" => cli.request.tenant = Some(value().to_string()),
            "--algorithm" => {
                cli.request.algorithm = Some(value().parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }))
            }
            "--timeout-ms" => cli.request.timeout_ms = Some(number(flag, value())),
            "--seed" => cli.request.seed = Some(number(flag, value())),
            "--validation" => cli.request.validation_scenarios = Some(number(flag, value())),
            "--initial-scenarios" => cli.request.initial_scenarios = Some(number(flag, value())),
            "--repeat" => cli.repeat = number(flag, value()),
            "--concurrency" => cli.concurrency = number(flag, value()),
            "--expect-feasible" => cli.expect_feasible = true,
            "--quiet" => cli.quiet = true,
            "--validate-result" => cli.validate_result = true,
            "--early-stop" => {
                cli.early_stop = Some(EarlyStop::from_wire(value()).unwrap_or_else(|| {
                    eprintln!("--early-stop expects full, certain or hoeffding");
                    usage()
                }))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag `{other}`");
                usage();
            }
        }
    }
    if cli.request.relation.is_empty() || cli.request.query.is_empty() {
        eprintln!("--relation and --query are required");
        usage();
    }
    cli.repeat = cli.repeat.max(1);
    cli.concurrency = cli.concurrency.max(1);
    cli
}

/// One query's outcome: the query response, plus the follow-up validation
/// verdict when `--validate-result` is on.
struct Outcome {
    response: QueryResponse,
    validation: Option<ValidateResponse>,
}

/// Run `repeat` queries on one connection; returns the outcomes.
fn run_connection(cli: &Cli, worker: usize) -> Result<Vec<Outcome>, String> {
    let stream = TcpStream::connect(&cli.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", cli.addr))?;
    // Each request is one small write that waits for its reply: Nagle's
    // algorithm must not hold it back until the server's delayed ACK.
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut exchange = |mut line: String| -> Result<String, String> {
        line.push('\n');
        (&stream)
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut answer = String::new();
        reader
            .read_line(&mut answer)
            .map_err(|e| format!("read: {e}"))?;
        if answer.is_empty() {
            return Err("server closed the connection".into());
        }
        if !cli.quiet {
            println!("{}", answer.trim_end());
        }
        Ok(answer.trim_end().to_string())
    };
    let mut outcomes = Vec::with_capacity(cli.repeat);
    for i in 0..cli.repeat {
        let mut request = cli.request.clone();
        request.id = format!("spq-{worker}-{i}");
        let answer = exchange(Request::Query(request).to_line())?;
        let response = QueryResponse::parse_line(&answer)?;
        // Optionally re-validate the returned package out-of-sample through
        // the server's validate op.
        let validation = if cli.validate_result && !response.package.is_empty() {
            let validate = ValidateRequest {
                id: format!("spq-{worker}-{i}-validate"),
                relation: cli.request.relation.clone(),
                query: cli.request.query.clone(),
                tenant: cli.request.tenant.clone(),
                package: response.package.clone(),
                validation_scenarios: cli.request.validation_scenarios,
                seed: cli.request.seed,
                timeout_ms: cli.request.timeout_ms,
                early_stop: cli.early_stop,
                threads: None,
            };
            let answer = exchange(Request::Validate(validate).to_line())?;
            Some(ValidateResponse::parse_line(&answer)?)
        } else {
            None
        };
        outcomes.push(Outcome {
            response,
            validation,
        });
    }
    Ok(outcomes)
}

fn main() {
    let cli = parse_cli();
    let started = std::time::Instant::now();
    let results: Vec<Result<Vec<Outcome>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cli.concurrency)
            .map(|w| {
                let cli = cli.clone();
                scope.spawn(move || run_connection(&cli, w))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut total = 0usize;
    let mut ok = 0usize;
    let mut feasible = 0usize;
    let mut validated = 0usize;
    let mut validation_ok = 0usize;
    let mut validation_feasible = 0usize;
    let mut failures = Vec::new();
    for result in results {
        match result {
            Ok(outcomes) => {
                for outcome in outcomes {
                    total += 1;
                    if outcome.response.status == QueryStatus::Ok {
                        ok += 1;
                    }
                    if outcome.response.feasible {
                        feasible += 1;
                    }
                    if let Some(v) = outcome.validation {
                        validated += 1;
                        if v.status == QueryStatus::Ok {
                            validation_ok += 1;
                        }
                        if v.feasible {
                            validation_feasible += 1;
                        }
                    }
                }
            }
            Err(e) => failures.push(e),
        }
    }
    for failure in &failures {
        eprintln!("spq: {failure}");
    }
    if total > 0 {
        eprintln!(
            "spq: {total} responses ({ok} ok, {feasible} feasible) in {:.3}s ({:.1} q/s)",
            elapsed.as_secs_f64(),
            total as f64 / elapsed.as_secs_f64().max(1e-9)
        );
    }
    if validated > 0 {
        eprintln!(
            "spq: {validated} validate ops ({validation_ok} ok, {validation_feasible} feasible)"
        );
    }
    let success = failures.is_empty()
        && ok == total
        && total == cli.repeat * cli.concurrency
        && validation_ok == validated
        && (!cli.expect_feasible || (feasible == total && validation_feasible == validated));
    std::process::exit(if success { 0 } else { 1 });
}
