//! Set-up, the closed-loop timed phase, output checks and the end-to-end
//! metrics of one workload run.
//!
//! Everything here drives the system from outside: an in-process
//! [`SpqServer`] on `127.0.0.1:0`, real TCP connections, and the fields the
//! wire responses already carry.

use crate::catalog::Metric;
use crate::stats;
use crate::workload::{self, Op, Sizes, Workload, DISK_SLICES, HOT_KEYS, VAL_PACKAGES};
use spq_core::saa::formulate_unconstrained;
use spq_core::validation::{validate_with, EarlyStop, ValidationOptions};
use spq_core::{Algorithm, Instance, SpqEngine, SpqOptions};
use spq_mcdb::{Relation, StorageOptions};
use spq_service::catalog::RelationStorage;
use spq_service::json::{parse, Json};
use spq_service::prelude::*;
use spq_solver::solve_full;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget every request carries; nothing in the ledger comes near it.
const TIMEOUT_MS: u64 = 120_000;

/// How many standard errors below its target probability a held-out
/// validation may land before the package counts as unverified.
///
/// The server accepts a package whose satisfied fraction reaches `p` on the
/// request's own validation stream. Where the optimizer makes that constraint
/// tight, the package's true probability sits one sampling error around `p`,
/// and the held-out stream adds a second, independent one: the difference of
/// the two fractions has standard error `sqrt(2·p(1−p)/M̂)`. A benchmark makes
/// some 10⁴ such checks and none may fail on a healthy system, hence 4.5 of
/// them (0.019 at `p` = 0.9, `M̂` = 10 000) for a single package. A miss
/// shared by all packages is caught far below that by
/// [`SYSTEMATIC_SIGMAS`].
const HELD_OUT_SIGMAS: f64 = 4.5;

/// The median held-out margin `fraction − p` of a run may not lie more than
/// this many of the same standard errors below zero: sampling errors cancel
/// in a median over hundreds of packages, a shortfall built into the
/// packages does not.
const SYSTEMATIC_SIGMAS: f64 = 1.0;

/// Standard error of the difference between two independent `M̂`-scenario
/// estimates of a probability near `p`.
fn held_out_sigma(p: f64, m_hat: u64) -> f64 {
    (2.0 * p * (1.0 - p) / m_hat.max(1) as f64).sqrt()
}

/// One in this many `validate` ops (drawn by a hash of its index) is
/// recomputed in process and compared bit for bit; recomputing all of them
/// would double the run. Every op is also checked against those recomputed
/// ones, see [`verify`].
const VALIDATE_RECHECK_STRIDE: u64 = 4;

/// A `validate` response's fraction may differ from the recomputed fraction
/// of the same package under another seed by this many standard errors of
/// that difference (both are `M̂`-scenario estimates of one probability).
const CROSS_SEED_SIGMAS: f64 = 6.0;

/// Generator seed of every workload's relation. `--seed` varies the request
/// list, not the data: how hard a package query is depends on the relation,
/// and a benchmark whose difficulty moved with the seed would have no
/// steady baseline to judge a change against.
pub const RELATION_SEED: u64 = 7;

/// How a run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The self-test: tiny sizes, a single set-up, a fixed request count in
    /// place of `seconds`, and no check that depends on the clock.
    pub quick: bool,
    /// Directory for disk-tier chunk files of the harness's own relation.
    pub scratch: PathBuf,
}

impl RunConfig {
    pub fn sizes(&self) -> Sizes {
        self.workload.sizes(self.quick)
    }
}

/// Worker threads of the server and closed-loop clients of the generator:
/// the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One parsed response line (`query` or `validate`).
#[derive(Debug, Clone, Default)]
pub struct Reply {
    pub status: String,
    pub feasible: bool,
    pub objective: Option<f64>,
    pub package: Vec<(usize, u32)>,
    pub result_hit: bool,
    pub queue_ms: f64,
    pub wall_ms: f64,
    /// `stats.wall_time_ms` (query ops that evaluated).
    pub eval_ms: Option<f64>,
    pub outer_iterations: u64,
    pub problems_solved: u64,
    pub scenarios: u64,
    pub validations: u64,
    pub validation_scenarios: u64,
    pub solver_nodes: u64,
    pub lp_pivots: u64,
    /// `(probability, fraction, feasible)` per probabilistic constraint
    /// (validate ops).
    pub constraints: Vec<(f64, f64, bool)>,
    pub scenarios_used: u64,
    pub m_hat: u64,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == "ok"
    }

    /// Parse a response line; a line that is not a response parses to a
    /// reply whose status is not `ok`.
    pub fn parse(line: &str) -> Reply {
        let Ok(v) = parse(line) else {
            return Reply {
                status: "unparsable".into(),
                ..Reply::default()
            };
        };
        let num = |j: &Json, k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let count = |j: &Json, k: &str| j.u64_field(k).unwrap_or(0);
        let mut r = Reply {
            status: v.str_field("status").unwrap_or("missing").to_string(),
            feasible: v.get("feasible").and_then(Json::as_bool).unwrap_or(false),
            objective: v.get("objective").and_then(Json::as_f64),
            result_hit: v.str_field("result_cache") == Some("hit"),
            queue_ms: num(&v, "queue_ms"),
            wall_ms: num(&v, "wall_ms"),
            scenarios_used: count(&v, "scenarios_used"),
            m_hat: count(&v, "m_hat"),
            ..Reply::default()
        };
        for pair in v.get("package").and_then(Json::as_array).unwrap_or(&[]) {
            if let Some([t, m]) = pair.as_array().map(|p| [p[0].as_u64(), p[1].as_u64()]) {
                r.package
                    .push((t.unwrap_or(0) as usize, m.unwrap_or(0) as u32));
            }
        }
        if let Some(s) = v.get("stats") {
            r.eval_ms = s.get("wall_time_ms").and_then(Json::as_f64);
            r.outer_iterations = count(s, "outer_iterations");
            r.problems_solved = count(s, "problems_solved");
            r.scenarios = count(s, "scenarios");
            r.validations = count(s, "validations");
            r.validation_scenarios = count(s, "validation_scenarios");
            r.solver_nodes = count(s, "solver_nodes");
            r.lp_pivots = count(s, "lp_pivots");
        }
        for c in v.get("constraints").and_then(Json::as_array).unwrap_or(&[]) {
            r.constraints.push((
                num(c, "probability"),
                num(c, "fraction"),
                c.get("feasible").and_then(Json::as_bool).unwrap_or(false),
            ));
        }
        r
    }
}

/// A blocking NDJSON connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request line and wait for its response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.stream.write_all(&out)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// When a closed loop stops handing out requests.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Exactly this many requests.
    Count(usize),
    /// For `seconds`, and on until `min_samples` requests completed, but
    /// never beyond four times `seconds`.
    Time { seconds: f64, min_samples: usize },
}

/// One completed request of a closed loop.
pub struct Done<T> {
    pub index: usize,
    /// Offset of the send from the loop's start.
    pub start: Duration,
    pub latency: Duration,
    pub value: T,
}

/// Run a closed loop of `clients` connections against `addr`: each client
/// takes the next request index, sends `line(index)`, waits for the full
/// response line and hands it to `digest` (outside the timed interval).
/// A transport failure is digested as the empty line and ends that client.
/// Returns the completions and the wall time from the first send to the
/// last response.
pub fn closed_loop<T: Send>(
    addr: SocketAddr,
    clients: usize,
    limit: Limit,
    line: impl Fn(usize) -> String + Sync,
    digest: impl Fn(usize, &str) -> T + Sync,
) -> (Vec<Done<T>>, Duration) {
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let started = Instant::now();
    let take = || -> Option<usize> {
        match limit {
            Limit::Count(n) => {
                let i = next.fetch_add(1, Ordering::Relaxed);
                (i < n).then_some(i)
            }
            Limit::Time {
                seconds,
                min_samples,
            } => {
                let t = started.elapsed().as_secs_f64();
                let enough = completed.load(Ordering::Relaxed) >= min_samples;
                if (t >= seconds && enough) || t >= 4.0 * seconds {
                    None
                } else {
                    Some(next.fetch_add(1, Ordering::Relaxed))
                }
            }
        }
    };
    let mut done: Vec<Done<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut conn = Conn::open(addr).ok();
                    while let Some(index) = take() {
                        let request = line(index);
                        let start = started.elapsed();
                        let sent = Instant::now();
                        let response = conn.as_mut().and_then(|c| c.call(&request).ok());
                        let latency = sent.elapsed();
                        let alive = response.is_some();
                        out.push(Done {
                            index,
                            start,
                            latency,
                            value: digest(index, response.as_deref().unwrap_or("")),
                        });
                        completed.fetch_add(1, Ordering::Relaxed);
                        if !alive {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = done
        .iter()
        .map(|d| d.start + d.latency)
        .max()
        .unwrap_or_default();
    done.sort_by_key(|d| d.index);
    (done, wall)
}

/// A started server with its relation loaded and its caches warmed.
pub struct Env {
    pub config: RunConfig,
    pub service: Arc<SpqService>,
    server: Option<SpqServer>,
    pub addr: SocketAddr,
    /// The harness's own value-identical copy of the relation, for bounds,
    /// in-process checks and the traced run's direct layer calls.
    pub local: Relation,
    /// Packages the `validate` workload validates.
    pub packages: Vec<Vec<(usize, u32)>>,
    /// LP-relaxation bound of the workload's query with its probabilistic
    /// constraints dropped: one per id slice, or the only one.
    pub bounds: Vec<f64>,
    pub maximize: bool,
    /// First response per pre-warmed key (cache-hit workload).
    pub references: Vec<Reply>,
    /// Seconds the `load_relation` ops took, and the tuples they loaded.
    pub load_seconds: f64,
    pub loaded_tuples: usize,
    /// Seconds from the start of set-up to the end of warm-up.
    pub setup_seconds: f64,
}

impl Env {
    pub fn sizes(&self) -> Sizes {
        self.config.sizes()
    }

    /// The options the server evaluates requests under (before per-request
    /// overrides).
    pub fn base_options(sizes: &Sizes) -> SpqOptions {
        SpqOptions {
            max_relation_bytes: sizes.max_relation_bytes,
            ..SpqOptions::default()
        }
    }

    /// Render `op` as the wire line with id `id`.
    pub fn line(&self, id: &str, op: &Op) -> String {
        let sizes = self.sizes();
        let relation = self.config.workload.relation_name().to_string();
        match op {
            Op::Query {
                tenant,
                query,
                algorithm,
                seed,
                ..
            } => Request::Query(QueryRequest {
                id: id.to_string(),
                relation,
                query: query.clone(),
                algorithm: Some(*algorithm),
                timeout_ms: Some(TIMEOUT_MS),
                seed: *seed,
                initial_scenarios: None,
                max_scenarios: None,
                validation_scenarios: Some(sizes.m_hat),
                tenant: tenant.map(str::to_string),
            }),
            Op::Validate { package, seed } => Request::Validate(ValidateRequest {
                id: id.to_string(),
                relation,
                query: workload::validate_query(),
                package: self.packages[*package].clone(),
                validation_scenarios: Some(sizes.m_hat),
                seed: Some(*seed),
                timeout_ms: Some(TIMEOUT_MS),
                early_stop: Some(EarlyStop::Full),
                threads: Some(1),
                tenant: None,
            }),
        }
        .to_line()
    }

    /// The `i`-th request of this run.
    pub fn op(&self, i: usize) -> Op {
        workload::op(self.config.workload, &self.sizes(), self.config.seed, i)
    }

    /// The server's handle of the loaded relation (first tenant).
    pub fn server_relation(&self) -> Relation {
        let w = self.config.workload;
        let tenant = w.tenants()[0].unwrap_or(DEFAULT_TENANT);
        self.service
            .relation_for(tenant, w.relation_name())
            .expect("relation loaded in set-up")
    }

    /// The options the server evaluates a request with this seed under
    /// (`None` = the server default), minus its shared scenario cache.
    pub fn options(&self, seed: Option<u64>) -> SpqOptions {
        let mut options = Env::base_options(&self.sizes());
        if let Some(seed) = seed {
            options.seed = seed;
        }
        options.validation_scenarios = self.sizes().m_hat;
        options
    }

    /// An instance over the harness's relation as the server would prepare
    /// it for a request with this text and seed.
    pub fn instance(&self, query: &str, seed: Option<u64>) -> spq_core::Result<Instance<'_>> {
        let engine = SpqEngine::new(self.options(seed));
        let silp = engine.compile(&self.local, query)?;
        engine.prepare(&self.local, silp)
    }

    /// Stop the server and join its threads.
    pub fn shutdown(mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Counters the system already keeps, read at one instant (or, from
/// [`Counters::since`], their growth over an interval).
pub struct Counters {
    obs: Vec<u64>,
    /// `(hits, misses)` of the result, prepared and scenario caches, by
    /// [`CACHES`] position.
    pub caches: [(u64, u64); 3],
    pub scenario_evictions: u64,
    /// `(hits, misses, evictions)` of the relation's chunk cache.
    pub chunk: (u64, u64, u64),
}

/// Cache names, in [`Counters::caches`] order.
pub const CACHES: [&str; 3] = ["result_cache", "prepared_cache", "scenario_cache"];

/// The `spq-obs` counters a snapshot reads.
const OBS_COUNTERS: [&str; 10] = [
    "spq_net_lines_total",
    "spq_service_rejects_total",
    "spq_sketch_blocks_refined",
    "spq_sketch_blocks_routed",
    "spq_solver_refactorizations",
    "spq_solver_nodes_pruned_bound",
    "spq_solver_nodes_pruned_domain",
    "spq_solver_nodes_lp_infeasible",
    "spq_solver_nodes_integral",
    "spq_solver_nodes_branched",
];

impl Counters {
    pub fn take(env: &Env) -> Counters {
        let s = &env.service;
        let chunk = env.server_relation().chunk_cache_stats();
        Counters {
            obs: OBS_COUNTERS
                .iter()
                .map(|name| spq_obs::metrics::counter_value(name).unwrap_or(0))
                .collect(),
            caches: [
                (s.result_cache().hits(), s.result_cache().misses()),
                (s.prepared_cache().hits(), s.prepared_cache().misses()),
                (s.scenario_cache().hits(), s.scenario_cache().misses()),
            ],
            scenario_evictions: s.scenario_cache().evicted(),
            chunk: chunk
                .map(|c| (c.hits, c.misses, c.evictions))
                .unwrap_or_default(),
        }
    }

    /// Growth of every counter since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        let pair = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Counters {
            obs: self
                .obs
                .iter()
                .zip(&before.obs)
                .map(|(a, b)| a - b)
                .collect(),
            caches: std::array::from_fn(|i| pair(self.caches[i], before.caches[i])),
            scenario_evictions: self.scenario_evictions - before.scenario_evictions,
            chunk: (
                self.chunk.0 - before.chunk.0,
                self.chunk.1 - before.chunk.1,
                self.chunk.2 - before.chunk.2,
            ),
        }
    }

    /// One `spq-obs` counter by name.
    pub fn obs(&self, name: &str) -> f64 {
        let i = OBS_COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("a snapshotted counter");
        self.obs[i] as f64
    }

    /// Branch-and-bound nodes by outcome, summed.
    pub fn solver_node_outcomes(&self) -> f64 {
        OBS_COUNTERS
            .iter()
            .filter(|n| n.starts_with("spq_solver_nodes_"))
            .map(|n| self.obs(n))
            .sum()
    }
}

/// Dense multiplicities of a wire package over `instance`'s candidates.
pub fn dense_package(instance: &Instance<'_>, package: &[(usize, u32)]) -> Vec<f64> {
    let mut x = vec![0.0; instance.num_vars()];
    for &(tuple, mult) in package {
        let pos = instance.silp.tuples.iter().position(|&t| t == tuple);
        x[pos.expect("package tuples are candidates")] += f64::from(mult);
    }
    x
}

fn fail(what: &str, detail: impl std::fmt::Display) -> String {
    format!("{what}: {detail}")
}

/// Build the relation, start the server, load the relation over the wire,
/// warm the caches the workload relies on, and compute the objective bound.
pub fn setup(config: &RunConfig) -> Result<Env, String> {
    let started = Instant::now();
    let w = config.workload;
    let sizes = config.sizes();
    spq_sketch::install();

    // The harness's own copy, on the same storage tier as the server's.
    let storage = if w.on_disk() {
        // A directory of its own per set-up: the previous set-up's relation
        // deletes its chunk files when it drops.
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let n = SETUPS.fetch_add(1, Ordering::Relaxed);
        StorageOptions::disk(config.scratch.join(format!("local-{n}")))
    } else {
        StorageOptions::memory()
    };
    let local = spq_workloads::build_workload_with(w.kind(), sizes.tuples, RELATION_SEED, storage)
        .map_err(|e| fail("relation generation", e))?
        .relation;

    let service = Arc::new(SpqService::new(ServiceConfig {
        base_options: Env::base_options(&sizes),
        default_timeout: Some(Duration::from_millis(TIMEOUT_MS)),
        ..ServiceConfig::default()
    }));
    let server = SpqServer::start(
        service.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: nproc(),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| fail("server start", e))?;
    let addr = server.local_addr();
    let mut env = Env {
        config: config.clone(),
        service,
        server: Some(server),
        addr,
        local,
        packages: Vec::new(),
        bounds: Vec::new(),
        maximize: false,
        references: Vec::new(),
        load_seconds: 0.0,
        loaded_tuples: 0,
        setup_seconds: 0.0,
    };
    let mut conn = Conn::open(addr).map_err(|e| fail("connect", e))?;

    // load_relation over the wire, once per tenant.
    let load_started = Instant::now();
    for (n, tenant) in w.tenants().iter().enumerate() {
        let line = Request::Load(LoadRequest {
            id: format!("load{n}"),
            name: w.relation_name().to_string(),
            tenant: tenant.map(str::to_string),
            source: RelationSource::Workload {
                kind: w.kind(),
                scale: sizes.tuples,
                seed: RELATION_SEED,
            },
            storage: if w.on_disk() {
                RelationStorage::Disk
            } else {
                RelationStorage::Memory
            },
        })
        .to_line();
        let ack = conn.call(&line).map_err(|e| fail("load_relation", e))?;
        let ack = parse(&ack).map_err(|e| fail("load_ack", e))?;
        if ack.str_field("status") != Some("ok") {
            return Err(fail("load_relation", ack));
        }
        env.loaded_tuples += ack.u64_field("tuples").unwrap_or(0) as usize;
    }
    env.load_seconds = load_started.elapsed().as_secs_f64();
    if env.server_relation().fingerprint() != env.local.fingerprint() {
        return Err("the server's relation differs from the harness's copy".into());
    }

    // Warm-up: what the workload's steady state assumes is already there.
    let warm = |conn: &mut Conn, id: &str, op: &Op| -> Result<Reply, String> {
        let reply = Reply::parse(
            &conn
                .call(&env.line(id, op))
                .map_err(|e| fail("warm-up", e))?,
        );
        if reply.ok() && reply.feasible {
            Ok(reply)
        } else {
            Err(format!(
                "warm-up {id} did not return a feasible package: {reply:?}"
            ))
        }
    };
    match w {
        Workload::SsGalaxyMem => {
            // Both templates at their Table 3 constants realize the shared
            // optimization and validation blocks of the server-default seed.
            for q in 1..=2 {
                let op = Op::Query {
                    tenant: None,
                    query: spq_workloads::galaxy::query(q),
                    algorithm: Algorithm::SummarySearch,
                    seed: None,
                    slice: None,
                    repeat_key: None,
                };
                warm(&mut conn, &format!("warm{q}"), &op)?;
            }
        }
        Workload::SrPortfolioDisk => {
            // Every text once, on a seed outside the measured pools: the
            // prepared plans (the WHERE clause is evaluated when a text is
            // first bound) and lazy one-time state are paid here.
            for slice in 0..DISK_SLICES {
                for q in 1..=2 {
                    let op = Op::Query {
                        tenant: None,
                        query: workload::portfolio_slice_query(q, slice, &sizes),
                        algorithm: Algorithm::SketchRefine,
                        seed: Some(1),
                        slice: Some(slice),
                        repeat_key: None,
                    };
                    warm(&mut conn, &format!("warm{slice}.{q}"), &op)?;
                }
            }
        }
        Workload::ValTpchCold => {
            // The packages to validate: SketchRefine answers of the query
            // under four seeds.
            let mut packages = Vec::new();
            for p in 0..VAL_PACKAGES {
                let op = Op::Query {
                    tenant: None,
                    query: workload::validate_query(),
                    algorithm: Algorithm::SketchRefine,
                    seed: Some(100 + p as u64),
                    slice: None,
                    repeat_key: None,
                };
                packages.push(warm(&mut conn, &format!("find{p}"), &op)?.package);
            }
            env.packages = packages;
        }
        Workload::HotRepeat2Tenant => {
            let mut references = Vec::new();
            for key in 0..HOT_KEYS {
                let op = workload::hot_key_op(key);
                references.push(warm(&mut conn, &format!("warm{key}"), &op)?);
            }
            env.references = references;
        }
    }

    // Objective bounds: each distinct query with its probabilistic
    // constraints dropped, root LP relaxation only.
    let queries: Vec<String> = if w.on_disk() {
        (0..DISK_SLICES)
            .map(|slice| workload::portfolio_slice_query(1, slice, &sizes))
            .collect()
    } else {
        vec![match env.op(0) {
            Op::Query { query, .. } => query,
            Op::Validate { .. } => workload::validate_query(),
        }]
    };
    for query in queries {
        let instance = env
            .instance(&query, None)
            .map_err(|e| fail("bound instance", e))?;
        let formulation =
            formulate_unconstrained(&instance, instance.options.initial_scenarios.clamp(1, 50))
                .map_err(|e| fail("bound formulation", e))?;
        let mut options = instance.options.solver.clone();
        options.max_nodes = 1;
        let result = solve_full(&formulation.model, &options).map_err(|e| fail("bound LP", e))?;
        let bound = result
            .best_bound
            .ok_or("the root relaxation proved no objective bound")?;
        let maximize = matches!(
            instance.silp.objective.direction(),
            spq_core::Direction::Maximize
        );
        drop(instance);
        env.bounds.push(bound);
        env.maximize = maximize;
    }
    env.setup_seconds = started.elapsed().as_secs_f64();
    Ok(env)
}

/// What the timed phase keeps of one request.
pub struct Sample {
    pub reply: Reply,
    /// Cache-hit workloads are checked inline against the key's reference.
    pub matches_reference: Option<bool>,
}

/// Length of one window of [`window_peaks`].
const RSS_WINDOW: Duration = Duration::from_secs(1);

/// Run `phase` and return, beside its result, the peak resident set (MiB) of
/// every complete [`RSS_WINDOW`] of it: `VmHWM` read and started over at each
/// window's end. Empty where the kernel refuses to start `VmHWM` over.
///
/// The largest resident set of a whole run is the coincidence of a few
/// short-lived allocations on two workers; it moved by 20 % between runs of
/// one seed. The median window does not, and still grows with whatever a
/// request allocates.
fn window_peaks<T>(phase: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks = Vec::new();
            if !stats::reset_peak_rss() {
                return peaks;
            }
            let mut window_end = Instant::now() + RSS_WINDOW;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                if Instant::now() >= window_end {
                    peaks.push(stats::peak_rss_mib());
                    stats::reset_peak_rss();
                    window_end += RSS_WINDOW;
                }
            }
            peaks
        });
        let result = phase();
        stop.store(true, Ordering::Relaxed);
        (result, sampler.join().expect("sampler thread panicked"))
    })
}

/// Outcome of one untraced run.
pub struct RunOutcome {
    pub attempted: usize,
    pub failed: usize,
    pub verified: usize,
    /// Every end-to-end metric, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Cache provenance and sizes, for the human-readable report.
    pub notes: Vec<(String, Json)>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.verified == self.attempted
    }
}

/// Objective ÷ bound, oriented so that 1 is best and lower is worse.
fn objective_ratio(objective: f64, bound: f64, maximize: bool) -> f64 {
    if maximize {
        objective / bound
    } else {
        bound / objective
    }
}

/// What the output checks found.
struct Verification {
    /// Responses that passed.
    passed: usize,
    /// What the checks measured, for the report.
    notes: Vec<(String, Json)>,
}

/// Check every response of the timed phase.
fn verify(env: &Env, done: &[Done<Sample>]) -> Result<Verification, String> {
    let w = env.config.workload;
    match w {
        Workload::HotRepeat2Tenant => Ok(Verification {
            passed: done
                .iter()
                .filter(|d| d.value.reply.ok() && d.value.matches_reference == Some(true))
                .count(),
            notes: Vec::new(),
        }),
        Workload::SsGalaxyMem | Workload::SrPortfolioDisk => {
            // Re-validate every returned package with a separate `validate`
            // op at the full budget on a seed no request used.
            let held_out = (workload::mix(env.config.seed ^ 0x4e1d) & 0xFFFF_FFFF) | (1 << 40);
            let candidates: Vec<&Done<Sample>> = done
                .iter()
                .filter(|d| {
                    let r = &d.value.reply;
                    r.ok() && r.feasible && !r.package.is_empty()
                })
                .collect();
            let (checks, _) = closed_loop(
                env.addr,
                nproc(),
                Limit::Count(candidates.len()),
                |i| {
                    let d = candidates[i];
                    let Op::Query { query, tenant, .. } = env.op(d.index) else {
                        unreachable!("query workloads send queries")
                    };
                    Request::Validate(ValidateRequest {
                        id: format!("check{i}"),
                        relation: w.relation_name().to_string(),
                        query,
                        package: d.value.reply.package.clone(),
                        validation_scenarios: Some(env.sizes().m_hat),
                        seed: Some(held_out),
                        timeout_ms: Some(TIMEOUT_MS),
                        early_stop: Some(EarlyStop::Full),
                        threads: Some(1),
                        tenant: tenant.map(str::to_string),
                    })
                    .to_line()
                },
                // The package's worst held-out margin `fraction − p`, in
                // standard errors of that difference.
                |_, line| {
                    let r = Reply::parse(line);
                    (r.ok() && r.scenarios_used == r.m_hat)
                        .then(|| {
                            r.constraints
                                .iter()
                                .map(|&(p, f, _)| (f - p) / held_out_sigma(p, r.m_hat))
                                .min_by(f64::total_cmp)
                        })
                        .flatten()
                },
            );
            let margins: Vec<f64> = checks.iter().filter_map(|c| c.value).collect();
            let passed = margins.iter().filter(|&&m| m >= -HELD_OUT_SIGMAS).count();
            let (worst, middle) = if margins.is_empty() {
                (f64::NEG_INFINITY, f64::NEG_INFINITY)
            } else {
                (stats::sorted(&margins)[0], stats::median(&margins))
            };
            let systematic = middle < -SYSTEMATIC_SIGMAS;
            Ok(Verification {
                // A shortfall common to the packages discredits all of them.
                passed: if systematic { 0 } else { passed },
                notes: vec![
                    ("held_out_margin_sigmas_p50".to_string(), Json::from(middle)),
                    ("held_out_margin_sigmas_min".to_string(), Json::from(worst)),
                    (
                        "held_out_systematic_miss".to_string(),
                        Json::from(systematic),
                    ),
                ],
            })
        }
        Workload::ValTpchCold => {
            // One response in VALIDATE_RECHECK_STRIDE is recomputed serially
            // in process and must agree bit for bit (verdict, fractions,
            // objective). Every response must have the shape of a full pass,
            // a verdict that follows from its fractions, and fractions within
            // sampling error of a recomputed response for the same package
            // (whose seed differs).
            let query = workload::validate_query();
            let m_hat = env.sizes().m_hat;
            let package_of = |d: &Done<Sample>| match env.op(d.index) {
                Op::Validate { package, .. } => package,
                Op::Query { .. } => unreachable!("the validate workload sends validates"),
            };
            let shaped = |r: &Reply| {
                r.ok()
                    && r.m_hat == m_hat as u64
                    && r.scenarios_used == r.m_hat
                    && !r.constraints.is_empty()
                    && r.constraints
                        .iter()
                        .all(|&(p, f, ok)| (0.0..=1.0).contains(&f) && ok == (f >= p - 1e-12))
                    && r.feasible == r.constraints.iter().all(|c| c.2)
            };
            let recompute = |d: &Done<Sample>| -> Result<bool, String> {
                let r = &d.value.reply;
                let Op::Validate { package, seed } = env.op(d.index) else {
                    unreachable!("the validate workload sends validates")
                };
                let instance = env
                    .instance(&query, Some(seed))
                    .map_err(|e| fail("recheck instance", e))?;
                let x = dense_package(&instance, &env.packages[package]);
                let options = ValidationOptions {
                    threads: 1,
                    ..ValidationOptions::full(m_hat)
                };
                let report =
                    validate_with(&instance, &x, &options).map_err(|e| fail("recheck", e))?;
                Ok(report.feasible == r.feasible
                    && Some(report.objective_estimate) == r.objective
                    && report.constraints.len() == r.constraints.len()
                    && report
                        .constraints
                        .iter()
                        .zip(&r.constraints)
                        .all(|(a, b)| a.satisfied_fraction == b.1 && a.feasible == b.2))
            };
            // Drawn by hash, not by stride: the package an op validates is
            // periodic in its index.
            let drawn = |d: &Done<Sample>| {
                workload::mix(d.index as u64).is_multiple_of(VALIDATE_RECHECK_STRIDE)
            };
            let sampled: Vec<&Done<Sample>> = done
                .iter()
                .filter(|d| drawn(d) && shaped(&d.value.reply))
                .collect();
            let per_thread = sampled.len().div_ceil(nproc()).max(1);
            let agreed: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = sampled
                    .chunks(per_thread)
                    .map(|chunk| {
                        scope.spawn(|| chunk.iter().map(|d| recompute(d)).collect::<Vec<_>>())
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("recheck thread panicked"))
                    .collect::<Result<_, _>>()
            })?;
            // Per package: its first response that the recomputation confirmed.
            let mut reference: Vec<Option<&Reply>> = vec![None; VAL_PACKAGES];
            for (d, _) in sampled.iter().zip(&agreed).filter(|(_, ok)| **ok) {
                reference[package_of(d)].get_or_insert(&d.value.reply);
            }
            let near = |r: &Reply, to: &Reply| {
                r.constraints.len() == to.constraints.len()
                    && r.constraints.iter().zip(&to.constraints).all(|(a, b)| {
                        let sigma = (2.0 * b.1 * (1.0 - b.1) / m_hat as f64).sqrt();
                        (a.1 - b.1).abs() <= CROSS_SEED_SIGMAS * sigma.max(1.0 / m_hat as f64)
                    })
            };
            let confirmed: HashMap<usize, bool> = sampled
                .iter()
                .map(|d| d.index)
                .zip(agreed.iter().copied())
                .collect();
            let passed = done
                .iter()
                .filter(|d| {
                    let r = &d.value.reply;
                    let bit_exact = !drawn(d) || confirmed.get(&d.index) == Some(&true);
                    shaped(r) && bit_exact && reference[package_of(d)].is_some_and(|to| near(r, to))
                })
                .count();
            Ok(Verification {
                passed,
                notes: vec![(
                    "recomputed_in_process".to_string(),
                    Json::from(agreed.len()),
                )],
            })
        }
    }
}

/// Run one untraced measurement: set up (several times, keeping the last),
/// drive the closed loop for `seconds`, check the outputs, and compute the
/// end-to-end metrics.
pub fn run_untraced(config: &RunConfig) -> Result<RunOutcome, String> {
    // Set up several times and report the median: at least three, and more
    // while they are cheap, so that a set-up of tens of milliseconds is not
    // judged on three draws.
    let mut setup_seconds = Vec::new();
    let mut env = setup(config)?;
    setup_seconds.push(env.setup_seconds);
    while !config.quick
        && (setup_seconds.len() < 3
            || (setup_seconds.len() < 9 && setup_seconds.iter().sum::<f64>() < 1.5))
    {
        env.shutdown();
        env = setup(config)?;
        setup_seconds.push(env.setup_seconds);
    }
    let clients = nproc();

    let counters_before = Counters::take(&env);
    // Whatever set-up peaked at, before the windows start VmHWM over.
    let setup_peak_rss = stats::peak_rss_mib();
    let cpu_before = stats::cpu_seconds();
    let ((done, wall), rss_windows) = window_peaks(|| {
        closed_loop(
            env.addr,
            clients,
            // The self-test runs beside other tests on a loaded machine: it sends
            // a fixed count and judges nothing by the clock.
            if config.quick {
                Limit::Count(stats::MIN_SAMPLES_FOR_P90)
            } else {
                Limit::Time {
                    seconds: config.seconds,
                    min_samples: stats::MIN_SAMPLES_FOR_P90,
                }
            },
            |i| env.line(&format!("q{i}"), &env.op(i)),
            |i, line| {
                let reply = Reply::parse(line);
                let matches_reference = match env.op(i) {
                    Op::Query {
                        repeat_key: Some(key),
                        ..
                    } => {
                        let first = &env.references[key];
                        Some(
                            reply.result_hit
                                && reply.package == first.package
                                && reply.objective == first.objective
                                && reply.feasible == first.feasible,
                        )
                    }
                    _ => None,
                };
                Sample {
                    reply,
                    matches_reference,
                }
            },
        )
    });
    let cpu_after = stats::cpu_seconds();
    // The process's largest resident set so far: set-up, every window, and
    // the unfinished window the phase ended in.
    let run_peak_rss = rss_windows
        .iter()
        .copied()
        .fold(setup_peak_rss.max(stats::peak_rss_mib()), f64::max);
    let counted = Counters::take(&env).since(&counters_before);
    let wall = wall.as_secs_f64();

    let attempted = done.len();
    let failed = done.iter().filter(|d| !d.value.reply.ok()).count();
    let ok = attempted - failed;
    if attempted == 0 {
        return Err("the timed phase completed no request".into());
    }
    let Verification {
        passed: verified,
        notes: check_notes,
    } = verify(&env, &done)?;

    let latencies = stats::sorted(
        &done
            .iter()
            .filter(|d| d.value.reply.ok())
            .map(|d| d.latency.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    if !stats::percentile_supported(latencies.len(), 0.9) {
        return Err(format!(
            "only {} ok samples in {wall:.1}s: latency_p90_ms needs {} beyond it",
            latencies.len(),
            stats::SAMPLES_BEYOND
        ));
    }
    let queue_p50 = stats::median(
        &done
            .iter()
            .map(|d| d.value.reply.queue_ms)
            .collect::<Vec<_>>(),
    );
    if queue_p50 > 1.0 && !config.quick {
        return Err(format!(
            "queue_ms p50 = {queue_p50:.3} ms: with {clients} closed-loop clients on {clients} \
             workers nothing may queue"
        ));
    }
    let ratios: Vec<f64> = done
        .iter()
        .filter_map(|d| {
            let bound = match env.op(d.index) {
                Op::Query {
                    slice: Some(slice), ..
                } => env.bounds[slice],
                _ => env.bounds[0],
            };
            Some(objective_ratio(
                d.value.reply.objective?,
                bound,
                env.maximize,
            ))
        })
        .filter(|r| r.is_finite())
        .collect();
    if ratios.is_empty() {
        return Err("no response carried an objective".into());
    }
    let cpu = (cpu_after.0 - cpu_before.0) + (cpu_after.1 - cpu_before.1);

    let value = |name: &str| -> f64 {
        match name {
            "latency_p50_ms" => stats::percentile(&latencies, 0.5),
            "latency_p90_ms" => stats::percentile(&latencies, 0.9),
            "throughput_qps" => ok as f64 / wall,
            "cpu_s_per_op" => cpu / attempted as f64,
            "objective_vs_bound_p50" => stats::median(&ratios),
            "peak_rss_mib" if rss_windows.is_empty() => run_peak_rss,
            "peak_rss_mib" => stats::median(&rss_windows),
            "setup_s" => stats::median(&setup_seconds),
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    };
    let metrics = crate::catalog::END_TO_END
        .iter()
        .map(|m| (m, value(m.name)))
        .collect();

    let sizes = env.sizes();
    let relation = env.server_relation();
    let notes = vec![
        ("clients".to_string(), Json::from(clients)),
        ("workers".to_string(), Json::from(clients)),
        ("tuples".to_string(), Json::from(relation.len())),
        ("m_hat".to_string(), Json::from(sizes.m_hat)),
        ("requests".to_string(), Json::from(attempted)),
        ("latency_samples".to_string(), Json::from(latencies.len())),
        ("timed_phase_s".to_string(), Json::from(wall)),
        (
            "failed_share".to_string(),
            Json::from(failed as f64 / attempted as f64),
        ),
        (
            "verified_share".to_string(),
            Json::from(verified as f64 / attempted as f64),
        ),
        ("queue_ms_p50".to_string(), Json::from(queue_p50)),
        ("rss_windows".to_string(), Json::from(rss_windows.len())),
        ("run_peak_rss_mib".to_string(), Json::from(run_peak_rss)),
        ("storage".to_string(), Json::from(relation.storage_kind())),
        (
            "relation_disk_bytes".to_string(),
            Json::from(relation.disk_bytes()),
        ),
        (
            "chunk_cache_budget_bytes".to_string(),
            Json::from(
                relation
                    .chunk_cache_stats()
                    .map(|s| s.budget_bytes)
                    .unwrap_or(0),
            ),
        ),
        (
            "setup_s_each".to_string(),
            Json::Arr(setup_seconds.iter().map(|&s| Json::from(s)).collect()),
        ),
        ("load_relation_s".to_string(), Json::from(env.load_seconds)),
    ];
    // Cache provenance of the timed phase: which numbers are hits.
    let notes = notes
        .into_iter()
        .chain(check_notes)
        .chain(
            CACHES
                .iter()
                .zip(counted.caches)
                .map(|(name, (hits, misses))| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("hits".to_string(), Json::from(hits)),
                            ("misses".to_string(), Json::from(misses)),
                        ]),
                    )
                }),
        )
        .collect();
    env.shutdown();
    Ok(RunOutcome {
        attempted,
        failed,
        verified,
        metrics,
        notes,
    })
}
