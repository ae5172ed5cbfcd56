//! The traced run: per-layer metrics, measured from outside.
//!
//! Two serial passes replay the first `K` requests of the workload over the
//! wire, each against a freshly set-up server: one untraced, one with the
//! `spq-obs` spans switched on and a request span around every client call.
//! Counts are deltas of counters the system already keeps, taken across the
//! traced pass; rates and timings of single layers come from direct calls
//! into their public functions that replay the same requests in process.

use crate::catalog::{Metric, PER_LAYER};
use crate::run::{self, dense_package, Conn, Counters, Env, Reply, RunConfig};
use crate::spans::{Origin, Span, Trace};
use crate::stats;
use crate::workload::{mix, validate_query, Op};
use spq_core::saa::formulate_saa;
use spq_core::summary_search::evaluate_summary_search;
use spq_core::validation::{validate_with, ValidationOptions};
use spq_core::{Algorithm, SpqEngine};
use spq_mcdb::ScenarioCache;
use spq_service::json::{parse, Json};
use spq_service::prelude::*;
use spq_sketch::{evaluate_sketch_refine, partition_hierarchical, BlockFeatures};
use spq_solver::solve_full;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pings timed for `net.ping_rtt_us_p50`.
const PINGS: usize = 400;
/// Rows gathered per request for `column.gather_mrows_per_s`.
const GATHER_ROWS: usize = 4_096;
/// The solver probe formulates the SAA over at most this many candidate
/// tuples and explores at most [`SOLVER_PROBE_NODES`] nodes: enough pivots
/// to time the kernel, bounded however large the workload's relation is,
/// and cut off by a node count (not a clock) so its counts repeat.
const SOLVER_PROBE_VARS: usize = 500;
const SOLVER_PROBE_NODES: usize = 20;
/// Name of the marker span that aligns the `spq-obs` clock with the trace's.
const SYNC_SPAN: &str = "perf_ledger_sync";

/// Outcome of one traced run.
pub struct TraceOutcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every per-layer metric, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Span count of the written chrome trace.
    pub spans: usize,
}

/// `part / whole`, 0 when the whole is 0.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(values), 0.5)
    }
}

/// Replay the first `k` requests one at a time on one connection; with a
/// trace, record a request span around each call.
fn replay(
    env: &Env,
    k: usize,
    mut trace: Option<&mut Trace>,
) -> Result<Vec<(f64, Reply, String)>, String> {
    let mut conn = Conn::open(env.addr).map_err(|e| format!("connect: {e}"))?;
    let mut out = Vec::with_capacity(k);
    for i in 0..k {
        let line = env.line(&format!("t{i}"), &env.op(i));
        let start_us = trace.as_ref().map(|t| t.now_us());
        let sent = Instant::now();
        let response = conn
            .call(&line)
            .map_err(|e| format!("traced request {i}: {e}"))?;
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        if let (Some(trace), Some(start_us)) = (trace.as_deref_mut(), start_us) {
            trace.push(Span {
                name: format!("request {i}"),
                origin: Origin::Wire,
                start_us,
                end_us: start_us + latency_ms * 1e3,
                parent: None,
                request: i,
                lane: 0,
            });
        }
        out.push((latency_ms, Reply::parse(&response), response));
    }
    Ok(out)
}

/// Read the `spq-obs` export back as `(name, start_us, dur_us, tid)` on the
/// trace's clock, using the sync marker recorded at `sync_us`.
fn read_obs_events(path: &Path, sync_us: f64) -> Result<Vec<(String, f64, f64, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read obs trace: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("parse obs trace: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("obs trace has no traceEvents")?;
    let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let sync = events
        .iter()
        .filter(|e| e.str_field("name") == Some(SYNC_SPAN))
        .map(|e| field(e, "ts"))
        .fold(f64::NAN, f64::max);
    if sync.is_nan() {
        return Err("obs trace lost its sync marker".into());
    }
    Ok(events
        .iter()
        .filter(|e| e.str_field("name") != Some(SYNC_SPAN))
        .map(|e| {
            (
                e.str_field("name").unwrap_or("?").to_string(),
                field(e, "ts") - sync + sync_us,
                field(e, "dur"),
                field(e, "tid") as u64,
            )
        })
        .collect())
}

/// Timings and counts gathered by the direct layer calls.
#[derive(Default)]
struct Probes {
    codec_us: Vec<f64>,
    compile_ms: Vec<f64>,
    prepare_ms: Vec<f64>,
    scenario_cold_s: f64,
    scenario_cells: u64,
    scenario_warm_ms: Vec<f64>,
    gather_rows: u64,
    gather_s: f64,
    partition_ms: Vec<f64>,
    partitions: u64,
    sketch_ms: Vec<f64>,
    search_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    solve_pivots: u64,
    solve_s: f64,
    validation_scenarios: u64,
    validation_s: f64,
}

/// Replay request `i` through the layers' public functions, one probe span
/// per call, all children of the request's wire span (span `i`: the wire
/// spans are recorded first, in request order).
fn probe_request(
    env: &Env,
    trace: &mut Trace,
    i: usize,
    response: &str,
    reply: &Reply,
    probes: &mut Probes,
) -> Result<(), String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("probe {what} (request {i}): {e}");
    let wire = i;
    let line = env.line(&format!("t{i}"), &env.op(i));

    // service codec: decode the request and encode its response, as the
    // server does once per op. The response to encode is rebuilt outside the
    // span from the line the server sent.
    let encode: Box<dyn Fn() -> String> = match ValidateResponse::parse_line(response) {
        Ok(v) => Box::new(move || v.to_line()),
        Err(_) => {
            let mut q = QueryResponse::parse_line(response).map_err(|e| err("codec", &e))?;
            q.stats = Some(Default::default());
            Box::new(move || q.to_line())
        }
    };
    let (_, ms) = trace.probe("service.codec", wire, || {
        std::hint::black_box((Request::parse_line(&line).is_ok(), encode().len()))
    });
    probes.codec_us.push(ms * 1e3);
    if reply.result_hit {
        // A cache hit evaluates nothing; no layer below the service ran.
        return Ok(());
    }

    let op = env.op(i);
    let (query, seed, algorithm, package) = match &op {
        Op::Query {
            query,
            seed,
            algorithm,
            ..
        } => (
            query.clone(),
            *seed,
            Some(*algorithm),
            reply.package.clone(),
        ),
        Op::Validate { package, seed } => (
            validate_query(),
            Some(*seed),
            None,
            env.packages[*package].clone(),
        ),
    };
    // The harness's own scenario cache, so cold and warm realization can be
    // told apart without touching the server's.
    let cache = Arc::new(ScenarioCache::new());
    let mut options = env.options(seed);
    options.scenario_cache = Some(cache.clone());
    let engine = SpqEngine::new(options);

    // spaql + core.translate
    let (silp, ms) = trace.probe("compile", wire, || engine.compile(&env.local, &query));
    let silp = silp.map_err(|e| err("compile", &e))?;
    probes.compile_ms.push(ms);

    // core.instance
    let (instance, ms) = trace.probe("instance.prepare", wire, || {
        engine.prepare(&env.local, silp.clone())
    });
    let instance = instance.map_err(|e| err("prepare", &e))?;
    probes.prepare_ms.push(ms);
    let x = dense_package(&instance, &package);

    // mcdb.scenario: the block the op realizes first, cold then warm.
    let column = instance
        .silp
        .stochastic_columns()
        .into_iter()
        .next()
        .ok_or_else(|| err("scenario", &"the query reads no stochastic column"))?;
    let realize = |instance: &spq_core::Instance<'_>| match algorithm {
        Some(_) => instance
            .optimization_matrix(&column, reply.scenarios.max(1) as usize)
            .map(|m| m.num_scenarios() * instance.num_vars()),
        None => {
            let positions: Vec<usize> = (0..x.len()).filter(|&p| x[p] > 0.0).collect();
            let block = instance.options.validation_block.min(env.sizes().m_hat);
            instance
                .validation_matrix(&column, &positions, 0..block)
                .map(|m| m.num_scenarios() * positions.len())
        }
    };
    let (cells, ms) = trace.probe("scenario.cold", wire, || realize(&instance));
    probes.scenario_cells += cells.map_err(|e| err("scenario", &e))? as u64;
    probes.scenario_cold_s += ms / 1e3;
    let (_, ms) = trace.probe("scenario.warm", wire, || realize(&instance).map(|_| ()));
    probes.scenario_warm_ms.push(ms);

    // mcdb.column: a seeded row list through the storage tier.
    if let Some(det) = env
        .local
        .schema()
        .deterministic_columns()
        .into_iter()
        .find(|c| env.local.gather_f64(c, &[0]).is_ok())
    {
        let n = env.local.len() as u64;
        let rows: Vec<usize> = (0..GATHER_ROWS.min(env.local.len()) as u64)
            .map(|r| (mix(env.config.seed ^ mix(i as u64).wrapping_add(r)) % n) as usize)
            .collect();
        let (gathered, ms) =
            trace.probe("column.gather", wire, || env.local.gather_f64(det, &rows));
        gathered.map_err(|e| err("gather", &e))?;
        probes.gather_rows += rows.len() as u64;
        probes.gather_s += ms / 1e3;
    }

    match algorithm {
        Some(Algorithm::SketchRefine) => {
            let n = instance.num_vars();
            let (parts, ms) = trace.probe("sketch.partition", wire, || {
                BlockFeatures::from_instance(&instance).map(|f| {
                    partition_hierarchical(
                        &f,
                        instance.options.sketch.effective_partition_size(n),
                        instance.options.sketch.diameter_fraction,
                    )
                })
            });
            probes.partitions += parts.map_err(|e| err("partition", &e))?.len() as u64;
            probes.partition_ms.push(ms);
            let (result, ms) = trace.probe("sketch.evaluate", wire, || {
                evaluate_sketch_refine(&instance)
            });
            result.map_err(|e| err("sketch", &e))?;
            probes.sketch_ms.push(ms);
        }
        Some(_) => {
            let (result, ms) = trace.probe("search.evaluate", wire, || {
                evaluate_summary_search(&instance)
            });
            result.map_err(|e| err("search", &e))?;
            probes.search_ms.push(ms);
        }
        None => {}
    }

    // solver: the SAA at the op's final scenario count over a bounded
    // prefix of the candidates.
    if algorithm.is_some() {
        let mut prefix = silp.clone();
        prefix.tuples.truncate(SOLVER_PROBE_VARS);
        let small = engine
            .prepare(&env.local, prefix)
            .map_err(|e| err("solver", &e))?;
        let mut solver = small.options.solver.clone();
        solver.max_nodes = SOLVER_PROBE_NODES;
        let (result, ms) = trace.probe("solver.solve", wire, || {
            formulate_saa(&small, reply.scenarios.max(1) as usize)
                .and_then(|f| Ok(solve_full(&f.model, &solver)?))
        });
        probes.solve_pivots += result.map_err(|e| err("solver", &e))?.lp_iterations as u64;
        probes.solve_ms.push(ms);
        probes.solve_s += ms / 1e3;
    }

    // core.validation: one full pass over the op's package, one thread.
    let m_hat = env.sizes().m_hat;
    let (report, ms) = trace.probe("validation.validate", wire, || {
        validate_with(
            &instance,
            &x,
            &ValidationOptions {
                threads: 1,
                ..ValidationOptions::full(m_hat)
            },
        )
    });
    probes.validation_scenarios += report.map_err(|e| err("validation", &e))?.scenarios_used as u64;
    probes.validation_s += ms / 1e3;
    Ok(())
}

/// Run the traced measurement and write the chrome trace to `trace_out`.
///
/// The `spq-obs` spans stay on afterwards (`spq-obs` has no switch to turn
/// them off), so a process that has made a traced run may not make an
/// untraced one: the driver and `all` give every run a process of its own.
pub fn run_traced(config: &RunConfig, trace_out: &Path) -> Result<TraceOutcome, String> {
    let k = config.sizes().traced_requests;

    // ---- pass A: untraced, for the overhead baseline and the CPU split ----
    let env = run::setup(config)?;
    let mut conn = Conn::open(env.addr).map_err(|e| format!("connect: {e}"))?;
    let ping = Request::Ping.to_line();
    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let sent = Instant::now();
        conn.call(&ping).map_err(|e| format!("ping: {e}"))?;
        ping_us.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    let cpu_before = stats::cpu_seconds();
    let untraced = replay(&env, k, None)?;
    let cpu_after = stats::cpu_seconds();
    let (user, system) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
    env.shutdown();

    // ---- pass B: spq-obs spans on, request spans recorded ------------------
    let env = run::setup(config)?;
    let obs_path = config.scratch.join("obs-spans.json");
    spq_obs::trace::enable(&obs_path);
    spq_obs::trace::clear();
    let mut trace = Trace::new();
    let sync_us = trace.now_us();
    drop(spq_obs::span(SYNC_SPAN));
    let before = Counters::take(&env);
    let traced = replay(&env, k, Some(&mut trace))?;
    let counted = Counters::take(&env).since(&before);
    spq_obs::trace::export_to(&obs_path).map_err(|e| format!("export obs trace: {e}"))?;
    trace.fold_obs(read_obs_events(&obs_path, sync_us)?);
    let shares = trace.layer_shares();

    // ---- direct layer calls, replaying the same requests -------------------
    let mut probes = Probes::default();
    for (i, (_, reply, response)) in traced.iter().enumerate() {
        probe_request(&env, &mut trace, i, response, reply, &mut probes)?;
    }

    // ---- metrics -----------------------------------------------------------
    // A cached response repeats the counters of the solve that filled the
    // cache; only responses that evaluated count as work done.
    let replies: Vec<&Reply> = traced
        .iter()
        .map(|(_, r, _)| r)
        .filter(|r| !r.result_hit)
        .collect();
    let sum = |f: &dyn Fn(&Reply) -> u64| replies.iter().map(|r| f(r)).sum::<u64>() as f64;
    let col = |f: &dyn Fn(usize, f64, &Reply) -> f64| -> Vec<f64> {
        traced
            .iter()
            .enumerate()
            .map(|(i, (ms, r, _))| f(i, *ms, r))
            .collect()
    };
    // `hits / (hits + misses)` of a cache; 0 when it was never consulted.
    let hit_share = |(hits, misses): (u64, u64)| share(hits as f64, (hits + misses) as f64);
    let relation = env.server_relation();
    let det_columns = relation.schema().deterministic_columns().len();
    // Paired by request: the median of traced ÷ untraced latency, so the
    // spread between easy and hard requests cancels.
    let trace_overhead = stats::median(
        &untraced
            .iter()
            .zip(&traced)
            .map(|((plain, ..), (traced, ..))| traced / plain)
            .collect::<Vec<_>>(),
    ) - 1.0;
    let sketch_blocks =
        counted.obs("spq_sketch_blocks_refined") + counted.obs("spq_sketch_blocks_routed");

    let value = |name: &str| -> f64 {
        match name {
            "net.ping_rtt_us_p50" => p50(&ping_us),
            "net.lines" => counted.obs("spq_net_lines_total"),
            "service.wire_overhead_ms_p50" => p50(&col(&|_, ms, r| ms - r.wall_ms)),
            "service.queue_ms_p50" => p50(&col(&|_, _, r| r.queue_ms)),
            // wall_ms minus the evaluator's own clock: prepared lookup or
            // compile, plan clone, instance build for validate ops, encode.
            "service.pre_eval_ms_p50" => p50(&col(&|i, _, r| {
                r.wall_ms
                    - match r.eval_ms {
                        Some(eval) if !r.result_hit => eval,
                        Some(_) => 0.0,
                        None => trace.obs_ms(i, "validate"),
                    }
            })),
            "service.codec_us_per_op" => p50(&probes.codec_us),
            "service.result_cache_hit_share" => hit_share(counted.caches[0]),
            "service.prepared_cache_hit_share" => hit_share(counted.caches[1]),
            "service.rejects" => counted.obs("spq_service_rejects_total"),
            "compile.ms_p50" => p50(&probes.compile_ms),
            "instance.prepare_ms_p50" => p50(&probes.prepare_ms),
            "scenario.cold_mcells_per_s" => {
                share(probes.scenario_cells as f64 / 1e6, probes.scenario_cold_s)
            }
            "scenario.warm_ms_p50" => p50(&probes.scenario_warm_ms),
            "scenario.cells" => probes.scenario_cells as f64,
            "scenario.cache_hit_share" => hit_share(counted.caches[2]),
            "scenario.cache_evictions" => counted.scenario_evictions as f64,
            "column.gather_mrows_per_s" => share(probes.gather_rows as f64 / 1e6, probes.gather_s),
            "column.chunk_hit_share" => hit_share((counted.chunk.0, counted.chunk.1)),
            "column.chunk_misses" => counted.chunk.1 as f64,
            "column.chunk_evictions" => counted.chunk.2 as f64,
            "column.load_mrows_per_s" => share(env.loaded_tuples as f64 / 1e6, env.load_seconds),
            "column.disk_bytes_per_user_byte" => share(
                relation.disk_bytes() as f64,
                (8 * relation.len() * det_columns) as f64,
            ),
            "sketch.partition_ms_p50" => p50(&probes.partition_ms),
            "sketch.partitions" => probes.partitions as f64,
            "sketch.blocks_refined_share" => {
                share(counted.obs("spq_sketch_blocks_refined"), sketch_blocks)
            }
            "sketch.evaluate_ms_p50" => p50(&probes.sketch_ms),
            "search.evaluate_ms_p50" => p50(&probes.search_ms),
            "search.outer_iterations" => sum(&|r| r.outer_iterations),
            "search.problems_solved" => sum(&|r| r.problems_solved),
            "search.scenarios_final" => sum(&|r| r.scenarios),
            "solver.solve_ms_p50" => p50(&probes.solve_ms),
            "solver.lp_pivots" => sum(&|r| r.lp_pivots),
            "solver.nodes" => sum(&|r| r.solver_nodes),
            "solver.kpivots_per_s" => share(probes.solve_pivots as f64 / 1e3, probes.solve_s),
            "solver.refactorizations" => counted.obs("spq_solver_refactorizations"),
            "solver.nodes_pruned_share" => share(
                counted.obs("spq_solver_nodes_pruned_bound")
                    + counted.obs("spq_solver_nodes_pruned_domain"),
                counted.solver_node_outcomes(),
            ),
            "validation.mscenarios_per_s" => share(
                probes.validation_scenarios as f64 / 1e6,
                probes.validation_s,
            ),
            "validation.scenarios" => sum(&|r| r.validation_scenarios + r.scenarios_used),
            "validation.passes" => sum(&|r| r.validations + u64::from(r.scenarios_used > 0)),
            "proc.sys_cpu_share" => share(system, user + system),
            "proc.trace_overhead_share" => trace_overhead,
            other => {
                let group = other.strip_prefix("share.").expect("a catalogued metric");
                shares
                    .iter()
                    .find(|(g, _)| *g == group)
                    .expect("a layer group")
                    .1
            }
        }
    };
    let metrics: Vec<(&'static Metric, f64)> =
        PER_LAYER.iter().map(|m| (m, value(m.name))).collect();

    std::fs::write(trace_out, trace.to_chrome_json())
        .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
    let attempted = untraced.len() + traced.len();
    let failed = untraced
        .iter()
        .chain(&traced)
        .filter(|(_, r, _)| !r.ok())
        .count();
    let spans = trace.spans.len();
    env.shutdown();
    Ok(TraceOutcome {
        attempted,
        failed,
        metrics,
        spans,
    })
}
