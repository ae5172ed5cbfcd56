//! The query service core: relation catalog, caches, and request execution.
//!
//! [`SpqService`] is the transport-agnostic heart of spqd: it owns the
//! multi-tenant relation [`Catalog`] (cheap `Arc` handles), the
//! prepared-query cache, the shared scenario cache and the single-flight
//! result cache, and turns one [`QueryRequest`] into one [`QueryResponse`].
//! The TCP server ([`crate::server`]) layers scheduling, admission control
//! and cancellation bookkeeping on top; tests can call
//! [`SpqService::execute`] directly for a serial reference run.
//!
//! Execution is deterministic: a request's options are derived only from the
//! server's base options and the request's own fields, never from load or
//! timing — so the same request returns a bit-identical package whether it
//! runs alone or next to seven concurrent clients (the integration tests
//! assert exactly that). Determinism is also what makes
//! [`SpqService::execute_cached`] sound: identical requests share one solve.

use crate::catalog::{Catalog, TenantQuotas, DEFAULT_TENANT};
use crate::json::{object_line, ObjWriter};
use crate::prepared::PreparedCache;
use crate::protocol::{
    QueryRequest, QueryResponse, QueryStatus, ValidateRequest, ValidateResponse,
};
use crate::results::{Resolved, ResultCache, ResultKey};
use spq_core::bounds::certificate;
use spq_core::validation::{validate_with, EarlyStop, ValidationOptions};
use spq_core::{Algorithm, Instance, SpqEngine, SpqOptions};
use spq_mcdb::{Relation, ScenarioCache};
use spq_solver::Deadline;
use spq_workloads::{build_workload, WorkloadKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Options every query starts from; per-request fields override the
    /// seed, scenario counts and budget.
    pub base_options: SpqOptions,
    /// Budget applied when a request carries no `timeout_ms`, measured from
    /// admission. `None` = unlimited.
    pub default_timeout: Option<Duration>,
    /// Algorithm used when a request does not name one.
    pub default_algorithm: Algorithm,
    /// Byte budget of the shared scenario cache.
    pub scenario_cache_bytes: u64,
    /// Directory of the persistent scenario store (disk tier of the
    /// scenario cache). `None` disables persistence; when set, realized
    /// blocks are spilled there and reloaded across restarts — repeated
    /// traffic on the same workload pays generation once per store
    /// lifetime, not once per process.
    pub scenario_store_dir: Option<std::path::PathBuf>,
    /// Byte budget of the persistent scenario store.
    pub scenario_store_bytes: u64,
    /// Admission quotas applied to every tenant's `load_relation` calls.
    pub tenant_quotas: TenantQuotas,
    /// Completed `ok` responses kept by the single-flight result cache.
    pub result_cache_entries: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            base_options: SpqOptions::default(),
            default_timeout: Some(Duration::from_secs(60)),
            default_algorithm: Algorithm::SummarySearch,
            scenario_cache_bytes: ScenarioCache::DEFAULT_MAX_BYTES,
            scenario_store_dir: None,
            scenario_store_bytes: spq_mcdb::ScenarioStore::DEFAULT_MAX_BYTES,
            tenant_quotas: TenantQuotas::default(),
            result_cache_entries: ResultCache::DEFAULT_CAPACITY,
        }
    }
}

/// The transport-agnostic query service.
#[derive(Debug)]
pub struct SpqService {
    config: ServiceConfig,
    catalog: Catalog,
    prepared: PreparedCache,
    results: ResultCache,
    scenarios: Arc<ScenarioCache>,
    queries_executed: AtomicU64,
    validations_executed: AtomicU64,
    /// Wall-clock latency of `query` ops (nanoseconds, queue time excluded).
    query_latency: spq_obs::Histogram,
    /// Wall-clock latency of `validate` ops (nanoseconds, queue time
    /// excluded).
    validate_latency: spq_obs::Histogram,
}

impl SpqService {
    /// Create a service with the given configuration. Installs the
    /// SketchRefine evaluator so requests may select any algorithm.
    pub fn new(config: ServiceConfig) -> Self {
        spq_sketch::install();
        let mut cache = ScenarioCache::with_max_bytes(config.scenario_cache_bytes);
        if let Some(dir) = &config.scenario_store_dir {
            match spq_mcdb::ScenarioStore::open_bounded(dir, config.scenario_store_bytes) {
                Ok(store) => cache = cache.with_store(Arc::new(store)),
                Err(e) => {
                    // The store is an optimization: losing it degrades to
                    // per-process generation, so a bad directory must not
                    // keep the service from starting.
                    eprintln!("spqd: scenario store at {} disabled: {e}", dir.display());
                }
            }
        }
        let scenarios = Arc::new(cache);
        let catalog = Catalog::new(config.tenant_quotas.clone());
        let results = ResultCache::new(config.result_cache_entries);
        SpqService {
            config,
            catalog,
            prepared: PreparedCache::new(),
            results,
            scenarios,
            queries_executed: AtomicU64::new(0),
            validations_executed: AtomicU64::new(0),
            query_latency: spq_obs::Histogram::new(),
            validate_latency: spq_obs::Histogram::new(),
        }
    }

    /// Register a relation in the catalog's shared namespace
    /// (case-insensitive lookup, visible to every tenant). Replaces any
    /// previous relation of that name; cached plans, scenario blocks and
    /// results of the old relation are keyed by its uid and simply stop
    /// being hit.
    pub fn register_relation(&self, name: impl Into<String>, relation: Relation) {
        self.catalog.register_shared(name, relation, "startup");
    }

    /// Build one of the paper's workloads and register its relation under
    /// the workload's name (`galaxy`, `portfolio`, `tpch`). Returns the
    /// relation's registered name and its tuple count.
    pub fn register_workload(
        &self,
        kind: WorkloadKind,
        scale: usize,
        seed: u64,
    ) -> (String, usize) {
        let workload = build_workload(kind, scale, seed);
        let name = match kind {
            WorkloadKind::Galaxy => "galaxy",
            WorkloadKind::Portfolio => "portfolio",
            WorkloadKind::Tpch => "tpch",
        };
        let n = workload.relation.len();
        self.register_relation(name, workload.relation);
        (name.to_string(), n)
    }

    /// Look up a relation as the default tenant (clone is O(1)).
    pub fn relation(&self, name: &str) -> Option<Relation> {
        self.relation_for(DEFAULT_TENANT, name)
    }

    /// Look up a relation as `tenant`: the tenant's own namespace shadows
    /// the shared one (clone is O(1)).
    pub fn relation_for(&self, tenant: &str, name: &str) -> Option<Relation> {
        self.catalog.resolve(tenant, name)
    }

    /// Names of the shared (startup) relations, sorted. Tenant-loaded
    /// relations are listed per tenant by [`Catalog::list`].
    pub fn relation_names(&self) -> Vec<String> {
        self.catalog.shared_names()
    }

    /// The effective tenant of a request-level `tenant` field.
    pub fn tenant_of(tenant: &Option<String>) -> &str {
        tenant.as_deref().unwrap_or(DEFAULT_TENANT)
    }

    /// The multi-tenant relation catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The single-flight result cache (exposed for stats and tests).
    pub fn result_cache(&self) -> &ResultCache {
        &self.results
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared scenario cache (exposed for stats and tests).
    pub fn scenario_cache(&self) -> &Arc<ScenarioCache> {
        &self.scenarios
    }

    /// The prepared-query cache (exposed for stats and tests).
    pub fn prepared_cache(&self) -> &PreparedCache {
        &self.prepared
    }

    /// Total queries executed (any status except rejected).
    pub fn queries_executed(&self) -> u64 {
        self.queries_executed.load(Ordering::Relaxed)
    }

    /// Total `validate` ops executed (any status except rejected).
    pub fn validations_executed(&self) -> u64 {
        self.validations_executed.load(Ordering::Relaxed)
    }

    /// The effective deadline of a request with the given per-request
    /// timeout, admitted now, carrying the request's cancellation `token`.
    /// The one place a request's deadline is armed.
    pub fn deadline_with(
        &self,
        timeout_ms: Option<u64>,
        token: &spq_solver::CancellationToken,
    ) -> Deadline {
        let timeout = timeout_ms
            .map(Duration::from_millis)
            .or(self.config.default_timeout);
        timeout
            .map_or_else(Deadline::none, Deadline::within)
            .with_token(token.clone())
    }

    /// The relation a request names, as its tenant sees it.
    fn resolve(&self, tenant: &Option<String>, name: &str) -> Result<Relation, Refusal> {
        self.relation_for(Self::tenant_of(tenant), name)
            .ok_or_else(|| (QueryStatus::Error, format!("unknown relation `{name}`")))
    }

    /// The options any request evaluates under: base options with the
    /// request's seed, the deadline armed at admission, and the shared
    /// scenario cache.
    fn request_options(&self, seed: Option<u64>, deadline: Deadline) -> SpqOptions {
        let mut options = self.config.base_options.clone();
        if let Some(seed) = seed {
            options.seed = seed;
        }
        options.deadline = deadline;
        options.scenario_cache = Some(self.scenarios.clone());
        options
    }

    /// The algorithm and options a query request evaluates under:
    /// [`Self::request_options`] plus the query's algorithm and scenario
    /// overrides. Its result-cache key is read off the same options.
    fn options_for(&self, request: &QueryRequest, deadline: Deadline) -> (Algorithm, SpqOptions) {
        let mut options = self.request_options(request.seed, deadline);
        if let Some(m) = request.initial_scenarios {
            options.initial_scenarios = m.max(1);
        }
        if let Some(m) = request.max_scenarios {
            options.max_scenarios = m;
        }
        if let Some(v) = request.validation_scenarios {
            options.validation_scenarios = v.max(1);
        }
        let algorithm = request.algorithm.unwrap_or(self.config.default_algorithm);
        (algorithm, options)
    }

    /// Execute one query request. `deadline` is the budget armed at
    /// admission ([`Self::deadline_with`]), carrying the cancellation token
    /// the caller may fire from another thread; `queued` is how long the
    /// request waited before execution started.
    pub fn execute(
        &self,
        request: &QueryRequest,
        deadline: Deadline,
        queued: Duration,
    ) -> QueryResponse {
        let started = Instant::now();
        let response = self
            .resolve(&request.tenant, &request.relation)
            .map(|relation| {
                let (algorithm, options) = self.options_for(request, deadline);
                self.run_query(request, &relation, algorithm, options)
            });
        self.finish_query(request, response, queued, started)
    }

    /// [`Self::execute`] behind the single-flight result cache: identical
    /// requests run one solve and share its `ok` response (sound because
    /// execution is deterministic — a hit is bit-identical to a fresh run).
    /// `id`, `queue_ms` and `wall_ms` are re-stamped per requester; hits set
    /// [`QueryResponse::result_cache_hit`]. A hit is served even to a
    /// request cancelled or expired while queued; waiters coalescing onto an
    /// in-flight solve honor their *own* deadline and cancellation.
    pub fn execute_cached(
        &self,
        request: &QueryRequest,
        deadline: Deadline,
        queued: Duration,
    ) -> QueryResponse {
        let started = Instant::now();
        let response = self
            .resolve(&request.tenant, &request.relation)
            .and_then(|relation| {
                let (algorithm, options) = self.options_for(request, deadline);
                let key = ResultKey::new(relation.uid(), &request.query, algorithm, &options);
                let deadline = options.deadline.clone();
                let compute = || self.run_query(request, &relation, algorithm, options);
                match self.results.get_or_compute(&key, &deadline, compute) {
                    Resolved::Hit(hit) => Ok(QueryResponse {
                        id: request.id.clone(),
                        result_cache_hit: true,
                        ..*hit
                    }),
                    Resolved::Computed(response) => Ok(*response),
                    Resolved::Cancelled => Err((
                        QueryStatus::Cancelled,
                        "cancelled while awaiting an identical in-flight query".into(),
                    )),
                    Resolved::TimedOut => Err((
                        QueryStatus::Timeout,
                        "deadline expired while awaiting an identical in-flight query".into(),
                    )),
                }
            });
        self.finish_query(request, response, queued, started)
    }

    /// Run an admitted query: refuse it if it was cancelled or expired
    /// while queued, else compile (or fetch) its plan and evaluate it.
    fn run_query(
        &self,
        request: &QueryRequest,
        relation: &Relation,
        algorithm: Algorithm,
        options: SpqOptions,
    ) -> QueryResponse {
        let deadline = options.deadline.clone();
        let run = || {
            refuse_queued(&deadline)?;
            let (silp, cache_hit) = self
                .prepared
                .get_or_compile(relation, &request.query)
                .map_err(|e| failed(&deadline, e))?;
            let result = SpqEngine::new(options)
                .evaluate_silp(relation, (*silp).clone(), algorithm)
                .map_err(|e| failed(&deadline, e))?;
            Ok(QueryResponse {
                id: request.id.clone(),
                status: status_of(&deadline, !result.feasible, QueryStatus::Ok),
                error: None,
                feasible: result.feasible,
                objective: result.objective(),
                package: result
                    .package
                    .as_ref()
                    .map(|p| p.multiplicities.clone())
                    .unwrap_or_default(),
                algorithm: algorithm.to_string(),
                prepared_cache_hit: cache_hit,
                result_cache_hit: false,
                queue_ms: 0.0,
                wall_ms: 0.0,
                stats: Some(result.stats),
            })
        };
        run().unwrap_or_else(|(status, error)| QueryResponse::failure(&request.id, status, error))
    }

    /// The finisher of every `query` outcome: a refusal becomes a failure
    /// response, and [`finish`] stamps, counts and times it.
    fn finish_query(
        &self,
        request: &QueryRequest,
        response: Result<QueryResponse, Refusal>,
        queued: Duration,
        started: Instant,
    ) -> QueryResponse {
        let response = response
            .unwrap_or_else(|(status, error)| QueryResponse::failure(&request.id, status, error));
        let (queue_ms, wall_ms) =
            finish(&self.queries_executed, &self.query_latency, queued, started);
        QueryResponse {
            queue_ms,
            wall_ms,
            ..response
        }
    }

    /// Execute one `validate` op: compile (or fetch) the query's plan, map
    /// the wire package onto the candidate tuples, and run the blocked
    /// out-of-sample validator against this request's stream. Deterministic
    /// like [`Self::execute`]: the same request yields a bit-identical
    /// report at any thread count, serial or concurrent.
    pub fn execute_validate(
        &self,
        request: &ValidateRequest,
        deadline: Deadline,
        queued: Duration,
    ) -> ValidateResponse {
        let started = Instant::now();
        let response = self
            .resolve(&request.tenant, &request.relation)
            .and_then(|relation| self.run_validate(request, &relation, deadline))
            .unwrap_or_else(|(status, error)| {
                ValidateResponse::failure(&request.id, status, error)
            });
        let (queue_ms, wall_ms) = finish(
            &self.validations_executed,
            &self.validate_latency,
            queued,
            started,
        );
        ValidateResponse {
            queue_ms,
            wall_ms,
            ..response
        }
    }

    /// Run an admitted `validate` op, refusing it if it was cancelled or
    /// expired while queued.
    fn run_validate(
        &self,
        request: &ValidateRequest,
        relation: &Relation,
        deadline: Deadline,
    ) -> Result<ValidateResponse, Refusal> {
        refuse_queued(&deadline)?;
        let options = self.request_options(request.seed, deadline.clone());
        // Client-supplied: clamp to the machine's parallelism so one request
        // cannot spawn an unbounded number of OS threads (reports are
        // bit-identical at any count, so clamping never changes the answer).
        // Absent or `0` keeps the automatic policy.
        let threads = request
            .threads
            .unwrap_or(0)
            .min(spq_mcdb::available_cores());
        let m_hat = request
            .validation_scenarios
            .unwrap_or(options.validation_scenarios);

        let instance = {
            let _span = spq_obs::span("prepare");
            self.prepared
                .get_or_compile(relation, &request.query)
                .and_then(|(silp, _)| Instance::new(relation, (*silp).clone(), options))
        }
        .map_err(|e| failed(&deadline, e))?;
        let x = dense_package(&instance.silp.tuples, &request.package).map_err(|tuple| {
            failed(
                &deadline,
                format!("tuple {tuple} is not a candidate of this query"),
            )
        })?;

        let vopts = ValidationOptions {
            m_hat,
            block_scenarios: instance.options.validation_block,
            threads,
            // Final answers default to a full pass; clients opt in to
            // adaptive verdicts explicitly.
            early_stop: request.early_stop.unwrap_or(EarlyStop::Full),
            // Wire requests carry client timeouts: honor them strictly.
            honor_deadline: true,
        };
        // The wire reports ε, so this is one of the places the certificate
        // is computed (a `query` op never is, at the default ε).
        let (report, epsilon) = validate_with(&instance, &x, &vopts)
            .and_then(|report| {
                let epsilon = certificate(&instance, report.objective_estimate)?;
                Ok((report, epsilon))
            })
            .map_err(|e| failed(&deadline, e))?;
        Ok(ValidateResponse {
            id: request.id.clone(),
            status: status_of(&deadline, report.interrupted, QueryStatus::Ok),
            error: None,
            feasible: report.feasible,
            objective_estimate: Some(report.objective_estimate),
            epsilon_upper_bound: epsilon.is_finite().then_some(epsilon),
            scenarios_used: report.scenarios_used,
            m_hat: report.m_hat,
            early_stopped: report.early_stopped,
            constraints: report.constraints,
            queue_ms: 0.0,
            wall_ms: 0.0,
        })
    }

    /// The `query` op latency histogram (nanoseconds; exposed for stats and
    /// tests).
    pub fn query_latency(&self) -> &spq_obs::Histogram {
        &self.query_latency
    }

    /// The `validate` op latency histogram (nanoseconds; exposed for stats
    /// and tests).
    pub fn validate_latency(&self) -> &spq_obs::Histogram {
        &self.validate_latency
    }

    /// The `{"op":"stats"}` reply line; `transport` appends transport-level
    /// fields like queue depth.
    pub(crate) fn stats_line(&self, transport: impl FnOnce(&mut ObjWriter)) -> String {
        // Every cache reports the same `Memo` counters; byte-weighted ones
        // also their resident and ever-admitted bytes.
        fn cache(w: &mut ObjWriter, s: spq_mcdb::MemoStats, bytes: bool) {
            w.field("hits", s.hits)
                .field("misses", s.misses)
                .field("hit_rate", hit_rate(s.hits, s.misses))
                .field("coalesced", s.coalesced)
                .field("evicted", s.evictions)
                .field("entries", s.entries);
            if bytes {
                w.field("resident_bytes", s.resident)
                    .field("bytes_inserted", s.weight_inserted);
            }
        }
        // {count, p50_ms, p90_ms, p99_ms, max_ms} for one op's latency
        // histogram (bucket upper bounds, so quantiles overestimate by at
        // most 12.5%).
        fn latency(w: &mut ObjWriter, h: &spq_obs::Histogram) {
            let ms = |ns: u64| ns as f64 / 1e6;
            w.field("count", h.count())
                .field("p50_ms", ms(h.p50()))
                .field("p90_ms", ms(h.p90()))
                .field("p99_ms", ms(h.p99()))
                .field("max_ms", ms(h.max()));
        }
        object_line(|w| {
            w.field("op", "stats")
                .field("queries_executed", self.queries_executed())
                .field("validations_executed", self.validations_executed())
                .object("latency", |w| {
                    w.object("query", |w| latency(w, &self.query_latency))
                        .object("validate", |w| latency(w, &self.validate_latency));
                })
                .object("prepared_cache", |w| cache(w, self.prepared.stats(), false))
                .object("result_cache", |w| cache(w, self.results.stats(), false))
                .object("scenario_cache", |w| cache(w, self.scenarios.stats(), true))
                .object("scenario_store", |w| {
                    let s = self.scenarios.store_stats();
                    w.field("enabled", self.scenarios.store().is_some())
                        .field("spill_writes", s.spill_writes)
                        .field("reads", s.reads)
                        .field("bytes", s.bytes)
                        .field("corrupt", s.corrupt)
                        .field("evictions", s.evictions);
                })
                .field("relations", self.relation_names().as_slice())
                // Chunk traffic summed over the catalog's disk-backed
                // relations (per-relation figures come from
                // `list_relations`).
                .object("relation_chunk_cache", |w| {
                    let (hits, misses, evictions) = self.catalog.chunk_traffic();
                    w.field("hits", hits)
                        .field("misses", misses)
                        .field("evictions", evictions)
                        .field("hit_rate", hit_rate(hits, misses));
                })
                .objects("tenants", self.catalog.tenant_snapshots(), |w, snap| {
                    w.field("tenant", &snap.tenant)
                        .field("relations", snap.relations.as_slice())
                        .field("resident_tuples", snap.resident_tuples)
                        .field("resident_bytes", snap.resident_bytes)
                        .field("disk_bytes", snap.disk_bytes)
                        .field("chunk_hit_rate", snap.chunk_hit_rate())
                        .field("admits", snap.admits)
                        .field("rejects", snap.rejects);
                });
            transport(w);
        })
    }
}

/// Hit fraction in [0, 1]; 0 when the cache was never consulted.
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Why a request produced no answer: its status and error message.
type Refusal = (QueryStatus, String);

/// The one status rule of every request: cancellation wins, then an expired
/// deadline when `cut_short` (the work stopped early or never started), then
/// `otherwise`.
fn status_of(deadline: &Deadline, cut_short: bool, otherwise: QueryStatus) -> QueryStatus {
    if deadline.is_cancelled() {
        QueryStatus::Cancelled
    } else if cut_short && deadline.expired() {
        QueryStatus::Timeout
    } else {
        otherwise
    }
}

/// The refusal of a run that failed with `error`: `error` status, unless the
/// request was cancelled.
fn failed(deadline: &Deadline, error: impl std::fmt::Display) -> Refusal {
    (
        status_of(deadline, false, QueryStatus::Error),
        error.to_string(),
    )
}

/// Refuse a request cancelled or expired while it was queued.
fn refuse_queued(deadline: &Deadline) -> Result<(), Refusal> {
    match status_of(deadline, true, QueryStatus::Ok) {
        QueryStatus::Ok => Ok(()),
        QueryStatus::Cancelled => Err((QueryStatus::Cancelled, "cancelled while queued".into())),
        status => Err((status, "deadline expired while queued".into())),
    }
}

/// The one finisher of every op: count it in `executed`, record its latency
/// since `started`, and return the `(queue_ms, wall_ms)` to stamp on its
/// response.
fn finish(
    executed: &AtomicU64,
    latency: &spq_obs::Histogram,
    queued: Duration,
    started: Instant,
) -> (f64, f64) {
    executed.fetch_add(1, Ordering::Relaxed);
    let elapsed = started.elapsed();
    latency.record_duration(elapsed);
    (
        queued.as_secs_f64() * 1000.0,
        elapsed.as_secs_f64() * 1000.0,
    )
}

/// Place a wire package (`(relation tuple index, multiplicity)` pairs) onto
/// the candidate positions of `tuples`, or name the first package tuple that
/// is not a candidate. Indexes the package's tens of tuples rather than the
/// N candidates: one pass over `tuples`, a binary search in the package each.
fn dense_package(tuples: &[usize], package: &[(usize, u32)]) -> Result<Vec<f64>, usize> {
    let mut wanted: Vec<usize> = package.iter().map(|&(tuple, _)| tuple).collect();
    wanted.sort_unstable();
    wanted.dedup();
    let mut position: Vec<Option<usize>> = vec![None; wanted.len()];
    for (pos, tuple) in tuples.iter().enumerate() {
        if let Ok(k) = wanted.binary_search(tuple) {
            position[k] = Some(pos);
        }
    }
    let mut x = vec![0.0f64; tuples.len()];
    for &(tuple, mult) in package {
        let k = wanted
            .binary_search(&tuple)
            .expect("every package tuple was indexed above");
        match position[k] {
            Some(pos) => x[pos] += f64::from(mult),
            None => return Err(tuple),
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_mcdb::vg::NormalNoise;
    use spq_mcdb::RelationBuilder;
    use spq_solver::CancellationToken;

    fn service() -> SpqService {
        let service = SpqService::new(ServiceConfig {
            base_options: SpqOptions::for_tests(),
            default_timeout: Some(Duration::from_secs(30)),
            ..Default::default()
        });
        let relation = RelationBuilder::new("stocks")
            .deterministic_f64("price", vec![100.0, 100.0, 100.0, 100.0])
            .stochastic(
                "gain",
                NormalNoise::around(vec![5.0, 4.0, 1.0, 0.5], vec![1.0, 6.0, 0.2, 0.1]),
            )
            .build()
            .unwrap();
        service.register_relation("stocks", relation);
        service
    }

    fn request(id: &str) -> QueryRequest {
        QueryRequest {
            id: id.into(),
            relation: "Stocks".into(),
            query: "SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(price) <= 300 AND \
                    SUM(gain) >= -1 WITH PROBABILITY >= 0.9 MAXIMIZE EXPECTED SUM(gain)"
                .into(),
            tenant: None,
            algorithm: None,
            timeout_ms: None,
            seed: None,
            initial_scenarios: Some(15),
            max_scenarios: None,
            validation_scenarios: Some(500),
        }
    }

    fn run(service: &SpqService, request: &QueryRequest) -> QueryResponse {
        let deadline = service.deadline_with(request.timeout_ms, &CancellationToken::new());
        service.execute(request, deadline, Duration::ZERO)
    }

    #[test]
    fn executes_a_query_and_reports_cache_state() {
        let service = service();
        let first = run(&service, &request("a"));
        assert_eq!(first.status, QueryStatus::Ok, "{:?}", first.error);
        assert!(first.feasible);
        assert!(!first.package.is_empty());
        assert!(!first.prepared_cache_hit);
        assert!(first.stats.is_some());

        // Same query again: prepared plan and scenario blocks are reused,
        // and the package is identical.
        let second = run(&service, &request("b"));
        assert_eq!(second.status, QueryStatus::Ok);
        assert!(second.prepared_cache_hit);
        assert_eq!(second.package, first.package);
        assert_eq!(second.objective, first.objective);
        assert_eq!(service.prepared_cache().hits(), 1);
        assert!(service.scenario_cache().hits() > 0);
        assert_eq!(service.queries_executed(), 2);

        // A different algorithm reuses the same prepared plan.
        let mut naive = request("c");
        naive.algorithm = Some(Algorithm::Naive);
        let third = run(&service, &naive);
        assert_eq!(third.status, QueryStatus::Ok);
        assert!(third.prepared_cache_hit);
        assert_eq!(third.algorithm, "Naive");
    }

    #[test]
    fn unknown_relation_and_bad_query_are_errors() {
        let service = service();
        let mut bad_rel = request("x");
        bad_rel.relation = "nope".into();
        let r = run(&service, &bad_rel);
        assert_eq!(r.status, QueryStatus::Error);
        assert!(r.error.unwrap().contains("nope"));

        let mut bad_query = request("y");
        bad_query.query = "SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(missing) <= 1".into();
        let r = run(&service, &bad_query);
        assert_eq!(r.status, QueryStatus::Error);
    }

    #[test]
    fn cancelled_and_expired_requests_short_circuit() {
        let service = service();
        let req = request("z");
        let token = CancellationToken::new();
        token.cancel();
        let deadline = service.deadline_with(req.timeout_ms, &token);
        let r = service.execute(&req, deadline, Duration::from_millis(5));
        assert_eq!(r.status, QueryStatus::Cancelled);
        assert!(r.queue_ms >= 5.0);

        let expired = Deadline::within(Duration::ZERO).with_token(CancellationToken::new());
        let r = service.execute(&req, expired, Duration::ZERO);
        assert_eq!(r.status, QueryStatus::Timeout);
    }

    fn validate_request(id: &str, package: Vec<(usize, u32)>) -> ValidateRequest {
        ValidateRequest {
            id: id.into(),
            relation: "stocks".into(),
            query: request("q").query,
            tenant: None,
            package,
            validation_scenarios: Some(500),
            seed: None,
            timeout_ms: None,
            early_stop: None,
            threads: None,
        }
    }

    fn run_validate(service: &SpqService, request: &ValidateRequest) -> ValidateResponse {
        let deadline = service.deadline_with(request.timeout_ms, &CancellationToken::new());
        service.execute_validate(request, deadline, Duration::ZERO)
    }

    #[test]
    fn validate_op_checks_a_returned_package_end_to_end() {
        let service = service();
        let solved = run(&service, &request("q"));
        assert_eq!(solved.status, QueryStatus::Ok);
        assert!(solved.feasible);

        // Validating the solver's own package reproduces its feasibility.
        let v = run_validate(&service, &validate_request("v1", solved.package.clone()));
        assert_eq!(v.status, QueryStatus::Ok, "{:?}", v.error);
        assert!(v.feasible);
        assert_eq!(v.scenarios_used, 500);
        assert_eq!(v.m_hat, 500);
        assert!(!v.early_stopped);
        assert_eq!(v.constraints.len(), 1);
        assert!(v.constraints[0].surplus >= 0.0);
        assert!(v.objective_estimate.is_some());
        assert_eq!(service.validations_executed(), 1);

        // A package violating the risk constraint fails validation: tuple 1
        // has sd 6, so 3 copies put huge mass below the -1 threshold.
        let v = run_validate(&service, &validate_request("v2", vec![(1, 3)]));
        assert_eq!(v.status, QueryStatus::Ok);
        assert!(!v.feasible);
        assert!(v.constraints[0].surplus < 0.0);

        // Adaptive early stop is opt-in and reports its savings.
        let mut adaptive = validate_request("v3", solved.package.clone());
        adaptive.validation_scenarios = Some(200_000);
        adaptive.early_stop = Some(spq_core::EarlyStop::Hoeffding {
            delta: spq_core::validation::DEFAULT_HOEFFDING_DELTA,
        });
        let v = run_validate(&service, &adaptive);
        assert_eq!(v.status, QueryStatus::Ok);
        assert!(v.feasible);
        assert!(v.early_stopped);
        assert!(v.scenarios_used < 200_000);
    }

    #[test]
    fn dense_package_places_a_wire_package_on_candidate_positions() {
        // Candidates in any order; repeated package tuples accumulate.
        assert_eq!(
            dense_package(&[7, 3, 9, 4], &[(9, 2), (7, 1), (9, 1)]),
            Ok(vec![1.0, 0.0, 3.0, 0.0])
        );
        assert_eq!(dense_package(&[7, 3], &[]), Ok(vec![0.0, 0.0]));
        // The first non-candidate in request order is the one named.
        assert_eq!(dense_package(&[7, 3, 9], &[(3, 1), (8, 1), (5, 1)]), Err(8));
    }

    #[test]
    fn validate_op_realizes_only_the_blocks_something_reads() {
        let service = service();
        let cache = service.scenario_cache().clone();
        let block_bytes = |scenarios: usize, tuples: usize| (scenarios * tuples * 8) as u64;

        // Probability objective: ω̂ ∈ [0, 1] needs no sampled value bounds,
        // so the op realizes its M̂ × support validation rows (one cached
        // row per support tuple) and nothing else.
        let mut probability = validate_request("p", vec![(0, 1), (2, 1)]);
        probability.query = "SELECT PACKAGE(*) FROM stocks SUCH THAT SUM(price) <= 300 \
                             MAXIMIZE PROBABILITY OF SUM(gain) >= 6"
            .into();
        let v = run_validate(&service, &probability);
        assert_eq!(v.status, QueryStatus::Ok, "{:?}", v.error);
        let objective = v.objective_estimate.unwrap();
        assert!(objective > 0.0 && objective < 1.0, "objective {objective}");
        assert_eq!(v.epsilon_upper_bound, Some(1.0 / objective - 1.0));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.resident_bytes(), block_bytes(500, 2));

        // Expectation objective over the same column and support: the
        // validation rows are shared, and the certificate adds Table 1's
        // 64 × N block.
        let v = run_validate(&service, &validate_request("l", vec![(0, 1), (2, 1)]));
        assert_eq!(v.status, QueryStatus::Ok, "{:?}", v.error);
        assert!(v.epsilon_upper_bound.is_some_and(f64::is_finite));
        assert_eq!((cache.hits(), cache.misses()), (2, 3));
        assert_eq!(
            cache.resident_bytes(),
            block_bytes(500, 2) + block_bytes(64, 4)
        );
    }

    #[test]
    fn validate_op_rejects_bad_inputs() {
        let service = service();
        // Unknown relation.
        let mut bad = validate_request("x", vec![(0, 1)]);
        bad.relation = "nope".into();
        assert_eq!(run_validate(&service, &bad).status, QueryStatus::Error);
        // A tuple outside the candidate set.
        let v = run_validate(&service, &validate_request("y", vec![(999, 1)]));
        assert_eq!(v.status, QueryStatus::Error);
        assert!(v.error.unwrap().contains("999"));
        // A zero validation budget surfaces the m̂ = 0 error over the wire.
        let mut zero = validate_request("z", vec![(0, 1)]);
        zero.validation_scenarios = Some(0);
        let v = run_validate(&service, &zero);
        assert_eq!(v.status, QueryStatus::Error);
        assert!(v.error.unwrap().contains("m_hat"));
        // Cancelled while queued.
        let token = CancellationToken::new();
        token.cancel();
        let req = validate_request("c", vec![(0, 1)]);
        let deadline = service.deadline_with(req.timeout_ms, &token);
        let v = service.execute_validate(&req, deadline, Duration::ZERO);
        assert_eq!(v.status, QueryStatus::Cancelled);
    }

    #[test]
    fn result_cache_shares_one_solve_across_identical_requests() {
        let service = service();
        let run_cached = |req: &QueryRequest| {
            let deadline = service.deadline_with(req.timeout_ms, &CancellationToken::new());
            service.execute_cached(req, deadline, Duration::ZERO)
        };
        let first = run_cached(&request("a"));
        assert_eq!(first.status, QueryStatus::Ok, "{:?}", first.error);
        assert!(!first.result_cache_hit);

        // The identical request (different id) is answered from cache,
        // bit-identically, with the id re-stamped.
        let second = run_cached(&request("b"));
        assert_eq!(second.id, "b");
        assert!(second.result_cache_hit);
        assert_eq!(second.package, first.package);
        assert_eq!(second.objective, first.objective);
        assert_eq!(service.result_cache().hits(), 1);
        assert_eq!(service.result_cache().misses(), 1);
        // Both count as executed queries.
        assert_eq!(service.queries_executed(), 2);

        // Changing anything the answer depends on misses.
        let mut other_seed = request("c");
        other_seed.seed = Some(987);
        assert!(!run_cached(&other_seed).result_cache_hit);
        let mut other_algo = request("d");
        other_algo.algorithm = Some(Algorithm::Naive);
        assert!(!run_cached(&other_algo).result_cache_hit);
        assert_eq!(service.result_cache().misses(), 3);

        // Spellings of the same effective work share one entry: an initial
        // scenario count of 0 runs as 1, and an absent seed is the base seed.
        let mut zero = request("e");
        zero.initial_scenarios = Some(0);
        assert!(!run_cached(&zero).result_cache_hit);
        let mut one = request("f");
        one.initial_scenarios = Some(1);
        assert!(run_cached(&one).result_cache_hit);
        let mut spelled = request("g");
        spelled.seed = Some(service.config().base_options.seed);
        assert!(run_cached(&spelled).result_cache_hit);
        assert_eq!(service.result_cache().misses(), 4);
    }

    #[test]
    fn a_waiter_that_gives_up_on_an_inflight_solve_is_timed() {
        let service = service();
        let req = request("w");
        // Hold the slot of `req`'s computation open on another thread.
        let relation = service.relation("stocks").unwrap();
        let (algorithm, options) = service.options_for(&req, Deadline::none());
        let key = ResultKey::new(relation.uid(), &req.query, algorithm, &options);
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let key = &key;
            let results = service.result_cache();
            scope.spawn(move || {
                results.get_or_compute(key, &Deadline::none(), || {
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    QueryResponse::failure("holder", QueryStatus::Error, "released")
                })
            });
            held_rx.recv().unwrap();

            // An identical request whose deadline fires gives up waiting.
            let token = CancellationToken::new();
            token.cancel();
            let deadline = service.deadline_with(req.timeout_ms, &token);
            let r = service.execute_cached(&req, deadline, Duration::ZERO);
            assert_eq!(r.status, QueryStatus::Cancelled);
            let expired = Deadline::within(Duration::ZERO).with_token(CancellationToken::new());
            let r = service.execute_cached(&req, expired, Duration::ZERO);
            assert_eq!(r.status, QueryStatus::Timeout);
            release_tx.send(()).unwrap();
        });
        // Every query the service counts is also in its latency histogram.
        assert_eq!(service.queries_executed(), 2);
        assert_eq!(service.query_latency().count(), service.queries_executed());
    }

    #[test]
    fn tenants_resolve_their_own_relations_in_queries() {
        let service = service();
        // "alice" loads her own tiny `stocks`, shadowing the shared one.
        service
            .catalog()
            .load(
                "alice",
                "stocks",
                &crate::catalog::RelationSource::Workload {
                    kind: WorkloadKind::Galaxy,
                    scale: 120,
                    seed: 5,
                },
            )
            .unwrap();
        let shared = service.relation("stocks").unwrap();
        let alices = service.relation_for("alice", "stocks").unwrap();
        assert_ne!(shared.uid(), alices.uid());

        // A query tagged with the tenant runs against the tenant's relation:
        // the galaxy workload has no `price`/`gain` columns, so alice's
        // request errors while the untagged one succeeds.
        let untagged = run(&service, &request("u"));
        assert_eq!(untagged.status, QueryStatus::Ok);
        let mut tagged = request("t");
        tagged.tenant = Some("alice".into());
        let r = run(&service, &tagged);
        assert_eq!(r.status, QueryStatus::Error);

        // Stats reports the tenant's holdings.
        let text = service.stats_line(|_| {});
        assert!(text.contains("\"tenants\":[{\"tenant\":\"alice\""));
        assert!(text.contains("\"relations\":[\"stocks\"]"));
        assert!(text.contains("\"result_cache\":{\"hits\":0"));
    }

    #[test]
    fn workload_registration_and_stats() {
        let service = service();
        let (name, n) = service.register_workload(WorkloadKind::Portfolio, 120, 1);
        assert_eq!(name, "portfolio");
        assert!(n >= 100);
        assert!(service.relation("PORTFOLIO").is_some());
        assert_eq!(
            service.relation_names(),
            vec!["portfolio".to_string(), "stocks".to_string()]
        );
        let text = service.stats_line(|w| {
            w.field("queue_depth", 3usize);
        });
        assert!(text.contains("\"relations\":[\"portfolio\",\"stocks\"]"));
        assert!(text.contains("\"queue_depth\":3"));
        // No ops have run yet: latency histograms exist but are empty.
        assert!(text.contains("\"latency\":{\"query\":{\"count\":0"));
        assert!(text.contains("\"hit_rate\":0"));
        assert!(text.contains("\"evicted\":0"));
    }

    #[test]
    fn stats_report_latency_quantiles_and_cache_hit_rates() {
        let service = service();
        let first = run(&service, &request("s1"));
        assert_eq!(first.status, QueryStatus::Ok);
        let second = run(&service, &request("s2"));
        assert_eq!(second.status, QueryStatus::Ok);
        let v = run_validate(&service, &validate_request("s3", first.package.clone()));
        assert_eq!(v.status, QueryStatus::Ok);

        assert_eq!(service.query_latency().count(), 2);
        assert_eq!(service.validate_latency().count(), 1);
        assert!(service.query_latency().p50() > 0);

        let text = service.stats_line(|_| {});
        assert!(text.contains("\"latency\":{\"query\":{\"count\":2"));
        assert!(text.contains("\"validate\":{\"count\":1"));
        assert!(text.contains("\"p99_ms\":"));
        // The second query and the validate op both hit the prepared cache
        // (same query string): 2 hits / 1 miss.
        assert!(text.contains("\"prepared_cache\":{\"hits\":2,\"misses\":1,\"hit_rate\":0.66"));
        assert!(text.contains("\"evicted\":0"));
    }
}
