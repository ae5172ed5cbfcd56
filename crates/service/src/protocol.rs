//! The spqd wire protocol: newline-delimited JSON.
//!
//! Every request is one JSON object on one line; every reply is one JSON
//! object on one line. A connection carries any number of requests, and
//! replies come back in completion order (not submission order) tagged
//! with the request's `id`, so clients can pipeline.
//!
//! ## Requests
//!
//! The `op` field selects the operation; it defaults to `"query"`:
//!
//! ```json
//! {"id":"q1","relation":"portfolio","query":"SELECT PACKAGE(*) FROM ...",
//!  "algorithm":"summary-search","timeout_ms":30000,"seed":7}
//! {"op":"validate","id":"v1","relation":"portfolio","query":"SELECT ...",
//!  "package":[[3,1],[17,2]],"validation_scenarios":100000,
//!  "early_stop":"hoeffding","threads":8}
//! {"op":"cancel","id":"q1"}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"load_relation","id":"l1","name":"p2","tenant":"alice",
//!  "source":"workload","workload":"portfolio","scale":5000,"seed":7}
//! {"op":"load_relation","id":"l2","name":"mine","source":"file",
//!  "path":"/data/mine.json","storage":"disk"}
//! {"op":"unload_relation","name":"p2","tenant":"alice"}
//! {"op":"list_relations","tenant":"alice"}
//! ```
//!
//! Query fields: `id` and `relation` and `query` are required; `algorithm`
//! (default `summary-search`), `timeout_ms`, `seed`, `initial_scenarios`,
//! `max_scenarios` and `validation_scenarios` override the server defaults
//! per request. `tenant` (any op that touches a relation) selects the
//! tenant namespace the relation name resolves in; requests without it act
//! as the `default` tenant. `load_relation` registers a relation in the
//! requesting tenant's namespace — `source:"workload"` synthesizes one of
//! the paper's generators (`workload`, `scale`, `seed`), `source:"file"`
//! reads a column-spec JSON file from the server's filesystem — subject to
//! the tenant's admission quotas; `storage:"disk"` (default `"memory"`)
//! streams the deterministic columns into checksummed chunk files on the
//! server so million-tuple relations load in bounded memory.
//! `unload_relation` drops it; `list_relations` reports what the tenant can
//! see. `validate` runs the blocked out-of-sample validator over a given
//! package (no search): `package` lists `[tuple_index, multiplicity]`
//! pairs, `early_stop` is `full` (default), `certain` or `hoeffding`.
//! `cancel` aborts the named in-flight query of the *same connection*
//! cooperatively (the solver stops at its next pivot-loop checkpoint; the
//! validator at its next block).
//!
//! A present field of the wrong type (`"seed":"7"`, `"timeout_ms":-1`,
//! `"op":5`) is an error naming the field, never the server default; `null`
//! reads as absent. Integers must be below 2^53, the range a JSON number
//! carries exactly, and a multiplicity must fit in 32 bits.
//!
//! ## Replies
//!
//! ```json
//! {"id":"q1","status":"ok","feasible":true,"objective":12.5,
//!  "package":[[3,1],[17,2]],"algorithm":"SummarySearch",
//!  "prepared_cache":"hit","result_cache":"miss","queue_ms":0.4,"wall_ms":18.2,
//!  "stats":{"scenarios":100,"summaries":1,"outer_iterations":1,
//!           "problems_solved":4,"validations":3,"validation_scenarios":3000,
//!           "solver_nodes":11,"lp_pivots":903,"max_problem_coefficients":4000,
//!           "wall_time_ms":17.9}}
//! {"op":"validate","id":"v1","status":"ok","feasible":true,"objective":5,
//!  "epsilon":8.3,"scenarios_used":400,"m_hat":400,"early_stopped":false,
//!  "constraints":[{"index":1,"probability":0.9,"fraction":1,"surplus":0.1,
//!                  "feasible":true,"scenarios":400}],"queue_ms":0.1,"wall_ms":2.5}
//! {"op":"pong"}
//! {"op":"cancel_ack","id":"q1","found":true}
//! {"op":"load_ack","id":"l1","name":"p2","tenant":"alice","tuples":5000,
//!  "storage":"memory","status":"ok"}
//! {"op":"unload_ack","name":"p2","status":"ok"}
//! {"op":"relations","tenant":"alice","relations":[{"name":"p2","tuples":5000,
//!  "source":"...","shared":false,"storage":"disk","resident_bytes":0,
//!  "disk_bytes":6149,"chunk_cache":{"hits":0,"misses":0,"evictions":0,"hit_rate":0}}]}
//! {"status":"error","error":"..."}
//! ```
//!
//! A query response's `status` is `ok` (`feasible` tells whether a
//! validation-feasible package was found), `rejected` (the queue was full),
//! `cancelled`, `timeout` or `error`; `error` carries the message, and
//! `algorithm` and `stats` appear once an evaluation ran. A validate
//! response is tagged `"op":"validate"`; its `objective` and `ε` certificate
//! `epsilon` are `null` when absent. `load_ack` and `unload_ack` answer
//! `"status":"error"` with an `error` message (a failed `load_ack` carries
//! only `op`, `id`, `status` and `error`); `chunk_cache` appears on disk
//! relations only. The bare error line answers a line that does not decode
//! as a request. `stats` answers one object with the top-level keys `op`,
//! `queries_executed`, `validations_executed`, `latency`, `prepared_cache`,
//! `result_cache`, `scenario_cache`, `scenario_store`, `relations`,
//! `relation_chunk_cache`, `tenants`, `queue_depth`, `in_flight`,
//! `open_connections` and `rejected_admissions`, in that order.
//!
//! Every field is decoded through one reader that knows the op, and every
//! line is encoded through [`crate::json`]'s object writer.

use crate::catalog::{RelationSource, RelationStorage};
use crate::json::{object_line, parse, Json};
use spq_core::validation::ConstraintValidation;
use spq_core::{Algorithm, EarlyStop, EvaluationStats};

/// A query to evaluate.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Client-chosen id echoed in the response; also the handle for
    /// `cancel`.
    pub id: String,
    /// Name of a relation registered with the service.
    pub relation: String,
    /// sPaQL text.
    pub query: String,
    /// Evaluation algorithm (`None` = the server default).
    pub algorithm: Option<Algorithm>,
    /// Per-query budget in milliseconds, measured from admission.
    pub timeout_ms: Option<u64>,
    /// Base random seed override.
    pub seed: Option<u64>,
    /// `SpqOptions::initial_scenarios` override.
    pub initial_scenarios: Option<usize>,
    /// `SpqOptions::max_scenarios` override.
    pub max_scenarios: Option<usize>,
    /// `SpqOptions::validation_scenarios` override.
    pub validation_scenarios: Option<usize>,
    /// Tenant namespace the relation name resolves in (`None` = the
    /// `default` tenant).
    pub tenant: Option<String>,
}

/// A package to validate out-of-sample, without re-running the search.
#[derive(Debug, Clone)]
pub struct ValidateRequest {
    /// Client-chosen id echoed in the response; also the handle for
    /// `cancel`.
    pub id: String,
    /// Name of a relation registered with the service.
    pub relation: String,
    /// sPaQL text naming the constraints the package is validated against.
    pub query: String,
    /// `(tuple_index, multiplicity)` pairs of the package.
    pub package: Vec<(usize, u32)>,
    /// Out-of-sample budget `M̂` (`None` = the server default). `0` is
    /// rejected by the validator.
    pub validation_scenarios: Option<usize>,
    /// Base random seed override (selects the validation stream).
    pub seed: Option<u64>,
    /// Per-request budget in milliseconds, measured from admission.
    pub timeout_ms: Option<u64>,
    /// Early-stop policy: `full` (default), `certain`, or `hoeffding`.
    pub early_stop: Option<EarlyStop>,
    /// Validator worker threads (`None`/0 = automatic; results are
    /// bit-identical either way).
    pub threads: Option<usize>,
    /// Tenant namespace the relation name resolves in (`None` = the
    /// `default` tenant).
    pub tenant: Option<String>,
}

/// A `load_relation` op: register a relation in the requesting tenant's
/// namespace, subject to the tenant's admission quotas.
#[derive(Debug, Clone)]
pub struct LoadRequest {
    /// Client-chosen id echoed in the response.
    pub id: String,
    /// Name the relation is registered under (case-insensitive).
    pub name: String,
    /// Tenant namespace the relation is loaded into (`None` = the
    /// `default` tenant).
    pub tenant: Option<String>,
    /// Where the data comes from.
    pub source: RelationSource,
    /// Storage tier: `"memory"` (default) keeps deterministic columns
    /// materialized; `"disk"` streams them into chunk files on the server,
    /// bounding resident memory for million-tuple relations.
    pub storage: RelationStorage,
}

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Evaluate a query.
    Query(QueryRequest),
    /// Validate a given package out-of-sample.
    Validate(ValidateRequest),
    /// Cancel an in-flight query of this connection by id.
    Cancel {
        /// Id of the query to cancel.
        id: String,
    },
    /// Server and cache statistics.
    Stats,
    /// Liveness probe.
    Ping,
    /// Load a relation into the requesting tenant's namespace.
    Load(LoadRequest),
    /// Drop a relation from the requesting tenant's namespace.
    Unload {
        /// Relation name.
        name: String,
        /// Tenant namespace (`None` = the `default` tenant).
        tenant: Option<String>,
    },
    /// List the relations the requesting tenant can see.
    ListRelations {
        /// Tenant namespace (`None` = the `default` tenant).
        tenant: Option<String>,
    },
}

/// What one wire field must hold, and how to read it.
pub(crate) struct Kind<T>(&'static str, fn(&Json) -> Option<T>);

pub(crate) const STRING: Kind<String> = Kind("a string", |json| json.as_str().map(str::to_string));
const BOOL: Kind<bool> = Kind("a boolean", Json::as_bool);
const NUMBER: Kind<f64> = Kind("a number", Json::as_f64);
const U64: Kind<u64> = Kind("an integer in [0, 2^53)", Json::as_u64);
const USIZE: Kind<usize> = Kind("an integer in [0, 2^53)", |json| {
    json.as_u64().and_then(|n| usize::try_from(n).ok())
});
const ARRAY: Kind<Vec<Json>> = Kind("an array", |json| json.as_array().map(<[Json]>::to_vec));
pub(crate) const FINITE_NUMBERS: Kind<Vec<f64>> = Kind("an array of finite numbers", |json| {
    json.as_array()?
        .iter()
        .map(|v| v.as_f64().filter(|x| x.is_finite()))
        .collect()
});
const STATUS: Kind<QueryStatus> =
    Kind("one of ok, rejected, cancelled, timeout or error", |json| {
        let spelling = json.as_str()?;
        [
            QueryStatus::Ok,
            QueryStatus::Rejected,
            QueryStatus::Cancelled,
            QueryStatus::Timeout,
            QueryStatus::Error,
        ]
        .into_iter()
        .find(|status| status.as_str() == spelling)
    });
const ALGORITHM: Kind<Algorithm> = Kind("one of naive, summary-search or sketch-refine", |json| {
    json.as_str()?.parse().ok()
});
const EARLY_STOP: Kind<EarlyStop> = Kind("one of full, certain or hoeffding", |json| {
    EarlyStop::from_wire(json.as_str()?)
});
/// `[[tuple, multiplicity], ...]`.
const PACKAGE: Kind<Vec<(usize, u32)>> = Kind(
    "an array of [tuple, multiplicity] pairs (multiplicities below 2^32)",
    |json| {
        json.as_array()?
            .iter()
            .map(|pair| match pair.as_array()? {
                [tuple, multiplicity] => Some((
                    (USIZE.1)(tuple)?,
                    u32::try_from(multiplicity.as_u64()?).ok()?,
                )),
                _ => None,
            })
            .collect()
    },
);

/// The field reader: one decoded wire object and what it is (`"query
/// request"`, `"validate response"`, ...), so every error names both.
pub(crate) struct Fields<'a> {
    what: &'a str,
    object: &'a Json,
}

impl<'a> Fields<'a> {
    pub(crate) fn new(what: &'a str, object: &'a Json) -> Self {
        Fields { what, object }
    }

    /// The field's value; `Ok(None)` when it is absent or `null`.
    pub(crate) fn optional<T>(
        &self,
        key: &str,
        Kind(expected, read): Kind<T>,
    ) -> Result<Option<T>, String> {
        match self.object.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(json) => read(json)
                .map(Some)
                .ok_or_else(|| format!("{} field `{key}` must be {expected}", self.what)),
        }
    }

    /// The field's value; absent is an error.
    pub(crate) fn required<T>(&self, key: &str, kind: Kind<T>) -> Result<T, String> {
        let expected = kind.0;
        self.optional(key, kind)?
            .ok_or_else(|| format!("{} needs {expected} `{key}`", self.what))
    }
}

/// The wire spelling of a cache outcome.
fn hit_or_miss(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

impl Request {
    /// Parse one NDJSON request line.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let object = parse(line)?;
        let op = Fields::new("request", &object).optional("op", STRING)?;
        let op = op.as_deref().unwrap_or("query");
        let what = format!("{op} request");
        let f = Fields::new(&what, &object);
        Ok(match op {
            "query" => Request::Query(QueryRequest {
                id: f.required("id", STRING)?,
                relation: f.required("relation", STRING)?,
                query: f.required("query", STRING)?,
                algorithm: f.optional("algorithm", ALGORITHM)?,
                timeout_ms: f.optional("timeout_ms", U64)?,
                seed: f.optional("seed", U64)?,
                initial_scenarios: f.optional("initial_scenarios", USIZE)?,
                max_scenarios: f.optional("max_scenarios", USIZE)?,
                validation_scenarios: f.optional("validation_scenarios", USIZE)?,
                tenant: f.optional("tenant", STRING)?,
            }),
            "validate" => Request::Validate(ValidateRequest {
                id: f.required("id", STRING)?,
                relation: f.required("relation", STRING)?,
                query: f.required("query", STRING)?,
                // Required: an explicit `[]` validates the empty package, but
                // a missing or misspelled key silently doing so would mask
                // client bugs.
                package: f.required("package", PACKAGE)?,
                validation_scenarios: f.optional("validation_scenarios", USIZE)?,
                seed: f.optional("seed", U64)?,
                timeout_ms: f.optional("timeout_ms", U64)?,
                early_stop: f.optional("early_stop", EARLY_STOP)?,
                threads: f.optional("threads", USIZE)?,
                tenant: f.optional("tenant", STRING)?,
            }),
            "cancel" => Request::Cancel {
                id: f.required("id", STRING)?,
            },
            "stats" => Request::Stats,
            "ping" => Request::Ping,
            "load_relation" => {
                let (id, name) = (f.required("id", STRING)?, f.required("name", STRING)?);
                // `source` may be omitted: a `path` implies a file source, a
                // `workload` a generator source.
                let source = f.optional("source", STRING)?;
                let source = match source.as_deref() {
                    Some(kind) => kind,
                    None if object.get("path").is_some() => "file",
                    None => "workload",
                };
                let source = match source {
                    "workload" => {
                        let workload = f.required("workload", STRING)?;
                        RelationSource::Workload {
                            kind: RelationSource::parse_workload_kind(&workload).ok_or_else(
                                || {
                                    format!(
                                        "unknown workload `{workload}` \
                                         (expected portfolio, galaxy or tpch)"
                                    )
                                },
                            )?,
                            scale: f.optional("scale", USIZE)?.unwrap_or(1000),
                            seed: f.optional("seed", U64)?.unwrap_or(42),
                        }
                    }
                    "file" => RelationSource::File {
                        path: f.required("path", STRING)?,
                    },
                    other => {
                        return Err(format!(
                            "unknown source `{other}` (expected workload or file)"
                        ))
                    }
                };
                let storage = match f.optional("storage", STRING)? {
                    Some(name) => RelationStorage::parse(&name).ok_or_else(|| {
                        format!("unknown storage `{name}` (expected memory or disk)")
                    })?,
                    None => RelationStorage::Memory,
                };
                Request::Load(LoadRequest {
                    id,
                    name,
                    tenant: f.optional("tenant", STRING)?,
                    source,
                    storage,
                })
            }
            "unload_relation" => Request::Unload {
                name: f.required("name", STRING)?,
                tenant: f.optional("tenant", STRING)?,
            },
            "list_relations" => Request::ListRelations {
                tenant: f.optional("tenant", STRING)?,
            },
            other => return Err(format!("unknown op `{other}`")),
        })
    }

    /// Serialize back to one NDJSON line (used by the `spq` client).
    pub fn to_line(&self) -> String {
        object_line(|w| match self {
            Request::Query(q) => {
                w.field("id", &q.id)
                    .field("relation", &q.relation)
                    .field("query", &q.query)
                    .optional("algorithm", q.algorithm.map(|a| a.to_string()))
                    .optional("timeout_ms", q.timeout_ms)
                    .optional("seed", q.seed)
                    .optional("initial_scenarios", q.initial_scenarios)
                    .optional("max_scenarios", q.max_scenarios)
                    .optional("validation_scenarios", q.validation_scenarios)
                    .optional("tenant", q.tenant.as_ref());
            }
            Request::Validate(v) => {
                w.field("op", "validate")
                    .field("id", &v.id)
                    .field("relation", &v.relation)
                    .field("query", &v.query)
                    .field("package", v.package.as_slice())
                    .optional("validation_scenarios", v.validation_scenarios)
                    .optional("seed", v.seed)
                    .optional("timeout_ms", v.timeout_ms)
                    .optional("early_stop", v.early_stop.map(|stop| stop.as_wire()))
                    .optional("threads", v.threads)
                    .optional("tenant", v.tenant.as_ref());
            }
            Request::Cancel { id } => {
                w.field("op", "cancel").field("id", id);
            }
            Request::Stats => {
                w.field("op", "stats");
            }
            Request::Ping => {
                w.field("op", "ping");
            }
            Request::Load(l) => {
                w.field("op", "load_relation")
                    .field("id", &l.id)
                    .field("name", &l.name)
                    .optional("tenant", l.tenant.as_ref());
                match &l.source {
                    RelationSource::Workload { kind, scale, seed } => {
                        w.field("source", "workload")
                            .field("workload", kind.to_string().to_ascii_lowercase())
                            .field("scale", *scale)
                            .field("seed", *seed);
                    }
                    RelationSource::File { path } => {
                        w.field("source", "file").field("path", path);
                    }
                }
                if l.storage != RelationStorage::Memory {
                    w.field("storage", l.storage.as_str());
                }
            }
            Request::Unload { name, tenant } => {
                w.field("op", "unload_relation")
                    .field("name", name)
                    .optional("tenant", tenant.as_ref());
            }
            Request::ListRelations { tenant } => {
                w.field("op", "list_relations")
                    .optional("tenant", tenant.as_ref());
            }
        })
    }
}

/// Terminal status of a query request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Evaluation completed (check `feasible` for the outcome).
    Ok,
    /// Admission control refused the request: the queue was full.
    Rejected,
    /// The request was cancelled via `{"op":"cancel"}`.
    Cancelled,
    /// The per-query deadline expired before a feasible package was found.
    Timeout,
    /// The request failed (unknown relation, parse/bind error, ...).
    Error,
}

impl QueryStatus {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryStatus::Ok => "ok",
            QueryStatus::Rejected => "rejected",
            QueryStatus::Cancelled => "cancelled",
            QueryStatus::Timeout => "timeout",
            QueryStatus::Error => "error",
        }
    }
}

/// The response to one [`QueryRequest`].
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The request's id.
    pub id: String,
    /// Terminal status.
    pub status: QueryStatus,
    /// Error message when `status == Error`.
    pub error: Option<String>,
    /// Whether a validation-feasible package was found.
    pub feasible: bool,
    /// Objective estimate of the returned package.
    pub objective: Option<f64>,
    /// `(tuple index, multiplicity)` pairs of the package.
    pub package: Vec<(usize, u32)>,
    /// Algorithm that ran.
    pub algorithm: String,
    /// Whether the prepared-query cache served the compiled plan.
    pub prepared_cache_hit: bool,
    /// Whether the deterministic result cache served the whole response
    /// (the request either matched a completed identical request or
    /// coalesced with an in-flight one).
    pub result_cache_hit: bool,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Milliseconds of evaluation wall time.
    pub wall_ms: f64,
    /// Full evaluation statistics (absent for rejected/error responses).
    pub stats: Option<EvaluationStats>,
}

impl QueryResponse {
    /// A minimal non-evaluated response (rejected / error).
    pub fn failure(id: &str, status: QueryStatus, error: impl Into<String>) -> QueryResponse {
        QueryResponse {
            id: id.to_string(),
            status,
            error: Some(error.into()),
            feasible: false,
            objective: None,
            package: Vec::new(),
            algorithm: String::new(),
            prepared_cache_hit: false,
            result_cache_hit: false,
            queue_ms: 0.0,
            wall_ms: 0.0,
            stats: None,
        }
    }

    /// Serialize to one NDJSON line.
    pub fn to_line(&self) -> String {
        object_line(|w| {
            w.field("id", &self.id)
                .field("status", self.status.as_str())
                .optional("error", self.error.as_ref())
                .field("feasible", self.feasible)
                .field("objective", self.objective)
                .field("package", self.package.as_slice())
                .optional(
                    "algorithm",
                    Some(&self.algorithm).filter(|name| !name.is_empty()),
                )
                .field("prepared_cache", hit_or_miss(self.prepared_cache_hit))
                .field("result_cache", hit_or_miss(self.result_cache_hit))
                .field("queue_ms", self.queue_ms)
                .field("wall_ms", self.wall_ms);
            if let Some(s) = &self.stats {
                w.object("stats", |w| {
                    w.field("scenarios", s.scenarios_used)
                        .field("summaries", s.summaries_used)
                        .field("outer_iterations", s.outer_iterations)
                        .field("problems_solved", s.problems_solved)
                        .field("validations", s.validations)
                        .field("validation_scenarios", s.validation_scenarios)
                        .field("solver_nodes", s.solver_nodes)
                        .field("lp_pivots", s.lp_pivots)
                        .field("max_problem_coefficients", s.max_problem_coefficients)
                        .field("wall_time_ms", s.wall_time.as_secs_f64() * 1000.0);
                });
            }
        })
    }

    /// Parse a response line (client side). Stats are left `None` — clients
    /// that need individual counters can re-parse the raw JSON.
    pub fn parse_line(line: &str) -> Result<QueryResponse, String> {
        let object = parse(line)?;
        let f = Fields::new("query response", &object);
        let cache_hit = |key| Ok::<_, String>(f.optional(key, STRING)?.as_deref() == Some("hit"));
        Ok(QueryResponse {
            id: f.optional("id", STRING)?.unwrap_or_default(),
            status: f.required("status", STATUS)?,
            error: f.optional("error", STRING)?,
            feasible: f.optional("feasible", BOOL)?.unwrap_or(false),
            objective: f.optional("objective", NUMBER)?,
            package: f.optional("package", PACKAGE)?.unwrap_or_default(),
            algorithm: f.optional("algorithm", STRING)?.unwrap_or_default(),
            prepared_cache_hit: cache_hit("prepared_cache")?,
            result_cache_hit: cache_hit("result_cache")?,
            queue_ms: f.optional("queue_ms", NUMBER)?.unwrap_or(0.0),
            wall_ms: f.optional("wall_ms", NUMBER)?.unwrap_or(0.0),
            stats: None,
        })
    }
}

/// The response to one [`ValidateRequest`]. Tagged `"op":"validate"` on the
/// wire so clients can tell it apart from query responses sharing the
/// connection.
#[derive(Debug, Clone)]
pub struct ValidateResponse {
    /// The request's id.
    pub id: String,
    /// Terminal status.
    pub status: QueryStatus,
    /// Error message when `status == Error`.
    pub error: Option<String>,
    /// Whether the package is validation-feasible.
    pub feasible: bool,
    /// Objective estimate under validation data.
    pub objective_estimate: Option<f64>,
    /// The `ε⁽q⁾` certificate (`None` when no bound applies).
    pub epsilon_upper_bound: Option<f64>,
    /// Scenarios actually evaluated.
    pub scenarios_used: usize,
    /// The requested budget `M̂`.
    pub m_hat: usize,
    /// Whether an early-stop rule settled a constraint before the budget.
    pub early_stopped: bool,
    /// Per-probabilistic-constraint details.
    pub constraints: Vec<ConstraintValidation>,
    /// Milliseconds spent queued before a worker picked the request up.
    pub queue_ms: f64,
    /// Milliseconds of validation wall time.
    pub wall_ms: f64,
}

impl ValidateResponse {
    /// A minimal non-evaluated response (rejected / error).
    pub fn failure(id: &str, status: QueryStatus, error: impl Into<String>) -> ValidateResponse {
        ValidateResponse {
            id: id.to_string(),
            status,
            error: Some(error.into()),
            feasible: false,
            objective_estimate: None,
            epsilon_upper_bound: None,
            scenarios_used: 0,
            m_hat: 0,
            early_stopped: false,
            constraints: Vec::new(),
            queue_ms: 0.0,
            wall_ms: 0.0,
        }
    }

    /// Serialize to one NDJSON line. A non-finite `objective` or `epsilon`
    /// is written as `null`.
    pub fn to_line(&self) -> String {
        object_line(|w| {
            w.field("op", "validate")
                .field("id", &self.id)
                .field("status", self.status.as_str())
                .optional("error", self.error.as_ref())
                .field("feasible", self.feasible)
                .field("objective", self.objective_estimate)
                .field("epsilon", self.epsilon_upper_bound)
                .field("scenarios_used", self.scenarios_used)
                .field("m_hat", self.m_hat)
                .field("early_stopped", self.early_stopped)
                .objects("constraints", &self.constraints, |w, c| {
                    w.field("index", c.constraint_index)
                        .field("probability", c.probability)
                        .field("fraction", c.satisfied_fraction)
                        .field("surplus", c.surplus)
                        .field("feasible", c.feasible)
                        .field("scenarios", c.scenarios_evaluated);
                })
                .field("queue_ms", self.queue_ms)
                .field("wall_ms", self.wall_ms);
        })
    }

    /// Parse a response line (client side).
    pub fn parse_line(line: &str) -> Result<ValidateResponse, String> {
        let object = parse(line)?;
        let f = Fields::new("validate response", &object);
        if f.optional("op", STRING)?.as_deref() != Some("validate") {
            return Err("not a validate response".into());
        }
        let constraints = f
            .optional("constraints", ARRAY)?
            .unwrap_or_default()
            .iter()
            .map(|object| {
                let c = Fields::new("validate response constraint", object);
                Ok(ConstraintValidation {
                    constraint_index: c.required("index", USIZE)?,
                    probability: c.required("probability", NUMBER)?,
                    satisfied_fraction: c.optional("fraction", NUMBER)?.unwrap_or(0.0),
                    surplus: c.optional("surplus", NUMBER)?.unwrap_or(0.0),
                    feasible: c.optional("feasible", BOOL)?.unwrap_or(false),
                    scenarios_evaluated: c.optional("scenarios", USIZE)?.unwrap_or(0),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ValidateResponse {
            id: f.optional("id", STRING)?.unwrap_or_default(),
            status: f.required("status", STATUS)?,
            error: f.optional("error", STRING)?,
            feasible: f.optional("feasible", BOOL)?.unwrap_or(false),
            objective_estimate: f.optional("objective", NUMBER)?,
            epsilon_upper_bound: f.optional("epsilon", NUMBER)?,
            scenarios_used: f.optional("scenarios_used", USIZE)?.unwrap_or(0),
            m_hat: f.optional("m_hat", USIZE)?.unwrap_or(0),
            early_stopped: f.optional("early_stopped", BOOL)?.unwrap_or(false),
            constraints,
            queue_ms: f.optional("queue_ms", NUMBER)?.unwrap_or(0.0),
            wall_ms: f.optional("wall_ms", NUMBER)?.unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_requests_round_trip() {
        let line = r#"{"id":"q7","relation":"portfolio","query":"SELECT PACKAGE(*) FROM portfolio","algorithm":"sketch-refine","timeout_ms":1500,"seed":9,"validation_scenarios":500}"#;
        let parsed = Request::parse_line(line).unwrap();
        let Request::Query(q) = &parsed else {
            panic!("expected query");
        };
        assert_eq!(q.id, "q7");
        assert_eq!(q.relation, "portfolio");
        assert_eq!(q.algorithm, Some(Algorithm::SketchRefine));
        assert_eq!(q.timeout_ms, Some(1500));
        assert_eq!(q.seed, Some(9));
        assert_eq!(q.validation_scenarios, Some(500));
        assert_eq!(q.initial_scenarios, None);
        // Serialize and re-parse.
        let reparsed = Request::parse_line(&parsed.to_line()).unwrap();
        let Request::Query(q2) = reparsed else {
            panic!("expected query");
        };
        assert_eq!(q2.id, q.id);
        assert_eq!(q2.algorithm, q.algorithm);
    }

    #[test]
    fn admin_ops_parse() {
        assert!(matches!(
            Request::parse_line(r#"{"op":"cancel","id":"x"}"#).unwrap(),
            Request::Cancel { id } if id == "x"
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op":"stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            Request::parse_line(r#"{"op":"ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(Request::parse_line(r#"{"op":"nope"}"#).is_err());
        assert!(Request::parse_line(r#"{"id":"q"}"#).is_err());
        assert!(Request::parse_line("not json").is_err());
        assert!(Request::parse_line(
            r#"{"id":"q","relation":"r","query":"x","algorithm":"cplex"}"#
        )
        .is_err());
        // Round-trip the admin ops too.
        for op in [
            Request::Cancel { id: "x".into() },
            Request::Stats,
            Request::Ping,
        ] {
            Request::parse_line(&op.to_line()).unwrap();
        }
    }

    #[test]
    fn catalog_ops_round_trip() {
        use spq_workloads::WorkloadKind;
        // Workload source, explicit tenant.
        let line = r#"{"op":"load_relation","id":"l1","name":"P2","tenant":"alice","source":"workload","workload":"portfolio","scale":5000,"seed":7}"#;
        let parsed = Request::parse_line(line).unwrap();
        let Request::Load(l) = &parsed else {
            panic!("expected load");
        };
        assert_eq!(l.id, "l1");
        assert_eq!(l.name, "P2");
        assert_eq!(l.tenant.as_deref(), Some("alice"));
        let RelationSource::Workload { kind, scale, seed } = &l.source else {
            panic!("expected workload source");
        };
        assert_eq!(*kind, WorkloadKind::Portfolio);
        assert_eq!((*scale, *seed), (5000, 7));
        let Request::Load(l2) = Request::parse_line(&parsed.to_line()).unwrap() else {
            panic!("expected load");
        };
        assert!(matches!(
            l2.source,
            RelationSource::Workload {
                scale: 5000,
                seed: 7,
                ..
            }
        ));

        // A `path` implies a file source without an explicit `source`.
        let parsed = Request::parse_line(
            r#"{"op":"load_relation","id":"l2","name":"mine","path":"/data/mine.json"}"#,
        )
        .unwrap();
        let Request::Load(l) = &parsed else {
            panic!("expected load");
        };
        assert!(matches!(&l.source, RelationSource::File { path } if path == "/data/mine.json"));
        assert_eq!(l.tenant, None);
        assert_eq!(l.storage, RelationStorage::Memory, "memory is the default");
        Request::parse_line(&parsed.to_line()).unwrap();

        // `storage":"disk"` selects the out-of-core tier and round-trips.
        let parsed = Request::parse_line(
            r#"{"op":"load_relation","id":"l3","name":"big","workload":"portfolio","storage":"disk"}"#,
        )
        .unwrap();
        let Request::Load(l) = &parsed else {
            panic!("expected load");
        };
        assert_eq!(l.storage, RelationStorage::Disk);
        assert!(parsed.to_line().contains(r#""storage":"disk""#));
        let Request::Load(l) = Request::parse_line(&parsed.to_line()).unwrap() else {
            panic!("expected load");
        };
        assert_eq!(l.storage, RelationStorage::Disk);

        // Unload and list round-trip with and without tenant.
        let parsed =
            Request::parse_line(r#"{"op":"unload_relation","name":"p2","tenant":"alice"}"#)
                .unwrap();
        assert!(matches!(
            &parsed,
            Request::Unload { name, tenant }
                if name == "p2" && tenant.as_deref() == Some("alice")
        ));
        Request::parse_line(&parsed.to_line()).unwrap();
        let parsed = Request::parse_line(r#"{"op":"list_relations"}"#).unwrap();
        assert!(matches!(&parsed, Request::ListRelations { tenant: None }));
        Request::parse_line(&parsed.to_line()).unwrap();

        // Bad inputs give targeted errors.
        assert!(Request::parse_line(r#"{"op":"load_relation","id":"l"}"#).is_err());
        assert!(Request::parse_line(
            r#"{"op":"load_relation","id":"l","name":"x","workload":"nope"}"#
        )
        .unwrap_err()
        .contains("unknown workload"));
        assert!(Request::parse_line(
            r#"{"op":"load_relation","id":"l","name":"x","source":"carrier-pigeon"}"#
        )
        .unwrap_err()
        .contains("unknown source"));
        assert!(Request::parse_line(
            r#"{"op":"load_relation","id":"l","name":"x","workload":"portfolio","storage":"tape"}"#
        )
        .unwrap_err()
        .contains("unknown storage"));
        assert!(Request::parse_line(r#"{"op":"unload_relation"}"#).is_err());

        // Tenant-tagged queries round-trip the tenant.
        let parsed = Request::parse_line(
            r#"{"id":"q","relation":"r","query":"SELECT PACKAGE(*) FROM r","tenant":"bob"}"#,
        )
        .unwrap();
        let Request::Query(q) = &parsed else {
            panic!("expected query");
        };
        assert_eq!(q.tenant.as_deref(), Some("bob"));
        let Request::Query(q2) = Request::parse_line(&parsed.to_line()).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q2.tenant.as_deref(), Some("bob"));
    }

    #[test]
    fn wrong_typed_and_inexact_fields_are_errors_not_defaults() {
        let query = r#""id":"q","relation":"r","query":"SELECT PACKAGE(*) FROM r""#;
        let validate = r#""op":"validate","id":"v","relation":"r","query":"q""#;
        for (line, field) in [
            (format!(r#"{{{query},"seed":"7"}}"#), "`seed`"),
            (format!(r#"{{{query},"timeout_ms":-1}}"#), "`timeout_ms`"),
            (format!(r#"{{{query},"timeout_ms":1.5}}"#), "`timeout_ms`"),
            (format!(r#"{{"op":5,{query}}}"#), "`op`"),
            (
                format!(r#"{{{validate},"package":[[3,4294967297]]}}"#),
                "`package`",
            ),
            // 2^64 used to saturate to u64::MAX, and 2^53 + 1 reads as 2^53:
            // neither is the integer the client sent.
            (
                format!(r#"{{{query},"seed":18446744073709551616}}"#),
                "`seed`",
            ),
            (format!(r#"{{{query},"seed":9007199254740993}}"#), "`seed`"),
        ] {
            let err = Request::parse_line(&line).expect_err(&line);
            assert!(err.contains(field), "{line} -> {err}");
        }
        // The largest exact integer still parses.
        let line = format!(r#"{{{query},"seed":9007199254740991}}"#);
        let Request::Query(q) = Request::parse_line(&line).unwrap() else {
            panic!("expected query");
        };
        assert_eq!(q.seed, Some(9_007_199_254_740_991));
        // A missing required field names the op and the field.
        assert_eq!(
            Request::parse_line(r#"{"op":"cancel"}"#).unwrap_err(),
            "cancel request needs a string `id`"
        );
    }

    #[test]
    fn validate_requests_round_trip() {
        let line = r#"{"op":"validate","id":"v1","relation":"portfolio","query":"SELECT PACKAGE(*) FROM portfolio","package":[[3,1],[17,2]],"validation_scenarios":100000,"early_stop":"hoeffding","threads":8,"seed":4}"#;
        let parsed = Request::parse_line(line).unwrap();
        let Request::Validate(v) = &parsed else {
            panic!("expected validate");
        };
        assert_eq!(v.id, "v1");
        assert_eq!(v.package, vec![(3, 1), (17, 2)]);
        assert_eq!(v.validation_scenarios, Some(100_000));
        assert_eq!(
            v.early_stop,
            Some(EarlyStop::Hoeffding {
                delta: spq_core::validation::DEFAULT_HOEFFDING_DELTA
            })
        );
        assert_eq!(v.threads, Some(8));
        assert_eq!(v.seed, Some(4));
        assert_eq!(v.timeout_ms, None);
        let reparsed = Request::parse_line(&parsed.to_line()).unwrap();
        let Request::Validate(v2) = reparsed else {
            panic!("expected validate");
        };
        assert_eq!(v2.package, v.package);
        assert_eq!(v2.early_stop, v.early_stop);
        // A bad early-stop spelling is rejected.
        assert!(Request::parse_line(
            r#"{"op":"validate","id":"v","relation":"r","query":"q","early_stop":"maybe"}"#
        )
        .is_err());
        // Missing required fields error.
        assert!(Request::parse_line(r#"{"op":"validate","id":"v"}"#).is_err());
        // A missing `package` key errors even with everything else present
        // (silently validating the empty package would mask client typos);
        // an explicit empty array is allowed.
        assert!(
            Request::parse_line(r#"{"op":"validate","id":"v","relation":"r","query":"q"}"#)
                .unwrap_err()
                .contains("package")
        );
        let empty = Request::parse_line(
            r#"{"op":"validate","id":"v","relation":"r","query":"q","package":[]}"#,
        )
        .unwrap();
        let Request::Validate(v) = empty else {
            panic!("expected validate");
        };
        assert!(v.package.is_empty());
    }

    #[test]
    fn validate_responses_round_trip() {
        let response = ValidateResponse {
            id: "v1".into(),
            status: QueryStatus::Ok,
            error: None,
            feasible: true,
            objective_estimate: Some(12.25),
            epsilon_upper_bound: None,
            scenarios_used: 2048,
            m_hat: 100_000,
            early_stopped: true,
            constraints: vec![ConstraintValidation {
                constraint_index: 1,
                probability: 0.9,
                satisfied_fraction: 0.975,
                surplus: 0.075,
                feasible: true,
                scenarios_evaluated: 2048,
            }],
            queue_ms: 0.25,
            wall_ms: 3.5,
        };
        let line = response.to_line();
        assert!(line.contains("\"op\":\"validate\""));
        assert!(line.contains("\"early_stopped\":true"));
        let parsed = ValidateResponse::parse_line(&line).unwrap();
        assert_eq!(parsed.id, "v1");
        assert!(parsed.feasible);
        assert_eq!(parsed.scenarios_used, 2048);
        assert_eq!(parsed.m_hat, 100_000);
        assert!(parsed.early_stopped);
        assert_eq!(parsed.constraints.len(), 1);
        assert_eq!(parsed.constraints[0].constraint_index, 1);
        assert_eq!(parsed.constraints[0].satisfied_fraction, 0.975);
        assert_eq!(parsed.epsilon_upper_bound, None);
        // A query response does not parse as a validate response.
        let q = QueryResponse::failure("x", QueryStatus::Error, "nope");
        assert!(ValidateResponse::parse_line(&q.to_line()).is_err());
        // Failure responses carry the message.
        let f = ValidateResponse::failure("v9", QueryStatus::Rejected, "queue full");
        let parsed = ValidateResponse::parse_line(&f.to_line()).unwrap();
        assert_eq!(parsed.status, QueryStatus::Rejected);
        assert_eq!(parsed.error.as_deref(), Some("queue full"));
    }

    #[test]
    fn responses_round_trip() {
        let response = QueryResponse {
            id: "q1".into(),
            status: QueryStatus::Ok,
            error: None,
            feasible: true,
            objective: Some(12.25),
            package: vec![(3, 1), (17, 2)],
            algorithm: "SummarySearch".into(),
            prepared_cache_hit: true,
            result_cache_hit: true,
            queue_ms: 0.5,
            wall_ms: 18.0,
            stats: Some(EvaluationStats {
                scenarios_used: 100,
                lp_pivots: 5,
                ..Default::default()
            }),
        };
        let line = response.to_line();
        assert!(line.contains("\"prepared_cache\":\"hit\""));
        assert!(line.contains("\"result_cache\":\"hit\""));
        assert!(line.contains("\"lp_pivots\":5"));
        let parsed = QueryResponse::parse_line(&line).unwrap();
        assert_eq!(parsed.id, "q1");
        assert_eq!(parsed.status, QueryStatus::Ok);
        assert!(parsed.feasible);
        assert_eq!(parsed.objective, Some(12.25));
        assert_eq!(parsed.package, vec![(3, 1), (17, 2)]);
        assert!(parsed.prepared_cache_hit);
        assert!(parsed.result_cache_hit);
        assert_eq!(parsed.wall_ms, 18.0);
    }

    #[test]
    fn failure_responses_carry_the_message() {
        let r = QueryResponse::failure("q9", QueryStatus::Rejected, "queue full");
        let parsed = QueryResponse::parse_line(&r.to_line()).unwrap();
        assert_eq!(parsed.status, QueryStatus::Rejected);
        assert_eq!(parsed.error.as_deref(), Some("queue full"));
        assert!(!parsed.feasible);
        assert_eq!(parsed.objective, None);
    }

    #[test]
    fn status_spellings_are_stable() {
        for s in [
            QueryStatus::Ok,
            QueryStatus::Rejected,
            QueryStatus::Cancelled,
            QueryStatus::Timeout,
            QueryStatus::Error,
        ] {
            assert_eq!((STATUS.1)(&Json::from(s.as_str())), Some(s));
        }
        assert_eq!((STATUS.1)(&Json::from("nope")), None);
    }
}
