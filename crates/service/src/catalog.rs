//! The multi-tenant relation catalog.
//!
//! spqd serves more than one user: the catalog gives each **tenant** its own
//! relation namespace layered over a **shared** namespace (the workloads
//! loaded at startup). Tenants load relations at runtime through the
//! `load_relation` wire op — either by synthesizing one of the paper's
//! workload generators or by reading a column-spec JSON file — and unload
//! them when done. A query names a relation; resolution checks the tenant's
//! own namespace first and falls back to the shared one, so two tenants
//! loading the *same name* get fully isolated relations (distinct
//! [`Relation::uid`]s, hence disjoint prepared-plan, scenario and result
//! cache entries).
//!
//! Admission quotas bound what one tenant can make the server hold resident:
//! at most [`TenantQuotas::max_relations`] relations and
//! [`TenantQuotas::max_resident_tuples`] total tuples per tenant. A load
//! past either quota fails with a clean admission error — never a hang, and
//! never unbounded memory. Per-tenant admit/reject counters feed the `stats`
//! op. They are kept for [`DEFAULT_TENANT`] and for tenants that hold at
//! least one relation only: a tenant name is wire input, so a request naming
//! a tenant that holds nothing leaves no state behind, and a tenant whose
//! last relation is unloaded (or whose first load is refused) leaves the
//! catalog.

use crate::json::Json;
use crate::protocol::{Fields, FINITE_NUMBERS, STRING};
use spq_mcdb::vg::NormalNoise;
use spq_mcdb::{ChunkCacheStats, Relation, RelationBuilder, StorageOptions};
use spq_workloads::{build_workload_with, WorkloadKind};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// The tenant requests without a `tenant` field belong to.
pub const DEFAULT_TENANT: &str = "default";

/// Storage tier a relation is loaded into, selected by the `storage` field
/// of the `load_relation` wire op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelationStorage {
    /// Fully materialized deterministic columns (the default).
    #[default]
    Memory,
    /// Deterministic columns spill to checksummed chunk files under the
    /// catalog's storage directory; reads go through the relation's
    /// byte-budgeted chunk cache. Million-tuple relations load in bounded
    /// memory.
    Disk,
}

impl RelationStorage {
    /// Parse the wire spelling (`"memory"` or `"disk"`).
    pub fn parse(name: &str) -> Option<RelationStorage> {
        match name.trim().to_ascii_lowercase().as_str() {
            "memory" | "mem" => Some(RelationStorage::Memory),
            "disk" => Some(RelationStorage::Disk),
            _ => None,
        }
    }

    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            RelationStorage::Memory => "memory",
            RelationStorage::Disk => "disk",
        }
    }
}

/// Per-tenant admission quotas.
#[derive(Debug, Clone)]
pub struct TenantQuotas {
    /// Relations one tenant may hold loaded at once.
    pub max_relations: usize,
    /// Total tuples across one tenant's loaded relations.
    pub max_resident_tuples: usize,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_relations: 8,
            max_resident_tuples: 2_000_000,
        }
    }
}

/// Where a loaded relation's data comes from.
#[derive(Debug, Clone)]
pub enum RelationSource {
    /// Synthesize one of the paper's workload generators.
    Workload {
        /// Which generator.
        kind: WorkloadKind,
        /// Tuple count.
        scale: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Read a column-spec JSON file (see [`relation_from_file_with`]).
    File {
        /// Path on the server's filesystem.
        path: String,
    },
}

impl RelationSource {
    /// Parse the workload name used on the wire and in `spqd --workloads`.
    pub fn parse_workload_kind(name: &str) -> Option<WorkloadKind> {
        match name.trim().to_ascii_lowercase().as_str() {
            "portfolio" => Some(WorkloadKind::Portfolio),
            "galaxy" => Some(WorkloadKind::Galaxy),
            "tpch" | "tpc-h" => Some(WorkloadKind::Tpch),
            _ => None,
        }
    }

    /// Human-readable provenance shown by `list_relations`.
    pub fn describe(&self) -> String {
        match self {
            RelationSource::Workload { kind, scale, seed } => {
                format!("workload:{kind}(scale={scale},seed={seed})")
            }
            RelationSource::File { path } => format!("file:{path}"),
        }
    }

    /// Materialize the relation into `storage`. Heavy (generator or file
    /// I/O): call from a worker thread, never the reactor thread.
    fn build(&self, storage: StorageOptions) -> Result<Relation, CatalogError> {
        match self {
            RelationSource::Workload { kind, scale, seed } => {
                build_workload_with(*kind, *scale, *seed, storage)
                    .map(|w| w.relation)
                    .map_err(|e| CatalogError::BadSource(e.to_string()))
            }
            RelationSource::File { path } => relation_from_file_with(path, storage),
        }
    }
}

/// Why a catalog operation failed. Every variant maps to a clean wire error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// `unload_relation`/resolution named a relation the tenant does not
    /// have.
    UnknownRelation(String),
    /// The tenant is at [`TenantQuotas::max_relations`].
    RelationQuota {
        /// The configured cap.
        limit: usize,
    },
    /// The load would push the tenant past
    /// [`TenantQuotas::max_resident_tuples`].
    TupleQuota {
        /// The configured cap.
        limit: usize,
        /// Tuples the tenant would have held resident.
        needed: usize,
    },
    /// The source could not be read or parsed.
    BadSource(String),
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            CatalogError::RelationQuota { limit } => {
                write!(f, "tenant quota exceeded: at most {limit} loaded relations")
            }
            CatalogError::TupleQuota { limit, needed } => write!(
                f,
                "tenant quota exceeded: {needed} resident tuples needed, at most {limit} allowed"
            ),
            CatalogError::BadSource(message) => write!(f, "bad relation source: {message}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One loaded relation plus its provenance.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The relation (O(1) to clone).
    pub relation: Relation,
    /// Provenance string ([`RelationSource::describe`], or `"startup"` for
    /// shared relations registered by the operator).
    pub source: String,
}

#[derive(Debug, Default)]
struct TenantState {
    relations: HashMap<String, CatalogEntry>,
    admits: u64,
    rejects: u64,
}

impl TenantState {
    fn resident_tuples(&self) -> usize {
        self.relations.values().map(|e| e.relation.len()).sum()
    }

    /// Bytes of deterministic column data the tenant holds in RAM (memory
    /// columns plus cached disk chunks).
    fn resident_bytes(&self) -> u64 {
        self.relations
            .values()
            .map(|e| e.relation.resident_bytes())
            .sum()
    }

    /// Bytes of chunk files the tenant's disk-backed relations occupy.
    fn disk_bytes(&self) -> u64 {
        self.relations
            .values()
            .map(|e| e.relation.disk_bytes())
            .sum()
    }
}

/// Chunk-cache `(hits, misses, evictions)` summed over the disk-backed
/// relations among `entries`.
fn chunk_traffic<'a>(entries: impl Iterator<Item = &'a CatalogEntry>) -> (u64, u64, u64) {
    entries
        .filter_map(|e| e.relation.chunk_cache_stats())
        .fold((0, 0, 0), |(h, m, e), s| {
            (h + s.hits, m + s.misses, e + s.evictions)
        })
}

/// One relation as reported by `list_relations`.
#[derive(Debug, Clone)]
pub struct RelationInfo {
    /// Registered name (lowercased).
    pub name: String,
    /// Tuple count.
    pub tuples: usize,
    /// Provenance string.
    pub source: String,
    /// Whether the relation lives in the shared namespace (visible to every
    /// tenant) rather than the tenant's own.
    pub shared: bool,
    /// Storage tier: `"memory"` or `"disk"`.
    pub storage: &'static str,
    /// Bytes of deterministic column data held in RAM (memory columns plus
    /// cached disk chunks).
    pub resident_bytes: u64,
    /// Bytes of on-disk chunk files (0 for memory relations).
    pub disk_bytes: u64,
    /// Chunk-cache counters of a disk-backed relation (`None` for memory).
    pub chunk_cache: Option<ChunkCacheStats>,
}

impl RelationInfo {
    fn for_entry(name: &str, entry: &CatalogEntry, shared: bool) -> RelationInfo {
        RelationInfo {
            name: name.to_string(),
            tuples: entry.relation.len(),
            source: entry.source.clone(),
            shared,
            storage: entry.relation.storage_kind(),
            resident_bytes: entry.relation.resident_bytes(),
            disk_bytes: entry.relation.disk_bytes(),
            chunk_cache: entry.relation.chunk_cache_stats(),
        }
    }

    /// Fraction of chunk reads served from the cache (`None` for memory
    /// relations, 0 when the cache was never consulted).
    pub fn chunk_hit_rate(&self) -> Option<f64> {
        self.chunk_cache
            .as_ref()
            .map(|s| crate::service::hit_rate(s.hits, s.misses))
    }
}

/// Per-tenant usage as reported by the `stats` op.
#[derive(Debug, Clone)]
pub struct TenantSnapshot {
    /// Tenant name.
    pub tenant: String,
    /// Names of the tenant's own loaded relations, sorted.
    pub relations: Vec<String>,
    /// Total tuples the tenant holds resident.
    pub resident_tuples: usize,
    /// Bytes of deterministic column data held in RAM across the tenant's
    /// relations (memory columns plus cached disk chunks).
    pub resident_bytes: u64,
    /// Bytes of chunk files the tenant's disk-backed relations occupy.
    pub disk_bytes: u64,
    /// Chunk-cache hits across the tenant's disk-backed relations.
    pub chunk_hits: u64,
    /// Chunk-cache misses across the tenant's disk-backed relations.
    pub chunk_misses: u64,
    /// Requests admitted for this tenant.
    pub admits: u64,
    /// Requests rejected for this tenant (queue full, duplicate id, quota).
    pub rejects: u64,
}

impl TenantSnapshot {
    /// Fraction of the tenant's chunk reads served from cache (0 when no
    /// disk-backed relation was ever read).
    pub fn chunk_hit_rate(&self) -> f64 {
        crate::service::hit_rate(self.chunk_hits, self.chunk_misses)
    }
}

/// The relation registry: a shared namespace plus one namespace per tenant.
#[derive(Debug)]
pub struct Catalog {
    shared: RwLock<HashMap<String, CatalogEntry>>,
    tenants: RwLock<HashMap<String, TenantState>>,
    quotas: TenantQuotas,
    /// Base directory for disk-backed relations; each load gets its own
    /// directory, `<storage_dir>/<dir_prefix><tenant>-<name>-<seq>`, so a
    /// replacement never clobbers chunk files a live handle still reads.
    /// The relation's last handle removes its files and its directory.
    storage_dir: PathBuf,
    /// Name prefix of the per-load directories, unique to this catalog when
    /// they share the system temp directory with other catalogs.
    dir_prefix: String,
    load_seq: AtomicU64,
}

impl Catalog {
    /// An empty catalog enforcing `quotas` on every tenant. Each
    /// disk-backed relation gets a directory of its own in the system temp
    /// directory, named `spqd-relations-<pid>-<catalog>-…`; see
    /// [`Catalog::with_storage_dir`].
    pub fn new(quotas: TenantQuotas) -> Self {
        static CATALOGS: AtomicU64 = AtomicU64::new(0);
        let mut catalog = Self::with_storage_dir(quotas, std::env::temp_dir());
        catalog.dir_prefix = format!(
            "spqd-relations-{}-{}-",
            std::process::id(),
            CATALOGS.fetch_add(1, Ordering::Relaxed)
        );
        catalog
    }

    /// An empty catalog placing each disk-backed relation in a directory of
    /// its own under `storage_dir`.
    pub fn with_storage_dir(quotas: TenantQuotas, storage_dir: impl Into<PathBuf>) -> Self {
        Catalog {
            shared: RwLock::new(HashMap::new()),
            tenants: RwLock::new(HashMap::new()),
            quotas,
            storage_dir: storage_dir.into(),
            dir_prefix: String::new(),
            load_seq: AtomicU64::new(0),
        }
    }

    /// The quotas every tenant is held to.
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// A fresh chunk directory for one disk-backed load of `tenant`'s
    /// relation `name`.
    fn relation_dir(&self, tenant: &str, name: &str) -> PathBuf {
        let clean = |s: &str| -> String {
            s.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        };
        let seq = self.load_seq.fetch_add(1, Ordering::Relaxed);
        self.storage_dir.join(format!(
            "{}{}-{}-{seq:06}",
            self.dir_prefix,
            clean(tenant),
            clean(name)
        ))
    }

    /// Register a relation in the shared namespace (startup workloads;
    /// exempt from tenant quotas, visible to every tenant). Replaces any
    /// previous shared relation of that name.
    pub fn register_shared(
        &self,
        name: impl Into<String>,
        relation: Relation,
        source: impl Into<String>,
    ) {
        let name = name.into().to_ascii_lowercase();
        self.shared.write().expect("catalog poisoned").insert(
            name,
            CatalogEntry {
                relation,
                source: source.into(),
            },
        );
    }

    /// Resolve `name` for `tenant`: the tenant's own namespace shadows the
    /// shared one.
    pub fn resolve(&self, tenant: &str, name: &str) -> Option<Relation> {
        let name = name.to_ascii_lowercase();
        {
            let tenants = self.tenants.read().expect("catalog poisoned");
            if let Some(entry) = tenants.get(tenant).and_then(|t| t.relations.get(&name)) {
                return Some(entry.relation.clone());
            }
        }
        self.shared
            .read()
            .expect("catalog poisoned")
            .get(&name)
            .map(|e| e.relation.clone())
    }

    /// Load `source` as `tenant`'s relation `name` (replacing the tenant's
    /// previous relation of that name). Builds the relation *outside* the
    /// catalog locks — concurrent queries keep resolving while a generator
    /// runs — then admits it under the tenant's quotas. Returns the tuple
    /// count.
    pub fn load(
        &self,
        tenant: &str,
        name: &str,
        source: &RelationSource,
    ) -> Result<usize, CatalogError> {
        self.load_with(tenant, name, source, RelationStorage::Memory)
    }

    /// [`Catalog::load`] with an explicit storage tier.
    /// [`RelationStorage::Disk`] streams the relation's deterministic
    /// columns into chunk files under the catalog's storage directory; the
    /// chunk files are deleted when the last handle to the relation drops
    /// (unload, replacement, or shutdown).
    pub fn load_with(
        &self,
        tenant: &str,
        name: &str,
        source: &RelationSource,
        storage: RelationStorage,
    ) -> Result<usize, CatalogError> {
        let name = name.to_ascii_lowercase();
        // Cheap pre-check before paying for generation: a tenant already at
        // its relation cap (and not replacing) can be refused immediately.
        {
            let tenants = self.tenants.read().expect("catalog poisoned");
            if let Some(state) = tenants.get(tenant) {
                if state.relations.len() >= self.quotas.max_relations
                    && !state.relations.contains_key(&name)
                {
                    return Err(CatalogError::RelationQuota {
                        limit: self.quotas.max_relations,
                    });
                }
            }
        }
        let options = match storage {
            RelationStorage::Memory => StorageOptions::memory(),
            RelationStorage::Disk => StorageOptions::disk(self.relation_dir(tenant, &name)),
        };
        let relation = source.build(options)?;
        let tuples = relation.len();

        let mut tenants = self.tenants.write().expect("catalog poisoned");
        // The tenant's entry is created only once the load is admitted, so
        // a refused first load leaves nothing behind.
        let (held, resident, replaced) = tenants.get(tenant).map_or((0, 0, None), |state| {
            (
                state.relations.len(),
                state.resident_tuples(),
                state.relations.get(&name).map(|e| e.relation.len()),
            )
        });
        if held >= self.quotas.max_relations && replaced.is_none() {
            return Err(CatalogError::RelationQuota {
                limit: self.quotas.max_relations,
            });
        }
        let needed = resident - replaced.unwrap_or(0) + tuples;
        if needed > self.quotas.max_resident_tuples {
            return Err(CatalogError::TupleQuota {
                limit: self.quotas.max_resident_tuples,
                needed,
            });
        }
        tenants
            .entry(tenant.to_string())
            .or_default()
            .relations
            .insert(
                name,
                CatalogEntry {
                    relation,
                    source: source.describe(),
                },
            );
        Ok(tuples)
    }

    /// Drop `tenant`'s relation `name`. Shared relations cannot be unloaded
    /// through a tenant (resolution falls back to them, but they are not the
    /// tenant's to drop). A tenant other than [`DEFAULT_TENANT`] that holds
    /// no relation afterwards leaves the catalog, counters included.
    pub fn unload(&self, tenant: &str, name: &str) -> Result<(), CatalogError> {
        let name = name.to_ascii_lowercase();
        let mut tenants = self.tenants.write().expect("catalog poisoned");
        let Some(state) = tenants.get_mut(tenant) else {
            return Err(CatalogError::UnknownRelation(name));
        };
        if state.relations.remove(&name).is_none() {
            return Err(CatalogError::UnknownRelation(name));
        }
        if state.relations.is_empty() && tenant != DEFAULT_TENANT {
            tenants.remove(tenant);
        }
        Ok(())
    }

    /// The relations `tenant` can see: its own (shadowing) plus the shared
    /// ones, sorted by name.
    pub fn list(&self, tenant: &str) -> Vec<RelationInfo> {
        let mut infos: HashMap<String, RelationInfo> = self
            .shared
            .read()
            .expect("catalog poisoned")
            .iter()
            .map(|(name, entry)| (name.clone(), RelationInfo::for_entry(name, entry, true)))
            .collect();
        if let Some(state) = self.tenants.read().expect("catalog poisoned").get(tenant) {
            for (name, entry) in &state.relations {
                infos.insert(name.clone(), RelationInfo::for_entry(name, entry, false));
            }
        }
        let mut infos: Vec<RelationInfo> = infos.into_values().collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Names in the shared namespace, sorted (the pre-catalog
    /// `relation_names` surface).
    pub fn shared_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shared
            .read()
            .expect("catalog poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Count one admitted request against `tenant` (dropped unless `tenant`
    /// is [`DEFAULT_TENANT`] or holds a relation).
    pub fn record_admit(&self, tenant: &str) {
        self.count(tenant, |state| state.admits += 1);
    }

    /// Count one rejected request against `tenant` (dropped unless `tenant`
    /// is [`DEFAULT_TENANT`] or holds a relation).
    pub fn record_reject(&self, tenant: &str) {
        self.count(tenant, |state| state.rejects += 1);
    }

    fn count(&self, tenant: &str, bump: impl FnOnce(&mut TenantState)) {
        let mut tenants = self.tenants.write().expect("catalog poisoned");
        if let Some(state) = tenants.get_mut(tenant) {
            bump(state);
        } else if tenant == DEFAULT_TENANT {
            bump(tenants.entry(DEFAULT_TENANT.to_string()).or_default());
        }
    }

    /// Chunk-cache `(hits, misses, evictions)` summed over every disk-backed
    /// relation the catalog holds, shared and per tenant.
    pub(crate) fn chunk_traffic(&self) -> (u64, u64, u64) {
        let shared = self.shared.read().expect("catalog poisoned");
        let tenants = self.tenants.read().expect("catalog poisoned");
        let entries = tenants.values().flat_map(|t| t.relations.values());
        chunk_traffic(shared.values().chain(entries))
    }

    /// Per-tenant usage, sorted by tenant name (the `stats` op's
    /// `tenants` section).
    pub fn tenant_snapshots(&self) -> Vec<TenantSnapshot> {
        let tenants = self.tenants.read().expect("catalog poisoned");
        let mut snapshots: Vec<TenantSnapshot> = tenants
            .iter()
            .map(|(tenant, state)| {
                let mut relations: Vec<String> = state.relations.keys().cloned().collect();
                relations.sort();
                let (chunk_hits, chunk_misses, _) = chunk_traffic(state.relations.values());
                TenantSnapshot {
                    tenant: tenant.clone(),
                    relations,
                    resident_tuples: state.resident_tuples(),
                    resident_bytes: state.resident_bytes(),
                    disk_bytes: state.disk_bytes(),
                    chunk_hits,
                    chunk_misses,
                    admits: state.admits,
                    rejects: state.rejects,
                }
            })
            .collect();
        snapshots.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        snapshots
    }
}

/// Build a relation from a column-spec JSON file in the `storage` tier:
///
/// ```json
/// {"name": "stocks",
///  "columns": [
///    {"name": "price", "kind": "deterministic", "values": [100.0, 101.5]},
///    {"name": "gain",  "kind": "normal", "means": [5.0, 4.0], "sds": [1.0, 6.0]}
///  ]}
/// ```
///
/// `deterministic` columns carry exact `values`; `normal` columns are
/// stochastic with per-tuple `means` and standard deviations `sds` (the
/// Monte Carlo VG function used by the paper's Portfolio workload). All
/// columns must have the same length. Fields are read like wire fields: an
/// absent `kind` means `deterministic`, and a field of the wrong type (a
/// non-string `kind` or `name`, an array holding anything but finite
/// numbers) is a [`CatalogError::BadSource`] naming it. Deterministic
/// columns stream into the builder and spill to chunk files when `storage`
/// is a disk tier, so large column-spec files load in bounded memory.
pub fn relation_from_file_with(
    path: &str,
    storage: StorageOptions,
) -> Result<Relation, CatalogError> {
    let bad = |message: String| CatalogError::BadSource(message);
    let text =
        std::fs::read_to_string(path).map_err(|e| bad(format!("cannot read `{path}`: {e}")))?;
    let value = crate::json::parse(&text).map_err(|e| bad(format!("`{path}`: {e}")))?;
    let file = format!("column-spec file `{path}`");
    let top = Fields::new(&file, &value);
    let name = top.required("name", STRING).map_err(bad)?;
    // Borrowed, not read through a `Kind`: a large file's columns are not
    // copied before they stream into the builder.
    let columns = value
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("{file} needs an array `columns`")))?;
    if columns.is_empty() {
        return Err(bad(format!("`{path}`: `columns` is empty")));
    }

    let mut builder = RelationBuilder::new(name).storage(storage);
    let what = format!("`{path}` column");
    for column in columns {
        let f = Fields::new(&what, column);
        let column_name = f.required("name", STRING).map_err(bad)?;
        let kind = f.optional("kind", STRING).map_err(bad)?;
        match kind.as_deref().unwrap_or("deterministic") {
            "deterministic" => {
                let values = f.required("values", FINITE_NUMBERS).map_err(bad)?;
                builder = builder.deterministic_f64(column_name, values);
            }
            "normal" => {
                let means = f.required("means", FINITE_NUMBERS).map_err(bad)?;
                let sds = f.required("sds", FINITE_NUMBERS).map_err(bad)?;
                if means.len() != sds.len() {
                    return Err(bad(format!(
                        "`{path}`: column `{column_name}` has {} means but {} sds",
                        means.len(),
                        sds.len()
                    )));
                }
                builder = builder.stochastic(column_name, NormalNoise::around(means, sds));
            }
            other => {
                return Err(bad(format!(
                    "`{path}`: column `{column_name}` has unknown kind `{other}` \
                     (expected deterministic or normal)"
                )));
            }
        }
    }
    builder.build().map_err(|e| bad(format!("`{path}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_workloads::build_workload;

    fn small_source(scale: usize) -> RelationSource {
        RelationSource::Workload {
            kind: WorkloadKind::Portfolio,
            scale,
            seed: 7,
        }
    }

    #[test]
    fn tenants_are_isolated_and_shadow_the_shared_namespace() {
        let catalog = Catalog::new(TenantQuotas::default());
        let shared = build_workload(WorkloadKind::Portfolio, 150, 1).relation;
        catalog.register_shared("portfolio", shared.clone(), "startup");

        // Both tenants see the shared relation.
        assert!(catalog.resolve("alice", "PORTFOLIO").is_some());
        assert!(catalog.resolve("bob", "portfolio").is_some());

        // Alice loads her own `portfolio`; Bob keeps seeing the shared one.
        catalog
            .load("alice", "portfolio", &small_source(120))
            .unwrap();
        let alice = catalog.resolve("alice", "portfolio").unwrap();
        let bob = catalog.resolve("bob", "portfolio").unwrap();
        assert_ne!(alice.uid(), bob.uid(), "tenant relations must be isolated");
        assert_eq!(bob.uid(), shared.uid());

        // Listing marks provenance.
        let listed = catalog.list("alice");
        assert_eq!(listed.len(), 1, "alice's relation shadows the shared one");
        assert!(!listed[0].shared);
        assert!(listed[0].source.starts_with("workload:Portfolio"));
        assert!(catalog.list("bob")[0].shared);

        // Unload restores the shared view; unloading again is a clean error.
        catalog.unload("alice", "portfolio").unwrap();
        assert_eq!(
            catalog.resolve("alice", "portfolio").unwrap().uid(),
            shared.uid()
        );
        assert_eq!(
            catalog.unload("alice", "portfolio"),
            Err(CatalogError::UnknownRelation("portfolio".into()))
        );
    }

    #[test]
    fn quotas_reject_with_clean_errors() {
        let catalog = Catalog::new(TenantQuotas {
            max_relations: 2,
            max_resident_tuples: 400,
        });
        catalog.load("t", "a", &small_source(120)).unwrap();
        catalog.load("t", "b", &small_source(120)).unwrap();
        // Third relation: over the relation cap.
        let err = catalog.load("t", "c", &small_source(120)).unwrap_err();
        assert!(matches!(err, CatalogError::RelationQuota { limit: 2 }));
        // Replacing an existing name is allowed at the cap, but not past the
        // tuple budget.
        let err = catalog.load("t", "a", &small_source(350)).unwrap_err();
        assert!(matches!(err, CatalogError::TupleQuota { .. }));
        assert!(err.to_string().contains("tenant quota exceeded"));
        // Another tenant is unaffected.
        catalog.load("u", "a", &small_source(120)).unwrap();
    }

    #[test]
    fn snapshots_track_usage_and_admissions() {
        let catalog = Catalog::new(TenantQuotas::default());
        catalog.load("t", "a", &small_source(120)).unwrap();
        catalog.record_admit("t");
        catalog.record_admit("t");
        catalog.record_reject("t");
        let snapshots = catalog.tenant_snapshots();
        assert_eq!(snapshots.len(), 1);
        let snap = &snapshots[0];
        assert_eq!(snap.tenant, "t");
        assert_eq!(snap.relations, vec!["a".to_string()]);
        assert!(snap.resident_tuples >= 100);
        assert_eq!(snap.admits, 2);
        assert_eq!(snap.rejects, 1);
    }

    #[test]
    fn only_default_and_loading_tenants_keep_state() {
        let catalog = Catalog::new(TenantQuotas {
            max_relations: 8,
            max_resident_tuples: 400,
        });
        catalog.load("loader", "a", &small_source(120)).unwrap();
        // A refused first load leaves no tenant behind.
        let err = catalog.load("greedy", "a", &small_source(500)).unwrap_err();
        assert!(matches!(err, CatalogError::TupleQuota { .. }));
        // Neither does a tenant whose last relation is unloaded.
        catalog.load("brief", "a", &small_source(120)).unwrap();
        catalog.unload("brief", "a").unwrap();
        for i in 0..1_000 {
            let tenant = format!("fresh-{i}");
            catalog.record_admit(&tenant);
            catalog.record_reject(&tenant);
        }
        catalog.record_admit("loader");
        catalog.record_admit(DEFAULT_TENANT);
        let snapshots = catalog.tenant_snapshots();
        let names: Vec<&str> = snapshots.iter().map(|s| s.tenant.as_str()).collect();
        assert_eq!(names, [DEFAULT_TENANT, "loader"]);
        assert_eq!((snapshots[0].admits, snapshots[0].rejects), (1, 0));
        assert_eq!((snapshots[1].admits, snapshots[1].rejects), (1, 0));
    }

    #[test]
    fn file_sources_round_trip_and_reject_garbage() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("spq-catalog-rel-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"name":"stocks","columns":[
                {"name":"price","kind":"deterministic","values":[100.0,101.5,99.0]},
                {"name":"gain","kind":"normal","means":[5.0,4.0,1.0],"sds":[1.0,6.0,0.2]}
            ]}"#,
        )
        .unwrap();
        let relation =
            relation_from_file_with(path.to_str().unwrap(), StorageOptions::memory()).unwrap();
        assert_eq!(relation.len(), 3);
        assert!(relation.is_stochastic("gain"));
        assert!(!relation.is_stochastic("price"));

        let catalog = Catalog::new(TenantQuotas::default());
        let loaded = catalog
            .load(
                "t",
                "stocks",
                &RelationSource::File {
                    path: path.to_str().unwrap().to_string(),
                },
            )
            .unwrap();
        assert_eq!(loaded, 3);
        let _ = std::fs::remove_file(&path);

        // Missing file and malformed specs are BadSource, not panics.
        assert!(matches!(
            relation_from_file_with("/nonexistent/rel.json", StorageOptions::memory()),
            Err(CatalogError::BadSource(_))
        ));
        let bad = dir.join(format!("spq-catalog-bad-{}.json", std::process::id()));
        std::fs::write(
            &bad,
            r#"{"name":"x","columns":[{"name":"c","kind":"weird"}]}"#,
        )
        .unwrap();
        let err =
            relation_from_file_with(bad.to_str().unwrap(), StorageOptions::memory()).unwrap_err();
        assert!(err.to_string().contains("unknown kind"));
        // A wrongly typed field is an error naming it, never a default.
        for (spec, field) in [
            (
                r#"{"name":"x","columns":[{"name":"c","kind":7,"values":[1.0]}]}"#,
                "kind",
            ),
            (
                r#"{"name":"x","columns":[{"name":3,"values":[1.0]}]}"#,
                "name",
            ),
            (
                r#"{"name":"x","columns":[{"name":"c","values":[1.0,"2"]}]}"#,
                "values",
            ),
            (
                r#"{"name":"x","columns":[{"name":"c","kind":"normal","means":1,"sds":[1]}]}"#,
                "means",
            ),
            (
                r#"{"name":"x","columns":[{"name":"c","kind":"normal","means":[1],"sds":[null]}]}"#,
                "sds",
            ),
            (
                r#"{"name":["x"],"columns":[{"name":"c","values":[1.0]}]}"#,
                "name",
            ),
            (r#"{"name":"x","columns":{"name":"c"}}"#, "columns"),
        ] {
            std::fs::write(&bad, spec).unwrap();
            match relation_from_file_with(bad.to_str().unwrap(), StorageOptions::memory()) {
                Err(CatalogError::BadSource(message)) => {
                    assert!(message.contains(&format!("`{field}`")), "{spec}: {message}");
                }
                other => panic!("{spec} loaded: {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&bad);
    }

    #[test]
    fn disk_loads_account_bytes_and_clean_up_their_chunks() {
        let dir = std::env::temp_dir().join(format!("spq-catalog-disk-{}", std::process::id()));
        let catalog = Catalog::with_storage_dir(TenantQuotas::default(), &dir);
        catalog
            .load_with("t", "p", &small_source(400), RelationStorage::Disk)
            .unwrap();

        // list_relations reports the tier and the byte split.
        let info = &catalog.list("t")[0];
        assert_eq!(info.storage, "disk");
        assert!(info.disk_bytes > 0, "chunk files must exist");
        assert!(info.chunk_cache.is_some());
        assert_eq!(info.chunk_hit_rate(), Some(0.0), "nothing read yet");

        // Reading pages chunks through the cache; the hit rate moves.
        let relation = catalog.resolve("t", "p").unwrap();
        let a = relation.deterministic_f64("price").unwrap();
        let b = relation.deterministic_f64("price").unwrap();
        assert_eq!(a, b);
        let info = &catalog.list("t")[0];
        assert!(info.chunk_hit_rate().unwrap() > 0.0, "second read hits");
        assert!(info.resident_bytes > 0, "cached chunks count as resident");

        // Snapshots aggregate the same accounting per tenant.
        let snap = &catalog.tenant_snapshots()[0];
        assert!(snap.disk_bytes > 0);
        assert!(snap.chunk_hits > 0);
        assert!(snap.chunk_hit_rate() > 0.0);

        // Unloading drops the last handle; the chunk files disappear.
        let files_before: usize = walk_files(&dir);
        assert!(files_before > 0);
        drop(relation);
        catalog.unload("t", "p").unwrap();
        assert_eq!(walk_files(&dir), 0, "chunk files must be deleted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_relations_leave_no_directories_behind() {
        // A given storage directory stays, emptied once the last handle to
        // its relation drops.
        let tmp = std::env::temp_dir().join(format!("spq-catalog-dirs-{}", std::process::id()));
        let catalog = Catalog::with_storage_dir(TenantQuotas::default(), &tmp);
        catalog
            .load_with("t", "p", &small_source(200), RelationStorage::Disk)
            .unwrap();
        let relation = catalog.resolve("t", "p").unwrap();
        catalog.unload("t", "p").unwrap();
        let entries = || std::fs::read_dir(&tmp).unwrap().count();
        assert_eq!(entries(), 1, "a live handle keeps its chunk directory");
        drop(relation);
        assert_eq!(entries(), 0, "the last handle removes its chunk directory");
        drop(catalog);
        assert!(
            tmp.is_dir(),
            "a given directory is not the catalog's to remove"
        );
        std::fs::remove_dir(&tmp).unwrap();

        // Through `Catalog::new`, the relations' directories sit in the
        // temp directory under a prefix of this catalog's own, and each
        // goes with its relation's last handle, even one that outlives the
        // catalog.
        let catalog = Catalog::new(TenantQuotas::default());
        let prefix = catalog.dir_prefix.clone();
        let own = || {
            std::fs::read_dir(std::env::temp_dir())
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .file_name()
                        .to_string_lossy()
                        .starts_with(&prefix)
                })
                .count()
        };
        for name in ["a", "b"] {
            catalog
                .load_with("t", name, &small_source(200), RelationStorage::Disk)
                .unwrap();
        }
        assert_eq!(own(), 2);
        catalog.unload("t", "a").unwrap();
        assert_eq!(own(), 1);
        let relation = catalog.resolve("t", "b").unwrap();
        drop(catalog);
        assert_eq!(own(), 1, "a live handle keeps its chunk directory");
        drop(relation);
        assert_eq!(own(), 0);
    }

    fn walk_files(dir: &std::path::Path) -> usize {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .map(|e| {
                if e.path().is_dir() {
                    walk_files(&e.path())
                } else {
                    1
                }
            })
            .sum()
    }

    #[test]
    fn storage_spellings_parse() {
        assert_eq!(RelationStorage::parse("disk"), Some(RelationStorage::Disk));
        assert_eq!(
            RelationStorage::parse("Memory"),
            Some(RelationStorage::Memory)
        );
        assert_eq!(RelationStorage::parse("tape"), None);
        assert_eq!(RelationStorage::default(), RelationStorage::Memory);
        assert_eq!(RelationStorage::Disk.as_str(), "disk");
    }

    #[test]
    fn workload_kind_spellings_parse() {
        assert_eq!(
            RelationSource::parse_workload_kind("Portfolio"),
            Some(WorkloadKind::Portfolio)
        );
        assert_eq!(
            RelationSource::parse_workload_kind("tpc-h"),
            Some(WorkloadKind::Tpch)
        );
        assert_eq!(
            RelationSource::parse_workload_kind("galaxy"),
            Some(WorkloadKind::Galaxy)
        );
        assert_eq!(RelationSource::parse_workload_kind("nope"), None);
    }
}
