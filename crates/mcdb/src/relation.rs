//! Monte Carlo relations over tiered column storage.

use crate::column::{ChunkCache, ChunkCacheStats, ColumnStorage, ColumnWriter, StorageOptions};
use crate::error::McdbError;
use crate::schema::{ColumnDef, ColumnKind, Schema};
use crate::seed::column_tag;
use crate::value::Value;
use crate::vg::VgFunction;
use crate::Result;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A stochastic column: a name plus the VG function that realizes it.
pub struct StochasticColumn {
    /// Column name.
    pub name: String,
    /// VG function producing realizations.
    pub vg: Arc<dyn VgFunction>,
    /// Precomputed stable tag used for seeding.
    pub tag: u64,
    /// Whether *every* tuple of the column has a closed-form mean
    /// (precomputed at build time so subset expectation estimates can take
    /// the analytic path in `O(|subset|)`).
    pub analytic: bool,
}

impl std::fmt::Debug for StochasticColumn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StochasticColumn")
            .field("name", &self.name)
            .field("vg", &self.vg.name())
            .finish()
    }
}

/// The immutable body of a [`Relation`], shared behind an `Arc` so cloning
/// a relation — e.g. handing it to every worker thread of a query service —
/// costs one reference-count bump rather than a deep copy of the columns.
#[derive(Debug)]
struct RelationInner {
    name: String,
    schema: Schema,
    n_rows: usize,
    uid: u64,
    fingerprint: u64,
    det_columns: HashMap<String, ColumnStorage>,
    stoch_columns: HashMap<String, StochasticColumn>,
    /// Shared chunk cache of the disk tier (None for all-memory relations).
    chunk_cache: Option<Arc<ChunkCache>>,
    /// The chunk directory to clean when the last handle drops: its chunk
    /// files are deleted, then the directory itself once it is empty (None
    /// for all-memory relations and kept files).
    cleanup_dir: Option<PathBuf>,
}

impl Drop for RelationInner {
    fn drop(&mut self) {
        if let Some(dir) = &self.cleanup_dir {
            for col in self.det_columns.values() {
                col.remove_files();
            }
            // Fails, leaving it, while other files share the directory.
            let _ = std::fs::remove_dir(dir);
        }
    }
}

/// A relation in the Monte Carlo data model: deterministic columns live
/// behind [`ColumnStorage`] (fully in memory, or chunked on disk behind a
/// byte-budgeted cache), stochastic columns are described by VG functions
/// and realized on demand per scenario.
///
/// A `Relation` is an `Arc` handle over immutable shared state: `clone()` is
/// O(1) and the clone can be sent to other threads (`Relation: Send + Sync`),
/// which is what lets concurrent query evaluations share one million-tuple
/// relation without deep copies. Each built relation carries a process-unique
/// [`Relation::uid`] (shared by all clones) that caches use as an identity
/// key. All accessors return the same values regardless of storage tier.
#[derive(Debug, Clone)]
pub struct Relation {
    inner: Arc<RelationInner>,
}

impl Relation {
    /// Relation name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Relation schema.
    pub fn schema(&self) -> &Schema {
        &self.inner.schema
    }

    /// Number of tuples (identical across scenarios, per the Monte Carlo
    /// model's deterministic-key assumption).
    pub fn len(&self) -> usize {
        self.inner.n_rows
    }

    /// True when the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.inner.n_rows == 0
    }

    /// Process-unique identity of this relation's shared body: every clone
    /// returns the same value, and no two separately built relations share
    /// it. Used as a cache key by [`crate::ScenarioCache`] and the service's
    /// prepared-query cache.
    pub fn uid(&self) -> u64 {
        self.inner.uid
    }

    /// Content fingerprint of the relation's *stochastic* identity: a stable
    /// digest of the relation name, cardinality, and every stochastic
    /// column's `(name tag, VG parameter signature)`. Unlike [`Self::uid`],
    /// the fingerprint survives process restarts — two relations built from
    /// the same workload parameters in different processes share it — which
    /// is what lets the persistent scenario store re-serve realized blocks
    /// across restarts without ever serving them to a different model. The
    /// fingerprint is storage-tier independent: disk-backed and in-memory
    /// builds of the same workload share it.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }

    fn canonical_name(&self, name: &str) -> Result<String> {
        self.inner
            .schema
            .column(name)
            .map(|c| c.name.clone())
            .ok_or_else(|| McdbError::UnknownColumn(name.to_string()))
    }

    fn det_column(&self, name: &str) -> Result<&ColumnStorage> {
        let canon = self.canonical_name(name)?;
        self.inner
            .det_columns
            .get(&canon)
            .ok_or(McdbError::NotDeterministic(canon))
    }

    /// Access a deterministic column as floats; errors if any value is
    /// non-numeric. Streams chunk by chunk on the disk tier, so peak extra
    /// memory is one chunk plus the output vector.
    pub fn deterministic_f64(&self, name: &str) -> Result<Vec<f64>> {
        let col = self.det_column(name)?;
        let mut out = Vec::with_capacity(col.len());
        col.for_each_chunk(|_, chunk| {
            for v in chunk {
                out.push(
                    v.as_f64()
                        .ok_or_else(|| McdbError::NotNumeric(name.to_string()))?,
                );
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// Gather a deterministic column as floats at the given tuple indices,
    /// in the given order, paging in only the chunks those tuples live in.
    /// This is the access path sub-instances use so candidate pruning never
    /// materializes a full column of a huge relation.
    pub fn gather_f64(&self, name: &str, tuples: &[usize]) -> Result<Vec<f64>> {
        self.check_tuples(tuples)?;
        let values = self.det_column(name)?.gather(tuples)?;
        values
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| McdbError::NotNumeric(name.to_string()))
            })
            .collect()
    }

    /// Gather deterministic values at the given tuple indices, in order.
    pub fn gather_values(&self, name: &str, tuples: &[usize]) -> Result<Vec<Value>> {
        self.check_tuples(tuples)?;
        self.det_column(name)?.gather(tuples)
    }

    fn check_tuples(&self, tuples: &[usize]) -> Result<()> {
        if let Some(&bad) = tuples.iter().find(|&&t| t >= self.inner.n_rows) {
            return Err(McdbError::TupleOutOfBounds {
                index: bad,
                len: self.inner.n_rows,
            });
        }
        Ok(())
    }

    /// Access a single deterministic cell (paging in its chunk on the disk
    /// tier).
    pub fn value(&self, column: &str, tuple: usize) -> Result<Value> {
        if tuple >= self.inner.n_rows {
            return Err(McdbError::TupleOutOfBounds {
                index: tuple,
                len: self.inner.n_rows,
            });
        }
        self.det_column(column)?.get(tuple)
    }

    /// Access a stochastic column descriptor.
    pub fn stochastic_column(&self, name: &str) -> Result<&StochasticColumn> {
        let canon = self.canonical_name(name)?;
        self.inner
            .stoch_columns
            .get(&canon)
            .ok_or(McdbError::NotStochastic(canon))
    }

    /// True when the column exists and is stochastic.
    pub fn is_stochastic(&self, name: &str) -> bool {
        self.inner
            .schema
            .column(name)
            .map(ColumnDef::is_stochastic)
            .unwrap_or(false)
    }

    /// `"disk"` when any deterministic column lives in the out-of-core tier,
    /// else `"memory"`.
    pub fn storage_kind(&self) -> &'static str {
        if self.inner.chunk_cache.is_some() {
            "disk"
        } else {
            "memory"
        }
    }

    /// Bytes of deterministic column data resident in memory: materialized
    /// columns plus whatever the chunk cache currently holds.
    pub fn resident_bytes(&self) -> u64 {
        let columns: u64 = self
            .inner
            .det_columns
            .values()
            .map(ColumnStorage::resident_bytes)
            .sum();
        let cached = self
            .inner
            .chunk_cache
            .as_ref()
            .map(|c| c.stats().resident_bytes)
            .unwrap_or(0);
        columns + cached
    }

    /// Bytes of chunk files on disk (0 for all-memory relations).
    pub fn disk_bytes(&self) -> u64 {
        self.inner
            .det_columns
            .values()
            .map(ColumnStorage::disk_bytes)
            .sum()
    }

    /// Chunk-cache counters, when the relation has a disk tier.
    pub fn chunk_cache_stats(&self) -> Option<ChunkCacheStats> {
        self.inner.chunk_cache.as_ref().map(|c| c.stats())
    }

    /// Tighten the chunk-cache byte budget (never widens; no-op for
    /// all-memory relations). This is how `max_relation_bytes`-style
    /// ceilings are enforced after the relation is built.
    pub fn clamp_cache_budget(&self, bytes: u64) {
        if let Some(cache) = &self.inner.chunk_cache {
            cache.clamp_budget(bytes);
        }
    }

    /// Drop cached chunks so subsequent reads re-verify the files on disk.
    /// Used after an external rebuild of the relation directory.
    pub fn invalidate_chunk_cache(&self) {
        for col in self.inner.det_columns.values() {
            col.invalidate_cached();
        }
    }
}

/// Builder for [`Relation`]s.
///
/// Columns can be added whole (the classic path below) or streamed row by
/// row via [`RelationBuilder::declare_deterministic`] and
/// [`RelationBuilder::append_rows`], which — combined with
/// [`StorageOptions::disk`] — builds million-tuple relations in bounded
/// memory: at most `spill_threshold` rows per column are buffered before
/// they are spilled to chunk files.
///
/// ```
/// use spq_mcdb::{RelationBuilder, vg::Degenerate, Value};
/// let rel = RelationBuilder::new("t")
///     .deterministic("name", vec![Value::from("a"), Value::from("b")])
///     .deterministic_f64("price", vec![10.0, 20.0])
///     .stochastic("gain", Degenerate::new(vec![1.0, 2.0]))
///     .build()
///     .unwrap();
/// assert_eq!(rel.len(), 2);
/// ```
#[derive(Debug, Default)]
pub struct RelationBuilder {
    name: String,
    schema: Schema,
    storage: StorageOptions,
    det_columns: HashMap<String, ColumnWriter>,
    /// Deterministic columns declared for the streaming path, in row order.
    stream_columns: Vec<String>,
    stoch_columns: HashMap<String, StochasticColumn>,
    error: Option<McdbError>,
}

impl RelationBuilder {
    /// Start a relation with the given name (in-memory storage by default).
    pub fn new(name: impl Into<String>) -> Self {
        RelationBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Choose the storage tier. Must be called before any deterministic
    /// column is added — chunking applies uniformly to all of them.
    pub fn storage(mut self, storage: StorageOptions) -> Self {
        if !self.det_columns.is_empty() {
            self.record_error(McdbError::InvalidStorage(
                "storage must be configured before deterministic columns are added".to_string(),
            ));
            return self;
        }
        self.storage = storage;
        self
    }

    /// Rows buffered per column before the streaming path spills a chunk to
    /// disk (equivalently: rows per chunk file). No-op for memory storage.
    pub fn spill_threshold(mut self, rows: usize) -> Self {
        if !self.det_columns.is_empty() {
            self.record_error(McdbError::InvalidStorage(
                "spill_threshold must be configured before deterministic columns are added"
                    .to_string(),
            ));
            return self;
        }
        self.storage = self.storage.chunk_rows(rows);
        self
    }

    fn record_error(&mut self, e: McdbError) {
        if self.error.is_none() {
            self.error = Some(e);
        }
    }

    fn check_duplicate(&mut self, name: &str, added: ColumnKind) -> bool {
        if let Some(def) = self.schema.column(name) {
            let existing = def.kind;
            self.record_error(McdbError::DuplicateColumn {
                column: name.to_string(),
                existing,
                added,
            });
            true
        } else {
            false
        }
    }

    fn new_writer(&self, name: &str) -> ColumnWriter {
        match &self.storage {
            StorageOptions::Memory => ColumnWriter::memory(),
            StorageOptions::Disk(opts) => ColumnWriter::disk(name, opts),
        }
    }

    /// Declare a deterministic column for the streaming path; its values
    /// arrive through [`Self::append_rows`] in declaration order.
    pub fn declare_deterministic(mut self, name: impl Into<String>) -> Self {
        let name = name.into();
        if self.check_duplicate(&name, ColumnKind::Deterministic) {
            return self;
        }
        self.schema.push(ColumnDef::deterministic(name.clone()));
        let writer = self.new_writer(&name);
        self.det_columns.insert(name.clone(), writer);
        self.stream_columns.push(name);
        self
    }

    /// Append rows for the declared streaming columns. Each row must have
    /// exactly one value per [`Self::declare_deterministic`] call, in
    /// declaration order. On disk storage, full chunks are spilled as they
    /// accumulate, so memory stays bounded by the spill threshold.
    pub fn append_rows<I>(mut self, rows: I) -> Self
    where
        I: IntoIterator<Item = Vec<Value>>,
    {
        if self.error.is_some() {
            return self;
        }
        let expected = self.stream_columns.len();
        for row in rows {
            if row.len() != expected {
                self.record_error(McdbError::RowArity {
                    expected,
                    actual: row.len(),
                });
                return self;
            }
            for (name, value) in self.stream_columns.iter().zip(row) {
                self.det_columns
                    .get_mut(name)
                    .expect("declared column has a writer")
                    .push(value);
            }
        }
        self
    }

    /// Add a deterministic column of arbitrary values.
    pub fn deterministic(mut self, name: impl Into<String>, values: Vec<Value>) -> Self {
        let name = name.into();
        if self.check_duplicate(&name, ColumnKind::Deterministic) {
            return self;
        }
        self.schema.push(ColumnDef::deterministic(name.clone()));
        let mut writer = self.new_writer(&name);
        writer.extend(values);
        self.det_columns.insert(name, writer);
        self
    }

    /// Add a deterministic numeric column.
    pub fn deterministic_f64(self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.deterministic(name, values.into_iter().map(Value::Float).collect())
    }

    /// Add a deterministic integer column.
    pub fn deterministic_i64(self, name: impl Into<String>, values: Vec<i64>) -> Self {
        self.deterministic(name, values.into_iter().map(Value::Int).collect())
    }

    /// Add a deterministic text column.
    pub fn deterministic_text<S: Into<String>>(
        self,
        name: impl Into<String>,
        values: Vec<S>,
    ) -> Self {
        self.deterministic(
            name,
            values.into_iter().map(|s| Value::Text(s.into())).collect(),
        )
    }

    /// Add a stochastic column backed by a VG function.
    pub fn stochastic(self, name: impl Into<String>, vg: impl VgFunction + 'static) -> Self {
        self.stochastic_arc(name, Arc::new(vg))
    }

    /// Add a stochastic column backed by a shared VG function.
    pub fn stochastic_arc(mut self, name: impl Into<String>, vg: Arc<dyn VgFunction>) -> Self {
        let name = name.into();
        if self.check_duplicate(&name, ColumnKind::Stochastic) {
            return self;
        }
        if let Err(e) = vg.validate() {
            self.record_error(e);
        }
        self.schema.push(ColumnDef::stochastic(name.clone()));
        let tag = column_tag(&name);
        let analytic = (0..vg.len()).all(|i| vg.mean(i).is_some());
        self.stoch_columns.insert(
            name.clone(),
            StochasticColumn {
                name,
                vg,
                tag,
                analytic,
            },
        );
        self
    }

    /// Finalize the relation, checking that all columns agree on cardinality.
    pub fn build(self) -> Result<Relation> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let mut n_rows: Option<usize> = None;
        let mut check = |column: &str, len: usize| -> Result<()> {
            match n_rows {
                None => {
                    n_rows = Some(len);
                    Ok(())
                }
                Some(n) if n == len => Ok(()),
                Some(n) => Err(McdbError::LengthMismatch {
                    column: column.to_string(),
                    expected: len,
                    actual: n,
                }),
            }
        };
        for def in self.schema.columns() {
            if def.is_stochastic() {
                let len = self.stoch_columns[&def.name].vg.len();
                check(&def.name, len)?;
            } else {
                let len = self.det_columns[&def.name].rows();
                check(&def.name, len)?;
            }
        }
        let (chunk_cache, cleanup_dir) = match &self.storage {
            StorageOptions::Memory => (None, None),
            StorageOptions::Disk(opts) => (
                Some(Arc::new(ChunkCache::new(opts.cache_bytes))),
                opts.cleanup_on_drop.then(|| opts.dir.clone()),
            ),
        };
        let mut det_columns = HashMap::new();
        for (name, writer) in self.det_columns {
            det_columns.insert(name, writer.finish(chunk_cache.as_ref())?);
        }
        // A process-unique identity shared by every clone of this relation;
        // caches key on it instead of hashing column data.
        static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        // The restart-stable fingerprint folds every stochastic column in
        // schema order (deterministic across runs, unlike map iteration).
        let mut fp_words: Vec<u64> = vec![column_tag(&self.name), n_rows.unwrap_or(0) as u64];
        for def in self.schema.columns().iter().filter(|d| d.is_stochastic()) {
            let sc = &self.stoch_columns[&def.name];
            fp_words.push(sc.tag);
            fp_words.push(sc.vg.param_signature());
        }
        Ok(Relation {
            inner: Arc::new(RelationInner {
                name: self.name,
                schema: self.schema,
                n_rows: n_rows.unwrap_or(0),
                uid: NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                fingerprint: crate::seed::mix(&fp_words),
                det_columns,
                stoch_columns: self.stoch_columns,
                chunk_cache,
                cleanup_dir,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vg::{Degenerate, NormalNoise};
    use std::path::PathBuf;

    fn portfolio() -> Relation {
        RelationBuilder::new("stock_investments")
            .deterministic_i64("id", vec![1, 2, 3])
            .deterministic_text("stock", vec!["AAPL", "MSFT", "TSLA"])
            .deterministic_f64("price", vec![234.0, 140.0, 258.0])
            .stochastic("Gain", NormalNoise::around(vec![0.0, 0.0, 0.0], 1.0))
            .build()
            .unwrap()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("spq-rel-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn builds_mixed_relation() {
        let r = portfolio();
        assert_eq!(r.name(), "stock_investments");
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert_eq!(r.schema().len(), 4);
        assert!(r.is_stochastic("gain"));
        assert!(!r.is_stochastic("price"));
        assert!(!r.is_stochastic("nope"));
        assert_eq!(r.schema().stochastic_columns(), vec!["Gain"]);
        assert_eq!(r.storage_kind(), "memory");
        assert!(r.resident_bytes() > 0);
        assert_eq!(r.disk_bytes(), 0);
        assert!(r.chunk_cache_stats().is_none());
    }

    #[test]
    fn deterministic_access_and_numeric_conversion() {
        let r = portfolio();
        assert_eq!(
            r.deterministic_f64("price").unwrap(),
            vec![234.0, 140.0, 258.0]
        );
        assert_eq!(r.value("stock", 1).unwrap().as_str(), Some("MSFT"));
        assert!(r.deterministic_f64("stock").is_err());
        assert!(r.value("price", 9).is_err());
        assert!(r.deterministic_f64("Gain").is_err());
        assert!(r.deterministic_f64("missing").is_err());
        assert_eq!(r.gather_f64("price", &[2, 0]).unwrap(), vec![258.0, 234.0]);
        assert!(r.gather_f64("price", &[3]).is_err());
    }

    #[test]
    fn stochastic_access() {
        let r = portfolio();
        let sc = r.stochastic_column("GAIN").unwrap();
        assert_eq!(sc.vg.name(), "normal-noise");
        assert!(r.stochastic_column("price").is_err());
        assert!(sc.analytic);
        let means: Vec<Option<f64>> = (0..r.len()).map(|i| sc.vg.mean(i)).collect();
        assert_eq!(means, vec![Some(0.0); 3]);
    }

    #[test]
    fn analytic_flag_is_false_when_not_closed_form() {
        use crate::vg::ParetoNoise;
        let r = RelationBuilder::new("t")
            .stochastic("x", ParetoNoise::around(vec![0.0, 0.0], 1.0, 1.0))
            .build()
            .unwrap();
        assert!(!r.stochastic_column("x").unwrap().analytic);
        // A single tuple without a closed-form mean poisons the whole
        // column's flag.
        let mixed = RelationBuilder::new("t")
            .stochastic(
                "x",
                ParetoNoise::around(vec![0.0, 0.0], 1.0, vec![3.0, 0.5]),
            )
            .build()
            .unwrap();
        assert!(!mixed.stochastic_column("x").unwrap().analytic);
        assert!(portfolio().stochastic_column("Gain").unwrap().analytic);
    }

    #[test]
    fn fingerprint_is_restart_stable_and_parameter_sensitive() {
        // Two builds of the same workload share the fingerprint (that is
        // what keys the persistent scenario store across restarts) even
        // though their uids differ.
        let a = portfolio();
        let b = portfolio();
        assert_ne!(a.uid(), b.uid());
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Any parameter change to a stochastic column must move it.
        let build_with_sigma = |sigma: f64| {
            RelationBuilder::new("stock_investments")
                .deterministic_f64("price", vec![234.0, 140.0, 258.0])
                .stochastic("Gain", NormalNoise::around(vec![0.0, 0.0, 0.0], sigma))
                .build()
                .unwrap()
        };
        assert_ne!(
            build_with_sigma(1.0).fingerprint(),
            build_with_sigma(2.0).fingerprint()
        );
        // So must the relation name, the cardinality, and the column name.
        let renamed = RelationBuilder::new("other")
            .stochastic("Gain", NormalNoise::around(vec![0.0, 0.0, 0.0], 1.0))
            .build()
            .unwrap();
        let recolumned = RelationBuilder::new("other")
            .stochastic("Loss", NormalNoise::around(vec![0.0, 0.0, 0.0], 1.0))
            .build()
            .unwrap();
        assert_ne!(renamed.fingerprint(), recolumned.fingerprint());
        let shorter = RelationBuilder::new("other")
            .stochastic("Gain", NormalNoise::around(vec![0.0, 0.0], 1.0))
            .build()
            .unwrap();
        assert_ne!(renamed.fingerprint(), shorter.fingerprint());
    }

    #[test]
    fn fingerprints_are_pinned_for_every_family() {
        // The fingerprint keys every scenario-store file, so a change to a
        // VG family's probe, its parameters' digest or the fold below
        // re-keys (and silently orphans) every store on disk. These values
        // are literals on purpose: moving one is a declared format change.
        use crate::vg::{DiscreteSources, GeometricBrownianMotion, ParetoNoise};
        let base = vec![1.0, 2.5, 4.0];
        // Three candidate sources per tuple around `base`, as exact bits.
        let sources: Vec<Vec<f64>> = [
            [
                0x3ff2_8ad8_5fe0_284c,
                0x3ff0_dc88_141c_c002,
                0x3fe9_313f_1806_2f64,
            ],
            [
                0x3ffd_fd84_30ed_4652,
                0x4003_8e86_7203_342b,
                0x4009_72b7_7586_28ac,
            ],
            [
                0x400b_f95a_362d_39a3,
                0x400b_7bda_182e_d1e3,
                0x4014_4565_d8d1_fa3d,
            ],
        ]
        .iter()
        .map(|row| row.iter().map(|&bits| f64::from_bits(bits)).collect())
        .collect();
        let families: Vec<(Relation, u64)> = vec![
            (
                build_one(Degenerate::new(base.clone())),
                0xa83d_004c_0124_f3f4,
            ),
            (
                build_one(NormalNoise::around(base.clone(), vec![0.5, 0.0, 2.0])),
                0x2d8d_e077_5a93_a4bc,
            ),
            (
                build_one(ParetoNoise::around(base.clone(), 1.0, 1.0)),
                0x5241_48a7_2733_20ae,
            ),
            (
                build_one(GeometricBrownianMotion::new(
                    vec![100.0, 100.0, 40.0],
                    vec![0.001, 0.001, 0.0005],
                    vec![0.02, 0.02, 0.01],
                    vec![1, 5, 3],
                    vec![0, 0, 1],
                )),
                0x05ef_8d7e_3920_ce97,
            ),
            (
                build_one(DiscreteSources::from_candidates(sources).unwrap()),
                0x9b4c_11c5_4b0f_ca07,
            ),
        ];
        for (relation, expected) in &families {
            let vg = relation.stochastic_column("x").unwrap().vg.name();
            assert_eq!(
                relation.fingerprint(),
                *expected,
                "{vg}: {:#018x}",
                relation.fingerprint()
            );
        }
    }

    fn build_one(vg: impl VgFunction + 'static) -> Relation {
        RelationBuilder::new("pinned")
            .stochastic("x", vg)
            .build()
            .unwrap()
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let err = RelationBuilder::new("t")
            .deterministic_f64("a", vec![1.0, 2.0])
            .stochastic("b", Degenerate::new(vec![1.0]))
            .build()
            .unwrap_err();
        assert!(matches!(err, McdbError::LengthMismatch { .. }));
    }

    #[test]
    fn duplicate_column_is_rejected_with_kinds() {
        let err = RelationBuilder::new("t")
            .deterministic_f64("a", vec![1.0])
            .deterministic_f64("a", vec![2.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            McdbError::DuplicateColumn {
                column: "a".into(),
                existing: ColumnKind::Deterministic,
                added: ColumnKind::Deterministic,
            }
        );
    }

    #[test]
    fn duplicate_across_det_and_stoch_sets_is_descriptive() {
        // Pinning test: a stochastic column must not silently shadow a
        // deterministic one of the same (case-insensitive) name, in either
        // direction, and the error names both kinds.
        let err = RelationBuilder::new("t")
            .deterministic_f64("Gain", vec![1.0])
            .stochastic("gain", Degenerate::new(vec![1.0]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            McdbError::DuplicateColumn {
                column: "gain".into(),
                existing: ColumnKind::Deterministic,
                added: ColumnKind::Stochastic,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("deterministic"), "{msg}");
        assert!(msg.contains("stochastic"), "{msg}");
        assert!(msg.contains("gain"), "{msg}");

        let err = RelationBuilder::new("t")
            .stochastic("x", Degenerate::new(vec![1.0]))
            .deterministic_f64("X", vec![1.0])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            McdbError::DuplicateColumn {
                column: "X".into(),
                existing: ColumnKind::Stochastic,
                added: ColumnKind::Deterministic,
            }
        );
        // The streaming declaration path enforces the same rule.
        let err = RelationBuilder::new("t")
            .stochastic("x", Degenerate::new(vec![1.0]))
            .declare_deterministic("x")
            .build()
            .unwrap_err();
        assert!(matches!(err, McdbError::DuplicateColumn { .. }));
    }

    #[test]
    fn invalid_vg_is_rejected_at_build_time() {
        let err = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(vec![1.0, 2.0], vec![1.0]))
            .build()
            .unwrap_err();
        assert!(matches!(err, McdbError::InvalidVgParameter { .. }));
    }

    #[test]
    fn empty_relation_is_allowed() {
        let r = RelationBuilder::new("empty").build().unwrap();
        assert_eq!(r.len(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn clones_share_the_body_and_the_uid() {
        let r = portfolio();
        let c = r.clone();
        assert!(Arc::ptr_eq(&r.inner, &c.inner));
        assert_eq!(r.uid(), c.uid());
        // Clones are usable from other threads without copying columns.
        let handle = std::thread::spawn(move || c.deterministic_f64("price").unwrap());
        assert_eq!(handle.join().unwrap(), vec![234.0, 140.0, 258.0]);
        // Separately built relations have distinct identities, even with
        // identical contents.
        let other = portfolio();
        assert!(!Arc::ptr_eq(&r.inner, &other.inner));
        assert_ne!(r.uid(), other.uid());
    }

    #[test]
    fn streaming_rows_match_whole_column_build() {
        let whole = RelationBuilder::new("s")
            .deterministic_i64("id", vec![1, 2, 3])
            .deterministic_f64("price", vec![10.0, 20.0, 30.0])
            .build()
            .unwrap();
        let streamed = RelationBuilder::new("s")
            .declare_deterministic("id")
            .declare_deterministic("price")
            .append_rows((1..=3).map(|i| vec![Value::Int(i), Value::Float(i as f64 * 10.0)]))
            .build()
            .unwrap();
        assert_eq!(
            whole.deterministic_f64("price").unwrap(),
            streamed.deterministic_f64("price").unwrap()
        );
        assert_eq!(whole.fingerprint(), streamed.fingerprint());
        // Arity mismatches are descriptive errors.
        let err = RelationBuilder::new("s")
            .declare_deterministic("id")
            .append_rows(std::iter::once(vec![Value::Int(1), Value::Int(2)]))
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            McdbError::RowArity {
                expected: 1,
                actual: 2
            }
        );
    }

    #[test]
    fn disk_backed_relation_reads_like_memory_and_cleans_up() {
        let dir = tmp_dir("diskrel");
        let n = 100usize;
        let build = |storage: StorageOptions| {
            RelationBuilder::new("t")
                .storage(storage)
                .deterministic_i64("id", (0..n as i64).collect())
                .deterministic_text("tag", (0..n).map(|i| format!("row{i}")).collect())
                .stochastic("g", NormalNoise::around(vec![0.0; 100], 1.0))
                .build()
                .unwrap()
        };
        let mem = build(StorageOptions::memory());
        let disk = build(StorageOptions::disk(&dir).chunk_rows(16));
        assert_eq!(disk.storage_kind(), "disk");
        assert_eq!(mem.fingerprint(), disk.fingerprint());
        assert_eq!(
            mem.deterministic_f64("id").unwrap(),
            disk.deterministic_f64("id").unwrap()
        );
        assert_eq!(disk.value("tag", 17).unwrap().as_str(), Some("row17"));
        assert!(disk.disk_bytes() > 0);
        let stats = disk.chunk_cache_stats().unwrap();
        assert!(stats.misses > 0);
        // Chunk files exist while the relation lives, and are removed when
        // the last handle drops.
        let files = || std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
        assert!(files() > 0);
        drop(disk);
        assert_eq!(files(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storage_must_be_set_before_columns() {
        let err = RelationBuilder::new("t")
            .deterministic_f64("a", vec![1.0])
            .storage(StorageOptions::memory())
            .build()
            .unwrap_err();
        assert!(matches!(err, McdbError::InvalidStorage(_)));
    }
}
