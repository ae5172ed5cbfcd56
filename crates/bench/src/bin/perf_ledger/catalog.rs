//! The metric catalogue: every name the ledger reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json` lists
//! the same rows; a unit test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// `compare` (and the driver) call it a regression; 0 for per-layer
    /// metrics, which have no bound.
    pub bound: f64,
    /// A count that must repeat exactly for a fixed seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn counter(name: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit: "count",
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported per workload by the untraced run.
///
/// `failed_share` and `verified_share` of the issue's table are
/// [`OUTPUT_SHARES`]: a healthy run reads exactly 0 and 1, and the driver's
/// spread rule divides by the median, so they cannot be bounded rows of
/// `BENCHMARK.json`. The driver reads them from the result line's `failed`,
/// `attempted` and `correct`; the ledger carries them by name.
///
/// One bound serves all four workloads. The timing bounds are the contract's
/// ceiling: the 2-core reference VM speeds up and slows down by some 15 % in
/// waves of several minutes (CPU seconds per op of an identical request list
/// included), so ten consecutive runs spread by up to 0.2 of their median
/// whatever the workload (README, "Reference machine and steadiness"). The
/// issue's floors of 10-15 % would call that noise a regression.
pub const END_TO_END: &[Metric] = &[
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("throughput_qps", "1/s", Higher, 0.25),
    e2e("cpu_s_per_op", "s", Lower, 0.25),
    e2e("objective_vs_bound_p50", "ratio", Higher, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// What the output checks found, per workload, in every ledger. `compare`
/// rejects a ledger whose `failed_share` is above or whose `verified_share`
/// is below the parent's by any amount: a change may not buy speed with
/// wrong or missing answers.
pub const OUTPUT_SHARES: &[Metric] = &[
    Metric {
        name: "failed_share",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        exact: true,
    },
    Metric {
        name: "verified_share",
        unit: "ratio",
        better: Higher,
        bound: 0.0,
        exact: true,
    },
];

/// Per-layer metrics, reported per workload by the traced run.
pub const PER_LAYER: &[Metric] = &[
    // net
    layer("net.ping_rtt_us_p50", "us", Lower),
    counter("net.lines", Lower),
    // service
    layer("service.wire_overhead_ms_p50", "ms", Lower),
    layer("service.queue_ms_p50", "ms", Lower),
    layer("service.pre_eval_ms_p50", "ms", Lower),
    layer("service.codec_us_per_op", "us", Lower),
    layer("service.result_cache_hit_share", "ratio", Higher),
    layer("service.prepared_cache_hit_share", "ratio", Higher),
    counter("service.rejects", Lower),
    // spaql + core.translate
    layer("compile.ms_p50", "ms", Lower),
    // core.instance
    layer("instance.prepare_ms_p50", "ms", Lower),
    // mcdb.scenario
    layer("scenario.cold_mcells_per_s", "Mcells/s", Higher),
    layer("scenario.warm_ms_p50", "ms", Lower),
    counter("scenario.cells", Lower),
    layer("scenario.cache_hit_share", "ratio", Higher),
    counter("scenario.cache_evictions", Lower),
    // mcdb.column
    layer("column.gather_mrows_per_s", "Mrows/s", Higher),
    layer("column.chunk_hit_share", "ratio", Higher),
    counter("column.chunk_misses", Lower),
    counter("column.chunk_evictions", Lower),
    layer("column.load_mrows_per_s", "Mrows/s", Higher),
    layer("column.disk_bytes_per_user_byte", "ratio", Lower),
    // sketch
    layer("sketch.partition_ms_p50", "ms", Lower),
    counter("sketch.partitions", Lower),
    layer("sketch.blocks_refined_share", "ratio", Lower),
    layer("sketch.evaluate_ms_p50", "ms", Lower),
    // core search
    layer("search.evaluate_ms_p50", "ms", Lower),
    counter("search.outer_iterations", Lower),
    counter("search.problems_solved", Lower),
    counter("search.scenarios_final", Lower),
    // solver
    layer("solver.solve_ms_p50", "ms", Lower),
    counter("solver.lp_pivots", Lower),
    counter("solver.nodes", Lower),
    layer("solver.kpivots_per_s", "kpivots/s", Higher),
    counter("solver.refactorizations", Lower),
    layer("solver.nodes_pruned_share", "ratio", Higher),
    // core.validation
    layer("validation.mscenarios_per_s", "Mscen/s", Higher),
    counter("validation.scenarios", Lower),
    counter("validation.passes", Lower),
    // process
    layer("proc.sys_cpu_share", "ratio", Lower),
    layer("proc.trace_overhead_share", "ratio", Lower),
    // Share of traced request time by layer group (self times of the
    // request span and the spq-obs spans folded under it; they sum to 1).
    layer("share.net_service", "ratio", Lower),
    layer("share.instance", "ratio", Lower),
    layer("share.scenario", "ratio", Lower),
    layer("share.search_solver", "ratio", Lower),
    layer("share.validation", "ratio", Lower),
    layer("share.sketch", "ratio", Lower),
];

/// Look a metric up by name in either table.
#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(OUTPUT_SHARES)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_service::json::{parse, Json};

    /// `BENCHMARK.json` at the repository root, five levels up.
    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    fn rows<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        doc.get(key).and_then(Json::as_array).expect(key)
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let doc = parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = rows(&doc, key);
            assert_eq!(listed.len(), table.len(), "{key} row count");
            for (row, metric) in listed.iter().zip(table) {
                assert_eq!(row.str_field("name"), Some(metric.name));
                assert_eq!(row.str_field("unit"), Some(metric.unit), "{}", metric.name);
                assert_eq!(
                    row.str_field("better"),
                    Some(metric.better.as_str()),
                    "{}",
                    metric.name
                );
                if key == "end_to_end" {
                    let bound = row.get("bound").and_then(Json::as_f64);
                    assert_eq!(bound, Some(metric.bound), "{}", metric.name);
                    assert!(metric.bound > 0.0 && metric.bound <= 0.25);
                }
            }
        }
        let workloads: Vec<&str> = rows(&doc, "workloads")
            .iter()
            .filter_map(|w| w.str_field("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            rows(&doc, "paths")[0].as_str(),
            Some("crates/bench/src/bin/perf_ledger")
        );
    }

    /// The lines of a manifest's `header` table.
    fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != header)
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// This directory is built twice: as the `perf_ledger` bin of
    /// `spq-bench` (these tests) and as the package `BENCHMARK.json` builds.
    /// The second must stay what the first is: the workspace's release
    /// profile, and the workspace's own crates behind every dependency.
    #[test]
    fn the_package_manifest_tracks_the_workspace() {
        let package = include_str!("Cargo.toml");
        let workspace = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        assert_eq!(
            table(package, "[profile.release]"),
            table(workspace, "[profile.release]")
        );
        let ours = table(package, "[dependencies]");
        for dependency in table(bench, "[dependencies]") {
            let name = dependency.split(' ').next().unwrap();
            // Every workspace crate `spq-bench` links (serde is the one
            // dependency no file here uses).
            let Some(dir) = name.strip_prefix("spq-") else {
                assert_eq!(name, "serde");
                continue;
            };
            let line = format!("{name} = {{ path = \"../../../../{dir}\" }}");
            assert!(ours.contains(&line.as_str()), "missing `{line}`");
        }
        assert_eq!(ours.len(), table(bench, "[dependencies]").len() - 1);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(OUTPUT_SHARES).chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }
}
