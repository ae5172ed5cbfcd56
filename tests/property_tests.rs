//! Property-based tests on the core invariants of the system:
//! α-summary conservativeness (Definition 1 / Proposition 1), scenario
//! generation determinism, solver feasibility of returned solutions, and
//! translation round-trips.

use proptest::prelude::*;
use stochastic_package_queries::core::summary::{
    build_summaries, count_satisfied_scenarios, partition_scenarios, SummarySpec,
};
use stochastic_package_queries::mcdb::vg::NormalNoise;
use stochastic_package_queries::mcdb::{RelationBuilder, ScenarioGenerator, ScenarioMatrix};
use stochastic_package_queries::solver::{
    solve_full, Model, Sense, SolveStatus, SolverOptions, VarType,
};

fn matrix_from(rows: &[Vec<f64>]) -> ScenarioMatrix {
    let n = rows.first().map(|r| r.len()).unwrap_or(0);
    ScenarioMatrix::from_rows(n, rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Proposition 1: any solution satisfying an α-summary (with respect to a
    /// `>=` inner constraint) satisfies at least ⌈α·M⌉ of the scenarios.
    #[test]
    fn alpha_summary_guarantee_ge(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 5),
            2..12,
        ),
        alpha in 0.05f64..1.0,
        x in proptest::collection::vec(0u32..4, 5),
        rhs in -20.0f64..20.0,
    ) {
        let scenarios = matrix_from(&rows);
        let m = scenarios.num_scenarios();
        let partitions = partition_scenarios(m, 1);
        let spec = SummarySpec {
            alpha,
            sense: Sense::Ge,
            previous_solution: None,
            accelerate: false,
        };
        let summaries = build_summaries(&scenarios, &partitions, &spec);
        let summary = &summaries[0];
        let x: Vec<f64> = x.into_iter().map(f64::from).collect();
        let summary_score: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        // Only check the guarantee when x actually satisfies the summary.
        prop_assume!(summary_score >= rhs);
        let needed = (alpha * m as f64).ceil() as usize;
        let satisfied = count_satisfied_scenarios(&scenarios, &x, Sense::Ge, rhs);
        prop_assert!(
            satisfied >= needed.min(m),
            "satisfied {satisfied} < needed {needed} (m = {m})"
        );
    }

    /// The mirrored guarantee for `<=` inner constraints (tuple-wise maximum).
    #[test]
    fn alpha_summary_guarantee_le(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 4),
            2..10,
        ),
        alpha in 0.05f64..1.0,
        x in proptest::collection::vec(0u32..4, 4),
        rhs in -20.0f64..20.0,
    ) {
        let scenarios = matrix_from(&rows);
        let m = scenarios.num_scenarios();
        let partitions = partition_scenarios(m, 1);
        let spec = SummarySpec {
            alpha,
            sense: Sense::Le,
            previous_solution: None,
            accelerate: false,
        };
        let summary = &build_summaries(&scenarios, &partitions, &spec)[0];
        let x: Vec<f64> = x.into_iter().map(f64::from).collect();
        let summary_score: f64 = summary.iter().zip(&x).map(|(s, v)| s * v).sum();
        prop_assume!(summary_score <= rhs);
        let needed = (alpha * m as f64).ceil() as usize;
        let satisfied = count_satisfied_scenarios(&scenarios, &x, Sense::Le, rhs);
        prop_assert!(satisfied >= needed.min(m));
    }

    /// Scenario generation is a pure function of (seed, column, tuple,
    /// scenario index): regenerating any cell gives the identical value, and
    /// tuple-wise generation agrees with scenario-wise generation.
    #[test]
    fn scenario_generation_is_deterministic(
        seed in any::<u64>(),
        n in 1usize..12,
        m in 1usize..12,
    ) {
        let base: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let relation = RelationBuilder::new("t")
            .stochastic("x", NormalNoise::around(base, 1.0))
            .build()
            .unwrap();
        let gen = ScenarioGenerator::new(seed);
        let matrix = gen.realize_matrix(&relation, "x", m).unwrap();
        for tuple in 0..n {
            let per_tuple = gen
                .realize_sparse_matrix_range(&relation, "x", &[tuple], 0..m, 0)
                .unwrap();
            for j in 0..m {
                prop_assert_eq!(per_tuple.value(j, 0), matrix.value(j, tuple));
                let cell = gen
                    .realize_sparse_matrix_range(&relation, "x", &[tuple], j..j + 1, 0)
                    .unwrap();
                prop_assert_eq!(cell.value(0, 0), matrix.value(j, tuple));
            }
        }
    }

    /// Whatever the solver returns as a solution is actually feasible for the
    /// model it was given (bounds, integrality, constraints, indicators).
    #[test]
    fn solver_solutions_are_feasible(
        weights in proptest::collection::vec(1.0f64..9.0, 3..8),
        values in proptest::collection::vec(1.0f64..9.0, 3..8),
        capacity in 5.0f64..30.0,
    ) {
        let n = weights.len().min(values.len());
        let mut model = Model::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| model.add_var(VarType::Integer, 0.0, 3.0, values[i]))
            .collect();
        model.add_constraint(
            "cap",
            vars.iter().enumerate().map(|(i, v)| (*v, weights[i])).collect(),
            Sense::Le,
            capacity,
        );
        let result = solve_full(&model, &SolverOptions::default()).unwrap();
        prop_assert!(matches!(
            result.status,
            SolveStatus::Optimal | SolveStatus::FeasibleLimit
        ));
        let solution = result.solution.unwrap();
        prop_assert!(model.is_feasible(&solution.values, 1e-6));
        // And it is at least as good as the trivial empty solution.
        prop_assert!(solution.objective >= -1e-9);
    }

    /// Parsing the printed form of a parsed query yields the same AST
    /// (display/parse round-trip).
    #[test]
    fn spaql_display_parse_round_trip(
        budget in 1.0f64..10_000.0,
        v in -100.0f64..100.0,
        p in 0.01f64..0.99,
        maximize in any::<bool>(),
    ) {
        let direction = if maximize { "MAXIMIZE" } else { "MINIMIZE" };
        let text = format!(
            "SELECT PACKAGE(*) FROM t SUCH THAT SUM(price) <= {budget} AND \
             SUM(gain) >= {v} WITH PROBABILITY >= {p} {direction} EXPECTED SUM(gain)"
        );
        let parsed = stochastic_package_queries::spaql::parse(&text).unwrap();
        let reparsed = stochastic_package_queries::spaql::parse(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }
}

/// sPaQL tokens, the fragments around them and characters the lexer must
/// reject, separated by `|`: keywords, operators, quotes, multi-byte UTF-8
/// and control characters.
const SPAQL_TOKENS: &str = "SELECT|PACKAGE|(*)|(|)|*|AS|FROM|t|WHERE|SUCH|THAT|SUM|COUNT|\
    EXPECTED|WITH|PROBABILITY|BETWEEN|AND|MAXIMIZE|MINIMIZE|REPEAT|price|gain|<=|>=|=|<|>|<>|\
    !=|,|;|-|+|.|'|'1 day'|\"|é|€|😀|\u{0}|\t|\n";

/// Numeric literals at the edges of what the lexer and `f64` accept,
/// separated by `|`.
const SPAQL_NUMBERS: &str = "0|1|-10|0.5|-0|1e309|-1e309|1e-400|1e|.5|5.|0x10|NaN|inf|-inf|\
    1.5e3|123456789012345678901234567890|0.000000000000000000001|2.";

/// A well-formed query the mutating strategy starts from.
const SPAQL_QUERY: &str = "SELECT PACKAGE(*) AS P FROM t WHERE sell_in = '1 day' \
    SUCH THAT COUNT(*) BETWEEN 1 AND 3 AND SUM(price) <= 1000 AND \
    SUM(gain) >= -10 WITH PROBABILITY >= 0.95 MAXIMIZE EXPECTED SUM(gain)";

/// Bytes a damaged text file most often holds in place of the right ones:
/// JSON and sPaQL punctuation, digits, exponent and literal letters.
const EDIT_BYTES: &[u8] = b"{}[]\",:\\0123456789-+.eEtnul()*<>=;' aZ";

/// `text` with a few random byte edits: overwrite, delete, insert or
/// truncate. Most new bytes come from [`EDIT_BYTES`]; the rest are
/// arbitrary, so the result need not be UTF-8.
fn mutate_bytes(rng: &mut proptest::TestRng, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    for _ in 0..rng.usize_in(1, 4) {
        let at = rng.usize_in(0, bytes.len() + 1);
        let byte = match rng.usize_in(0, 8) {
            0 => rng.next_u64() as u8,
            _ => EDIT_BYTES[rng.usize_in(0, EDIT_BYTES.len())],
        };
        match rng.usize_in(0, 7) {
            0 | 1 if at < bytes.len() => bytes[at] = byte,
            2 | 3 if at < bytes.len() => {
                bytes.remove(at);
            }
            6 => bytes.truncate(at),
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

/// Arbitrary sPaQL-like text: token soup, a well-formed query with tokens
/// replaced, dropped or repeated, the same query with other numbers or with
/// byte edits, or random bytes.
struct SpaqlText;

impl Strategy for SpaqlText {
    type Value = String;

    fn generate(&self, rng: &mut proptest::TestRng) -> String {
        let (words, numbers): (Vec<&str>, Vec<&str>) = (
            SPAQL_TOKENS.split('|').collect(),
            SPAQL_NUMBERS.split('|').collect(),
        );
        let pick = |rng: &mut proptest::TestRng, items: &[&'static str]| {
            items[rng.usize_in(0, items.len())]
        };
        let token = |rng: &mut proptest::TestRng| {
            let items = [&words, &numbers][rng.usize_in(0, 2)];
            pick(rng, items)
        };
        let mut tokens: Vec<&str> = SPAQL_QUERY.split(' ').collect();
        match rng.usize_in(0, 5) {
            0 => (0..rng.usize_in(0, 40))
                .map(|_| {
                    let sep = [" ", "", "\n"][rng.usize_in(0, 3)];
                    format!("{}{sep}", token(rng))
                })
                .collect(),
            1 => {
                for _ in 0..rng.usize_in(1, 4) {
                    let at = rng.usize_in(0, tokens.len());
                    match rng.usize_in(0, 3) {
                        0 => tokens[at] = token(rng),
                        1 => {
                            tokens.remove(at);
                        }
                        _ => tokens.insert(at, tokens[at]),
                    }
                }
                tokens.join(" ")
            }
            2 => {
                for t in tokens.iter_mut().filter(|t| t.parse::<f64>().is_ok()) {
                    *t = pick(rng, &numbers);
                }
                tokens.join(" ")
            }
            3 => String::from_utf8_lossy(&mutate_bytes(rng, SPAQL_QUERY.as_bytes())).into_owned(),
            _ => {
                let bytes: Vec<u8> = (0..rng.usize_in(0, 64))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                String::from_utf8_lossy(&bytes).into_owned()
            }
        }
    }
}

/// A well-formed column-spec file the mutating strategy starts from.
const COLUMN_SPEC: &str = r#"{"name":"stocks","columns":[
    {"name":"price","kind":"deterministic","values":[100.0,101.5,99.0]},
    {"name":"id","values":[1,2,3]},
    {"name":"gain","kind":"normal","means":[5.0,4.0,1.0],"sds":[1.0,6.0,0.2]}]}"#;

/// Arbitrary column-spec file contents: a damaged well-formed spec, or
/// random bytes.
struct ColumnSpecBytes;

impl Strategy for ColumnSpecBytes {
    type Value = Vec<u8>;

    fn generate(&self, rng: &mut proptest::TestRng) -> Vec<u8> {
        if rng.next_u64() & 3 != 0 {
            mutate_bytes(rng, COLUMN_SPEC.as_bytes())
        } else {
            (0..rng.usize_in(0, 128))
                .map(|_| rng.next_u64() as u8)
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The sPaQL parser answers any text with a query or a typed error,
    /// never a panic, and a query it accepts prints back to itself.
    #[test]
    fn spaql_parser_returns_on_arbitrary_text(text in SpaqlText) {
        if let Ok(query) = stochastic_package_queries::spaql::parse(&text) {
            let printed = query.to_string();
            let reparsed = stochastic_package_queries::spaql::parse(&printed)
                .map_err(|e| TestCaseError::fail(format!("{text:?} printed as {printed:?}: {e}")))?;
            prop_assert_eq!(reparsed, query);
        }
    }

    /// The column-spec file reader answers any file contents with a
    /// relation or a typed error, never a panic.
    #[test]
    fn column_spec_reader_returns_on_arbitrary_bytes(bytes in ColumnSpecBytes) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use stochastic_package_queries::mcdb::StorageOptions;
        use stochastic_package_queries::service::catalog::relation_from_file_with;
        use stochastic_package_queries::service::CatalogError;
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "spq-fuzz-spec-{}-{}.json",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).unwrap();
        let read = relation_from_file_with(path.to_str().unwrap(), StorageOptions::memory());
        std::fs::remove_file(&path).unwrap();
        if let Err(e) = read {
            prop_assert!(matches!(e, CatalogError::BadSource(_)), "{e}");
        }
    }
}
