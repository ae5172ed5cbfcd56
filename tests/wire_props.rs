//! Property tests of spqd's NDJSON codec: the parsers return `Ok` or `Err`
//! on arbitrary and on damaged input (never panic), and every request and
//! response round-trips `to_line` → `parse_line` field for field.

use proptest::prelude::*;
use proptest::TestRng;
use stochastic_package_queries::core::validation::{
    ConstraintValidation, EarlyStop, DEFAULT_HOEFFDING_DELTA,
};
use stochastic_package_queries::core::{Algorithm, EvaluationStats};
use stochastic_package_queries::service::catalog::RelationStorage;
use stochastic_package_queries::service::json;
use stochastic_package_queries::service::prelude::*;
use stochastic_package_queries::workloads::WorkloadKind;

/// Characters that stress the escaper and the parser: JSON punctuation,
/// escapes, control characters and multi-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', '9', ' ', '"', '\\', '/', '{', '}', '[', ']', ':', ',', '-', '+', '.', 'e', 'E',
    't', 'n', 'u', 'l', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '€', 'α', '😀', '\u{2028}',
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.usize_in(0, items.len())]
}

fn text(rng: &mut TestRng, max_len: usize) -> String {
    let len = rng.usize_in(0, max_len + 1);
    (0..len).map(|_| pick(rng, CHARS)).collect()
}

fn maybe<T>(rng: &mut TestRng, value: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.next_u64() & 1 == 1).then(|| value(rng))
}

/// An integer the wire carries exactly (below 2^53), often small.
fn int(rng: &mut TestRng) -> u64 {
    match rng.usize_in(0, 3) {
        0 => rng.next_u64() % 100,
        1 => rng.next_u64() % 1_000_000,
        _ => rng.next_u64() >> 11,
    }
}

/// A finite `f64` of varied magnitude, never `-0.0` (which the writer
/// prints as `0`).
fn number(rng: &mut TestRng) -> f64 {
    let n = match rng.usize_in(0, 4) {
        0 => int(rng) as f64,
        1 => (rng.unit_f64() - 0.5) * 2.0e6,
        2 => rng.unit_f64() * 1e-9,
        _ => (rng.unit_f64() - 0.5) * 1e300,
    };
    if n == 0.0 {
        0.0
    } else {
        n
    }
}

fn package(rng: &mut TestRng) -> Vec<(usize, u32)> {
    let len = rng.usize_in(0, 5);
    (0..len)
        .map(|_| (int(rng) as usize, rng.next_u64() as u32))
        .collect()
}

fn status(rng: &mut TestRng) -> QueryStatus {
    pick(
        rng,
        &[
            QueryStatus::Ok,
            QueryStatus::Rejected,
            QueryStatus::Cancelled,
            QueryStatus::Timeout,
            QueryStatus::Error,
        ],
    )
}

struct AnyRequest;

impl Strategy for AnyRequest {
    type Value = Request;

    fn generate(&self, rng: &mut TestRng) -> Request {
        match rng.usize_in(0, 8) {
            0 => Request::Query(QueryRequest {
                id: text(rng, 8),
                relation: text(rng, 8),
                query: text(rng, 24),
                algorithm: maybe(rng, |rng| {
                    pick(
                        rng,
                        &[
                            Algorithm::Naive,
                            Algorithm::SummarySearch,
                            Algorithm::SketchRefine,
                        ],
                    )
                }),
                timeout_ms: maybe(rng, int),
                seed: maybe(rng, int),
                initial_scenarios: maybe(rng, |rng| int(rng) as usize),
                max_scenarios: maybe(rng, |rng| int(rng) as usize),
                validation_scenarios: maybe(rng, |rng| int(rng) as usize),
                tenant: maybe(rng, |rng| text(rng, 6)),
            }),
            1 => Request::Validate(ValidateRequest {
                id: text(rng, 8),
                relation: text(rng, 8),
                query: text(rng, 24),
                package: package(rng),
                validation_scenarios: maybe(rng, |rng| int(rng) as usize),
                seed: maybe(rng, int),
                timeout_ms: maybe(rng, int),
                early_stop: maybe(rng, |rng| {
                    pick(
                        rng,
                        &[
                            EarlyStop::Full,
                            EarlyStop::Certain,
                            EarlyStop::Hoeffding {
                                delta: DEFAULT_HOEFFDING_DELTA,
                            },
                        ],
                    )
                }),
                threads: maybe(rng, |rng| int(rng) as usize),
                tenant: maybe(rng, |rng| text(rng, 6)),
            }),
            2 => Request::Cancel { id: text(rng, 8) },
            3 => Request::Stats,
            4 => Request::Ping,
            5 => Request::Load(LoadRequest {
                id: text(rng, 8),
                name: text(rng, 8),
                tenant: maybe(rng, |rng| text(rng, 6)),
                source: if rng.next_u64() & 1 == 1 {
                    RelationSource::Workload {
                        kind: pick(
                            rng,
                            &[
                                WorkloadKind::Portfolio,
                                WorkloadKind::Galaxy,
                                WorkloadKind::Tpch,
                            ],
                        ),
                        scale: int(rng) as usize,
                        seed: int(rng),
                    }
                } else {
                    RelationSource::File {
                        path: text(rng, 12),
                    }
                },
                storage: pick(rng, &[RelationStorage::Memory, RelationStorage::Disk]),
            }),
            6 => Request::Unload {
                name: text(rng, 8),
                tenant: maybe(rng, |rng| text(rng, 6)),
            },
            _ => Request::ListRelations {
                tenant: maybe(rng, |rng| text(rng, 6)),
            },
        }
    }
}

struct AnyQueryResponse;

impl Strategy for AnyQueryResponse {
    type Value = QueryResponse;

    fn generate(&self, rng: &mut TestRng) -> QueryResponse {
        QueryResponse {
            id: text(rng, 8),
            status: status(rng),
            error: maybe(rng, |rng| text(rng, 16)),
            feasible: rng.next_u64() & 1 == 1,
            objective: maybe(rng, number),
            package: package(rng),
            algorithm: text(rng, 12),
            prepared_cache_hit: rng.next_u64() & 1 == 1,
            result_cache_hit: rng.next_u64() & 1 == 1,
            queue_ms: number(rng),
            wall_ms: number(rng),
            stats: maybe(rng, |rng| EvaluationStats {
                scenarios_used: int(rng) as usize,
                lp_pivots: int(rng) as usize,
                ..Default::default()
            }),
        }
    }
}

struct AnyValidateResponse;

impl Strategy for AnyValidateResponse {
    type Value = ValidateResponse;

    fn generate(&self, rng: &mut TestRng) -> ValidateResponse {
        let constraints = rng.usize_in(0, 3);
        ValidateResponse {
            id: text(rng, 8),
            status: status(rng),
            error: maybe(rng, |rng| text(rng, 16)),
            feasible: rng.next_u64() & 1 == 1,
            objective_estimate: maybe(rng, number),
            epsilon_upper_bound: maybe(rng, number),
            scenarios_used: int(rng) as usize,
            m_hat: int(rng) as usize,
            early_stopped: rng.next_u64() & 1 == 1,
            constraints: (0..constraints)
                .map(|_| ConstraintValidation {
                    constraint_index: int(rng) as usize,
                    probability: number(rng),
                    satisfied_fraction: number(rng),
                    surplus: number(rng),
                    feasible: rng.next_u64() & 1 == 1,
                    scenarios_evaluated: int(rng) as usize,
                })
                .collect(),
            queue_ms: number(rng),
            wall_ms: number(rng),
        }
    }
}

/// Arbitrary text biased towards JSON punctuation.
struct AnyText;

impl Strategy for AnyText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        text(rng, 64)
    }
}

/// `line` with a few random byte edits: overwrite, delete, insert, or
/// truncate. The result need not be UTF-8; invalid sequences become U+FFFD.
fn mutate(rng: &mut TestRng, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.usize_in(1, 5) {
        let at = rng.usize_in(0, bytes.len() + 1);
        match rng.usize_in(0, 4) {
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            2 => bytes.insert(at, pick(rng, b"{}[]\",:\\0-e.nt ")),
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

struct MutatedRequestLine;

impl Strategy for MutatedRequestLine {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let line = AnyRequest.generate(rng).to_line();
        mutate(rng, &line)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsers_return_on_arbitrary_text(line in AnyText) {
        let _ = json::parse(&line);
        let _ = Request::parse_line(&line);
        let _ = QueryResponse::parse_line(&line);
        let _ = ValidateResponse::parse_line(&line);
    }

    #[test]
    fn parsers_return_on_damaged_request_lines(line in MutatedRequestLine) {
        let _ = json::parse(&line);
        let _ = Request::parse_line(&line);
    }

    #[test]
    fn requests_round_trip(request in AnyRequest) {
        let line = request.to_line();
        let parsed = Request::parse_line(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(format!("{parsed:?}"), format!("{request:?}"));
    }

    #[test]
    fn query_responses_round_trip(response in AnyQueryResponse) {
        let line = response.to_line();
        let parsed = QueryResponse::parse_line(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        // The client decoder leaves `stats` `None`; every other field
        // survives.
        let expected = QueryResponse { stats: None, ..response };
        prop_assert_eq!(format!("{parsed:?}"), format!("{expected:?}"));
    }

    #[test]
    fn validate_responses_round_trip(response in AnyValidateResponse) {
        let line = response.to_line();
        let parsed = ValidateResponse::parse_line(&line).map_err(|e| TestCaseError::fail(format!("{line}: {e}")))?;
        prop_assert_eq!(format!("{parsed:?}"), format!("{response:?}"));
    }
}
