//! `perf_ledger all` (run every workload, write one JSON ledger) and
//! `perf_ledger compare` (judge ledger B against ledger A).

use crate::catalog::{Better, Metric, END_TO_END, OUTPUT_SHARES, PER_LAYER};
use crate::stats;
use crate::workload::Workload;
use spq_service::json::{parse, Json};
use std::path::Path;
use std::process::Command;

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Lines of non-test Rust under `crates/*/src`, relative to the current
/// directory (0 when run elsewhere): a file's lines up to its first
/// `#[cfg(test)]`, skipping `tests.rs` files. Informational: it puts the
/// roadmap's "less code" trend in the same ledger as the speed.
fn src_lines() -> usize {
    fn walk(dir: &Path, total: &mut usize) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, total);
            } else if path.extension().is_some_and(|e| e == "rs")
                && path.file_name().is_some_and(|n| n != "tests.rs")
            {
                let text = std::fs::read_to_string(&path).unwrap_or_default();
                *total += text
                    .lines()
                    .take_while(|l| l.trim() != "#[cfg(test)]")
                    .count();
            }
        }
    }
    let mut total = 0;
    for krate in std::fs::read_dir("crates").into_iter().flatten().flatten() {
        walk(&krate.path().join("src"), &mut total);
    }
    total
}

/// Where, when, and with what the numbers were taken.
pub fn provenance(seed: u64, quick: bool) -> Json {
    let sizes = Workload::ALL
        .iter()
        .map(|w| {
            let s = w.sizes(quick);
            (
                w.name().to_string(),
                obj(vec![
                    ("tuples", Json::from(s.tuples)),
                    ("m_hat", Json::from(s.m_hat)),
                    ("traced_requests", Json::from(s.traced_requests)),
                    (
                        "max_relation_bytes",
                        s.max_relation_bytes.map(Json::from).unwrap_or(Json::Null),
                    ),
                    ("slice_rows", Json::from(s.slice_rows)),
                ]),
            )
        })
        .collect();
    obj(vec![
        (
            "command",
            Json::from(std::env::args().collect::<Vec<_>>().join(" ")),
        ),
        (
            "git_sha",
            Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        (
            "date_utc",
            Json::from(first_line_of("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"])),
        ),
        ("nproc", Json::from(crate::run::nproc())),
        ("rustc", Json::from(first_line_of("rustc", &["--version"]))),
        ("seed", Json::from(seed)),
        ("sizes", Json::Obj(sizes)),
        ("src_lines", Json::from(src_lines())),
    ])
}

/// Run this executable in driver mode as a fresh child process (so caches
/// and `VmHWM` never leak between workloads) and parse its result line and
/// its notes file.
fn child(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    notes: &Path,
) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--notes")
        .arg(notes);
    if quick {
        command.arg("--quick");
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} run exited with {}",
            workload.name(),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    let result = parse(line).map_err(|e| format!("child result: {e}"))?;
    let notes = std::fs::read_to_string(notes)
        .ok()
        .and_then(|t| parse(&t).ok())
        .unwrap_or(Json::Null);
    Ok((result, notes))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `perf_ledger all`: every workload, `runs` untraced runs and one traced
/// run each, one child process per run; writes the ledger to `out` and
/// prints every metric by name and unit.
pub fn all(seed: u64, seconds: f64, runs: usize, quick: bool, out: &Path) -> Result<bool, String> {
    let notes_path = out.with_extension("notes.tmp");
    let mut healthy = true;
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        eprintln!("== {} — {}", w.name(), w.why());
        let mut untraced = Vec::new();
        let mut run_notes = Vec::new();
        for run in 0..runs {
            eprintln!("-- untraced run {} of {runs}", run + 1);
            let (result, notes) = child(w, seed, seconds, false, quick, &notes_path)?;
            untraced.push(result);
            run_notes.push(notes);
        }
        eprintln!("-- traced run");
        let (traced, trace_notes) = child(w, seed, seconds, true, quick, &notes_path)?;
        let correct = untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        healthy &= correct;

        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = untraced
                    .iter()
                    .filter_map(|r| metric_value(r, m.name))
                    .collect();
                // One run has no spread: `compare` will call the row
                // unresolved, not steady.
                let spread = stats::spread(&values);
                let (q1, q3) = if values.len() >= 2 {
                    stats::quartiles(&values)
                } else {
                    (values[0], values[0])
                };
                println!(
                    "{:<20} {:<26} {:>16.6} {:<6} (spread {} over {} runs, bound {})",
                    w.name(),
                    m.name,
                    stats::median(&values),
                    m.unit,
                    spread.map_or("unknown".to_string(), |s| format!("{s:.4}")),
                    values.len(),
                    m.bound
                );
                (
                    m.name.to_string(),
                    obj(vec![
                        ("unit", Json::from(m.unit)),
                        ("better", Json::from(m.better.as_str())),
                        ("bound", Json::from(m.bound)),
                        ("median", Json::from(stats::median(&values))),
                        ("q1", Json::from(q1)),
                        ("q3", Json::from(q3)),
                        ("spread", spread.map_or(Json::Null, Json::from)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::from).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                let value = metric_value(&traced, m.name).unwrap_or(f64::NAN);
                println!("{:<20} {:<34} {:>16.6} {}", w.name(), m.name, value, m.unit);
                (
                    m.name.to_string(),
                    obj(vec![
                        ("unit", Json::from(m.unit)),
                        ("value", Json::from(value)),
                        ("exact", Json::from(m.exact)),
                    ]),
                )
            })
            .collect();
        // The worst any run saw; a run that did not report one counts as
        // all failed, none verified.
        let output_shares = OUTPUT_SHARES
            .iter()
            .map(|m| {
                let worst = run_notes
                    .iter()
                    .map(|n| {
                        n.get(m.name)
                            .and_then(Json::as_f64)
                            .unwrap_or(match m.better {
                                Better::Lower => 1.0,
                                Better::Higher => 0.0,
                            })
                    })
                    .reduce(match m.better {
                        Better::Lower => f64::max,
                        Better::Higher => f64::min,
                    })
                    .expect("at least one run");
                println!("{:<20} {:<26} {:>16.6} {}", w.name(), m.name, worst, m.unit);
                (m.name, Json::from(worst))
            })
            .collect::<Vec<_>>();
        let mut fields = vec![
            ("name", Json::from(w.name())),
            ("why", Json::from(w.why())),
            ("correct", Json::from(correct)),
        ];
        fields.extend(output_shares);
        fields.extend([
            ("notes", run_notes.pop().expect("at least one run")),
            ("trace", trace_notes),
            ("end_to_end", Json::Obj(end_to_end)),
            ("per_layer", Json::Obj(per_layer)),
        ]);
        workloads.push(obj(fields));
    }
    let _ = std::fs::remove_file(&notes_path);
    let ledger = obj(vec![
        ("provenance", provenance(seed, quick)),
        (
            "interaction_notes",
            Json::Arr(INTERACTION_NOTES.iter().map(|n| Json::from(*n)).collect()),
        ),
        ("workloads", Json::Arr(workloads)),
    ]);
    std::fs::write(out, format!("{ledger}\n"))
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(healthy)
}

/// How the metrics interact; recorded in every ledger.
const INTERACTION_NOTES: [&str; 3] = [
    "With nproc closed-loop clients on nproc workers nothing queues (queue_ms p50 <= 1 ms is \
     asserted), so a faster layer saves at most its share of one request's blocking path.",
    "Once validator or branch-and-bound threads exceed the cores, latency_p50_ms may fall while \
     cpu_s_per_op and the other client's latency rise; both are end-to-end metrics for that reason.",
    "Counts (exact: true) repeat exactly for a fixed seed: they come from the serial traced replay \
     of the first K requests. Timings are reported beside them.",
];

/// One row of `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of A or B is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
    /// A work counter that must repeat exactly differs.
    Mismatch,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Mismatch => "mismatch",
        }
    }
}

/// Judge one end-to-end metric: medians `a` (parent) and `b` (change) with
/// their spreads (`None` = a single run, whose spread nobody saw).
pub fn judge(
    metric: &Metric,
    a: f64,
    spread_a: Option<f64>,
    b: f64,
    spread_b: Option<f64>,
) -> Verdict {
    match (spread_a, spread_b) {
        (Some(sa), Some(sb)) if sa.max(sb) <= metric.bound => {}
        _ => return Verdict::Unresolved,
    }
    let worse_by = match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn workload_of<'a>(ledger: &'a Json, name: &str) -> Option<&'a Json> {
    ledger
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.str_field("name") == Some(name))
}

/// `perf_ledger compare A B`: one row per (metric, workload); returns
/// whether B is acceptable (no regression, no counter mismatch, no higher
/// failed share).
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        parse(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut acceptable = true;
    for w in Workload::ALL {
        let (Some(wa), Some(wb)) = (workload_of(&a, w.name()), workload_of(&b, w.name())) else {
            println!("{:<20} {:<34} missing from a ledger", w.name(), "*");
            acceptable = false;
            continue;
        };
        let num = |j: &Json, section: &str, metric: &str, field: &str| -> Option<f64> {
            j.get(section)?.get(metric)?.get(field)?.as_f64()
        };
        for m in END_TO_END {
            let fields = |j: &Json| {
                Some((
                    num(j, "end_to_end", m.name, "median")?,
                    num(j, "end_to_end", m.name, "spread"),
                ))
            };
            let (Some((ma, sa)), Some((mb, sb))) = (fields(wa), fields(wb)) else {
                println!("{:<20} {:<34} missing", w.name(), m.name);
                acceptable = false;
                continue;
            };
            let verdict = judge(m, ma, sa, mb, sb);
            acceptable &= verdict != Verdict::Regressed;
            let shown = |s: Option<f64>| s.map_or("unknown".to_string(), |s| format!("{s:.4}"));
            println!(
                "{:<20} {:<34} {:<10} A {:>14.6} (spread {})  B {:>14.6} (spread {})  bound {} {}",
                w.name(),
                m.name,
                verdict.as_str(),
                ma,
                shown(sa),
                mb,
                shown(sb),
                m.bound,
                m.unit
            );
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (
                num(wa, "per_layer", m.name, "value"),
                num(wb, "per_layer", m.name, "value"),
            );
            let verdict = if va.is_some() && va == vb {
                Verdict::Ok
            } else {
                Verdict::Mismatch
            };
            acceptable &= verdict == Verdict::Ok;
            println!(
                "{:<20} {:<34} {:<10} A {:>14} B {:>14} (exact)",
                w.name(),
                m.name,
                verdict.as_str(),
                va.map_or("missing".to_string(), |v| v.to_string()),
                vb.map_or("missing".to_string(), |v| v.to_string()),
            );
        }
        // Outputs: B may not answer wrongly, fail more or verify less.
        for m in OUTPUT_SHARES {
            let share = |j: &Json| j.get(m.name).and_then(Json::as_f64);
            let verdict = match (m.better, share(wa), share(wb)) {
                (Better::Lower, Some(va), Some(vb)) if vb <= va => Verdict::Ok,
                (Better::Higher, Some(va), Some(vb)) if vb >= va => Verdict::Ok,
                _ => Verdict::Regressed,
            };
            acceptable &= verdict == Verdict::Ok;
            println!(
                "{:<20} {:<34} {:<10} A {:>14} B {:>14} (may not worsen)",
                w.name(),
                m.name,
                verdict.as_str(),
                share(wa).map_or("missing".to_string(), |v| v.to_string()),
                share(wb).map_or("missing".to_string(), |v| v.to_string()),
            );
        }
        if wb.get("correct").and_then(Json::as_bool) != Some(true) {
            println!(
                "{:<20} {:<34} regressed  B's outputs failed their checks",
                w.name(),
                "correct"
            );
            acceptable = false;
        }
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let metric = |better| Metric {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
            exact: false,
        };
        let lower = metric(Better::Lower);
        let s = Some(0.01);
        assert_eq!(judge(&lower, 100.0, s, 105.0, s), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, s, 80.0, s), Verdict::Ok);
        assert_eq!(judge(&lower, 100.0, s, 111.0, s), Verdict::Regressed);
        // A spread wider than the bound on either side: cannot tell.
        assert_eq!(
            judge(&lower, 100.0, Some(0.20), 111.0, s),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&lower, 100.0, s, 100.0, Some(0.11)),
            Verdict::Unresolved
        );
        // A single run on either side has no known spread: cannot tell.
        assert_eq!(judge(&lower, 100.0, None, 111.0, s), Verdict::Unresolved);
        assert_eq!(judge(&lower, 100.0, s, 100.0, None), Verdict::Unresolved);

        let higher = metric(Better::Higher);
        assert_eq!(judge(&higher, 100.0, s, 95.0, s), Verdict::Ok);
        assert_eq!(judge(&higher, 100.0, s, 89.0, s), Verdict::Regressed);
        assert_eq!(judge(&higher, 100.0, s, 150.0, s), Verdict::Ok);
    }

    /// A ledger whose every row is healthy except for the given values.
    struct Fake {
        p50: f64,
        spread: Option<f64>,
        pivots: f64,
        failed_share: f64,
        verified_share: f64,
        correct: bool,
    }

    const HEALTHY: Fake = Fake {
        p50: 100.0,
        spread: Some(0.02),
        pivots: 500.0,
        failed_share: 0.0,
        verified_share: 1.0,
        correct: true,
    };

    fn ledger(fake: Fake) -> Json {
        let Fake {
            p50,
            spread,
            pivots,
            failed_share,
            verified_share,
            correct,
        } = fake;
        let workloads = Workload::ALL
            .iter()
            .map(|w| {
                let e2e = END_TO_END
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            obj(vec![
                                (
                                    "median",
                                    Json::from(if m.name == "latency_p50_ms" { p50 } else { 1.0 }),
                                ),
                                (
                                    "spread",
                                    if m.name == "latency_p50_ms" {
                                        spread.map_or(Json::Null, Json::from)
                                    } else {
                                        Json::from(0.0)
                                    },
                                ),
                            ]),
                        )
                    })
                    .collect();
                let layers = PER_LAYER
                    .iter()
                    .map(|m| {
                        let v = if m.name == "solver.lp_pivots" {
                            pivots
                        } else {
                            3.0
                        };
                        (m.name.to_string(), obj(vec![("value", Json::from(v))]))
                    })
                    .collect();
                obj(vec![
                    ("name", Json::from(w.name())),
                    ("correct", Json::from(correct)),
                    ("failed_share", Json::from(failed_share)),
                    ("verified_share", Json::from(verified_share)),
                    ("end_to_end", Json::Obj(e2e)),
                    ("per_layer", Json::Obj(layers)),
                ])
            })
            .collect();
        obj(vec![("workloads", Json::Arr(workloads))])
    }

    #[test]
    fn compare_gates_on_regressions_counters_and_failures() {
        let dir = std::env::temp_dir().join(format!("perf-ledger-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, j: Json| {
            let p = dir.join(name);
            std::fs::write(&p, j.to_string()).unwrap();
            p
        };
        // latency_p50_ms may worsen by its catalogue bound before it regresses.
        let bound = crate::catalog::find("latency_p50_ms").unwrap().bound;
        let base = write("a.json", ledger(HEALTHY));
        let verdict = |name: &str, fake: Fake| {
            compare(&base, &write(&format!("{name}.json"), ledger(fake))).unwrap()
        };
        assert!(verdict(
            "same",
            Fake {
                p50: 100.0 * (1.0 + bound / 2.0),
                ..HEALTHY
            }
        ));
        assert!(
            !verdict(
                "slow",
                Fake {
                    p50: 100.0 * (1.0 + bound * 2.0),
                    ..HEALTHY
                }
            ),
            "a p50 beyond its bound regresses"
        );
        for (name, spread) in [("noisy", Some(bound * 1.5)), ("single", None)] {
            assert!(
                verdict(
                    name,
                    Fake {
                        p50: 100.0 * (1.0 + bound * 2.0),
                        spread,
                        ..HEALTHY
                    }
                ),
                "unresolved rows are reported, not failed"
            );
        }
        assert!(
            !verdict(
                "drift",
                Fake {
                    pivots: 501.0,
                    ..HEALTHY
                }
            ),
            "work counters must match exactly"
        );
        assert!(
            !verdict(
                "flaky",
                Fake {
                    failed_share: 0.01,
                    ..HEALTHY
                }
            ),
            "a higher failed share fails"
        );
        assert!(
            !verdict(
                "wrong",
                Fake {
                    verified_share: 0.99,
                    ..HEALTHY
                }
            ),
            "a lower verified share fails"
        );
        assert!(
            !verdict(
                "incorrect",
                Fake {
                    correct: false,
                    ..HEALTHY
                }
            ),
            "a ledger whose outputs failed their checks fails"
        );
        assert!(compare(&base, &dir.join("absent.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn provenance_names_machine_and_sizes() {
        let p = provenance(7, true);
        assert_eq!(p.u64_field("seed"), Some(7));
        assert!(p.u64_field("nproc").unwrap() >= 1);
        for w in Workload::ALL {
            assert!(p.get("sizes").unwrap().get(w.name()).is_some());
        }
        assert!(p.str_field("rustc").is_some() && p.str_field("git_sha").is_some());
    }
}
