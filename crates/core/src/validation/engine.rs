//! The blocked one-pass scan behind [`super::validate_with`].
//!
//! Each referenced stochastic column is realized once per scenario block —
//! one row per support tuple, so overlapping packages share rows through the
//! scenario cache — and scored against every target (probabilistic
//! constraint or probability objective) that reads it. Blocks fan out across
//! `std::thread` workers in contiguous chunks; per-cell seeding makes the
//! realized values — and the integer satisfaction counts derived from them —
//! identical for every thread count and block size. Early-stop decisions
//! happen only at stage boundaries, which depend on the options alone, so
//! adaptive runs are deterministic too.

use super::{required_successes, ConstraintValidation, EarlyStop, ValidationOptions};
use crate::instance::Instance;
use crate::silp::{ConstraintKind, SilpObjective};
use crate::Result;
use spq_mcdb::workers;
use spq_solver::Sense;

/// First stage of the adaptive escalation: early-stop checks happen at
/// `INITIAL_STAGE · 2^k` scenario milestones. Irrelevant under
/// [`EarlyStop::Full`].
const INITIAL_STAGE: usize = 1024;

/// Comparison tolerance when scoring an inner constraint against a scenario.
const SCORE_TOL: f64 = 1e-9;

/// One satisfaction-counting target.
struct Target {
    /// `Some(index into silp.constraints)` for constraints, `None` for the
    /// probability objective.
    constraint_index: Option<usize>,
    /// Index into the scan's column list.
    column: usize,
    /// Inner comparison.
    sense: Sense,
    /// Inner right-hand side.
    rhs: f64,
    /// Target probability `p` (0 for the objective target).
    probability: f64,
    /// Scenarios satisfied so far.
    satisfied: usize,
    /// Scenarios scored so far.
    evaluated: usize,
    /// Early-stop verdict, once settled.
    decided: Option<bool>,
}

impl Target {
    fn is_constraint(&self) -> bool {
        self.constraint_index.is_some()
    }

    fn active(&self) -> bool {
        self.decided.is_none()
    }
}

/// What [`scan`] hands back to the report assembly.
pub(super) struct ScanResult {
    pub constraints: Vec<ConstraintValidation>,
    /// Satisfied fraction of the probability objective, if the query has one.
    pub objective_fraction: Option<f64>,
    pub scenarios_used: usize,
    pub early_stopped: bool,
    pub interrupted: bool,
}

/// Per-column scan outcome: satisfaction counts parallel to the target
/// spec list, scenarios actually scored, and whether the deadline fired.
struct ColumnScan {
    counts: Vec<usize>,
    done: usize,
    interrupted: bool,
}

/// Score one contiguous run of blocks serially.
fn scan_blocks(
    instance: &Instance<'_>,
    column: &str,
    support: &[usize],
    weights: &[f64],
    blocks: &[std::ops::Range<usize>],
    specs: &[(Sense, f64)],
    honor_deadline: bool,
) -> Result<ColumnScan> {
    let deadline = &instance.options.deadline;
    let mut counts = vec![0usize; specs.len()];
    let mut done = 0usize;
    let mut interrupted = false;
    let mut scores: Vec<f64> = Vec::new();
    for block in blocks {
        // The deadline is polled once per block, so a 10⁶-scenario
        // validation reacts to a cancel within one block's worth of work.
        // A deadline-exempt run (final certificate validation) still
        // honors the cancellation token.
        if deadline.is_cancelled() || (honor_deadline && deadline.expired()) {
            interrupted = true;
            break;
        }
        // One realized row per support tuple, keyed by the tuple alone, so
        // every package that contains the tuple shares it. Rows are added in
        // ascending support order: per scenario that is the addition order
        // of a dot product over the whole support, bit for bit.
        scores.clear();
        scores.resize(block.len(), 0.0);
        for (&position, &weight) in support.iter().zip(weights) {
            let row = instance.validation_matrix(column, &[position], block.clone())?;
            for (score, value) in scores.iter_mut().zip(row.raw_data()) {
                *score += value * weight;
            }
        }
        for &score in &scores {
            for (k, &(sense, rhs)) in specs.iter().enumerate() {
                if sense.check(score, rhs, SCORE_TOL) {
                    counts[k] += 1;
                }
            }
        }
        done += block.len();
    }
    Ok(ColumnScan {
        counts,
        done,
        interrupted,
    })
}

/// Scan `scenarios` of one column for the given targets, fanning blocks out
/// across workers. Counts are summed per block, so the result is identical
/// for every worker count.
fn scan_column(
    instance: &Instance<'_>,
    column: &str,
    support: &[usize],
    weights: &[f64],
    scenarios: std::ops::Range<usize>,
    specs: &[(Sense, f64)],
    options: &ValidationOptions,
) -> Result<ColumnScan> {
    let m = scenarios.len();
    if support.is_empty() {
        // The empty package scores 0 in every scenario: no realization
        // needed, the verdict per target is constant.
        let counts = specs
            .iter()
            .map(|&(sense, rhs)| {
                if sense.check(0.0, rhs, SCORE_TOL) {
                    m
                } else {
                    0
                }
            })
            .collect();
        return Ok(ColumnScan {
            counts,
            done: m,
            interrupted: false,
        });
    }

    let block = options.block_scenarios.max(1);
    let blocks: Vec<std::ops::Range<usize>> = {
        let mut out = Vec::with_capacity(m.div_ceil(block));
        let mut start = scenarios.start;
        while start < scenarios.end {
            let end = (start + block).min(scenarios.end);
            out.push(start..end);
            start = end;
        }
        out
    };
    let threads = workers(options.threads, m * support.len(), blocks.len());
    let honor = options.honor_deadline;
    if threads == 1 {
        return scan_blocks(instance, column, support, weights, &blocks, specs, honor);
    }

    // Contiguous chunks of blocks per worker — the same policy
    // `realize_sparse_matrix_range` applies to tuples.
    let chunk = blocks.len().div_ceil(threads);
    let partial: Vec<Result<ColumnScan>> = std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|mine| {
                scope.spawn(move || {
                    scan_blocks(instance, column, support, weights, mine, specs, honor)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("validation worker panicked"))
            .collect()
    });
    let mut merged = ColumnScan {
        counts: vec![0; specs.len()],
        done: 0,
        interrupted: false,
    };
    for part in partial {
        let part = part?;
        for (total, c) in merged.counts.iter_mut().zip(&part.counts) {
            *total += c;
        }
        merged.done += part.done;
        merged.interrupted |= part.interrupted;
    }
    Ok(merged)
}

/// Apply the early-stop rules to one undecided constraint target after a
/// completed stage.
fn decide(target: &mut Target, m_hat: usize, early_stop: EarlyStop) {
    let n = target.evaluated;
    if n == 0 {
        return;
    }
    let required = required_successes(target.probability, m_hat);
    // Certain rules: the full-budget comparison is already settled.
    if target.satisfied >= required {
        target.decided = Some(true);
        return;
    }
    if target.satisfied + (m_hat - n) < required {
        target.decided = Some(false);
        return;
    }
    if let EarlyStop::Hoeffding { delta } = early_stop {
        if n < m_hat {
            let fraction = target.satisfied as f64 / n as f64;
            let radius = ((2.0 / delta).ln() / (2.0 * n as f64)).sqrt();
            if fraction - target.probability >= radius {
                target.decided = Some(true);
            } else if target.probability - fraction >= radius {
                target.decided = Some(false);
            }
        }
    }
}

/// Run the blocked scan: realize each referenced column once per block,
/// score every target in a single pass, escalate through adaptive stages.
pub(super) fn scan(
    instance: &Instance<'_>,
    x: &[f64],
    options: &ValidationOptions,
) -> Result<ScanResult> {
    let silp = &instance.silp;
    let m_hat = options.m_hat;

    // Package support: candidate positions with positive multiplicity.
    let support: Vec<usize> = x
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, _)| i)
        .collect();
    let weights: Vec<f64> = support.iter().map(|&i| x[i]).collect();

    // Collect targets and group them by referenced column.
    let mut columns: Vec<String> = Vec::new();
    let column_id = |name: &str, columns: &mut Vec<String>| -> usize {
        match columns.iter().position(|c| c == name) {
            Some(i) => i,
            None => {
                columns.push(name.to_string());
                columns.len() - 1
            }
        }
    };
    let mut targets: Vec<Target> = Vec::new();
    for (ci, c) in silp.constraints.iter().enumerate() {
        let ConstraintKind::Probabilistic { probability } = c.kind else {
            continue;
        };
        let column = c.coeff.column().ok_or_else(|| {
            crate::error::SpqError::Internal("probabilistic constraint without a column".into())
        })?;
        targets.push(Target {
            constraint_index: Some(ci),
            column: column_id(column, &mut columns),
            sense: c.sense,
            rhs: c.rhs,
            probability,
            satisfied: 0,
            evaluated: 0,
            decided: None,
        });
    }
    let mut objective_target: Option<usize> = None;
    if let SilpObjective::Probability {
        attribute,
        sense,
        threshold,
        ..
    } = &silp.objective
    {
        objective_target = Some(targets.len());
        targets.push(Target {
            constraint_index: None,
            column: column_id(attribute, &mut columns),
            sense: *sense,
            rhs: *threshold,
            probability: 0.0,
            satisfied: 0,
            evaluated: 0,
            decided: None,
        });
    }

    let has_constraints = targets.iter().any(Target::is_constraint);
    // Adaptive stages make sense only when a constraint can be decided
    // early; a probability *objective* is the deliverable and always runs
    // the full budget, so constraint-free scans take a single stage.
    let staged = options.early_stop.enabled() && has_constraints;
    let first_stage = INITIAL_STAGE;

    let mut cursor = 0usize;
    let mut interrupted = false;
    while cursor < m_hat {
        let stage_end = if staged {
            let next = if cursor == 0 {
                first_stage
            } else {
                cursor.saturating_mul(2)
            };
            next.min(m_hat)
        } else {
            m_hat
        };

        for (cid, column) in columns.iter().enumerate() {
            let active: Vec<usize> = targets
                .iter()
                .enumerate()
                .filter(|(_, t)| t.column == cid && t.active())
                .map(|(i, _)| i)
                .collect();
            if active.is_empty() {
                continue;
            }
            let specs: Vec<(Sense, f64)> = active
                .iter()
                .map(|&i| (targets[i].sense, targets[i].rhs))
                .collect();
            let outcome = scan_column(
                instance,
                column,
                &support,
                &weights,
                cursor..stage_end,
                &specs,
                options,
            )?;
            for (k, &ti) in active.iter().enumerate() {
                targets[ti].satisfied += outcome.counts[k];
                targets[ti].evaluated += outcome.done;
            }
            interrupted |= outcome.interrupted;
        }
        if interrupted {
            break;
        }
        cursor = stage_end;

        if staged {
            for target in targets.iter_mut().filter(|t| t.is_constraint()) {
                if target.active() {
                    decide(target, m_hat, options.early_stop);
                }
            }
            // Once every constraint is settled, the only reason to keep
            // streaming is a probability objective (whose estimate uses the
            // full budget).
            let constraints_settled = targets
                .iter()
                .filter(|t| t.is_constraint())
                .all(|t| t.decided.is_some());
            if constraints_settled && objective_target.is_none() {
                break;
            }
        }
    }

    // Assemble per-constraint reports.
    let mut constraints = Vec::new();
    let mut early_stopped = false;
    for target in targets.iter().filter(|t| t.is_constraint()) {
        let ci = target.constraint_index.expect("constraint target");
        let n = target.evaluated;
        let fraction = if n == 0 {
            0.0
        } else {
            target.satisfied as f64 / n as f64
        };
        let feasible = match target.decided {
            Some(verdict) => verdict,
            None if n == m_hat => target.satisfied >= required_successes(target.probability, m_hat),
            // Interrupted before a verdict: judge the evaluated sample as if
            // it were the whole budget (an empty sample is conservatively
            // infeasible).
            None => n > 0 && target.satisfied >= required_successes(target.probability, n),
        };
        early_stopped |= n < m_hat && !interrupted;
        constraints.push(ConstraintValidation {
            constraint_index: ci,
            probability: target.probability,
            satisfied_fraction: fraction,
            surplus: fraction - target.probability,
            feasible,
            scenarios_evaluated: n,
        });
    }

    let objective_fraction = objective_target.map(|ti| {
        let t = &targets[ti];
        if t.evaluated == 0 {
            0.0
        } else {
            t.satisfied as f64 / t.evaluated as f64
        }
    });

    let scenarios_used = targets.iter().map(|t| t.evaluated).max().unwrap_or(0);
    Ok(ScanResult {
        constraints,
        objective_fraction,
        scenarios_used,
        early_stopped,
        interrupted,
    })
}
