//! The SketchRefine evaluation driver.
//!
//! Given a prepared [`Instance`], evaluation proceeds in three phases:
//!
//! 1. **Partition** — embed every candidate tuple into a normalized
//!    distributional feature space ([`crate::features`]) and group similar
//!    tuples with the diameter-bounded hierarchical partitioner
//!    ([`crate::hierarchy`]).
//! 2. **Sketch** — solve the query with SummarySearch over a reduced relation
//!    holding one medoid representative per partition, each allowed a
//!    multiplicity of up to `partition size × per-tuple bound`. Because the
//!    medoid is a real tuple, the sketch solution is itself a valid package
//!    and is validated out-of-sample like any other.
//! 3. **Refine** — walk the partitions the sketch actually used (largest
//!    allocation first) and re-solve a small SILP over that partition's real
//!    tuples while every other partition's current choice is frozen via
//!    pinned variables ([`Instance::fix_multiplicity`]). A refine step that
//!    comes back infeasible (or worse than the incumbent) falls back greedily
//!    to the medoid allocation; if no refined solution ever validates, the
//!    sketch solution itself is the answer — refinement can only improve it.
//!
//! Every intermediate package is validated against the out-of-sample stream,
//! and the best validated package wins, so SketchRefine inherits the same
//! feasibility guarantees as SummarySearch while each MILP it solves is
//! `O(√N)` rather than `O(N)` variables wide. The sketch and refine
//! sub-instances clone the evaluation's options, so every phase polls the
//! caller's deadline and no clock of its own.

use crate::hierarchy::{partition_hierarchical, BlockFeatures, Partitioning};
use spq_core::package::{EvaluationResult, EvaluationStats, Package};
use spq_core::summary_search::evaluate_summary_search;
use spq_core::validation::{validate_with, ValidationReport};
use spq_core::{Instance, Result};
use std::collections::HashMap;
use std::time::Instant;

/// Sparse candidate selection: candidate position → multiplicity.
type Selection = HashMap<usize, f64>;

/// Pick each partition's sketch representative.
///
/// For linear objectives with per-tuple coefficients the representative is
/// the *objective-best* member (ties broken toward the medoid's position
/// order): the sketch then sees each partition's potential rather than its
/// average, so partitions hiding a strong tuple behind a mediocre medoid
/// still get selected — the refine phase re-solves over the real members and
/// out-of-sample validation keeps the optimism honest. For probability
/// objectives (no per-tuple coefficient) the medoid is used as is.
fn choose_representatives(instance: &Instance<'_>, parts: &Partitioning) -> Result<Vec<usize>> {
    use spq_core::silp::{CoeffSource, SilpObjective};
    let coeffs = match &instance.silp.objective {
        SilpObjective::Linear { coeff, .. } if !matches!(coeff, CoeffSource::Constant(_)) => {
            instance.coefficients(coeff)?
        }
        _ => return Ok(parts.representatives.clone()),
    };
    let direction = instance.silp.objective.direction();
    Ok(parts
        .partitions
        .iter()
        .map(|members| {
            let mut best = members[0];
            for &pos in members {
                if direction.better(coeffs[pos], coeffs[best]) {
                    best = pos;
                }
            }
            best
        })
        .collect())
}

/// Partition ids the sketch solution touched, heaviest allocation first
/// (ties by ascending id, for determinism).
fn refine_order(current: &Selection, parts: &Partitioning) -> Vec<usize> {
    let mut per: HashMap<usize, f64> = HashMap::new();
    for (&pos, &mult) in current {
        *per.entry(parts.assignment[pos]).or_insert(0.0) += mult;
    }
    let mut order: Vec<(usize, f64)> = per.into_iter().collect();
    order.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    order.into_iter().map(|(pid, _)| pid).collect()
}

/// Evaluate a stochastic package query with SketchRefine.
///
/// This is the function `spq_sketch::install()` registers as the engine's
/// [`spq_core::Algorithm::SketchRefine`] evaluator; it can also be called
/// directly on a prepared instance.
pub fn evaluate_sketch_refine(instance: &Instance<'_>) -> Result<EvaluationResult> {
    let start = Instant::now();
    let opts = &instance.options;
    let n = instance.num_vars();
    let direction = instance.silp.objective.direction();

    // Small relations gain nothing from partitioning (a lone partition would
    // reproduce the full problem); solve them directly.
    if n <= opts.sketch.direct_solve_threshold {
        return evaluate_summary_search(instance);
    }

    // ---------------------------------------------------------------- phase 1
    let max_size = opts.sketch.effective_partition_size(n);
    let parts = {
        let _span = spq_obs::span("partition");
        // Hierarchical, summary-first partitioning: whole feature blocks are
        // routed by their resident [min, max] envelopes and only straddled
        // blocks page in rows, so partitioning a disk-backed million-tuple
        // relation never assembles the full N × d feature matrix.
        let features = BlockFeatures::from_instance(instance)?;
        partition_hierarchical(&features, max_size, opts.sketch.diameter_fraction)
    };

    // ---------------------------------------------------------------- phase 2
    let mut stats = EvaluationStats::default();
    let representatives = choose_representatives(instance, &parts)?;
    let mut sketch_silp = instance.silp.clone();
    sketch_silp.tuples = representatives
        .iter()
        .map(|&pos| instance.silp.tuples[pos])
        .collect();
    // The representative stands in for its whole partition, so the query's
    // per-tuple repeat limit scales by the partition size; the constraint-
    // derived bounds (budget, COUNT caps) still apply through the capping.
    sketch_silp.repeat_bound = None;
    let per_tuple_cap = instance
        .silp
        .repeat_bound
        .map(f64::from)
        .unwrap_or_else(|| f64::from(opts.fallback_multiplicity_bound));
    let mut sketch_opts = opts.clone();
    // `cap_multiplicity_bounds` can only tighten, so the derived bounds must
    // start above every partition capacity: lift the fallback (the only
    // non-constraint component of the derivation) out of the way, then cap.
    // Constraint-derived bounds (budget, COUNT ≤ u) still apply through the
    // min.
    sketch_opts.fallback_multiplicity_bound = u32::MAX;
    let mut sketch_instance = Instance::new(instance.relation, sketch_silp, sketch_opts)?;
    let caps: Vec<f64> = parts
        .partitions
        .iter()
        .map(|members| members.len() as f64 * per_tuple_cap)
        .collect();
    sketch_instance.cap_multiplicity_bounds(&caps);

    let sketch = {
        let _span = spq_obs::span("sketch");
        evaluate_summary_search(&sketch_instance)?
    };
    // Basis of the sketch solution: each refine sub-solve is seeded with the
    // most recent basis (sketch first, then the latest accepted refine), so
    // structurally compatible re-solves restart from a known-good vertex.
    // The solver validates the shape and falls back to a cold start when a
    // sub-problem's dimensions differ.
    let mut latest_basis = sketch.final_basis.clone();
    stats.absorb(&sketch.stats);
    stats.scenarios_used = sketch.stats.scenarios_used;
    stats.summaries_used = sketch.stats.summaries_used;

    // Map global tuple indices back to candidate positions of the full
    // instance (medoids and partition members are both subsets of it).
    let pos_of: HashMap<usize, usize> = instance
        .silp
        .tuples
        .iter()
        .enumerate()
        .map(|(pos, &tuple)| (tuple, pos))
        .collect();

    let mut current: Selection = HashMap::new();
    if let Some(package) = &sketch.package {
        for &(tuple, mult) in &package.multiplicities {
            current.insert(pos_of[&tuple], f64::from(mult));
        }
    }

    // Legality of a selection under the query's REPEAT limit. The sketch
    // deliberately relaxes it (a representative pools its partition's
    // capacity), so selections become legal progressively as partitions are
    // refined.
    let repeat_limit = instance.silp.repeat_bound.map(f64::from);
    let repeat_legal = |selection: &Selection| match repeat_limit {
        Some(limit) => selection.values().all(|&m| m <= limit + 1e-9),
        None => true,
    };

    // Seed the incumbent from the sketch only when the sketch solution
    // already respects the REPEAT limit: the pooled representative has a
    // legitimately *inflated* objective, and using it as the bar would make
    // every REPEAT-respecting refinement look like a regression.
    let mut best: Option<(Selection, ValidationReport)> =
        if sketch.feasible && repeat_legal(&current) {
            sketch
                .package
                .as_ref()
                .map(|p| (current.clone(), p.validation.clone()))
        } else {
            None
        };

    if current.is_empty() {
        // Nothing selected (e.g. the sketch proved the query infeasible):
        // the sketch result already references real tuples, return it as is.
        stats.wall_time = start.elapsed();
        return Ok(EvaluationResult {
            package: sketch.package,
            feasible: sketch.feasible,
            stats,
            final_basis: latest_basis,
        });
    }

    // ---------------------------------------------------------------- phase 3
    for pid in refine_order(&current, &parts) {
        // The caller's deadline: one check covers its timeout and its
        // cancellation token.
        if opts.deadline.expired() {
            break;
        }
        let members = &parts.partitions[pid];
        // Freeze every selection outside this partition.
        let mut frozen: Vec<(usize, f64)> = current
            .iter()
            .filter(|(&pos, _)| parts.assignment[pos] != pid)
            .map(|(&pos, &mult)| (pos, mult))
            .collect();
        frozen.sort_unstable_by_key(|&(pos, _)| pos);

        let mut sub_silp = instance.silp.clone();
        sub_silp.tuples = members
            .iter()
            .chain(frozen.iter().map(|(pos, _)| pos))
            .map(|&pos| instance.silp.tuples[pos])
            .collect();
        let mut sub_opts = opts.clone();
        sub_opts.max_scenarios = sub_opts.max_scenarios.min(
            opts.sketch
                .refine_max_scenarios
                .max(sub_opts.initial_scenarios),
        );
        // Warm-start this partition's solves from the most recent basis.
        sub_opts.solver.warm_start = latest_basis.clone();
        let mut sub_instance = Instance::new(instance.relation, sub_silp, sub_opts)?;
        for (offset, &(_, mult)) in frozen.iter().enumerate() {
            sub_instance.fix_multiplicity(members.len() + offset, mult);
        }

        let refined = {
            let _span = spq_obs::span("refine");
            evaluate_summary_search(&sub_instance)?
        };
        stats.absorb(&refined.stats);
        stats.outer_iterations += 1;
        if refined.final_basis.is_some() {
            latest_basis = refined.final_basis.clone();
        }

        let package = match (refined.feasible, refined.package) {
            (true, Some(package)) => package,
            // Greedy fallback: the medoid allocation for this partition
            // stays in place and the walk continues.
            _ => continue,
        };

        // Replace this partition's allocation with the refined choice.
        let mut candidate: Selection = frozen.iter().copied().collect();
        for &(tuple, mult) in &package.multiplicities {
            let pos = pos_of[&tuple];
            if parts.assignment[pos] == pid {
                candidate.insert(pos, f64::from(mult));
            }
        }
        let report = package.validation;
        // Acceptance: while the incumbent still violates the REPEAT limit,
        // every validated refinement is progress toward legality and its
        // (necessarily deflating) objective must not be held against it;
        // once the incumbent is legal, only legal, non-worse candidates
        // replace it.
        let accept = report.feasible
            && match &best {
                None => true,
                Some((incumbent_selection, incumbent)) => {
                    if !repeat_legal(incumbent_selection) {
                        true
                    } else {
                        // Not worse than the incumbent by more than 1e-9.
                        repeat_legal(&candidate)
                            && !direction.better(
                                incumbent.objective_estimate + direction.sign() * 1e-9,
                                report.objective_estimate,
                            )
                    }
                }
            };
        if accept {
            current = candidate.clone();
            best = Some((candidate, report));
        }
    }

    // ---------------------------------------------------------------- answer
    let selection = match best {
        Some((selection, _)) => selection,
        None => {
            // No validated-feasible selection was ever found; surface the
            // sketch's best effort.
            stats.wall_time = start.elapsed();
            return Ok(EvaluationResult {
                package: sketch.package,
                feasible: false,
                stats,
                final_basis: latest_basis,
            });
        }
    };

    // Re-validate once on the full instance — full budget, no early stop,
    // deadline-exempt (it is the answer's certificate; cancellation still
    // interrupts) — so the final report and its objective estimate are
    // anchored to the original problem.
    let mut x = vec![0.0f64; n];
    for (&pos, &mult) in &selection {
        x[pos] = mult;
    }
    let final_report = validate_with(instance, &x, &opts.certificate_validation())?;
    stats.validations += 1;
    stats.validation_scenarios += final_report.scenarios_used;
    stats.wall_time = start.elapsed();
    // The sketch intentionally relaxes the query's REPEAT limit for its
    // representatives (a representative stands in for its whole partition).
    // Refined partitions re-solve under the original limit, but a partition
    // that kept its sketch allocation through the greedy fallback may still
    // exceed it — report such a package honestly as infeasible rather than
    // returning a REPEAT-violating "feasible" answer.
    let repeat_ok = match instance.silp.repeat_bound {
        Some(limit) => selection.values().all(|&m| m <= f64::from(limit) + 1e-9),
        None => true,
    };
    let feasible = final_report.feasible && repeat_ok;
    let package = Package::from_dense(&x, &instance.silp.tuples, final_report);
    Ok(EvaluationResult {
        package: Some(package),
        feasible,
        stats,
        final_basis: latest_basis,
    })
}
