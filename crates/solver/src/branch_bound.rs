//! Branch-and-bound MILP solver with big-M indicator linearization.
//!
//! LP relaxations are solved by the sparse bounded-variable revised simplex
//! ([`crate::revised`]), whose per-node cost tracks the nonzeros of the
//! constraints and which re-solves each child node from its parent's basis.
//!
//! The tree is searched over the *live core* of the LP: once the root is
//! solved, and again whenever the incumbent improves, columns are fixed by
//! the root's reduced costs against the cutoff, and when at least half of
//! the current core is pinned the LP is rebuilt over the columns left free
//! ([`LpProblem::restrict`]) and the open nodes move onto it. A node then
//! costs what the core costs — tens of columns on SAA/CSA models whose first
//! incumbent pins ~96 % of them — instead of what the model costs.
//!
//! Nodes are searched "plunge, then best bound" ([`Open`]): the down child
//! of a branching is solved next, and when a plunge ends the open node with
//! the lowest parent bound starts the next one (the deepest one until there
//! is an incumbent). Backtracking to the deepest node instead spent whole
//! node budgets under subtrees that the best bound never needed to open.
//!
//! The first incumbent comes within a few nodes, but the optimum used to
//! come late. Every new incumbent is now improved by a unit-exchange local
//! search ([`Core::exchange`]) before the search goes on, so the cutoff
//! tightens sooner and more of the nodes go to proving the optimum.

use crate::basis::{Basis, VarStatus};
use crate::deadline::Deadline;
use crate::error::SolverError;
use crate::model::{Direction, Model, Sense, Solution};
use crate::revised::{LpStatus, PivotRules, RevisedLp, RevisedSolution, SimplexWork};
use crate::sparse::CscMatrix;
use crate::standard_form::{LpProblem, LpRow, BOUND_INFINITY};
use crate::Result;
use spq_obs::metrics::{Counter, Histogram, Named};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Branch-and-bound outcome counters (see the README metric catalog).
static NODES_PRUNED_BOUND: Named<Counter> =
    Named::new("spq_solver_nodes_pruned_bound", Counter::new());
static NODES_PRUNED_DOMAIN: Named<Counter> =
    Named::new("spq_solver_nodes_pruned_domain", Counter::new());
static NODES_LP_INFEASIBLE: Named<Counter> =
    Named::new("spq_solver_nodes_lp_infeasible", Counter::new());
static NODES_INTEGRAL: Named<Counter> = Named::new("spq_solver_nodes_integral", Counter::new());
static NODES_BRANCHED: Named<Counter> = Named::new("spq_solver_nodes_branched", Counter::new());
static RC_TIGHTENINGS: Named<Counter> = Named::new("spq_solver_rc_tightenings", Counter::new());
// Core reduction: how often the search restarted its LP on a smaller core
// (open nodes carried over), and the number of columns of every core
// searched (the whole LP included).
static CORE_RESTARTS: Named<Counter> = Named::new("spq_solver_core_restarts", Counter::new());
static CORE_COLUMNS: Named<Histogram> = Named::new("spq_solver_core_columns", Histogram::new());
// Solves that stopped on a node, time, memory or cancellation limit
// (`FeasibleLimit` or `NoSolutionLimit`).
static LIMIT_HITS: Named<Counter> = Named::new("spq_solver_limit_hits", Counter::new());

/// Integrality tolerance: a value within this of an integer is integral.
const INT_TOL: f64 = 1e-6;

/// Relative optimality gap at which the search stops early.
const REL_GAP: f64 = 1e-6;

/// Solver options.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// The caller's absolute deadline and/or cancellation token, the only
    /// clock the solver reads; the search is otherwise bounded by counts
    /// ([`Self::max_nodes`], the pivot limits) and [`Self::max_solver_bytes`].
    /// Checked between branch-and-bound nodes *and* inside the simplex pivot
    /// loops, so an expired deadline interrupts a node's LP mid-solve instead
    /// of letting it finish; the best incumbent found so far is returned with
    /// [`SolveStatus::FeasibleLimit`]. Default: unlimited.
    pub deadline: Deadline,
    /// Maximum number of branch-and-bound nodes to process.
    pub max_nodes: usize,
    /// Cap applied to automatically derived big-M constants when variable
    /// bounds are infinite.
    pub big_m_cap: f64,
    /// Warm-start basis for the root relaxation, e.g. the
    /// [`MilpResult::basis`] of a previous related solve. Ignored (cold
    /// start) when it does not fit the model's LP shape, so callers can
    /// thread a basis through unconditionally.
    pub warm_start: Option<Basis>,
    /// Simplex iteration index after which pricing switches from Dantzig to
    /// Bland's rule (anti-cycling). `None` uses the documented default of
    /// half the iteration budget; see `PivotRules` in `revised.rs`.
    pub bland_after: Option<usize>,
    /// Refuse to solve when the LP kernel's working set would exceed this
    /// many bytes, as estimated by [`RevisedLp::estimated_bytes`]: the
    /// constraint nonzeros plus the basis factors (charged as a dense
    /// `m × m` LU), their eta file and the working vectors.
    /// Without the guard oversized models abort the whole process inside
    /// the allocator; with it, [`SolverError::ModelTooLarge`] is returned
    /// and callers can degrade gracefully. The open nodes' bounds and warm
    /// bases count against the same cap during the search: going over it
    /// ends the search like the node limit does
    /// ([`SolveStatus::FeasibleLimit`] or [`SolveStatus::NoSolutionLimit`]).
    /// The default is half the machine's available memory when that can be
    /// determined, 8 GiB otherwise; `None` disables the check.
    pub max_solver_bytes: Option<u64>,
}

/// Half the machine's available (fallback: total) memory per
/// `/proc/meminfo`, or 8 GiB when it cannot be read (non-Linux platforms).
fn default_max_solver_bytes() -> u64 {
    const FALLBACK: u64 = 8 << 30;
    let Ok(text) = std::fs::read_to_string("/proc/meminfo") else {
        return FALLBACK;
    };
    let kib_of = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    match kib_of("MemAvailable:").or_else(|| kib_of("MemTotal:")) {
        Some(kib) => (kib * 1024) / 2,
        None => FALLBACK,
    }
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            deadline: Deadline::none(),
            max_nodes: 200_000,
            big_m_cap: 1e7,
            warm_start: None,
            bland_after: None,
            max_solver_bytes: Some(default_max_solver_bytes()),
        }
    }
}

/// Outcome of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned solution is optimal (within the gap tolerance).
    Optimal,
    /// A feasible solution was found, but a node, time or memory limit
    /// stopped the search before optimality was proven.
    FeasibleLimit,
    /// The problem has no feasible solution.
    Infeasible,
    /// The relaxation (and hence the problem) is unbounded.
    Unbounded,
    /// A node, time or memory limit was reached before any feasible
    /// solution was found.
    NoSolutionLimit,
}

impl SolveStatus {
    /// True when a usable solution accompanies this status.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::FeasibleLimit)
    }
}

/// Result of a MILP solve: status, solution (when available), and search
/// statistics.
#[derive(Debug, Clone)]
pub struct MilpResult {
    /// Final status.
    pub status: SolveStatus,
    /// Best solution found (present when `status.has_solution()`).
    pub solution: Option<Solution>,
    /// Number of branch-and-bound nodes processed.
    pub nodes: usize,
    /// Total simplex iterations across all LP relaxations.
    pub lp_iterations: usize,
    /// Best dual bound (in the model's direction) proven by the search.
    /// `None` when no bound was proven — e.g. a deadline or cancellation
    /// fired before the root relaxation finished, or the root was
    /// infeasible. Callers computing an optimality gap must treat `None` as
    /// "gap unknown" rather than a numeric ±∞.
    pub best_bound: Option<f64>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Basis of the root LP relaxation: feed it back through
    /// [`SolverOptions::warm_start`] to warm-start the next related solve.
    /// `None` when the root relaxation did not reach optimality.
    pub basis: Option<Basis>,
}

/// Branch-and-bound solver over [`Model`]s.
#[derive(Debug, Clone)]
pub struct BranchBoundSolver {
    options: SolverOptions,
}

/// Reduced costs below this magnitude are treated as zero during
/// reduced-cost bound tightening (dual degeneracy noise).
const RC_EPS: f64 = 1e-9;

/// Share of the current core's columns that must be pinned (`lower ==
/// upper`) before the search moves onto the LP restricted to the others.
/// The move costs one pass over the core LP, one kernel preparation and a
/// renumbering of the open nodes, so it has to buy a clearly smaller LP; on
/// the SAA/CSA models this solver exists for, the first incumbent pins
/// ~0.96 of the columns, far above any threshold, and one half keeps the
/// number of moves below `log2(columns)`.
const CORE_REDUCTION_SHARE: f64 = 0.5;

/// Tolerance of the incumbent check, [`Model::is_feasible`].
const FEAS_TOL: f64 = 1e-6;

/// Least relative slack of the core-row pre-check ([`Core::rejects`]). The
/// rounding of one row evaluation is bounded by `n·ε` times the magnitudes
/// summed; this is `n·ε` for rows of about 4.5 million terms.
const PRECHECK_REL: f64 = 1e-9;

/// Factor that turns the model's objective into a minimization.
fn objective_sign(model: &Model) -> f64 {
    match model.direction {
        Direction::Minimize => 1.0,
        Direction::Maximize => -1.0,
    }
}

/// True when a column can no longer move.
fn pinned(lower: f64, upper: f64) -> bool {
    lower == upper && lower.is_finite()
}

/// One column's bounds at a node, where they differ from the core's box.
#[derive(Clone, Copy)]
struct NodeDelta {
    var: usize,
    lower: f64,
    upper: f64,
}

/// An open node: its bounds relative to the core's box, the bound that
/// orders it in the [`Open`] queue, and the basis it re-solves from.
struct Node {
    /// Every bound the parent's subtree tightened, at most one entry per
    /// column, shared with the sibling.
    inherited: Arc<[NodeDelta]>,
    /// The branching bound that tells this node from its sibling.
    branch: Option<NodeDelta>,
    /// LP bound inherited from the parent (minimization sense).
    parent_bound: f64,
    /// Parent's optimal basis: the child re-solves from it instead of from
    /// scratch.
    warm: Option<Arc<Basis>>,
}

impl Node {
    fn root(warm: Option<Arc<Basis>>) -> Node {
        Node {
            inherited: Arc::from([]),
            branch: None,
            parent_bound: f64::NEG_INFINITY,
            warm,
        }
    }

    /// Every bound this node holds: the inherited ones, then the branch.
    fn deltas(&self) -> impl Iterator<Item = &NodeDelta> {
        self.inherited.iter().chain(&self.branch)
    }

    /// The same node over the next core. `None` when a folded column's value
    /// lies outside the node's bounds: nothing better than the incumbent is
    /// left in its subtree.
    fn remapped(&self, map: &CoreMap) -> Option<Node> {
        let mut inherited = Vec::with_capacity(self.inherited.len());
        for d in self.inherited.iter() {
            inherited.extend(map.delta(d)?);
        }
        let branch = match &self.branch {
            Some(d) => map.delta(d)?,
            None => None,
        };
        Some(Node {
            inherited: inherited.into(),
            branch,
            parent_bound: self.parent_bound,
            warm: self.warm.as_ref().map(|b| Arc::new(map.basis(b))),
        })
    }

    /// Bytes the node holds, charged as if it owned its shared bounds and
    /// basis: an upper bound on what keeping it open costs.
    fn bytes(&self) -> u64 {
        let deltas = self.inherited.len() * std::mem::size_of::<NodeDelta>();
        let basis = self
            .warm
            .as_ref()
            .map_or(0, |b| b.statuses.len() * std::mem::size_of::<VarStatus>());
        (std::mem::size_of::<Queued>() + deltas + basis) as u64
    }
}

/// A node in the open queue, keyed for the max-heap [`BinaryHeap`]: the
/// lowest parent bound pops first, and among equal bounds the node pushed
/// first, so the order is a function of the pushes alone.
struct Queued {
    node: Node,
    /// Push order.
    seq: u64,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .node
            .parent_bound
            .total_cmp(&self.node.parent_bound)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Queued {}

/// The open nodes, searched "plunge, then best bound": after a branching
/// the down child is solved next, and the up child waits. When a plunge
/// ends — its node is pruned, infeasible or integral — the waiting node with
/// the lowest parent bound starts the next one. Diving finds incumbents as
/// early as depth-first search does; backtracking to the best bound instead
/// of the deepest node stops the search from proving optimality subtree by
/// subtree in the order it happened to open them.
///
/// Until the first incumbent there is nothing to prove, and the search
/// backtracks depth first: a plunge that ends infeasible resumes at its
/// deepest sibling, next to where it failed, instead of starting over near
/// the root with the same odds of failing.
struct Open {
    /// The next node of the current plunge.
    dive: Option<Node>,
    /// Nodes pushed since the last best-bound pop, oldest first.
    stack: Vec<Queued>,
    queue: BinaryHeap<Queued>,
    pushed: u64,
    /// [`Node::bytes`] summed over every open node.
    bytes: u64,
}

impl Open {
    fn new(root: Node) -> Open {
        let mut open = Open {
            dive: None,
            stack: Vec::new(),
            queue: BinaryHeap::new(),
            pushed: 0,
            bytes: 0,
        };
        open.dive_into(root);
        open
    }

    fn is_empty(&self) -> bool {
        self.dive.is_none() && self.stack.is_empty() && self.queue.is_empty()
    }

    /// The node to search next: the plunge's, else the waiting node with the
    /// lowest bound when `best_bound`, the last one pushed otherwise.
    fn pop(&mut self, best_bound: bool) -> Option<Node> {
        if best_bound {
            self.queue.extend(self.stack.drain(..));
        }
        let node = match self.dive.take() {
            Some(node) => node,
            None => self.stack.pop().or_else(|| self.queue.pop())?.node,
        };
        self.bytes -= node.bytes();
        Some(node)
    }

    /// Make `node` the next node of the current plunge.
    fn dive_into(&mut self, node: Node) {
        debug_assert!(self.dive.is_none(), "one plunge at a time");
        self.bytes += node.bytes();
        self.dive = Some(node);
    }

    /// Put `node` among the waiting ones.
    fn push(&mut self, node: Node) {
        self.bytes += node.bytes();
        self.stack.push(Queued {
            node,
            seq: self.pushed,
        });
        self.pushed += 1;
    }

    /// The open nodes over the next core, in the same order; those whose
    /// subtree holds nothing better than the incumbent are dropped.
    fn remapped(self, map: &CoreMap) -> Open {
        let remap = |q: Queued| {
            Some(Queued {
                node: q.node.remapped(map)?,
                seq: q.seq,
            })
        };
        let dive = self.dive.and_then(|node| node.remapped(map));
        let stack: Vec<Queued> = self.stack.into_iter().filter_map(remap).collect();
        let queue: BinaryHeap<Queued> = self
            .queue
            .into_vec()
            .into_iter()
            .filter_map(remap)
            .collect();
        let waiting = stack.iter().chain(queue.iter()).map(|q| &q.node);
        let bytes = dive.iter().chain(waiting).map(Node::bytes).sum();
        Open {
            dive,
            stack,
            queue,
            pushed: self.pushed,
            bytes,
        }
    }
}

/// A move from one core to the next, smaller one: the tightened box the
/// fixings left of the old core, and how its columns are renumbered once
/// those the box pins are folded away.
struct CoreMap {
    /// Old core columns that stay, in their new order.
    keep: Vec<usize>,
    /// New index of each old core column; `None` for a folded one.
    new_index: Vec<Option<usize>>,
    /// The box over the old core's columns; a folded column sits at `lower`.
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl CoreMap {
    /// Fold the columns the box `lower`/`upper` pins.
    fn folding(lower: Vec<f64>, upper: Vec<f64>) -> CoreMap {
        let mut keep = Vec::new();
        let new_index = (0..lower.len())
            .map(|k| {
                (!pinned(lower[k], upper[k])).then(|| {
                    keep.push(k);
                    keep.len() - 1
                })
            })
            .collect();
        CoreMap {
            keep,
            new_index,
            lower,
            upper,
        }
    }

    /// A node's bound over the next core: `None` when it contradicts the
    /// value of a folded column, `Some(None)` when that value satisfies it.
    fn delta(&self, d: &NodeDelta) -> Option<Option<NodeDelta>> {
        match self.new_index[d.var] {
            Some(var) => Some(Some(NodeDelta { var, ..*d })),
            None => {
                let v = self.lower[d.var];
                (d.lower - 1e-9 <= v && v <= d.upper + 1e-9).then_some(None)
            }
        }
    }

    /// A basis of the old core LP without the folded columns. They are
    /// nonbasic in the root's basis; a node's basis that loses a basic
    /// column no longer fits and the simplex starts that node cold.
    fn basis(&self, basis: &Basis) -> Basis {
        let live = self.keep.iter().map(|&k| basis.statuses[k]);
        let logicals = basis.statuses[self.new_index.len()..].iter().copied();
        Basis {
            statuses: live.chain(logicals).collect(),
        }
    }
}

/// When the incumbent pre-check ([`Core::rejects`]) tests a core row.
#[derive(Clone, Copy)]
enum Guard {
    /// A model constraint, or a big-M row whose folded indicator column
    /// activates it.
    Always,
    /// A big-M row whose folded indicator column leaves it inactive.
    Never,
    /// A big-M row, active when core column `.0` takes exactly the value
    /// `.1` (the indicator's active value, 0 or 1).
    When(usize, f64),
}

impl Guard {
    /// True when the row binds the core assignment `x`.
    fn binds(self, x: &[f64]) -> bool {
        match self {
            Guard::Always => true,
            Guard::Never => false,
            Guard::When(k, value) => x[k] == value,
        }
    }
}

/// One core LP row as the incumbent pre-check reads it.
#[derive(Clone, Copy)]
struct RowScreen {
    guard: Guard,
    /// `|rhs|` of the row as `build_lp` built it plus `Σ|coefficient ×
    /// value|` over its folded terms: with the candidate's own term
    /// magnitudes, what the rounding of both the core and the model
    /// evaluation of the row is proportional to.
    scale: f64,
    /// Relative slack: [`PRECHECK_REL`], or more on a row so long that
    /// `n·ε` exceeds it.
    rel: f64,
}

/// The indicator behind each row [`BranchBoundSolver::build_lp`] builds, in
/// its order: `None` for a model constraint, `(column, active value)` for a
/// big-M row (two for an equality).
fn row_indicators(model: &Model) -> impl Iterator<Item = Option<(usize, bool)>> + '_ {
    let plain = model.constraints().iter().map(|_| None);
    let big_m = model.indicators().iter().flat_map(|ic| {
        let rows = if ic.constraint.sense == Sense::Eq {
            2
        } else {
            1
        };
        std::iter::repeat_n(Some((ic.indicator.0, ic.active_value)), rows)
    });
    plain.chain(big_m)
}

/// The live core of the LP relaxation: the columns the search can still
/// move. Columns pinned by globally valid fixings are folded into the rows'
/// right-hand sides and an objective offset, so every per-node pass is
/// sized by the core and not by the model.
struct Core {
    /// The LP over the core columns; its bounds are the box every node's
    /// bounds are relative to.
    lp: LpProblem,
    /// Model column behind each core column.
    cols: Vec<usize>,
    /// Core columns that must take integer values.
    int_cols: Vec<usize>,
    /// Per core column: it must take an integer value.
    integral: Vec<bool>,
    /// Objective contribution of the folded columns (minimization sense).
    offset: f64,
    /// A model-shaped assignment holding the value of every folded column.
    folded: Vec<f64>,
    /// The pre-check's view of each row of `lp`.
    screens: Vec<RowScreen>,
    /// The columns the exchange search may move ([`Core::exchange`]).
    movable: Vec<usize>,
}

impl Core {
    /// The whole LP: nothing folded yet.
    fn full(lp: LpProblem, model: &Model) -> Core {
        let n = lp.num_vars();
        let screens: Vec<RowScreen> = lp
            .rows
            .iter()
            .zip(row_indicators(model))
            .map(|(row, indicator)| RowScreen {
                guard: match indicator {
                    None => Guard::Always,
                    Some((y, active)) => Guard::When(y, if active { 1.0 } else { 0.0 }),
                },
                scale: row.rhs.abs(),
                rel: PRECHECK_REL.max((row.terms.len() + 4) as f64 * 16.0 * f64::EPSILON),
            })
            .collect();
        debug_assert_eq!(screens.len(), lp.rows.len(), "one screen per LP row");
        Core::over(lp, (0..n).collect(), 0.0, vec![0.0; n], screens, model)
    }

    fn over(
        lp: LpProblem,
        cols: Vec<usize>,
        offset: f64,
        folded: Vec<f64>,
        screens: Vec<RowScreen>,
        model: &Model,
    ) -> Core {
        let vars = model.variables();
        let integral: Vec<bool> = cols.iter().map(|&c| vars[c].is_integral()).collect();
        let int_cols = (0..cols.len()).filter(|&k| integral[k]).collect();
        let movable = movable_columns(&lp, &integral, &screens);
        Core {
            lp,
            cols,
            int_cols,
            integral,
            offset,
            folded,
            screens,
            movable,
        }
    }

    /// Tighten the box to the map's and fold the columns it pins out of the
    /// LP.
    fn restricted(mut self, map: CoreMap, model: &Model) -> Core {
        for (k, &col) in self.cols.iter().enumerate() {
            if map.new_index[k].is_none() {
                self.folded[col] = map.lower[k];
            }
        }
        for (screen, row) in self.screens.iter_mut().zip(&self.lp.rows) {
            for &(k, coeff) in &row.terms {
                if map.new_index[k].is_none() {
                    screen.scale += (coeff * map.lower[k]).abs();
                }
            }
            if let Guard::When(k, active) = screen.guard {
                screen.guard = match map.new_index[k] {
                    Some(k) => Guard::When(k, active),
                    None if map.lower[k] == active => Guard::Always,
                    None => Guard::Never,
                };
            }
        }
        self.lp.lower = map.lower;
        self.lp.upper = map.upper;
        let (lp, offset) = self.lp.restrict(&map.keep);
        let cols = map.keep.iter().map(|&k| self.cols[k]).collect();
        Core::over(
            lp,
            cols,
            self.offset + offset,
            self.folded,
            self.screens,
            model,
        )
    }

    /// Round integer columns to the nearest integer and clamp everything to
    /// the model's bounds, into `out`.
    fn snap_into(&self, values: &[f64], model: &Model, out: &mut Vec<f64>) {
        let vars = model.variables();
        out.clear();
        out.extend(values.iter().zip(&self.cols).map(|(&x, &col)| {
            let v = &vars[col];
            let x = if v.is_integral() { x.round() } else { x };
            x.clamp(v.lower, v.upper)
        }));
    }

    /// Minimization-sense objective of a core assignment.
    fn objective(&self, values: &[f64]) -> f64 {
        let live: f64 = self
            .lp
            .objective
            .iter()
            .zip(values)
            .map(|(c, x)| c * x)
            .sum();
        self.offset + live
    }

    /// The model-shaped assignment behind a core assignment.
    fn expand(&self, values: &[f64]) -> Vec<f64> {
        let mut full = self.folded.clone();
        for (&col, &x) in self.cols.iter().zip(values) {
            full[col] = x;
        }
        full
    }

    /// The incumbent pre-check: true when the core assignment `x` violates
    /// an active row of the core LP by more than [`FEAS_TOL`] plus a
    /// rounding slack. Folded columns are already in each row's right-hand
    /// side, and a big-M row at its indicator's active value is the
    /// indicator's inner constraint, so a row violated here is violated by
    /// `expand(x)` in the model; the slack covers the two evaluations'
    /// different summation orders. Hence `Model::is_feasible(expand(x))`
    /// rejects every `x` this rejects. Inactive big-M rows are skipped: with
    /// a capped big-M they can cut off points the model allows.
    fn rejects(&self, x: &[f64]) -> bool {
        self.lp.rows.iter().zip(&self.screens).any(|(row, screen)| {
            if !screen.guard.binds(x) {
                return false;
            }
            let (mut lhs, mut size) = (0.0, 0.0);
            for &(k, coeff) in &row.terms {
                let term = coeff * x[k];
                lhs += term;
                size += term.abs();
            }
            excess(row, lhs) > FEAS_TOL + screen.rel * (size + screen.scale + FEAS_TOL)
        })
    }

    /// The model-shaped assignment behind the core candidate `x` when the
    /// model accepts it. The pre-check runs first, so the model-sized
    /// expansion and [`Model::is_feasible`] only run on candidates that no
    /// active core row rejects; the decision is the same either way.
    fn feasible_expansion(&self, x: &[f64], model: &Model) -> Option<Vec<f64>> {
        if self.rejects(x) {
            return None;
        }
        let full = self.expand(x);
        model.is_feasible(&full, FEAS_TOL).then_some(full)
    }
}

/// How far `lhs` violates `row`: positive when it does, zero or negative
/// when the row holds.
fn excess(row: &LpRow, lhs: f64) -> f64 {
    match row.sense {
        Sense::Le => lhs - row.rhs,
        Sense::Ge => row.rhs - lhs,
        Sense::Eq => (lhs - row.rhs).abs(),
    }
}

/// Work cap of one exchange search ([`Core::exchange`]), per nonzero and
/// per column of the core: every coefficient read and every pair of columns
/// priced counts one unit, the pass that sets up the row activities
/// included. A step that would go over the cap is not taken.
const EXCHANGE_WORK: usize = 32;

/// The columns the exchange search may move: the integer columns whose box
/// leaves them room, by ascending (objective coefficient, index).
///
/// None while the box leaves the indicator of a big-M row free. The search
/// runs only where the box decides every big-M row, so the rows that bind
/// are the same at every point of the box and no indicator is movable.
/// Where indicators are free (SAA models, one per scenario) which rows bind
/// is what the search is deciding, and one that ends at its node budget
/// would return another incumbent, that is another package.
fn movable_columns(lp: &LpProblem, integral: &[bool], screens: &[RowScreen]) -> Vec<usize> {
    let decided = screens.iter().all(|screen| match screen.guard {
        Guard::When(k, _) => lp.lower[k] == lp.upper[k],
        Guard::Always | Guard::Never => true,
    });
    if !decided {
        return Vec::new();
    }
    let mut movable: Vec<usize> = (0..lp.num_vars())
        .filter(|&k| integral[k] && lp.lower[k] < lp.upper[k])
        .collect();
    movable.sort_by(|&a, &b| lp.objective[a].total_cmp(&lp.objective[b]).then(a.cmp(&b)));
    movable
}

/// One unit move of the exchange search: a unit of column `out` leaves, a
/// unit of column `into` arrives (`NONE` for neither), changing the
/// minimization objective by `delta`.
#[derive(Clone, Copy)]
struct Exchange {
    delta: f64,
    out: usize,
    into: usize,
}

impl Exchange {
    const NONE: usize = usize::MAX;

    /// True when this move is better than `other`: the lower `delta`, then
    /// the lower `out`, then the lower `into`, so the search's path is a
    /// function of the model alone. Any improving move beats none.
    fn beats(&self, other: &Option<Exchange>) -> bool {
        match other {
            None => self.delta < 0.0,
            Some(o) => {
                (self.delta, self.out, self.into).partial_cmp(&(o.delta, o.out, o.into))
                    == Some(Ordering::Less)
            }
        }
    }
}

/// Buffers of the exchange search, reused from call to call.
#[derive(Default)]
struct ExchangeWork {
    /// The current point over the core's columns.
    x: Vec<f64>,
    /// Every core row's activity at `x`.
    activity: Vec<f64>,
    /// Per row: the excess it may reach — the starting point's, or zero
    /// when that one holds — or infinity for a row that does not bind.
    allowed: Vec<f64>,
    /// Per row: the change a unit of the leaving column makes, zero off its
    /// rows.
    removal: Vec<f64>,
}

impl Core {
    /// The unit-exchange local search: from the integral candidate `start`,
    /// take the single best improving move (see [`Exchange::beats`]) until
    /// none improves, the work cap ([`EXCHANGE_WORK`]) is reached or `stop`
    /// expires. A move drops one unit of a movable column, adds one, or
    /// moves one from column `i` to column `j`, inside the core's box.
    /// Only [`Core::movable`] columns move, so the indicators of
    /// big-M rows stay put and the rows that bind (the rule of
    /// [`Core::rejects`]: a big-M row binds when its indicator sits at its
    /// active value) stay the same along the path; a move must leave every
    /// one of them no further violated than `start` left it. Returns
    /// `true` when the point in `work.x` moved; callers accept it only once
    /// [`Core::feasible_expansion`] does. `matrix` is the core LP's
    /// ([`RevisedLp::matrix`]): each column's rows, by ascending row.
    fn exchange(
        &self,
        matrix: &CscMatrix,
        start: &[f64],
        work: &mut ExchangeWork,
        stop: &Deadline,
    ) -> bool {
        let Some(&cheapest) = self.movable.first() else {
            return false;
        };
        let column = |k: usize| {
            let (rows, values) = matrix.col(k);
            rows.iter().copied().zip(values.iter().copied())
        };
        let (cost, lower, upper) = (&self.lp.objective, &self.lp.lower, &self.lp.upper);
        let ExchangeWork {
            x,
            activity,
            allowed,
            removal,
        } = work;
        x.clear();
        x.extend_from_slice(start);
        activity.clear();
        allowed.clear();
        for (row, screen) in self.lp.rows.iter().zip(&self.screens) {
            let lhs: f64 = row.terms.iter().map(|&(k, coeff)| coeff * x[k]).sum();
            activity.push(lhs);
            allowed.push(if screen.guard.binds(x) {
                excess(row, lhs).max(0.0)
            } else {
                f64::INFINITY
            });
        }
        removal.clear();
        removal.resize(self.lp.rows.len(), 0.0);
        let rows = &self.lp.rows;
        let fits = |r: usize, lhs: f64| excess(&rows[r], lhs) <= allowed[r];

        let budget = EXCHANGE_WORK * (matrix.nnz() + x.len());
        let mut spent = matrix.nnz();
        let mut moved = false;
        while !stop.expired() {
            let mut best: Option<Exchange> = None;
            // Adds: the cheapest column that fits is the best of them.
            for &j in &self.movable {
                let add = Exchange {
                    delta: cost[j],
                    out: Exchange::NONE,
                    into: j,
                };
                if !add.beats(&best) {
                    break;
                }
                spent += 1 + column(j).len();
                if x[j] + 1.0 <= upper[j] && column(j).all(|(r, a)| fits(r, activity[r] + a)) {
                    best = Some(add);
                    break;
                }
            }
            // Drops and exchanges, dearest leaving column first: once even
            // the cheapest arrival cannot make a move out of `i` the best,
            // no cheaper `i` can.
            for &i in self.movable.iter().rev() {
                spent += 1;
                let bound = (cost[cheapest] - cost[i]).min(-cost[i]);
                if bound >= 0.0 || best.is_some_and(|b| bound > b.delta) {
                    break;
                }
                if x[i] - 1.0 < lower[i] {
                    continue;
                }
                spent += column(i).len();
                // Rows the removal alone pushes past what they may reach;
                // an arrival has to bring every one of them back.
                let mut broken = 0;
                for (r, a) in column(i) {
                    removal[r] = -a;
                    broken += usize::from(!fits(r, activity[r] + removal[r]));
                }
                let drop = Exchange {
                    delta: -cost[i],
                    out: i,
                    into: Exchange::NONE,
                };
                if broken == 0 && drop.beats(&best) {
                    best = Some(drop);
                }
                for &j in &self.movable {
                    spent += 1;
                    let swap = Exchange {
                        delta: cost[j] - cost[i],
                        out: i,
                        into: j,
                    };
                    if !swap.beats(&best) {
                        if best.is_none_or(|b| swap.delta > b.delta) {
                            break;
                        }
                        continue;
                    }
                    if j == i || x[j] + 1.0 > upper[j] {
                        continue;
                    }
                    spent += column(j).len();
                    let mut mended = 0;
                    let fits_both = column(j).all(|(r, a)| {
                        let alone = activity[r] + removal[r];
                        mended += usize::from(!fits(r, alone));
                        fits(r, alone + a)
                    });
                    if fits_both && mended == broken {
                        best = Some(swap);
                        break;
                    }
                }
                for (r, _) in column(i) {
                    removal[r] = 0.0;
                }
                if spent > budget {
                    return moved;
                }
            }
            if spent > budget {
                return moved;
            }
            let Some(step) = best else {
                break;
            };
            // The activities move exactly as the move was checked: the
            // removal first, then the arrival.
            if step.out != Exchange::NONE {
                x[step.out] -= 1.0;
                for (r, a) in column(step.out) {
                    activity[r] += -a;
                }
            }
            if step.into != Exchange::NONE {
                x[step.into] += 1.0;
                for (r, a) in column(step.into) {
                    activity[r] += a;
                }
            }
            moved = true;
        }
        moved
    }
}

/// Buffers the search reuses from node to node: the simplex workspace, the
/// node's bound box, and the last optimum's values and reduced costs.
#[derive(Default)]
struct NodeWork {
    simplex: SimplexWork,
    lower: Vec<f64>,
    upper: Vec<f64>,
    values: Vec<f64>,
    reduced: Vec<f64>,
}

impl NodeWork {
    /// Write `node`'s bound box inside `base`'s into `lower`/`upper`;
    /// `false` when a domain is empty.
    fn load(&mut self, node: &Node, base: &LpProblem) -> bool {
        let (lower, upper) = (&mut self.lower, &mut self.upper);
        lower.clear();
        lower.extend_from_slice(&base.lower);
        upper.clear();
        upper.extend_from_slice(&base.upper);
        node.deltas().all(|d| {
            lower[d.var] = lower[d.var].max(d.lower);
            upper[d.var] = upper[d.var].min(d.upper);
            lower[d.var] <= upper[d.var] + 1e-12
        })
    }

    /// The relaxation of the node whose box was last loaded. An optimum's
    /// values and reduced costs are moved into `values` and `reduced`, and
    /// the buffers they replace go back to the simplex for the next node.
    fn solve(&mut self, cx: &SearchCtx<'_>, node: &Node) -> Result<RevisedSolution> {
        let mut relax = cx.lp.solve_with(
            &mut self.simplex,
            &self.lower,
            &self.upper,
            node.warm.as_deref(),
            cx.rules,
        )?;
        if relax.status == LpStatus::Optimal {
            std::mem::swap(&mut self.values, &mut relax.values);
            std::mem::swap(&mut self.reduced, &mut relax.reduced);
            self.simplex.recycle(
                std::mem::take(&mut relax.values),
                std::mem::take(&mut relax.reduced),
            );
        }
        Ok(relax)
    }
}

/// The search's buffers: a [`NodeWork`], the rounded candidate, and the
/// merge of a branching node's bounds into its children's.
#[derive(Default)]
struct SearchWork {
    node: NodeWork,
    /// The node's basic integer columns, in ascending order.
    basic: Vec<usize>,
    candidate: Vec<f64>,
    exchange: ExchangeWork,
    /// Columns reduced-cost tightening moved at the current node.
    tightened: Vec<usize>,
    /// Per core column: already in `deltas`.
    seen: Vec<bool>,
    deltas: Vec<NodeDelta>,
}

/// What the search accumulates; [`BranchBoundSolver::solve`] assembles the
/// public [`MilpResult`] from it.
struct SearchState {
    /// Incumbent, as a model-shaped assignment.
    best_solution: Option<Vec<f64>>,
    /// Its objective (minimization sense); the cutoff derives from it.
    best_obj: f64,
    nodes_processed: usize,
    lp_iterations: usize,
    hit_limit: bool,
    /// Bound and basis of the root, the only full-shape LP solved. `None`
    /// until that relaxation is bounded, so an early deadline reports "no
    /// bound" instead of -inf.
    best_bound: Option<f64>,
    root_basis: Option<Basis>,
    root_unbounded: bool,
    /// The root relaxation over the current core's columns.
    root: Option<RootLp>,
}

impl SearchState {
    fn improved_by(&self, obj: f64) -> bool {
        obj < self.best_obj - 1e-12
    }

    fn accept(&mut self, obj: f64, solution: Vec<f64>) {
        self.best_obj = obj;
        self.best_solution = Some(solution);
    }
}

/// The optimal root relaxation: what globally valid reduced-cost fixing
/// needs whenever the cutoff moves. Folding a column (nonbasic at the root)
/// out of the LP changes neither the bound nor the other columns' reduced
/// costs, so the root is never solved again.
struct RootLp {
    /// LP bound (minimization sense).
    bound: f64,
    reduced: Vec<f64>,
    basis: Option<Arc<Basis>>,
}

impl RootLp {
    fn remapped(&self, map: &CoreMap) -> RootLp {
        RootLp {
            bound: self.bound,
            reduced: map.keep.iter().map(|&k| self.reduced[k]).collect(),
            basis: self.basis.as_ref().map(|b| Arc::new(map.basis(b))),
        }
    }
}

/// Borrowed context of the search over one core.
struct SearchCtx<'a> {
    model: &'a Model,
    core: &'a Core,
    lp: &'a RevisedLp,
    rules: &'a PivotRules,
    stop: &'a Deadline,
    /// Most bytes the open nodes may hold.
    open_budget: u64,
    sign: f64,
}

impl BranchBoundSolver {
    /// Create a solver with the given options.
    pub fn new(options: SolverOptions) -> Self {
        BranchBoundSolver { options }
    }

    /// Solve a model.
    pub fn solve(&self, model: &Model) -> Result<MilpResult> {
        model.validate()?;
        let start = Instant::now();
        let sign = objective_sign(model);

        // Base LP (minimization form).
        let mut base = self.build_lp(model, sign);

        // Presolve: activity-based bound tightening on the root box (and
        // inward rounding of integer bounds). The tightened bounds are
        // inherited by every node; a proven-empty domain short-circuits the
        // whole search.
        let integral: Vec<bool> = model.variables().iter().map(|v| v.is_integral()).collect();
        let mut root_lower = std::mem::take(&mut base.lower);
        let mut root_upper = std::mem::take(&mut base.upper);
        let pre = crate::presolve::tighten_bounds(
            &base.rows,
            &mut root_lower,
            &mut root_upper,
            &integral,
        );
        base.lower = root_lower;
        base.upper = root_upper;
        if pre == crate::presolve::PresolveOutcome::Infeasible {
            return Ok(MilpResult {
                status: SolveStatus::Infeasible,
                solution: None,
                nodes: 0,
                lp_iterations: 0,
                best_bound: None,
                elapsed: start.elapsed(),
                basis: None,
            });
        }

        let mut st = SearchState {
            best_solution: None,
            best_obj: f64::INFINITY,
            nodes_processed: 0,
            lp_iterations: 0,
            hit_limit: false,
            best_bound: None,
            root_basis: None,
            root_unbounded: false,
            root: None,
        };
        // The search starts on the whole LP. Each time fixings pin enough of
        // the current core it moves, open nodes and all, onto the LP over
        // the columns left free; a move at least halves the core, so there
        // are at most log2(columns) of them.
        let mut core = Core::full(base, model);
        let mut open = Open::new(Node::root(self.options.warm_start.clone().map(Arc::new)));
        // One set of node buffers for the whole search, whatever the core.
        let mut work = SearchWork::default();
        while !open.is_empty() {
            let Some(map) = self.search_core(model, &core, &mut open, &mut work, &mut st)? else {
                break;
            };
            CORE_RESTARTS.inc();
            open = open.remapped(&map);
            st.root = st.root.map(|root| root.remapped(&map));
            core = core.restricted(map, model);
        }

        let elapsed = start.elapsed();
        if st.root_unbounded {
            return Ok(MilpResult {
                status: SolveStatus::Unbounded,
                solution: None,
                nodes: st.nodes_processed,
                lp_iterations: st.lp_iterations,
                best_bound: None,
                elapsed,
                basis: None,
            });
        }

        let status = match (&st.best_solution, st.hit_limit) {
            (Some(_), false) => SolveStatus::Optimal,
            (Some(_), true) => SolveStatus::FeasibleLimit,
            // Exhausted the tree without an incumbent.
            (None, false) => SolveStatus::Infeasible,
            (None, true) => SolveStatus::NoSolutionLimit,
        };
        if st.hit_limit {
            LIMIT_HITS.inc();
        }
        let solution = st.best_solution.map(|values| Solution {
            objective: model.objective_value(&values),
            values,
            lp_pivots: st.lp_iterations,
        });
        Ok(MilpResult {
            status,
            solution,
            nodes: st.nodes_processed,
            lp_iterations: st.lp_iterations,
            best_bound: st.best_bound.map(|b| sign * b),
            elapsed,
            basis: st.root_basis,
        })
    }

    /// Search the `open` nodes over one core: prepare the revised simplex
    /// for the core LP once — every node re-solves it under its own bounds
    /// (and its parent's basis) — and walk the tree until it is exhausted, a
    /// limit fires, or a [`CoreMap`] ends the stay on this core with the
    /// nodes still open left in `open`.
    fn search_core(
        &self,
        model: &Model,
        core: &Core,
        open: &mut Open,
        work: &mut SearchWork,
        st: &mut SearchState,
    ) -> Result<Option<CoreMap>> {
        CORE_COLUMNS.record(core.cols.len() as u64);
        #[cfg(test)]
        tests::PROBE.with(|p| p.borrow_mut().cores.push(core.cols.len()));
        let lp = RevisedLp::from_problem(&core.lp)?;
        // Memory guard: without it, oversized models abort the whole
        // process inside the allocator. Preparing is linear in the model's
        // own size, so it can safely precede the guard; only the whole LP
        // can trip it, every later one being a restriction of it. What the
        // kernel leaves of the budget bounds the open nodes.
        let mut open_budget = u64::MAX;
        if let Some(cap) = self.options.max_solver_bytes {
            let bytes = lp.estimated_bytes();
            if bytes > cap {
                return Err(SolverError::ModelTooLarge {
                    rows: lp.m,
                    cols: lp.n_struct + lp.m,
                    bytes,
                });
            }
            open_budget = cap - bytes;
        }
        let rules = PivotRules::for_size(lp.m, lp.n_struct + lp.m, self.options.bland_after)
            .with_deadline(self.options.deadline.clone());
        let cx = SearchCtx {
            model,
            core,
            lp: &lp,
            rules: &rules,
            stop: &self.options.deadline,
            open_budget,
            sign: objective_sign(model),
        };
        self.search(&cx, open, work, st)
    }

    /// The branch-and-bound loop over one core: nodes are taken from
    /// `open` and children put into it (see [`Open`] for the order). The
    /// core's box never changes under the loop, so every relaxation is a
    /// function of (core LP, node bounds, warm basis); fixings that shrink
    /// the box end the loop with the [`CoreMap`] to the next core instead,
    /// leaving the nodes still open in `open`.
    fn search(
        &self,
        cx: &SearchCtx<'_>,
        open: &mut Open,
        work: &mut SearchWork,
        st: &mut SearchState,
    ) -> Result<Option<CoreMap>> {
        let core = cx.core;
        work.seen.clear();
        work.seen.resize(core.cols.len(), false);

        while let Some(node) = open.pop(st.best_solution.is_some()) {
            // The open nodes' bytes count against `max_solver_bytes` with
            // the kernel's: going over ends the search like any other limit.
            if st.nodes_processed >= self.options.max_nodes
                || cx.stop.expired()
                || open.bytes > cx.open_budget
            {
                st.hit_limit = true;
                break;
            }
            // Prune by the parent's bound before paying for an LP solve.
            if node.parent_bound >= st.best_obj - self.gap_slack(st.best_obj) {
                NODES_PRUNED_BOUND.inc();
                continue;
            }
            st.nodes_processed += 1;
            let is_root = st.nodes_processed == 1;

            // Apply the node's bound changes.
            if !work.node.load(&node, &core.lp) {
                NODES_PRUNED_DOMAIN.inc();
                continue;
            }

            // A numerical failure (e.g. the simplex iteration budget being
            // exhausted on a degenerate relaxation) abandons this node rather
            // than the whole search: the node is treated as unexplored, which
            // keeps the incumbent valid and only weakens the optimality claim.
            let relax = match work.node.solve(cx, &node) {
                Ok(r) => r,
                Err(SolverError::Numerical(_)) => {
                    st.hit_limit = true;
                    continue;
                }
                // Deadline or cancellation fired mid-LP: stop the search and
                // fall through to return the best incumbent found so far.
                Err(SolverError::Cancelled) => {
                    st.hit_limit = true;
                    break;
                }
                Err(e) => return Err(e),
            };
            st.lp_iterations += relax.iterations;
            match relax.status {
                LpStatus::Infeasible => {
                    NODES_LP_INFEASIBLE.inc();
                    continue;
                }
                LpStatus::Unbounded => {
                    if is_root {
                        st.root_unbounded = true;
                        break;
                    }
                    // A child cannot be unbounded if the root was bounded;
                    // treat it conservatively as "no useful bound".
                    continue;
                }
                LpStatus::Optimal => {}
            }
            let node_bound = core.offset + relax.objective;
            if is_root {
                st.best_bound = Some(node_bound);
                st.root_basis = relax.basis.clone();
            }
            if node_bound >= st.best_obj - self.gap_slack(st.best_obj) {
                NODES_PRUNED_BOUND.inc();
                continue; // dominated
            }

            // Find the most fractional integer variable, lowest index first
            // among equals. A nonbasic column sits on one of its bounds, and
            // every integer column's bounds are integral (presolve rounds
            // them, branching and tightening keep them so), so only basic
            // columns can be fractional.
            let n = core.cols.len();
            work.basic.clear();
            work.basic.extend(
                work.node
                    .simplex
                    .basic_columns()
                    .iter()
                    .filter(|&&j| j < n && core.integral[j]),
            );
            work.basic.sort_unstable();
            let mut branch_var: Option<usize> = None;
            let mut best_frac = INT_TOL;
            for &vi in &work.basic {
                let x = work.node.values[vi];
                let frac = (x - x.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some(vi);
                }
            }

            let had_obj = st.best_obj;
            match branch_var {
                None => {
                    NODES_INTEGRAL.inc();
                    // Integral LP optimum: candidate incumbent. Round to clean
                    // integer values and re-check feasibility on the original
                    // model (including indicator semantics).
                    core.snap_into(&work.node.values, cx.model, &mut work.candidate);
                    if let Some(candidate) = core.feasible_expansion(&work.candidate, cx.model) {
                        let obj = cx.sign * cx.model.objective_value(&candidate);
                        if st.improved_by(obj) {
                            st.accept(obj, candidate);
                            self.polish(cx, work, st);
                        }
                    } else if st.improved_by(node_bound) {
                        // Numerical corner case: accept the raw LP point if it
                        // is feasible for the *linearized* model.
                        st.accept(node_bound, core.expand(&work.node.values));
                    }
                }
                Some(vi) => {
                    NODES_BRANCHED.inc();
                    // Rounding heuristic to seed the incumbent early. Its
                    // objective costs one pass over the core; the feasibility
                    // check only runs for a candidate that would beat the
                    // incumbent.
                    core.snap_into(&work.node.values, cx.model, &mut work.candidate);
                    if st.improved_by(core.objective(&work.candidate)) {
                        if let Some(candidate) = core.feasible_expansion(&work.candidate, cx.model)
                        {
                            let obj = cx.sign * cx.model.objective_value(&candidate);
                            if st.improved_by(obj) {
                                st.accept(obj, candidate);
                                self.polish(cx, work, st);
                            }
                        }
                    }
                    // Reduced-cost bound tightening, valid for this node's
                    // whole subtree; both children inherit the tightened
                    // bounds. On knapsack-like SAA models this collapses
                    // most of the tree.
                    let basis = relax.basis.map(Arc::new);
                    let cutoff = st.best_obj - self.gap_slack(st.best_obj);
                    work.tightened.clear();
                    if let (true, Some(basis)) = (cutoff.is_finite(), &basis) {
                        self.tighten_by_reduced_costs(
                            &core.int_cols,
                            &work.node.reduced,
                            basis,
                            cutoff - node_bound,
                            &mut work.node.lower,
                            &mut work.node.upper,
                            &mut work.tightened,
                        );
                        RC_TIGHTENINGS.add(work.tightened.len() as u64);
                    }
                    // The children's shared bounds: one entry per column
                    // (the branching one aside) whose bounds left the core's
                    // box, however often they were tightened on the way down.
                    // Only the node's own bounds and this node's tightenings
                    // can have left it, so those are the columns looked at.
                    let (lower, upper) = (&work.node.lower, &work.node.upper);
                    let moved =
                        |j: usize| lower[j] != core.lp.lower[j] || upper[j] != core.lp.upper[j];
                    work.deltas.clear();
                    let touched = node
                        .deltas()
                        .map(|d| d.var)
                        .chain(work.tightened.iter().copied());
                    for j in touched {
                        if j != vi && !work.seen[j] && moved(j) {
                            work.seen[j] = true;
                            work.deltas.push(NodeDelta {
                                var: j,
                                lower: lower[j],
                                upper: upper[j],
                            });
                        }
                    }
                    for d in &work.deltas {
                        work.seen[d.var] = false;
                    }
                    let inherited: Arc<[NodeDelta]> = Arc::from(&work.deltas[..]);
                    #[cfg(test)]
                    tests::PROBE.with(|p| p.borrow_mut().node_deltas(inherited.len() + 1));
                    let x = work.node.values[vi];
                    let child = |lower: f64, upper: f64| Node {
                        inherited: inherited.clone(),
                        branch: Some(NodeDelta {
                            var: vi,
                            lower,
                            upper,
                        }),
                        parent_bound: node_bound,
                        warm: basis.clone(),
                    };
                    // The plunge goes on with the "down" child (for
                    // minimization of package cost, smaller multiplicities
                    // tend to be feasible more often); the "up" one waits.
                    open.push(child(x.ceil(), upper[vi]));
                    open.dive_into(child(lower[vi], x.floor()));
                    if is_root {
                        st.root = Some(RootLp {
                            bound: node_bound,
                            reduced: std::mem::take(&mut work.node.reduced),
                            basis,
                        });
                    }
                }
            }
            // Core reduction: once the root is branched, and whenever the
            // incumbent improves, fix columns from the root's reduced costs
            // against the cutoff; with enough of them pinned, the open nodes
            // move onto the LP over the others.
            if is_root || st.best_obj < had_obj {
                if let Some(map) = self.core_reduction(core, st) {
                    return Ok(Some(map));
                }
            }
        }

        Ok(None)
    }

    /// Run the exchange search ([`Core::exchange`]) from the incumbent just
    /// accepted out of `work.candidate`, and accept where it ends when the
    /// model does and it is better still. An incumbent that meets the
    /// root's bound is already optimal and is left as it is.
    fn polish(&self, cx: &SearchCtx<'_>, work: &mut SearchWork, st: &mut SearchState) {
        let core = cx.core;
        if st
            .best_bound
            .is_some_and(|bound| bound >= st.best_obj - self.gap_slack(st.best_obj))
        {
            return;
        }
        if !core.exchange(cx.lp.matrix(), &work.candidate, &mut work.exchange, cx.stop) {
            return;
        }
        if let Some(better) = core.feasible_expansion(&work.exchange.x, cx.model) {
            let obj = cx.sign * cx.model.objective_value(&better);
            if st.improved_by(obj) {
                st.accept(obj, better);
            }
        }
    }

    /// Reduced-cost bound tightening over the subtree of an LP optimum with
    /// bound `z` and reduced costs `d`: with incumbent cutoff `c`, a column
    /// nonbasic at its lower bound with `d > 0` satisfies obj ≥ z + d·(x_j −
    /// l_j) over the subtree, so x_j ≤ l_j + ⌊(c − z)/d⌋ in any improving
    /// integer solution (symmetrically at upper bounds). `budget` is `c − z`;
    /// `lower`/`upper` are the optimum's bound box and are tightened in
    /// place; every column whose bound moved is appended to `tightened`.
    #[allow(clippy::too_many_arguments)]
    fn tighten_by_reduced_costs(
        &self,
        int_cols: &[usize],
        reduced: &[f64],
        basis: &Basis,
        budget: f64,
        lower: &mut [f64],
        upper: &mut [f64],
        tightened: &mut Vec<usize>,
    ) {
        for &vj in int_cols {
            let d = reduced[vj];
            match basis.statuses[vj] {
                VarStatus::AtLower if d > RC_EPS => {
                    let room = (budget / d + INT_TOL).floor().max(0.0);
                    let new_upper = lower[vj] + room;
                    if new_upper < upper[vj] - 0.5 {
                        upper[vj] = new_upper;
                        tightened.push(vj);
                    }
                }
                VarStatus::AtUpper if d < -RC_EPS => {
                    let room = (budget / -d + INT_TOL).floor().max(0.0);
                    let new_lower = upper[vj] - room;
                    if new_lower > lower[vj] + 0.5 {
                        lower[vj] = new_lower;
                        tightened.push(vj);
                    }
                }
                _ => {}
            }
        }
    }

    /// Globally valid fixing: the root LP bounds every point of the core's
    /// box, and every solution better than the incumbent lies in that box
    /// (earlier reductions only removed points no better than *their*
    /// cutoff), so tightening the box itself by the root's reduced costs
    /// against the current cutoff loses no improving solution. Returns the
    /// move onto the tightened box when it pins at least
    /// [`CORE_REDUCTION_SHARE`] of the core (but leaves a column to search
    /// over).
    fn core_reduction(&self, core: &Core, st: &SearchState) -> Option<CoreMap> {
        let root = st.root.as_ref()?;
        let mut lower = core.lp.lower.clone();
        let mut upper = core.lp.upper.clone();
        let cutoff = st.best_obj - self.gap_slack(st.best_obj);
        if let (true, Some(basis)) = (cutoff.is_finite(), &root.basis) {
            self.tighten_by_reduced_costs(
                &core.int_cols,
                &root.reduced,
                basis,
                cutoff - root.bound,
                &mut lower,
                &mut upper,
                &mut Vec::new(),
            );
        }
        let map = CoreMap::folding(lower, upper);
        let n = map.new_index.len();
        let fixed = n - map.keep.len();
        (fixed < n && fixed as f64 >= CORE_REDUCTION_SHARE * n as f64).then_some(map)
    }

    fn gap_slack(&self, best_obj: f64) -> f64 {
        if best_obj.is_finite() {
            REL_GAP * best_obj.abs().max(1.0)
        } else {
            0.0
        }
    }

    /// Build the (minimization-sense) LP relaxation with indicator
    /// constraints linearized via big-M.
    fn build_lp(&self, model: &Model, sign: f64) -> LpProblem {
        let vars = model.variables();
        let lower: Vec<f64> = vars.iter().map(|v| v.lower).collect();
        let upper: Vec<f64> = vars.iter().map(|v| v.upper).collect();
        let objective: Vec<f64> = vars.iter().map(|v| sign * v.objective).collect();
        let mut rows: Vec<LpRow> =
            Vec::with_capacity(model.constraints().len() + model.indicators().len());
        for c in model.constraints() {
            rows.push(LpRow {
                terms: c.terms.iter().map(|(v, co)| (v.0, *co)).collect(),
                sense: c.sense,
                rhs: c.rhs,
            });
        }
        for ic in model.indicators() {
            let inner = &ic.constraint;
            let terms: Vec<(usize, f64)> = inner.terms.iter().map(|(v, co)| (v.0, *co)).collect();
            // An equality is the conjunction of `<=` and `>=`.
            let senses: &[Sense] = match inner.sense {
                Sense::Eq => &[Sense::Le, Sense::Ge],
                ref one => std::slice::from_ref(one),
            };
            for &sense in senses {
                rows.push(self.indicator_row(
                    &terms,
                    sense,
                    inner.rhs,
                    ic.indicator.0,
                    ic.active_value,
                    &lower,
                    &upper,
                ));
            }
        }
        LpProblem {
            objective,
            lower,
            upper,
            rows,
        }
    }

    /// The big-M row that enforces `terms sense rhs` (`sense` is `Ge` or
    /// `Le`) while the binary column `y` equals `active_value` and relaxes
    /// it over the whole variable box otherwise:
    ///
    /// * `Ge`, active on 1: `sum >= rhs - M(1 - y)`, i.e. `sum - M·y >= rhs - M`;
    /// * `Ge`, active on 0: `sum >= rhs - M·y`, i.e. `sum + M·y >= rhs`;
    /// * `Le`, active on 1: `sum <= rhs + M(1 - y)`, i.e. `sum + M·y <= rhs + M`;
    /// * `Le`, active on 0: `sum <= rhs + M·y`, i.e. `sum - M·y <= rhs`.
    #[allow(clippy::too_many_arguments)]
    fn indicator_row(
        &self,
        terms: &[(usize, f64)],
        sense: Sense,
        rhs: f64,
        y: usize,
        active_value: bool,
        lower: &[f64],
        upper: &[f64],
    ) -> LpRow {
        // Bounds of the inner expression over the variable box.
        let (lo, hi) = self.expr_bounds(terms, lower, upper);
        // `M` covers the worst violation; `relax` is the direction in which
        // it moves the right-hand side.
        let (m, relax) = match sense {
            Sense::Ge => ((rhs - lo).max(0.0).min(self.options.big_m_cap), -1.0),
            Sense::Le => ((hi - rhs).max(0.0).min(self.options.big_m_cap), 1.0),
            Sense::Eq => unreachable!("equality indicators are split into Le and Ge rows"),
        };
        let (y_coeff, rhs) = if active_value {
            (relax * m, rhs + relax * m)
        } else {
            (-relax * m, rhs)
        };
        let mut terms = terms.to_vec();
        terms.push((y, y_coeff));
        LpRow { terms, sense, rhs }
    }

    /// Lower and upper bounds of a linear expression over the variable box,
    /// with infinite bounds capped so big-M stays finite.
    fn expr_bounds(&self, terms: &[(usize, f64)], lower: &[f64], upper: &[f64]) -> (f64, f64) {
        let cap = self.options.big_m_cap;
        let mut lo = 0.0;
        let mut hi = 0.0;
        for &(v, c) in terms {
            let l = lower[v].max(-BOUND_INFINITY).max(-cap);
            let u = upper[v].min(BOUND_INFINITY).min(cap);
            if c >= 0.0 {
                lo += c * l;
                hi += c * u;
            } else {
                lo += c * u;
                hi += c * l;
            }
        }
        (lo, hi)
    }
}

/// Solve a model with the given options (convenience wrapper returning just
/// the solution).
pub fn solve(model: &Model, options: &SolverOptions) -> Result<Solution> {
    let result = solve_full(model, options)?;
    match result.solution {
        Some(s) => Ok(s),
        None => match result.status {
            SolveStatus::Infeasible => Err(SolverError::Numerical("infeasible".into())),
            SolveStatus::Unbounded => Err(SolverError::Unbounded),
            _ => Err(SolverError::Numerical(
                "no feasible solution found within limits".into(),
            )),
        },
    }
}

/// Solve a model and return the full result (status, statistics, solution).
pub fn solve_full(model: &Model, options: &SolverOptions) -> Result<MilpResult> {
    BranchBoundSolver::new(options.clone()).solve(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarId, VarType};

    fn opts() -> SolverOptions {
        SolverOptions::default()
    }

    /// What the searches run on this thread did that no result reports.
    #[derive(Default)]
    pub(super) struct Probe {
        /// Columns of every core searched, in order.
        pub(super) cores: Vec<usize>,
        /// Most bound deltas any pushed node held.
        peak_node_deltas: usize,
    }

    impl Probe {
        pub(super) fn node_deltas(&mut self, n: usize) {
            self.peak_node_deltas = self.peak_node_deltas.max(n);
        }
    }

    thread_local! {
        pub(super) static PROBE: std::cell::RefCell<Probe> = std::cell::RefCell::default();
    }

    /// Solve on this thread and return what the probe saw of that solve.
    fn probed(model: &Model, options: &SolverOptions) -> (MilpResult, Probe) {
        PROBE.with(|p| p.take());
        let res = solve_full(model, options).unwrap();
        (res, PROBE.with(|p| p.take()))
    }

    /// Per-item pseudo-random values in [0, 1), stable under reordering.
    fn unit(i: usize, salt: u32) -> f64 {
        let h = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h.rotate_left(salt) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A deterministic shuffle of `0..n`.
    fn shuffled(n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for k in (1..n).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(k, (state >> 33) as usize % (k + 1));
        }
        order
    }

    /// A Galaxy-shaped CSA model: one integer multiplicity per item, COUNT
    /// between 5 and 10, one dense real `>=` row (a conservative summary of
    /// the minimized attribute). Column `k` holds item `order[k]`, so any
    /// permutation of `order` states the same problem.
    fn galaxy_shaped_model(order: &[usize]) -> Model {
        galaxy_shaped_model_within(order, |_| 3.0)
    }

    /// [`galaxy_shaped_model`] with item `i`'s multiplicity at most
    /// `upper(i)`.
    fn galaxy_shaped_model_within(order: &[usize], upper: impl Fn(usize) -> f64) -> Model {
        let mean = |i: usize| 14.0 + 8.0 * unit(i, 0);
        let mut m = Model::minimize();
        let vars: Vec<_> = order
            .iter()
            .map(|&i| m.add_var(VarType::Integer, 0.0, upper(i), mean(i)))
            .collect();
        let count: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint("count_lo", count.clone(), Sense::Ge, 5.0);
        m.add_constraint("count_hi", count, Sense::Le, 10.0);
        let summary = vars
            .iter()
            .zip(order)
            .map(|(&v, &i)| (v, mean(i) - 0.5 - 2.5 * unit(i, 17)))
            .collect();
        m.add_constraint("summary", summary, Sense::Ge, 72.0);
        m
    }

    /// The search moved onto ever smaller cores, each at most half the last.
    fn assert_reduced(probe: &Probe, columns: usize) {
        assert_eq!(probe.cores[0], columns, "the first core is the whole LP");
        assert!(
            probe.cores.len() > 1,
            "no core reduction: {:?}",
            probe.cores
        );
        for pair in probe.cores.windows(2) {
            assert!(2 * pair[1] <= pair[0], "cores {:?}", probe.cores);
        }
    }

    #[test]
    fn optimum_is_invariant_under_column_permutation() {
        // Metamorphic check of the search on the core: the same problem
        // under another column order reduces through other cores and walks
        // another tree, and must still reach the same optimum.
        let n = 2000;
        let identity: Vec<usize> = (0..n).collect();
        let mut objectives = Vec::new();
        for order in [identity, shuffled(n)] {
            let model = galaxy_shaped_model(&order);
            let (res, probe) = probed(&model, &opts());
            assert_eq!(res.status, SolveStatus::Optimal);
            assert_reduced(&probe, n);
            let sol = res.solution.unwrap();
            assert!(model.is_feasible(&sol.values, 1e-6));
            objectives.push(sol.objective);
        }
        let (a, b) = (objectives[0], objectives[1]);
        assert!((a - b).abs() <= 2.0 * REL_GAP * a.abs(), "{a} vs {b}");
        // The solver metrics' view of the same thing.
        let counter = |name| spq_obs::metrics::counter_value(name).unwrap_or(0);
        assert!(counter("spq_solver_core_restarts") > 0);
        let cores = CORE_COLUMNS.inner();
        assert!(cores.count() > 0 && cores.max() >= n as u64);
    }

    #[test]
    fn node_deltas_never_outnumber_columns() {
        // A 200-node dive on a 500-column knapsack whose near-equal ratios
        // keep the tree alive. Each level re-tightens many of the same
        // columns; a node must hold one merged entry per column, not one per
        // tightening.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..500)
            .map(|i| {
                let w = 3.0 + 4.0 * unit(i, 5);
                let v = w * (1.0 + 0.02 * unit(i, 23));
                (m.add_var(VarType::Integer, 0.0, 4.0, v), w)
            })
            .collect();
        m.add_constraint("cap", vars, Sense::Le, 61.3);
        let options = SolverOptions {
            max_nodes: 200,
            ..opts()
        };
        let (res, probe) = probed(&m, &options);
        assert_eq!(res.nodes, 200, "the dive must reach the node limit");
        assert!(
            probe.peak_node_deltas > 1,
            "the dive never tightened a bound"
        );
        assert!(
            probe.peak_node_deltas <= 500,
            "a node held {} deltas on 500 columns",
            probe.peak_node_deltas
        );
    }

    #[test]
    fn a_one_node_search_reports_the_full_root() {
        // `max_nodes = 1` is how callers ask for the root relaxation alone:
        // the bound and the basis are those of the whole LP even though the
        // search would have left it for a smaller core right after the root.
        let n = 400;
        let order: Vec<usize> = (0..n).collect();
        // More than half of the columns fixed by the model itself: the core
        // reduction fires at the root, incumbent or not.
        let model = galaxy_shaped_model_within(&order, |i| if i % 5 == 0 { 3.0 } else { 0.0 });
        let (full, probe) = probed(&model, &opts());
        assert_eq!(full.status, SolveStatus::Optimal);
        assert_reduced(&probe, n);
        let root_only = SolverOptions {
            max_nodes: 1,
            ..opts()
        };
        let (res, probe) = probed(&model, &root_only);
        assert_eq!(res.nodes, 1);
        assert_eq!(probe.cores[0], n);
        assert!(!matches!(
            res.status,
            SolveStatus::Optimal | SolveStatus::Infeasible
        ));
        assert_eq!(
            res.best_bound.map(f64::to_bits),
            full.best_bound.map(f64::to_bits)
        );
        let basis = res.basis.expect("the root was solved");
        assert_eq!(basis.statuses.len(), n + model.constraints().len());
        // And that basis warm-starts the next related solve.
        let warm = SolverOptions {
            warm_start: Some(basis),
            ..opts()
        };
        let again = solve_full(&model, &warm).unwrap();
        assert_eq!(again.status, SolveStatus::Optimal);
        assert!(again.lp_iterations <= full.lp_iterations);
        let (a, b) = (
            full.solution.unwrap().objective,
            again.solution.unwrap().objective,
        );
        assert!((a - b).abs() <= 2.0 * REL_GAP * a.abs(), "{a} vs {b}");
    }

    #[test]
    fn limits_hold_across_core_reductions() {
        let n = 2000;
        let order: Vec<usize> = (0..n).collect();
        let model = galaxy_shaped_model(&order);
        let (full, probe) = probed(&model, &opts());
        assert_reduced(&probe, n);
        let best = full.solution.unwrap().objective;
        let check = |res: &MilpResult| match &res.solution {
            Some(sol) => {
                assert!(res.status.has_solution());
                assert!(model.is_feasible(&sol.values, 1e-6));
                assert!(sol.objective >= best - 2.0 * REL_GAP * best.abs());
            }
            None => assert_eq!(res.status, SolveStatus::NoSolutionLimit),
        };

        // The node budget spans the cores: one node short of the full
        // search stops on the last core with the incumbent in hand.
        let budget = SolverOptions {
            max_nodes: full.nodes - 1,
            ..opts()
        };
        let (res, probe) = probed(&model, &budget);
        assert_reduced(&probe, n);
        assert_eq!(res.nodes, full.nodes - 1);
        assert_eq!(res.status, SolveStatus::FeasibleLimit);
        check(&res);

        // Deadlines and cancellation, wherever they land in the search.
        for micros in [0, 200, 1_000, 5_000, 20_000] {
            let timed = SolverOptions {
                deadline: Deadline::within(Duration::from_micros(micros)),
                ..opts()
            };
            let res = solve_full(&model, &timed).unwrap();
            if res.status != SolveStatus::Optimal {
                assert!(res.nodes < full.nodes, "deadline {micros} us ignored");
            }
            check(&res);

            let token = crate::CancellationToken::new();
            let cancelled = SolverOptions {
                deadline: Deadline::none().with_token(token.clone()),
                ..opts()
            };
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_micros(micros));
                token.cancel();
            });
            let res = solve_full(&model, &cancelled).unwrap();
            canceller.join().unwrap();
            check(&res);
        }
    }

    #[test]
    fn indicator_rows_are_pinned() {
        // 2·x0 − x1 over x0 ∈ [0, 4], x1 ∈ [−2, 3] ranges over [−3, 10];
        // against rhs 1.5 that is M = 4.5 for `>=` and M = 8.5 for `<=`.
        let build = |sense: Sense, active_value: bool| {
            let mut m = Model::minimize();
            let x0 = m.add_var(VarType::Integer, 0.0, 4.0, 1.0);
            let x1 = m.add_var(VarType::Continuous, -2.0, 3.0, 1.0);
            let y = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            m.add_indicator(
                "ind",
                y,
                active_value,
                vec![(x0, 2.0), (x1, -1.0)],
                sense,
                1.5,
            );
            let rows = BranchBoundSolver::new(opts()).build_lp(&m, 1.0).rows;
            rows.into_iter()
                .map(|r| (r.terms, r.sense, r.rhs))
                .collect::<Vec<_>>()
        };
        let row = |y_coeff: f64, sense: Sense, rhs: f64| {
            (vec![(0, 2.0), (1, -1.0), (2, y_coeff)], sense, rhs)
        };
        assert_eq!(build(Sense::Ge, true), [row(-4.5, Sense::Ge, -3.0)]);
        assert_eq!(build(Sense::Ge, false), [row(4.5, Sense::Ge, 1.5)]);
        assert_eq!(build(Sense::Le, true), [row(8.5, Sense::Le, 10.0)]);
        assert_eq!(build(Sense::Le, false), [row(-8.5, Sense::Le, 1.5)]);
        assert_eq!(
            build(Sense::Eq, true),
            [row(8.5, Sense::Le, 10.0), row(-4.5, Sense::Ge, -3.0)]
        );
        assert_eq!(
            build(Sense::Eq, false),
            [row(-8.5, Sense::Le, 1.5), row(4.5, Sense::Ge, 1.5)]
        );
        // The cap bounds both the box the expression ranges over and `M`:
        // x ∈ [−9, 9] counts as [−6, 6], so `<=` needs M = 2 and `>=` is cut
        // from 10 to 6.
        let capped = SolverOptions {
            big_m_cap: 6.0,
            ..opts()
        };
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, -9.0, 9.0, 1.0);
        let y = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
        m.add_indicator("ind", y, true, vec![(x, 1.0)], Sense::Eq, 4.0);
        let rows = BranchBoundSolver::new(capped).build_lp(&m, 1.0).rows;
        assert_eq!(rows[0].terms, [(0, 1.0), (1, 2.0)]);
        assert_eq!((rows[0].sense, rows[0].rhs), (Sense::Le, 6.0));
        assert_eq!(rows[1].terms, [(0, 1.0), (1, -6.0)]);
        assert_eq!((rows[1].sense, rows[1].rhs), (Sense::Ge, -2.0));
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 9, binary.
        // Best: a + b + c = 3 -> weight 9, value 30.
        let mut m = Model::maximize();
        let a = m.add_var(VarType::Binary, 0.0, 1.0, 10.0);
        let b = m.add_var(VarType::Binary, 0.0, 1.0, 13.0);
        let c = m.add_var(VarType::Binary, 0.0, 1.0, 7.0);
        m.add_constraint("w", vec![(a, 3.0), (b, 4.0), (c, 2.0)], Sense::Le, 9.0);
        let res = solve_full(&m, &opts()).unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        let sol = res.solution.unwrap();
        assert!((sol.objective - 30.0).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_differs_from_lp() {
        // max x s.t. 2x <= 7, x integer: LP gives 3.5, MILP must give 3.
        let mut m = Model::maximize();
        let x = m.add_var(VarType::Integer, 0.0, 100.0, 1.0);
        m.add_constraint("c", vec![(x, 2.0)], Sense::Le, 7.0);
        let sol = solve(&m, &opts()).unwrap();
        assert_eq!(sol.value(x).round(), 3.0);
        assert!((sol.objective - 3.0).abs() < 1e-9);
    }

    #[test]
    fn doc_example() {
        let mut model = Model::maximize();
        let a = model.add_var(VarType::Integer, 0.0, 3.0, 3.0);
        let b = model.add_var(VarType::Integer, 0.0, 3.0, 2.0);
        model.add_constraint("cap", vec![(a, 1.0), (b, 1.0)], Sense::Le, 4.0);
        let solution = solve(&model, &opts()).unwrap();
        assert_eq!(solution.value(a).round(), 3.0);
        assert_eq!(solution.value(b).round(), 1.0);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 4x + 3y s.t. 2x + y >= 10, x + 3y >= 15, integer.
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 100.0, 4.0);
        let y = m.add_var(VarType::Integer, 0.0, 100.0, 3.0);
        m.add_constraint("c1", vec![(x, 2.0), (y, 1.0)], Sense::Ge, 10.0);
        m.add_constraint("c2", vec![(x, 1.0), (y, 3.0)], Sense::Ge, 15.0);
        let res = solve_full(&m, &opts()).unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        let sol = res.solution.unwrap();
        // Check feasibility and optimal value 24 (x=3, y=4 or x=0,y=10=30; best is x=3,y=4 -> 24).
        assert!(m.is_feasible(&sol.values, 1e-6));
        assert!((sol.objective - 24.0).abs() < 1e-6, "obj {}", sol.objective);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 5.0, 1.0);
        m.add_constraint("c1", vec![(x, 1.0)], Sense::Ge, 10.0);
        let res = solve_full(&m, &opts()).unwrap();
        assert_eq!(res.status, SolveStatus::Infeasible);
        assert!(res.solution.is_none());
        assert!(solve(&m, &opts()).is_err());
    }

    #[test]
    fn unbounded_milp() {
        let mut m = Model::maximize();
        let x = m.add_var(VarType::Integer, 0.0, f64::INFINITY, 1.0);
        m.add_constraint("c", vec![(x, 1.0)], Sense::Ge, 0.0);
        let res = solve_full(&m, &opts()).unwrap();
        assert_eq!(res.status, SolveStatus::Unbounded);
    }

    #[test]
    fn indicator_constraint_enforced_when_active() {
        // Choose y to maximize profit, but y = 1 forces x <= 2.
        // max 5x + 10y, x <= 2 when y = 1, x <= 8 always, x integer in [0, 8].
        let mut m = Model::maximize();
        let x = m.add_var(VarType::Integer, 0.0, 8.0, 5.0);
        let y = m.add_var(VarType::Binary, 0.0, 1.0, 10.0);
        m.add_indicator("ind", y, true, vec![(x, 1.0)], Sense::Le, 2.0);
        let sol = solve(&m, &opts()).unwrap();
        // Options: y=1, x=2 -> 20; y=0, x=8 -> 40. Optimal picks y=0.
        assert_eq!(sol.value(y).round(), 0.0);
        assert_eq!(sol.value(x).round(), 8.0);
        assert!((sol.objective - 40.0).abs() < 1e-6);
    }

    #[test]
    fn indicator_counting_constraint_like_saa() {
        // A tiny SAA-like structure: three "scenarios", each an indicator
        // y_j = 1 => a*x1 + b*x2 >= v_j; require at least 2 of 3 satisfied.
        // Minimize x1 + x2.
        let mut m = Model::minimize();
        let x1 = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        let x2 = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        let mut ys = Vec::new();
        let scenarios = [(1.0, 0.0, 3.0), (0.0, 1.0, 2.0), (1.0, 1.0, 8.0)];
        for (j, (a, b, v)) in scenarios.iter().enumerate() {
            let y = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            m.add_indicator(
                format!("ind{j}"),
                y,
                true,
                vec![(x1, *a), (x2, *b)],
                Sense::Ge,
                *v,
            );
            ys.push(y);
        }
        m.add_constraint(
            "count",
            ys.iter().map(|y| (*y, 1.0)).collect(),
            Sense::Ge,
            2.0,
        );
        let res = solve_full(&m, &opts()).unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        let sol = res.solution.unwrap();
        assert!(m.is_feasible(&sol.values, 1e-6));
        // Cheapest way to satisfy two scenarios: x1=3 (scenario 0), x2=2
        // (scenario 1) -> cost 5; satisfying scenario 2 alone costs 8.
        assert!((sol.objective - 5.0).abs() < 1e-6, "obj {}", sol.objective);
    }

    #[test]
    fn indicator_active_on_zero_value() {
        // y = 0 forces x >= 5; maximize -x so we want x small; y's cost makes
        // y = 0 attractive, but then x must be >= 5.
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        let y = m.add_var(VarType::Binary, 0.0, 1.0, 3.0);
        m.add_indicator("ind", y, false, vec![(x, 1.0)], Sense::Ge, 5.0);
        let sol = solve(&m, &opts()).unwrap();
        // Option A: y=0 -> x>=5, cost 5. Option B: y=1 -> x=0, cost 3.
        assert_eq!(sol.value(y).round(), 1.0);
        assert_eq!(sol.value(x).round(), 0.0);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn indicator_equality_constraint() {
        // y = 1 => x = 4. Maximize y + 0.01x.
        let mut m = Model::maximize();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 0.01);
        let y = m.add_var(VarType::Binary, 0.0, 1.0, 1.0);
        m.add_indicator("eq", y, true, vec![(x, 1.0)], Sense::Eq, 4.0);
        let sol = solve(&m, &opts()).unwrap();
        assert_eq!(sol.value(y).round(), 1.0);
        assert_eq!(sol.value(x).round(), 4.0);
    }

    #[test]
    fn node_limit_reports_limit_status() {
        // A knapsack whose LP relaxation is fractional at the root (weights 3,
        // capacity 7), so the search must branch; with a node limit of 1 it
        // cannot finish.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_var(VarType::Binary, 0.0, 1.0, (i % 5) as f64 + 1.0))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().map(|v| (*v, 3.0)).collect(),
            Sense::Le,
            7.0,
        );
        let mut o = opts();
        o.max_nodes = 1;
        let res = solve_full(&m, &o).unwrap();
        assert!(matches!(
            res.status,
            SolveStatus::FeasibleLimit | SolveStatus::NoSolutionLimit
        ));
    }

    #[test]
    fn limit_hits_are_counted() {
        // Every solve stopped by a limit bumps `spq_solver_limit_hits` once
        // (other tests may bump it concurrently, so only the increase is
        // checked).
        let hits = || spq_obs::metrics::counter_value("spq_solver_limit_hits").unwrap_or(0);
        let options = SolverOptions {
            max_nodes: 5,
            ..opts()
        };
        let before = hits();
        let res = solve_full(&chained_model(40), &options).unwrap();
        assert_eq!(res.nodes, 5);
        assert!(matches!(
            res.status,
            SolveStatus::FeasibleLimit | SolveStatus::NoSolutionLimit
        ));
        assert!(hits() > before, "a node-limited solve was not counted");
    }

    #[test]
    fn equality_constrained_integer_problem() {
        // x + y = 7, x - y <= 1, minimize x.
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 1.0);
        let y = m.add_var(VarType::Integer, 0.0, 10.0, 0.0);
        m.add_constraint("sum", vec![(x, 1.0), (y, 1.0)], Sense::Eq, 7.0);
        m.add_constraint("diff", vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0);
        let sol = solve(&m, &opts()).unwrap();
        assert_eq!(sol.value(x).round() + sol.value(y).round(), 7.0);
        assert_eq!(sol.value(x).round(), 0.0);
    }

    #[test]
    fn oversized_models_error_instead_of_aborting() {
        // 2000 integer columns under one cap row: a cap one byte below the
        // kernel's estimate must refuse the model with a clear error naming
        // its shape, and a cap at the estimate must solve it.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..2000)
            .map(|_| m.add_var(VarType::Integer, 0.0, 5.0, 1.0))
            .collect();
        m.add_constraint(
            "cap",
            vars.iter().map(|v| (*v, 1.0)).collect(),
            Sense::Le,
            3.0,
        );
        let lp = BranchBoundSolver::new(opts()).build_lp(&m, 1.0);
        let estimate = RevisedLp::from_problem(&lp).unwrap().estimated_bytes();
        let small = SolverOptions {
            max_solver_bytes: Some(estimate - 1),
            ..opts()
        };
        let err = solve(&m, &small).unwrap_err();
        assert_eq!(
            err,
            SolverError::ModelTooLarge {
                rows: 1,
                cols: 2001,
                bytes: estimate
            }
        );
        let fits = SolverOptions {
            max_solver_bytes: Some(estimate),
            ..opts()
        };
        let sol = solve(&m, &fits).unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn open_nodes_count_against_the_memory_cap() {
        // The open nodes' bounds and bases are charged with the LP kernel's
        // working set: a cap that leaves them too little room ends the
        // search as a limit, with the incumbent it has, never as an error.
        let model = chained_model(40);
        let lp = BranchBoundSolver::new(opts()).build_lp(&model, -1.0);
        let kernel = RevisedLp::from_problem(&lp).unwrap().estimated_bytes();
        let full = solve_full(&model, &opts()).unwrap();
        assert_eq!(full.status, SolveStatus::Optimal);
        let best = full.solution.unwrap().objective;
        let capped = |room: u64| SolverOptions {
            max_solver_bytes: Some(kernel + room),
            ..opts()
        };
        // No room: the root's children are the first open nodes to count.
        let res = solve_full(&model, &capped(0)).unwrap();
        assert_eq!(res.nodes, 1);
        assert!(matches!(
            res.status,
            SolveStatus::FeasibleLimit | SolveStatus::NoSolutionLimit
        ));
        // Room for a few dozen nodes: the search stops part way.
        let res = solve_full(&model, &capped(8 << 10)).unwrap();
        assert!(
            res.nodes > 1 && res.nodes < full.nodes,
            "{} of {} nodes",
            res.nodes,
            full.nodes
        );
        assert_eq!(res.status, SolveStatus::FeasibleLimit);
        let sol = res.solution.unwrap();
        assert!(model.is_feasible(&sol.values, 1e-6));
        assert!(sol.objective <= best + 1e-9);
        // Room for every node the search opens: the same optimum.
        let res = solve_full(&model, &capped(64 << 20)).unwrap();
        assert_eq!(res.status, SolveStatus::Optimal);
        assert_eq!(res.nodes, full.nodes);
    }

    #[test]
    fn warm_start_threads_through_related_milp_solves() {
        // Solve a knapsack, then re-solve a re-weighted variant from the
        // returned basis: statuses and objectives must stay correct.
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..8)
            .map(|i| m.add_var(VarType::Integer, 0.0, 3.0, (i % 4) as f64 + 1.0))
            .collect();
        m.add_constraint(
            "w",
            vars.iter()
                .enumerate()
                .map(|(i, v)| (*v, (i % 3) as f64 + 1.0))
                .collect(),
            Sense::Le,
            10.0,
        );
        let cold = opts();
        let first = solve_full(&m, &cold).unwrap();
        assert_eq!(first.status, SolveStatus::Optimal);
        let basis = first.basis.clone();
        assert!(basis.is_some(), "an optimal root must surface its basis");
        let mut o = cold.clone();
        o.warm_start = basis;
        let again = solve_full(&m, &o).unwrap();
        assert_eq!(again.status, SolveStatus::Optimal);
        let (a, b) = (
            first.solution.unwrap().objective,
            again.solution.unwrap().objective,
        );
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        // Warm-started root should not need more pivots than the cold root.
        assert!(again.lp_iterations <= first.lp_iterations);
    }

    #[test]
    fn continuous_and_integer_mix() {
        // max 2x + 3z, x integer <= 4, z continuous <= 2.5, x + z <= 5.
        let mut m = Model::maximize();
        let x = m.add_var(VarType::Integer, 0.0, 4.0, 2.0);
        let z = m.add_var(VarType::Continuous, 0.0, 2.5, 3.0);
        m.add_constraint("c", vec![(x, 1.0), (z, 1.0)], Sense::Le, 5.0);
        let sol = solve(&m, &opts()).unwrap();
        // For fixed x, z = min(2.5, 5 - x); the best integer choice is x = 3,
        // z = 2 with objective 12.
        assert_eq!(sol.value(x).round(), 3.0);
        assert!((sol.value(z) - 2.0).abs() < 1e-6);
        assert!((sol.objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn best_bound_brackets_optimum_for_minimization() {
        let mut m = Model::minimize();
        let x = m.add_var(VarType::Integer, 0.0, 10.0, 3.0);
        let y = m.add_var(VarType::Integer, 0.0, 10.0, 2.0);
        m.add_constraint("c", vec![(x, 1.0), (y, 1.0)], Sense::Ge, 7.0);
        let res = solve_full(&m, &opts()).unwrap();
        let sol = res.solution.unwrap();
        assert!(res.best_bound.expect("root was bounded") <= sol.objective + 1e-6);
        assert!((sol.objective - 14.0).abs() < 1e-6);
    }

    /// A splitmix64 stream for the pre-check models below.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// An integer in `lo..hi`.
        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo) as u64) as i64
        }

        fn coin(&mut self) -> bool {
            self.next() & 1 == 1
        }

        fn sense(&mut self) -> Sense {
            [Sense::Le, Sense::Ge, Sense::Eq][self.int(0, 3) as usize]
        }
    }

    /// A random model of at most 10 columns — integer, continuous and
    /// binary — with plain rows of every sense and indicator rows active on
    /// 0 and on 1 in every sense, plus the solver options it is linearized
    /// under: a `big_m_cap` small enough to bind.
    fn precheck_model(g: &mut Gen) -> (Model, SolverOptions) {
        let mut m = Model::minimize();
        let n = g.int(2, 8) as usize;
        let x: Vec<VarId> = (0..n)
            .map(|_| {
                let lo = g.int(-2, 2) as f64;
                let hi = lo + g.int(1, 5) as f64;
                let kind = if g.int(0, 4) == 0 {
                    VarType::Continuous
                } else {
                    VarType::Integer
                };
                m.add_var(kind, lo, hi, g.int(-3, 4) as f64)
            })
            .collect();
        let terms = |g: &mut Gen| -> Vec<(VarId, f64)> {
            x.iter()
                .filter_map(|&v| {
                    let c = g.int(-3, 4) as f64 * if g.coin() { 1.0 } else { 0.5 };
                    (c != 0.0).then_some((v, c))
                })
                .collect()
        };
        for r in 0..g.int(0, 3) {
            let (t, sense, rhs) = (terms(g), g.sense(), g.int(-6, 8) as f64);
            m.add_constraint(format!("c{r}"), t, sense, rhs);
        }
        for k in 0..g.int(1, 4) {
            let y = m.add_var(VarType::Binary, 0.0, 1.0, 0.0);
            let (t, sense, rhs) = (terms(g), g.sense(), g.int(-6, 8) as f64);
            m.add_indicator(format!("ind{k}"), y, g.coin(), t, sense, rhs);
        }
        let options = SolverOptions {
            big_m_cap: g.int(1, 6) as f64,
            ..opts()
        };
        (m, options)
    }

    /// A candidate inside a core's box: integers for integer columns,
    /// halves for continuous ones.
    fn precheck_candidate(core: &Core, model: &Model, g: &mut Gen) -> Vec<f64> {
        let vars = model.variables();
        (0..core.cols.len())
            .map(|k| {
                let (lo, hi) = (core.lp.lower[k], core.lp.upper[k]);
                let steps = if vars[core.cols[k]].is_integral() {
                    1.0
                } else {
                    2.0
                };
                let span = ((hi - lo) * steps) as i64;
                lo + g.int(0, span + 1) as f64 / steps
            })
            .collect()
    }

    /// Check the pre-check against `Model::is_feasible` on one random model,
    /// before and after a core reduction. Returns how many candidates the
    /// pre-check rejected and how many the model rejects.
    fn precheck_agrees(seed: u64) -> (usize, usize) {
        let mut g = Gen(seed);
        let (model, options) = precheck_model(&mut g);
        let solver = BranchBoundSolver::new(options);
        let lp = || solver.build_lp(&model, 1.0);
        let full = Core::full(lp(), &model);
        // Pin a random share of the columns (at least one stays free).
        let n = full.cols.len();
        let (mut lower, mut upper) = (full.lp.lower.clone(), full.lp.upper.clone());
        let free = g.int(0, n as i64) as usize;
        for k in 0..n {
            if k == free || g.coin() {
                continue;
            }
            let value = lower[k] + g.int(0, (upper[k] - lower[k]) as i64 + 1) as f64;
            (lower[k], upper[k]) = (value, value);
        }
        let reduced = Core::full(lp(), &model).restricted(CoreMap::folding(lower, upper), &model);
        let (mut rejected, mut infeasible) = (0, 0);
        for core in [&full, &reduced] {
            for _ in 0..40 {
                let x = precheck_candidate(core, &model, &mut g);
                let feasible = model.is_feasible(&core.expand(&x), FEAS_TOL);
                infeasible += usize::from(!feasible);
                if core.rejects(&x) {
                    rejected += 1;
                    assert!(
                        !feasible,
                        "seed {seed}: the pre-check rejected {x:?} on {:?}, which the model accepts",
                        core.cols
                    );
                }
            }
        }
        (rejected, infeasible)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Soundness of the incumbent pre-check: whatever it rejects,
        /// `Model::is_feasible` rejects too, on the whole LP and on a core.
        #[test]
        fn the_precheck_only_rejects_infeasible_candidates(seed in proptest::prelude::any::<u64>()) {
            precheck_agrees(seed);
        }
    }

    /// A random small model of the shape the exchange search serves: at
    /// most 10 integer columns in `0..=3` under a COUNT window, one or two
    /// dense real rows, some behind an indicator (active on 1 or on 0,
    /// pinned by its bounds or free, with a cost that makes activating it
    /// pay). Also returns the largest violation of an indicator's row at a
    /// point inside the COUNT window, and every assignment of the model's
    /// columns with the COUNT in its window.
    fn exchange_model(g: &mut Gen) -> (Model, f64, Vec<Vec<f64>>) {
        let mut m = Model::minimize();
        let n = g.int(3, 11) as usize;
        let x: Vec<VarId> = (0..n)
            .map(|_| m.add_var(VarType::Integer, 0.0, 3.0, g.int(-2, 9) as f64))
            .collect();
        let lo = g.int(0, 3) as f64;
        let hi = lo + g.int(1, 4) as f64;
        let count: Vec<(VarId, f64)> = x.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint("count_lo", count.clone(), Sense::Ge, lo);
        m.add_constraint("count_hi", count, Sense::Le, hi);
        fn walk(k: usize, left: f64, lo: f64, hi: f64, point: &mut [f64], out: &mut Vec<Vec<f64>>) {
            if k == point.len() {
                if hi - left >= lo {
                    out.push(point.to_vec());
                }
                return;
            }
            for v in 0..=(left.min(3.0) as usize) {
                point[k] = v as f64;
                walk(k + 1, left - v as f64, lo, hi, point, out);
            }
            point[k] = 0.0;
        }
        let mut window = Vec::new();
        walk(0, hi, lo, hi, &mut vec![0.0; n], &mut window);
        let mut need: f64 = 0.0;
        // Per indicator column: the values it may take.
        let mut indicator_values: Vec<Vec<f64>> = Vec::new();
        for r in 0..g.int(1, 3) {
            let terms: Vec<(VarId, f64)> = x
                .iter()
                .map(|&v| (v, g.int(-4, 13) as f64 * 0.5))
                .filter(|&(_, a)| a != 0.0)
                .collect();
            let sense = if g.coin() { Sense::Ge } else { Sense::Le };
            let rhs = g.int(-2, 12) as f64;
            if r == 0 && g.coin() {
                m.add_constraint(format!("d{r}"), terms, sense, rhs);
                continue;
            }
            for p in &window {
                let lhs: f64 = terms.iter().map(|&(v, a)| a * p[v.0]).sum();
                need = need.max(if sense == Sense::Ge {
                    rhs - lhs
                } else {
                    lhs - rhs
                });
            }
            // Activating the row earns what it costs to meet it.
            let (active, reward) = (g.coin(), g.int(1, 6) as f64);
            let cost = if active { -reward } else { reward };
            let (ylo, yhi) = [(0.0, 1.0), (0.0, 0.0), (1.0, 1.0)][g.int(0, 3) as usize];
            let y = m.add_var(VarType::Binary, ylo, yhi, cost);
            m.add_indicator(format!("d{r}"), y, active, terms, sense, rhs);
            indicator_values.push(if ylo == yhi {
                vec![ylo]
            } else {
                vec![0.0, 1.0]
            });
        }
        let mut points = window;
        for values in &indicator_values {
            points = points
                .into_iter()
                .flat_map(|p| {
                    values.iter().map(move |&v| {
                        let mut p = p.clone();
                        p.push(v);
                        p
                    })
                })
                .collect();
        }
        (m, need, points)
    }

    /// The best single unit move of `x`'s integer columns — drop, add, or
    /// one unit from one to another — that the model accepts, when one
    /// lowers the objective.
    fn improving_unit_move(model: &Model, x: &[f64]) -> Option<Vec<f64>> {
        let vars = model.variables();
        let movable: Vec<usize> = (0..x.len())
            .filter(|&k| vars[k].is_integral() && vars[k].lower < vars[k].upper)
            .collect();
        let steps = movable
            .iter()
            .map(|&i| (Some(i), None))
            .chain(movable.iter().map(|&j| (None, Some(j))))
            .chain(
                movable
                    .iter()
                    .flat_map(|&i| movable.iter().map(move |&j| (Some(i), Some(j)))),
            );
        let objective = model.objective_value(x);
        steps
            .filter(|(i, j)| i != j)
            .filter_map(|(i, j)| {
                let mut y = x.to_vec();
                if let Some(i) = i {
                    y[i] -= 1.0;
                }
                if let Some(j) = j {
                    y[j] += 1.0;
                }
                (model.is_feasible(&y, FEAS_TOL) && model.objective_value(&y) < objective - 1e-9)
                    .then_some(y)
            })
            .next()
    }

    /// Check the exchange search against brute force on one random model.
    /// `solve_full`, under a `big_m_cap` that keeps every feasible point,
    /// reaches the enumerated optimum. Then, on the whole LP linearized
    /// under a cap half as large — so the big-M rows of inactive indicators
    /// cut off points the model allows — the search from every feasible
    /// point ends on a feasible point with a lower objective and the
    /// indicator columns where they were, and the point it stops moving
    /// at admits no improving unit move. It never moves while an indicator
    /// is free. Returns (big-M rows whose `M` the half cap lowered,
    /// searches that moved).
    fn exchange_agrees(seed: u64) -> (usize, usize) {
        let mut g = Gen(seed);
        let (model, need, points) = exchange_model(&mut g);
        let feasible: Vec<&Vec<f64>> = points
            .iter()
            .filter(|p| model.is_feasible(p, FEAS_TOL))
            .collect();
        let optimum = feasible
            .iter()
            .map(|p| model.objective_value(p))
            .min_by(f64::total_cmp);
        let keeps_all = SolverOptions {
            big_m_cap: need.max(0.5),
            ..opts()
        };
        let res = solve_full(&model, &keeps_all).unwrap();
        match optimum {
            Some(best) => {
                assert_eq!(res.status, SolveStatus::Optimal, "seed {seed}");
                let sol = res.solution.unwrap();
                assert!(model.is_feasible(&sol.values, FEAS_TOL), "seed {seed}");
                assert!(
                    (sol.objective - best).abs() <= 1e-9,
                    "seed {seed}: solved {} against the enumerated {best}",
                    sol.objective
                );
            }
            None => assert_eq!(res.status, SolveStatus::Infeasible, "seed {seed}"),
        }

        let cap = (0.5 * need).max(0.5);
        let lp = BranchBoundSolver::new(SolverOptions {
            big_m_cap: cap,
            ..opts()
        })
        .build_lp(&model, 1.0);
        let uncapped = BranchBoundSolver::new(SolverOptions {
            big_m_cap: f64::INFINITY,
            ..opts()
        })
        .build_lp(&model, 1.0);
        let capped = (lp.rows.iter().zip(&uncapped.rows))
            .filter(|(a, b)| a.terms != b.terms)
            .count();
        let matrix = RevisedLp::from_problem(&lp).unwrap();
        let core = Core::full(lp, &model);
        let vars = model.variables();
        let indicators: Vec<usize> = model.indicators().iter().map(|ic| ic.indicator.0).collect();
        let free = indicators.iter().any(|&y| vars[y].lower < vars[y].upper);
        let mut work = ExchangeWork::default();
        let mut moved = 0;
        for start in feasible {
            if !core.exchange(matrix.matrix(), start, &mut work, &Deadline::none()) {
                continue;
            }
            assert!(!free, "seed {seed}: moved while an indicator is free");
            moved += 1;
            let mut end = core.expand(&work.x);
            assert!(
                model.is_feasible(&end, FEAS_TOL),
                "seed {seed}: {start:?} -> infeasible {end:?}"
            );
            for &y in &indicators {
                assert_eq!(end[y], start[y], "seed {seed}: indicator x{y} moved");
            }
            assert!(
                model.objective_value(&end) < model.objective_value(start),
                "seed {seed}: {start:?} -> {end:?} did not lower the objective"
            );
            // Past the work cap, a search picks up where the last one
            // stopped; where it stops moving, no unit move improves.
            while core.exchange(matrix.matrix(), &end, &mut work, &Deadline::none()) {
                end = core.expand(&work.x);
            }
            assert_eq!(
                improving_unit_move(&model, &end),
                None,
                "seed {seed}: the search stopped at {end:?}"
            );
        }
        (capped, moved)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The exchange search against brute force on random small models.
        #[test]
        fn the_exchange_search_agrees_with_enumeration(seed in proptest::prelude::any::<u64>()) {
            exchange_agrees(seed);
        }
    }

    #[test]
    fn the_exchange_search_is_exercised_under_binding_caps() {
        // Not vacuous: across these models the cap lowers big-M rows and
        // the search moves from many of the feasible points.
        let (mut capped, mut moved) = (0, 0);
        for seed in 0..100 {
            let (c, m) = exchange_agrees(seed);
            capped += c;
            moved += m;
        }
        assert!(capped >= 50, "the cap lowered {capped} big-M rows");
        assert!(moved >= 1000, "{moved} searches moved");
    }

    #[test]
    fn the_precheck_rejects_most_infeasible_candidates() {
        // Not vacuous: across these models the pre-check turns away most of
        // the candidates the model rejects.
        let (mut rejected, mut infeasible) = (0, 0);
        for seed in 0..200 {
            let (r, i) = precheck_agrees(seed);
            rejected += r;
            infeasible += i;
        }
        assert!(
            rejected * 2 > infeasible,
            "{rejected} of {infeasible} infeasible candidates rejected"
        );
    }

    #[test]
    fn solve_status_helpers() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::FeasibleLimit.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::NoSolutionLimit.has_solution());
    }

    /// A model big enough that its root relaxation takes many pivots.
    fn chained_model(n: usize) -> Model {
        let mut m = Model::maximize();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(VarType::Integer, 0.0, 10.0, 1.0 + (i % 7) as f64))
            .collect();
        for i in 0..n - 1 {
            m.add_constraint(
                format!("c{i}"),
                vec![(vars[i], 1.0), (vars[i + 1], 2.0)],
                Sense::Le,
                8.0 + (i % 3) as f64,
            );
        }
        m.add_constraint(
            "total",
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            Sense::Le,
            (n as f64) * 1.5,
        );
        m
    }

    #[test]
    fn a_cancelled_deadline_interrupts_before_any_solution() {
        let token = crate::CancellationToken::new();
        token.cancel();
        let options = SolverOptions {
            deadline: Deadline::none().with_token(token),
            ..opts()
        };
        let res = solve_full(&chained_model(40), &options).unwrap();
        assert_eq!(res.status, SolveStatus::NoSolutionLimit);
        assert!(res.solution.is_none());
        // Regression: no node was bounded, so no dual bound exists. This
        // used to report `f64::NEG_INFINITY` (a meaningless -inf "gap");
        // now the absence of a proven bound is explicit.
        assert_eq!(res.best_bound, None);
    }

    #[test]
    fn cancelling_mid_solve_returns_promptly() {
        // Cancel from another thread shortly after the solve starts; the
        // pivot-loop checkpoint must notice it, not the end of the solve.
        let token = crate::CancellationToken::new();
        let options = SolverOptions {
            deadline: Deadline::none().with_token(token.clone()),
            ..opts()
        };
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            token.cancel();
        });
        let started = Instant::now();
        let res = solve_full(&chained_model(120), &options).unwrap();
        canceller.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "cancellation must interrupt the solve, took {:?}",
            started.elapsed()
        );
        // Whatever was found so far is reported as a limit status (or the
        // solve legitimately finished first on a fast machine).
        assert!(matches!(
            res.status,
            SolveStatus::Optimal | SolveStatus::FeasibleLimit | SolveStatus::NoSolutionLimit
        ));
    }
}
