//! # spq-solver — a from-scratch mixed-integer linear programming solver
//!
//! The paper evaluates stochastic package queries by handing deterministic
//! integer linear programs (DILPs) to IBM CPLEX. CPLEX is proprietary, so
//! this crate provides the solver substrate from scratch:
//!
//! * [`Model`] — a builder for (mixed-)integer linear programs: bounded
//!   continuous/integer/binary variables, linear `<=`/`>=`/`=` constraints,
//!   *indicator constraints* (`y = 1  =>  a·x ⊙ v`, the construct used by
//!   SAA formulations for probabilistic constraints), and a linear objective.
//! * [`revised`] — the LP kernel: a sparse bounded-variable revised simplex
//!   (CSC matrix, LU + eta-file basis inverse, bound-flip ratio test,
//!   Dantzig pricing with a Bland switchover) that accepts a [`Basis`] warm
//!   start and returns one for the next related solve. Its conformance
//!   oracle, a dense two-phase tableau, lives in the test tree.
//! * [`branch_bound`] — branch-and-bound over the LP relaxation with big-M
//!   linearization of indicator constraints, most-fractional branching, a
//!   rounding incumbent heuristic, warm-started child nodes (each child
//!   re-solves from its parent's basis), a search that moves onto the LP's
//!   live core as reduced-cost fixing pins columns, and a node limit plus
//!   the caller's deadline that return the best incumbent found (mirroring
//!   the paper's use of a solver wall-clock limit: "when the time limit
//!   expires, we interrupt CPLEX and get the best solution found by the
//!   solver until then"; here a node count stands in for it).
//!
//! ```
//! use spq_solver::{Model, Sense, VarType, SolverOptions};
//!
//! // maximize 3a + 2b  s.t.  a + b <= 4, a <= 3, b <= 3, a,b integer
//! let mut model = Model::maximize();
//! let a = model.add_var(VarType::Integer, 0.0, 3.0, 3.0);
//! let b = model.add_var(VarType::Integer, 0.0, 3.0, 2.0);
//! model.add_constraint("cap", vec![(a, 1.0), (b, 1.0)], Sense::Le, 4.0);
//! let solution = spq_solver::solve(&model, &SolverOptions::default()).unwrap();
//! assert_eq!(solution.value(a).round() as i64, 3);
//! assert_eq!(solution.value(b).round() as i64, 1);
//! ```

pub mod basis;
pub mod branch_bound;
pub mod deadline;
pub mod error;
pub mod model;
pub mod presolve;
pub mod revised;
pub mod sparse;
pub mod standard_form;

pub use basis::{Basis, VarStatus};
pub use branch_bound::{
    solve, solve_full, BranchBoundSolver, MilpResult, SolveStatus, SolverOptions,
};
pub use deadline::{CancellationToken, Deadline};
pub use error::SolverError;
pub use model::{
    Constraint, Direction, IndicatorConstraint, LinearExpr, Model, Sense, Solution, VarId, VarType,
    Variable,
};
pub use revised::{LpStatus, PivotRules, RevisedLp, RevisedSolution, SimplexWork};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SolverError>;
