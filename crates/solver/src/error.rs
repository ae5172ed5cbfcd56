//! Solver error types.

use std::fmt;

/// Errors raised while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A variable id does not belong to the model.
    UnknownVariable(usize),
    /// A variable was declared with an empty domain (lower bound > upper bound).
    EmptyDomain {
        /// Index of the variable, shown as `x{var}`.
        var: usize,
        /// Declared lower bound.
        lower: f64,
        /// Declared upper bound.
        upper: f64,
    },
    /// A coefficient, bound or right-hand side is NaN.
    NotANumber(String),
    /// The model has no variables.
    EmptyModel,
    /// The LP relaxation is unbounded, so the MILP cannot be solved.
    Unbounded,
    /// Numerical trouble in the simplex (cycling or singular basis).
    Numerical(String),
    /// The solve was interrupted by an expired [`crate::Deadline`] or a
    /// fired [`crate::CancellationToken`] before it could finish. Raised by
    /// the LP pivot loops; branch-and-bound absorbs it and returns the best
    /// incumbent found so far, so callers of [`crate::solve_full`] only see
    /// this when the deadline was already expired at entry.
    Cancelled,
    /// The LP kernel's working set (sparse matrix plus basis factors and
    /// working vectors) would exceed the configured memory cap
    /// ([`crate::SolverOptions::max_solver_bytes`]); solving would abort the
    /// process inside the allocator.
    ModelTooLarge {
        /// Estimated rows.
        rows: usize,
        /// Estimated columns.
        cols: usize,
        /// Estimated working-set bytes.
        bytes: u64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::UnknownVariable(id) => write!(f, "unknown variable id {id}"),
            SolverError::EmptyDomain { var, lower, upper } => {
                write!(f, "variable x{var} has empty domain [{lower}, {upper}]")
            }
            SolverError::NotANumber(what) => write!(f, "{what} is NaN"),
            SolverError::EmptyModel => write!(f, "model has no variables"),
            SolverError::Unbounded => write!(f, "problem is unbounded"),
            SolverError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            SolverError::Cancelled => {
                write!(f, "solve interrupted by deadline or cancellation")
            }
            SolverError::ModelTooLarge { rows, cols, bytes } => write!(
                f,
                "model too large: the {rows}x{cols} LP working set would need {:.1} GiB \
                 (raise SolverOptions::max_solver_bytes to override)",
                *bytes as f64 / (1u64 << 30) as f64
            ),
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SolverError::EmptyDomain {
            var: 3,
            lower: 2.0,
            upper: 1.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("x3") && msg.contains('2') && msg.contains('1'));
        assert!(SolverError::Unbounded.to_string().contains("unbounded"));
        assert!(SolverError::UnknownVariable(5).to_string().contains('5'));
        assert!(SolverError::Cancelled.to_string().contains("deadline"));
        let too_large = SolverError::ModelTooLarge {
            rows: 100_000,
            cols: 200_000,
            bytes: 160 << 30,
        };
        assert!(too_large.to_string().contains("160.0 GiB"));
    }
}
