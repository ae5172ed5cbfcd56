//! Deadlines and cooperative cancellation.
//!
//! A [`Deadline`] is the caller's clock: an absolute wall-clock instant plus
//! an optional shared [`CancellationToken`], cheap to clone. It is the only
//! time limit the engine reads. Every other limit is a count (nodes, pivots,
//! scenarios) or a byte cap, so for a fixed seed a search that finishes
//! before its deadline depends only on the query and the data.
//!
//! A deadline is armed once, at the edge: from a request's `timeout_ms` and
//! cancellation, or from the paper driver's `--time-limit`. Every component
//! below it (SummarySearch and SketchRefine iterations, branch-and-bound
//! nodes, refine sub-solves, the simplex pivot loops, the validator) polls
//! the same value and observes the same instant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperative cancellation. Cloning shares the flag;
/// [`CancellationToken::cancel`] is visible to every clone, including ones
/// held by solver loops on other threads.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`Self::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// An absolute wall-clock deadline plus an optional cancellation token.
///
/// The default value is unlimited: never expired, never cancelled, so it can
/// be threaded unconditionally.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    cancel: Option<CancellationToken>,
}

impl Deadline {
    /// No deadline and no cancellation: never expires.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// Expire `limit` from now.
    pub fn within(limit: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(limit),
            cancel: None,
        }
    }

    /// Attach a cancellation token (replacing any previous one), returning
    /// `self` for chaining.
    pub fn with_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// True when neither an instant nor a token constrains this deadline.
    pub fn is_unlimited(&self) -> bool {
        self.at.is_none() && self.cancel.is_none()
    }

    /// True once the attached token (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .map(CancellationToken::is_cancelled)
            .unwrap_or(false)
    }

    /// True when work should stop: the instant passed or the token fired.
    pub fn expired(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let d = Deadline::none();
        assert!(d.is_unlimited());
        assert!(!d.expired());
        assert!(!d.is_cancelled());
    }

    #[test]
    fn within_expires_after_the_limit() {
        let d = Deadline::within(Duration::from_millis(5));
        assert!(!d.is_unlimited());
        std::thread::sleep(Duration::from_millis(10));
        assert!(d.expired());
    }

    #[test]
    fn already_past_instants_are_expired() {
        assert!(Deadline::within(Duration::ZERO).expired());
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let token = CancellationToken::new();
        let d = Deadline::none().with_token(token.clone());
        let d2 = d.clone();
        assert!(!d.expired() && !d2.expired());
        token.cancel();
        assert!(d.is_cancelled() && d2.is_cancelled());
        assert!(d.expired() && d2.expired());
        // Idempotent.
        token.cancel();
        assert!(token.is_cancelled());
    }
}
