//! Cooperative cancellation and deadlines for long traces and
//! simulations.
//!
//! A [`CancelToken`] combines a shared cancellation flag with an
//! optional wall-clock deadline. The simulate driver
//! (`cdmm_vmsim::simulate_with`) polls the token once per compressed
//! trace *run* — not per reference — so the simulate hot loop stays
//! untouched: a run of a few thousand references pays one atomic load
//! and (when a deadline is set) one monotonic clock read. The trace interpreter polls it once per
//! [`crate::interp::POLL_INTERVAL`] emitted events, so a deadline also
//! bounds the *prepare* phase on huge inline sources.
//!
//! Tokens are cheap to clone; every clone shares the same flag, so a
//! supervisor can hand one token to a job and cancel it from outside
//! (the service layer's load-shed and shutdown paths), while the
//! deadline bounds the job even when nobody is watching.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable stop signal: an atomic flag plus an optional deadline.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never stops anything until [`CancelToken::cancel`]
    /// is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally expires `timeout` from now. A timeout
    /// too large to represent is treated as "no deadline".
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Instant::now().checked_add(timeout),
        }
    }

    /// Raises the cancellation flag on every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] was called (ignores the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Whether the wall-clock deadline (if any) has passed.
    pub fn is_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The poll the driver runs between compressed runs: cancelled or
    /// past the deadline.
    #[inline]
    pub fn should_stop(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.is_expired()
    }

    /// Time left before the deadline (`None` without one; zero once
    /// expired).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_does_not_stop() {
        let t = CancelToken::new();
        assert!(!t.should_stop());
        assert!(!t.is_cancelled());
        assert!(!t.is_expired());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn cancel_reaches_every_clone() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.should_stop());
        assert!(c.is_cancelled());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_expired());
        assert!(t.should_stop());
        assert!(!t.is_cancelled(), "expiry is not cancellation");
        assert_eq!(t.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_deadline_does_not_stop() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.should_stop());
        assert!(t.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn unrepresentable_deadline_means_none() {
        let t = CancelToken::with_deadline(Duration::MAX);
        assert!(!t.should_stop());
        assert_eq!(t.remaining(), None);
    }
}
