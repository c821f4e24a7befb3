//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelToken`] combines an explicit cancellation flag (set from
//! another thread via [`CancelToken::cancel`]) with an optional wall-clock
//! deadline fixed at construction. The solver pipelines poll the token at
//! phase boundaries and inside their search loops and bail out with
//! [`SchedError::Cancelled`]; cancellation is
//! therefore prompt but not preemptive — a single simplex pivot or MM
//! feasibility probe runs to completion.
//!
//! Tokens are cheap to clone (an `Arc`); clones share the flag, so
//! cancelling any clone cancels them all.

use crate::error::SchedError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared handle used to request that an in-flight solve stop early.
///
/// The default token never fires: `CancelToken::default()` is the "no
/// cancellation" hook, so existing call sites pay only an atomic load.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only fires when [`cancel`](CancelToken::cancel) is
    /// called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that also fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that fires `budget` from now.
    pub fn with_timeout(budget: Duration) -> CancelToken {
        CancelToken::with_deadline(Instant::now() + budget)
    }

    /// Request cancellation. Idempotent; affects all clones of this token.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Whether the token has fired (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match self.inner.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// Time left until the deadline; `None` for tokens without one.
    /// Returns `Duration::ZERO` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Poll point for solver loops: `Err(SchedError::Cancelled)` once the
    /// token has fired, `Ok(())` otherwise.
    pub fn check(&self) -> Result<(), SchedError> {
        if self.is_cancelled() {
            Err(SchedError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// An [`ise_simplex::InterruptHandle`] view of this token, for wiring
    /// into [`ise_simplex::SolveOptions::interrupt`] so a deadline aborts a
    /// simplex run mid-pivot-loop.
    pub fn interrupt_handle(&self) -> ise_simplex::InterruptHandle {
        ise_simplex::InterruptHandle::new(Arc::new(self.clone()))
    }
}

impl ise_simplex::Interrupt for CancelToken {
    fn interrupted(&self) -> bool {
        self.is_cancelled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_fires_all_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        clone.cancel();
        assert!(t.is_cancelled());
        assert!(matches!(t.check(), Err(SchedError::Cancelled)));
    }

    #[test]
    fn deadline_fires() {
        let t = CancelToken::with_timeout(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let later = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!later.is_cancelled());
        assert!(later.remaining().unwrap() > Duration::from_secs(3599));
    }

    #[test]
    fn independent_tokens_do_not_interfere() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }
}
