//! Cooperative cancellation for running campaigns.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between whoever
//! owns a campaign (a service connection handler, a signal handler, a
//! test) and the engine executing it. The engine never preempts work:
//! the sequential path checks the token between plan rows, and the
//! work-stealing scheduler checks it at batch-claim boundaries, so a
//! cancelled checkpointed campaign always leaves *whole* batch segments
//! behind — exactly the segments a rerun of the same stored campaign
//! replays.
//! Cancellation surfaces as [`TargetError::Cancelled`].
//!
//! [`TargetError::Cancelled`]: crate::target::TargetError::Cancelled

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared cancellation flag for one campaign execution.
///
/// Clones observe the same flag; once [`CancelToken::cancel`] is called
/// the token stays cancelled forever (there is no reset — a new run
/// gets a new token). The default token is never cancelled, so
/// campaigns that never attach one pay a single relaxed atomic load per
/// check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread. The
    /// engine notices at its next check point (row boundary or batch
    /// claim) — in-flight batches finish and checkpoint first.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        b.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn token_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<CancelToken>();
    }
}
