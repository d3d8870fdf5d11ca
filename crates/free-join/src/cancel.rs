//! Cooperative cancellation for in-flight query execution.
//!
//! A [`CancelToken`] is a shared handle that the executor polls at cheap,
//! coarse boundaries: per cover entry and per batch flush in the one cover
//! walk, and per task on the work-stealing path. Nothing preempts a running
//! probe; instead the walk checks the token often enough that a fired token
//! stops the query within a few batches.
//!
//! Three things can fire a token:
//!
//! * an explicit [`CancelToken::cancel`] call (the serve path's `OP_CANCEL`),
//! * an armed deadline elapsing ([`CancelReason::Deadline`]),
//! * the result-buffer byte budget tripping ([`CancelReason::MemoryBudget`]) —
//!   [`CancelToken::charge_bytes`] is called by the chunk buffer on every
//!   flush, so a runaway cross product degrades into a typed error instead of
//!   an OOM kill.
//!
//! The disabled token (`CancelToken::default()`) holds no allocation and its
//! check is a single `Option` discriminant test, so code paths that never use
//! cancellation pay nothing.

use fj_query::CancelReason;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flag encoding: 0 = live, otherwise `reason as u8 + 1`.
const LIVE: u8 = 0;

fn encode(reason: CancelReason) -> u8 {
    match reason {
        CancelReason::Deadline => 1,
        CancelReason::Explicit => 2,
        CancelReason::MemoryBudget => 3,
    }
}

fn decode(flag: u8) -> Option<CancelReason> {
    match flag {
        1 => Some(CancelReason::Deadline),
        2 => Some(CancelReason::Explicit),
        3 => Some(CancelReason::MemoryBudget),
        _ => None,
    }
}

#[derive(Debug)]
struct Inner {
    /// 0 while live; first cancellation reason (encoded) wins thereafter.
    flag: AtomicU8,
    /// Absolute instant after which [`CancelToken::poll`] trips the flag.
    deadline: Option<Instant>,
    /// Result-buffer byte budget; 0 disables the memory guard.
    max_result_bytes: u64,
    /// Bytes charged so far via [`CancelToken::charge_bytes`].
    charged: AtomicU64,
}

/// Shared cancellation handle. Cloning is cheap (an `Arc` bump); all clones
/// observe the same flag, deadline and byte budget.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelToken {}

impl CancelToken {
    /// A token that can be cancelled explicitly but has no deadline and no
    /// byte budget.
    pub fn new() -> Self {
        Self::with_limits(None, 0)
    }

    /// The disabled token: never fires, allocates nothing, checks in O(1).
    pub fn disabled() -> Self {
        CancelToken { inner: None }
    }

    /// A token whose deadline elapses `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_limits(Some(Instant::now() + timeout), 0)
    }

    /// A token with an optional absolute deadline and a result-byte budget
    /// (0 = no budget).
    pub fn with_limits(deadline: Option<Instant>, max_result_bytes: u64) -> Self {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicU8::new(LIVE),
                deadline,
                max_result_bytes,
                charged: AtomicU64::new(0),
            })),
        }
    }

    /// Is this the disabled (never-firing) token?
    pub fn is_disabled(&self) -> bool {
        self.inner.is_none()
    }

    /// Fire the token with the given reason. The first reason to land wins;
    /// later calls are no-ops. Firing a disabled token is a no-op.
    pub fn cancel(&self, reason: CancelReason) {
        if let Some(inner) = &self.inner {
            let _ = inner.flag.compare_exchange(
                LIVE,
                encode(reason),
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    /// The reason the token fired, if it has.
    ///
    /// This only reads the flag — it does not consult the clock. Use
    /// [`CancelToken::poll`] at check sites that should also observe the
    /// deadline.
    pub fn fired(&self) -> Option<CancelReason> {
        let inner = self.inner.as_deref()?;
        decode(inner.flag.load(Ordering::Acquire))
    }

    /// Check the flag and, if a deadline is armed, the clock. Trips the flag
    /// with [`CancelReason::Deadline`] when the deadline has elapsed.
    pub fn poll(&self) -> Option<CancelReason> {
        let inner = self.inner.as_deref()?;
        if let Some(reason) = decode(inner.flag.load(Ordering::Acquire)) {
            return Some(reason);
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                self.cancel(CancelReason::Deadline);
                return self.fired();
            }
        }
        None
    }

    /// Charge `bytes` against the result-byte budget; trips the token with
    /// [`CancelReason::MemoryBudget`] when the running total exceeds it.
    /// No-op when the token is disabled or has no budget.
    pub fn charge_bytes(&self, bytes: u64) {
        let Some(inner) = self.inner.as_deref() else { return };
        if inner.max_result_bytes == 0 {
            return;
        }
        let total = inner.charged.fetch_add(bytes, Ordering::AcqRel).saturating_add(bytes);
        if total > inner.max_result_bytes {
            self.cancel(CancelReason::MemoryBudget);
        }
    }

    /// Bytes charged so far (0 for the disabled token).
    pub fn charged_bytes(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.charged.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_token_never_fires() {
        let t = CancelToken::disabled();
        assert!(t.is_disabled());
        assert_eq!(t.fired(), None);
        assert_eq!(t.poll(), None);
        t.cancel(CancelReason::Explicit);
        assert_eq!(t.fired(), None);
        t.charge_bytes(u64::MAX);
        assert_eq!(t.poll(), None);
        assert_eq!(t.charged_bytes(), 0);
    }

    #[test]
    fn default_is_disabled() {
        assert!(CancelToken::default().is_disabled());
        assert_eq!(CancelToken::default(), CancelToken::disabled());
    }

    #[test]
    fn explicit_cancel_is_sticky_and_first_wins() {
        let t = CancelToken::new();
        assert_eq!(t.fired(), None);
        t.cancel(CancelReason::Explicit);
        assert_eq!(t.fired(), Some(CancelReason::Explicit));
        t.cancel(CancelReason::MemoryBudget);
        assert_eq!(t.fired(), Some(CancelReason::Explicit));
        // Clones share the flag.
        let c = t.clone();
        assert_eq!(c.fired(), Some(CancelReason::Explicit));
        assert_eq!(c, t);
    }

    #[test]
    fn deadline_trips_on_poll() {
        let t = CancelToken::with_deadline(Duration::from_millis(0));
        // fired() alone never consults the clock.
        assert_eq!(t.fired(), None);
        assert_eq!(t.poll(), Some(CancelReason::Deadline));
        assert_eq!(t.fired(), Some(CancelReason::Deadline));
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(t.poll(), None);
    }

    #[test]
    fn byte_budget_trips_once_exceeded() {
        let t = CancelToken::with_limits(None, 100);
        t.charge_bytes(60);
        assert_eq!(t.fired(), None);
        t.charge_bytes(60);
        assert_eq!(t.fired(), Some(CancelReason::MemoryBudget));
        assert_eq!(t.charged_bytes(), 120);
    }

    #[test]
    fn zero_budget_disables_memory_guard() {
        let t = CancelToken::new();
        t.charge_bytes(u64::MAX / 2);
        t.charge_bytes(u64::MAX / 2);
        assert_eq!(t.fired(), None);
    }
}
