//! Analysis resource limits.

use std::time::Instant;

use crate::AnalysisError;

/// How many breakpoints a walk may advance between wall-clock deadline
/// checks. `Instant::now()` is cheap but not free; checking every step
/// would tax the hot loop, while a stride of a few hundred keeps the
/// deadline granularity well under a millisecond even on slow machines.
/// The first breakpoint of every walk is always checked, so an already
/// expired deadline (e.g. a request that queued too long) fails fast.
const DEADLINE_CHECK_STRIDE: usize = 256;

/// Resource limits for the pseudo-polynomial breakpoint enumerations.
///
/// Both Theorem 2 (`s_min`) and Corollary 5 (`Δ_R`) are computed by
/// walking the breakpoints of exact piecewise-linear demand curves. The
/// walk is provably finite (it stops at the demand hyperperiod or at a
/// dynamically shrinking horizon), but adversarial rational parameters can
/// make the hyperperiod astronomically large; `max_breakpoints` bounds the
/// work and turns pathological instances into a reported
/// [`crate::AnalysisError::BreakpointBudgetExhausted`] instead of a hang.
///
/// An optional wall-clock [`deadline`](AnalysisLimits::with_deadline)
/// additionally bounds *time*: long-running services attach a per-request
/// deadline, and every walk checks it cooperatively (at breakpoint
/// granularity) and reports
/// [`crate::AnalysisError::DeadlineExceeded`] once it passes. Results are
/// bit-identical with or without a deadline — a deadline can only turn a
/// slow success into an error, never change a value.
///
/// # Examples
///
/// ```
/// use rbs_core::AnalysisLimits;
///
/// let limits = AnalysisLimits::default();
/// assert!(limits.max_breakpoints() >= 1_000_000);
/// let tight = AnalysisLimits::new(10_000);
/// assert_eq!(tight.max_breakpoints(), 10_000);
/// assert!(tight.deadline().is_none());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisLimits {
    max_breakpoints: usize,
    deadline: Option<Instant>,
}

impl AnalysisLimits {
    /// Creates limits with an explicit breakpoint budget and no deadline.
    #[must_use]
    pub const fn new(max_breakpoints: usize) -> AnalysisLimits {
        AnalysisLimits {
            max_breakpoints,
            deadline: None,
        }
    }

    /// The same limits with a wall-clock deadline attached. Walks that
    /// are still running when `deadline` passes report
    /// [`AnalysisError::DeadlineExceeded`].
    #[must_use]
    pub const fn with_deadline(self, deadline: Instant) -> AnalysisLimits {
        AnalysisLimits {
            deadline: Some(deadline),
            ..self
        }
    }

    /// The maximum number of demand-curve breakpoints examined per query.
    #[must_use]
    pub const fn max_breakpoints(&self) -> usize {
        self.max_breakpoints
    }

    /// The wall-clock deadline, if one is attached.
    #[must_use]
    pub const fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The cooperative walk check: called with the running breakpoint
    /// count (first call must pass `examined == 1`), it enforces the
    /// breakpoint budget on every step and the wall-clock deadline every
    /// `DEADLINE_CHECK_STRIDE` steps (including the very first, so an
    /// expired deadline fails before any real work).
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::BreakpointBudgetExhausted`] once `examined`
    ///   exceeds [`AnalysisLimits::max_breakpoints`].
    /// * [`AnalysisError::DeadlineExceeded`] once the deadline passes.
    #[inline]
    pub fn check_walk(&self, examined: usize) -> Result<(), AnalysisError> {
        if examined > self.max_breakpoints {
            return Err(AnalysisError::BreakpointBudgetExhausted { examined });
        }
        if examined % DEADLINE_CHECK_STRIDE == 1 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(AnalysisError::DeadlineExceeded { examined });
                }
            }
        }
        Ok(())
    }
}

impl Default for AnalysisLimits {
    /// A budget generous enough for every experiment in the paper
    /// (hundreds of tasks with millisecond-granularity periods), with no
    /// wall-clock deadline.
    fn default() -> AnalysisLimits {
        AnalysisLimits {
            max_breakpoints: 4_000_000,
            deadline: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn default_budget_is_large() {
        assert_eq!(AnalysisLimits::default().max_breakpoints(), 4_000_000);
        assert!(AnalysisLimits::default().deadline().is_none());
    }

    #[test]
    fn custom_budget_is_respected() {
        assert_eq!(AnalysisLimits::new(7).max_breakpoints(), 7);
    }

    #[test]
    fn check_walk_enforces_the_breakpoint_budget() {
        let limits = AnalysisLimits::new(3);
        assert!(limits.check_walk(1).is_ok());
        assert!(limits.check_walk(3).is_ok());
        assert!(matches!(
            limits.check_walk(4),
            Err(AnalysisError::BreakpointBudgetExhausted { examined: 4 })
        ));
    }

    #[test]
    fn an_expired_deadline_fails_on_the_first_breakpoint() {
        let limits = AnalysisLimits::new(1000).with_deadline(Instant::now());
        assert!(matches!(
            limits.check_walk(1),
            Err(AnalysisError::DeadlineExceeded { examined: 1 })
        ));
        // Off-stride steps skip the clock entirely.
        assert!(limits.check_walk(2).is_ok());
        // The next stride boundary checks again.
        assert!(limits.check_walk(DEADLINE_CHECK_STRIDE + 1).is_err());
    }

    #[test]
    fn a_generous_deadline_does_not_trip() {
        let limits =
            AnalysisLimits::new(1000).with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(limits.check_walk(1).is_ok());
        assert!(limits.check_walk(DEADLINE_CHECK_STRIDE + 1).is_ok());
    }
}
