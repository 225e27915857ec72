//! Failure policies: in-place retry and the idempotence assertion.
//!
//! The paper's failure handling is all-or-nothing — compensate or
//! re-execute (OCR, Figure 5). A step may add a bounded retry on top:
//! every architecture re-runs a failed step in place while its
//! `retry(N)` budget lasts, and only then hands the failure to the
//! paper's rollback protocol. `idempotent` asks for no runtime behaviour;
//! it is the author's assertion that `crew-lint` reads when it checks a
//! retried step.

/// A step's retry policy: re-dispatch in place up to `max` times before
/// handing the failure to the rollback machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    /// Retry budget; `None` means unbounded (lint rejects it: an
    /// unbounded retry of a deterministic failure never terminates).
    pub max: Option<u32>,
}

impl RetryPolicy {
    /// Bounded immediate retry.
    pub fn bounded(max: u32) -> Self {
        RetryPolicy { max: Some(max) }
    }

    /// Unbounded immediate retry.
    pub fn unbounded() -> Self {
        RetryPolicy { max: None }
    }

    /// True when the budget permits another in-place retry after the
    /// failed `attempt` (1-based): a budget of `max` allows `max`
    /// re-dispatches on top of the original execution.
    pub fn allows_retry_after(&self, attempt: u32) -> bool {
        match self.max {
            Some(max) => attempt <= max,
            None => true,
        }
    }
}

/// Per-step failure-policy annotations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepPolicy {
    /// In-place retry before rollback.
    pub retry: Option<RetryPolicy>,
    /// The step's program may be re-run without duplicating effects, so a
    /// retry needs no compensation.
    pub idempotent: bool,
}

impl StepPolicy {
    /// True when no annotation is present (the paper's plain semantics).
    pub fn is_empty(&self) -> bool {
        self.retry.is_none() && !self.idempotent
    }
}

/// The bounded simulation run horizon in ticks. `crew-core` stops every
/// run at this virtual time.
pub const RUN_HORIZON_TICKS: u64 = 1_000_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_budget_counts_redispatches() {
        let p = RetryPolicy::bounded(2);
        assert!(p.allows_retry_after(1));
        assert!(p.allows_retry_after(2));
        assert!(!p.allows_retry_after(3));
    }

    #[test]
    fn unbounded_budget_never_exhausts() {
        let p = RetryPolicy::unbounded();
        assert!(p.allows_retry_after(1));
        assert!(p.allows_retry_after(1_000_000));
    }

    #[test]
    fn empty_policies_report_empty() {
        assert!(StepPolicy::default().is_empty());
        let p = StepPolicy {
            idempotent: true,
            ..StepPolicy::default()
        };
        assert!(!p.is_empty());
        let p = StepPolicy {
            retry: Some(RetryPolicy::bounded(1)),
            ..StepPolicy::default()
        };
        assert!(!p.is_empty());
    }
}
