//! Recovery-related schema annotations: compensation dependent sets and
//! rollback targets.
//!
//! A *compensation dependent set* (paper §3) names steps whose compensations
//! interfere: "A compensation dependent set is to be compensated only in the
//! reverse execution order of its member steps." This is deliberately
//! different from Leymann's spheres of joint compensation — membership does
//! not force compensation, it only constrains the *order* when OCR decides
//! members must be compensated.

use crate::ids::StepId;
use std::collections::BTreeSet;

/// A set of steps whose compensations must run in reverse execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompensationSet {
    /// Stable identifier within the schema (index into the schema's list).
    pub id: u32,
    /// Member steps. A step may belong to at most one set (validated by the
    /// schema builder) — overlapping sets would give contradictory orders.
    pub members: BTreeSet<StepId>,
}

impl CompensationSet {
    /// Create a new, empty value.
    pub fn new(id: u32, members: impl IntoIterator<Item = StepId>) -> Self {
        CompensationSet {
            id,
            members: members.into_iter().collect(),
        }
    }

    /// Contains.
    pub fn contains(&self, step: StepId) -> bool {
        self.members.contains(&step)
    }
}

/// Where a workflow rolls back to when a given step fails. The paper's
/// failure-handling specification lets the designer pick the rollback
/// origin ("the failure handling specification may require the workflow to
/// partially rollback to step S2").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackSpec {
    /// The step whose failure triggers this rollback.
    pub failing_step: StepId,
    /// The step execution restarts from (the `OriginStep` of the
    /// `WorkflowRollback`/`HaltThread` interfaces).
    pub origin: StepId,
    /// Failures charged to this rollback's origin before the workflow
    /// aborts: the `max_attempts`-th failure aborts, so at most
    /// `max_attempts - 1` rollbacks run. Guards against livelock when a
    /// step fails deterministically.
    pub max_attempts: u32,
}

impl RollbackSpec {
    /// The budget of a rollback spec that does not set one, and of a
    /// failing step without any spec.
    pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

    /// Create a new, empty value.
    pub fn new(failing_step: StepId, origin: StepId) -> Self {
        RollbackSpec {
            failing_step,
            origin,
            max_attempts: Self::DEFAULT_MAX_ATTEMPTS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_set_membership() {
        let set = CompensationSet::new(0, [StepId(2), StepId(4)]);
        assert!(set.contains(StepId(2)));
        assert!(!set.contains(StepId(3)));
        assert_eq!(set.members.len(), 2);
    }

    #[test]
    fn rollback_spec_defaults() {
        let r = RollbackSpec::new(StepId(4), StepId(2));
        assert_eq!(r.failing_step, StepId(4));
        assert_eq!(r.origin, StepId(2));
        assert_eq!(r.max_attempts, 3);
    }
}
