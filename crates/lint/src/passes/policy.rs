//! Pass 5: failure-policy soundness.
//!
//! A step's `retry(N)` re-runs it in place before the paper's
//! compensate-or-reexecute machinery takes over, and it can contradict
//! that machinery:
//!
//! - re-running a non-idempotent update step duplicates external effects,
//!   so a retry needs either idempotence or a compensate program to undo
//!   the failed attempt;
//! - an unbounded retry of a deterministic failure never terminates: the
//!   runtime has no route that ever ends it.

use crate::{Diagnostic, LintId};
use crew_model::{StepKind, WorkflowSchema};

/// Run the pass over one schema.
pub fn run(schema: &WorkflowSchema, out: &mut Vec<Diagnostic>) {
    for def in schema.steps() {
        let p = &def.policy;
        let Some(retry) = &p.retry else {
            continue;
        };
        if !p.idempotent && def.kind == StepKind::Update && !def.is_compensatable() {
            out.push(
                Diagnostic::new(
                    LintId::RetryNonIdempotentWithoutCompensation,
                    format!(
                        "step `{}` ({}) of workflow `{}` retries but is neither \
                         idempotent nor compensatable: every failed attempt can \
                         leave external effects no rollback undoes",
                        def.name, def.id, schema.name
                    ),
                )
                .at_step(schema.id, def.id),
            );
        }
        if retry.max.is_none() {
            out.push(
                Diagnostic::new(
                    LintId::UnboundedRetryWithoutDeadLetter,
                    format!(
                        "step `{}` ({}) of workflow `{}` retries unbounded: a \
                         deterministic failure retries forever and the instance \
                         never terminates",
                        def.name, def.id, schema.name
                    ),
                )
                .at_step(schema.id, def.id),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{RetryPolicy, SchemaBuilder, SchemaId, StepPolicy};

    fn two_step_schema(comp: bool, policy: StepPolicy) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "W");
        let a = b.add_step("A", "p");
        let z = b.add_step("Z", "q");
        b.seq(a, z);
        b.configure(a, |d| {
            if comp {
                d.compensation_program = Some("p.undo".into());
            }
            d.policy = policy;
        });
        b.build().unwrap()
    }

    fn ids(schema: &WorkflowSchema) -> Vec<LintId> {
        let mut out = Vec::new();
        run(schema, &mut out);
        out.iter().map(|d| d.id).collect()
    }

    #[test]
    fn retry_without_undo_is_flagged_and_idempotence_clears_it() {
        let flagged = two_step_schema(
            false,
            StepPolicy {
                retry: Some(RetryPolicy::bounded(2)),
                ..StepPolicy::default()
            },
        );
        assert!(ids(&flagged).contains(&LintId::RetryNonIdempotentWithoutCompensation));

        let idempotent = two_step_schema(
            false,
            StepPolicy {
                retry: Some(RetryPolicy::bounded(2)),
                idempotent: true,
            },
        );
        assert!(ids(&idempotent).is_empty());

        let compensated = two_step_schema(
            true,
            StepPolicy {
                retry: Some(RetryPolicy::bounded(2)),
                ..StepPolicy::default()
            },
        );
        assert!(ids(&compensated).is_empty());
    }

    #[test]
    fn unbounded_retry_is_flagged() {
        let policy = StepPolicy {
            retry: Some(RetryPolicy::unbounded()),
            idempotent: true,
        };
        assert_eq!(
            ids(&two_step_schema(false, policy)),
            vec![LintId::UnboundedRetryWithoutDeadLetter]
        );
    }

    #[test]
    fn unannotated_schema_is_silent() {
        let schema = two_step_schema(false, StepPolicy::default());
        assert!(ids(&schema).is_empty());
    }
}
