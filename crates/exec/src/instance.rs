//! The per-instance decisions every control architecture makes the same
//! way.
//!
//! A central engine holds an instance whole; a distributed agent holds the
//! slice it navigates. Both keep the same core — rule set, data table,
//! execution history, thread weights, branch choices, the rollback budget
//! and nested-workflow links — and make the same decisions on it. The
//! architectures differ only in how the effects travel (messages, routing,
//! WAL journaling, epochs and halt probes), which stays with them.

use crate::history::InstanceHistory;
use crate::weight::Weight;
use crew_model::{
    DataEnv, InstanceId, ItemKey, RollbackSpec, SchemaId, StepDef, StepId, Value, WorkflowSchema,
};
use crew_rules::{EventKind, Firing, Rule, RuleId, RuleSet};
use std::collections::{BTreeMap, BTreeSet};

/// What a step failure leads to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureResponse {
    /// The step's `retry(N)` budget lasts: run it again in place.
    Retry,
    /// Roll the instance back to this origin.
    RollBack(StepId),
    /// The origin's rollback budget is spent: abort the instance.
    Abort,
}

/// Per-instance state shared by the engine and the distributed agent.
#[derive(Debug, Default)]
pub struct InstanceCore {
    /// Navigation rules of the steps this node drives.
    pub rules: RuleSet,
    /// The instance data table.
    pub data: DataEnv,
    /// Execution history (OCR reads it on revisits).
    pub history: InstanceHistory,
    /// Rules per step, for precondition wiring and re-firing on rollback.
    pub rule_ids: BTreeMap<StepId, Vec<RuleId>>,
    /// Incoming thread weight per step, keyed by source step: joins sum over
    /// sources, and a re-delivery from the same source replaces its slot
    /// instead of double-counting. The workflow's initial token uses
    /// `StepId(0)`.
    pub weight_in: BTreeMap<StepId, BTreeMap<StepId, Weight>>,
    /// Weight reported per terminal step (replace semantics: idempotent
    /// under re-execution, retractable by compensation).
    pub terminal_weights: BTreeMap<StepId, Weight>,
    /// Chosen branch head per XOR split, to detect branch switches on
    /// re-execution (Figure 3).
    pub branch_choice: BTreeMap<StepId, StepId>,
    /// Failures charged per rollback origin (the rollback budget).
    pub rollback_counts: BTreeMap<StepId, u32>,
    /// Steps invalidated by a rollback and not yet revisited: the OCR
    /// decision applies exactly to these. A re-firing outside this set (a
    /// loop iteration) is a fresh execution.
    pub revisit_pending: BTreeSet<StepId>,
    /// Parent instance and step, for a nested child.
    pub parent: Option<(InstanceId, StepId)>,
    /// Child instance per nested step still running (parent side).
    pub pending_nested: BTreeMap<StepId, InstanceId>,
    /// Committed.
    pub committed: bool,
    /// Aborted.
    pub aborted: bool,
}

impl InstanceCore {
    /// Committed or aborted.
    pub fn is_terminal(&self) -> bool {
        self.committed || self.aborted
    }

    /// Add `rule` as one of `step`'s rules.
    pub fn install_rule(&mut self, step: StepId, rule: Rule) -> RuleId {
        let id = self.rules.add_rule(rule);
        self.rule_ids.entry(step).or_default().push(id);
        id
    }

    /// Clear the firing marks of `step`'s rules so they fire again.
    pub fn reset_rules(&mut self, step: StepId) {
        for id in self.rule_ids.get(&step).into_iter().flatten() {
            self.rules.reset_rule(*id);
        }
    }

    /// Fire every ready rule once; nothing fires after an abort.
    pub fn fire_ready(&mut self) -> Vec<Firing> {
        if self.aborted {
            return Vec::new();
        }
        self.rules.fire_ready(&self.data)
    }

    // ---- thread weights ------------------------------------------------

    /// Thread weight flowing through `step`: the sum of its incoming
    /// slots, or 1 when none is recorded.
    pub fn flow(&self, step: StepId) -> Weight {
        match self.weight_in.get(&step) {
            Some(slots) if !slots.is_empty() => {
                slots.values().fold(Weight::ZERO, |acc, w| acc.plus(*w))
            }
            _ => Weight::ONE,
        }
    }

    /// Record `weight` arriving at `target` from `source` (`None` for the
    /// workflow's initial token). Along a loop back-edge the thread
    /// re-enters whole, so the slot replaces everything `target` held.
    pub fn arrive(
        &mut self,
        schema: &WorkflowSchema,
        target: StepId,
        source: Option<StepId>,
        weight: Weight,
    ) {
        let via_loop_back =
            source.is_some_and(|src| schema.outgoing(src).any(|a| a.loop_back && a.to == target));
        let source = source.unwrap_or(StepId(0));
        if via_loop_back {
            self.weight_in
                .insert(target, BTreeMap::from([(source, weight)]));
        } else {
            self.weight_in
                .entry(target)
                .or_default()
                .insert(source, weight);
        }
    }

    /// The weight `step` sends along each outgoing arc: forward targets
    /// first (an AND split divides the flow evenly), then loop back-edges
    /// with the whole flow.
    pub fn fan_out(&self, schema: &WorkflowSchema, step: StepId) -> Vec<(StepId, Weight)> {
        let flow = self.flow(step);
        let forward: Vec<StepId> = schema.forward_outgoing(step).map(|a| a.to).collect();
        let branch = match schema.split_kind(step) {
            Some(crew_model::SplitKind::And) if forward.len() > 1 => {
                flow.split(forward.len() as u64)
            }
            _ => flow,
        };
        let loops = schema
            .outgoing(step)
            .filter(|a| a.loop_back)
            .map(|a| (a.to, flow));
        forward
            .into_iter()
            .map(|t| (t, branch))
            .chain(loops)
            .collect()
    }

    /// Record the weight a terminal step completed with; true when the
    /// weights now sum to one and the instance commits.
    pub fn complete_terminal(&mut self, step: StepId, weight: Weight) -> bool {
        self.terminal_weights.insert(step, weight);
        let total = self
            .terminal_weights
            .values()
            .fold(Weight::ZERO, |acc, w| acc.plus(*w));
        if total.is_one() && !self.committed {
            self.committed = true;
            true
        } else {
            false
        }
    }

    // ---- failure handling ----------------------------------------------

    /// Decide what the failed `attempt` (1-based) of `failed` leads to.
    /// While the step's `retry(N)` budget lasts it is retried in place,
    /// which charges nothing. Otherwise the failure is charged to its
    /// rollback origin's budget: roll back to the origin, or abort on the
    /// `max_attempts`-th charged failure.
    pub fn decide_failure(
        &mut self,
        schema: &WorkflowSchema,
        failed: StepId,
        attempt: u32,
    ) -> FailureResponse {
        let retry = schema.expect_step(failed).policy.retry;
        if retry.is_some_and(|r| r.allows_retry_after(attempt)) {
            return FailureResponse::Retry;
        }
        let spec = schema.rollback_spec_for(failed);
        let origin = spec.map_or(failed, |r| r.origin);
        let max_attempts = spec.map_or(RollbackSpec::DEFAULT_MAX_ATTEMPTS, |r| r.max_attempts);
        let count = self.rollback_counts.entry(origin).or_default();
        *count += 1;
        if *count >= max_attempts {
            FailureResponse::Abort
        } else {
            FailureResponse::RollBack(origin)
        }
    }

    /// Void the completions of `steps`: their `step.done` facts and the
    /// weight they received. Each is revisited through OCR.
    pub fn invalidate(&mut self, steps: &BTreeSet<StepId>) {
        for &s in steps {
            self.rules.invalidate_event(EventKind::StepDone(s));
            self.weight_in.remove(&s);
            self.revisit_pending.insert(s);
        }
    }

    /// Roll back to `origin`, voiding `invalidated` (its downstream steps):
    /// the origin's rules fire again and it is revisited through OCR.
    pub fn roll_back(&mut self, origin: StepId, invalidated: &BTreeSet<StepId>) {
        self.invalidate(invalidated);
        self.reset_rules(origin);
        self.revisit_pending.insert(origin);
    }

    /// Rule and weight effects of compensating `step`: `step.compensated`
    /// holds, `step.done` no longer does, and weight slots sourced at the
    /// step are void (an abandoned branch leaves nothing at the joins).
    pub fn compensated(&mut self, schema: &WorkflowSchema, step: StepId) {
        self.rules.add_event(EventKind::StepCompensated(step));
        self.rules.invalidate_event(EventKind::StepDone(step));
        for arc in schema.forward_outgoing(step) {
            if let Some(slots) = self.weight_in.get_mut(&arc.to) {
                slots.remove(&step);
            }
        }
    }

    /// Record the branch an XOR `split` takes now; returns the previously
    /// taken head when the choice switched, whose steps must be
    /// compensated.
    pub fn branch_switch(&mut self, schema: &WorkflowSchema, split: StepId) -> Option<StepId> {
        let head = schema.xor_choice(split, &self.data)?;
        let old = self.branch_choice.insert(split, head)?;
        (old != head).then_some(old)
    }

    /// Record the outputs a completed run of `def` produced: the declared
    /// output items and the history record.
    pub fn record_done(
        &mut self,
        def: &StepDef,
        attempt: u32,
        inputs: Vec<Option<Value>>,
        outputs: Vec<Value>,
    ) {
        for (k, v) in def.output_items(&outputs) {
            self.data.set(k, v.clone());
        }
        self.history.record_done(def.id, attempt, inputs, outputs);
    }

    // ---- nested workflows ----------------------------------------------

    /// Inputs a nested step hands its child: the step's inputs, as the
    /// child's workflow inputs in declaration order.
    pub fn child_inputs(&self, def: &StepDef) -> Vec<(ItemKey, Value)> {
        def.inputs
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                self.data
                    .get(&b.source)
                    .map(|v| (ItemKey::input((i + 1) as u16), v.clone()))
            })
            .collect()
    }

    /// Outputs a committed child hands back to its parent: those of its
    /// last terminal step (in topological order) that ran.
    pub fn nested_outputs(&self, schema: &WorkflowSchema) -> Vec<Value> {
        schema
            .terminal_steps()
            .iter()
            .rev()
            .find_map(|t| self.history.record(*t).map(|r| r.outputs.clone()))
            .unwrap_or_default()
    }

    /// The child of nested step `def` committed with `outputs`: the step is
    /// done.
    pub fn nested_done(&mut self, def: &StepDef, outputs: Vec<Value>) {
        self.pending_nested.remove(&def.id);
        let attempt = self.history.begin_attempt(def.id);
        self.record_done(def, attempt, vec![], outputs);
    }
}

/// The child instance a nested `step` of `parent` launches. Bit 30 is
/// always set, so a child id never equals a top-level id (serials below
/// 2^30); distinct for parent serials below 2^20 and steps below 1009.
pub fn nested_child(parent: InstanceId, step: StepId, schema: SchemaId) -> InstanceId {
    InstanceId::new(
        schema,
        parent.serial.wrapping_mul(1009).wrapping_add(step.0) | 0x4000_0000,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{RetryPolicy, SchemaBuilder, SchemaId};

    fn linear(max_attempts: Option<u32>, retry: Option<u32>) -> WorkflowSchema {
        let mut b = SchemaBuilder::new(SchemaId(1), "lin").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        b.seq(s1, s2);
        if let Some(m) = max_attempts {
            b.on_failure_rollback_to_with_attempts(s2, s1, m);
        }
        if let Some(n) = retry {
            b.configure(s2, |d| d.policy.retry = Some(RetryPolicy::bounded(n)));
        }
        b.build().unwrap()
    }

    #[test]
    fn budget_aborts_on_the_max_attempts_th_failure() {
        for (schema, max) in [
            (linear(None, None), RollbackSpec::DEFAULT_MAX_ATTEMPTS),
            (linear(Some(4), None), 4),
        ] {
            let origin = schema
                .rollback_spec_for(StepId(2))
                .map_or(StepId(2), |r| r.origin);
            let mut core = InstanceCore::default();
            for failure in 1..max {
                assert_eq!(
                    core.decide_failure(&schema, StepId(2), 1),
                    FailureResponse::RollBack(origin),
                    "failure {failure} of {max} rolls back"
                );
            }
            assert_eq!(
                core.decide_failure(&schema, StepId(2), 1),
                FailureResponse::Abort
            );
        }
    }

    #[test]
    fn retries_charge_nothing_and_the_max_attempts_th_charge_aborts() {
        // retry(2) on B; B's failures roll back to A with a budget of 3.
        let schema = linear(Some(3), Some(2));
        let (a, b) = (StepId(1), StepId(2));
        let mut core = InstanceCore::default();
        let charged = |core: &InstanceCore| core.rollback_counts.get(&a).copied().unwrap_or(0);
        // Attempt numbers count every run of the step, across rollbacks.
        for attempt in 1..=2 {
            assert_eq!(
                core.decide_failure(&schema, b, attempt),
                FailureResponse::Retry
            );
            assert_eq!(charged(&core), 0, "a retry charges nothing");
        }
        for (attempt, expected) in [
            (3, FailureResponse::RollBack(a)),
            (4, FailureResponse::RollBack(a)),
            (5, FailureResponse::Abort),
        ] {
            assert_eq!(core.decide_failure(&schema, b, attempt), expected);
            assert_eq!(charged(&core), attempt - 2);
        }
    }

    #[test]
    fn weights_split_at_and_fan_out_and_commit_at_one() {
        let mut b = SchemaBuilder::new(SchemaId(2), "diamond").inputs(1);
        let s1 = b.add_step("A", "p");
        let s2 = b.add_step("B", "p");
        let s3 = b.add_step("C", "p");
        let s4 = b.add_step("D", "p");
        b.and_split(s1, [s2, s3]);
        b.and_join([s2, s3], s4);
        let schema = b.build().unwrap();
        let mut core = InstanceCore::default();
        core.arrive(&schema, s1, None, Weight::ONE);
        let half = Weight::new(1, 2);
        assert_eq!(core.fan_out(&schema, s1), vec![(s2, half), (s3, half)]);
        for (from, w) in [(s2, half), (s3, half)] {
            core.arrive(&schema, s4, Some(from), w);
        }
        // A re-delivery from the same source replaces its slot.
        core.arrive(&schema, s4, Some(s2), half);
        assert_eq!(core.flow(s4), Weight::ONE);
        assert!(core.complete_terminal(s4, Weight::ONE));
        assert!(!core.complete_terminal(s4, Weight::ONE), "commits once");
    }

    #[test]
    fn nested_child_ids_set_bit_30_and_match_the_additive_form() {
        let step = StepId(3);
        for serial in [0u32, 1, 77, (1 << 20) - 1] {
            let parent = InstanceId::new(SchemaId(1), serial);
            let child = nested_child(parent, step, SchemaId(2));
            assert_eq!(child.schema, SchemaId(2));
            assert_ne!(child.serial & 0x4000_0000, 0);
            let additive = serial
                .wrapping_mul(1009)
                .wrapping_add(step.0)
                .wrapping_add(0x4000_0000);
            assert_eq!(child.serial, additive, "serial {serial}");
        }
        // Above 2^20 the additive form can carry out of bit 30; the
        // bitwise form still marks the id as a child.
        let big = InstanceId::new(SchemaId(1), 3 << 20);
        assert_ne!(nested_child(big, step, SchemaId(2)).serial & 0x4000_0000, 0);
        let distinct: BTreeSet<u32> = (0..50)
            .flat_map(|s| (1..4).map(move |k| (s, k)))
            .map(|(s, k)| {
                nested_child(InstanceId::new(SchemaId(1), s), StepId(k), SchemaId(2)).serial
            })
            .collect();
        assert_eq!(distinct.len(), 150);
    }
}
