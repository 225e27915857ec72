//! What one run of a workload produced: the deterministic counts that
//! every repetition (and the traced run) must reproduce, and the figures
//! the end-to-end metrics are made from.

use crate::stats::quantile_with_stalls;
use crew_core::model::{InstanceId, RUN_HORIZON_TICKS};
use crew_core::shard::EngineLoad;
use crew_core::simnet::{Mechanism, TransportStats};
use crew_core::{InstanceOutcome, RunReport};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Every count a run produces that must not depend on wall-clock time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Simulator events processed.
    pub events: u64,
    /// Virtual time at the end of the run.
    pub virtual_time: u64,
    /// Digest of every instance's outcome and completion tick.
    pub outcome_digest: u64,
    /// Logical messages by `(kind, mechanism)`.
    pub by_kind: BTreeMap<(&'static str, Mechanism), u64>,
    /// Load charged per node id.
    pub load_by_node: BTreeMap<u32, u64>,
    /// Messages handled per node id.
    pub handled_by_node: BTreeMap<u32, u64>,
    /// Logical messages delivered.
    pub total_messages: u64,
    /// Approximate (in-memory) payload bytes.
    pub total_bytes: u64,
    /// Entries of `Metrics::by_instance`.
    pub instance_keys: usize,
    /// Wire-level counters.
    pub transport: TransportStats,
    /// Final per-engine load samples (shard counters included).
    pub engine_loads: Vec<EngineLoad>,
}

impl Fingerprint {
    /// The deterministic counts of `report`.
    pub fn of(report: &RunReport) -> Fingerprint {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for (id, outcome) in &report.outcomes {
            (id.schema.0, id.serial, *outcome as u8).hash(&mut h);
            report.completion_ticks.get(id).hash(&mut h);
        }
        let m = &report.metrics;
        Fingerprint {
            events: report.events,
            virtual_time: report.virtual_time,
            outcome_digest: h.finish(),
            by_kind: m.by_kind.clone(),
            load_by_node: m.load_by_node.iter().map(|(n, v)| (n.0, *v)).collect(),
            handled_by_node: m.handled_by_node.iter().map(|(n, v)| (n.0, *v)).collect(),
            total_messages: m.total_messages,
            total_bytes: m.total_bytes,
            instance_keys: m.by_instance.len(),
            transport: m.transport,
            engine_loads: report.engine_loads.clone(),
        }
    }

    /// Logical messages attributed to `mechanism`.
    pub fn messages(&self, mechanism: Mechanism) -> u64 {
        self.by_kind
            .iter()
            .filter(|((_, m), _)| *m == mechanism)
            .map(|(_, n)| n)
            .sum()
    }
}

/// Outcome figures of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcomes {
    /// Instances attempted.
    pub attempted: usize,
    /// Instances committed.
    pub committed: usize,
    /// Instances aborted.
    pub aborted: usize,
    /// Instances not terminal at the horizon.
    pub stalled: usize,
    /// Terminal instances whose outcome differs from the fault-free twin's.
    pub twin_mismatches: usize,
    /// Median arrival→terminal latency over all attempted instances.
    pub p50_ticks: u64,
    /// 99th percentile of the same.
    pub p99_ticks: u64,
    /// Logical messages per attempted instance.
    pub msgs_per_inst: f64,
    /// Load at the busiest scheduling node per instance.
    pub busiest_load_per_inst: f64,
    /// Terminal instances without a completion tick: a reporting defect.
    pub missing_completions: usize,
}

impl Outcomes {
    /// The figures of `report`; `twin` is the fault-free twin's outcome per
    /// instance where the workload has one.
    pub fn of(
        report: &RunReport,
        twin: Option<&BTreeMap<InstanceId, InstanceOutcome>>,
    ) -> Outcomes {
        let mut terminal = Vec::new();
        let mut stalled = Vec::new();
        let (mut committed, mut aborted, mut missing, mut mismatches) = (0, 0, 0, 0);
        for (id, outcome) in &report.outcomes {
            let arrival = report.arrival_ticks.get(id).copied().unwrap_or(0);
            match outcome {
                InstanceOutcome::Stalled => {
                    stalled.push(RUN_HORIZON_TICKS.saturating_sub(arrival));
                    continue;
                }
                InstanceOutcome::Committed => committed += 1,
                InstanceOutcome::Aborted => aborted += 1,
            }
            match report.completion_ticks.get(id) {
                Some(done) => terminal.push(done.saturating_sub(arrival)),
                None => missing += 1,
            }
            if twin.is_some_and(|t| t.get(id) != Some(outcome)) {
                mismatches += 1;
            }
        }
        let attempted = report.outcomes.len();
        let q = |p| quantile_with_stalls(&terminal, &stalled, p).unwrap_or(0);
        Outcomes {
            attempted,
            committed,
            aborted,
            stalled: stalled.len(),
            twin_mismatches: mismatches,
            p50_ticks: q(0.50),
            p99_ticks: q(0.99),
            msgs_per_inst: report.metrics.total_messages as f64 / attempted.max(1) as f64,
            busiest_load_per_inst: report.max_scheduler_load_per_instance(),
            missing_completions: missing,
        }
    }

    /// Failed instances: stalled, or terminal with an outcome that differs
    /// from the fault-free twin's.
    pub fn failed(&self) -> usize {
        self.stalled + self.twin_mismatches
    }

    /// Instances that reached a terminal state.
    pub fn terminal(&self) -> usize {
        self.committed + self.aborted
    }
}
