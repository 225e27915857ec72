//! Workflow packets — the unit of state transfer between distributed
//! agents.
//!
//! "After the execution of a step, an agent has to communicate the entire
//! state information of the workflow that it is aware of to the agent
//! responsible for executing the next step. This information is
//! communicated via a *workflow packet*" (§4.1). A packet carries the
//! workflow/instance identifiers, the action (execute step S), the
//! accumulated data items, the accumulated events, and — piggybacked to
//! save messages (§5.1) — the relative-ordering leading/lagging tags.
//! Figure 7 shows the paper's sample packet; [`WorkflowPacket::render`]
//! reproduces that layout.

use crate::weight::Weight;
use crew_model::{AgentId, DataEnv, InstanceId, StepId};
use crew_rules::EventKind;
use std::fmt::Write as _;

/// A relative-ordering obligation piggybacked on packets.
///
/// For the *leading* workflow: "after your step `local_step` completes,
/// notify tag `tag`". For the *lagging* workflow: "before your step
/// `local_step` fires, wait for tag `tag`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RoTag {
    /// The step of *this* packet's instance the obligation binds.
    pub local_step: StepId,
    /// External event tag exchanged via `AddEvent()`.
    pub tag: u64,
    /// The partner instance involved (routing for the notify side).
    pub partner: InstanceId,
    /// The partner's step (routing: its eligible agents get the event).
    pub partner_step: StepId,
}

/// The workflow packet.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowPacket {
    /// The instance this packet navigates.
    pub instance: InstanceId,
    /// Action: execute this step ("Action: Execute S3").
    pub target_step: StepId,
    /// The step whose completion produced this packet (`None` for the
    /// initial packet). Keys the receiver's per-source weight slot so
    /// re-deliveries replace rather than double-count at joins.
    pub source_step: Option<StepId>,
    /// Under load-balanced successor selection: the agent the sender chose
    /// to execute `target_step` (overrides the deterministic designation
    /// at every receiver). `None` under the default designated-hash scheme.
    pub executor: Option<AgentId>,
    /// Rollback epoch — bumped by each `WorkflowRollback`; packets from a
    /// previous epoch are stale and ignored (the event-invalidation
    /// strategy of §5.2 realized race-free).
    pub epoch: u32,
    /// Accumulated data items (the state information).
    pub data: DataEnv,
    /// Accumulated events with occurrence generations (for rule-based
    /// navigation at the receiver; generations make packet merges
    /// idempotent yet able to deliver fresh occurrences after rollback and
    /// across loop iterations).
    pub events: Vec<(EventKind, u32)>,
    /// Relative-ordering obligations where this instance leads.
    pub ro_leading: Vec<RoTag>,
    /// Relative-ordering obligations where this instance lags.
    pub ro_lagging: Vec<RoTag>,
    /// Thread-accounting weight (see [`crate::weight`]).
    pub weight: Weight,
}

impl WorkflowPacket {
    /// A fresh packet for the start step of an instance.
    pub fn initial(instance: InstanceId, start: StepId, data: DataEnv) -> Self {
        WorkflowPacket {
            instance,
            target_step: start,
            source_step: None,
            executor: None,
            epoch: 0,
            data,
            events: vec![(EventKind::WorkflowStart, 1)],
            ro_leading: Vec::new(),
            ro_lagging: Vec::new(),
            weight: Weight::ONE,
        }
    }

    /// Render in the Figure 7 layout.
    pub fn render(&self, workflow_name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Workflow Name: {workflow_name}");
        let _ = writeln!(out, "Instance Number: {}", self.instance.serial);
        let _ = writeln!(out, "Action: Execute {}", self.target_step);
        let _ = writeln!(out, "Data Items:");
        for (k, v) in self.data.iter() {
            let _ = writeln!(out, "  {k} = {v}");
        }
        let _ = write!(out, "Events:");
        for (e, _) in &self.events {
            let _ = write!(out, " {}", e.code());
        }
        let _ = writeln!(out);
        let _ = write!(out, "R.O. Leading:");
        for t in &self.ro_leading {
            let _ = write!(out, " {}.{}", t.partner, t.partner_step);
        }
        let _ = writeln!(out);
        let _ = write!(out, "R.O. Lagging:");
        for t in &self.ro_lagging {
            let _ = write!(out, " {}.{}", self.instance, t.local_step);
        }
        let _ = writeln!(out);
        out
    }

    /// Approximate wire size in bytes (for the packet-growth ablation):
    /// ids + per-item and per-event costs.
    pub fn approx_size(&self) -> usize {
        let mut n = 32; // headers: ids, epoch, weight, action
        for (_, v) in self.data.iter() {
            n += 8 // key
                + match v {
                    crew_model::Value::Str(s) => 4 + s.len(),
                    _ => 8,
                };
        }
        n += self.events.len() * 6;
        n += (self.ro_leading.len() + self.ro_lagging.len()) * 24;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{ItemKey, SchemaId, Value};

    /// Build the exact packet of the paper's Figure 7: WF2 instance 4,
    /// executing S3, with workflow inputs and outputs of S1/S2, events
    /// WF.S S1.D S2.D, one leading and one lagging tag.
    fn figure7_packet() -> WorkflowPacket {
        let instance = InstanceId::new(SchemaId(2), 4);
        let mut data = DataEnv::new();
        data.set(ItemKey::input(1), Value::Int(90));
        data.set(ItemKey::input(2), Value::from("Blower"));
        data.set(ItemKey::output(StepId(1), 1), Value::Int(20));
        data.set(ItemKey::output(StepId(1), 2), Value::from("Gasket"));
        data.set(ItemKey::output(StepId(2), 1), Value::Int(45));
        data.set(ItemKey::output(StepId(2), 2), Value::Int(400));
        WorkflowPacket {
            instance,
            target_step: StepId(3),
            source_step: Some(StepId(2)),
            executor: None,
            epoch: 0,
            data,
            events: vec![
                (EventKind::WorkflowStart, 1),
                (EventKind::StepDone(StepId(1)), 1),
                (EventKind::StepDone(StepId(2)), 1),
            ],
            ro_leading: vec![RoTag {
                local_step: StepId(3),
                tag: 0xBEEF,
                partner: InstanceId::new(SchemaId(3), 15),
                partner_step: StepId(5),
            }],
            ro_lagging: vec![RoTag {
                local_step: StepId(2),
                tag: 0xF00D,
                partner: InstanceId::new(SchemaId(5), 12),
                partner_step: StepId(2),
            }],
            weight: Weight::ONE,
        }
    }

    #[test]
    fn renders_like_figure7() {
        let p = figure7_packet();
        let r = p.render("WF2");
        assert!(r.contains("Workflow Name: WF2"));
        assert!(r.contains("Instance Number: 4"));
        assert!(r.contains("Action: Execute S3"));
        assert!(r.contains("WF.I1 = 90"));
        assert!(r.contains("WF.I2 = Blower"));
        assert!(r.contains("S1.O2 = Gasket"));
        assert!(r.contains("S2.O1 = 45"));
        assert!(r.contains("Events: WF.S S1.D S2.D"));
        assert!(r.contains("R.O. Leading: WF3#15.S5"));
        assert!(r.contains("R.O. Lagging: WF2#4.S2"));
    }

    #[test]
    fn initial_packet_shape() {
        let inst = InstanceId::new(SchemaId(1), 1);
        let p = WorkflowPacket::initial(inst, StepId(1), DataEnv::new());
        assert_eq!(p.events, vec![(EventKind::WorkflowStart, 1)]);
        assert_eq!(p.epoch, 0);
        assert!(p.weight.is_one());
    }

    #[test]
    fn size_grows_with_payload() {
        let inst = InstanceId::new(SchemaId(1), 1);
        let small = WorkflowPacket::initial(inst, StepId(1), DataEnv::new());
        let big = figure7_packet();
        assert!(big.approx_size() > small.approx_size());
    }
}
