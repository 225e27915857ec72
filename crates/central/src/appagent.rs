//! The application agent of centralized/parallel control.
//!
//! "The agent is responsible for executing the step and communicates back
//! the results of the step to the engine" (§2). Agents hold no workflow
//! state: the engine ships the program name and input values; the agent
//! runs the black box (honoring the failure plan) and replies.

use crate::msg::CentralMsg;
use crew_exec::{FailurePlan, ProgramCtx, ProgramRegistry, StepExecutor};
use crew_simnet::{Ctx, Node, NodeId};
use std::any::Any;

/// A stateless program-execution agent.
pub struct AppAgent {
    executor: StepExecutor,
    /// Cumulative program-execution load (reported to state probes).
    pub load: u64,
    /// Number of programs executed (test introspection).
    pub executed: u64,
    /// Number of compensations performed.
    pub compensated: u64,
}

impl AppAgent {
    pub fn new(registry: ProgramRegistry, plan: FailurePlan, seed: u64) -> Self {
        AppAgent {
            executor: StepExecutor::new(registry, plan, seed),
            load: 0,
            executed: 0,
            compensated: 0,
        }
    }
}

impl Node<CentralMsg> for AppAgent {
    fn on_message(&mut self, from: NodeId, msg: CentralMsg, ctx: &mut Ctx<CentralMsg>) {
        match msg {
            CentralMsg::ExecRequest {
                instance,
                step,
                program,
                inputs,
                attempt,
                cost,
            } => {
                let pctx = ProgramCtx {
                    instance,
                    step,
                    attempt,
                    seed: self.executor.seed,
                    inputs,
                };
                let (outputs, error) = match self.executor.run(&program, &pctx) {
                    Ok(outputs) => {
                        self.executed += 1;
                        self.load += cost;
                        ctx.add_load(cost);
                        (Some(outputs), None)
                    }
                    Err(e) => (None, Some(e.reason)),
                };
                ctx.send(
                    from,
                    CentralMsg::ExecResult {
                        instance,
                        step,
                        attempt,
                        outputs,
                        error,
                    },
                );
            }
            CentralMsg::CompensateRequest {
                instance,
                step,
                program,
                for_abort,
                ..
            } => {
                if let Some(name) = program {
                    if let Some(p) = self.executor.registry.get(&name) {
                        let pctx = ProgramCtx {
                            instance,
                            step,
                            attempt: 0,
                            seed: self.executor.seed,
                            inputs: vec![],
                        };
                        p.compensate(&pctx);
                        let _ = p.run(&pctx);
                    }
                }
                self.compensated += 1;
                ctx.send(
                    from,
                    CentralMsg::CompensateResult {
                        instance,
                        step,
                        for_abort,
                    },
                );
            }
            CentralMsg::StateProbe { token } => {
                ctx.send(
                    from,
                    CentralMsg::StateProbeReply {
                        token,
                        load: self.load,
                    },
                );
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crew_model::{InstanceId, SchemaId, StepId, Value};
    use crew_simnet::Simulation;

    struct Probe {
        agent: NodeId,
        got: Vec<CentralMsg>,
    }

    impl Node<CentralMsg> for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<CentralMsg>) {
            let inst = InstanceId::new(SchemaId(1), 1);
            ctx.send(
                self.agent,
                CentralMsg::ExecRequest {
                    instance: inst,
                    step: StepId(1),
                    program: "sum".into(),
                    inputs: vec![Some(Value::Int(2)), Some(Value::Int(3))],
                    attempt: 1,
                    cost: 42,
                },
            );
            ctx.send(self.agent, CentralMsg::StateProbe { token: 9 });
        }
        fn on_message(&mut self, _from: NodeId, msg: CentralMsg, _ctx: &mut Ctx<CentralMsg>) {
            self.got.push(msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn executes_and_probes() {
        let mut sim = Simulation::new(3);
        let agent = sim.add_node(AppAgent::new(
            ProgramRegistry::with_builtins(),
            FailurePlan::none(),
            3,
        ));
        let probe = sim.add_node(Probe { agent, got: vec![] });
        sim.run();
        let p = sim.node_as::<Probe>(probe).unwrap();
        assert_eq!(p.got.len(), 2);
        assert!(matches!(
            &p.got[0],
            CentralMsg::ExecResult { outputs: Some(o), .. } if o == &vec![Value::Int(5)]
        ));
        assert!(matches!(
            &p.got[1],
            CentralMsg::StateProbeReply { token: 9, load: 42 }
        ));
        let a = sim.node_as::<AppAgent>(agent).unwrap();
        assert_eq!(a.executed, 1);
    }

    #[test]
    fn injected_failure_round_trips() {
        let inst = InstanceId::new(SchemaId(1), 1);
        let plan = FailurePlan::none().fail_step(inst, StepId(1), 1);
        let mut sim = Simulation::new(3);
        let agent = sim.add_node(AppAgent::new(ProgramRegistry::with_builtins(), plan, 3));
        let probe = sim.add_node(Probe { agent, got: vec![] });
        sim.run();
        let p = sim.node_as::<Probe>(probe).unwrap();
        assert!(matches!(
            &p.got[0],
            CentralMsg::ExecResult {
                outputs: None,
                error: Some(_),
                ..
            }
        ));
    }
}
