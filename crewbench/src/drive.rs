//! The windowed drive: the same runs `WorkflowSystem::run` makes, driven
//! through the layers' own entry points (`CentralRun`/`DistRun`, windowed
//! `sim.run_until`). The traced run puts a span around every call; the
//! untraced run's timed repetitions run a kernel slice between windows
//! instead (see `calib`).
//!
//! The setup order below mirrors `crew-core`'s (crashes, transport, service
//! costs, starts, actions): the simulator orders same-tick events by
//! insertion, so a different order could change the run. The passivity
//! check compares every count of a traced run with the untraced one.

use crate::calib::Slices;
use crate::trace::Tracer;
use crate::workload::{changed_inputs, start_inputs, Action, Inputs};
use crew_core::analysis::Params;
use crew_core::central::CentralRun;
use crew_core::distributed::{DistRun, Outcome};
use crew_core::model::{InstanceId, RUN_HORIZON_TICKS};
use crew_core::simnet::{Classify, NodeId, OutboxLog, RetransmitConfig, Simulation, WalOutbox};
use crew_core::storage::{Decode, Encode, InstanceStatus};
use crew_core::{CrashTarget, InstanceOutcome, NetFaultPlan, RunReport};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Virtual ticks per `run_until` window of the traced drive.
const WINDOW_TICKS: u64 = 1_000;

/// Event budget of every run, as `crew-core` sets it.
const MAX_EVENTS: u64 = 50_000_000;

/// One sample message per `kind()`, captured from channel sends.
type Samples<M> = Arc<Mutex<BTreeMap<&'static str, M>>>;

/// A channel log that keeps the first message of every kind it is asked
/// to log and otherwise behaves exactly like the WAL-backed outbox the
/// reliable channels use.
struct SampleOutbox<M: Encode + Decode> {
    inner: WalOutbox<M>,
    samples: Samples<M>,
}

impl<M: Encode + Decode + Classify + Clone + Send> OutboxLog<M> for SampleOutbox<M> {
    fn log_send(&mut self, to: NodeId, seq: u64, payload: &M) {
        self.samples
            .lock()
            .expect("sample map lock poisoned")
            .entry(payload.kind())
            .or_insert_with(|| payload.clone());
        self.inner.log_send(to, seq, payload);
    }
    fn log_ack(&mut self, peer: NodeId, cum: u64) {
        self.inner.log_ack(peer, cum);
    }
    fn log_delivered(&mut self, peer: NodeId, cum: u64) {
        self.inner.log_delivered(peer, cum);
    }
    fn replay(&mut self) -> crew_core::simnet::reliable::PersistedChannelState<M> {
        self.inner.replay()
    }
}

/// How a drive routes traffic.
enum Transport<'a, M> {
    /// As the workload configures it (the traced run).
    AsConfigured,
    /// Through reliable channels that sample one message per kind: under
    /// the workload's fault plan if it has one, on a quiet network
    /// otherwise.
    Sampling(&'a Samples<M>),
}

fn install<M>(sim: &mut Simulation<M>, inputs: &Inputs, transport: Transport<'_, M>)
where
    M: Encode + Decode + Classify + Clone + std::fmt::Debug + Send + 'static,
{
    let plan = inputs.system.net_faults.clone();
    match transport {
        Transport::AsConfigured => {
            if let Some(plan) = plan {
                sim.enable_net_faults(plan);
            }
        }
        Transport::Sampling(samples) => {
            let samples = samples.clone();
            sim.install_transport(
                plan.unwrap_or_else(NetFaultPlan::none),
                RetransmitConfig::default(),
                move || {
                    Box::new(SampleOutbox {
                        inner: WalOutbox::<M>::new(),
                        samples: samples.clone(),
                    }) as Box<dyn OutboxLog<M>>
                },
            );
        }
    }
}

/// Kernel slices run before and after a drive that has no windows.
const BRACKET_SLICES: u32 = 16;

/// Drive `sim` to the horizon in fixed virtual-tick windows, one `sim`
/// span and one kernel slice per window. Returns the events processed.
fn windowed<M>(sim: &mut Simulation<M>, t: &mut Tracer, slices: &mut Slices) -> u64
where
    M: Classify + Clone + std::fmt::Debug + Send + 'static,
{
    let mut events = 0;
    let mut cursor = 0u64;
    loop {
        cursor = cursor.saturating_add(WINDOW_TICKS).min(RUN_HORIZON_TICKS);
        events += t.span("sim", |_| sim.run_until(cursor));
        slices.run(1);
        if sim.is_quiescent()
            || sim.halted()
            || cursor >= RUN_HORIZON_TICKS
            || sim.delivered() >= sim.max_events
        {
            return events;
        }
    }
}

fn arrivals(inputs: &Inputs) -> BTreeMap<InstanceId, u64> {
    inputs.instance_ids().collect()
}

/// Drive `inputs` once under parallel control, tracing each layer call.
fn drive_central(
    inputs: &Inputs,
    agents: u32,
    engines: u32,
    t: &mut Tracer,
    slices: &mut Slices,
    transport: Transport<'_, crew_core::central::CentralMsg>,
) -> RunReport {
    let sys = &inputs.system;
    let mut run = t.span("builder", |_| {
        let mut run =
            CentralRun::new_with_placement(sys.deployment.clone(), agents, engines, sys.placement);
        for w in &inputs.crashes {
            let node = match w.target {
                CrashTarget::Agent(n) => NodeId(n),
                CrashTarget::Engine(n) => run.topo.engine_node(n),
            };
            run.sim.schedule_crash(node, w.at, w.down_for);
        }
        install(&mut run.sim, inputs, transport);
        for &(e, ticks) in &sys.engine_service_costs {
            if e < engines {
                run.sim.set_service_cost(run.topo.engine_node(e), ticks);
            }
        }
        let ids: Vec<InstanceId> = inputs
            .starts
            .iter()
            .map(|&(schema, at)| run.start_instance_at(schema, start_inputs(), at))
            .collect();
        for action in &inputs.actions {
            match *action {
                Action::Abort { index, at } => run.abort_instance_at(ids[index], at),
                Action::ChangeInputs { index, at } => {
                    run.change_inputs_at(ids[index], changed_inputs(), at)
                }
            }
        }
        run.sim.max_events = MAX_EVENTS;
        run
    });
    let events = match sys.balancer {
        // The balancer keeps per-run state (window deltas, instances
        // already ordered moved), so its drive is one span, and the kernel
        // slices bracket it.
        Some((interval, cfg)) if engines > 1 => {
            slices.run(BRACKET_SLICES);
            let events = t.span("sim", |_| {
                run.run_balanced_until(RUN_HORIZON_TICKS, interval, &cfg, &Params::paper_mean());
                run.sim.delivered()
            });
            slices.run(BRACKET_SLICES);
            events
        }
        _ => windowed(&mut run.sim, t, slices),
    };
    t.span("readout", |_| {
        let statuses = run.statuses();
        let outcomes = run
            .started_instances()
            .iter()
            .map(|&i| {
                let o = match statuses.get(&i) {
                    Some(InstanceStatus::Committed) => InstanceOutcome::Committed,
                    Some(InstanceStatus::Aborted) => InstanceOutcome::Aborted,
                    Some(InstanceStatus::Executing) | None => InstanceOutcome::Stalled,
                };
                (i, o)
            })
            .collect();
        RunReport {
            outcomes,
            instances: inputs.attempted() as u64,
            scheduler_nodes: run.engine_nodes(),
            events,
            virtual_time: run.sim.now(),
            arrival_ticks: arrivals(inputs),
            completion_ticks: run.completion_times(),
            metrics: std::mem::take(&mut run.sim.metrics),
            engine_loads: run.engine_loads(),
        }
    })
}

/// Drive `inputs` once under distributed control, tracing each layer call.
fn drive_distributed(
    inputs: &Inputs,
    agents: u32,
    t: &mut Tracer,
    slices: &mut Slices,
    transport: Transport<'_, crew_core::distributed::DistMsg>,
) -> RunReport {
    let sys = &inputs.system;
    let mut run = t.span("builder", |_| {
        let mut run = DistRun::new(sys.deployment.clone(), agents, sys.dist_config.clone());
        for w in &inputs.crashes {
            let (CrashTarget::Agent(n) | CrashTarget::Engine(n)) = w.target;
            run.sim.schedule_crash(NodeId(n), w.at, w.down_for);
        }
        install(&mut run.sim, inputs, transport);
        let ids: Vec<InstanceId> = inputs
            .starts
            .iter()
            .map(|&(schema, at)| run.start_instance_at(schema, start_inputs(), at))
            .collect();
        for action in &inputs.actions {
            match *action {
                Action::Abort { index, at } => run.abort_instance_at(ids[index], at),
                Action::ChangeInputs { index, at } => {
                    run.change_inputs_at(ids[index], changed_inputs(), at)
                }
            }
        }
        run.sim.max_events = MAX_EVENTS;
        run
    });
    let events = windowed(&mut run.sim, t, slices);
    t.span("readout", |_| {
        let raw = run.outcomes();
        let outcomes = run
            .started_instances()
            .iter()
            .map(|&i| {
                let o = match raw.get(&i) {
                    Some(Outcome::Committed) => InstanceOutcome::Committed,
                    Some(Outcome::Aborted) => InstanceOutcome::Aborted,
                    None => InstanceOutcome::Stalled,
                };
                (i, o)
            })
            .collect();
        RunReport {
            outcomes,
            instances: inputs.attempted() as u64,
            scheduler_nodes: run.agent_nodes(),
            events,
            virtual_time: run.sim.now(),
            arrival_ticks: arrivals(inputs),
            completion_ticks: run.completion_times(),
            metrics: std::mem::take(&mut run.sim.metrics),
            engine_loads: Vec::new(),
        }
    })
}

/// The messages a sampling drive captured, by architecture.
pub enum Captured {
    /// Central/parallel control messages.
    Central(BTreeMap<&'static str, crew_core::central::CentralMsg>),
    /// Distributed control messages.
    Distributed(BTreeMap<&'static str, crew_core::distributed::DistMsg>),
}

/// Drive `inputs` once, as configured, with a span around every layer call.
pub fn traced(inputs: &Inputs, t: &mut Tracer) -> RunReport {
    drive(inputs, t, &mut Slices::disabled())
}

/// Drive `inputs` once, as configured, with a kernel slice between
/// windows and no spans: the timed repetition of the untraced run.
pub fn calibrated(inputs: &Inputs, slices: &mut Slices) -> RunReport {
    drive(inputs, &mut Tracer::disabled(), slices)
}

fn drive(inputs: &Inputs, t: &mut Tracer, slices: &mut Slices) -> RunReport {
    match inputs.fleet() {
        (agents, 0) => drive_distributed(inputs, agents, t, slices, Transport::AsConfigured),
        (agents, engines) => {
            drive_central(inputs, agents, engines, t, slices, Transport::AsConfigured)
        }
    }
}

/// Drive `inputs` once through sampling channels and return one message
/// of every kind that crossed them. The drive is not the measured run, so
/// it records no spans.
pub fn sample_messages(inputs: &Inputs) -> Captured {
    fn take<M>(samples: Samples<M>) -> BTreeMap<&'static str, M> {
        std::mem::take(&mut *samples.lock().expect("sample map lock poisoned"))
    }
    let t = &mut Tracer::disabled();
    let slices = &mut Slices::disabled();
    match inputs.fleet() {
        (agents, 0) => {
            let samples = Samples::default();
            drive_distributed(inputs, agents, t, slices, Transport::Sampling(&samples));
            Captured::Distributed(take(samples))
        }
        (agents, engines) => {
            let samples = Samples::default();
            drive_central(
                inputs,
                agents,
                engines,
                t,
                slices,
                Transport::Sampling(&samples),
            );
            Captured::Central(take(samples))
        }
    }
}
