//! The four benchmark workloads and their seeded inputs.
//!
//! Every workload is an open loop: a Poisson arrival train is generated
//! from the seed and scheduled up front with `Scenario::start_at`, so the
//! generator is never late and each instance is timed from its scheduled
//! arrival tick.
//!
//! The run seed drives everything that varies between runs of one
//! workload: the arrival train, the failure/abort/input-change draws, the
//! network fault draws and the hot-schema mix. The schema set, ring
//! placement and simulator seed belong to the workload and come from
//! [`SCHEMA_SEED`]: regenerating the schemas per seed would make each seed
//! a different workflow mix (the `recovery` stall share alone moves between
//! ~23 % and ~46 %), and the figures of two seeds would then not measure
//! the same thing.

use crew_core::exec::{Deployment, FailurePlan};
use crew_core::model::{InstanceId, SchemaId, Value};
use crew_core::{
    Architecture, BalancerConfig, CrashWindow, NetFaultPlan, PlacementStrategy, Scenario,
    WorkflowSystem,
};
use crew_workload::{build_deployment, link_instances, SetupParams};

/// Seed of the schema set, ring placement and simulator shared by every
/// run of a workload.
pub const SCHEMA_SEED: u64 = 42;

/// Workflow inputs every instance starts with, `(slot, value)`.
pub const START_INPUTS: [(u16, i64); 2] = [(1, 5), (2, 1)];

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Parallel control, fault-free normal execution: the engine hot path.
    Steady,
    /// Distributed control with step failures, aborts, input changes and
    /// coordination: OCR, compensation, rollback and agent navigation.
    Recovery,
    /// `Steady` over the reliable channels with a lossy network and three
    /// engine crashes: transport, channel WAL and WFDB replay.
    LossyCrash,
    /// Sixteen engines, ring placement, the auto-balancer, a hot schema and
    /// a degraded engine: shard placement, migration and forwarding.
    SkewedFleet,
}

impl Kind {
    /// Every workload, in benchmark order.
    pub const ALL: [Kind; 4] = [
        Kind::Steady,
        Kind::Recovery,
        Kind::LossyCrash,
        Kind::SkewedFleet,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Steady => "steady",
            Kind::Recovery => "recovery",
            Kind::LossyCrash => "lossy-crash",
            Kind::SkewedFleet => "skewed-fleet",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn instances(self) -> u32 {
        match self {
            Kind::Steady => 20_000,
            Kind::Recovery => 5_000,
            Kind::LossyCrash | Kind::SkewedFleet => 10_000,
        }
    }

    fn rate_per_ktick(self) -> f64 {
        match self {
            Kind::Steady | Kind::LossyCrash => 200.0,
            Kind::Recovery => 100.0,
            Kind::SkewedFleet => 120.0,
        }
    }

    fn params(self) -> SetupParams {
        let fault_free = SetupParams {
            s: 6,
            c: 4,
            z: 12,
            a: 2,
            me: 0,
            ro: 0,
            rd: 0,
            r: 0,
            pf: 0.0,
            pi: 0.0,
            pa: 0.0,
            pr: 0.0,
            seed: SCHEMA_SEED,
        };
        match self {
            Kind::Recovery => SetupParams {
                s: 8,
                me: 1,
                ro: 2,
                rd: 1,
                r: 3,
                pf: 0.1,
                pi: 0.02,
                pa: 0.02,
                pr: 0.25,
                ..fault_free
            },
            _ => fault_free,
        }
    }

    fn architecture(self) -> Architecture {
        let agents = self.params().z;
        match self {
            Kind::Recovery => Architecture::Distributed { agents },
            Kind::Steady | Kind::LossyCrash => Architecture::Parallel { agents, engines: 4 },
            Kind::SkewedFleet => Architecture::Parallel {
                agents,
                engines: 16,
            },
        }
    }

    /// True for the workloads whose instances can only commit: no failure,
    /// abort or input change is injected, so an abort is a wrong output.
    pub fn commits_only(self) -> bool {
        matches!(self, Kind::Steady | Kind::LossyCrash | Kind::SkewedFleet)
    }
}

/// A user action injected mid-flight, per the failure plan's draws.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    /// Abort instance `index` at tick `at`.
    Abort { index: usize, at: u64 },
    /// Change instance `index`'s inputs at tick `at`.
    ChangeInputs { index: usize, at: u64 },
}

/// A workload's generated inputs: everything the program receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// The configured system, deployment included.
    pub system: WorkflowSystem,
    /// Scheduled starts: schema and arrival tick, in scenario order.
    pub starts: Vec<(SchemaId, u64)>,
    /// Injected user actions.
    pub actions: Vec<Action>,
    /// Injected crashes.
    pub crashes: Vec<CrashWindow>,
}

/// The `(seed, rate, instances)` Poisson arrival train: strictly increasing
/// ticks with exponential gaps of mean `1000 / rate_per_ktick`, quantized
/// to at least one tick.
pub fn arrival_ticks(seed: u64, rate_per_ktick: f64, instances: u32) -> Vec<u64> {
    let mean_gap = 1000.0 / rate_per_ktick;
    let mut at = 0u64;
    (0..instances as u64)
        .map(|k| {
            // (0, 1]: flip the [0, 1) draw so ln never sees zero.
            let u = 1.0 - crew_core::exec::hash::unit_draw(seed, &[0x4c4f_4144, k]);
            at += (-u.ln() * mean_gap).round().max(1.0) as u64;
            at
        })
        .collect()
}

/// Build a workload's deployment: the generated schema set, coordination
/// and failure plan. Traced as the `workload` layer.
pub fn deployment(kind: Kind, seed: u64) -> Deployment {
    let p = kind.params();
    let mut d = build_deployment(&p, kind == Kind::Recovery);
    d.seed = SCHEMA_SEED;
    d.plan = FailurePlan::probabilistic(seed, p.pf, p.pi, p.pa, p.pr);
    d
}

/// Generate the scenario around `deployment`: arrival train, schema mix,
/// instance links, user actions and crashes. Traced as the `scenario`
/// layer.
pub fn inputs(kind: Kind, seed: u64, deployment: Deployment) -> Inputs {
    sized_inputs(kind, seed, deployment, kind.instances())
}

/// [`inputs`] with `instances` arrivals instead of the workload's own count.
fn sized_inputs(kind: Kind, seed: u64, mut deployment: Deployment, instances: u32) -> Inputs {
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let arrivals = arrival_ticks(seed, kind.rate_per_ktick(), instances);
    let starts: Vec<(SchemaId, u64)> = arrivals
        .iter()
        .enumerate()
        .map(|(k, &at)| {
            // 70 % of `skewed-fleet` arrivals go to the hot first schema;
            // the rest round-robin over the whole set.
            let hot = kind == Kind::SkewedFleet
                && crew_core::exec::hash::unit_draw(seed, &[0x534b_4557, k as u64]) < 0.7;
            let schema = if hot {
                schemas[0]
            } else {
                schemas[k % schemas.len()]
            };
            (schema, at)
        })
        .collect();

    let ids: Vec<InstanceId> = starts
        .iter()
        .enumerate()
        .map(|(k, (schema, _))| InstanceId::new(*schema, k as u32 + 1))
        .collect();
    if !deployment.coordination.is_empty() {
        link_instances(&mut deployment, &ids);
    }
    let mut actions = Vec::new();
    for (index, id) in ids.iter().enumerate() {
        // Mid-flight, a few steps in.
        let at = starts[index].1 + 10 + (index as u64 % 7) * 4;
        if deployment.plan.user_aborts(*id) {
            actions.push(Action::Abort { index, at });
        } else if deployment.plan.inputs_change(*id) {
            actions.push(Action::ChangeInputs { index, at });
        }
    }

    let last_arrival = arrivals.last().copied().unwrap_or(0);
    let (crashes, net) = if kind == Kind::LossyCrash {
        let crashes = (0..3u32)
            .map(|e| CrashWindow::engine(e, last_arrival * (e as u64 + 1) / 4, Some(200)))
            .collect();
        (
            crashes,
            Some(NetFaultPlan::probabilistic(seed, 0.02, 0.02, 0.05)),
        )
    } else {
        (Vec::new(), None)
    };

    let mut system = WorkflowSystem::with_deployment(deployment, kind.architecture());
    system.net_faults = net;
    if kind == Kind::SkewedFleet {
        system = system
            .with_placement(PlacementStrategy::ConsistentHash { vnodes: 16 })
            .with_balancer(100, BalancerConfig::default());
        for e in 0..16 {
            system = system.with_engine_service_cost(e, if e == 0 { 8 } else { 1 });
        }
    }
    Inputs {
        kind,
        system,
        starts,
        actions,
        crashes,
    }
}

/// The workflow inputs every instance starts with.
pub fn start_inputs() -> Vec<(u16, Value)> {
    START_INPUTS
        .iter()
        .map(|&(slot, v)| (slot, Value::Int(v)))
        .collect()
}

/// New inputs of an injected input change.
pub fn changed_inputs() -> Vec<(u16, Value)> {
    vec![(1, Value::Int(99))]
}

impl Inputs {
    /// The `crew-core` scenario for these inputs.
    pub fn scenario(&self) -> Scenario {
        let mut scenario = Scenario::new();
        for &(schema, at) in &self.starts {
            scenario.start_at(schema, start_inputs(), at);
        }
        for action in &self.actions {
            match *action {
                Action::Abort { index, at } => scenario.abort_at(index, at),
                Action::ChangeInputs { index, at } => {
                    scenario.change_inputs_at(index, at, changed_inputs())
                }
            }
        }
        for &w in &self.crashes {
            scenario.crash(w);
        }
        scenario
    }

    /// The fault-free twin: the same system and arrivals with the network
    /// faults and crashes removed.
    pub fn fault_free_twin(&self) -> Inputs {
        let mut twin = self.clone();
        twin.system.net_faults = None;
        twin.crashes.clear();
        twin
    }

    /// `(agents, engines)` of the deployment; no engines under distributed
    /// control, where every agent embeds its own engine slice.
    pub fn fleet(&self) -> (u32, u32) {
        match self.system.architecture {
            Architecture::Distributed { agents } => (agents, 0),
            Architecture::Central { agents } => (agents, 1),
            Architecture::Parallel { agents, engines } => (agents, engines),
        }
    }

    /// Number of instances the workload attempts.
    pub fn attempted(&self) -> usize {
        self.starts.len()
    }

    /// Arrival tick of each instance, by instance id.
    pub fn instance_ids(&self) -> impl Iterator<Item = (InstanceId, u64)> + '_ {
        self.starts
            .iter()
            .enumerate()
            .map(|(k, &(schema, at))| (InstanceId::new(schema, k as u32 + 1), at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive;
    use crate::summary::{Fingerprint, Outcomes};
    use crate::trace::Tracer;

    #[test]
    fn arrival_train_is_seeded_and_increasing() {
        let a = arrival_ticks(42, 200.0, 2_000);
        assert_eq!(a, arrival_ticks(42, 200.0, 2_000));
        assert_ne!(a, arrival_ticks(9173, 200.0, 2_000));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let mean_gap = *a.last().unwrap() as f64 / a.len() as f64;
        assert!((4.0..6.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn the_seed_varies_the_traffic_not_the_schemas() {
        for kind in Kind::ALL {
            let a = inputs(kind, 42, deployment(kind, 42));
            let b = inputs(kind, 9173, deployment(kind, 9173));
            assert_eq!(
                a.system.deployment.schemas,
                b.system.deployment.schemas,
                "{}",
                kind.name()
            );
            assert_ne!(a.starts, b.starts, "{}", kind.name());
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn the_traced_and_calibrated_drives_reproduce_the_untraced_run() {
        for kind in Kind::ALL {
            let inputs = sized_inputs(kind, 7, deployment(kind, 7), 300);
            let report = inputs.system.run(inputs.scenario());
            let traced = drive::traced(&inputs, &mut Tracer::new());
            let mut slices = crate::calib::Slices::new();
            let calibrated = drive::calibrated(&inputs, &mut slices);
            assert!(slices.mean().is_some(), "{}: no slice ran", kind.name());
            for drove in [&traced, &calibrated] {
                assert_eq!(
                    Fingerprint::of(drove),
                    Fingerprint::of(&report),
                    "{}",
                    kind.name()
                );
                assert_eq!(
                    Outcomes::of(drove, None),
                    Outcomes::of(&report, None),
                    "{}",
                    kind.name()
                );
            }
        }
    }
}
