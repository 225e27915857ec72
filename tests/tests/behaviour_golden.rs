//! Golden behaviour: every run below is pinned to the exact figures it
//! produces — outcome counts, a digest of per-instance completion ticks,
//! the simulator's event count, per-mechanism message totals and the
//! program runs seen per step (count and highest attempt number).
//!
//! The other suites check shapes and ratios; this one fails if a change
//! moves a single message, tick or step attempt under any architecture.
//! The literals are the reference behaviour: update them only for a change
//! that is meant to alter behaviour, and say so.

use crew_core::{Architecture, InstanceOutcome, RunReport, Scenario, WorkflowSystem};
use crew_exec::{Deployment, FailurePlan, Program, ProgramCtx, StepFailure};
use crew_model::{
    AgentId, ItemKey, RetryPolicy, SchemaBuilder, SchemaId, StepId, Value, WorkflowSchema,
};
use crew_simnet::Mechanism;
use crew_workload::{
    build_deployment, claim_processing, fraud_check, link_instances, order_processing,
    register_programs, travel_booking, SetupParams, CLAIM_SCHEMA, ORDER_SCHEMA, TRAVEL_SCHEMA,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

const ARCHS: [(&str, Architecture); 3] = [
    ("central", Architecture::Central { agents: 6 }),
    (
        "parallel",
        Architecture::Parallel {
            agents: 6,
            engines: 2,
        },
    ),
    ("distributed", Architecture::Distributed { agents: 6 }),
];

/// Program runs per `(schema, step, program)`: (runs, highest attempt
/// seen). Compensations run their program too, under the same step.
type RunLog = Arc<Mutex<BTreeMap<(SchemaId, StepId, String), (u64, u32)>>>;

/// Wraps a registered program and records every invocation.
struct Recorder {
    name: String,
    inner: Arc<dyn Program>,
    log: RunLog,
}

impl Program for Recorder {
    fn run(&self, ctx: &ProgramCtx) -> Result<Vec<Value>, StepFailure> {
        let mut log = self.log.lock().unwrap();
        let key = (ctx.instance.schema, ctx.step, self.name.clone());
        let entry = log.entry(key).or_default();
        entry.0 += 1;
        entry.1 = entry.1.max(ctx.attempt);
        drop(log);
        self.inner.run(ctx)
    }

    fn compensate(&self, ctx: &ProgramCtx) {
        self.inner.compensate(ctx)
    }
}

/// Route every program of `deployment` through a [`Recorder`].
fn instrument(deployment: &mut Deployment) -> RunLog {
    let log = RunLog::default();
    let names: Vec<String> = deployment.registry.names().map(str::to_owned).collect();
    for name in names {
        let inner = deployment.registry.get(&name).unwrap().clone();
        deployment.registry.register(
            name.clone(),
            Recorder {
                name,
                inner,
                log: log.clone(),
            },
        );
    }
    log
}

/// FNV-1a over a sequence of integers.
fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(report: &RunReport, log: &RunLog) -> String {
    let stalled = report
        .outcomes
        .values()
        .filter(|o| **o == InstanceOutcome::Stalled)
        .count();
    let ticks = digest(
        report
            .completion_ticks
            .iter()
            .flat_map(|(i, t)| [i.schema.0 as u64, i.serial as u64, *t]),
    );
    let mut out = format!(
        "c{} a{} s{} ev{} t{:016x} msgs",
        report.committed(),
        report.aborted(),
        stalled,
        report.events,
        ticks
    );
    for m in Mechanism::ALL {
        write!(out, " {}", report.metrics.messages(m)).unwrap();
    }
    out.push_str(" runs");
    for ((schema, step, program), (runs, max_attempt)) in log.lock().unwrap().iter() {
        write!(
            out,
            " {}.{}.{program}:{runs}/{max_attempt}",
            schema.0, step.0
        )
        .unwrap();
    }
    out
}

/// Run `build` under every architecture and compare with `expected`
/// (one line per architecture, in [`ARCHS`] order).
fn check(name: &str, build: impl Fn() -> (Deployment, Scenario), expected: [&str; 3]) {
    let mut mismatches = Vec::new();
    for ((arch_name, arch), want) in ARCHS.iter().zip(expected) {
        let (mut deployment, scenario) = build();
        let log = instrument(&mut deployment);
        let report = WorkflowSystem::with_deployment(deployment, *arch).run(scenario);
        let got = fingerprint(&report, &log);
        if got != want {
            mismatches.push(format!(
                "{name} {arch_name}:\n  got  {got:?}\n  want {want:?}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A generated fleet with branches, step failures, input changes, aborts,
/// re-execution draws, and linked instances under mutual exclusion,
/// relative ordering and a rollback dependency.
fn fleet() -> (Deployment, Scenario) {
    let p = SetupParams {
        s: 6,
        c: 4,
        z: 6,
        a: 2,
        me: 1,
        ro: 2,
        rd: 1,
        r: 2,
        pf: 0.15,
        pi: 0.1,
        pa: 0.1,
        pr: 0.25,
        seed: 42,
    };
    let mut deployment = build_deployment(&p, true);
    let schemas: Vec<SchemaId> = deployment.schemas.keys().copied().collect();
    let ids: Vec<_> = (0..24u32)
        .map(|k| crew_model::InstanceId::new(schemas[k as usize % schemas.len()], k + 1))
        .collect();
    link_instances(&mut deployment, &ids);
    let plan = deployment.plan.clone();
    let mut scenario = Scenario::new();
    for (k, inst) in ids.iter().enumerate() {
        let at = k as u64 * 3;
        let idx = scenario.start_at(
            inst.schema,
            vec![(1, Value::Int(5)), (2, Value::Int(1))],
            at,
        );
        assert_eq!(scenario.instance_id(idx), *inst);
        let act = at + 10 + (k as u64 % 7) * 4;
        if plan.user_aborts(*inst) {
            scenario.abort_at(idx, act);
        } else if plan.inputs_change(*inst) {
            scenario.change_inputs_at(idx, act, vec![(1, Value::Int(99))]);
        }
    }
    (deployment, scenario)
}

fn assign(schema: &mut WorkflowSchema, agents: u32) {
    let ids: Vec<StepId> = schema.steps().map(|d| d.id).collect();
    for (i, s) in ids.iter().enumerate() {
        schema.set_eligible_agents(*s, vec![AgentId(i as u32 % agents)]);
    }
}

/// A two-step workflow whose first step retries in place twice.
const RETRY_SCHEMA: SchemaId = SchemaId(5);

fn retrying() -> WorkflowSchema {
    let mut b = SchemaBuilder::new(RETRY_SCHEMA, "Retrying").inputs(1);
    let first = b.add_step("Flaky", "passthrough");
    let second = b.add_step("After", "passthrough");
    b.seq(first, second);
    b.read(first, ItemKey::input(1));
    b.configure(first, |d| d.policy.retry = Some(RetryPolicy::bounded(2)));
    b.build().unwrap()
}

/// The hand-built order/travel/claim schemas plus [`retrying`].
///
/// - order 1: `ChargePayment` fails once, rolling back to `ReserveParts`
///   through the reservation/payment compensation set;
/// - order 2: `ChargePayment` fails on every attempt and exhausts the
///   rollback budget;
/// - order 3: aborted by the user;
/// - travel 1: a trip-length change after the XOR choice switches the
///   insurance branch;
/// - travel 2: `Total` fails once, rolling back to `Quote`;
/// - claims 1–2: the nested `FraudCheck` child and the assessment loop;
/// - retrying 1: `Flaky` fails twice and succeeds on its second retry;
///   retrying 2: `Flaky` fails three times and falls back to rollback.
fn scenarios() -> (Deployment, Scenario) {
    let mut schemas = vec![
        order_processing(),
        travel_booking(),
        claim_processing(),
        fraud_check(),
        retrying(),
    ];
    for s in &mut schemas {
        assign(s, 6);
    }
    let mut deployment = Deployment::new(schemas);
    register_programs(&mut deployment.registry);

    let mut scenario = Scenario::new();
    let order = |n: i64| vec![(1, Value::Int(10 + n)), (2, Value::Int(100 + n))];
    let o1 = scenario.start_at(ORDER_SCHEMA, order(1), 0);
    let o2 = scenario.start_at(ORDER_SCHEMA, order(2), 2);
    let o3 = scenario.start_at(ORDER_SCHEMA, order(3), 4);
    let t1 = scenario.start_at(TRAVEL_SCHEMA, vec![(1, Value::Int(1))], 1);
    let t2 = scenario.start_at(TRAVEL_SCHEMA, vec![(1, Value::Int(3))], 3);
    scenario.start_at(CLAIM_SCHEMA, vec![(1, Value::Int(1200))], 5);
    scenario.start_at(CLAIM_SCHEMA, vec![(1, Value::Int(700))], 7);
    let r1 = scenario.start_at(RETRY_SCHEMA, vec![(1, Value::Int(1))], 8);
    let r2 = scenario.start_at(RETRY_SCHEMA, vec![(1, Value::Int(2))], 9);
    scenario.abort_at(o3, 9);
    scenario.change_inputs_at(t1, 16, vec![(1, Value::Int(2))]);

    let id = |i| scenario.instance_id(i);
    let (charge, total, flaky) = (StepId(3), StepId(5), StepId(1));
    deployment.plan = FailurePlan::none()
        .fail_step(id(o1), charge, 1)
        .fail_step_always(id(o2), charge)
        .force_reexec(id(t1), total)
        .fail_step(id(t2), total, 1)
        .fail_step(id(r1), flaky, 1)
        .fail_step(id(r1), flaky, 2)
        .fail_step(id(r2), flaky, 1)
        .fail_step(id(r2), flaky, 2)
        .fail_step(id(r2), flaky, 3);
    (deployment, scenario)
}

#[test]
fn generated_fleet_is_pinned() {
    check(
        "fleet",
        fleet,
        [
            "c19 a1 s4 ev634 t76a81378912c1ea1 msgs 584 0 2 20 0 0 runs 1.1.stamp:7/2 1.2.stamp:2/2 1.3.stamp:6/1 1.4.passthrough:1/0 1.4.stamp:8/3 1.5.stamp:7/2 1.6.stamp:7/2 2.1.passthrough:1/0 2.1.stamp:6/1 2.2.stamp:1/1 2.3.stamp:8/2 2.4.stamp:1/1 2.5.stamp:1/1 2.6.stamp:1/1 3.1.stamp:6/1 3.2.stamp:6/2 3.4.passthrough:2/0 3.4.stamp:8/3 3.5.passthrough:1/0 3.5.stamp:7/2 3.6.stamp:6/2 4.1.passthrough:3/0 4.1.stamp:10/3 4.2.passthrough:2/0 4.2.stamp:8/3 4.3.passthrough:1/0 4.3.stamp:8/3 4.4.stamp:7/2 4.5.stamp:6/1 4.6.stamp:6/2",
            "c20 a1 s3 ev693 tb9ab3b03ad24eb54 msgs 552 0 0 22 91 0 runs 1.1.stamp:7/2 1.2.stamp:1/1 1.3.stamp:5/1 1.4.passthrough:1/0 1.4.stamp:7/3 1.5.stamp:6/1 1.6.stamp:6/2 2.1.stamp:5/1 2.2.stamp:2/1 2.3.stamp:5/1 2.4.stamp:2/1 2.5.stamp:2/1 2.6.stamp:2/1 3.1.stamp:6/1 3.2.stamp:6/2 3.4.passthrough:2/0 3.4.stamp:8/3 3.5.passthrough:1/0 3.5.stamp:7/2 3.6.stamp:6/2 4.1.passthrough:1/0 4.1.stamp:7/2 4.2.passthrough:2/0 4.2.stamp:8/3 4.3.passthrough:2/0 4.3.stamp:8/3 4.4.stamp:7/3 4.5.stamp:6/1 4.6.stamp:6/2",
            "c19 a1 s4 ev701 tca997773f3763c81 msgs 382 3 16 102 170 0 runs 1.1.stamp:6/2 1.3.stamp:6/1 1.4.passthrough:1/2 1.4.stamp:7/3 1.5.stamp:7/2 1.6.stamp:7/3 2.1.passthrough:2/1 2.1.stamp:7/2 2.2.stamp:3/2 2.3.passthrough:1/1 2.3.stamp:6/1 2.4.stamp:2/2 2.5.stamp:2/1 2.6.stamp:2/2 3.1.stamp:6/1 3.2.stamp:6/2 3.4.passthrough:2/2 3.4.stamp:8/3 3.5.passthrough:1/1 3.5.stamp:7/2 3.6.stamp:6/2 4.1.passthrough:3/2 4.1.stamp:9/3 4.2.passthrough:3/4 4.2.stamp:12/6 4.3.passthrough:4/5 4.3.stamp:14/7 4.4.stamp:11/5 4.5.stamp:11/4 4.6.stamp:10/3",
        ],
    );
}

#[test]
fn scenario_schemas_are_pinned() {
    check(
        "scenarios",
        scenarios,
        [
            "c7 a2 s0 ev121 t6ce372bcd7dc7742 msgs 102 0 2 6 0 0 runs 1.1.inv.check:3/1 1.2.inv.release:1/0 1.2.inv.reserve:2/1 1.3.pay.charge:1/2 1.4.ship.dispatch:1/1 2.1.passthrough:3/2 2.2.book.flight:3/2 2.2.cancel.flight:1/0 2.3.book.hotel:3/2 2.3.cancel.hotel:1/0 2.4.book.car:3/2 2.4.cancel.car:1/0 2.5.itinerary.total:3/2 2.6.stamp:2/1 2.7.stamp:1/1 2.8.stamp:2/1 3.1.claim.intake:2/1 3.3.claim.assess:2/1 3.4.claim.payout:2/1 4.1.fraud.screen:2/1 4.2.fraud.report:2/1 5.1.passthrough:2/4 5.2.passthrough:2/1",
            "c7 a2 s0 ev121 tb27461bdae681daf msgs 102 0 2 6 0 0 runs 1.1.inv.check:3/1 1.2.inv.release:1/0 1.2.inv.reserve:2/1 1.3.pay.charge:1/2 1.4.ship.dispatch:1/1 2.1.passthrough:3/2 2.2.book.flight:3/2 2.2.cancel.flight:1/0 2.3.book.hotel:3/2 2.3.cancel.hotel:1/0 2.4.book.car:3/2 2.4.cancel.car:1/0 2.5.itinerary.total:3/2 2.6.stamp:2/1 2.8.stamp:2/1 3.1.claim.intake:2/1 3.3.claim.assess:2/1 3.4.claim.payout:2/1 4.1.fraud.screen:2/1 4.2.fraud.report:2/1 5.1.passthrough:2/4 5.2.passthrough:2/1",
            "c7 a2 s0 ev139 tdc2b475e97c318cd msgs 85 1 12 30 0 0 runs 1.1.inv.check:3/1 1.2.inv.release:2/1 1.2.inv.reserve:3/1 1.3.pay.charge:2/2 1.3.pay.refund:1/1 1.4.ship.dispatch:2/1 2.1.passthrough:3/2 2.2.book.flight:3/2 2.2.cancel.flight:1/1 2.3.book.hotel:3/2 2.3.cancel.hotel:1/1 2.4.book.car:3/2 2.4.cancel.car:1/1 2.5.itinerary.total:3/2 2.6.stamp:2/1 2.7.stamp:1/1 2.8.stamp:2/1 3.1.claim.intake:2/1 3.3.claim.assess:2/1 3.4.claim.payout:2/1 4.1.fraud.screen:2/1 4.2.fraud.report:2/1 5.1.passthrough:2/4 5.2.passthrough:2/1",
        ],
    );
}
