//! The §4.2 successor-selection ablation: the two-phase
//! `StateInformation`-based choice vs the deterministic designated hash
//! (a hash of seed, instance and step modulo the eligible-agent count).

use crew_core::{Architecture, Scenario, WorkflowSystem};
use crew_distributed::SuccessorSelection;
use crew_integration_tests::ExecLog;
use crew_model::{AgentId, SchemaBuilder, SchemaId, Value};
use crew_simnet::Mechanism;

fn multi_eligible_schema() -> crew_model::WorkflowSchema {
    let mut b = SchemaBuilder::new(SchemaId(1), "lb").inputs(1);
    let s1 = b.add_step("A", "log");
    let s2 = b.add_step("B", "log");
    let s3 = b.add_step("C", "log");
    let s4 = b.add_step("D", "log");
    b.seq(s1, s2).seq(s2, s3).seq(s3, s4);
    b.configure(s1, |d| d.eligible_agents = vec![AgentId(0)]);
    // Every later step can run on any of three agents.
    for s in [s2, s3, s4] {
        b.configure(s, |d| {
            d.eligible_agents = vec![AgentId(1), AgentId(2), AgentId(3)]
        });
    }
    b.build().unwrap()
}

#[test]
fn load_balanced_mode_commits_and_costs_polls() {
    let run = |mode: SuccessorSelection| {
        let log = ExecLog::new();
        let mut system = WorkflowSystem::new(
            [multi_eligible_schema()],
            Architecture::Distributed { agents: 4 },
        );
        log.register(&mut system.deployment.registry, "log");
        system.dist_config.successor_selection = mode;
        let mut scenario = Scenario::new();
        for k in 0..6 {
            scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        }
        let report = system.run(scenario);
        assert_eq!(report.committed(), 6, "{mode:?}");
        let polls = report
            .metrics
            .by_kind
            .iter()
            .filter(|((k, _), _)| *k == "StateInformation" || *k == "StateInformationReply")
            .map(|(_, v)| *v)
            .sum::<u64>();
        (polls, report.messages_per_instance(Mechanism::Normal))
    };

    let (polls_hash, msgs_hash) = run(SuccessorSelection::DesignatedHash);
    let (polls_lb, msgs_lb) = run(SuccessorSelection::LoadBalanced);
    assert_eq!(polls_hash, 0, "designated-hash selection needs no polls");
    assert!(polls_lb > 0, "two-phase selection polls StateInformation");
    assert!(
        msgs_lb > msgs_hash,
        "selection overhead shows in the per-instance bill: {msgs_lb} vs {msgs_hash}"
    );
}

#[test]
fn load_balanced_choices_spread_work() {
    // With per-instance designation, 6 instances spread by hash; with load
    // balancing they spread by observed load. Both must spread across
    // agents (no agent does everything) and execute each step once.
    let log = ExecLog::new();
    let mut system = WorkflowSystem::new(
        [multi_eligible_schema()],
        Architecture::Distributed { agents: 4 },
    );
    log.register(&mut system.deployment.registry, "log");
    system.dist_config.successor_selection = SuccessorSelection::LoadBalanced;
    let mut scenario = Scenario::new();
    let mut instances = Vec::new();
    for k in 0..6 {
        let idx = scenario.start(SchemaId(1), vec![(1, Value::Int(k))]);
        instances.push(scenario.instance_id(idx));
    }
    let report = system.run(scenario);
    assert_eq!(report.committed(), 6);
    for inst in &instances {
        for step in 1..=4u32 {
            assert_eq!(
                log.count(*inst, crew_model::StepId(step)),
                1,
                "{inst} S{step} executed exactly once"
            );
        }
    }
}
