//! Golden wire bytes: the exact encoding of one value per variant of every
//! persisted or transmitted type.
//!
//! WAL records, channel logs and in-flight messages outlive the binary that
//! wrote them, so a renumbered tag or a reordered field is a format break
//! even when every round-trip test still passes. Each literal below pins
//! the bytes; changing one is a deliberate wire-format change.

use crew_central::{CentralMsg, CoordMsg};
use crew_distributed::{CoordRule, DistMsg, RoTag, StepStatusKind, Weight, WorkflowPacket};
use crew_model::{AgentId, DataEnv, InstanceId, ItemKey, SchemaId, StepId, Value};
use crew_rules::EventKind;
use crew_simnet::reliable::ChanRec;
use crew_simnet::NodeId;
use crew_storage::{CodecError, DbOp, Decode, Encode, InstanceStatus, StoredStepState};
use std::fmt::Debug;

/// One pinned encoding.
struct Golden {
    what: String,
    hex: &'static str,
    bytes: Vec<u8>,
    /// Decodes the first `n` bytes of the encoding: `Ok(true)` when they
    /// decode to the sample with nothing left over.
    decode_prefix: Box<dyn Fn(usize) -> Result<bool, CodecError>>,
}

fn golden<T: Encode + Decode + PartialEq + Debug + 'static>(v: T, hex: &'static str) -> Golden {
    let encoded = v.to_bytes();
    Golden {
        what: format!("{v:?}"),
        hex,
        bytes: encoded.to_vec(),
        decode_prefix: Box::new(move |n| {
            let mut buf = encoded.slice(0..n);
            T::decode(&mut buf).map(|back| back == v && buf.is_empty())
        }),
    }
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn inst(n: u32) -> InstanceId {
    InstanceId::new(SchemaId(2), n)
}

fn rich_packet() -> WorkflowPacket {
    let mut data = DataEnv::new();
    data.set(ItemKey::input(1), Value::Int(90));
    data.set(ItemKey::output(StepId(1), 2), Value::Str("Gasket".into()));
    WorkflowPacket {
        instance: inst(4),
        target_step: StepId(3),
        source_step: Some(StepId(2)),
        executor: Some(AgentId(5)),
        epoch: 7,
        data,
        events: vec![
            (EventKind::WorkflowStart, 1),
            (EventKind::StepDone(StepId(1)), 2),
            (EventKind::StepFail(StepId(2)), 1),
            (EventKind::StepCompensated(StepId(2)), 1),
            (EventKind::WorkflowDone, 1),
            (EventKind::WorkflowAbort, 1),
            (EventKind::External(0xBEEF), 3),
        ],
        ro_leading: vec![RoTag {
            local_step: StepId(3),
            tag: 0xBEEF,
            partner: inst(15),
            partner_step: StepId(5),
        }],
        ro_lagging: vec![RoTag {
            local_step: StepId(2),
            tag: 0xF00D,
            partner: inst(12),
            partner_step: StepId(2),
        }],
        weight: Weight::new(3, 8),
    }
}

fn goldens() -> Vec<Golden> {
    let i = inst(1);
    vec![
        // ---- crew-storage: model types -----------------------------------
        golden(StepId(5), "05000000"),
        golden(AgentId(8), "08000000"),
        golden(SchemaId(2), "02000000"),
        golden(InstanceId::new(SchemaId(2), 4), "0200000004000000"),
        golden(ItemKey::input(1), "000100"),
        golden(ItemKey::output(StepId(3), 2), "01030000000200"),
        golden(Value::Int(-90), "00a6ffffffffffffff"),
        golden(Value::Float(-0.5), "01000000000000e0bf"),
        golden(Value::Str("Blower".into()), "0206000000426c6f776572"),
        golden(Value::Bool(true), "0301"),
        // ---- crew-storage: DbOp, every InstanceStatus / StoredStepState --
        golden(DbOp::InstanceCreated { instance: i }, "000200000001000000"),
        golden(
            DbOp::DataWritten {
                instance: i,
                key: ItemKey::output(StepId(2), 1),
                value: Value::Int(45),
            },
            "01020000000100000001020000000100002d00000000000000",
        ),
        golden(
            DbOp::StepOutputsCleared {
                instance: i,
                step: StepId(2),
            },
            "02020000000100000002000000",
        ),
        golden(
            DbOp::EventPosted {
                instance: i,
                code: "S2.D".into(),
            },
            "0302000000010000000400000053322e44",
        ),
        golden(
            DbOp::EventInvalidated {
                instance: i,
                code: "S2.D".into(),
            },
            "0402000000010000000400000053322e44",
        ),
        golden(
            DbOp::StepRecorded {
                instance: i,
                step: StepId(2),
                state: StoredStepState::Executing,
                attempt: 1,
                outputs: vec![],
            },
            "05020000000100000002000000000100000000000000",
        ),
        golden(
            DbOp::StepRecorded {
                instance: i,
                step: StepId(2),
                state: StoredStepState::Done,
                attempt: 2,
                outputs: vec![Value::Str("Gasket".into())],
            },
            "0502000000010000000200000001020000000100000002060000004761736b6574",
        ),
        golden(
            DbOp::StepRecorded {
                instance: i,
                step: StepId(2),
                state: StoredStepState::Failed,
                attempt: 3,
                outputs: vec![],
            },
            "05020000000100000002000000020300000000000000",
        ),
        golden(
            DbOp::StepRecorded {
                instance: i,
                step: StepId(2),
                state: StoredStepState::Compensated,
                attempt: 3,
                outputs: vec![Value::Int(1), Value::Bool(false)],
            },
            "050200000001000000020000000303000000020000000001000000000000000300",
        ),
        golden(
            DbOp::StatusChanged {
                instance: i,
                status: InstanceStatus::Executing,
            },
            "06020000000100000000",
        ),
        golden(
            DbOp::StatusChanged {
                instance: i,
                status: InstanceStatus::Committed,
            },
            "06020000000100000001",
        ),
        golden(
            DbOp::StatusChanged {
                instance: i,
                status: InstanceStatus::Aborted,
            },
            "06020000000100000002",
        ),
        golden(DbOp::InstancePurged { instance: i }, "070200000001000000"),
        golden(
            DbOp::EngineInput {
                from: u32::MAX,
                payload: vec![0, 1, 2, 255],
            },
            "08ffffffff04000000000102ff",
        ),
        // ---- crew-simnet: channel log --------------------------------------
        golden(NodeId(7), "07000000"),
        golden(
            ChanRec::Sent {
                to: NodeId(2),
                seq: 9,
                payload: 0xABCDu32,
            },
            "00020000000900000000000000cdab0000",
        ),
        golden(
            ChanRec::<u32>::Acked {
                peer: NodeId(3),
                cum: 4,
            },
            "01030000000400000000000000",
        ),
        golden(
            ChanRec::<u32>::Delivered {
                peer: NodeId(3),
                cum: 5,
            },
            "02030000000500000000000000",
        ),
        golden(
            ChanRec::<u32>::Checkpoint {
                next_seq: vec![(NodeId(1), 6), (NodeId(2), 1)],
                delivered: vec![(NodeId(3), 5)],
            },
            "030200000001000000060000000000000002000000010000000000000001000000030000000500000000000000",
        ),
        // ---- crew-central --------------------------------------------------
        golden(
            CoordMsg::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
            "000100000002000000010000000200000002000000",
        ),
        golden(
            CoordMsg::RoDecision {
                req: 2,
                a: inst(1),
                b: inst(2),
                leader_side: 1,
            },
            "01020000000200000001000000020000000200000001",
        ),
        golden(
            CoordMsg::RoRelease {
                req: 3,
                k: 4,
                lagging: inst(2),
            },
            "020300000004000000000000000200000002000000",
        ),
        golden(
            CoordMsg::MutexAcquire {
                req: 4,
                instance: inst(3),
                step: StepId(1),
            },
            "0304000000020000000300000001000000",
        ),
        golden(
            CoordMsg::MutexGrant {
                req: 5,
                instance: inst(3),
                step: StepId(1),
            },
            "0405000000020000000300000001000000",
        ),
        golden(
            CoordMsg::MutexRelease {
                req: 6,
                instance: inst(3),
                step: StepId(1),
            },
            "0506000000020000000300000001000000",
        ),
        golden(
            CoordMsg::RollbackDep {
                instance: inst(4),
                origin: StepId(2),
            },
            "06020000000400000002000000",
        ),
        golden(
            CentralMsg::WorkflowStart {
                instance: inst(1),
                inputs: vec![
                    (ItemKey::input(0), Value::Int(7)),
                    (ItemKey::input(1), Value::Bool(true)),
                ],
            },
            "000200000001000000020000000000000007000000000000000001000301",
        ),
        golden(
            CentralMsg::WorkflowChangeInputs {
                instance: inst(2),
                new_inputs: vec![(ItemKey::output(StepId(3), 0), Value::Str("x".into()))],
            },
            "0102000000020000000100000001030000000000020100000078",
        ),
        golden(CentralMsg::WorkflowAbort { instance: inst(3) }, "020200000003000000"),
        golden(CentralMsg::WorkflowStatus { instance: inst(4) }, "030200000004000000"),
        golden(
            CentralMsg::ExecRequest {
                instance: inst(5),
                step: StepId(2),
                program: "passthrough".into(),
                inputs: vec![Some(Value::Float(0.5)), None],
                attempt: 2,
                cost: 99,
            },
            "040200000005000000020000000b000000706173737468726f756768020000000101000000000000e03f00020000006300000000000000",
        ),
        golden(CentralMsg::StateProbe { token: u64::MAX }, "05ffffffffffffffff"),
        golden(
            CentralMsg::CompensateRequest {
                instance: inst(6),
                step: StepId(1),
                program: Some("undo".into()),
                partial: true,
                for_abort: false,
            },
            "060200000006000000010000000104000000756e646f0100",
        ),
        golden(
            CentralMsg::ExecResult {
                instance: inst(7),
                step: StepId(3),
                attempt: 1,
                outputs: Some(vec![Value::Int(1)]),
                error: None,
            },
            "0702000000070000000300000001000000010100000000010000000000000000",
        ),
        golden(
            CentralMsg::ExecResult {
                instance: inst(7),
                step: StepId(3),
                attempt: 2,
                outputs: None,
                error: Some("boom".into()),
            },
            "0702000000070000000300000002000000000104000000626f6f6d",
        ),
        golden(
            CentralMsg::StateProbeReply {
                token: 4,
                load: 1000,
            },
            "080400000000000000e803000000000000",
        ),
        golden(
            CentralMsg::CompensateResult {
                instance: inst(8),
                step: StepId(4),
                for_abort: true,
            },
            "0902000000080000000400000001",
        ),
        golden(
            CentralMsg::Coord(CoordMsg::RoRelease {
                req: 3,
                k: 4,
                lagging: inst(2),
            }),
            "0a020300000004000000000000000200000002000000",
        ),
        golden(
            CentralMsg::ChildStart {
                child: inst(9),
                inputs: vec![(ItemKey::input(0), Value::Int(3))],
                parent: inst(1),
                parent_step: StepId(5),
            },
            "0b020000000900000001000000000000000300000000000000020000000100000005000000",
        ),
        golden(
            CentralMsg::ChildDone {
                parent: inst(1),
                parent_step: StepId(5),
                outputs: vec![Value::Bool(false)],
            },
            "0c020000000100000005000000010000000300",
        ),
        golden(
            CentralMsg::MigrateRequest {
                instance: inst(10),
                target: 7,
            },
            "0d020000000a00000007000000",
        ),
        golden(
            CentralMsg::MigrateState {
                instance: inst(10),
                records: vec![(3, vec![1, 2, 3]), (u32::MAX, vec![])],
            },
            "0e020000000a000000020000000300000003000000010203ffffffff00000000",
        ),
        golden(CentralMsg::MigrateAck { instance: inst(10) }, "0f020000000a000000"),
        golden(
            CentralMsg::OwnerChanged {
                instance: inst(10),
                owner: 3,
            },
            "10020000000a00000003000000",
        ),
        // ---- crew-distributed ----------------------------------------------
        golden(StepStatusKind::Unknown, "00"),
        golden(StepStatusKind::Executing, "01"),
        golden(StepStatusKind::Done, "02"),
        golden(StepStatusKind::Failed, "03"),
        golden(
            CoordRule::RoFirstDone {
                req: 1,
                claimant: inst(1),
                partner: inst(2),
            },
            "000100000002000000010000000200000002000000",
        ),
        golden(
            CoordRule::MutexAcquire {
                req: 2,
                instance: inst(1),
                step: StepId(1),
            },
            "0102000000020000000100000001000000",
        ),
        golden(
            CoordRule::MutexRelease {
                req: 3,
                instance: inst(1),
                step: StepId(1),
            },
            "0203000000020000000100000001000000",
        ),
        golden(
            CoordRule::RoNotify {
                req: 4,
                instance: inst(1),
                local_step: StepId(2),
                tag: 0xAB,
                target_instance: inst(2),
                target_step: StepId(3),
            },
            "0304000000020000000100000002000000ab00000000000000020000000200000003000000",
        ),
        golden(
            RoTag {
                local_step: StepId(3),
                tag: 0xBEEF,
                partner: inst(15),
                partner_step: StepId(5),
            },
            "03000000efbe000000000000020000000f00000005000000",
        ),
        golden(rich_packet(), "020000000400000003000000010200000001050000000700000002000000000100005a000000000000000101000000020002060000004761736b65740700000000010000000101000000020000000202000000010000000302000000010000000401000000050100000006efbe000000000000030000000100000003000000efbe000000000000020000000f0000000500000001000000020000000df0000000000000020000000c0000000200000003000000000000000800000000000000"),
        golden(
            WorkflowPacket::initial(inst(1), StepId(1), DataEnv::new()),
            "02000000010000000100000000000000000000000000010000000001000000000000000000000001000000000000000100000000000000",
        ),
        golden(
            DistMsg::WorkflowStart {
                instance: inst(1),
                inputs: vec![(ItemKey::input(0), Value::Int(1))],
                parent: Some((inst(2), StepId(3))),
            },
            "0002000000010000000100000000000000010000000000000001020000000200000003000000",
        ),
        golden(
            DistMsg::WorkflowChangeInputs {
                instance: inst(1),
                new_inputs: vec![(ItemKey::input(0), Value::Bool(true))],
            },
            "010200000001000000010000000000000301",
        ),
        golden(DistMsg::WorkflowAbort { instance: inst(1) }, "020200000001000000"),
        golden(DistMsg::WorkflowStatus { instance: inst(1) }, "030200000001000000"),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "committed",
            },
            "04020000000100000000",
        ),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "aborted",
            },
            "04020000000100000001",
        ),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "executing",
            },
            "04020000000100000002",
        ),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "unknown",
            },
            "04020000000100000003",
        ),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "abort-rejected",
            },
            "04020000000100000004",
        ),
        golden(
            DistMsg::WorkflowStatusReply {
                instance: inst(1),
                status: "change-rejected",
            },
            "04020000000100000005",
        ),
        golden(DistMsg::WorkflowCommitted { instance: inst(1) }, "050200000001000000"),
        golden(DistMsg::WorkflowAborted { instance: inst(1) }, "060200000001000000"),
        golden(
            DistMsg::StepExecute {
                packet: rich_packet(),
            },
            "07020000000400000003000000010200000001050000000700000002000000000100005a000000000000000101000000020002060000004761736b65740700000000010000000101000000020000000202000000010000000302000000010000000401000000050100000006efbe000000000000030000000100000003000000efbe000000000000020000000f0000000500000001000000020000000df0000000000000020000000c0000000200000003000000000000000800000000000000",
        ),
        golden(
            DistMsg::StepCompleted {
                instance: inst(1),
                step: StepId(2),
                weight_num: 1,
                weight_den: 4,
            },
            "0802000000010000000200000001000000000000000400000000000000",
        ),
        golden(DistMsg::StateInformation { token: 9 }, "090900000000000000"),
        golden(
            DistMsg::StateInformationReply {
                token: 9,
                load: 777,
            },
            "0a09000000000000000903000000000000",
        ),
        golden(
            DistMsg::NestedCompleted {
                parent: inst(1),
                parent_step: StepId(2),
                child: inst(3),
                outputs: vec![Value::Float(1.5)],
            },
            "0b02000000010000000200000002000000030000000100000001000000000000f83f",
        ),
        golden(
            DistMsg::InputsChanged {
                instance: inst(1),
                origin: StepId(1),
                new_inputs: vec![(ItemKey::input(2), Value::Int(-1))],
            },
            "0c0200000001000000010000000100000000020000ffffffffffffffff",
        ),
        golden(
            DistMsg::WorkflowRollback {
                instance: inst(1),
                origin: StepId(1),
            },
            "0d020000000100000001000000",
        ),
        golden(
            DistMsg::HaltThread {
                instance: inst(1),
                origin: StepId(1),
                epoch: 2,
            },
            "0e02000000010000000100000002000000",
        ),
        golden(
            DistMsg::StepCompensate {
                instance: inst(1),
                step: StepId(2),
            },
            "0f020000000100000002000000",
        ),
        golden(
            DistMsg::StepCompensateAck {
                instance: inst(1),
                step: StepId(2),
                compensated: true,
            },
            "1002000000010000000200000001",
        ),
        golden(
            DistMsg::CompensateSet {
                instance: inst(1),
                origin: StepId(1),
                steps: vec![StepId(2), StepId(3)],
            },
            "11020000000100000001000000020000000200000003000000",
        ),
        golden(
            DistMsg::CompensateThread {
                instance: inst(1),
                steps: vec![StepId(4)],
            },
            "1202000000010000000100000004000000",
        ),
        golden(
            DistMsg::StepStatus {
                instance: inst(1),
                step: StepId(2),
            },
            "13020000000100000002000000",
        ),
        golden(
            DistMsg::StepStatusReply {
                instance: inst(1),
                step: StepId(2),
                status: StepStatusKind::Done,
            },
            "1402000000010000000200000002",
        ),
        golden(
            DistMsg::ExecuteRequest {
                instance: inst(1),
                step: StepId(2),
            },
            "15020000000100000002000000",
        ),
        golden(
            DistMsg::AddRule {
                rule: CoordRule::MutexRelease {
                    req: 3,
                    instance: inst(1),
                    step: StepId(1),
                },
            },
            "160203000000020000000100000001000000",
        ),
        golden(
            DistMsg::AddEvent {
                instance: inst(1),
                tag: 4,
            },
            "1702000000010000000400000000000000",
        ),
        golden(
            DistMsg::AddPrecondition {
                instance: inst(1),
                step: StepId(2),
                tag: 4,
            },
            "180200000001000000020000000400000000000000",
        ),
        golden(
            DistMsg::PurgeBroadcast {
                instances: vec![inst(1), inst(2)],
            },
            "190200000002000000010000000200000002000000",
        ),
        golden(
            DistMsg::StepRetry {
                instance: inst(1),
                step: StepId(2),
            },
            "1a020000000100000002000000",
        ),
    ]
}

#[test]
fn encodings_match_the_pinned_bytes() {
    let mut drift = Vec::new();
    for g in goldens() {
        let got = to_hex(&g.bytes);
        if got != g.hex {
            drift.push(format!("{}\n  pinned {}\n  actual {got}", g.what, g.hex));
        }
    }
    assert!(drift.is_empty(), "wire format drift:\n{}", drift.join("\n"));
}

#[test]
fn pinned_bytes_decode_back_to_the_sample() {
    for g in goldens() {
        assert_eq!((g.decode_prefix)(g.bytes.len()), Ok(true), "{}", g.what);
    }
}

/// A torn record tail is an error, never a panic or a shorter value: every
/// proper prefix of every pinned encoding fails to decode.
#[test]
fn truncated_encodings_are_rejected() {
    for g in goldens() {
        for n in 0..g.bytes.len() {
            assert!(
                (g.decode_prefix)(n).is_err(),
                "{} decoded from {n} of {} bytes",
                g.what,
                g.bytes.len()
            );
        }
    }
}

/// Asserts that `T`'s tags are exactly `0..count`: each decodes past the
/// tag byte (here to `Truncated` or a unit variant), and `count` itself is
/// rejected as a bad tag naming `context`.
fn tags_dense_below<T: Decode>(count: u8, context: &'static str) {
    for tag in 0..count {
        let got = T::decode(&mut tag.to_bytes()).err();
        assert!(
            !matches!(got, Some(CodecError::BadTag { .. })),
            "{context}: tag {tag} unassigned ({got:?})"
        );
    }
    assert_eq!(
        T::decode(&mut count.to_bytes()).err(),
        Some(CodecError::BadTag {
            context,
            tag: count
        })
    );
}

#[test]
fn first_unassigned_tag_is_rejected_for_every_enum() {
    tags_dense_below::<crew_model::ItemScope>(2, "ItemScope");
    tags_dense_below::<Value>(4, "Value");
    tags_dense_below::<InstanceStatus>(3, "InstanceStatus");
    tags_dense_below::<StoredStepState>(4, "StoredStepState");
    tags_dense_below::<DbOp>(9, "DbOp");
    tags_dense_below::<ChanRec<u32>>(4, "ChanRec");
    tags_dense_below::<CoordMsg>(7, "CoordMsg");
    tags_dense_below::<CentralMsg>(17, "CentralMsg");
    tags_dense_below::<StepStatusKind>(4, "StepStatusKind");
    tags_dense_below::<CoordRule>(4, "CoordRule");
    tags_dense_below::<DistMsg>(27, "DistMsg");
}
