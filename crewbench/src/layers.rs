//! Per-layer measurements the traced run makes beside the drive itself:
//! rule compilation and firing, WAL append and recovery, and the wire
//! codecs over messages sampled from the workload.

use crate::drive::Captured;
use crew_core::exec::Deployment;
use crew_core::model::{DataEnv, ItemKey, Value};
use crew_core::rules::{compile_schema, Action, EventKind, RuleSet};
use crew_core::simnet::{Classify, Mechanism};
use crew_core::storage::{DbOp, Decode, Encode, Wal};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::workload::START_INPUTS;

/// Repetitions of each rule measurement.
const RULE_REPS: u32 = 200;

/// Repetitions of each codec measurement per sampled kind.
const CODEC_REPS: u32 = 2_000;

/// Rule-layer figures.
pub struct RuleFigures {
    /// Microseconds to compile one schema's rule template.
    pub compile_us: f64,
    /// Nanoseconds per `add_event` + `fire_ready` while replaying each
    /// schema's steps to completion.
    pub fire_ns: f64,
}

/// Compile every schema's template and replay its navigation through a
/// fresh `RuleSet`: `workflow.start`, then each started step's `step.done`.
pub fn rules(deployment: &Deployment) -> RuleFigures {
    let schemas: Vec<_> = deployment.schemas.values().cloned().collect();
    let started = Instant::now();
    for _ in 0..RULE_REPS {
        for s in &schemas {
            black_box(compile_schema(black_box(s)));
        }
    }
    let compile_us =
        started.elapsed().as_secs_f64() * 1e6 / (RULE_REPS as f64 * schemas.len() as f64);

    let templates: Vec<_> = schemas.iter().map(|s| compile_schema(s)).collect();
    let mut env = DataEnv::new();
    for (slot, v) in START_INPUTS {
        env.set(ItemKey::input(slot), Value::Int(v));
    }
    let mut calls = 0u64;
    let started = Instant::now();
    for _ in 0..RULE_REPS {
        for (schema, template) in schemas.iter().zip(&templates) {
            let mut set = RuleSet::new();
            set.add_rules(template.iter().map(|t| &t.rule));
            let mut pending = vec![EventKind::WorkflowStart];
            // Each step starts once per replay; the bound only guards
            // against a template that re-fires forever.
            for _ in 0..4 * schema.step_count() + 4 {
                let Some(event) = pending.pop() else {
                    break;
                };
                set.add_event(event);
                let fired = set.fire_ready(black_box(&env));
                calls += 1;
                for f in fired {
                    if let Action::StartStep(step) = f.action {
                        pending.push(EventKind::StepDone(step));
                    }
                }
            }
        }
    }
    let fire_ns = started.elapsed().as_nanos() as f64 / calls.max(1) as f64;
    RuleFigures {
        compile_us,
        fire_ns,
    }
}

/// Codec figures over the sampled messages, weighted by how often each
/// kind was delivered.
pub struct CodecFigures {
    /// Mean encoded bytes per delivered message.
    pub bytes_per_msg: f64,
    /// Mean nanoseconds to encode one delivered message.
    pub encode_ns: f64,
    /// Mean nanoseconds to decode one delivered message.
    pub decode_ns: f64,
    /// Share of delivered messages whose kind was sampled.
    pub sampled_share: f64,
    /// True when every sample decodes back to itself.
    pub round_trips: bool,
}

fn codec_over<M: Encode + Decode + Classify + PartialEq>(
    samples: &BTreeMap<&'static str, M>,
    delivered: &BTreeMap<(&'static str, Mechanism), u64>,
) -> CodecFigures {
    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for ((kind, _), n) in delivered {
        *by_kind.entry(kind).or_default() += n;
    }
    let total: u64 = by_kind.values().sum();
    let (mut weight, mut bytes, mut enc, mut dec) = (0u64, 0f64, 0f64, 0f64);
    let mut round_trips = true;
    for (kind, &n) in &by_kind {
        let Some(msg) = samples.get(kind) else {
            continue;
        };
        let encoded = msg.to_bytes();
        let mut copy = encoded.clone();
        round_trips &= M::decode(&mut copy).is_ok_and(|m| m == *msg);
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            black_box(black_box(msg).to_bytes());
        }
        let enc_ns = started.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        let started = Instant::now();
        for _ in 0..CODEC_REPS {
            let mut b = black_box(&encoded).clone();
            black_box(M::decode(&mut b).is_ok());
        }
        let dec_ns = started.elapsed().as_nanos() as f64 / CODEC_REPS as f64;
        weight += n;
        bytes += n as f64 * encoded.len() as f64;
        enc += n as f64 * enc_ns;
        dec += n as f64 * dec_ns;
    }
    let w = weight.max(1) as f64;
    CodecFigures {
        bytes_per_msg: bytes / w,
        encode_ns: enc / w,
        decode_ns: dec / w,
        sampled_share: weight as f64 / total.max(1) as f64,
        round_trips,
    }
}

/// Encode and decode one sample of every delivered kind.
pub fn codec(
    captured: &Captured,
    delivered: &BTreeMap<(&'static str, Mechanism), u64>,
) -> CodecFigures {
    match captured {
        Captured::Central(s) => codec_over(s, delivered),
        Captured::Distributed(s) => codec_over(s, delivered),
    }
}

/// WAL figures.
pub struct WalFigures {
    /// Nanoseconds per record for `append_nosync` + `flush`.
    pub append_ns: f64,
    /// Nanoseconds per record for `recover`.
    pub recover_ns_per_record: f64,
    /// True when recovery returned every record appended.
    pub recovered_all: bool,
}

/// Journal `records` command records of `payload_bytes` each into an
/// in-memory WAL, one flush per record as an engine's group commit does
/// per delivered message, then recover the log.
pub fn wal(records: u64, payload_bytes: usize) -> WalFigures {
    let record = DbOp::EngineInput {
        from: 0,
        payload: vec![0xA5; payload_bytes],
    };
    let mut wal: Wal<DbOp> = Wal::in_memory();
    let started = Instant::now();
    for _ in 0..records {
        wal.append_nosync(black_box(&record))
            .expect("in-memory append");
        wal.flush().expect("in-memory flush");
    }
    let append_ns = started.elapsed().as_nanos() as f64 / records.max(1) as f64;
    let started = Instant::now();
    let recovered = wal.recover().expect("in-memory recovery");
    let recover_ns = started.elapsed().as_nanos() as f64 / records.max(1) as f64;
    WalFigures {
        append_ns,
        recover_ns_per_record: recover_ns,
        recovered_all: recovered.len() as u64 == records,
    }
}
