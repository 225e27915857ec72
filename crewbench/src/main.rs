//! `crewbench` — the CREW benchmark.
//!
//! ```text
//! crewbench --workload <steady|recovery|lossy-crash|skewed-fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced: one
//! warm-up repetition through `WorkflowSystem::run`, then timed ones
//! through the windowed drive with a reference-kernel slice between
//! windows (see `calib`); `--trace 1` drives the same workload through the
//! layers' entry points with spans and counters at every call, and reports
//! the per-layer metrics. Either way the last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod cpu;
mod drive;
mod layers;
mod report;
mod stats;
mod summary;
mod trace;
mod workload;

use crate::calib::Slices;
use crate::report::{BenchResult, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::summary::{Fingerprint, Outcomes};
use crate::trace::Tracer;
use crate::workload::{Inputs, Kind};
use crew_core::model::{InstanceId, WorkflowSchema};
use crew_core::simnet::Mechanism;
use crew_core::{InstanceOutcome, RunReport};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// Kernel slices before and after each timed set-up.
const SETUP_SLICES: u32 = 4;

/// Timed repetitions of the measured run, at least; more while time
/// remains.
const MIN_REPS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: crewbench --workload <steady|recovery|lossy-crash|skewed-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("crewbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let (result, catalog): (BenchResult, &[(&str, &str)]) = if args.trace {
        (traced_run(&args), &PER_LAYER)
    } else {
        (untraced_run(&args), &END_TO_END)
    };
    println!("{}", result.to_json(catalog));
    std::process::exit(if result.correct { 0 } else { 1 });
}

/// One set-up: deployment build, lint and scenario generation.
fn setup(kind: Kind, seed: u64, t: &mut Tracer) -> (Inputs, usize) {
    let deployment = t.span("workload", |_| workload::deployment(kind, seed));
    let findings = t.span("lint", |_| {
        let schemas: Vec<WorkflowSchema> = deployment
            .schemas
            .values()
            .map(|s| WorkflowSchema::clone(s))
            .collect();
        crew_lint::lint(&schemas, &deployment.coordination).len()
    });
    let inputs = t.span("scenario", |_| workload::inputs(kind, seed, deployment));
    (inputs, findings)
}

/// Checks that hold for every run of a workload; `Err` names the first
/// that fails.
fn check_outputs(kind: Kind, out: &Outcomes) -> Result<(), String> {
    if out.missing_completions > 0 {
        return Err(format!(
            "{} terminal instances have no completion tick",
            out.missing_completions
        ));
    }
    if kind.commits_only() && out.aborted > 0 {
        return Err(format!("{} aborts where nothing can abort", out.aborted));
    }
    Ok(())
}

/// The fault-free twin's outcomes, for the workloads that inject faults
/// a correct system must mask.
fn twin_outcomes(inputs: &Inputs) -> Option<BTreeMap<InstanceId, InstanceOutcome>> {
    (inputs.kind == Kind::LossyCrash).then(|| {
        let twin = inputs.fault_free_twin();
        twin.system.run(twin.scenario()).outcomes
    })
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One repetition through `WorkflowSystem::run`: the report and the
/// thread CPU time it took.
fn timed_run(inputs: &Inputs, scenario: &crew_core::Scenario) -> (RunReport, Duration) {
    let scenario = scenario.clone();
    cpu::timed(|| inputs.system.run(scenario))
}

/// Tracks that every repetition reproduces the first one's counts.
struct Repeats {
    first: Option<(Fingerprint, Outcomes)>,
    diverged: bool,
}

impl Repeats {
    fn new() -> Self {
        Repeats {
            first: None,
            diverged: false,
        }
    }

    fn record(&mut self, fp: Fingerprint, out: Outcomes) {
        match &self.first {
            None => self.first = Some((fp, out)),
            Some((f, o)) => self.diverged |= *f != fp || *o != out,
        }
    }
}

fn untraced_run(args: &Args) -> BenchResult {
    let t = &mut Tracer::disabled();
    // Each set-up is timed on the reference clock of the kernel slices
    // run right before and after it.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_cpu = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let mut slices = Slices::new();
        slices.run(SETUP_SLICES);
        let (inputs, cpu) = cpu::timed(|| {
            let (inputs, _) = setup(args.kind, args.seed, t);
            let scenario = inputs.scenario();
            (inputs, scenario)
        });
        slices.run(SETUP_SLICES);
        setup_s.push(slices.reference_seconds(cpu));
        setup_cpu.push(cpu.as_secs_f64());
        built = Some(inputs);
    }
    let (inputs, scenario) = built.expect("at least one set-up");

    // The first repetition goes through `WorkflowSystem::run`; it warms
    // the allocator and caches up and is not timed. The peak resident set
    // is read right after it, before the fault-free twin runs, so it is
    // this run's own peak. The timed repetitions go through the windowed
    // drive, with a kernel slice between windows, and must reproduce its
    // counts exactly.
    let started = Instant::now();
    let (report, _) = timed_run(&inputs, &scenario);
    let peak_rss = peak_rss_mb();
    let twin = twin_outcomes(&inputs);
    let mut repeats = Repeats::new();
    let mut check = Ok(());
    let mut record = |report: RunReport| {
        let out = Outcomes::of(&report, twin.as_ref());
        check = check.clone().and(check_outputs(args.kind, &out));
        let terminal = out.terminal() as f64;
        repeats.record(Fingerprint::of(&report), out);
        terminal
    };
    record(report);

    let (mut ips, mut cpu_ips, mut slice_ms) = (Vec::new(), Vec::new(), Vec::new());
    while ips.len() < MIN_REPS || started.elapsed() < Duration::from_secs(args.seconds) {
        let mut slices = Slices::new();
        let (report, cpu) = cpu::timed(|| drive::calibrated(&inputs, &mut slices));
        let program = cpu.saturating_sub(slices.cpu());
        let terminal = record(report);
        ips.push(terminal / slices.reference_seconds(program));
        cpu_ips.push(terminal / program.as_secs_f64());
        slice_ms.push(slices.mean().expect("slices ran").as_secs_f64() * 1e3);
    }
    let (_, out) = repeats.first.clone().expect("at least one repetition");
    if repeats.diverged {
        check = check.and(Err(
            "repetitions (WorkflowSystem::run and the windowed drive) disagree on deterministic counts"
                .into(),
        ));
    }

    let metrics = vec![
        ("throughput_ips", median(&ips)),
        ("p50_ticks", out.p50_ticks as f64),
        ("p99_ticks", out.p99_ticks as f64),
        ("msgs_per_inst", out.msgs_per_inst),
        ("busiest_load_per_inst", out.busiest_load_per_inst),
        ("peak_rss_mb", peak_rss),
        ("setup_s", median(&setup_s)),
    ];
    print_outcomes(args, &out, ips.len());
    println!("throughput per timed repetition (inst per reference second): {ips:.1?}");
    println!("throughput per timed repetition (inst per CPU second): {cpu_ips:.1?}");
    println!(
        "kernel slice per timed repetition (ms of CPU; nominal {:.1}): {slice_ms:.3?}",
        calib::NOMINAL_SLICE.as_secs_f64() * 1e3
    );
    println!(
        "set-up: median {:.3} ms of CPU over {SETUP_REPS} set-ups",
        median(&setup_cpu) * 1e3
    );
    finish(check, &out, metrics, &END_TO_END)
}

fn print_outcomes(args: &Args, out: &Outcomes, reps: usize) {
    println!(
        "workload {} seed {} reps {reps} (open loop, arrivals scheduled up front: generator lateness 0 ticks)",
        args.kind.name(),
        args.seed
    );
    println!(
        "instances {} committed {} aborted {} stalled {} twin_mismatches {} failed_frac {:.4} ratio \
         (latency samples {}; a stalled instance ranks beyond every terminal one)",
        out.attempted,
        out.committed,
        out.aborted,
        out.stalled,
        out.twin_mismatches,
        out.failed() as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
}

fn finish(
    check: Result<(), String>,
    out: &Outcomes,
    metrics: Vec<(&'static str, f64)>,
    catalog: &[(&str, &str)],
) -> BenchResult {
    let mut correct = check.is_ok();
    if let Err(e) = check {
        println!("CHECK FAILED: {e}");
    }
    for (name, value) in &metrics {
        println!(
            "{name:<36} {value:>16.4} {}",
            report::unit_of(catalog, name)
        );
        if !value.is_finite() || !stats::valid_metric_name(name) {
            println!("CHECK FAILED: {name} is not a valid name with a finite value");
            correct = false;
        }
    }
    if metrics.len() != catalog.len() {
        println!(
            "CHECK FAILED: {} metrics for a catalog of {}",
            metrics.len(),
            catalog.len()
        );
        correct = false;
    }
    BenchResult {
        correct,
        attempted: out.attempted,
        failed: out.failed(),
        metrics,
    }
}

fn per_inst(n: u64, out: &Outcomes) -> f64 {
    n as f64 / out.attempted.max(1) as f64
}

fn traced_run(args: &Args) -> BenchResult {
    let t = &mut Tracer::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let root = t.enter("setup");
        built = Some(setup(args.kind, args.seed, t));
        t.exit(root);
    }
    let (inputs, lint_findings) = built.expect("at least one set-up");
    let scenario = inputs.scenario();
    let twin = twin_outcomes(&inputs);
    let rules = t.span("rules", |_| layers::rules(&inputs.system.deployment));

    // Alternate untraced and traced repetitions until time is up; every
    // traced one must reproduce the untraced counts exactly.
    let mut repeats = Repeats::new();
    let (mut untraced_ips, mut traced_ips) = (Vec::new(), Vec::new());
    let mut check = Ok(());
    let started = Instant::now();
    while traced_ips.is_empty() || started.elapsed() < Duration::from_secs(args.seconds) {
        let (report, cpu) = timed_run(&inputs, &scenario);
        let out = Outcomes::of(&report, twin.as_ref());
        check = check.and(check_outputs(args.kind, &out));
        untraced_ips.push(out.terminal() as f64 / cpu.as_secs_f64());
        repeats.record(Fingerprint::of(&report), out);
        drop(report);

        let (report, cpu) = cpu::timed(|| t.span("traced_rep", |t| drive::traced(&inputs, t)));
        let out = Outcomes::of(&report, twin.as_ref());
        traced_ips.push(out.terminal() as f64 / cpu.as_secs_f64());
        repeats.record(Fingerprint::of(&report), out);
    }
    if repeats.diverged {
        check = check.and(Err(
            "traced and untraced repetitions disagree on deterministic counts".into(),
        ));
    }
    let (fp, out) = repeats.first.clone().expect("at least one repetition");
    let traced_reps = traced_ips.len() as f64;

    let captured = t.span("sample_run", |_| drive::sample_messages(&inputs));
    let codec = t.span("codec", |_| layers::codec(&captured, &fp.by_kind));
    if !codec.round_trips {
        check = check.and(Err("a sampled message does not survive its codec".into()));
    }
    // Scheduling nodes: the engines under parallel control (node ids after
    // the agents), the agents themselves under distributed control.
    let (agents, engines) = inputs.fleet();
    let is_dist = engines == 0;
    let sched = if is_dist {
        0..agents
    } else {
        agents..agents + engines
    };
    let node_count = |map: &BTreeMap<u32, u64>| -> Vec<u64> {
        sched
            .clone()
            .map(|n| map.get(&n).copied().unwrap_or(0))
            .collect()
    };
    let loads = node_count(&fp.load_by_node);
    let handled: u64 = node_count(&fp.handled_by_node).iter().sum();
    let mean_load = per_inst(loads.iter().sum(), &out) / loads.len() as f64;
    let max_load = per_inst(loads.iter().copied().max().unwrap_or(0), &out);
    let only = |yes: bool, v: f64| if yes { v } else { 0.0 };

    // The WAL is measured at the run's record count per scheduling node:
    // engine journal appends, or messages handled per agent.
    let records = if is_dist {
        handled
    } else {
        fp.engine_loads.iter().map(|l| l.wal_appends).sum()
    };
    let wal = t.span("storage", |_| {
        layers::wal(
            records / sched.len() as u64,
            codec.bytes_per_msg.round() as usize,
        )
    });
    if !wal.recovered_all {
        check = check.and(Err("WAL recovery lost records".into()));
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let sim_ns: Vec<u64> = t.durations("sim");
    let windows: Vec<f64> = sim_ns.iter().map(|&n| ms(n)).collect();
    let selves = t.self_times();
    let self_ms = |name: &str, per: f64| ms(selves.get(name).copied().unwrap_or(0)) / per;
    let m = |mech| per_inst(fp.messages(mech), &out);
    let tr = fp.transport;
    let untraced = median(&untraced_ips);
    let traced = median(&traced_ips);
    let metrics = vec![
        (
            "workload.build_ms",
            median(&as_ms(&t.durations("workload"))),
        ),
        ("lint.check_ms", median(&as_ms(&t.durations("lint")))),
        ("lint.findings", lint_findings as f64),
        ("rules.compile_us", rules.compile_us),
        ("rules.fire_ns", rules.fire_ns),
        ("sim.events_per_inst", per_inst(fp.events, &out)),
        (
            "sim.ns_per_event",
            sim_ns.iter().sum::<u64>() as f64 / (fp.events as f64 * traced_reps),
        ),
        ("sim.window_ms_p50", median(&windows)),
        (
            "sim.window_ms_max",
            windows.iter().copied().fold(0.0, f64::max),
        ),
        ("metrics.instance_keys", fp.instance_keys as f64),
        (
            "metrics.approx_bytes_per_msg",
            fp.total_bytes as f64 / fp.total_messages.max(1) as f64,
        ),
        (
            "central.delivered_per_inst",
            per_inst(fp.engine_loads.iter().map(|l| l.delivered_msgs).sum(), &out),
        ),
        (
            "central.wal_appends_per_inst",
            per_inst(fp.engine_loads.iter().map(|l| l.wal_appends).sum(), &out),
        ),
        ("central.mean_load_per_inst", only(!is_dist, mean_load)),
        (
            "distributed.handled_per_inst",
            only(is_dist, per_inst(handled, &out)),
        ),
        ("distributed.mean_load_per_inst", only(is_dist, mean_load)),
        ("distributed.max_load_per_inst", only(is_dist, max_load)),
        ("mech.normal_per_inst", m(Mechanism::Normal)),
        ("mech.failure_per_inst", m(Mechanism::FailureHandling)),
        ("mech.coord_per_inst", m(Mechanism::CoordinatedExecution)),
        ("mech.input_change_per_inst", m(Mechanism::InputChange)),
        ("mech.abort_per_inst", m(Mechanism::Abort)),
        ("mech.control_per_inst", m(Mechanism::Control)),
        (
            "reliable.data_frames_per_inst",
            per_inst(tr.data_frames, &out),
        ),
        ("reliable.retx_per_inst", per_inst(tr.retransmissions, &out)),
        ("reliable.acks_per_inst", per_inst(tr.acks, &out)),
        (
            "reliable.useful_frame_ratio",
            if tr.data_frames + tr.retransmissions == 0 {
                1.0
            } else {
                tr.data_frames as f64 / (tr.data_frames + tr.retransmissions) as f64
            },
        ),
        ("reliable.dup_suppressed", tr.dup_suppressed as f64),
        ("reliable.crash_drops", tr.crash_drops as f64),
        ("storage.wal_append_ns", wal.append_ns),
        (
            "storage.wal_recover_ns_per_record",
            wal.recover_ns_per_record,
        ),
        ("codec.encode_ns", codec.encode_ns),
        ("codec.decode_ns", codec.decode_ns),
        (
            "codec.central_bytes_per_msg",
            only(!is_dist, codec.bytes_per_msg),
        ),
        (
            "codec.dist_bytes_per_msg",
            only(is_dist, codec.bytes_per_msg),
        ),
        ("codec.sampled_share", codec.sampled_share),
        (
            "shard.migrations",
            fp.engine_loads.iter().map(|l| l.migrations_in).sum::<u64>() as f64,
        ),
        (
            "shard.forwarded_per_inst",
            per_inst(fp.engine_loads.iter().map(|l| l.forwarded_msgs).sum(), &out),
        ),
        (
            "shard.engine_skew",
            crew_core::shard::measured_skew(&fp.engine_loads),
        ),
        ("self_ms.workload", self_ms("workload", SETUP_REPS as f64)),
        ("self_ms.lint", self_ms("lint", SETUP_REPS as f64)),
        ("self_ms.scenario", self_ms("scenario", SETUP_REPS as f64)),
        ("self_ms.rules", self_ms("rules", 1.0)),
        ("self_ms.builder", self_ms("builder", traced_reps)),
        ("self_ms.sim", self_ms("sim", traced_reps)),
        ("self_ms.readout", self_ms("readout", traced_reps)),
        ("self_ms.storage", self_ms("storage", 1.0)),
        ("self_ms.codec", self_ms("codec", 1.0)),
        ("self_ms.sample_run", self_ms("sample_run", 1.0)),
        ("trace.untraced_ips", untraced),
        ("trace.traced_ips", traced),
        ("trace.overhead_pct", (untraced - traced) / untraced * 100.0),
        ("trace.spans", t.len() as f64),
    ];
    print_outcomes(args, &out, traced_ips.len());
    println!(
        "passivity: {} traced repetition(s) reproduce the untraced counts: {}",
        traced_ips.len(),
        !repeats.diverged
    );
    write_spans(args, t);
    finish(check, &out, metrics, &PER_LAYER)
}

fn as_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Write the recorded spans to `crewbench/out/` as JSON lines.
fn write_spans(args: &Args, t: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.jsonl", args.kind.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, t.to_json_lines())) {
        Ok(()) => println!("spans: {} written to {}", t.len(), path.display()),
        Err(e) => eprintln!("crewbench: could not write {}: {e}", path.display()),
    }
}
