//! The metric catalog and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`: what a `--trace 0` run reports.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput_ips", "inst/s"),
    ("p50_ticks", "ticks"),
    ("p99_ticks", "ticks"),
    ("msgs_per_inst", "msgs"),
    ("busiest_load_per_inst", "load"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`: what a `--trace 1` run reports.
/// `crewbench/README.md` names the end-to-end metric and workload each
/// one should move.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("workload.build_ms", "ms"),
    ("lint.check_ms", "ms"),
    ("lint.findings", "count"),
    ("rules.compile_us", "us"),
    ("rules.fire_ns", "ns"),
    ("sim.events_per_inst", "events"),
    ("sim.ns_per_event", "ns"),
    ("sim.window_ms_p50", "ms"),
    ("sim.window_ms_max", "ms"),
    ("metrics.instance_keys", "count"),
    ("metrics.approx_bytes_per_msg", "B"),
    ("central.delivered_per_inst", "msgs"),
    ("central.wal_appends_per_inst", "records"),
    ("central.mean_load_per_inst", "load"),
    ("distributed.handled_per_inst", "msgs"),
    ("distributed.mean_load_per_inst", "load"),
    ("distributed.max_load_per_inst", "load"),
    ("mech.normal_per_inst", "msgs"),
    ("mech.failure_per_inst", "msgs"),
    ("mech.coord_per_inst", "msgs"),
    ("mech.input_change_per_inst", "msgs"),
    ("mech.abort_per_inst", "msgs"),
    ("mech.control_per_inst", "msgs"),
    ("reliable.data_frames_per_inst", "frames"),
    ("reliable.retx_per_inst", "frames"),
    ("reliable.acks_per_inst", "frames"),
    ("reliable.useful_frame_ratio", "ratio"),
    ("reliable.dup_suppressed", "count"),
    ("reliable.crash_drops", "count"),
    ("storage.wal_append_ns", "ns"),
    ("storage.wal_recover_ns_per_record", "ns"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.central_bytes_per_msg", "B"),
    ("codec.dist_bytes_per_msg", "B"),
    ("codec.sampled_share", "ratio"),
    ("shard.migrations", "count"),
    ("shard.forwarded_per_inst", "msgs"),
    ("shard.engine_skew", "ratio"),
    ("self_ms.workload", "ms"),
    ("self_ms.lint", "ms"),
    ("self_ms.scenario", "ms"),
    ("self_ms.rules", "ms"),
    ("self_ms.builder", "ms"),
    ("self_ms.sim", "ms"),
    ("self_ms.readout", "ms"),
    ("self_ms.storage", "ms"),
    ("self_ms.codec", "ms"),
    ("self_ms.sample_run", "ms"),
    ("trace.untraced_ips", "inst/s"),
    ("trace.traced_ips", "inst/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The result of one benchmark run.
pub struct BenchResult {
    /// Every output check passed.
    pub correct: bool,
    /// Instances attempted by one repetition.
    pub attempted: usize,
    /// Instances of one repetition that failed.
    pub failed: usize,
    /// `(name, value)` for every metric of the run's catalog, in order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl BenchResult {
    /// The result line: one JSON object, metric units from `catalog`.
    pub fn to_json(&self, catalog: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(catalog, name);
            let sep = if i == 0 { "" } else { ", " };
            // Finite by construction; JSON has no NaN, so guard anyway.
            let value = if value.is_finite() { *value } else { -1.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// The unit of metric `name` in `catalog`.
pub fn unit_of<'a>(catalog: &[(&str, &'a str)], name: &str) -> &'a str {
    catalog
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalog_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside crewbench/");
        let declared = text.matches("\"name\":").count();
        // Four workloads plus every metric.
        assert_eq!(declared, 4 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let o = BenchResult {
            correct: true,
            attempted: 10,
            failed: 1,
            metrics: vec![("p50_ticks", 31.0), ("setup_s", 0.0125)],
        };
        assert_eq!(
            o.to_json(&END_TO_END),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\
             \"p50_ticks\": {\"value\": 31, \"unit\": \"ticks\"}, \
             \"setup_s\": {\"value\": 0.0125, \"unit\": \"s\"}}}"
        );
    }
}
