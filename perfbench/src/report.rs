//! The run's result: the metric catalogue, the human-readable lines,
//! and the one-line JSON summary that ends standard output.

use crate::stats::Tally;

/// End-to-end metrics (reported with `--trace 0`), with units. The
/// run also prints `speedup_vs_serial`, `tickets_per_s`,
/// `ticket_p90_s` and `failed_frac` by name; they are not catalogued
/// because their run-to-run spread exceeds any bound a benchmark may
/// set (see `perfbench/README.md`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_p50_s", "s"),
    ("ticket_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("mesh.build_s", "s"),
    ("mesh.decompose_s", "s"),
    ("graph.problem_build_s", "s"),
    ("core.launch_s", "s"),
    ("core.shutdown_s", "s"),
    ("core.epoch_record_s", "s"),
    ("core.epoch_replay_p50_s", "s"),
    ("core.kernel_s", "s"),
    ("core.graph_op_s", "s"),
    ("core.input_s", "s"),
    ("core.output_s", "s"),
    ("core.pack_s", "s"),
    ("core.unpack_s", "s"),
    ("core.comm_s", "s"),
    ("core.route_s", "s"),
    ("core.idle_s", "s"),
    ("core.other_s", "s"),
    ("core.drain_s", "s"),
    ("core.compute_calls", "count"),
    ("core.work_done", "count"),
    ("core.work_per_call", "ratio"),
    ("comm.streams_sent", "count"),
    ("comm.frames_sent", "count"),
    ("comm.bytes_sent", "B"),
    ("comm.streams_per_frame", "ratio"),
    ("kernel.blocked_ns", "ns"),
    ("kernel.scalar_ns", "ns"),
    ("kernel.bytes_per_cag", "B"),
    ("replay.compile_s", "s"),
    ("replay.plan_bytes", "B"),
    ("replay.cache_hit_ratio", "ratio"),
    ("program.fold_s", "s"),
    ("program.fresh_allocations", "count"),
    ("solver.emission_s", "s"),
    ("solver.residual_s", "s"),
    ("solver.driver_s", "s"),
    ("solver.unattributed_s", "s"),
    ("session.queue_wait_p50_s", "s"),
    ("session.service_p50_s", "s"),
    ("session.epochs_per_ticket", "count"),
    ("session.driver_per_ticket_s", "s"),
    ("serial.solve_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.samples", "count"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Checked operations.
    pub tally: Tally,
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the summary.
    pub lines: Vec<String>,
}

impl Report {
    /// Record metric `name` (must be in one of the catalogues).
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, value));
    }

    /// Print an end-to-end figure by name and unit without putting it
    /// in the JSON summary.
    pub fn ungated(&mut self, name: &str, value: f64, unit: &str, how: &str) {
        self.lines.push(format!(
            "{name} = {value} {unit} (printed, not gated; {how})"
        ));
    }

    /// Add a human-readable line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Record one checked operation, noting `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.lines.push(format!("FAILED: {msg}"));
        }
        self.tally.record(ok);
    }

    /// Print every line, every metric by name with its unit, and the
    /// JSON summary holding exactly the `catalogue`'s metrics.
    pub fn print(&self, catalogue: &[(&str, &str)]) {
        for l in &self.lines {
            println!("{l}");
        }
        let mut fields = Vec::new();
        for &(name, unit) in catalogue {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            println!("{name} = {value} {unit}");
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "failed_frac = {} ratio ({} failed of {} attempted)",
            self.tally.failed_frac(),
            self.tally.failed,
            self.tally.attempted
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            fields.join(", ")
        );
    }
}

/// Unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A finite f64 as a JSON number with all its digits (`{:?}` prints
/// the shortest exact form, e.g. `3.0` or `1.25e-5`).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name"` listed in a section of `BENCHMARK.json`.
    fn names_in(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("key present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn metrics_must_be_catalogued_and_finite() {
        let mut r = Report::default();
        r.metric("setup_s", 0.5);
        assert!(std::panic::catch_unwind(move || r.metric("nope", 1.0)).is_err());
        let mut r = Report::default();
        assert!(std::panic::catch_unwind(move || r.metric("setup_s", f64::NAN)).is_err());
        assert_eq!(json_number(0.000_012_5), "1.25e-5");
        assert_eq!(json_number(3.0), "3.0");
    }
}
