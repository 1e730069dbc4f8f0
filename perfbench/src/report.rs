//! Metric catalogue and the result line the benchmark prints last.
//!
//! The catalogue is the single list of metric names, units and
//! directions; `BENCHMARK.json` at the repository root must declare
//! exactly the same set (checked by a unit test).

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn spec(name: impl Into<String>, unit: &'static str, better: Better) -> Spec {
    Spec {
        name: name.into(),
        unit,
        better,
    }
}

/// Metrics of the measured (untraced) runs; every workload reports all
/// of them.
pub fn end_to_end() -> Vec<Spec> {
    use Better::*;
    vec![
        spec("cpu_s", "s", Lower),
        spec("setup_s", "s", Lower),
        spec("peak_rss_mib", "MiB", Lower),
        spec("goal_met_share", "ratio", Higher),
    ]
}

/// Metric-name fragment of each Fig. 17 system.
pub const SYSTEM_KEYS: [&str; 6] = [
    "multistream",
    "tgs",
    "mps",
    "orion",
    "sgdrc_static",
    "sgdrc",
];

/// Metrics of the traced run; every workload reports all of them, 0
/// for a layer it does not run (see [`Metrics::idle`]). A layer's time is
/// reported as its `_share` of `tracing.round_cpu_s`, the on-CPU seconds
/// of one traced set-up and repetition, so that no time reads 0 on every
/// run of a workload that does not use the layer.
pub fn per_layer() -> Vec<Spec> {
    use Better::*;
    let mut v = vec![
        spec("dnn.compile_share", "ratio", Lower),
        spec("dnn.kernels", "count", Lower),
        spec("profiler.profile_share", "ratio", Lower),
        spec("trace.gen_share", "ratio", Lower),
        spec("trace.arrivals", "count", Higher),
        spec("cluster.prepare_share", "ratio", Lower),
        spec("cluster.lanes", "count", Higher),
        spec("serving.events", "count", Lower),
    ];
    for sys in SYSTEM_KEYS {
        v.extend([
            spec(format!("fig17.{sys}.share"), "ratio", Lower),
            spec(format!("fig17.{sys}.events"), "count", Lower),
            spec(format!("fig17.{sys}.be_preemptions"), "count", Lower),
            spec(format!("fig17.{sys}.dispatches"), "count", Lower),
            spec(format!("fig17.{sys}.dispatch_share"), "ratio", Lower),
        ]);
    }
    v.extend([
        spec("clock.epochs", "count", Lower),
        spec("clock.lanes_advanced", "count", Lower),
        spec("clock.collect_share", "ratio", Lower),
        spec("clock.advance_share", "ratio", Lower),
        spec("clock.route_share", "ratio", Lower),
        spec("clock.tick_share", "ratio", Lower),
        spec("clock.merge_share", "ratio", Lower),
        spec("router.routes", "count", Higher),
        spec("router.route_share", "ratio", Lower),
        spec("controller.migrations", "count", Lower),
        spec("chaos.requeued", "count", Lower),
        spec("chaos.retries", "count", Higher),
        spec("chaos.timeout_drops", "count", Lower),
        spec("degrade.ls_shed", "count", Lower),
        spec("degrade.be_shed", "count", Lower),
        spec("tiers.refused", "count", Lower),
        spec("tiers.queued", "count", Lower),
        spec("elastic.scale_events", "count", Lower),
        spec("elastic.warm_hits", "count", Higher),
        spec("elastic.replacements", "count", Higher),
        spec("telemetry.overhead", "ratio", Lower),
        spec("telemetry.events", "count", Higher),
        spec("telemetry.dropped", "count", Lower),
        spec("mem.loads", "count", Lower),
        spec("mem.l2_hits", "count", Higher),
        spec("mem.row_conflicts", "count", Lower),
        spec("reveng.calibrate_share", "ratio", Lower),
        spec("reveng.mark_share", "ratio", Lower),
        spec("reveng.marked", "count", Higher),
        spec("reveng.classes", "count", Higher),
        spec("reveng.analyze_share", "ratio", Lower),
        spec("learner.train_share", "ratio", Lower),
        spec("learner.samples", "count", Higher),
        spec("learner.lut_share", "ratio", Lower),
        spec("coloring.pool_share", "ratio", Lower),
        spec("coloring.chunks", "count", Higher),
        spec("coloring.allocs", "count", Higher),
        spec("coloring.alloc_failures", "count", Lower),
        spec("ops.sent", "count", Higher),
        spec("ops.completed", "count", Higher),
        spec("ops.failed", "count", Lower),
        spec("host.wall_s", "s", Lower),
        spec("host.runq_wait_s", "s", Lower),
        spec("host.pool_workers", "count", Lower),
        spec("host.detected_cpus", "count", Higher),
        spec("tracing.round_cpu_s", "s", Lower),
        spec("tracing.overhead", "ratio", Lower),
    ]);
    v
}

/// Per-layer metric prefixes of the Fig. 17 cell's per-system counters,
/// which only `fig17` runs.
pub const FIG17_CELL: &[&str] = &["fig17."];
/// Per-layer metric prefixes of the set-up layers every serving workload
/// runs and `reveng` does not.
pub const SERVING_SETUP: &[&str] = &["dnn.", "profiler.", "trace.", "serving."];
/// Per-layer metric prefixes of the fleet layers, which only the fleet
/// workloads run.
pub const FLEET_LAYERS: &[&str] = &[
    "cluster.",
    "clock.",
    "router.",
    "controller.",
    "chaos.",
    "degrade.",
    "tiers.",
    "elastic.",
    "telemetry.",
];
/// Per-layer metric prefixes of the channel-recovery layers, which only
/// `reveng` runs.
pub const REVENG_LAYERS: &[&str] = &["mem.", "reveng.", "learner.", "coloring."];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

/// An ordered set of metrics, each name at most once.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn new() -> Metrics {
        Metrics(Vec::new())
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, value });
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Reports 0 for every metric of `catalogue` under one of `prefixes`:
    /// the layers a workload does not run did no work in it. A metric
    /// the workload also measures is then reported twice, which panics.
    pub fn idle(&mut self, catalogue: &[Spec], prefixes: &[&str]) {
        for s in catalogue {
            if prefixes.iter().any(|p| s.name.starts_with(p)) {
                self.put(s.name.clone(), 0.0);
            }
        }
    }

    /// The JSON object `{"name": value, ...}` of these metrics.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.value))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// The JSON object the benchmark prints as its last line: every metric
/// of `catalogue`, in its order and unit, each finite. Any other metric
/// is an error. A repetition that fails a check aborts the run before
/// this line is printed, so `failed` is always 0 here.
pub fn result_line(
    attempted: u64,
    metrics: &Metrics,
    catalogue: &[Spec],
) -> Result<String, String> {
    if let Some(m) = metrics
        .iter()
        .find(|m| catalogue.iter().all(|s| s.name != m.name))
    {
        return Err(format!("metric {} is not in the catalogue", m.name));
    }
    let mut body = Vec::new();
    for spec in catalogue {
        let m = metrics
            .iter()
            .find(|m| m.name == spec.name)
            .ok_or_else(|| format!("metric {} was not reported", spec.name))?;
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, spec.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_metrics() -> Vec<Spec> {
        vec![
            spec("cpu_s", "s", Better::Lower),
            spec("ls_p50_us", "sim_us", Better::Lower),
        ]
    }

    #[test]
    fn result_line_is_json_in_catalogue_order_and_units() {
        let mut m = Metrics::new();
        m.put("ls_p50_us", 1234.5);
        m.put("cpu_s", 1.25);
        let line = result_line(3, &m, &two_metrics()).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"cpu_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"ls_p50_us\": {\"value\": 1234.5, \"unit\": \"sim_us\"}}}"
        );
        // Rust prints f64 without exponents, so tiny values stay valid JSON.
        let mut tiny = Metrics::new();
        tiny.put("cpu_s", 1e-7);
        tiny.put("ls_p50_us", 1.0);
        assert!(result_line(1, &tiny, &two_metrics())
            .unwrap()
            .contains("0.0000001"));
    }

    #[test]
    fn result_line_rejects_unknown_missing_and_non_finite() {
        let mut unknown = Metrics::new();
        unknown.put("cpu_s", 1.0);
        unknown.put("ls_p50_us", 1.0);
        unknown.put("nope", 1.0);
        assert!(result_line(1, &unknown, &two_metrics()).is_err());
        let mut missing = Metrics::new();
        missing.put("cpu_s", 1.0);
        assert!(result_line(1, &missing, &two_metrics()).is_err());
        let mut nan = Metrics::new();
        nan.put("cpu_s", f64::NAN);
        nan.put("ls_p50_us", 1.0);
        assert!(result_line(1, &nan, &two_metrics()).is_err());
    }

    #[test]
    fn idle_reports_zero_for_whole_layers() {
        let catalogue = per_layer();
        let mut m = Metrics::new();
        m.idle(&catalogue, REVENG_LAYERS);
        let expected = catalogue
            .iter()
            .filter(|s| REVENG_LAYERS.iter().any(|p| s.name.starts_with(p)))
            .count();
        assert_eq!(m.iter().count(), expected);
        assert!(m.iter().all(|x| x.value == 0.0));
        assert_eq!(m.to_json().matches(": 0").count(), expected);
    }

    /// Each layer group names metrics of the catalogue, and no metric
    /// belongs to two groups, so a workload can mark groups idle freely.
    #[test]
    fn layer_groups_are_disjoint() {
        let catalogue = per_layer();
        let groups = [FIG17_CELL, SERVING_SETUP, FLEET_LAYERS, REVENG_LAYERS];
        for p in groups.iter().flat_map(|g| g.iter()) {
            assert!(
                catalogue.iter().any(|s| s.name.starts_with(p)),
                "{p} matches no metric"
            );
        }
        for s in &catalogue {
            let owners = groups
                .iter()
                .filter(|g| g.iter().any(|p| s.name.starts_with(p)))
                .count();
            assert!(owners <= 1, "{} is in {owners} layer groups", s.name);
        }
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metric_panics() {
        let mut m = Metrics::new();
        m.put("cpu_s", 1.0);
        m.put("cpu_s", 2.0);
    }

    /// Names, units and directions in `BENCHMARK.json` match this file.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let start = text
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("section {section}"));
            let block = &text[start..];
            let block = &block[..block.find(']').expect("section end")];
            let entries: Vec<&str> = block.split('{').skip(1).collect();
            assert_eq!(entries.len(), specs.len(), "{section}: entry count");
            for (entry, s) in entries.iter().zip(&specs) {
                assert!(
                    entry.contains(&format!("\"name\": \"{}\"", s.name))
                        && entry.contains(&format!("\"unit\": \"{}\"", s.unit))
                        && entry.contains(&format!("\"better\": \"{}\"", s.better.as_str())),
                    "{section}: {entry} does not declare {s:?}"
                );
            }
        }
    }
}
