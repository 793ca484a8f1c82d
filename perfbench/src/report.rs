//! Metric names and units, and the result lines.

use std::collections::BTreeMap;

/// `(name, unit, better)` of every end-to-end metric (tracing off).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("completion_s.p50", "s", "lower"),
    ("node_rounds_per_s", "1/s", "higher"),
    ("scenarios_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric (traced pass).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("core.topology_build_ms", "ms", "lower"),
    ("core.resolve_sharded_ms", "ms", "lower"),
    ("core.union_pairs_ms", "ms", "lower"),
    ("sim.sync.advertise_ms", "ms", "lower"),
    ("sim.sync.decide_ms", "ms", "lower"),
    ("sim.sync.match_ms", "ms", "lower"),
    ("sim.sync.transfer_ms", "ms", "lower"),
    ("sim.sync.boundary_share", "ratio", "lower"),
    ("sim.sync.region_imbalance", "ratio", "lower"),
    ("sim.async.execute_ms", "ms", "lower"),
    ("sim.async.merge_ms", "ms", "lower"),
    ("sim.async.sweep_ms", "ms", "lower"),
    ("sim.async.events", "count", "lower"),
    ("sim.async.events_per_s", "1/s", "higher"),
    ("sim.async.region_imbalance", "ratio", "lower"),
    ("sim.async.drop_ratio", "ratio", "lower"),
    ("sim.round_ms.p50", "ms", "lower"),
    ("sim.round_ms.p99", "ms", "lower"),
    ("sim.rounds_executed", "count", "lower"),
    ("sim.connections", "count", "lower"),
    ("sim.productive_ratio", "ratio", "higher"),
    ("dynamics.mutations", "count", "lower"),
    ("dynamics.drain_ms", "ms", "lower"),
    ("membership.tick_ms", "ms", "lower"),
    ("membership.shuffles", "count", "lower"),
    ("membership.probes", "count", "lower"),
    ("membership.evictions", "count", "lower"),
    ("experiments.emit_us_per_line", "us", "lower"),
    ("experiments.pool_idle_frac", "ratio", "lower"),
    ("experiments.cells_stolen", "count", "lower"),
    ("telemetry.trace_overhead", "ratio", "lower"),
    ("telemetry.trace_events", "count", "lower"),
];

/// Metric values by name, rendered against one of the tables above.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The `"metrics"` object over `table`: every listed metric, in table
    /// order. A metric the run did not set is a bug in the benchmark.
    pub fn to_json(&self, table: &[(&'static str, &str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit, _)| {
                let value = *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// One human-readable line per metric, for stderr.
    pub fn table(&self, table: &[(&'static str, &str, &str)]) -> String {
        table
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "  {name:<32} {:>24} {unit:<6} ({better} is better)\n",
                    num(self.0.get(name).copied().unwrap_or(f64::NAN))
                )
            })
            .collect()
    }
}

/// A JSON number with every digit `f64` holds (non-finite values are a
/// measurement failure and render as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON object of `key: number` pairs.
pub fn object(pairs: &[(&str, f64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The contract's final stdout line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && ["lower", "higher"].contains(better));
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("completion_s.p50", 1.25);
        let line = result_line(true, 3, 0, &m.to_json(&END_TO_END[..1]));
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"completion_s.p50":{"value":1.25,"unit":"s"}}}"#
        );
    }
}
