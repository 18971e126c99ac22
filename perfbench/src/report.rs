//! The metric catalog and the one-line JSON result.

use std::collections::BTreeMap;

/// One metric: name, unit, and which direction is better.
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` (read by the `BENCHMARK.json` check).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("slots_per_s", "1/s", "higher"),
    m("step_us_p50", "us", "lower"),
    m("ideal_pct", "%", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, printed by every traced run of every workload.
/// A layer a workload does not exercise reads 0 (see README.md).
pub const PER_LAYER: &[Metric] = &[
    // Accuracy and tails of the closed loop.
    m("drift_max_q", "quanta", "lower"),
    m("failed_pct", "%", "lower"),
    m("step_us_p99", "us", "lower"),
    m("burst_ms_p50", "ms", "lower"),
    m("checkpoint_ms_p50", "ms", "lower"),
    // pfair-sched::queue
    m("queue.pushes", "count", "lower"),
    m("queue.pops", "count", "lower"),
    m("queue.stale_pct", "%", "lower"),
    m("queue.compactions", "count", "lower"),
    m("queue.radix_ns", "ns", "lower"),
    m("queue.heap_ns", "ns", "lower"),
    // pfair-sched::reweight (engine dispatch)
    m("reweight.initiated", "count", "lower"),
    m("reweight.enacted_pct", "%", "higher"),
    m("reweight.halts", "count", "lower"),
    m("reweight.queue_ops_per_burst", "count", "lower"),
    m("reweight.direct_cost", "count", "lower"),
    m("reweight.latency_p50", "slots", "lower"),
    // pfair-sched::admission
    m("admission.refused", "count", "lower"),
    m("admission.request_ns", "ns", "lower"),
    // pfair-core::rational, ::window, ::ideal
    m("rational.op_ns", "ns", "lower"),
    m("window.lookup_ns", "ns", "lower"),
    m("ideal.advance_ns", "ns", "lower"),
    m("tracker.advances", "count", "lower"),
    // pfair-sched::engine batching (busy_span, tickless)
    m("batch.busy_span_jumps", "count", "higher"),
    m("batch.quiet_span_slots", "slots", "higher"),
    m("batch.release_batches", "count", "lower"),
    m("batch.batched_pct", "%", "higher"),
    // pfair-sched::calendar
    m("calendar.releases", "count", "lower"),
    m("calendar.insert_take_ns", "ns", "lower"),
    // pfair-sched::shard + slab
    m("shard.new_ms", "ms", "lower"),
    m("shard.segment_ms_p50", "ms", "lower"),
    m("shard.finish_ms", "ms", "lower"),
    m("shard.migrations", "count", "lower"),
    m("shard.util_imbalance", "%", "lower"),
    m("shard.width1_over_width2", "ratio", "higher"),
    // pfair-obs
    m("obs.metrics_overhead_pct", "%", "lower"),
    // pfair-persist + engine/persist
    m("persist.capture_ms", "ms", "lower"),
    m("persist.encode_ms", "ms", "lower"),
    m("persist.decode_ms", "ms", "lower"),
    m("persist.restore_ms", "ms", "lower"),
    m("persist.snapshot_bytes", "bytes", "lower"),
    // whisper-sim::scenario (input generation), pfair-sched::verify
    m("scenario.generate_ms", "ms", "lower"),
    m("verify.ms", "ms", "lower"),
    // Run accounting
    m("engine.quanta", "count", "higher"),
    m("engine.preemptions", "count", "lower"),
    m("engine.migrations", "count", "lower"),
    m("host.ref_ms", "ms", "lower"),
    m("host.scale", "ratio", "higher"),
    m("raw.slots_per_s", "1/s", "higher"),
    m("raw.step_us_p50", "us", "lower"),
    m("trace.accounted_pct", "%", "higher"),
    m("trace.overhead_pct", "%", "lower"),
];

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric. Panics on a name outside the catalog (a bug in
    /// the benchmark, not in the program measured).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric `{name}` is not in the catalog"
        );
        self.0.insert(name, value);
    }

    /// Sets a count.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.set(name, value as f64);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the result line: the metrics of `catalog` in catalog order.
/// Per-layer metrics a workload did not set read 0; an end-to-end
/// metric that is missing or any value that is not finite is an error.
pub fn render(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    catalog: &[Metric],
    zero_fill: bool,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(catalog.len());
    for m in catalog {
        let v = match metrics.get(m.name) {
            Some(v) => v,
            None if zero_fill => 0.0,
            None => return Err(format!("metric `{}` was not measured", m.name)),
        };
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", m.name));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn every_metric_is_well_named_with_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad name {}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{} unit", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        // The workspace JSON codec is integer-only and `BENCHMARK.json`
        // carries fractional bounds, so match the canonical entry text.
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"better\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn render_zero_fills_only_when_asked() {
        let mut ms = Metrics::default();
        ms.set("setup_s", 0.5);
        assert!(render(true, 1, 0, &ms, END_TO_END, false).is_err());
        let line = render(true, 3, 1, &ms, &END_TO_END[..1], false).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(render(true, 1, 0, &ms, PER_LAYER, true).is_ok());
        ms.set("slots_per_s", f64::NAN);
        assert!(render(true, 1, 0, &ms, &END_TO_END[..2], false).is_err());
    }
}
