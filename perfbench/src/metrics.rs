//! The metrics the benchmark reports, and the one result line it prints.
//!
//! Every workload prints every declared metric. A metric that a workload
//! never exercises (for example cluster admission counters on
//! `chdl_stream`) reads 0 and is marked `n/a` in the human-readable
//! lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_host_s", "1/s"),
    ("host_us_per_virtual_us", "us/us"),
    ("sim_cycles_per_host_s", "1/s"),
    ("goodput", "ratio"),
    ("virt_latency_mean_us", "us"),
    ("virt_latency_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // cluster
    ("cluster.offer_host_s", "s"),
    ("cluster.advance_host_s", "s"),
    ("cluster.shed.queue_full", "count"),
    ("cluster.shed.tenant_quota", "count"),
    ("cluster.shed.class_shed", "count"),
    ("cluster.spill_share", "ratio"),
    ("cluster.affinity_hit_rate", "ratio"),
    ("cluster.steal.warm", "count"),
    ("cluster.steal.cold", "count"),
    ("cluster.steal.below_breakeven", "count"),
    ("cluster.steal.jobs", "count"),
    // runtime: the shard scheduler inside each cluster shard
    ("runtime.switches", "count"),
    ("runtime.switches_per_job", "ratio"),
    ("runtime.queue_wait_p99_us", "us"),
    ("runtime.reconfig_virtual_s", "s"),
    ("runtime.dma_virtual_s", "s"),
    ("runtime.execute_virtual_s", "s"),
    // fabric, through core::Coprocessor (replayed)
    ("fabric.switch_host_us", "us"),
    ("fabric.frames_per_switch", "count"),
    ("fabric.switch_share", "ratio"),
    // apps (replayed)
    ("apps.execute_host_us.trt", "us"),
    ("apps.execute_host_us.volume", "us"),
    ("apps.execute_host_us.image", "us"),
    ("apps.execute_host_us.nbody", "us"),
    ("apps.execute_share", "ratio"),
    // chdl
    ("chdl.sim_new_host_us.trt", "us"),
    ("chdl.sim_new_host_us.volume", "us"),
    ("chdl.sim_new_host_us.image", "us"),
    ("chdl.sim_new_host_us.nbody", "us"),
    ("chdl.sim_new_host_us.trt_hist", "us"),
    ("chdl.run_event_host_us", "us"),
    ("chdl.filter_host_us", "us"),
    ("chdl.step_host_ns", "ns"),
    ("chdl.ops_lowered", "count"),
    ("chdl.ops_final", "count"),
    ("chdl.netopt_nodes_removed", "count"),
    ("chdl.evals_threaded", "count"),
    ("chdl.evals_match", "count"),
    // self time per layer over the traced phase
    ("bench.self_host_s", "s"),
    ("cluster.self_host_s", "s"),
    ("apps.self_host_s", "s"),
    ("fabric.self_host_s", "s"),
    ("chdl.self_host_s", "s"),
    // tracing overhead
    ("trace.untraced_jobs_per_host_s", "1/s"),
    ("trace.traced_jobs_per_host_s", "1/s"),
    ("trace.untraced_sim_cycles_per_host_s", "1/s"),
    ("trace.traced_sim_cycles_per_host_s", "1/s"),
    ("trace.overhead_share", "ratio"),
];

/// Metric values measured by one run, keyed by declared name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `value` under the declared metric `name`.
    ///
    /// # Panics
    /// If `name` is not declared in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The unit a declared metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// The outcome of one benchmark run.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Every output matched its oracle and every replay was identical.
    pub correct: bool,
    /// Operations attempted: jobs offered, events and frames streamed.
    pub attempted: u64,
    /// Operations that errored, were lost, or produced a wrong output.
    pub failed: u64,
    /// Measured metric values.
    pub metrics: Metrics,
}

/// Render the declared metrics of `set`: one human-readable line per
/// metric, and the final JSON result line.
pub fn render(outcome: &Outcome, set: &[(&'static str, &'static str)]) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, &(name, unit)) in set.iter().enumerate() {
        let measured = outcome.metrics.get(name).filter(|v| v.is_finite());
        let value = measured.unwrap_or(0.0);
        let note = if measured.is_some() { "" } else { "  (n/a)" };
        lines.push(format!("metric {name} = {value} {unit}{note}"));
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    json.push_str("}}");
    (lines, json)
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains("inf") || s.contains("NaN") {
        "0".to_string()
    } else {
        s
    }
}
