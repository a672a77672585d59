//! The ATLANTIS repository benchmark.
//!
//! One process runs one workload through the public entry points of the
//! simulator — `Cluster::run_open_loop` and the CHDL engine as the
//! applications drive it — measures host time for a fixed
//! budget, checks every output against the software oracles, and prints
//! each metric with its unit followed by one JSON result line.
//!
//! Untraced runs (`--trace 0`) report the end-to-end metrics. Traced runs
//! (`--trace 1`) measure the workload untraced and then traced for half
//! the budget each, record a span around every call the benchmark makes
//! into a layer, replay probes that isolate single layers, and report
//! the per-layer metrics and the tracing overhead. See `README.md`.

#![forbid(unsafe_code)]

pub mod chdl;
pub mod cluster;
pub mod metrics;
pub mod probes;
pub mod stats;
pub mod trace;

use metrics::Outcome;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Cluster::run_open_loop` at 0.5x calibrated capacity.
    ClusterSteady,
    /// `Cluster::run_open_loop` at 1.0x calibrated capacity.
    ClusterOverload,
    /// The CHDL engine stepped once per cycle by the TRT and Sobel apps.
    ChdlStream,
}

impl Workload {
    /// Every workload, in declaration order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterSteady,
        Workload::ClusterOverload,
        Workload::ChdlStream,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterSteady => "cluster_steady",
            Workload::ClusterOverload => "cluster_overload",
            Workload::ChdlStream => "chdl_stream",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one round of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Independent arrival streams per round (cluster workloads).
    pub streams: usize,
    /// Jobs per stream (cluster workloads).
    pub jobs: u64,
    /// TRT events per round (`chdl_stream`).
    pub events: usize,
    /// Sobel frames per round (`chdl_stream`).
    pub frames: usize,
}

impl Size {
    /// The size the benchmark measures.
    pub fn full(workload: Workload) -> Size {
        let (streams, jobs) = match workload {
            Workload::ClusterSteady => (4, 10_000),
            Workload::ClusterOverload => (8, 30_000),
            Workload::ChdlStream => (0, 0),
        };
        Size {
            streams,
            jobs,
            events: 200,
            frames: 8,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host-time budget of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub trace: bool,
    /// Work per round.
    pub size: Size,
    /// Where a traced run writes its spans (`None`: not written).
    pub trace_dir: Option<PathBuf>,
}

/// What one run printed and measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Correctness and metric values.
    pub outcome: Outcome,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// Run one workload.
pub fn run(cfg: &RunConfig) -> Report {
    match cfg.workload {
        Workload::ClusterSteady | Workload::ClusterOverload => cluster::run(cfg),
        Workload::ChdlStream => chdl::run(cfg),
    }
}

/// SplitMix64 finalizer: spreads small command-line seeds over the
/// whole seed space of the generators.
pub fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run rounds for about `budget`: always at least one, and no further
/// round once the next one, as long as the last, would end past it.
pub fn repeat_for<R>(budget: Duration, mut round: impl FnMut(usize) -> R) -> Vec<R> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(round(out.len()));
        if start.elapsed() + t.elapsed() > budget {
            return out;
        }
    }
}

/// The budget of each measured phase: the whole budget untraced, half
/// for each of the untraced and traced phases of a traced run.
pub fn phase_budget(cfg: &RunConfig) -> Duration {
    let secs = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    Duration::from_secs_f64(secs.max(0.0))
}

/// The process's peak resident set in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Most spans a traced run writes out; the per-layer numbers use every
/// recorded span.
pub const MAX_WRITTEN_SPANS: usize = 100_000;

/// Write a traced run's spans to `<dir>/<workload>-seed<seed>.jsonl`
/// and return the path. The first line states how many spans were
/// recorded and written; at most [`MAX_WRITTEN_SPANS`] follow, in
/// recording order.
pub fn write_spans(cfg: &RunConfig, tracer: &trace::Tracer) -> Option<PathBuf> {
    let dir = cfg.trace_dir.as_ref()?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    let recorded = tracer.spans().len();
    let written = recorded.min(MAX_WRITTEN_SPANS);
    let text = format!(
        "{{\"spans_recorded\":{recorded},\"spans_written\":{written}}}\n{}",
        tracer.to_json_lines(written)
    );
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .ok()
        .map(|()| path)
}

/// Record the self time of each layer, the span file, and the tracing
/// overhead: untraced vs traced jobs and simulated cycles per host
/// second.
pub fn finish_trace(
    cfg: &RunConfig,
    tracer: &trace::Tracer,
    untraced: [f64; 2],
    traced: [f64; 2],
    report: &mut Report,
) {
    let m = &mut report.outcome.metrics;
    let selfs = tracer.self_secs_by_layer();
    for (layer, name) in [
        ("bench", "bench.self_host_s"),
        ("cluster", "cluster.self_host_s"),
        ("apps", "apps.self_host_s"),
        ("fabric", "fabric.self_host_s"),
        ("chdl", "chdl.self_host_s"),
    ] {
        let s = selfs.get(layer).copied().unwrap_or(0.0);
        m.set(name, s);
        report
            .notes
            .push(format!("self time {layer}: {s:.6} s over the traced run"));
    }
    m.set("trace.untraced_jobs_per_host_s", untraced[0]);
    m.set("trace.traced_jobs_per_host_s", traced[0]);
    m.set("trace.untraced_sim_cycles_per_host_s", untraced[1]);
    m.set("trace.traced_sim_cycles_per_host_s", traced[1]);
    let overhead = if traced[0] > 0.0 {
        untraced[0] / traced[0] - 1.0
    } else {
        0.0
    };
    m.set("trace.overhead_share", overhead);
    report.notes.push(format!(
        "tracing overhead: jobs_per_host_s {:.1} untraced vs {:.1} traced, \
         sim_cycles_per_host_s {:.0} untraced vs {:.0} traced ({:+.2}% host time)",
        untraced[0],
        traced[0],
        untraced[1],
        traced[1],
        overhead * 100.0
    ));
    report
        .notes
        .push(format!("spans recorded: {}", tracer.spans().len()));
    if let Some(path) = write_spans(cfg, tracer) {
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
}
