//! `chdl_stream`: the CHDL engine stepped the way the applications step
//! it — one set/step/get per simulated cycle.
//!
//! Serving-scale TRT events (64 x 32 straws, 256-pattern bank) go through
//! `FpgaHistogrammer::run_event` and 64-wide frames through
//! `SobelEngine::filter`. Every histogram is checked against
//! `CpuHistogrammer` and every frame against `Image2d::sobel`.
//!
//! This module also hosts the per-layer probes every traced run makes
//! (fabric switch replay, `Sim::new` and engine ledgers), because they
//! need the same pattern bank.

use crate::metrics::{Metrics, Outcome};
use crate::probes::{self, SwitchProbe};
use crate::stats::{median, Samples};
use crate::trace::{maybe_span, Tracer};
use crate::{finish_trace, mix_seed, peak_rss_mib, phase_budget, repeat_for, Report, RunConfig};
use atlantis_apps::image2d::{Image2d, SobelEngine};
use atlantis_apps::jobs::TRT_PATTERNS;
use atlantis_apps::trt::TrtGeometry;
use atlantis_apps::trt::{CpuHistogrammer, Event, EventGenerator, FpgaHistogrammer, PatternBank};
use atlantis_board::{CpuClass, HostCpu};
use atlantis_simcore::rng::WorkloadRng;
use std::time::Instant;

/// Histogrammer RAM width: 256 patterns in six passes. At this width the
/// lowered design has more than 300 ops, so the engine's `Auto` dispatch
/// runs it on the threaded tier.
pub const LANES: u32 = 48;
/// Sobel frame width.
pub const WIDTH: u32 = 64;
/// Track-acceptance threshold, in straws (as the serving jobs use).
pub const THRESHOLD: u32 = 24;
/// Design clock of both engines: virtual picoseconds per cycle (40 MHz).
pub const CYCLE_PS: u64 = 25_000;

/// The serving-scale pattern bank of a seed.
pub fn bank(seed: u64) -> PatternBank {
    let geometry = TrtGeometry {
        phi_bins: 64,
        layers: 32,
    };
    PatternBank::generate(
        geometry,
        TRT_PATTERNS,
        &mut WorkloadRng::seed_from_u64(mix_seed(seed)),
    )
}

/// The seeded events and frames of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// TRT events with one to four embedded tracks and 5% noise.
    pub events: Vec<Event>,
    /// Synthetic frames, [`WIDTH`] wide and 56 to 72 rows high.
    pub frames: Vec<Image2d>,
}

/// Generate the inputs of a seed.
pub fn inputs(seed: u64, bank: &PatternBank, events: usize, frames: usize) -> Inputs {
    let mut rng = WorkloadRng::seed_from_u64(mix_seed(seed ^ 0xE7E7));
    let mut generator = EventGenerator::new(bank.geometry());
    generator.noise_occupancy = 0.05;
    let events = (0..events)
        .map(|_| {
            generator.tracks_per_event = 1 + rng.below(4) as usize;
            generator.generate(bank, &mut rng)
        })
        .collect();
    let frames = (0..frames)
        .map(|_| {
            let height = 56 + rng.below(17) as u32;
            Image2d::synthetic(WIDTH, height, &mut rng)
        })
        .collect();
    Inputs { events, frames }
}

/// The software oracle's output for every input.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// `(histogram, tracks)` per event, from `CpuHistogrammer`.
    pub events: Vec<(Vec<u32>, Vec<usize>)>,
    /// Sobel output per frame, from `Image2d::sobel` (compared on the
    /// interior).
    pub frames: Vec<Image2d>,
}

/// Compute the oracle (outside every measured phase).
pub fn oracle(bank: &PatternBank, inputs: &Inputs) -> Oracle {
    let cpu_hist = CpuHistogrammer::new(bank, THRESHOLD);
    let mut cpu = HostCpu::new(CpuClass::PentiumII300);
    Oracle {
        events: inputs
            .events
            .iter()
            .map(|e| {
                let run = cpu_hist.run_on_pentium_ii(e);
                (run.histogram, run.tracks)
            })
            .collect(),
        frames: inputs
            .frames
            .iter()
            .map(|f| f.sobel(&mut cpu).output)
            .collect(),
    }
}

/// One round: build both engines, stream every event and frame.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds for the pattern bank and both engines' `Sim::new`.
    pub setup_s: f64,
    /// Host seconds in `run_event` across all events.
    pub event_s: f64,
    /// Host seconds in `filter` across all frames.
    pub frame_s: f64,
    /// Simulated cycles, per event then per frame.
    pub cycles: Vec<u64>,
    /// Outputs that differ from the oracle.
    pub mismatches: u64,
}

impl Round {
    /// Host seconds of the measured part of the round.
    pub fn host_s(&self) -> f64 {
        self.event_s + self.frame_s
    }

    /// Simulated cycles in the round.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// Build the engines and stream the inputs through them; check the
/// outputs after the clock stops.
pub fn round(
    seed: u64,
    inputs: &Inputs,
    oracle: &Oracle,
    mut tracer: Option<&mut Tracer>,
) -> Round {
    let t0 = Instant::now();
    let (mut hist, mut sobel) = maybe_span(&mut tracer, "chdl.setup", None, || {
        let bank = bank(seed);
        (FpgaHistogrammer::new(&bank, LANES), SobelEngine::new(WIDTH))
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let hists: Vec<_> = inputs
        .events
        .iter()
        .enumerate()
        .map(|(i, e)| {
            maybe_span(&mut tracer, "chdl.run_event", Some(i as u64), || {
                hist.run_event(&e.hits, THRESHOLD)
            })
        })
        .collect();
    let event_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    let base = inputs.events.len() as u64;
    let frames: Vec<_> = inputs
        .frames
        .iter()
        .enumerate()
        .map(|(i, f)| {
            maybe_span(&mut tracer, "chdl.filter", Some(base + i as u64), || {
                sobel.filter(f)
            })
        })
        .collect();
    let frame_s = t2.elapsed().as_secs_f64();

    let mut mismatches = 0;
    let mut cycles = Vec::with_capacity(hists.len() + frames.len());
    for ((h, tracks, c), (want_h, want_t)) in hists.iter().zip(&oracle.events) {
        mismatches += u64::from(h != want_h || tracks != want_t);
        cycles.push(*c);
    }
    for ((img, c, _), want) in frames.iter().zip(&oracle.frames) {
        mismatches += u64::from(!interiors_equal(img, want));
        cycles.push(*c);
    }
    Round {
        setup_s,
        event_s,
        frame_s,
        cycles,
        mismatches,
    }
}

/// Whether two frames agree on every pixel with a full 3x3
/// neighbourhood: the streaming engine defines no border pixels.
fn interiors_equal(a: &Image2d, b: &Image2d) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && (1..a.height() - 1).all(|y| (1..a.width() - 1).all(|x| a.get(x, y) == b.get(x, y)))
}

/// The per-layer probes every traced run makes: fabric switch replay,
/// `Sim::new` per served design, and the engine ledger of the TRT
/// histogrammer. Records their metrics and returns the switch probe.
pub fn layer_probes(seed: u64, tracer: &mut Tracer, report: &mut Report) -> SwitchProbe {
    let root = tracer.enter("bench.probe", None);
    let switch = probes::fabric_switch(64, Some(tracer));
    let bank = bank(seed);
    let sample = inputs(seed, &bank, 4, 0);
    let hits: Vec<Vec<u32>> = sample.events.into_iter().map(|e| e.hits).collect();
    let chdl = probes::chdl_designs(&bank, LANES, &hits, Some(tracer));
    tracer.exit(root);

    let m = &mut report.outcome.metrics;
    m.set("fabric.switch_host_us", switch.switch_host_us);
    m.set("fabric.frames_per_switch", switch.frames_per_switch);
    for &(name, us) in &chdl.sim_new_us {
        m.set(name, us);
    }
    let s = &chdl.stats;
    m.set("chdl.ops_lowered", s.ops_lowered as f64);
    m.set("chdl.ops_final", s.ops_final as f64);
    m.set(
        "chdl.netopt_nodes_removed",
        s.netopt_nodes_before.saturating_sub(s.netopt_nodes_after) as f64,
    );
    m.set("chdl.evals_threaded", s.evals_threaded as f64);
    m.set("chdl.evals_match", s.evals_match as f64);
    report.notes.push(format!(
        "replayed fabric probe: Coprocessor::switch_to across the four served designs, \
         median {:.1} us per partial switch, {:.0} frames per switch",
        switch.switch_host_us, switch.frames_per_switch
    ));
    report.notes.push(format!(
        "replayed chdl probe: Sim::new median us {}",
        chdl.sim_new_us
            .iter()
            .map(|(n, us)| format!("{}={us:.1}", n.trim_start_matches("chdl.sim_new_host_us.")))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    switch
}

/// Run `chdl_stream`.
pub fn run(cfg: &RunConfig) -> Report {
    let bank = bank(cfg.seed);
    let inputs = inputs(cfg.seed, &bank, cfg.size.events, cfg.size.frames);
    let oracle = oracle(&bank, &inputs);
    let mut notes = vec![format!(
        "workload chdl_stream: closed loop, {} TRT events (64x32 straws, {} patterns, \
         {LANES} lanes) then {} Sobel frames ({WIDTH} wide) per round, 1 thread",
        inputs.events.len(),
        bank.len(),
        inputs.frames.len()
    )];
    let budget = phase_budget(cfg);
    let untraced = repeat_for(budget, |_| round(cfg.seed, &inputs, &oracle, None));
    let rss = peak_rss_mib();
    let mut tracer = Tracer::new();
    let traced = if cfg.trace {
        repeat_for(budget, |_| {
            let root = tracer.enter("bench.round", None);
            let r = round(cfg.seed, &inputs, &oracle, Some(&mut tracer));
            tracer.exit(root);
            r
        })
    } else {
        Vec::new()
    };

    let items = (inputs.events.len() + inputs.frames.len()) as u64;
    let rounds = untraced.iter().chain(&traced);
    let mismatches: u64 = rounds.clone().map(|r| r.mismatches).sum();
    let diverged = rounds
        .clone()
        .filter(|r| r.cycles != untraced[0].cycles)
        .count() as u64;
    let attempted = items * rounds.count() as u64;
    let failed = (mismatches + diverged * items).min(attempted);
    let first = &untraced[0];
    let correct_items = items - first.mismatches;
    let cycles = first.total_cycles();
    let host = median(&untraced.iter().map(Round::host_s).collect::<Vec<_>>());
    let lat = Samples::new(first.cycles.iter().map(|c| c * CYCLE_PS).collect());
    for (i, r) in untraced.iter().enumerate() {
        notes.push(format!(
            "round {i}: setup_s={:.6} host_s={:.6} sim_cycles_per_host_s={:.0}",
            r.setup_s,
            r.host_s(),
            r.total_cycles() as f64 / r.host_s()
        ));
    }
    notes.push(format!(
        "virtual latency, issue to result, per event/frame (closed loop, one in flight, \
         so its cycles at 40 MHz): {}",
        lat.describe(1e-6, "us")
    ));
    if failed > 0 {
        notes.push(format!(
            "ERROR: {mismatches} outputs differ from the software oracles, {diverged} rounds diverged"
        ));
    }
    let mut report = Report {
        outcome: Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: Metrics::default(),
        },
        notes,
    };
    let m = &mut report.outcome.metrics;
    let jobs_per_s = correct_items as f64 / host;
    let cycles_per_s = cycles as f64 / host;
    if !cfg.trace {
        m.set(
            "setup_s",
            median(&untraced.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        );
        m.set("jobs_per_host_s", jobs_per_s);
        m.set(
            "host_us_per_virtual_us",
            host / (cycles as f64 * CYCLE_PS as f64 * 1e-12),
        );
        m.set("sim_cycles_per_host_s", cycles_per_s);
        m.set("goodput", correct_items as f64 / items as f64);
        m.set("virt_latency_mean_us", lat.mean() / 1e6);
        m.set("virt_latency_p99_us", lat.percentile(0.99) as f64 / 1e6);
        m.set("peak_rss_mib", rss);
        return report;
    }

    let per = |f: fn(&Round) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let events = inputs.events.len().max(1) as f64;
    let frames = inputs.frames.len().max(1) as f64;
    m.set("chdl.run_event_host_us", per(|r| r.event_s) * 1e6 / events);
    m.set("chdl.filter_host_us", per(|r| r.frame_s) * 1e6 / frames);
    m.set(
        "chdl.step_host_ns",
        per(Round::host_s) * 1e9 / cycles as f64,
    );
    layer_probes(cfg.seed, &mut tracer, &mut report);
    let traced_host = per(Round::host_s);
    finish_trace(
        cfg,
        &tracer,
        [jobs_per_s, cycles_per_s],
        [
            correct_items as f64 / traced_host,
            cycles as f64 / traced_host,
        ],
        &mut report,
    );
    report
}
