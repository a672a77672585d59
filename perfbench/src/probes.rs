//! Replayed probes: single layers called in isolation, outside the
//! measured phase.
//!
//! The serving path calls `WorkloadContext::execute`,
//! `Coprocessor::switch_to` and `Sim::new` from inside the cluster's
//! shards, where the benchmark cannot put a span around them. These
//! probes call the same public functions directly on the same inputs and
//! time each call. Their numbers are replayed, not measured in place,
//! and every line that prints them says so.

use crate::stats::median;
use crate::trace::{maybe_span, Tracer};
use atlantis_apps::jobs::{JobKind, JobOutcome, JobSpec, WorkloadContext};
use atlantis_apps::trt::{FpgaHistogrammer, PatternBank};
use atlantis_chdl::{Design, EngineStats, Sim};
use atlantis_core::Coprocessor;
use atlantis_fabric::Device;
use atlantis_runtime::BitstreamCache;
use std::time::Instant;

/// The `apps.execute_host_us.<kind>` metric of a kind.
pub fn execute_metric(kind: JobKind) -> &'static str {
    match kind {
        JobKind::TrtEvent => "apps.execute_host_us.trt",
        JobKind::VolumeFrame => "apps.execute_host_us.volume",
        JobKind::ImageFilter => "apps.execute_host_us.image",
        JobKind::NBodyStep => "apps.execute_host_us.nbody",
    }
}

/// Specs replayed through a fresh `WorkloadContext::execute`.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The oracle outcome of each spec, in input order.
    pub outcomes: Vec<JobOutcome>,
    /// Host seconds spent in `execute`, per kind in [`JobKind::ALL`] order.
    pub secs: [f64; JobKind::COUNT],
    /// Specs executed, per kind.
    pub count: [u64; JobKind::COUNT],
}

impl Replay {
    /// Mean host µs per `execute` of `kind` (0 when none ran).
    pub fn mean_us(&self, kind: JobKind) -> f64 {
        let i = kind.index();
        if self.count[i] == 0 {
            0.0
        } else {
            self.secs[i] * 1e6 / self.count[i] as f64
        }
    }

    /// Host seconds across all kinds.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Execute every `(group, job id, spec)` on fresh contexts — the
/// software oracle of the serving paths, and the apps-layer replay
/// probe. Each group (a shard, say) gets its own context and its jobs
/// run together in their given order, as the serving path runs them;
/// outcomes come back in input order.
pub fn replay_execute(jobs: &[(usize, u64, JobSpec)], mut tracer: Option<&mut Tracer>) -> Replay {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| jobs[i].0);
    let mut outcomes = vec![None; jobs.len()];
    let mut secs = [0.0; JobKind::COUNT];
    let mut count = [0; JobKind::COUNT];
    let mut ctx: Option<(usize, WorkloadContext)> = None;
    for i in order {
        let (group, id, spec) = jobs[i];
        if ctx.as_ref().is_none_or(|(g, _)| *g != group) {
            ctx = Some((group, WorkloadContext::new()));
        }
        let (_, c) = ctx.as_mut().expect("context for this group");
        let t = Instant::now();
        let outcome = maybe_span(&mut tracer, "apps.execute", Some(id), || c.execute(&spec));
        secs[spec.kind.index()] += t.elapsed().as_secs_f64();
        count[spec.kind.index()] += 1;
        outcomes[i] = Some(outcome);
    }
    Replay {
        outcomes: outcomes.into_iter().map(|o| o.expect("replayed")).collect(),
        secs,
        count,
    }
}

/// Hardware task switches replayed on one coprocessor.
#[derive(Debug, Clone, Copy)]
pub struct SwitchProbe {
    /// Median host µs per partial switch.
    pub switch_host_us: f64,
    /// Configuration frames written per partial switch.
    pub frames_per_switch: f64,
}

/// Cycle one ORCA coprocessor through the four served designs,
/// `switches` partial switches after one untimed full load.
pub fn fabric_switch(switches: usize, mut tracer: Option<&mut Tracer>) -> SwitchProbe {
    let device = Device::orca_3t125();
    let cache = BitstreamCache::new(device.clone());
    cache
        .prefit_all()
        .expect("every served design fits the ORCA");
    let mut coproc = Coprocessor::new(device);
    for kind in JobKind::ALL {
        let fitted = cache.get(kind).expect("prefit");
        coproc
            .register_fitted(kind.design_name(), (*fitted).clone())
            .expect("the cache fits this device");
    }
    coproc
        .switch_to(JobKind::ALL[0].design_name())
        .expect("full load");
    let before = coproc.stats();
    let mut times = Vec::with_capacity(switches);
    for i in 1..=switches {
        let name = JobKind::ALL[i % JobKind::COUNT].design_name();
        let t = Instant::now();
        maybe_span(&mut tracer, "fabric.switch_to", None, || {
            coproc.switch_to(name)
        })
        .expect("registered task");
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let after = coproc.stats();
    let partial = (after.partial_switches - before.partial_switches).max(1);
    SwitchProbe {
        switch_host_us: median(&times),
        frames_per_switch: (after.frames_written - before.frames_written) as f64 / partial as f64,
    }
}

/// Sim construction and engine ledgers of the served designs.
#[derive(Debug, Clone)]
pub struct ChdlProbe {
    /// `(metric name, median host µs of Sim::new)`.
    pub sim_new_us: Vec<(&'static str, f64)>,
    /// The engine ledger of a `Sim` on the TRT histogrammer design after
    /// it histogrammed a few events.
    pub stats: EngineStats,
}

/// Time `Sim::new` on the four served designs and the TRT
/// histogrammer, and read the engine ledger of the histogrammer.
pub fn chdl_designs(
    bank: &PatternBank,
    lanes: u32,
    events: &[Vec<u32>],
    mut tracer: Option<&mut Tracer>,
) -> ChdlProbe {
    let hist = FpgaHistogrammer::new(bank, lanes);
    let mut designs: Vec<(&'static str, Design)> = JobKind::ALL
        .iter()
        .map(|&k| {
            let name = match k {
                JobKind::TrtEvent => "chdl.sim_new_host_us.trt",
                JobKind::VolumeFrame => "chdl.sim_new_host_us.volume",
                JobKind::ImageFilter => "chdl.sim_new_host_us.image",
                JobKind::NBodyStep => "chdl.sim_new_host_us.nbody",
            };
            (name, k.build_design())
        })
        .collect();
    designs.push(("chdl.sim_new_host_us.trt_hist", hist.design().clone()));
    let sim_new_us = designs
        .iter()
        .map(|(name, design)| {
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    let sim = maybe_span(&mut tracer, "chdl.sim_new", None, || Sim::new(design));
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    drop(sim);
                    us
                })
                .collect();
            (*name, median(&times))
        })
        .collect();
    let mut sim = Sim::new(hist.design());
    let passes = (bank.len() as u32).div_ceil(lanes);
    for hits in events {
        drive_event(&mut sim, hits, passes, lanes, bank.len());
    }
    ChdlProbe {
        sim_new_us,
        stats: sim.engine_stats().cloned().unwrap_or_default(),
    }
}

/// The stimulus `FpgaHistogrammer::run_event` applies for one event:
/// per pass one clear cycle, one cycle per hit, one drain cycle, then a
/// read-back of every lane counter.
fn drive_event(sim: &mut Sim, hits: &[u32], passes: u32, lanes: u32, patterns: usize) {
    sim.set("threshold", 24);
    for pass in 0..passes {
        sim.set("pass", u64::from(pass));
        sim.set("clear", 1);
        sim.set("valid", 0);
        sim.step();
        sim.set("clear", 0);
        for &h in hits {
            sim.set("hit", u64::from(h));
            sim.set("valid", 1);
            sim.step();
        }
        sim.set("valid", 0);
        sim.step();
        for lane in 0..lanes {
            if (pass * lanes + lane) as usize >= patterns {
                break;
            }
            sim.set("counter_sel", u64::from(lane));
            let _ = sim.get("counter_out");
        }
    }
}
