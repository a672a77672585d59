//! `cluster_steady` and `cluster_overload`: the sharded serving layer
//! driven open loop on the virtual clock.
//!
//! Both workloads run the same fleet (4 shards x 2 ORCA boards, queue
//! 32, work stealing on) over the default `LoadGenConfig` mix; they
//! differ only in the Poisson arrival rate. Every round rebuilds the
//! cluster from scratch and replays the same arrivals, so every round
//! must produce a byte-identical fingerprint; the benchmark checks that,
//! and reports host time as the median over rounds.

use crate::metrics::{Metrics, Outcome};
use crate::probes;
use crate::stats::{median, Samples};
use crate::trace::{maybe_span, Tracer};
use crate::{chdl, finish_trace, mix_seed, phase_budget, repeat_for, Report, RunConfig};
use crate::{peak_rss_mib, Workload};
use atlantis_apps::jobs::JobKind;
use atlantis_cluster::{
    Arrival, Cluster, ClusterCompletion, ClusterConfig, ClusterStats, LoadGen, LoadGenConfig,
    ShedReason, StealConfig, StealStats, StealingPolicy,
};
use atlantis_runtime::{ShardConfig, ShardStats};
use atlantis_simcore::SimTime;
use std::time::Instant;

/// Calibrated fleet capacity: 35,125 jobs per virtual second per warm
/// board (the slowest family's service rate) times 8 boards.
pub const CAPACITY: f64 = 35_125.0 * 8.0;

/// Offered load as a fraction of [`CAPACITY`].
pub fn load(workload: Workload) -> f64 {
    match workload {
        Workload::ClusterOverload => 1.0,
        _ => 0.5,
    }
}

/// The fleet both cluster workloads serve on.
pub fn config() -> ClusterConfig {
    ClusterConfig {
        shards: 4,
        shard: ShardConfig {
            boards: 2,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        stealing: StealingPolicy::Enabled(StealConfig::default()),
        ..ClusterConfig::default()
    }
}

/// The seeded open-loop arrival streams of one workload: `streams`
/// independent Poisson streams of `jobs` arrivals each. Serving several
/// streams per run averages out how much one arrival sequence happens
/// to favour or thrash the fleet.
pub fn arrivals(workload: Workload, seed: u64, streams: usize, jobs: u64) -> Vec<Vec<Arrival>> {
    (0..streams as u64)
        .map(|j| {
            LoadGen::new(LoadGenConfig {
                seed: mix_seed(seed).wrapping_add(j),
                rate: load(workload) * CAPACITY,
                jobs,
                ..LoadGenConfig::default()
            })
            .collect()
        })
        .collect()
}

/// Everything deterministic one stream produced.
#[derive(Debug, Clone)]
pub struct Detail {
    /// Completion records in retirement order.
    pub completions: Vec<ClusterCompletion>,
    /// Cluster-wide counters.
    pub stats: ClusterStats,
    /// The stealing ledger.
    pub steal: StealStats,
    /// Per-shard counters.
    pub shards: Vec<ShardStats>,
    /// Virtual seconds from the first arrival to the last completion.
    pub span_s: f64,
}

/// One stream served on a fresh cluster.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds in `Cluster::new` (prefit and boot preload).
    pub setup_s: f64,
    /// Host seconds serving the arrivals.
    pub host_s: f64,
    /// Host seconds inside `Cluster::offer` (traced passes only).
    pub offer_s: f64,
    /// Host seconds inside `Cluster::advance` and `Cluster::drain`
    /// (traced passes only).
    pub advance_s: f64,
    /// `Cluster::fingerprint` after the drain, with a digest of every
    /// completion record appended.
    pub fingerprint: String,
    /// The full record, when asked for.
    pub detail: Option<Detail>,
}

/// Serve `arrivals` on a fresh cluster. Untraced passes call
/// `Cluster::run_open_loop`; traced passes run the same loop through the
/// public `advance`/`offer`/`drain` calls with a span around each.
pub fn serve(
    cfg: &ClusterConfig,
    arrivals: &[Arrival],
    keep: bool,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let t0 = Instant::now();
    let mut cluster = maybe_span(&mut tracer, "cluster.new", None, || {
        Cluster::new(cfg.clone())
    })
    .expect("the fleet has shards");
    let setup_s = t0.elapsed().as_secs_f64();
    let (completions, host_s, offer_s, advance_s) = match tracer {
        None => {
            let t1 = Instant::now();
            let out = cluster.run_open_loop(arrivals.iter().copied());
            (out, t1.elapsed().as_secs_f64(), 0.0, 0.0)
        }
        Some(t) => {
            let mark = t.spans().len();
            let t1 = Instant::now();
            let mut out = Vec::new();
            for (i, a) in arrivals.iter().enumerate() {
                out.extend(t.span("cluster.advance", None, || cluster.advance(a.at)));
                let _ = t.span("cluster.offer", Some(i as u64), || {
                    cluster.offer(a.at, a.tenant, a.priority, a.spec)
                });
            }
            out.extend(t.span("cluster.drain", None, || cluster.drain()));
            let host_s = t1.elapsed().as_secs_f64();
            let spans = t.spans_since(mark);
            let offer = Tracer::total_secs(spans, "cluster.offer");
            let advance = Tracer::total_secs(spans, "cluster.advance")
                + Tracer::total_secs(spans, "cluster.drain");
            (out, host_s, offer, advance)
        }
    };
    let mut digest = Digest::default();
    for c in &completions {
        for v in [
            c.shard as u64,
            c.inner.id,
            c.inner.checksum,
            c.inner.cycles,
            c.inner.submitted.since(SimTime::ZERO).as_picos(),
            c.inner.done.since(SimTime::ZERO).as_picos(),
        ] {
            digest.push(v);
        }
    }
    let first = arrivals.first().map_or(SimTime::ZERO, |a| a.at);
    let detail = keep.then(|| Detail {
        stats: cluster.stats().clone(),
        steal: cluster.steal_stats().clone(),
        shards: (0..cluster.shards())
            .map(|i| cluster.shard_stats(i).clone())
            .collect(),
        span_s: cluster.stats().last_done.since(first).as_secs_f64(),
        completions,
    });
    Pass {
        setup_s,
        host_s,
        offer_s,
        advance_s,
        fingerprint: format!(
            "{}|completions:{:016x}",
            cluster.fingerprint(),
            digest.finish()
        ),
        detail,
    }
}

/// FNV-1a over a stream of words: the replay digest of a round's
/// outputs.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    fn finish(self) -> u64 {
        self.0
    }
}

/// Deterministic totals over the streams of one round.
#[derive(Debug, Clone, PartialEq)]
pub struct Totals {
    /// Jobs offered.
    pub offered: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs shed, by [`ShedReason::index`].
    pub shed_by_reason: [u64; 3],
    /// Routing decisions kept on the preferred shard.
    pub routed_affinity: u64,
    /// Routing decisions spilled.
    pub routed_spill: u64,
    /// Completions served without a task switch.
    pub affinity_hits: u64,
    /// Boot loads plus partial switches.
    pub switches: u64,
    /// Partial switches: the task switches made while serving.
    pub partial_switches: u64,
    /// Warm, cold, below-breakeven steals and jobs stolen.
    pub steals: [u64; 4],
    /// Virtual reconfiguration, DMA and execute seconds.
    pub virtual_s: [f64; 3],
    /// Virtual seconds from first arrival to last completion, summed.
    pub span_s: f64,
    /// Exact virtual latencies, picoseconds.
    pub latency: Samples,
    /// Exact virtual queue waits, picoseconds.
    pub queue_wait: Samples,
}

impl Totals {
    /// Sum the per-stream records.
    pub fn of(details: &[Detail]) -> Totals {
        let shards = || details.iter().flat_map(|d| &d.shards);
        let sum = |f: fn(&Detail) -> u64| details.iter().map(f).sum::<u64>();
        let completions = || details.iter().flat_map(|d| &d.completions);
        Totals {
            offered: sum(|d| d.stats.offered),
            completed: sum(|d| d.stats.completed),
            shed_by_reason: [0, 1, 2]
                .map(|i| details.iter().map(|d| d.stats.shed_by_reason[i]).sum()),
            routed_affinity: sum(|d| d.stats.routed_affinity),
            routed_spill: sum(|d| d.stats.routed_spill),
            affinity_hits: shards().map(|s| s.affinity_hits).sum(),
            switches: shards().map(|s| s.full_loads + s.partial_switches).sum(),
            partial_switches: shards().map(|s| s.partial_switches).sum(),
            steals: [
                sum(|d| d.steal.warm_steals),
                sum(|d| d.steal.cold_steals),
                sum(|d| d.steal.below_breakeven),
                sum(|d| d.steal.jobs_stolen),
            ],
            virtual_s: [
                shards().map(|s| s.reconfig_time.as_secs_f64()).sum(),
                shards().map(|s| s.dma_time.as_secs_f64()).sum(),
                shards().map(|s| s.execute_time.as_secs_f64()).sum(),
            ],
            span_s: details.iter().map(|d| d.span_s).sum(),
            latency: Samples::new(
                completions()
                    .map(|c| c.inner.latency().as_picos())
                    .collect(),
            ),
            queue_wait: Samples::new(
                completions()
                    .map(|c| c.inner.queue_wait().as_picos())
                    .collect(),
            ),
        }
    }

    /// Jobs shed for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_by_reason.iter().sum()
    }
}

/// One round: every stream, each on a fresh cluster.
fn round(
    cfg: &ClusterConfig,
    streams: &[Vec<Arrival>],
    keep: bool,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Pass> {
    streams
        .iter()
        .map(|arrivals| serve(cfg, arrivals, keep, tracer.as_deref_mut()))
        .collect()
}

fn host_of(round: &[Pass]) -> f64 {
    round.iter().map(|p| p.host_s).sum()
}

/// Run a cluster workload.
pub fn run(cfg: &RunConfig) -> Report {
    let ccfg = config();
    let streams = arrivals(cfg.workload, cfg.seed, cfg.size.streams, cfg.size.jobs);
    let rate = load(cfg.workload) * CAPACITY;
    let mut notes = vec![format!(
        "workload {}: open loop on the virtual clock, Poisson {rate:.0} jobs/virtual-s \
         ({}x of {CAPACITY:.0}), {} streams of {} jobs per round, 4 shards x 2 boards, \
         queue 32, stealing on, 1 thread",
        cfg.workload.name(),
        load(cfg.workload),
        streams.len(),
        cfg.size.jobs
    )];
    let budget = phase_budget(cfg);
    let untraced = repeat_for(budget, |i| round(&ccfg, &streams, i == 0, None));
    let rss = peak_rss_mib();
    let mut tracer = Tracer::new();
    let traced = if cfg.trace {
        repeat_for(budget, |_| {
            let root = tracer.enter("bench.round", None);
            let r = round(&ccfg, &streams, false, Some(&mut tracer));
            tracer.exit(root);
            r
        })
    } else {
        Vec::new()
    };
    let details: Vec<Detail> = untraced[0]
        .iter()
        .map(|p| p.detail.clone().expect("round 0 keeps its records"))
        .collect();
    let diverged = untraced
        .iter()
        .chain(&traced)
        .filter(|r| {
            r.iter()
                .zip(&untraced[0])
                .any(|(p, first)| p.fingerprint != first.fingerprint)
        })
        .count() as u64;

    // Correctness gate: every served checksum against a fresh execute.
    let completions: Vec<&ClusterCompletion> =
        details.iter().flat_map(|d| &d.completions).collect();
    let gate = {
        let root = cfg.trace.then(|| tracer.enter("bench.gate", None));
        let jobs: Vec<_> = completions
            .iter()
            .map(|c| (c.shard, c.inner.id, c.inner.spec))
            .collect();
        let replay = probes::replay_execute(&jobs, cfg.trace.then_some(&mut tracer));
        if let Some(root) = root {
            tracer.exit(root);
        }
        replay
    };
    let ok: Vec<bool> = completions
        .iter()
        .zip(&gate.outcomes)
        .map(|(c, o)| c.inner.checksum == o.checksum && c.inner.cycles == o.cycles)
        .collect();
    let correct_jobs = ok.iter().filter(|&&ok| ok).count() as u64;
    let cycles: u64 = completions
        .iter()
        .zip(&ok)
        .filter(|(_, &ok)| ok)
        .map(|(c, _)| c.inner.cycles)
        .sum();
    let t = Totals::of(&details);
    let mismatches = t.completed - correct_jobs;
    let lost = t.offered - t.completed - t.shed();
    let rounds = (untraced.len() + traced.len()) as u64;
    let host = median(&untraced.iter().map(|r| host_of(r)).collect::<Vec<_>>());
    for (i, r) in untraced.iter().enumerate() {
        notes.push(format!(
            "round {i}: host_s={:.6} jobs_per_host_s={:.1} switches={} setup_s per stream={}",
            host_of(r),
            correct_jobs as f64 / host_of(r),
            t.switches,
            r.iter()
                .map(|p| format!("{:.6}", p.setup_s))
                .collect::<Vec<_>>()
                .join(",")
        ));
    }
    notes.push(format!(
        "offered={} completed={} shed={} (queue_full={} tenant_quota={} class_shed={}) \
         steals warm={} cold={} jobs={}",
        t.offered,
        t.completed,
        t.shed(),
        t.shed_by_reason[ShedReason::QueueFull.index()],
        t.shed_by_reason[ShedReason::TenantQuota.index()],
        t.shed_by_reason[ShedReason::ClassShed.index()],
        t.steals[0],
        t.steals[1],
        t.steals[3]
    ));
    for (j, d) in details.iter().enumerate() {
        notes.push(format!(
            "stream {j}: offered={} completed={} shed={} switches={} steals={}",
            d.stats.offered,
            d.stats.completed,
            d.stats.shed,
            d.shards
                .iter()
                .map(|s| s.full_loads + s.partial_switches)
                .sum::<u64>(),
            d.steal.committed()
        ));
    }
    notes.push(format!(
        "virtual latency from completion records: {}",
        t.latency.describe(1e-6, "us")
    ));
    if diverged > 0 {
        notes.push(format!(
            "ERROR: {diverged} rounds diverged from round 0's fingerprints"
        ));
    }
    if mismatches > 0 {
        notes.push(format!(
            "ERROR: {mismatches} checksums differ from the oracle"
        ));
    }
    let mut report = Report {
        outcome: Outcome {
            correct: mismatches == 0 && lost == 0 && diverged == 0,
            attempted: t.offered * rounds,
            failed: ((mismatches + lost) * rounds + diverged * t.offered).min(t.offered * rounds),
            metrics: Metrics::default(),
        },
        notes,
    };
    let m = &mut report.outcome.metrics;
    let jobs_per_s = correct_jobs as f64 / host;
    let cycles_per_s = cycles as f64 / host;
    if !cfg.trace {
        let setups: Vec<f64> = untraced.iter().flatten().map(|p| p.setup_s).collect();
        m.set("setup_s", median(&setups));
        m.set("jobs_per_host_s", jobs_per_s);
        m.set("host_us_per_virtual_us", host / t.span_s);
        m.set("sim_cycles_per_host_s", cycles_per_s);
        m.set("goodput", correct_jobs as f64 / t.offered as f64);
        m.set("virt_latency_mean_us", t.latency.mean() / 1e6);
        m.set(
            "virt_latency_p99_us",
            t.latency.percentile(0.99) as f64 / 1e6,
        );
        m.set("peak_rss_mib", rss);
        return report;
    }

    let traced_host = median(&traced.iter().map(|r| host_of(r)).collect::<Vec<_>>());
    let per_round = |f: fn(&Pass) -> f64| {
        median(
            &traced
                .iter()
                .map(|r| r.iter().map(f).sum::<f64>())
                .collect::<Vec<_>>(),
        )
    };
    m.set("cluster.offer_host_s", per_round(|p| p.offer_s));
    m.set("cluster.advance_host_s", per_round(|p| p.advance_s));
    for (name, reason) in [
        ("cluster.shed.queue_full", ShedReason::QueueFull),
        ("cluster.shed.tenant_quota", ShedReason::TenantQuota),
        ("cluster.shed.class_shed", ShedReason::ClassShed),
    ] {
        m.set(name, t.shed_by_reason[reason.index()] as f64);
    }
    let routed = (t.routed_affinity + t.routed_spill).max(1);
    m.set("cluster.spill_share", t.routed_spill as f64 / routed as f64);
    m.set(
        "cluster.affinity_hit_rate",
        t.affinity_hits as f64 / t.completed.max(1) as f64,
    );
    m.set("cluster.steal.warm", t.steals[0] as f64);
    m.set("cluster.steal.cold", t.steals[1] as f64);
    m.set("cluster.steal.below_breakeven", t.steals[2] as f64);
    m.set("cluster.steal.jobs", t.steals[3] as f64);
    m.set("runtime.switches", t.switches as f64);
    m.set(
        "runtime.switches_per_job",
        t.switches as f64 / t.completed.max(1) as f64,
    );
    m.set(
        "runtime.queue_wait_p99_us",
        t.queue_wait.percentile(0.99) as f64 / 1e6,
    );
    m.set("runtime.reconfig_virtual_s", t.virtual_s[0]);
    m.set("runtime.dma_virtual_s", t.virtual_s[1]);
    m.set("runtime.execute_virtual_s", t.virtual_s[2]);
    for kind in JobKind::ALL {
        m.set(probes::execute_metric(kind), gate.mean_us(kind));
    }
    m.set("apps.execute_share", gate.total_secs() / host);
    let probe = chdl::layer_probes(cfg.seed, &mut tracer, &mut report);
    let switch_s = t.partial_switches as f64 * probe.switch_host_us * 1e-6;
    report
        .outcome
        .metrics
        .set("fabric.switch_share", switch_s / host);
    report.notes.push(format!(
        "replayed attribution of one untraced round ({host:.4} s): apps execute {:.4} s \
         ({:.3} of host time), fabric switches {} x {:.1} us = {switch_s:.4} s ({:.3})",
        gate.total_secs(),
        gate.total_secs() / host,
        t.partial_switches,
        probe.switch_host_us,
        switch_s / host
    ));
    finish_trace(
        cfg,
        &tracer,
        [jobs_per_s, cycles_per_s],
        [
            correct_jobs as f64 / traced_host,
            cycles as f64 / traced_host,
        ],
        &mut report,
    );
    report
}
