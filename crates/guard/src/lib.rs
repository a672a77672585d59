//! atlantis-guard — fault-injection campaigns over the self-healing
//! serving runtime.
//!
//! The paper's configuration interface (§2) lists *read-back and test*
//! alongside full and partial configuration: the host can read a
//! device's configuration memory back and compare it against the golden
//! image. On the real machine that facility existed to catch single
//! event upsets (SEUs) — radiation-induced bit flips in configuration
//! SRAM — which matter because ATLANTIS was built for detector
//! environments where a corrupted LUT silently computes wrong answers
//! for hours.
//!
//! This crate closes the loop on that facility. It drives seeded SEU
//! campaigns against the simulated machine while the runtime serves a
//! live workload, and measures the reliability envelope of the
//! detection/repair policy in
//! [`GuardConfig`]:
//!
//! * **Campaign driver** — [`run_point`] serves a deterministic job mix
//!   under one upset rate and audits every returned checksum against a
//!   fault-free software oracle, so *silent corruption* is measured
//!   end to end, not inferred from internal counters.
//! * **Rate sweep** — [`run_campaign`] repeats the same workload across
//!   a list of upset rates (events per second of device busy time),
//!   recording detection latency, silent-corruption and retry counts,
//!   scrub overhead, and availability at each point.
//!
//! Campaigns are deterministic: the runtime serves on a virtual clock and
//! upset arrivals are a seeded Poisson process over each board's busy
//! time, so a fixed [`CampaignConfig::seed`] replays the same fault
//! pattern, the same statistics and the same per-job results byte for
//! byte.
//!
//! ```no_run
//! use atlantis_guard::CampaignConfig;
//!
//! let mut cfg = CampaignConfig::default();
//! cfg.jobs = 200;
//! for p in atlantis_guard::run_campaign(&cfg) {
//!     println!(
//!         "{:>8.0}/s: {} silent, {:.1}% available",
//!         p.upset_rate,
//!         p.stats.guard.silent_corruptions,
//!         p.stats.availability() * 100.0
//!     );
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;

pub use capacity::{CapacityDelta, DegradationConfig, QuarantinePlan};

use atlantis_apps::jobs::{JobSpec, WorkloadContext};
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{GuardConfig, JobRequest, Runtime, RuntimeError, ShardConfig, ShardStats};

/// One fault-injection campaign: a fixed workload served under a fixed
/// protection policy, swept across upset rates.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// ACB devices in the simulated machine.
    pub devices: usize,
    /// Jobs served per campaign point.
    pub jobs: u64,
    /// Upset rates to sweep (events per second of device busy time).
    /// `0.0` is the fault-free baseline.
    pub upset_rates: Vec<f64>,
    /// Fraction of upsets injected stealthily (frame CRC refreshed, so
    /// CRC scans can't see them — only deep scrubs and votes can).
    pub stealth_fraction: f64,
    /// Seed for both the job mix and the upset arrival process.
    pub seed: u64,
    /// The protection policy under test; each point overrides its
    /// `upset_rate`, `stealth_fraction`, and `upset_seed` from this
    /// config.
    pub policy: GuardConfig,
    /// Base serving configuration. The queue capacity is raised to hold
    /// the whole campaign so backpressure never rejects a campaign job.
    pub shard: ShardConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            devices: 2,
            jobs: 400,
            upset_rates: vec![0.0, 500.0, 2000.0, 8000.0],
            stealth_fraction: 0.0,
            seed: 7,
            policy: GuardConfig::protected(),
            shard: ShardConfig::host(),
        }
    }
}

impl CampaignConfig {
    /// The `i`-th job of the campaign's deterministic mixed workload.
    pub fn spec(&self, i: u64) -> JobSpec {
        JobSpec::mixed(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(i))
    }

    /// Fault-free reference checksums for every campaign job, computed
    /// through the deterministic software model — the oracle campaign
    /// results are audited against.
    pub fn oracle(&self) -> Vec<u64> {
        let mut ctx = WorkloadContext::new();
        (0..self.jobs)
            .map(|i| ctx.execute(&self.spec(i)).checksum)
            .collect()
    }

    fn guard_at(&self, upset_rate: f64) -> GuardConfig {
        GuardConfig {
            upset_rate,
            stealth_fraction: self.stealth_fraction,
            upset_seed: self.seed,
            ..self.policy
        }
    }
}

/// The measured outcome of one campaign point (one upset rate).
#[derive(Debug, Clone)]
pub struct PointReport {
    /// The upset rate this point was served under.
    pub upset_rate: f64,
    /// Jobs that completed with a result.
    pub completed: u64,
    /// Jobs answered with [`RuntimeError::Faulted`] after exhausting
    /// their retry budget.
    pub faulted: u64,
    /// Completed jobs whose checksum disagrees with the fault-free
    /// oracle — corruption that *reached a client*. The end-to-end
    /// ground truth the protection policy is judged by.
    pub mismatches: u64,
    /// Every job's `(id, checksum)` in submission order; `None` for a
    /// faulted job.
    pub results: Vec<(u64, Option<u64>)>,
    /// The runtime's final statistics for this point.
    pub stats: ShardStats,
}

impl PointReport {
    /// Whether every answered job was either correct or honestly
    /// failed — no corrupt result reached a client.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.stats.guard.silent_corruptions == 0
    }
}

/// Serve one campaign point at `upset_rate`, auditing results against
/// `oracle` (as produced by [`CampaignConfig::oracle`]).
pub fn run_point_with_oracle(cfg: &CampaignConfig, upset_rate: f64, oracle: &[u64]) -> PointReport {
    assert_eq!(oracle.len() as u64, cfg.jobs, "oracle covers every job");
    let system = AtlantisSystem::builder().with_acbs(cfg.devices).build();
    let rt_cfg = ShardConfig {
        guard: cfg.guard_at(upset_rate),
        queue_capacity: cfg.shard.queue_capacity.max(cfg.jobs as usize),
        ..cfg.shard
    };
    let rt = Runtime::serve(system, rt_cfg).expect("campaign system has devices");
    let handles: Vec<_> = (0..cfg.jobs)
        .map(|i| {
            rt.submit(JobRequest::new((i % 4) as u32, cfg.spec(i)))
                .expect("campaign queue holds the whole workload")
        })
        .collect();
    let mut completed = 0u64;
    let mut faulted = 0u64;
    let mut mismatches = 0u64;
    let mut results = Vec::with_capacity(handles.len());
    for (i, h) in handles.into_iter().enumerate() {
        let id = h.id();
        match h.wait() {
            Ok(r) => {
                completed += 1;
                if r.checksum != oracle[i] {
                    mismatches += 1;
                }
                results.push((id, Some(r.checksum)));
            }
            Err(RuntimeError::Faulted { .. }) => {
                faulted += 1;
                results.push((id, None));
            }
            Err(e) => panic!("campaign job {i} failed unexpectedly: {e}"),
        }
    }
    let stats = rt.shutdown();
    PointReport {
        upset_rate,
        completed,
        faulted,
        mismatches,
        results,
        stats,
    }
}

/// Serve one campaign point at `upset_rate`, computing the fault-free
/// oracle first. Prefer [`run_campaign`] (or computing the oracle once
/// via [`CampaignConfig::oracle`]) when sweeping several rates.
pub fn run_point(cfg: &CampaignConfig, upset_rate: f64) -> PointReport {
    run_point_with_oracle(cfg, upset_rate, &cfg.oracle())
}

/// Sweep the campaign's upset rates, reusing one fault-free oracle.
pub fn run_campaign(cfg: &CampaignConfig) -> Vec<PointReport> {
    let oracle = cfg.oracle();
    cfg.upset_rates
        .iter()
        .map(|&rate| run_point_with_oracle(cfg, rate, &oracle))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oracle_is_deterministic_and_job_indexed() {
        let cfg = CampaignConfig {
            jobs: 12,
            ..CampaignConfig::default()
        };
        let a = cfg.oracle();
        let b = cfg.oracle();
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        // Different seeds give a different workload.
        let other = CampaignConfig {
            jobs: 12,
            seed: 8,
            ..CampaignConfig::default()
        };
        assert_ne!(a, other.oracle());
    }

    #[test]
    fn a_fault_free_point_matches_the_oracle_exactly() {
        let cfg = CampaignConfig {
            devices: 1,
            jobs: 24,
            ..CampaignConfig::default()
        };
        let p = run_point(&cfg, 0.0);
        assert_eq!(p.completed, 24);
        assert_eq!(p.faulted, 0);
        assert!(p.clean(), "fault-free serving must match the oracle");
        assert_eq!(p.stats.guard.upsets_injected, 0);
        assert_eq!(p.stats.mtbf(), f64::INFINITY);
    }
}
