//! End-to-end reliability acceptance tests: the protected runtime must
//! never hand a corrupt result to a client, and the unprotected runtime
//! must demonstrably do so under the same fault load — otherwise the
//! protection is either broken or untested.

use atlantis_apps::jobs::{JobSpec, WorkloadContext};
use atlantis_core::AtlantisSystem;
use atlantis_guard::{run_point, CampaignConfig};
use atlantis_runtime::{GuardConfig, JobRequest, Runtime, RuntimeError, ShardConfig, ShardStats};
use atlantis_simcore::SimDuration;

/// Serve `specs` under `guard` on `devices` boards and audit every
/// completed checksum against the fault-free software oracle.
/// Returns (completed, faulted, mismatches, stats).
fn serve_audited(
    devices: usize,
    specs: &[JobSpec],
    guard: GuardConfig,
) -> (u64, u64, u64, ShardStats) {
    let mut ctx = WorkloadContext::new();
    let oracle: Vec<u64> = specs.iter().map(|s| ctx.execute(s).checksum).collect();
    let system = AtlantisSystem::builder().with_acbs(devices).build();
    let config = ShardConfig {
        guard,
        queue_capacity: specs.len().max(1),
        ..ShardConfig::host()
    };
    let rt = Runtime::serve(system, config).unwrap();
    let handles: Vec<_> = specs
        .iter()
        .map(|&s| rt.submit(JobRequest::new(0, s)).unwrap())
        .collect();
    let (mut completed, mut faulted, mut mismatches) = (0u64, 0u64, 0u64);
    for (i, h) in handles.into_iter().enumerate() {
        match h.wait() {
            Ok(r) => {
                completed += 1;
                if r.checksum != oracle[i] {
                    mismatches += 1;
                }
            }
            Err(RuntimeError::Faulted { .. }) => faulted += 1,
            Err(e) => panic!("job {i} failed unexpectedly: {e}"),
        }
    }
    (completed, faulted, mismatches, rt.shutdown())
}

#[test]
fn protected_serving_never_leaks_a_corrupt_result() {
    // ~2k upsets/s against ~40 µs jobs: roughly one beat in twelve is
    // hit, so retries succeed and the runtime keeps making progress
    // (far above that the machine thrashes in repair — a regime the
    // bench sweep explores, not this guarantee).
    let cfg = CampaignConfig {
        devices: 2,
        jobs: 200,
        seed: 11,
        ..CampaignConfig::default()
    };
    let p = run_point(&cfg, 2_000.0);
    assert!(
        p.stats.guard.upsets_injected > 0,
        "the campaign must actually inject faults ({} upsets)",
        p.stats.guard.upsets_injected
    );
    assert_eq!(
        p.stats.guard.silent_corruptions, 0,
        "protected serving leaked a corrupt execution to a client"
    );
    assert_eq!(
        p.mismatches, 0,
        "a returned checksum disagrees with the fault-free oracle"
    );
    assert_eq!(p.completed + p.faulted, cfg.jobs, "every job is answered");
    assert!(p.completed > 0, "the runtime still makes progress");
    assert!(
        p.stats.guard.detected_corruptions > 0,
        "with this fault load the detectors must fire"
    );
    assert!(p.stats.guard.detected_upsets > 0);
    assert!(p.stats.mean_detection_latency_us() > 0.0);
    let avail = p.stats.availability();
    assert!(
        avail > 0.0 && avail < 1.0,
        "availability under fault load is positive but below 1 ({avail})"
    );
    assert!(p.stats.mtbf().is_finite());
}

#[test]
fn unprotected_serving_demonstrably_corrupts_results() {
    // Same fault process, but every detector off: injection without
    // protection. Ground truth (corrupt executions that completed) and
    // the external audit (checksum vs oracle) must agree exactly.
    let cfg = CampaignConfig {
        devices: 1,
        jobs: 120,
        seed: 11,
        policy: GuardConfig::disabled(),
        ..CampaignConfig::default()
    };
    let p = run_point(&cfg, 50_000.0);
    assert!(p.stats.guard.upsets_injected > 0);
    assert_eq!(p.completed, cfg.jobs, "nothing fails — it just lies");
    assert!(
        p.stats.guard.silent_corruptions > 0,
        "an unprotected run under this fault load must corrupt results"
    );
    assert_eq!(
        p.mismatches, p.stats.guard.silent_corruptions,
        "every ground-truth corrupt completion is visible to the oracle audit"
    );
    assert_eq!(p.stats.guard.detected_corruptions, 0);
    assert_eq!(p.stats.guard.scrubs + p.stats.guard.repairs, 0);
}

#[test]
fn stealthy_upsets_evade_crc_scans_but_not_re_execution_votes() {
    // All-TRT workload: one design, so no task switch ever heals the
    // fabric behind the detectors' backs.
    let specs: Vec<JobSpec> = (0..60).map(JobSpec::trt).collect();

    // CRC-only protection is blind to CRC-stealthy upsets.
    let crc_only = GuardConfig {
        upset_rate: 12_000.0,
        stealth_fraction: 1.0,
        upset_seed: 3,
        crc_every: 1,
        ..GuardConfig::disabled()
    };
    let (completed, _, mismatches, stats) = serve_audited(1, &specs, crc_only);
    assert!(stats.guard.upsets_injected > 0);
    assert_eq!(stats.guard.upsets_stealthy, stats.guard.upsets_injected);
    assert!(completed > 0);
    assert!(
        stats.guard.silent_corruptions > 0 && mismatches > 0,
        "CRC scans alone must miss stealthy corruption ({} silent)",
        stats.guard.silent_corruptions
    );

    // Re-execution voting on the RISC host catches what the CRC can't.
    // A stealthy remainder forces a full anti-stealth scrub (~36.6 ms
    // of virtual time), during which this rate breeds fresh upsets —
    // deliberate thrash: many jobs honestly fault, none lie.
    let voting = GuardConfig {
        vote_every: 1,
        max_retries: 2,
        retry_backoff: SimDuration::from_micros(50),
        ..crc_only
    };
    let vote_specs = &specs[..40];
    let (completed, faulted, mismatches, stats) = serve_audited(1, vote_specs, voting);
    assert!(stats.guard.upsets_injected > 0);
    assert_eq!(
        stats.guard.silent_corruptions, 0,
        "voting must catch every stealthy corruption"
    );
    assert_eq!(mismatches, 0);
    assert_eq!(completed + faulted, vote_specs.len() as u64);
    assert!(stats.guard.detected_corruptions > 0, "the votes must fire");
}

#[test]
fn a_repeatedly_failing_device_is_quarantined_and_its_work_drained() {
    let specs: Vec<JobSpec> = (0..100).map(JobSpec::mixed).collect();
    let guard = GuardConfig {
        upset_rate: 6_000.0,
        upset_seed: 5,
        quarantine_after: 2,
        max_retries: 12,
        retry_backoff: SimDuration::from_micros(10),
        ..GuardConfig::protected()
    };
    let (completed, faulted, mismatches, stats) = serve_audited(2, &specs, guard);
    assert_eq!(
        stats.quarantined, 1,
        "exactly one board is pulled — the last active board never is"
    );
    assert_eq!(completed + faulted, specs.len() as u64, "no job is lost");
    assert!(completed > 0, "healthy capacity keeps serving");
    assert_eq!(stats.guard.silent_corruptions, 0);
    assert_eq!(mismatches, 0);
}

#[test]
fn scrub_overhead_scales_with_the_upset_rate() {
    let cfg = CampaignConfig {
        devices: 1,
        jobs: 100,
        seed: 2,
        ..CampaignConfig::default()
    };
    let reports = atlantis_guard::run_campaign(&CampaignConfig {
        upset_rates: vec![0.0, 4_000.0],
        ..cfg
    });
    assert_eq!(reports.len(), 2);
    let (clean, hot) = (&reports[0], &reports[1]);
    assert_eq!(clean.stats.guard.upsets_injected, 0);
    assert!(clean.clean());
    assert!(hot.stats.guard.upsets_injected > 0);
    assert!(hot.clean(), "protected points stay clean at every rate");
    assert!(
        hot.stats.guard.scrub_time + hot.stats.guard.check_time
            > clean.stats.guard.scrub_time + clean.stats.guard.check_time,
        "repair work must show up in the overhead accounting"
    );
    assert!(hot.stats.availability() < clean.stats.availability());
}
