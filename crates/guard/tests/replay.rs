//! A fault campaign is a pure function of its configuration: serving the
//! same campaign point twice must reproduce the statistics and every
//! job's answer byte for byte — injections, detections, retries, faults
//! and all.

use atlantis_guard::{run_point_with_oracle, CampaignConfig};

#[test]
fn a_hot_campaign_point_replays_byte_identically() {
    let cfg = CampaignConfig {
        devices: 2,
        jobs: 240,
        seed: 7,
        ..CampaignConfig::default()
    };
    let oracle = cfg.oracle();
    let a = run_point_with_oracle(&cfg, 8_000.0, &oracle);
    let b = run_point_with_oracle(&cfg, 8_000.0, &oracle);
    assert!(
        a.stats.guard.upsets_injected > 0 && a.stats.guard.retries > 0,
        "the point must exercise injection and recovery"
    );
    assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
    assert_eq!(a.results, b.results, "per-job (id, checksum) diverged");
    assert_eq!(a.results.len() as u64, cfg.jobs);
}
