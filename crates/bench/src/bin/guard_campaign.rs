//! **Guard campaign (new)** — the reliability envelope of self-healing
//! serving under fault injection.
//!
//! The paper's §2 lists *read-back and test* among the configuration
//! interface's capabilities — the facility a detector-hall deployment
//! would use against single event upsets in configuration SRAM. This
//! bench sweeps a seeded SEU campaign across upset rates while the
//! runtime serves a mixed workload under the default protection policy
//! ([`GuardConfig::protected`]): per-beat frame-CRC scans, periodic
//! deep scrubs against the golden image, targeted frame repair, bounded
//! retries, and quarantine.
//!
//! The headline claim, asserted here and parsed from `BENCH_guard.json`
//! by CI: **at the default scrub interval no corrupt result ever
//! reaches a client** — every completed checksum matches a fault-free
//! software oracle at every swept rate — while an unprotected control
//! run under the same fault process demonstrably returns corrupt
//! results. The sweep also records the price paid: availability,
//! scrub/check overhead, retries, and detection latency versus rate.

use atlantis_bench::{f, Checker, Table};
use atlantis_guard::{run_point_with_oracle, CampaignConfig, PointReport};
use atlantis_runtime::GuardConfig;

const RATES: [f64; 4] = [0.0, 500.0, 2000.0, 8000.0];
const UNPROTECTED_RATE: f64 = 20_000.0;

fn row(t: &mut Table, label: &str, p: &PointReport) {
    let s = &p.stats;
    t.row(&[
        label.to_string(),
        format!("{:.0}", p.upset_rate),
        s.guard.upsets_injected.to_string(),
        s.guard.detected_corruptions.to_string(),
        s.guard.silent_corruptions.to_string(),
        p.mismatches.to_string(),
        s.guard.retries.to_string(),
        p.faulted.to_string(),
        f(s.availability() * 100.0, 1),
        f(s.scrub_overhead() * 100.0, 1),
        f(s.mean_detection_latency_us(), 1),
    ]);
}

fn main() -> std::process::ExitCode {
    let cfg = CampaignConfig {
        devices: 2,
        jobs: 240,
        seed: 7,
        ..CampaignConfig::default()
    };
    let oracle = cfg.oracle();

    let mut t = Table::new(
        "Self-healing serving under SEU injection (2 ACBs, 240 mixed jobs)",
        &[
            "policy", "rate/s", "upsets", "detect", "silent", "mism", "retry", "fault", "avail%",
            "scrub%", "lat µs",
        ],
    );

    let protected: Vec<PointReport> = RATES
        .iter()
        .map(|&r| run_point_with_oracle(&cfg, r, &oracle))
        .collect();
    for p in &protected {
        row(&mut t, "protected", p);
    }

    let unprot_cfg = CampaignConfig {
        policy: GuardConfig::disabled(),
        ..cfg.clone()
    };
    let unprotected = run_point_with_oracle(&unprot_cfg, UNPROTECTED_RATE, &oracle);
    row(&mut t, "none", &unprotected);
    t.print();

    let mut c = Checker::new();

    // The headline reliability guarantee, parsed from the JSON by CI.
    let silent: u64 = protected
        .iter()
        .map(|p| p.stats.guard.silent_corruptions)
        .sum();
    let mismatches: u64 = protected.iter().map(|p| p.mismatches).sum();
    c.check_band(
        "silent corruptions at the default scrub interval",
        silent as f64,
        0.0,
        0.0,
    );
    c.check_band(
        "oracle mismatches under protection (all rates)",
        mismatches as f64,
        0.0,
        0.0,
    );
    c.check(
        "every campaign job is answered at every protected rate",
        protected
            .iter()
            .all(|p| p.completed + p.faulted == cfg.jobs),
    );

    // The fault-free baseline: nothing injected, nothing detected, and
    // the standing cost of protection is the only overhead.
    let clean = &protected[0];
    c.check(
        "fault-free point injects and detects nothing",
        clean.stats.guard.upsets_injected == 0 && clean.stats.guard.detected_corruptions == 0,
    );
    c.check_band(
        "fault-free availability under the standing check cost",
        clean.stats.availability(),
        0.30,
        1.0,
    );

    // Fault load must actually materialize and be repaired.
    let hot = protected.last().expect("non-empty sweep");
    c.check(
        "the hottest point injects and detects upsets",
        hot.stats.guard.upsets_injected > 0 && hot.stats.guard.detected_upsets > 0,
    );
    c.check(
        "detection latency is measured at the hottest point",
        hot.stats.mean_detection_latency_us() > 0.0,
    );
    c.check(
        "availability degrades monotonically with the upset rate",
        protected
            .windows(2)
            .all(|w| w[1].stats.availability() <= w[0].stats.availability() + 1e-9),
    );
    c.check(
        "mtbf is finite exactly when faults are injected",
        protected
            .iter()
            .all(|p| (p.upset_rate > 0.0) == p.stats.mtbf().is_finite()),
    );

    // The control: the same fault process without protection lies to
    // its clients — proof the campaign stresses something real.
    c.check(
        "unprotected control run returns corrupt results",
        unprotected.stats.guard.silent_corruptions > 0 && unprotected.mismatches > 0,
    );
    c.check(
        "unprotected corruption is exactly what the oracle audit sees",
        unprotected.mismatches == unprotected.stats.guard.silent_corruptions,
    );

    atlantis_bench::conclude("guard", c)
}
