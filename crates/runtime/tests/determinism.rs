//! Seed-parameterized determinism guard: two identical runs must produce
//! byte-identical statistics.
//!
//! The serving engine runs on a virtual clock, so every counter —
//! pipeline beats, switch counts, latency histograms, guard ledgers — is
//! a pure function of the submission sequence. Any nondeterminism
//! creeping into the engine, the DMA models or the accounting shows up
//! here as a fingerprint mismatch.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{Beat, GuardConfig, JobRequest, Runtime, ShardConfig};

fn serial() -> ShardConfig {
    ShardConfig {
        pipeline: Beat::Serial,
        ..ShardConfig::host()
    }
}

/// Closed-loop serve: one device, each job awaited before the next.
fn run_closed_loop(config: ShardConfig, seed: u64, jobs: u64) -> (Vec<u64>, String) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let rt = Runtime::serve(system, config).unwrap();
    let mut checksums = Vec::with_capacity(jobs as usize);
    for i in 0..jobs {
        let spec = JobSpec::mixed(seed * 10_000 + i);
        let handle = rt.submit(JobRequest::new(0, spec)).unwrap();
        checksums.push(handle.wait().unwrap().checksum);
    }
    (checksums, format!("{:?}", rt.shutdown()))
}

/// Open-loop serve: every job submitted up front on two devices.
fn run_open_loop(config: ShardConfig, seed: u64, jobs: u64) -> (Vec<(u64, u64)>, String) {
    let system = AtlantisSystem::builder().with_acbs(2).build();
    let rt = Runtime::serve(system, config).unwrap();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let spec = JobSpec::mixed(seed * 10_000 + i);
            rt.submit(JobRequest::new((i % 3) as u32, spec)).unwrap()
        })
        .collect();
    let done = handles
        .into_iter()
        .map(|h| h.wait().unwrap())
        .map(|c| {
            (
                c.board as u64,
                c.done.since(atlantis_simcore::SimTime::ZERO).as_picos(),
            )
        })
        .collect();
    (done, format!("{:?}", rt.shutdown()))
}

#[test]
fn closed_loop_stats_are_byte_identical_across_runs() {
    for seed in [1u64, 7, 42] {
        let (sums_a, fp_a) = run_closed_loop(ShardConfig::host(), seed, 24);
        let (sums_b, fp_b) = run_closed_loop(ShardConfig::host(), seed, 24);
        assert_eq!(sums_a, sums_b, "seed {seed}: checksums diverged");
        assert_eq!(fp_a, fp_b, "seed {seed}: stats fingerprint diverged");
    }
}

#[test]
fn open_loop_placement_and_timing_are_byte_identical_across_runs() {
    for config in [ShardConfig::host(), serial()] {
        let (a, fp_a) = run_open_loop(config, 5, 48);
        let (b, fp_b) = run_open_loop(config, 5, 48);
        assert_eq!(
            a, b,
            "{:?}: per-job board and done time diverged",
            config.pipeline
        );
        assert_eq!(
            fp_a, fp_b,
            "{:?}: stats fingerprint diverged",
            config.pipeline
        );
    }
}

/// Closed-loop serve under fault injection: jobs may honestly fail with
/// `Faulted` after exhausting retries; record `None` for those.
fn run_fault_campaign(config: ShardConfig, jobs: u64) -> (Vec<Option<u64>>, String) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let rt = Runtime::serve(system, config).unwrap();
    let mut checksums = Vec::with_capacity(jobs as usize);
    for i in 0..jobs {
        let spec = JobSpec::mixed(777_000 + i);
        let handle = rt.submit(JobRequest::new(0, spec)).unwrap();
        checksums.push(handle.wait().ok().map(|r| r.checksum));
    }
    let stats = rt.shutdown();
    assert!(
        stats.guard.upsets_injected > 0,
        "a campaign that injects nothing guards nothing"
    );
    (checksums, format!("{stats:?}"))
}

#[test]
fn fixed_seed_fault_campaigns_are_byte_identical_across_runs() {
    // Upset arrivals are a seeded Poisson process over the board's
    // virtual clock, so a run replays the same campaign — injections,
    // detections, retries, scrub times — byte for byte.
    let guard = GuardConfig {
        upset_rate: 3_000.0,
        stealth_fraction: 0.25,
        upset_seed: 9,
        vote_every: 4,
        ..GuardConfig::protected()
    };
    for (name, base) in [("pipelined", ShardConfig::host()), ("serial", serial())] {
        let config = ShardConfig { guard, ..base };
        let (sums_a, fp_a) = run_fault_campaign(config, 20);
        let (sums_b, fp_b) = run_fault_campaign(config, 20);
        assert_eq!(sums_a, sums_b, "{name}: campaign checksums diverged");
        assert_eq!(fp_a, fp_b, "{name}: campaign stats fingerprint diverged");
    }
}

/// The closure-compiler ledger for one streamed run of the TRT netlist
/// under forced threaded dispatch: every [`atlantis_chdl::EngineStats`]
/// compile counter except `compile_ns`, which is wall-clock time and
/// deliberately excluded — build duration varies run to run, but *what*
/// was built and *which* tier every eval took must not.
fn compile_ledger_fingerprint(seed: u64) -> String {
    use atlantis_chdl::{DispatchMode, EngineConfig, ExecMode, Sim};
    let design = atlantis_apps::trt::fpga::build_external_design(512, 4, 16);
    let config = EngineConfig {
        dispatch: DispatchMode::Threaded,
        ..EngineConfig::default()
    };
    let mut sim = Sim::with_config(&design, ExecMode::Compiled, config);
    sim.set("valid", 1);
    sim.set("clear", 0);
    sim.set("pass", 1);
    sim.set("threshold", 5);
    sim.set("counter_sel", 3);
    let hit = design.signal("hit").unwrap();
    let mut x = seed | 1;
    for _ in 0..64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.set_signal(hit, x % 512);
        sim.step();
    }
    let s = sim.engine_stats().unwrap();
    format!(
        "{:?}",
        (
            s.compiles,
            s.blocks_built,
            s.closures_specialized,
            s.evals_threaded,
            s.evals_match,
        )
    )
}

#[test]
fn threaded_compile_ledger_is_independent_of_seed_and_run() {
    // The compile ledger is a pure function of the netlist and the
    // dispatch config: stimulus values change *what flows through* the
    // compiled blocks but may not change how many blocks were built, how
    // many closures were specialized, or which tier each eval dispatched
    // to. (Parallel partitioned sweeps run inside the shared rayon pool,
    // so any scheduling leak into the counters would surface here too.)
    let base = compile_ledger_fingerprint(1);
    for seed in [1u64, 99, 42, 7] {
        let fp = compile_ledger_fingerprint(seed);
        assert_eq!(fp, base, "compile ledger diverged at seed {seed}");
    }
}

#[test]
fn closed_loop_serial_stats_are_byte_identical_across_runs() {
    for seed in [3u64, 11] {
        let (sums_a, fp_a) = run_closed_loop(serial(), seed, 16);
        let (sums_b, fp_b) = run_closed_loop(serial(), seed, 16);
        assert_eq!(sums_a, sums_b, "seed {seed}: checksums diverged");
        assert_eq!(fp_a, fp_b, "seed {seed}: stats fingerprint diverged");
    }
}
