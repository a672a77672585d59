//! Pipelined serving must be an *optimisation*, not a behaviour change:
//! on the same mixed workload it must produce the identical set of job
//! checksums as serial serving while spending strictly less virtual
//! device time outside reconfiguration — on every seed.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{Beat, JobRequest, PickConfig, Runtime, ShardConfig, ShardStats};
use atlantis_simcore::SimDuration;

fn serial() -> ShardConfig {
    ShardConfig {
        pipeline: Beat::Serial,
        ..ShardConfig::host()
    }
}

/// Serve `jobs` mixed jobs (offset by `seed`) on `acbs` devices and
/// return the sorted per-job results plus the final stats.
fn run(config: ShardConfig, acbs: usize, seed: u64, jobs: u64) -> (Vec<(u64, u64)>, ShardStats) {
    let system = AtlantisSystem::builder().with_acbs(acbs).build();
    let rt = Runtime::serve(system, config).unwrap();
    let handles: Vec<_> = (0..jobs)
        .map(|i| {
            let spec = JobSpec::mixed(seed * 10_000 + i);
            rt.submit(JobRequest::new((i % 4) as u32, spec)).unwrap()
        })
        .collect();
    let mut results: Vec<(u64, u64)> = handles
        .into_iter()
        .map(|h| h.wait().unwrap())
        .map(|r| (r.spec.seed, r.checksum))
        .collect();
    let stats = rt.shutdown();
    results.sort_unstable();
    (results, stats)
}

#[test]
fn pipelined_serving_matches_serial_checksums_and_is_faster_on_every_seed() {
    // One device: the virtual makespan is that device's busy time, which
    // splits into reconfiguration plus DMA + execute time for the fixed
    // job set. Reconfiguration cannot be pipelined, so each run's own
    // reconfiguration time is subtracted out; the remainder must shrink
    // under pipelining by the overlap the beats saved.
    for seed in 0..4u64 {
        let (serial_results, serial) = run(serial(), 1, seed, 48);
        let (pipe_results, pipe) = run(ShardConfig::host(), 1, seed, 48);

        assert_eq!(
            serial_results, pipe_results,
            "seed {seed}: pipelining changed job results"
        );
        assert_eq!(pipe.completed, 48);
        assert_eq!(pipe.guard.faulted, 0);

        // The overlap win, asserted directly: pipelined beats occupy
        // the overlap window, strictly less than the sum of their
        // per-stage times.
        let p = &pipe.pipeline;
        let stage_sum: SimDuration = p.stage_time.iter().copied().sum();
        assert!(
            p.window_time < stage_sum,
            "seed {seed}: window {} not below stage sum {stage_sum}",
            p.window_time
        );
        assert!(p.beats > 0);
        assert!(p.overlap_saved > SimDuration::ZERO);
        assert!(pipe.overlap_efficiency() > 0.0);

        // The makespan comparison, with the reconfig term cancelled.
        let serial_busy = serial.makespan() - serial.reconfig_time;
        let pipe_busy = pipe.makespan() - pipe.reconfig_time;
        assert!(
            pipe_busy < serial_busy,
            "seed {seed}: pipelined non-reconfig busy {pipe_busy} not below serial {serial_busy}"
        );

        // The overlap accounting is live only on the pipelined run.
        assert_eq!(serial.pipeline.beats, 0);
        assert_eq!(serial.overlap_efficiency(), 0.0);
    }
}

#[test]
fn pipelined_serving_matches_serial_checksums_across_devices() {
    for seed in 0..2u64 {
        let (serial_results, serial) = run(serial(), 2, seed, 48);
        let (pipe_results, pipe) = run(ShardConfig::host(), 2, seed, 48);
        assert_eq!(
            serial_results, pipe_results,
            "seed {seed}: pipelining changed job results across devices"
        );
        assert_eq!(serial.completed, 48);
        assert_eq!(pipe.completed, 48);
        assert_eq!(serial.guard.faulted + pipe.guard.faulted, 0);
        assert!(pipe.pipeline.beats > 0);
    }
}

#[test]
fn pipeline_drains_on_design_switches_without_losing_jobs() {
    // FIFO over a kind-alternating workload forces a drain on nearly
    // every admission — the worst case for the pipeline — and must
    // still serve everything correctly.
    let fifo_pipe = ShardConfig {
        pick: PickConfig::fifo(),
        ..ShardConfig::host()
    };
    let (results, stats) = run(fifo_pipe, 1, 9, 32);
    assert_eq!(results.len(), 32);
    assert_eq!(stats.completed, 32);
    assert!(stats.pipeline.drains > 0, "alternating kinds must drain");
    assert!(
        stats.pipeline.drains < stats.full_loads + stats.partial_switches,
        "only switches after the first load drain"
    );
}
