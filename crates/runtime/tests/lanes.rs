//! Lane-batched execution must be an *optimisation*, not a behaviour
//! change: computing queued same-design jobs' outcomes in one laned pass
//! may only change host wall clock. Per-job checksums, cycle counts,
//! timings and every virtual statistic must match the unlaned run
//! exactly — the scheduler never sees the gather.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{Beat, JobRequest, LaneStats, PickConfig, Runtime, ShardConfig, ShardStats};

type Row = (u64, u64, u64, u64);

/// Serve the given specs on one device under strict FIFO and return the
/// per-job `(id, checksum, cycles, done)` plus final stats.
fn run(base: ShardConfig, lanes: usize, specs: &[JobSpec]) -> (Vec<Row>, ShardStats) {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let config = ShardConfig {
        lanes,
        pick: PickConfig::fifo(),
        ..base
    };
    let rt = Runtime::serve(system, config).unwrap();
    let handles: Vec<_> = specs
        .iter()
        .map(|&s| rt.submit(JobRequest::new(0, s)).unwrap())
        .collect();
    let results = handles
        .into_iter()
        .map(|h| h.wait().unwrap())
        .map(|r| {
            (
                r.id,
                r.checksum,
                r.cycles,
                r.done.since(r.submitted).as_picos(),
            )
        })
        .collect();
    (results, rt.shutdown())
}

/// Everything but the lane counters must be identical.
fn assert_virtual_equivalence(scalar: &ShardStats, laned: &ShardStats) {
    let unlaned = ShardStats {
        lanes: LaneStats::default(),
        ..laned.clone()
    };
    assert_eq!(scalar, &unlaned);
}

#[test]
fn laned_trt_serving_matches_scalar_virtual_time_exactly() {
    // A same-design burst: the best case for gathering — the laned run
    // must actually batch (occupancy > 1) yet change nothing virtual.
    let specs: Vec<JobSpec> = (0..200).map(JobSpec::trt).collect();
    let (scalar_results, scalar) = run(ShardConfig::host(), 1, &specs);
    let (laned_results, laned) = run(ShardConfig::host(), 8, &specs);

    assert_eq!(
        scalar_results, laned_results,
        "per-job checksums, cycles and timings must not depend on lanes"
    );
    assert_virtual_equivalence(&scalar, &laned);

    assert_eq!(
        scalar.lanes,
        LaneStats::default(),
        "lanes = 1 never gathers"
    );
    assert!(
        laned.lanes.laned_passes >= 1,
        "an upfront same-design burst must produce laned passes"
    );
    assert!(
        laned.lane_occupancy() > 1.0,
        "laned passes must average more than one job ({:.2})",
        laned.lane_occupancy()
    );
    assert_eq!(
        laned.lanes.laned_jobs + laned.lanes.scalar_passes,
        laned.completed,
        "every completed job is computed by exactly one pass"
    );
}

#[test]
fn laned_mixed_serving_matches_scalar_virtual_time_exactly() {
    // Mixed kinds: only TRT jobs gather, the rest compute one by one.
    let specs: Vec<JobSpec> = (0..96).map(JobSpec::mixed).collect();
    let (scalar_results, scalar) = run(ShardConfig::host(), 1, &specs);
    let (laned_results, laned) = run(ShardConfig::host(), 8, &specs);
    assert_eq!(scalar_results, laned_results);
    assert_virtual_equivalence(&scalar, &laned);
}

#[test]
fn the_serial_beat_gathers_with_the_same_guarantee() {
    let serial = ShardConfig {
        pipeline: Beat::Serial,
        ..ShardConfig::host()
    };
    let specs: Vec<JobSpec> = (0..40).map(JobSpec::trt).collect();
    let (r1, s1) = run(serial, 1, &specs);
    let (r8, s8) = run(serial, 8, &specs);
    assert_eq!(r1, r8);
    assert_virtual_equivalence(&s1, &s8);
    assert!(s8.lanes.laned_passes > 0);
}
