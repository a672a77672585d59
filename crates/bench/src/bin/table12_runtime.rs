//! **Table 12 (new)** — multi-tenant serving on the runtime scheduler.
//!
//! The paper positions ATLANTIS as a shared machine: many applications
//! (trigger algorithms, volume rendering, image processing, N-body)
//! time-share the same reconfigurable boards, and §2 argues partial
//! reconfiguration makes hardware task switches cheap enough to do so.
//! This table measures exactly that claim at the serving layer: a mixed
//! workload from eight tenants, submitted in one deterministic sequence
//! and scheduled across four ACBs under (a) strict FIFO and (b) the
//! reconfiguration-aware batching policy. Both must produce bit-identical results; the aware policy
//! must do so with fewer hardware task switches and a higher virtual
//! (machine-time) throughput. A saturation run then shows bounded-queue
//! backpressure: overload is shed by rejection, never by losing an
//! accepted job.

use atlantis_apps::jobs::JobSpec;
use atlantis_bench::{f, Checker, Table};
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{
    JobRequest, PickConfig, Priority, Runtime, RuntimeError, ShardConfig, ShardStats,
};

const CLIENTS: u32 = 8;
const JOBS_PER_CLIENT: u64 = 150;
const ACBS: usize = 4;

struct RunOutput {
    stats: ShardStats,
    cache_misses: u64,
    /// `(seed, checksum)` of every job, sorted — the correctness digest.
    results: Vec<(u64, u64)>,
}

fn run(pick: PickConfig) -> RunOutput {
    let config = ShardConfig {
        pick,
        // Large enough that admission is not the bottleneck in the
        // throughput experiment; the saturation run exercises the bound.
        queue_capacity: 2048,
        ..ShardConfig::host()
    };
    let system = AtlantisSystem::builder().with_acbs(ACBS).build();
    let rt = Runtime::serve(system, config).expect("serve");

    // One submitter interleaves the tenants' streams, so the run replays.
    let mut pending = Vec::new();
    for i in 0..JOBS_PER_CLIENT {
        for c in 0..CLIENTS {
            let n = u64::from(c) * JOBS_PER_CLIENT + i;
            let spec = JobSpec::mixed(n);
            let priority = match n % 16 {
                0 => Priority::High,
                1..=3 => Priority::Low,
                _ => Priority::Normal,
            };
            let handle = loop {
                match rt.submit(JobRequest::new(c, spec).with_priority(priority)) {
                    Ok(h) => break h,
                    Err(RuntimeError::Overloaded(_)) => std::thread::yield_now(),
                    Err(e) => panic!("submit: {e}"),
                }
            };
            pending.push((spec.seed, handle));
        }
    }
    let mut results: Vec<(u64, u64)> = pending
        .into_iter()
        .map(|(seed, h)| (seed, h.wait().expect("job completes").checksum))
        .collect();
    results.sort_unstable();
    let (_, cache_misses) = rt.cache_counters();
    RunOutput {
        stats: rt.shutdown(),
        cache_misses,
        results,
    }
}

fn saturation() -> ShardStats {
    let system = AtlantisSystem::builder().with_acbs(1).build();
    let config = ShardConfig {
        queue_capacity: 8,
        ..ShardConfig::host()
    };
    let rt = Runtime::serve(system, config).expect("serve");
    let mut handles = Vec::new();
    for i in 0..300u64 {
        match rt.submit(JobRequest::new(0, JobSpec::trt(i))) {
            Ok(h) => handles.push(h),
            Err(RuntimeError::Overloaded(_)) => {}
            Err(e) => panic!("submit: {e}"),
        }
    }
    for h in handles {
        h.wait().expect("accepted job completes under overload");
    }
    rt.shutdown()
}

fn main() -> std::process::ExitCode {
    let mut c = Checker::new();
    let total = u64::from(CLIENTS) * JOBS_PER_CLIENT;

    println!("mixed workload: {total} jobs from {CLIENTS} tenants on {ACBS} ACBs, both policies\n");
    let fifo = run(PickConfig::fifo());
    let aware = run(PickConfig::default());

    let mut table = Table::new(
        "Table 12: multi-tenant serving, FIFO vs reconfiguration-aware",
        &[
            "policy",
            "jobs",
            "switches",
            "sw/job",
            "reconfig",
            "virt jobs/s",
            "p50 us",
            "p99 us",
        ],
    );
    for (name, s) in [("FIFO", &fifo.stats), ("reconfig-aware", &aware.stats)] {
        table.row(&[
            name.to_string(),
            s.completed.to_string(),
            (s.full_loads + s.partial_switches).to_string(),
            f(s.switches_per_job(), 3),
            format!("{}", s.reconfig_time),
            f(s.virtual_jobs_per_sec(), 1),
            f(s.latency_us(0.5), 0),
            f(s.latency_us(0.99), 0),
        ]);
    }
    table.print();

    c.check(
        "both policies served every job",
        fifo.stats.completed == total && aware.stats.completed == total,
    );
    c.check(
        "both policies produced identical (seed, checksum) sets",
        fifo.results == aware.results,
    );
    c.check(
        "no job failed under either policy",
        fifo.stats.guard.faulted == 0 && aware.stats.guard.faulted == 0,
    );
    let fifo_switches = fifo.stats.full_loads + fifo.stats.partial_switches;
    let aware_switches = aware.stats.full_loads + aware.stats.partial_switches;
    c.check(
        format!("batching cuts task switches ({aware_switches} vs {fifo_switches})"),
        aware_switches < fifo_switches,
    );
    c.check_band(
        "switch ratio aware/FIFO",
        aware_switches as f64 / fifo_switches as f64,
        0.0,
        0.85,
    );
    c.check_band(
        "virtual throughput speedup aware/FIFO",
        aware.stats.virtual_jobs_per_sec() / fifo.stats.virtual_jobs_per_sec(),
        1.0,
        1e3,
    );
    c.check(
        "bitstream cache absorbed every fit (0 misses after prefit)",
        fifo.cache_misses == 0 && aware.cache_misses == 0,
    );
    // Record the headline serving numbers into the JSON artifact (wide
    // sanity bands — their purpose is the recorded value).
    c.check_band(
        "FIFO switches per job",
        fifo.stats.switches_per_job(),
        0.0,
        2.0,
    );
    c.check_band(
        "aware switches per job",
        aware.stats.switches_per_job(),
        0.0,
        2.0,
    );
    c.check_band(
        "FIFO virtual jobs/sec",
        fifo.stats.virtual_jobs_per_sec(),
        1.0,
        1e9,
    );
    c.check_band(
        "aware virtual jobs/sec",
        aware.stats.virtual_jobs_per_sec(),
        1.0,
        1e9,
    );
    c.check_band(
        "aware p50 latency (us)",
        aware.stats.latency_us(0.5),
        1.0,
        6e8,
    );
    c.check_band(
        "aware p99 latency (us)",
        aware.stats.latency_us(0.99),
        1.0,
        6e8,
    );

    println!("saturation: 300 jobs against a capacity-8 queue on one ACB\n");
    let sat = saturation();
    let mut sat_table = Table::new(
        "Table 12b: overload behaviour (bounded admission queue)",
        &["offered", "accepted", "rejected", "completed", "failed"],
    );
    sat_table.row(&[
        300.to_string(),
        sat.submitted.to_string(),
        sat.rejected.to_string(),
        sat.completed.to_string(),
        sat.guard.faulted.to_string(),
    ]);
    sat_table.print();
    c.check(
        "overload sheds by rejection (some jobs rejected)",
        sat.rejected > 0,
    );
    c.check(
        "accounting closes: accepted + rejected == offered",
        sat.submitted + sat.rejected == 300,
    );
    c.check(
        "zero lost in-flight jobs: completed == accepted",
        sat.completed == sat.submitted && sat.guard.faulted == 0,
    );

    atlantis_bench::conclude("runtime", c)
}
