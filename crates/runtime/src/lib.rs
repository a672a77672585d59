//! atlantis-runtime — the multi-tenant serving engine of the simulated
//! ATLANTIS machine.
//!
//! The paper's machine (§1–§3) is a farm of reconfigurable coprocessor
//! boards behind a CompactPCI backplane; its economics hinge on
//! *hardware task switching* — swapping the design on an FPGA by
//! partial reconfiguration instead of re-fitting and fully re-loading
//! it. This crate serves heterogeneous requests (TRT trigger events,
//! volume-rendering frames, 2-D image filters, N-body steps) from many
//! tenants on those boards: priorities under a bounded-capacity
//! admission queue, a reconfiguration-aware pick, the pipelined
//! DMA/compute beat, lane-gathered execution and the self-healing
//! guard.
//!
//! There is one serving engine, the virtual-time [`ShardScheduler`]: a
//! discrete-event model of one host and its boards that every fixed
//! submission sequence replays byte for byte. The cluster embeds one
//! per host; [`Runtime`] is a thin blocking front over one built from an
//! [`AtlantisSystem`]'s ACBs. The pick lives in one [`SchedCore`] tuned
//! by one [`PickConfig`], and fitted bitstreams are kept in a shared
//! [`BitstreamCache`], so no job ever waits on the fitter after warm-up.
//!
//! ```no_run
//! use atlantis_core::AtlantisSystem;
//! use atlantis_runtime::{JobRequest, Runtime, ShardConfig};
//! use atlantis_apps::jobs::JobSpec;
//!
//! let system = AtlantisSystem::builder().with_acbs(4).build();
//! let rt = Runtime::serve(system, ShardConfig::host()).unwrap();
//! let handle = rt.submit(JobRequest::new(0, JobSpec::trt(42))).unwrap();
//! let done = handle.wait().unwrap();
//! println!("checksum {:016x} after {}", done.checksum, done.latency());
//! let stats = rt.shutdown();
//! println!("{} jobs, {:.2} switches/job", stats.completed, stats.switches_per_job());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod error;
mod guard;
mod job;
mod sched;
mod shard;
mod stats;

pub use cache::BitstreamCache;
pub use error::RuntimeError;
pub use guard::GuardConfig;
pub use job::{JobRequest, Priority};
pub use sched::{Affinity, PickConfig, SchedCore, Schedulable};
pub use shard::{
    Beat, FabricKind, ShardCompletion, ShardConfig, ShardJob, ShardReject, ShardScheduler,
    StolenJob,
};
pub use stats::{GuardStats, LaneStats, LogHistogram, PipelineStats, ShardStats};

use atlantis_core::AtlantisSystem;
use atlantis_simcore::SimTime;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, MutexGuard};

/// The job server: a blocking front over one host-built
/// [`ShardScheduler`] behind a mutex. It spawns no thread: admissions
/// land at the front's virtual `now`, and the clock moves only when a
/// caller blocks — [`JobHandle::wait`] and [`Runtime::shutdown`] run the
/// shard until the awaited work retires. Any number of client threads
/// may share it; a given submission sequence replays identically.
#[derive(Debug)]
pub struct Runtime {
    front: Arc<Mutex<Front>>,
}

#[derive(Debug)]
struct Front {
    shard: ShardScheduler,
    /// Where admissions land on the virtual clock.
    now: SimTime,
    next_id: u64,
    /// Retired jobs whose handles have not collected them yet.
    done: HashMap<u64, ShardCompletion>,
    /// Jobs whose handles were dropped unwaited; their completions are
    /// discarded.
    abandoned: HashSet<u64>,
}

impl Front {
    /// Run the shard to its next board event and keep what retires
    /// there. Returns how many jobs retired, or `None` when nothing is
    /// in flight.
    fn step(&mut self) -> Option<usize> {
        let t = self.shard.next_completion()?;
        self.now = t;
        let retired = self.shard.advance(t);
        let n = retired.len();
        for c in retired {
            if !self.abandoned.remove(&c.id) {
                self.done.insert(c.id, c);
            }
        }
        Some(n)
    }
}

/// Lock the front. The lock is poisoned only if a call panicked while
/// holding it — a bug in this crate.
fn lock(front: &Mutex<Front>) -> MutexGuard<'_, Front> {
    front
        .lock()
        .expect("a client panicked while holding the runtime lock")
}

impl Runtime {
    /// Take ownership of `system`'s ACBs and serve on them under
    /// `config` (see [`ShardConfig::host`]), all workload bitstreams
    /// pre-fitted.
    ///
    /// Fails with [`RuntimeError::NoDevices`] when the system has no
    /// ACBs, and propagates fitter errors should a workload design not
    /// fit the device family.
    pub fn serve(system: AtlantisSystem, config: ShardConfig) -> Result<Self, RuntimeError> {
        let front = Front {
            shard: ShardScheduler::host(config, system)?,
            now: SimTime::ZERO,
            next_id: 0,
            done: HashMap::new(),
            abandoned: HashSet::new(),
        };
        Ok(Runtime {
            front: Arc::new(Mutex::new(front)),
        })
    }

    /// Submit a job at the front's virtual `now`. Returns a
    /// [`JobHandle`] to await the result, or
    /// [`RuntimeError::Overloaded`] when the admission queue is full —
    /// the backpressure signal. A rejected submission first runs the
    /// shard to its next completion, so a caller that retries in a loop
    /// makes progress.
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, RuntimeError> {
        self.admit(lock(&self.front), request)
    }

    /// Submit a job that arrives at virtual instant `at`: the shard first
    /// retires every completion at or before `at`, then the job is
    /// admitted at `max(now, at)` exactly as [`submit`](Self::submit)
    /// admits at `now`. The front's clock never moves back, so an `at`
    /// in the past lands at the front's current clock. Submitting each
    /// request at its arrival instant drives the runtime open loop.
    pub fn submit_at(&self, at: SimTime, request: JobRequest) -> Result<JobHandle, RuntimeError> {
        let mut f = lock(&self.front);
        while f.shard.next_completion().is_some_and(|t| t <= at) {
            f.step();
        }
        f.now = f.now.max(at);
        self.admit(f, request)
    }

    /// Admit `request` at the locked front's `now`.
    fn admit(
        &self,
        mut f: MutexGuard<'_, Front>,
        request: JobRequest,
    ) -> Result<JobHandle, RuntimeError> {
        let job = ShardJob {
            id: f.next_id,
            tenant: request.client,
            priority: request.priority,
            spec: request.spec,
        };
        let now = f.now;
        match f.shard.submit(now, job) {
            Ok(()) => {
                f.next_id += 1;
                Ok(JobHandle {
                    id: job.id,
                    front: Arc::clone(&self.front),
                    waited: false,
                })
            }
            Err(reject) => {
                while f.step() == Some(0) {}
                Err(RuntimeError::Overloaded(reject))
            }
        }
    }

    /// A snapshot of the shard's counters.
    pub fn stats(&self) -> ShardStats {
        lock(&self.front).shard.stats().clone()
    }

    /// `(hits, misses)` of the bitstream cache.
    pub fn cache_counters(&self) -> (u64, u64) {
        lock(&self.front).shard.cache().counters()
    }

    /// Serve every accepted job to completion and return the final
    /// counters. Outstanding handles still collect their results.
    pub fn shutdown(self) -> ShardStats {
        let mut f = lock(&self.front);
        while f.step().is_some() {}
        f.shard.stats().clone()
    }
}

/// The caller's side of a submitted job: await the result.
#[derive(Debug)]
pub struct JobHandle {
    id: u64,
    front: Arc<Mutex<Front>>,
    waited: bool,
}

impl JobHandle {
    /// The runtime-assigned job id (admission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job retires, running the shard's virtual clock
    /// forward as far as that takes. `Err(Faulted)` when the guard gave
    /// up on the job after its retry budget.
    pub fn wait(mut self) -> Result<ShardCompletion, RuntimeError> {
        let mut f = lock(&self.front);
        let done = loop {
            if let Some(done) = f.done.remove(&self.id) {
                break done;
            }
            f.step().expect("an admitted job always retires");
        };
        let retries = f.shard.config().guard.max_retries;
        drop(f);
        self.waited = true;
        if done.faulted {
            Err(RuntimeError::Faulted { retries })
        } else {
            Ok(done)
        }
    }
}

impl Drop for JobHandle {
    /// A handle dropped unwaited discards its job's result.
    fn drop(&mut self) {
        if self.waited {
            return;
        }
        if let Ok(mut f) = self.front.lock() {
            if f.done.remove(&self.id).is_none() {
                f.abandoned.insert(self.id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlantis_apps::jobs::JobSpec;
    use atlantis_simcore::SimDuration;

    fn small_system(acbs: usize) -> AtlantisSystem {
        AtlantisSystem::builder().with_acbs(acbs).build()
    }

    #[test]
    fn refuses_a_system_without_acbs() {
        let system = AtlantisSystem::builder().with_acbs(0).with_aibs(1).build();
        match Runtime::serve(system, ShardConfig::host()) {
            Err(RuntimeError::NoDevices) => {}
            other => panic!("expected NoDevices, got {other:?}"),
        }
    }

    #[test]
    fn serves_a_mixed_workload_to_completion() {
        let rt = Runtime::serve(small_system(2), ShardConfig::host()).unwrap();
        let handles: Vec<_> = (0..24)
            .map(|i| {
                rt.submit(JobRequest::new(i % 3, JobSpec::mixed(u64::from(i))))
                    .unwrap()
            })
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert!(r.service() > SimDuration::ZERO);
            assert!(r.done > r.started);
        }
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.guard.faulted, 0);
        assert_eq!(stats.per_kind.iter().sum::<u64>(), 24);
        assert!(stats.makespan() > SimDuration::ZERO);
        assert_eq!(stats.latency.count(), 24);
        assert!(stats.pipeline.beats > 0);
    }

    #[test]
    fn results_are_deterministic_across_policies_and_devices() {
        let specs: Vec<_> = (0..16).map(JobSpec::mixed).collect();
        let run = |config: ShardConfig, acbs: usize| -> Vec<(u64, u64)> {
            let rt = Runtime::serve(small_system(acbs), config).unwrap();
            let handles: Vec<_> = specs
                .iter()
                .map(|&s| rt.submit(JobRequest::new(0, s)).unwrap())
                .collect();
            let mut out: Vec<_> = handles
                .into_iter()
                .map(|h| h.wait().unwrap())
                .map(|r| (r.id, r.checksum))
                .collect();
            rt.shutdown();
            out.sort_unstable();
            out
        };
        let fifo = ShardConfig {
            pick: PickConfig::fifo(),
            pipeline: Beat::Serial,
            ..ShardConfig::host()
        };
        assert_eq!(
            run(fifo, 1),
            run(ShardConfig::host(), 3),
            "checksums must not depend on policy, beat or device count"
        );
    }

    #[test]
    fn high_priority_jobs_are_tracked_per_kind() {
        let rt = Runtime::serve(small_system(1), ShardConfig::host()).unwrap();
        let h = rt
            .submit(JobRequest::new(7, JobSpec::trt(1)).with_priority(Priority::High))
            .unwrap();
        let r = h.wait().unwrap();
        assert_eq!(r.tenant, 7);
        assert_eq!(r.priority, Priority::High);
        let stats = rt.shutdown();
        assert_eq!(stats.per_kind[0], 1);
    }

    /// The retry-after hint divides by the boards still serving: a
    /// quarantined board no longer drains the queue.
    #[test]
    fn quarantine_lowers_the_retry_after_divisor() {
        let guard = GuardConfig {
            upset_rate: 6_000.0,
            upset_seed: 5,
            quarantine_after: 2,
            max_retries: 12,
            retry_backoff: SimDuration::from_micros(10),
            ..GuardConfig::protected()
        };
        let config = ShardConfig {
            guard,
            queue_capacity: 100,
            ..ShardConfig::host()
        };
        let rt = Runtime::serve(small_system(2), config).unwrap();
        let handles: Vec<_> = (0..100)
            .map(|i| rt.submit(JobRequest::new(0, JobSpec::mixed(i))).unwrap())
            .collect();
        for h in handles {
            let _ = h.wait();
        }
        assert_eq!(rt.stats().quarantined, 1);
        let f = rt.front.lock().unwrap();
        assert_eq!(f.shard.active_boards(), 1);
        let ewma = f.shard.service_ewma().as_picos();
        assert!(ewma > 0);
        assert_eq!(f.shard.retry_after(4), SimDuration::from_picos(ewma * 4));
    }

    #[test]
    fn a_rejected_submit_runs_the_clock_to_the_next_completion() {
        let config = ShardConfig {
            queue_capacity: 1,
            ..ShardConfig::host()
        };
        let rt = Runtime::serve(small_system(1), config).unwrap();
        let mut handles = Vec::new();
        let reject = loop {
            match rt.submit(JobRequest::new(0, JobSpec::trt(handles.len() as u64))) {
                Ok(h) => handles.push(h),
                Err(RuntimeError::Overloaded(r)) => break r,
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert_eq!(reject.capacity, 1);
        let s = rt.stats();
        assert_eq!(s.rejected, 1);
        assert_eq!(s.completed, 1, "the rejection served one job");
        // The freed slot admits the next submission without waiting.
        handles.push(rt.submit(JobRequest::new(0, JobSpec::trt(99))).unwrap());
        for h in handles {
            h.wait().unwrap();
        }
    }

    #[test]
    fn submit_at_admits_at_the_arrival_instant() {
        let config = ShardConfig {
            pipeline: Beat::Serial,
            ..ShardConfig::host()
        };
        let rt = Runtime::serve(small_system(1), config).unwrap();
        let ms = |n| SimTime::ZERO + SimDuration::from_millis(n);
        // An idle board serves an arrival at once: no queue wait, so the
        // latency is the service time (here a full configuration plus
        // the job).
        let first = rt
            .submit_at(ms(1), JobRequest::new(0, JobSpec::trt(1)))
            .unwrap();
        // The first job retires well before 100 ms; admitting the second
        // there must run the shard through that completion, or the board
        // would still look busy and the second job would queue.
        let second = rt
            .submit_at(ms(100), JobRequest::new(0, JobSpec::trt(2)))
            .unwrap();
        for (h, at) in [(first, ms(1)), (second, ms(100))] {
            let r = h.wait().unwrap();
            assert_eq!(r.submitted, at);
            assert_eq!(r.started, at);
            assert_eq!(r.latency(), r.service());
        }
        // An arrival in the past lands at the front's clock.
        let now = lock(&rt.front).now;
        let late = rt
            .submit_at(ms(1), JobRequest::new(0, JobSpec::trt(3)))
            .unwrap();
        assert_eq!(late.wait().unwrap().submitted, now);
    }

    #[test]
    fn handles_outlive_shutdown_and_dropped_handles_leave_nothing_behind() {
        let rt = Runtime::serve(small_system(1), ShardConfig::host()).unwrap();
        let kept = rt.submit(JobRequest::new(0, JobSpec::trt(1))).unwrap();
        drop(rt.submit(JobRequest::new(0, JobSpec::trt(2))).unwrap());
        let front = Arc::clone(&rt.front);
        let stats = rt.shutdown();
        assert_eq!(stats.completed, 2);
        {
            let f = front.lock().unwrap();
            assert_eq!(f.done.len(), 1, "only the kept handle's result waits");
            assert!(f.abandoned.is_empty());
        }
        assert_eq!(kept.wait().unwrap().spec, JobSpec::trt(1));
        assert!(front.lock().unwrap().done.is_empty());
    }
}
