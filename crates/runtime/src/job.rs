//! Job requests, results, and completion handles.

use crate::error::RuntimeError;
use atlantis_apps::jobs::JobSpec;
use atlantis_simcore::SimDuration;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Admission priority. Higher classes are always served first; within a
/// class the scheduler may reorder bounded-many positions to batch jobs
/// sharing a design (see [`PickConfig`](crate::PickConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-critical (e.g. online trigger decisions).
    High,
    /// The default class.
    Normal,
    /// Bulk/batch work.
    Low,
}

impl Priority {
    /// Number of priority classes.
    pub const CLASSES: usize = 3;

    /// Class index, 0 = most urgent.
    pub fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One client request: which tenant asks, how urgently, and for what.
#[derive(Debug, Clone, Copy)]
pub struct JobRequest {
    /// Client (tenant) identifier, echoed into the result.
    pub client: u32,
    /// Admission priority.
    pub priority: Priority,
    /// The deterministic work description.
    pub spec: JobSpec,
}

impl JobRequest {
    /// A normal-priority request from `client`.
    pub fn new(client: u32, spec: JobSpec) -> Self {
        JobRequest {
            client,
            priority: Priority::Normal,
            spec,
        }
    }

    /// The same request at a different priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }
}

/// Per-job timing decomposition — the runtime's observability surface.
/// Wall-clock fields measure the *serving system* (host threads, lock
/// waits); `SimDuration` fields measure the *simulated machine* (DMA
/// cycles, configuration port, design clock).
#[derive(Debug, Clone, Copy)]
pub struct JobTimings {
    /// Which ACB executed the job.
    pub device: usize,
    /// Wall time from submission until a worker picked the job up.
    pub queue_wait: Duration,
    /// Wall time from submission until completion.
    pub wall: Duration,
    /// Virtual time of payload DMA in + result DMA out.
    pub dma: SimDuration,
    /// Virtual time spent reconfiguring the FPGA (zero when the design
    /// was already loaded — the batching win).
    pub reconfig: SimDuration,
    /// Virtual execution time at the design clock.
    pub execute: SimDuration,
    /// Whether serving this job required a hardware task switch.
    pub switched: bool,
}

impl JobTimings {
    /// Total virtual time the job occupied its device.
    pub fn total_virtual(&self) -> SimDuration {
        self.dma + self.reconfig + self.execute
    }
}

/// A completed job.
#[derive(Debug, Clone, Copy)]
pub struct JobResult {
    /// The runtime-assigned job id (submission order).
    pub id: u64,
    /// The client that submitted the job.
    pub client: u32,
    /// The work that was done.
    pub spec: JobSpec,
    /// Deterministic digest of the job's output.
    pub checksum: u64,
    /// FPGA cycles consumed.
    pub cycles: u64,
    /// The timing decomposition.
    pub timings: JobTimings,
}

/// The caller's side of a submitted job: await the result.
#[derive(Debug)]
pub struct JobHandle {
    pub(crate) id: u64,
    pub(crate) rx: mpsc::Receiver<Result<JobResult, RuntimeError>>,
}

impl JobHandle {
    /// The runtime-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job completes. `Err(ShuttingDown)` only if the
    /// runtime was torn down forcibly — a graceful
    /// [`Runtime::shutdown`](crate::Runtime::shutdown) drains every
    /// accepted job first.
    pub fn wait(self) -> Result<JobResult, RuntimeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(RuntimeError::ShuttingDown),
        }
    }
}

/// A job as it sits in the admission queue.
#[derive(Debug)]
pub(crate) struct QueuedJob {
    pub id: u64,
    pub request: JobRequest,
    pub submitted: Instant,
    /// Times this job has been requeued after an integrity event.
    pub retries: u32,
    pub reply: mpsc::Sender<Result<JobResult, RuntimeError>>,
}
