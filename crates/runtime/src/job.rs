//! Job requests and their admission priority.

use atlantis_apps::jobs::JobSpec;

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
    /// Client (tenant) identifier, echoed into the completion.
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
