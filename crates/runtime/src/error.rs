//! Errors of the serving runtime.

use crate::shard::ShardReject;
use atlantis_core::coprocessor::TaskError;
use std::fmt;

/// Why the runtime refused or failed a request.
#[derive(Debug)]
pub enum RuntimeError {
    /// The bounded admission queue is full — the caller must back off
    /// and retry. Under overload the runtime rejects *new* work instead
    /// of growing without bound or stalling accepted jobs. The
    /// [`ShardReject`] says how deep the queue was, which class was
    /// refused, and when (in virtual time) a slot is likely to free.
    Overloaded(ShardReject),
    /// The system handed to [`Runtime::serve`](crate::Runtime::serve)
    /// has no computing boards.
    NoDevices,
    /// The coprocessor rejected a task operation (registration fit,
    /// reconfiguration).
    Task(TaskError),
    /// The job repeatedly executed on boards whose configuration was
    /// later found corrupted and exhausted its retry budget (see
    /// [`GuardConfig::max_retries`](crate::GuardConfig::max_retries)).
    Faulted {
        /// Clean re-execution attempts made before giving up.
        retries: u32,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Overloaded(r) => write!(
                f,
                "admission queue full ({}/{} jobs, {:?} class refused, retry in ~{})",
                r.depth, r.capacity, r.priority, r.retry_after
            ),
            RuntimeError::NoDevices => write!(f, "system has no computing boards"),
            RuntimeError::Task(e) => write!(f, "coprocessor: {e}"),
            RuntimeError::Faulted { retries } => {
                write!(f, "job failed integrity checks after {retries} retries")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Task(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TaskError> for RuntimeError {
    fn from(e: TaskError) -> Self {
        RuntimeError::Task(e)
    }
}
