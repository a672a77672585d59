//! The threaded runtime's admission queue: a [`SchedCore`] behind a
//! mutex, plus the condvar idle workers block on.
//!
//! Capacity is a hard bound: a full queue rejects new submissions with
//! [`RuntimeError::Overloaded`] instead of growing (no OOM under
//! overload) or blocking the submitter (no convoy of stuck clients).
//! Workers block on a condvar while the queue is empty; closing the
//! queue wakes everyone, and popping keeps returning queued jobs until
//! the queue has fully drained — an accepted job is never dropped. The
//! classes, the pick and the retry-after estimate are the shared core's.

use crate::error::RuntimeError;
use crate::job::{Priority, QueuedJob};
use crate::sched::{Affinity, PickConfig, SchedCore, Schedulable};
use atlantis_apps::jobs::JobKind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

impl Schedulable for QueuedJob {
    fn priority(&self) -> Priority {
        self.request.priority
    }

    fn kind(&self) -> JobKind {
        self.request.spec.kind
    }
}

#[derive(Debug)]
pub(crate) struct JobQueue {
    core: Mutex<SchedCore<QueuedJob>>,
    not_empty: Condvar,
    /// Set once admissions stop. Written before taking the lock to
    /// notify, read under it, so no waiter misses the wakeup.
    closed: AtomicBool,
    /// Workers still draining the queue — the divisor of the
    /// retry-after estimate. Quarantine lowers it, never below one.
    workers: AtomicUsize,
}

impl JobQueue {
    pub fn new(capacity: usize, pick: PickConfig, workers: usize) -> Self {
        JobQueue {
            core: Mutex::new(SchedCore::new(capacity, pick)),
            not_empty: Condvar::new(),
            closed: AtomicBool::new(false),
            workers: AtomicUsize::new(workers.max(1)),
        }
    }

    /// Take one worker out of the drain (quarantine). Refuses, returning
    /// `false`, for the last one: the queue always keeps a server.
    pub fn retire_worker(&self) -> bool {
        self.workers
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n > 1).then(|| n - 1)
            })
            .is_ok()
    }

    /// Workers still draining the queue.
    pub fn workers(&self) -> usize {
        self.workers.load(Ordering::Relaxed)
    }

    /// Fold one completed job's wall service time into the estimate
    /// behind the retry-after hint.
    pub fn note_service(&self, service: Duration) {
        let ns = service.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.core.lock().unwrap().note_service(ns);
    }

    pub fn capacity(&self) -> usize {
        self.core.lock().unwrap().capacity()
    }

    /// Jobs currently queued (excluding in-flight work on the devices).
    pub fn len(&self) -> usize {
        self.core.lock().unwrap().len()
    }

    /// Admit a job, or reject it when the bound is reached.
    pub fn push(&self, job: QueuedJob) -> Result<(), RuntimeError> {
        let mut core = self.core.lock().unwrap();
        if self.is_closed() {
            return Err(RuntimeError::ShuttingDown);
        }
        if let Err(job) = core.push(job) {
            return Err(RuntimeError::Overloaded {
                capacity: core.capacity(),
                depth: core.len(),
                priority: job.request.priority,
                retry_after: Duration::from_nanos(core.retry_after(core.len(), self.workers())),
            });
        }
        drop(core);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Stop admissions; queued jobs still drain.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _core = self.core.lock().unwrap();
        self.not_empty.notify_all();
    }

    /// Whether admissions have stopped.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Put an accepted job back at the head of its priority class — the
    /// recovery path for work whose execution is suspect after an
    /// integrity event, and for draining a quarantined device's
    /// in-flight jobs to healthy boards. Bypasses the capacity bound
    /// (the job was already admitted) and works while the queue is
    /// closed (accepted work must still be answered).
    pub fn requeue(&self, job: QueuedJob) {
        self.core.lock().unwrap().push_front(job);
        self.not_empty.notify_all();
    }

    /// Block until a job is available, picked for a worker whose board
    /// has `affinity`. `None` once the queue is closed *and* empty — the
    /// worker should exit.
    pub fn pop(&self, affinity: &Affinity) -> Option<QueuedJob> {
        let mut core = self.core.lock().unwrap();
        loop {
            if let Some(job) = core.pick(affinity) {
                return Some(job);
            }
            if self.is_closed() {
                return None;
            }
            core = self.not_empty.wait(core).unwrap();
        }
    }

    /// Non-blocking [`JobQueue::pop`]: take a job if one is queued right
    /// now, otherwise return immediately. A pipelined worker holding
    /// in-flight jobs must never block here — blocking with admitted
    /// work in the pipeline would deadlock a client that submitted a
    /// single job and is waiting on its completion.
    pub fn try_pop(&self, affinity: &Affinity) -> Option<QueuedJob> {
        self.core.lock().unwrap().pick(affinity)
    }
}
