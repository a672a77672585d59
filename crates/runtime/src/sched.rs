//! The scheduling core of the [`ShardScheduler`](crate::ShardScheduler):
//! the bounded three-class admission queue, the reconfiguration-aware
//! pick, and the service estimate behind the `retry_after` hint.
//!
//! The pick serves the urgent-most non-empty [`Priority`] class. Within
//! it a board whose [`Affinity`] names a loaded design takes the first
//! job for that design among the first `scan_depth` entries — saving a
//! hardware task switch — unless its batch has reached `batch_window`
//! or the class head has been passed over `aging_limit` times (the
//! starvation bound). `batch_window: 0` is strict per-class FIFO.

use crate::job::Priority;
use atlantis_apps::jobs::JobKind;
use std::collections::VecDeque;

/// Parameters of the reconfiguration-aware pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickConfig {
    /// Max consecutive same-design jobs a board serves by preference;
    /// `0` is strict per-class FIFO.
    pub batch_window: usize,
    /// How far into a priority class a board may look for a job for its
    /// loaded design.
    pub scan_depth: usize,
    /// A queued job passed over this many times is served next
    /// regardless of the loaded design (starvation bound).
    pub aging_limit: u32,
}

impl Default for PickConfig {
    fn default() -> Self {
        PickConfig {
            batch_window: 32,
            scan_depth: 64,
            aging_limit: 8,
        }
    }
}

impl PickConfig {
    /// Strict per-class FIFO — the baseline the reconfiguration-aware
    /// pick is measured against.
    pub fn fifo() -> Self {
        PickConfig {
            batch_window: 0,
            ..Self::default()
        }
    }
}

/// A queued item: its class and the design it needs.
pub trait Schedulable {
    /// The item's admission class.
    fn priority(&self) -> Priority;
    /// The workload kind — and so the design — the item runs.
    fn kind(&self) -> JobKind;
}

/// What one board has loaded, as the pick sees it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Affinity {
    /// The design on the board's fabric, if any.
    pub loaded: Option<JobKind>,
    /// Consecutive jobs served on `loaded` since it was switched in.
    pub batch_len: usize,
}

impl Affinity {
    /// The design the board should prefer: the loaded one while its
    /// batch is still inside `batch_window`.
    pub fn prefer(&self, batch_window: usize) -> Option<JobKind> {
        self.loaded.filter(|_| self.batch_len < batch_window)
    }

    /// Record that the board now serves `kind`; `switched` says whether
    /// that took a hardware task switch (which starts a new batch).
    pub fn note_load(&mut self, kind: JobKind, switched: bool) {
        self.loaded = Some(kind);
        self.batch_len = if switched { 1 } else { self.batch_len + 1 };
    }
}

#[derive(Debug)]
struct Slot<T> {
    item: T,
    /// How many times a later same-design item was picked past this one.
    skips: u32,
}

/// The bounded, priority-classed queue with the reconfiguration-aware
/// pick — see the module docs.
#[derive(Debug)]
pub struct SchedCore<T> {
    classes: [VecDeque<Slot<T>>; Priority::CLASSES],
    capacity: usize,
    pick: PickConfig,
    /// Per-item service time EWMA in the driver's unit (0 = no sample).
    service_ewma: u64,
}

impl<T: Schedulable> SchedCore<T> {
    /// An empty core admitting at most `capacity` items (zero is clamped
    /// to one: a queue that can never admit serves nothing).
    pub fn new(capacity: usize, pick: PickConfig) -> Self {
        SchedCore {
            classes: Default::default(),
            capacity: capacity.max(1),
            pick,
            service_ewma: 0,
        }
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items queued.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Admit `item` at the back of its class, or hand it back when the
    /// bound is reached.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.len() >= self.capacity {
            return Err(item);
        }
        self.classes[item.priority().index()].push_back(Slot { item, skips: 0 });
        Ok(())
    }

    /// Put an already-admitted item back at the head of its class — the
    /// requeue path. Bypasses the bound: the item was admitted once.
    pub fn push_front(&mut self, item: T) {
        self.classes[item.priority().index()].push_front(Slot { item, skips: 0 });
    }

    /// The item a FIFO pick would serve next: the urgent-most class head.
    pub fn head(&self) -> Option<&T> {
        self.classes.iter().find_map(|c| c.front()).map(|s| &s.item)
    }

    /// Where [`pick`](Self::pick) would take from: `(class, position)`.
    fn choice(&self, affinity: &Affinity) -> Option<(usize, usize)> {
        let pick = self.pick;
        let ci = self.classes.iter().position(|c| !c.is_empty())?;
        let class = &self.classes[ci];
        if let Some(kind) = affinity.prefer(pick.batch_window) {
            let head_aged = class.front().is_some_and(|s| s.skips >= pick.aging_limit);
            if !head_aged {
                let j = class
                    .iter()
                    .take(pick.scan_depth)
                    .position(|s| s.item.kind() == kind);
                if let Some(j) = j {
                    return Some((ci, j));
                }
            }
        }
        Some((ci, 0))
    }

    /// The item [`pick`](Self::pick) would take for a board with
    /// `affinity`, left in place.
    pub(crate) fn peek(&self, affinity: &Affinity) -> Option<&T> {
        self.choice(affinity).map(|(c, j)| &self.classes[c][j].item)
    }

    /// Take the next item for a board with `affinity` — see the module
    /// docs for the rule. `None` when the queue is empty.
    pub fn pick(&mut self, affinity: &Affinity) -> Option<T> {
        let (ci, j) = self.choice(affinity)?;
        let class = &mut self.classes[ci];
        for s in class.iter_mut().take(j) {
            s.skips += 1;
        }
        class.remove(j).map(|s| s.item)
    }

    /// Every queued item, urgent-most class first and oldest first within
    /// a class — the order a pick without affinity serves them in.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.classes
            .iter_mut()
            .flat_map(|c| c.iter_mut().map(|s| &mut s.item))
    }

    /// Every queued item, least-urgent class first and newest first
    /// within a class — the order a work stealer takes them in.
    pub fn iter_newest(&self) -> impl Iterator<Item = &T> {
        self.classes
            .iter()
            .rev()
            .flat_map(|c| c.iter().rev().map(|s| &s.item))
    }

    /// Remove up to `max` items matching `pred`, in
    /// [`iter_newest`](Self::iter_newest) order.
    pub fn take_newest(&mut self, max: usize, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut out = Vec::new();
        for class in self.classes.iter_mut().rev() {
            let mut i = class.len();
            while i > 0 && out.len() < max {
                i -= 1;
                if pred(&class[i].item) {
                    out.push(class.remove(i).expect("index in range").item);
                }
            }
        }
        out
    }

    /// Fold one completed item's service time into the EWMA (weight 1/4
    /// on the new sample — quick to warm up, stable under bursts).
    pub fn note_service(&mut self, sample: u64) {
        let prev = self.service_ewma;
        self.service_ewma = if prev == 0 {
            sample
        } else {
            prev - prev / 4 + sample / 4
        };
    }

    /// The calibrated per-item service time (zero until the first
    /// sample).
    pub fn service_ewma(&self) -> u64 {
        self.service_ewma
    }

    /// Estimated time until `depth` queued items free one slot, drained
    /// by `servers` boards: service EWMA × depth ÷ servers.
    pub fn retry_after(&self, depth: usize, servers: usize) -> u64 {
        self.service_ewma.saturating_mul(depth as u64) / servers.max(1) as u64
    }
}
