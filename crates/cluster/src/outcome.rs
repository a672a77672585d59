//! The look-ahead outcome stage of [`Cluster::run_open_loop`]: software
//! execution taken off the serving thread.
//!
//! A job's outcome (checksum, cycles, compute time) is a pure function of
//! its [`JobSpec`] — the contract `atlantis_apps::jobs` states. So the
//! outcome of an arrival the virtual clock has not reached yet can be
//! computed ahead of time on another host core and attached when the job
//! is admitted
//! ([`submit_with_outcome`](atlantis_runtime::ShardScheduler::submit_with_outcome)).
//! The virtual-time shards are the timing model, a small pool of threads
//! is the functional model, and a bounded window of upcoming arrivals is
//! the quantum that couples them. Virtual time, every `ShardStats` and
//! [`ClusterStats`](crate::ClusterStats) counter, fingerprints and
//! completion records cannot change; only host time moves.
//!
//! How the two sides share the window:
//!
//! * **Consume at admission.** The serving thread settles an arrival's
//!   slot only after the admission decision. A shed job never costs it an
//!   execute, and an admitted job that queues carries its outcome.
//! * **No lockstep.** Pool threads claim the *far* end of the window (the
//!   highest open slot); the serving thread settles its own slot, the
//!   nearest one: a done slot hands over its outcome, an open slot leaves
//!   the outcome to the shard (computed on this thread at the job's start,
//!   exactly as without the stage), and a slot a pool thread holds is
//!   waited for. The two ends meet rarely, so the serving thread seldom
//!   waits.
//! * **Speculate only while outcomes are used.** Pool threads compute
//!   only while every arrival in the trailing window wanted its outcome:
//!   nothing was shed and nothing was routed to a laned shard. Under
//!   overload, where most arrivals are shed, the pool sleeps instead of
//!   burning host cores on outcomes that would be thrown away.
//! * **Cheap on the serving thread.** It refills the window in batches
//!   and takes one lock per arrival; it wakes the pool only when a thread
//!   sleeps *and* speculation is on.
//!
//! The pool has [`pool_size`] threads: one per host core beyond the
//! serving thread's, at most [`MAX_POOL`]. With one core there is no pool
//! and `run_open_loop` is the plain serving loop. The threads are scoped
//! to one `run_open_loop` call. Shards with `lanes > 1` keep their own
//! laned gather and never receive a stage outcome, so their lane counters
//! stay deterministic.
//!
//! [`Cluster::run_open_loop`]: crate::Cluster::run_open_loop

use crate::loadgen::Arrival;
use atlantis_apps::jobs::{JobOutcome, JobSpec, WorkloadContext};
use std::iter::Fuse;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Most pool threads one run starts. Each costs peak memory (a stack, a
/// malloc arena, a [`WorkloadContext`]), and with execute off its path
/// the serving thread's own scheduling work soon bounds a run: on
/// `cluster_steady` execute is ~0.9 of the plain loop's host time, so
/// even an unbounded pool could save at most that share. Only one pool
/// thread (a 2-core host) has been measured.
const MAX_POOL: usize = 3;

/// Upcoming arrivals the window holds.
const WINDOW: usize = 256;

/// Arrivals the serving thread adds per refill.
const REFILL: usize = 64;

/// Arrivals that must all have wanted their outcome before the pool
/// speculates again.
const TRAIL: u64 = WINDOW as u64;

/// Outcome pool threads for this host: available parallelism minus the
/// serving thread, at most [`MAX_POOL`].
pub(crate) fn pool_size() -> usize {
    std::thread::available_parallelism()
        .map_or(0, |n| n.get() - 1)
        .min(MAX_POOL)
}

/// Host-side counters of the outcome stage. They depend on host timing
/// (how far the pool got before the serving thread caught up), so they
/// are kept out of [`Cluster::fingerprint`](crate::Cluster::fingerprint)
/// and every deterministic stat.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeStats {
    /// Outcomes the pool computed.
    pub computed: u64,
    /// Pool outcomes attached to an admitted job.
    pub consumed: u64,
    /// Pool outcomes thrown away: the arrival was shed or routed to a
    /// laned shard.
    pub dropped: u64,
}

impl OutcomeStats {
    /// Fold another run's counters in.
    pub(crate) fn add(&mut self, o: OutcomeStats) {
        self.computed += o.computed;
        self.consumed += o.consumed;
        self.dropped += o.dropped;
    }
}

/// One upcoming arrival's outcome.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Nobody has started it.
    Open(JobSpec),
    /// A pool thread is computing it.
    Claimed,
    /// Computed by the pool.
    Done(JobOutcome),
}

/// The slot of arrival `index` in a [`WINDOW`]-long ring.
fn ring(index: u64) -> usize {
    (index % WINDOW as u64) as usize
}

/// The window both sides share: from the serving thread's current
/// arrival on, each arrival in its [`ring`] slot. The rings are fixed
/// arrays, so a run allocates nothing for them.
#[derive(Debug)]
struct Window {
    /// The serving thread's current arrival.
    base: u64,
    slots: [Slot; WINDOW],
    /// Every slot at or above this arrival index is claimed or done;
    /// pool threads scan down from here for the next open slot.
    top: u64,
    /// Whether pool threads may claim.
    speculate: bool,
    /// Pool threads asleep on [`Shared::work`].
    idle: usize,
    /// The serving thread sleeps on [`Shared::ready`] for slot `base`.
    waiting: bool,
    /// The run is over: pool threads exit.
    closed: bool,
    /// A pool thread panicked.
    broken: bool,
    stats: OutcomeStats,
}

impl Window {
    /// The highest open slot, claimed — `None` when nothing is open or
    /// speculation is off.
    fn claim(&mut self) -> Option<(u64, JobSpec)> {
        if !self.speculate {
            return None;
        }
        while self.top > self.base {
            self.top -= 1;
            let slot = &mut self.slots[ring(self.top)];
            if let Slot::Open(spec) = *slot {
                *slot = Slot::Claimed;
                return Some((self.top, spec));
            }
        }
        None
    }

    /// Store the pool's outcome for arrival `index`; it is dropped if the
    /// serving thread has already passed that arrival.
    fn store(&mut self, index: u64, outcome: JobOutcome) {
        self.stats.computed += 1;
        if index >= self.base {
            self.slots[ring(index)] = Slot::Done(outcome);
        } else {
            self.stats.dropped += 1;
        }
    }
}

#[derive(Debug)]
struct Shared {
    window: Mutex<Window>,
    /// Pool threads wait here for open slots.
    work: Condvar,
    /// The serving thread waits here for a claimed slot.
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Window> {
        // Nothing panics while holding the lock; a pool thread that
        // panics elsewhere marks the window broken instead.
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A pool thread: claim the highest open slot, compute it without the
    /// lock, store it and claim the next under one lock, sleep when there
    /// is nothing to claim.
    fn work(&self) {
        let _mark = BreakOnPanic(self);
        let mut ctx = WorkloadContext::new();
        let mut w = self.lock();
        loop {
            if w.closed {
                return;
            }
            match w.claim() {
                Some((index, spec)) => {
                    drop(w);
                    let outcome = ctx.execute(&spec);
                    w = self.lock();
                    w.store(index, outcome);
                    if w.waiting && index == w.base {
                        self.ready.notify_one();
                    }
                }
                None => {
                    w.idle += 1;
                    w = self.work.wait(w).unwrap_or_else(PoisonError::into_inner);
                    w.idle -= 1;
                }
            }
        }
    }
}

/// Marks the window broken when a pool thread unwinds, so a serving
/// thread waiting for that thread's slot panics instead of hanging.
struct BreakOnPanic<'a>(&'a Shared);

impl Drop for BreakOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().broken = true;
            self.0.ready.notify_all();
        }
    }
}

/// Ends the run when the serving side finishes (or unwinds): pool threads
/// wake and exit, so the enclosing scope can join them.
struct CloseOnDrop<'a>(&'a Shared);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().closed = true;
        self.0.work.notify_all();
    }
}

/// The serving thread's side of the stage: upcoming arrivals in order,
/// and the outcome of the current one.
pub(crate) struct Feed<'a, I: Iterator<Item = Arrival>> {
    shared: &'a Shared,
    arrivals: Fuse<I>,
    /// Arrivals `next_index..end`, each in its [`ring`] slot.
    ahead: [Option<Arrival>; WINDOW],
    /// Index of the next arrival [`next`](Self::next) returns.
    next_index: u64,
    /// One past the last arrival read from `arrivals`.
    end: u64,
    /// The latest arrival that did not want its outcome.
    last_unwanted: Option<u64>,
}

impl<I: Iterator<Item = Arrival>> Feed<'_, I> {
    /// Read arrivals until the window holds [`WINDOW`] from `from` on (or
    /// the stream ends). Returns whether any were read.
    fn fill(&mut self, from: u64) -> bool {
        let before = self.end;
        while self.end < from + WINDOW as u64 {
            let Some(a) = self.arrivals.next() else { break };
            self.ahead[ring(self.end)] = Some(a);
            self.end += 1;
        }
        self.end > before
    }

    /// Open the window's slots for arrivals `from..end`, just read.
    fn publish(&self, w: &mut Window, from: u64) {
        for i in from..self.end {
            let spec = self.ahead[ring(i)].expect("read and not yet served").spec;
            w.slots[ring(i)] = Slot::Open(spec);
        }
        w.top = self.end;
    }

    /// The next arrival, or `None` when the stream is over. Each returned
    /// arrival must be [`settle`](Self::settle)d before the next call.
    pub(crate) fn next(&mut self) -> Option<Arrival> {
        let a = self.ahead[ring(self.next_index)].take()?;
        self.next_index += 1;
        Some(a)
    }

    /// Settle the current arrival's slot. With `wanted` (the job was
    /// admitted to a shard that takes outcomes), return the pool's
    /// outcome — waiting if a pool thread is computing it — or `None`
    /// when nobody has started it; the shard then computes it. Without,
    /// drop whatever the pool made of it. Also refills the window when
    /// it runs low and steers speculation, all under one lock.
    pub(crate) fn settle(&mut self, wanted: bool) -> Option<JobOutcome> {
        let index = self.next_index - 1;
        if !wanted {
            self.last_unwanted = Some(index);
        }
        let speculate = self.last_unwanted.is_none_or(|j| index - j >= TRAIL);
        let fresh = self.end;
        let grew =
            self.end - self.next_index <= (WINDOW - REFILL) as u64 && self.fill(self.next_index);

        let mut w = self.shared.lock();
        debug_assert_eq!(w.base, index, "settled out of order");
        let outcome = loop {
            match w.slots[ring(index)] {
                Slot::Claimed if wanted => {
                    assert!(!w.broken, "an outcome pool thread panicked");
                    w.waiting = true;
                    w = self
                        .shared
                        .ready
                        .wait(w)
                        .unwrap_or_else(PoisonError::into_inner);
                    w.waiting = false;
                }
                Slot::Done(outcome) => {
                    if wanted {
                        w.stats.consumed += 1;
                        break Some(outcome);
                    }
                    w.stats.dropped += 1;
                    break None;
                }
                // Open, or claimed but unwanted (the pool's result is
                // dropped when it lands).
                _ => break None,
            }
        };
        w.base += 1;
        if grew {
            self.publish(&mut w, fresh);
        }
        let woke = speculate && !w.speculate;
        w.speculate = speculate;
        if speculate && (grew || woke) && w.idle > 0 {
            self.shared.work.notify_all();
        }
        outcome
    }
}

/// Run `serve` over `arrivals` with `pool` outcome threads computing
/// ahead of it (`pool > 0`). Returns `serve`'s result and the stage's
/// counters.
pub(crate) fn run<I, R>(
    pool: usize,
    arrivals: I,
    serve: impl FnOnce(&mut Feed<'_, I::IntoIter>) -> R,
) -> (R, OutcomeStats)
where
    I: IntoIterator<Item = Arrival>,
{
    let shared = Shared {
        window: Mutex::new(Window {
            base: 0,
            slots: [Slot::Claimed; WINDOW],
            top: 0,
            speculate: true,
            idle: 0,
            waiting: false,
            closed: false,
            broken: false,
            stats: OutcomeStats::default(),
        }),
        work: Condvar::new(),
        ready: Condvar::new(),
    };
    let mut feed = Feed {
        shared: &shared,
        arrivals: arrivals.into_iter().fuse(),
        ahead: [None; WINDOW],
        next_index: 0,
        end: 0,
        last_unwanted: None,
    };
    feed.fill(0);
    feed.publish(&mut shared.lock(), 0);
    let out = std::thread::scope(|s| {
        for _ in 0..pool {
            s.spawn(|| shared.work());
        }
        let _close = CloseOnDrop(&shared);
        serve(&mut feed)
    });
    let stats = shared.lock().stats;
    (out, stats)
}

#[cfg(test)]
mod tests {
    use crate::{
        Cluster, ClusterCompletion, ClusterConfig, LoadGen, LoadGenConfig, StealConfig,
        StealingPolicy,
    };
    use atlantis_runtime::ShardConfig;

    /// Nominal capacity of 8 warm ORCA boards, jobs per virtual second.
    const FLEET_CAPACITY: f64 = 35_125.0 * 8.0;

    fn fleet(shards: usize, boards: usize) -> ClusterConfig {
        ClusterConfig {
            shards,
            shard: ShardConfig {
                boards,
                queue_capacity: 32,
                ..ShardConfig::default()
            },
            stealing: StealingPolicy::Enabled(StealConfig::default()),
            ..ClusterConfig::default()
        }
    }

    fn arrivals(load: f64) -> LoadGen {
        LoadGen::new(LoadGenConfig {
            seed: 3,
            rate: load * FLEET_CAPACITY,
            jobs: 700,
            ..LoadGenConfig::default()
        })
    }

    /// The fingerprint and every completion record, in retirement order.
    fn record(c: &Cluster, fins: &[ClusterCompletion]) -> (String, String) {
        (c.fingerprint(), format!("{fins:?}"))
    }

    /// The reference: the public `advance`/`offer`/`drain` calls, driven
    /// by hand.
    fn by_hand(cfg: &ClusterConfig, load: f64) -> (String, String) {
        let mut c = Cluster::new(cfg.clone()).unwrap();
        let mut fins = Vec::new();
        for a in arrivals(load) {
            fins.extend(c.advance(a.at));
            let _ = c.offer(a.at, a.tenant, a.priority, a.spec);
        }
        fins.extend(c.drain());
        record(&c, &fins)
    }

    #[test]
    fn pooled_runs_replay_the_hand_driven_loop() {
        let mut laned = fleet(2, 2);
        laned.shard_overrides = vec![(
            1,
            ShardConfig {
                boards: 2,
                queue_capacity: 64,
                lanes: 8,
                ..ShardConfig::default()
            },
        )];
        let cases = [
            ("4x2 at 0.5x", fleet(4, 2), 0.5),
            ("4x2 at 1.0x", fleet(4, 2), 1.0),
            ("1x8 at 0.125x", fleet(1, 8), 0.125),
            ("laned shard beside a scalar one", laned, 0.5),
        ];
        for (name, cfg, load) in cases {
            let want = by_hand(&cfg, load);
            for pool in [0, 1, 3] {
                let mut c = Cluster::new(cfg.clone()).unwrap();
                let fins = c.run_open_loop_pooled(arrivals(load), pool);
                assert!(want == record(&c, &fins), "{name}, pool {pool}: diverged");
                let o = c.outcome_stats();
                assert_eq!(o.computed, o.consumed + o.dropped, "{name}, pool {pool}");
                if pool == 0 {
                    assert_eq!(o, super::OutcomeStats::default());
                }
            }
        }
    }
}
