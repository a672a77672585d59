//! The serving engine: one simulated host on a discrete-event virtual
//! clock. It is the only serving loop in the workspace — the cluster
//! embeds one [`ShardScheduler`] per host, and [`Runtime`](crate::Runtime)
//! is a blocking front over one.
//!
//! A shard drives its boards from one [`SchedCore`] — the bounded
//! three-class admission queue, the reconfiguration-aware pick (bounded
//! look-ahead, bounded batch window, bounded skip aging) and the service
//! estimate behind `retry_after` — plus per-board
//! [`Coprocessor`] hardware task switching against the shared
//! [`BitstreamCache`], and [`WorkloadContext`] execution for bit-exact
//! outcomes. What stays shard-side is the clock, idle-board placement
//! and the steal helpers, which read the core's queue.
//!
//! How payloads reach a board is fixed by how the shard is built:
//!
//! * [`ShardScheduler::new`] — ACB+AIB board pairs on the shard's own
//!   [`Aab`] backplane; payload in and result out stream over each
//!   pair's connection (the paper's §2.3 topology).
//! * [`ShardScheduler::host`] — the ACBs of an [`AtlantisSystem`];
//!   payload and result stream through each board's PLX9080 (Table 1)
//!   out of and into one reused host buffer per board.
//!
//! How a board's time is charged is the configured [`Beat`]:
//!
//! * **Serial** — each job end to end: payload in, a hardware task
//!   switch when the design is not loaded, execute, result out. The
//!   board is occupied for the sum.
//! * **Pipelined** — a three-stage pipeline over the ping/pong halves of
//!   the board's job slots: while job *N* executes, job *N+1*'s payload
//!   streams in on DMA channel 0 and job *N−1*'s result streams out on
//!   channel 1, and each beat is charged the
//!   [overlap window](OverlapConfig::window) of the three stage times.
//!   The pipeline only holds jobs for the loaded design: a job that
//!   needs a switch waits on its board while the pipeline drains, and
//!   the reconfiguration is charged serially (the fabric is being
//!   rewritten). On the backplane both directions share the pair's one
//!   connection, so there a prefetch queues behind the writeback.
//!
//! With `lanes > 1`, a board that picks a TRT job whose outcome is not
//! yet known computes it together with up to `lanes − 1` queued TRT jobs
//! in one laned [`WorkloadContext::execute_batch`] pass and caches each
//! outcome on its queue entry. Outcomes are pure functions of the spec
//! and scheduling never looks at them, so lanes change host time only.
//! For the same reason a caller may attach a job's outcome at admission
//! ([`ShardScheduler::submit_with_outcome`]); a steal carries it along.
//!
//! With the guard active ([`GuardConfig`]), upsets arrive on each
//! board's busy clock, every beat runs the detection ladder, jobs in
//! flight at a detection are requeued under a bounded retry budget, and
//! a board that keeps failing is quarantined through
//! [`ShardScheduler::quarantine_board`] — the same quarantine the
//! cluster's degradation plan uses.
//!
//! `submit` admits (or sheds) at a virtual instant, `advance` retires
//! board events up to an instant and back-fills freed boards in
//! deterministic `(time, board index)` order. Two runs over the same
//! submission sequence produce identical completions, identical
//! histograms, identical everything — the property the cluster layer's
//! determinism fingerprints and the guard's replay test assert.

use crate::cache::BitstreamCache;
use crate::error::RuntimeError;
use crate::guard::{GuardConfig, GuardState};
use crate::job::Priority;
use crate::sched::{Affinity, PickConfig, SchedCore, Schedulable};
use crate::stats::ShardStats;
use atlantis_apps::jobs::{JobKind, JobOutcome, JobSpec, WorkloadContext};
use atlantis_backplane::{Aab, BackplaneKind, ConnectionId};
use atlantis_board::{Acb, SlotHalf};
use atlantis_core::coprocessor::TaskError;
use atlantis_core::{AtlantisSystem, Coprocessor};
use atlantis_fabric::Device;
use atlantis_pci::{DmaChannel, DmaDirection, Driver, OverlapConfig};
use atlantis_simcore::{SimDuration, SimTime};
use std::sync::Arc;

/// The reconfigurable fabric family a shard's boards are built from.
///
/// The paper's machine is heterogeneous by construction: the ACB carries
/// a 2×2 matrix of ORCA 3T125s while the AIB pairs Virtex XCV600s
/// (§2.1–2.2). A cluster grown board-by-board inherits that mix, and the
/// two families differ in exactly the two costs the scheduler trades:
/// the design clock (ORCA programmable to 80 MHz, Virtex to 100 MHz —
/// the substitution table's service-rate ratio) and the design-switch
/// cost (the paired-Virtex board streams twice an XCV600's frames
/// through its 33 MHz port, so a full load is ~57 ms against the
/// ORCA's ~37 ms: faster service, dearer reconfiguration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FabricKind {
    /// Lucent ORCA 3T125 boards (the ACB family) — the baseline.
    #[default]
    Orca,
    /// Paired Xilinx Virtex XCV600 boards (the AIB family): 100/80
    /// design clock, double capacity, double configuration stream.
    Virtex,
}

impl FabricKind {
    /// The capacity model of this fabric family.
    pub fn device(self) -> Device {
        match self {
            FabricKind::Orca => Device::orca_3t125(),
            FabricKind::Virtex => Device::virtex_aib_pair(),
        }
    }

    /// Scale a baseline (ORCA-clock) execution time to this fabric:
    /// identical cycle counts retire faster on a faster design clock.
    /// ORCA is the identity, so homogeneous fleets are byte-for-byte
    /// unchanged.
    pub fn scale_execute(self, d: SimDuration) -> SimDuration {
        match self {
            FabricKind::Orca => d,
            // 80 MHz -> 100 MHz: same cycles in 4/5 the time.
            FabricKind::Virtex => SimDuration::from_picos(d.as_picos() * 4 / 5),
        }
    }
}

/// How a board's time is charged — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Beat {
    /// Each job end to end: the board is occupied for the sum of its
    /// stages.
    #[default]
    Serial,
    /// The three-stage DMA/compute pipeline; each beat is charged the
    /// overlap window of its stages under this timing model.
    Pipelined(OverlapConfig),
}

/// Tunables for one simulated shard host.
#[derive(Debug, Clone, Copy)]
pub struct ShardConfig {
    /// Boards on the shard. A host-built shard takes its boards from the
    /// system and ignores this.
    pub boards: usize,
    /// The fabric family of every board on this shard. Heterogeneous
    /// *clusters* mix shards of different kinds; one shard is uniform.
    pub fabric: FabricKind,
    /// Hard bound on queued (not yet running) jobs (zero is clamped to
    /// one).
    pub queue_capacity: usize,
    /// The reconfiguration-aware pick; [`PickConfig::fifo`] is strict
    /// per-class FIFO.
    pub pick: PickConfig,
    /// How a board's time is charged: [`Beat::Serial`] or the pipelined
    /// beat.
    pub pipeline: Beat,
    /// Max TRT jobs one laned execute pass computes (`1` disables
    /// gathering). Changes host time only — see the module docs.
    pub lanes: usize,
    /// Reliability policy: fault injection, the detection ladder, retry
    /// and quarantine. [`GuardConfig::disabled`] injects and checks
    /// nothing.
    pub guard: GuardConfig,
}

impl Default for ShardConfig {
    /// The cluster shape: two serial-beat ORCA boards, a 64-job queue,
    /// no lanes, no guard.
    fn default() -> Self {
        ShardConfig {
            boards: 2,
            fabric: FabricKind::Orca,
            queue_capacity: 64,
            pick: PickConfig::default(),
            pipeline: Beat::Serial,
            lanes: 1,
            guard: GuardConfig::disabled(),
        }
    }
}

impl ShardConfig {
    /// The host serving shape [`Runtime::serve`](crate::Runtime::serve)
    /// is built for: the pipelined beat under the default overlap model,
    /// 8 lanes and a 256-job queue.
    pub fn host() -> Self {
        ShardConfig {
            queue_capacity: 256,
            pipeline: Beat::Pipelined(OverlapConfig::default()),
            lanes: 8,
            ..Self::default()
        }
    }
}

/// One job submitted to a shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardJob {
    /// Caller-assigned id, echoed into the completion.
    pub id: u64,
    /// The tenant the job belongs to.
    pub tenant: u32,
    /// Admission priority class.
    pub priority: Priority,
    /// The deterministic work description.
    pub spec: JobSpec,
}

/// Why a shard refused a job: the queue depth, the refused class and a
/// virtual retry-after hint. [`RuntimeError::Overloaded`] carries it to
/// [`Runtime`](crate::Runtime) callers.
#[derive(Debug, Clone, Copy)]
pub struct ShardReject {
    /// The queue capacity that was exhausted.
    pub capacity: usize,
    /// Jobs queued at the moment of rejection.
    pub depth: usize,
    /// The refused job's priority class.
    pub priority: Priority,
    /// Estimated virtual time until a queue slot frees: per-job service
    /// EWMA × depth ÷ active boards. Zero until the first completion.
    pub retry_after: SimDuration,
}

/// One retired job with its full virtual-time decomposition.
#[derive(Debug, Clone, Copy)]
pub struct ShardCompletion {
    /// Caller-assigned id.
    pub id: u64,
    /// The tenant the job belonged to.
    pub tenant: u32,
    /// Admission priority class.
    pub priority: Priority,
    /// The work that was done.
    pub spec: JobSpec,
    /// The shard-local board that served the job.
    pub board: usize,
    /// Deterministic digest of the job's output.
    pub checksum: u64,
    /// FPGA cycles consumed.
    pub cycles: u64,
    /// When the job was admitted.
    pub submitted: SimTime,
    /// When a board picked it up.
    pub started: SimTime,
    /// When the job retired: its result streamed out (and, with the
    /// guard active, passed the detection ladder).
    pub done: SimTime,
    /// Virtual payload-in + result-out time.
    pub dma: SimDuration,
    /// Virtual reconfiguration time (zero on an affinity hit).
    pub reconfig: SimDuration,
    /// Virtual execution time at the design clock.
    pub execute: SimDuration,
    /// Whether serving required a hardware task switch. `false` is a
    /// *shard cache hit*: the design was already on the board's fabric —
    /// the affinity the cluster router exists to exploit.
    pub switched: bool,
    /// The guard gave up on the job after its retry budget: checksum,
    /// cycles and timings are zero and the job has no result.
    pub faulted: bool,
}

impl ShardCompletion {
    /// Queue wait: admission → pickup.
    pub fn queue_wait(&self) -> SimDuration {
        self.started.since(self.submitted)
    }

    /// End-to-end virtual latency: admission → result out.
    pub fn latency(&self) -> SimDuration {
        self.done.since(self.submitted)
    }

    /// Virtual stage time attributed to the job. On the serial beat
    /// without the guard this is exactly `done − started`; a pipelined
    /// job shares its beats with its neighbours.
    pub fn service(&self) -> SimDuration {
        self.dma + self.reconfig + self.execute
    }
}

/// How payloads reach a board and results leave it.
#[derive(Debug)]
enum Link {
    /// The pair's full-width connection on the shard's backplane.
    Aab(ConnectionId),
    /// Host PCI through the board's PLX9080, staging through one reused
    /// host buffer; `seq` rotates the board's job slots.
    Pci {
        driver: Box<Driver<Acb>>,
        buf: Vec<u8>,
        seq: usize,
    },
}

impl Link {
    /// The local address of the board's next job slot: whole slots for
    /// the serial beat, alternating ping/pong halves for the pipeline
    /// (the rotation spans ≥ 4 halves, so a prefetch never overwrites a
    /// payload still executing or a result awaiting writeback). The
    /// backplane path has no local addresses.
    fn next_slot(&mut self, halves: bool) -> u64 {
        let Link::Pci { driver, seq, .. } = self else {
            return 0;
        };
        let acb = driver.target();
        let i = *seq;
        *seq = seq.wrapping_add(1);
        if halves {
            let i = i % (2 * acb.job_slots());
            let half = if i.is_multiple_of(2) {
                SlotHalf::Ping
            } else {
                SlotHalf::Pong
            };
            acb.job_slot_half_addr(i / 2, half)
        } else {
            acb.job_slot_addr(i % acb.job_slots())
        }
        .expect("slot index in range")
    }
}

/// A job on a board: its computed outcome and the stage time charged to
/// it so far.
#[derive(Debug)]
struct Stage {
    entry: ShardEntry,
    started: SimTime,
    checksum: u64,
    cycles: u64,
    execute: SimDuration,
    reconfig: SimDuration,
    switched: bool,
    /// The job slot its payload and result use.
    addr: u64,
    dma_in: SimDuration,
    /// Ground truth: it executed on a corrupt configuration. Only the
    /// `silent_corruptions` counter reads it — never the detectors.
    corrupt: bool,
}

impl Stage {
    fn completion(self, board: usize, dma_out: SimDuration) -> ShardCompletion {
        let job = self.entry.job;
        ShardCompletion {
            id: job.id,
            tenant: job.tenant,
            priority: job.priority,
            spec: job.spec,
            board,
            checksum: self.checksum,
            cycles: self.cycles,
            submitted: self.entry.submitted,
            started: self.started,
            // Set when the board's occupancy closes.
            done: self.started,
            dma: self.dma_in + dma_out,
            reconfig: self.reconfig,
            execute: self.execute,
            switched: self.switched,
            faulted: false,
        }
    }
}

/// One board: its coprocessor, its DMA path and its serving state.
#[derive(Debug)]
struct Board {
    coproc: Coprocessor,
    link: Link,
    /// The design on the fabric and its batch length, as the pick sees
    /// them.
    affinity: Affinity,
    free_at: SimTime,
    /// A beat (serial: a job) ends at `free_at`.
    busy: bool,
    /// Jobs retiring at `free_at`.
    done: Vec<ShardCompletion>,
    /// Suspect jobs handed back to the queue at `free_at`.
    requeue: Vec<ShardEntry>,
    /// Pipelined beat: payload on the board, executes next beat.
    staged: Option<Stage>,
    /// Pipelined beat: executed, result awaiting writeback.
    executed: Option<Stage>,
    /// Pipelined beat: the next pick needs another design, so the board
    /// is draining its pipeline before switching.
    draining: bool,
    quarantined: bool,
    guard: GuardState,
}

impl Board {
    /// Whether the board can start a beat at `t`.
    fn idle(&self, t: SimTime) -> bool {
        !self.quarantined && !self.busy && self.free_at <= t
    }

    /// Whether the board holds pipelined work of its own to move.
    fn has_work(&self) -> bool {
        self.staged.is_some() || self.executed.is_some()
    }

    /// Jobs the board holds outside the queue.
    fn holds(&self) -> usize {
        self.done.len()
            + self.requeue.len()
            + usize::from(self.staged.is_some())
            + usize::from(self.executed.is_some())
    }
}

#[derive(Debug)]
struct ShardEntry {
    job: ShardJob,
    submitted: SimTime,
    /// When the job's payload is resident on this host. `SimTime::ZERO`
    /// for locally admitted work; stolen jobs carry the instant their
    /// cross-shard hop transfer lands, and a board that picks one up
    /// earlier waits for the data (charged as DMA time).
    ready_at: SimTime,
    /// The outcome, once known: attached at admission or carried by a
    /// steal, or cached by the first pass that computed it.
    outcome: Option<JobOutcome>,
    /// Times the guard has requeued the job.
    retries: u32,
}

impl ShardEntry {
    fn new(
        job: ShardJob,
        submitted: SimTime,
        ready_at: SimTime,
        outcome: Option<JobOutcome>,
    ) -> Self {
        ShardEntry {
            job,
            submitted,
            ready_at,
            outcome,
            retries: 0,
        }
    }
}

impl Schedulable for ShardEntry {
    fn priority(&self) -> Priority {
        self.job.priority
    }

    fn kind(&self) -> JobKind {
        self.job.spec.kind
    }
}

/// A job lifted out of a donor shard's queue by the cluster's work
/// stealer: the job plus its original admission instant, preserved so
/// end-to-end latency keeps counting the time spent in the donor queue,
/// and its outcome when the donor already knew it, so the thief does
/// not compute it again.
#[derive(Debug, Clone, Copy)]
pub struct StolenJob {
    /// The queued job, unchanged.
    pub job: ShardJob,
    /// When the donor admitted it.
    pub submitted: SimTime,
    /// The job's outcome, if the donor had it.
    pub outcome: Option<JobOutcome>,
}

/// One simulated shard host — see the module docs.
#[derive(Debug)]
pub struct ShardScheduler {
    cfg: ShardConfig,
    boards: Vec<Board>,
    aab: Aab,
    /// Reserved full-width connection for cluster-level payload hops
    /// (work stealing): slots `2·boards` and `2·boards + 1`. Idle unless
    /// the cluster steals, so it never perturbs board-pair transfers.
    hop_conn: ConnectionId,
    /// The admission queue, pick and service estimate (virtual
    /// picoseconds).
    core: SchedCore<ShardEntry>,
    cache: Arc<BitstreamCache>,
    ctx: WorkloadContext,
    stats: ShardStats,
    /// Full configuration time of this shard's fabric — the breakeven
    /// fallback before any task switch has been measured.
    full_config: SimDuration,
}

impl ShardScheduler {
    /// Build a shard: `cfg.boards` ACB+AIB pairs on a fresh backplane
    /// (ACB in slot `2i`, its AIB in slot `2i+1`, one full-width
    /// connection each — the §2.3 pairing that yields 1 GB/s per pair).
    /// `cache` is the cluster-wide fitted-bitstream cache; call
    /// [`BitstreamCache::prefit_all`] once before sharing it.
    pub fn new(cfg: ShardConfig, cache: Arc<BitstreamCache>) -> Result<Self, RuntimeError> {
        Self::build(cfg, cache, Vec::new())
    }

    /// Build a host shard over `system`'s ACBs: one board per ACB
    /// (`cfg.boards` is replaced by their count), each streaming
    /// payloads and results through its own PLX9080 driver. Every
    /// workload design is fitted for `cfg.fabric` up front.
    ///
    /// Fails with [`RuntimeError::NoDevices`] when the system has no
    /// ACBs, and propagates fitter errors.
    pub fn host(cfg: ShardConfig, system: AtlantisSystem) -> Result<Self, RuntimeError> {
        let (_host, acbs, _aibs) = system.into_boards();
        if acbs.is_empty() {
            return Err(RuntimeError::NoDevices);
        }
        let cache = Arc::new(BitstreamCache::new(cfg.fabric.device()));
        cache.prefit_all().map_err(TaskError::Fit)?;
        let boards = acbs.len();
        Self::build(ShardConfig { boards, ..cfg }, cache, acbs)
    }

    /// Boards `0..drivers.len()` stream over their PCI driver, the rest
    /// over a backplane pair connection.
    fn build(
        cfg: ShardConfig,
        cache: Arc<BitstreamCache>,
        drivers: Vec<Driver<Acb>>,
    ) -> Result<Self, RuntimeError> {
        if cfg.boards == 0 {
            return Err(RuntimeError::NoDevices);
        }
        // Two extra slots host the reserved cluster-hop connection.
        let mut aab = Aab::new(BackplaneKind::Configurable, 2 * cfg.boards + 2);
        let mut drivers = drivers.into_iter();
        let mut boards = Vec::with_capacity(cfg.boards);
        let device = cfg.fabric.device();
        for i in 0..cfg.boards {
            let link = match drivers.next() {
                Some(driver) => Link::Pci {
                    driver: Box::new(driver),
                    buf: Vec::new(),
                    seq: 0,
                },
                None => Link::Aab(
                    aab.connect(2 * i, 2 * i + 1, aab.config().channels())
                        .expect("fresh backplane has free channels"),
                ),
            };
            boards.push(Board {
                coproc: Coprocessor::new(device.clone()),
                link,
                affinity: Affinity::default(),
                free_at: SimTime::ZERO,
                busy: false,
                done: Vec::new(),
                requeue: Vec::new(),
                staged: None,
                executed: None,
                draining: false,
                quarantined: false,
                guard: GuardState::new(cfg.guard, i),
            });
        }
        let hop_conn = aab
            .connect(2 * cfg.boards, 2 * cfg.boards + 1, aab.config().channels())
            .expect("fresh backplane has free channels");
        let mut stats = ShardStats {
            board_busy: vec![SimDuration::ZERO; cfg.boards],
            ..ShardStats::default()
        };
        if cfg.guard.is_active() {
            stats.guard.scrub_frames = vec![0; cfg.boards];
        }
        Ok(ShardScheduler {
            cfg,
            boards,
            aab,
            hop_conn,
            core: SchedCore::new(cfg.queue_capacity, cfg.pick),
            cache,
            ctx: WorkloadContext::new(),
            stats,
            full_config: device.full_config_time(),
        })
    }

    /// Admit `job` at virtual instant `now`, or shed it when the queue
    /// bound is reached. Admission immediately back-fills any idle
    /// board.
    pub fn submit(&mut self, now: SimTime, job: ShardJob) -> Result<(), ShardReject> {
        self.submit_with_outcome(now, job, None)
    }

    /// [`submit`](Self::submit) with the job's outcome already known, so
    /// no board computes it. `outcome` must be what
    /// [`WorkloadContext::execute`] returns for `job.spec` — outcomes are
    /// pure, so whether it was computed here or elsewhere changes host
    /// time only. On a shard with `lanes > 1` a supplied outcome also
    /// keeps the job out of laned gathers, so pass `None` there when the
    /// lane counters must not depend on it.
    pub fn submit_with_outcome(
        &mut self,
        now: SimTime,
        job: ShardJob,
        outcome: Option<JobOutcome>,
    ) -> Result<(), ShardReject> {
        if self
            .core
            .push(ShardEntry::new(job, now, SimTime::ZERO, outcome))
            .is_err()
        {
            self.stats.rejected += 1;
            self.stats.rejected_by_class[job.priority.index()] += 1;
            return Err(ShardReject {
                capacity: self.core.capacity(),
                depth: self.core.len(),
                priority: job.priority,
                retry_after: self.retry_after(self.core.len()),
            });
        }
        self.stats.submitted += 1;
        self.schedule(now);
        Ok(())
    }

    /// Accept a job stolen from another shard's queue at virtual instant
    /// `now`. The original admission instant is preserved (latency keeps
    /// counting the donor-queue wait) and `ready_at` is when the payload
    /// lands on this host — a board that starts the job earlier waits
    /// for the data, charged as DMA time. Not counted as a submission:
    /// the donor already did, and the cluster's steal ledger reconciles
    /// the transfer. A carried outcome is kept. Returns `false` (job
    /// untouched) on a full queue.
    pub fn submit_stolen(&mut self, now: SimTime, stolen: StolenJob, ready_at: SimTime) -> bool {
        let entry = ShardEntry::new(stolen.job, stolen.submitted, ready_at, stolen.outcome);
        if self.core.push(entry).is_err() {
            return false;
        }
        self.schedule(now);
        true
    }

    /// Lift up to `max` queued jobs of `kind` out of this shard's queue
    /// for a thief, least-urgent class first and newest-first within a
    /// class — the jobs that would otherwise wait longest. In-flight
    /// work is never stolen. Queue-bound accounting moves with them;
    /// admission stats stay (the jobs were genuinely admitted here).
    pub fn steal_queued(&mut self, kind: JobKind, max: usize) -> Vec<StolenJob> {
        self.core
            .take_newest(max, |e| e.job.spec.kind == kind)
            .into_iter()
            .map(|e| StolenJob {
                job: e.job,
                submitted: e.submitted,
                outcome: e.outcome,
            })
            .collect()
    }

    /// `(jobs, payload bytes)` of up to `max` queued jobs of `kind`, in
    /// the order [`steal_queued`](Self::steal_queued) would take them —
    /// the thief's cost estimate before committing to a steal.
    pub fn queued_backlog(&self, kind: JobKind, max: usize) -> (usize, u64) {
        self.core
            .iter_newest()
            .filter(|e| e.job.spec.kind == kind)
            .take(max)
            .fold((0, 0), |(n, bytes), e| {
                (n + 1, bytes + e.job.spec.payload_bytes())
            })
    }

    /// The workload kind with the most queued jobs (ties to
    /// [`JobKind::ALL`] order), if anything is queued — the donor-side
    /// answer to "what is worth a design switch to take".
    pub fn dominant_queued_kind(&self) -> Option<JobKind> {
        let mut counts = [0usize; JobKind::COUNT];
        for e in self.core.iter_newest() {
            counts[e.job.spec.kind.index()] += 1;
        }
        JobKind::ALL
            .iter()
            .copied()
            .max_by_key(|k| counts[k.index()])
            .filter(|k| counts[k.index()] > 0)
    }

    /// Whether any non-quarantined board is idle at `t` — the thief-side
    /// precondition of a steal.
    pub fn has_idle_board(&self, t: SimTime) -> bool {
        self.boards.iter().any(|b| b.idle(t))
    }

    /// Designs resident on idle boards at `t`, in board order — what a
    /// steal can serve without a reconfiguration (a *warm* steal).
    pub fn idle_resident_kinds(&self, t: SimTime) -> Vec<JobKind> {
        self.boards
            .iter()
            .filter(|b| b.idle(t))
            .filter_map(|b| b.affinity.loaded)
            .collect()
    }

    /// The measured mean hardware task-switch cost on this shard —
    /// total serving-path reconfiguration time over total switches —
    /// falling back to a full configuration of this fabric before
    /// anything has been measured. Boot preloads increment the switch
    /// counters but record no reconfiguration time (boot precedes the
    /// serving clock), so the conservative full-configuration prior
    /// holds until a switch is actually *paid* mid-campaign. This is
    /// the self-calibrating reconfiguration term of the steal
    /// breakeven test.
    pub fn mean_switch_cost(&self) -> SimDuration {
        let switches = self.stats.full_loads + self.stats.partial_switches;
        if switches == 0 || self.stats.reconfig_time == SimDuration::ZERO {
            self.full_config
        } else {
            self.stats.reconfig_time / switches
        }
    }

    /// The calibrated mean service time (zero until the first
    /// completion) — the per-job term of the steal benefit estimate.
    pub fn service_ewma(&self) -> SimDuration {
        SimDuration::from_picos(self.core.service_ewma())
    }

    /// Virtual time to move `bytes` over the shard's reserved cluster-hop
    /// backplane connection, were it free now.
    pub fn hop_cost(&self, bytes: u64) -> SimDuration {
        self.aab
            .connection_bandwidth(self.hop_conn)
            .transfer_time(bytes)
    }

    /// Stream `bytes` of stolen payload out over the reserved hop
    /// connection starting at `at` (serialized after previous hops —
    /// back-to-back steals queue on the link) and return the completion
    /// instant. Charged on this (the donor's) backplane, per §2.3: the
    /// payload crosses the donor's AAB on its way to the inter-host
    /// link.
    pub fn hop_transfer(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let (_, done) = self
            .aab
            .transfer(self.hop_conn, at, bytes)
            .expect("hop connection is live");
        done
    }

    /// Estimated virtual time until `depth` queued jobs free one slot.
    pub fn retry_after(&self, depth: usize) -> SimDuration {
        SimDuration::from_picos(self.core.retry_after(depth, self.active_boards()))
    }

    /// Process every board event at or before `now` — retiring its jobs
    /// and cascading the freed board onto queued work at the exact event
    /// instant — and return the retired jobs ordered by `(done, board)`.
    pub fn advance(&mut self, now: SimTime) -> Vec<ShardCompletion> {
        let mut out = Vec::new();
        while let Some((at, i)) = self.next_event().filter(|&(at, _)| at <= now) {
            self.retire(i, &mut out);
            self.schedule(at);
        }
        self.schedule(now);
        out
    }

    /// The earliest pending board event — a completion, or on the
    /// pipelined beat the end of a beat — if any: the shard's
    /// contribution to the cluster's event horizon.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.next_event().map(|(at, _)| at)
    }

    /// Run the shard to idle: retire everything queued and in flight.
    pub fn drain(&mut self) -> Vec<ShardCompletion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_completion() {
            out.extend(self.advance(t));
        }
        out
    }

    /// Boot-time provisioning: configure `board` with `kind`'s design
    /// before serving begins, the way the paper's host software loads
    /// initial configurations at setup (§2.2). The configuration is
    /// counted in the task-switch stats, but the board is free
    /// immediately — boot precedes the serving clock. Returns `false`
    /// for an unknown, busy, or quarantined board.
    pub fn preload(&mut self, board: usize, kind: JobKind) -> bool {
        if self
            .boards
            .get(board)
            .is_none_or(|b| b.quarantined || b.busy || b.has_work())
        {
            return false;
        }
        let _ = self.switch_board(board, kind);
        // The serving batch window starts fresh.
        self.boards[board].affinity.batch_len = 0;
        true
    }

    /// Quarantine a board (a guard capacity delta): it finishes its
    /// current beat, hands any pipelined work back to the queue, and is
    /// never scheduled again, shrinking the shard's advertised capacity. Refuses to quarantine the last
    /// active board — a shard always keeps serving. Returns whether the
    /// quarantine took effect.
    pub fn quarantine_board(&mut self, board: usize) -> bool {
        if board >= self.boards.len() || self.boards[board].quarantined {
            return false;
        }
        if self.active_boards() <= 1 {
            return false;
        }
        self.boards[board].quarantined = true;
        self.stats.quarantined += 1;
        true
    }

    /// Boards still serving (total minus quarantined) — the advertised
    /// capacity the router weighs.
    pub fn active_boards(&self) -> usize {
        self.boards.iter().filter(|b| !b.quarantined).count()
    }

    /// Total board pairs, quarantined or not.
    pub fn boards(&self) -> usize {
        self.boards.len()
    }

    /// The fabric family this shard's boards are built from.
    pub fn fabric(&self) -> FabricKind {
        self.cfg.fabric
    }

    /// Jobs queued (excluding in-flight work).
    pub fn queue_depth(&self) -> usize {
        self.core.len()
    }

    /// The admission bound.
    pub fn queue_capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Jobs on boards rather than in the queue.
    pub fn in_flight(&self) -> usize {
        self.boards.iter().map(Board::holds).sum()
    }

    /// Outstanding work (queued + in flight) per active board — the
    /// load metric the router's spill decision compares.
    pub fn load(&self) -> f64 {
        (self.core.len() + self.in_flight()) as f64 / self.active_boards().max(1) as f64
    }

    /// The shard's deterministic counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// The configuration the shard was built with (a host shard's
    /// `boards` is its ACB count).
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The fitted-bitstream cache the boards load from.
    pub(crate) fn cache(&self) -> &BitstreamCache {
        &self.cache
    }

    /// The shard's backplane (per-slot accounting lives here).
    pub fn backplane(&self) -> &Aab {
        &self.aab
    }

    // ---- internals -----------------------------------------------------

    /// The earliest pending board event and its board.
    fn next_event(&self) -> Option<(SimTime, usize)> {
        self.boards
            .iter()
            .enumerate()
            .filter(|(_, b)| b.busy)
            .map(|(i, b)| (b.free_at, i))
            .min()
    }

    /// Board `bi`'s occupancy ended: retire its jobs into `out` and hand
    /// suspect jobs — and, once quarantined, its pipeline — back to the
    /// queue.
    fn retire(&mut self, bi: usize, out: &mut Vec<ShardCompletion>) {
        let board = &mut self.boards[bi];
        board.busy = false;
        for fin in board.done.drain(..) {
            if !fin.faulted {
                let s = &mut self.stats;
                s.completed += 1;
                s.per_kind[fin.spec.kind.index()] += 1;
                if !fin.switched {
                    s.affinity_hits += 1;
                }
                s.latency.record_virtual(fin.latency());
                s.queue_wait.record_virtual(fin.queue_wait());
                s.last_done = s.last_done.max(fin.done);
                self.core.note_service(fin.service().as_picos());
            }
            out.push(fin);
        }
        for entry in board.requeue.drain(..) {
            self.core.push_front(entry);
        }
        if board.quarantined {
            let held = [board.executed.take(), board.staged.take()];
            for stage in held.into_iter().flatten() {
                self.core.push_front(stage.entry);
            }
        }
    }

    /// Start every board that can move at `t`: an idle board takes queued
    /// work, and on the pipelined beat a board also advances its own
    /// pipeline while the queue is quiet. Among ready boards, prefer one
    /// whose fabric already holds the head job's design (so two designs
    /// resident on two boards serve side by side instead of
    /// ping-ponging); otherwise lowest index. Jobs are then chosen by the
    /// priority-classed affinity pick.
    fn schedule(&mut self, t: SimTime) {
        loop {
            let head = self.core.head().map(|e| e.job.spec.kind);
            let ready = |b: &Board| b.idle(t) && (head.is_some() || b.has_work());
            let Some(first) = self.boards.iter().position(ready) else {
                break;
            };
            let bi = head
                .and_then(|k| {
                    self.boards
                        .iter()
                        .position(|b| ready(b) && b.affinity.loaded == Some(k))
                })
                .unwrap_or(first);
            match self.cfg.pipeline {
                Beat::Serial => {
                    let entry = self
                        .core
                        .pick(&self.boards[bi].affinity)
                        .expect("the queue has a head");
                    self.start(bi, t, entry);
                }
                Beat::Pipelined(overlap) => self.step(bi, t, overlap),
            }
        }
    }

    /// Serve `entry` end to end on board `bi` from `t`: payload in, task
    /// switch, execute, result out — the board is occupied for the sum,
    /// plus the detection ladder when the guard is active.
    fn start(&mut self, bi: usize, t: SimTime, mut entry: ShardEntry) {
        let busy0 = self.stats.board_busy[bi];
        self.inject(bi);
        let spec = entry.job.spec;
        // A stolen job whose payload is still in flight over the hop
        // link stalls the board until it lands; the wait is charged as
        // DMA — the board is blocked on data either way.
        let data_at = entry.ready_at.max(t);
        let addr = self.boards[bi].link.next_slot(false);
        let dma_in_done = self.dma(
            bi,
            data_at,
            addr,
            &spec,
            DmaDirection::HostToBoard,
            DmaChannel::Ch0,
        );
        let dma_in = dma_in_done.since(t);
        let (reconfig, switched) = self.switch_board(bi, spec.kind);
        let outcome = self.outcome(&mut entry);
        let execute = self.cfg.fabric.scale_execute(outcome.compute);
        let corruption = self.boards[bi].guard.corruption(&self.boards[bi].coproc);
        let exec_end = dma_in_done + reconfig + execute;
        let done = self.dma(
            bi,
            exec_end,
            addr,
            &spec,
            DmaDirection::BoardToHost,
            DmaChannel::Ch0,
        );
        let dma_out = done.since(exec_end);

        let s = &mut self.stats;
        s.dma_time += dma_in + dma_out;
        s.reconfig_time += reconfig;
        s.execute_time += execute;
        s.board_busy[bi] += done.since(t);
        if corruption.is_some() {
            s.guard.corrupt_executes += 1;
        }

        let stage = Stage {
            entry,
            started: t,
            checksum: outcome.checksum ^ corruption.unwrap_or(0),
            cycles: outcome.cycles,
            execute,
            reconfig,
            switched,
            addr,
            dma_in,
            corrupt: corruption.is_some(),
        };
        // The detection ladder runs before the result is released; a
        // detection discards the execution and retries the job.
        let (dirty, _) = self.guard_check(bi, Some((spec, stage.checksum)));
        if dirty {
            self.retry_detected(bi, t, stage.entry, dma_in + dma_out + execute);
        } else {
            self.complete(bi, stage, dma_out);
        }
        self.close(bi, t, busy0);
    }

    /// Move board `bi`'s pipeline at `t`: admit the job the pick would
    /// take, unless it needs another design while jobs are in flight —
    /// they must execute under the loaded design, so the board advances
    /// a drain beat instead and the job stays queued, free for a board
    /// that already holds its design. With nothing queued, advance a
    /// beat to move in-flight work on.
    fn step(&mut self, bi: usize, t: SimTime, overlap: OverlapConfig) {
        let board = &mut self.boards[bi];
        let in_flight = board.has_work();
        let next = self.core.peek(&board.affinity).map(|e| e.job.spec.kind);
        match next {
            Some(kind) if in_flight && board.affinity.loaded != Some(kind) => {
                board.draining = true;
                self.beat(bi, t, None, overlap);
            }
            Some(_) => {
                let drained = std::mem::take(&mut board.draining) && !in_flight;
                let entry = self.core.pick(&board.affinity).expect("peeked");
                self.admit(bi, t, entry, drained, overlap);
            }
            None => self.beat(bi, t, None, overlap),
        }
    }

    /// Admit `entry` to board `bi`'s pipeline: switch its design (charged
    /// serially — the fabric is being rewritten), then advance a beat
    /// with it entering the prefetch stage. `drained` says the pipeline
    /// was just drained for this admission.
    fn admit(
        &mut self,
        bi: usize,
        t: SimTime,
        mut entry: ShardEntry,
        drained: bool,
        overlap: OverlapConfig,
    ) {
        let outcome = self.outcome(&mut entry);
        let (reconfig, switched) = self.switch_board(bi, entry.job.spec.kind);
        if drained && switched {
            self.stats.pipeline.drains += 1;
        }
        self.stats.reconfig_time += reconfig;
        self.stats.board_busy[bi] += reconfig;
        let stage = Stage {
            entry,
            started: t,
            checksum: outcome.checksum,
            cycles: outcome.cycles,
            execute: self.cfg.fabric.scale_execute(outcome.compute),
            reconfig,
            switched,
            addr: self.boards[bi].link.next_slot(true),
            dma_in: SimDuration::ZERO,
            corrupt: false,
        };
        self.beat(bi, t + reconfig, Some(stage), overlap);
    }

    /// One pipeline beat on board `bi` from `t` (after any reconfiguration
    /// charged since): write back job *N−1* on channel 1, execute job
    /// *N*, prefetch `new` on channel 0 — charged the overlap window of
    /// the three stage times, not their sum.
    fn beat(&mut self, bi: usize, t: SimTime, new: Option<Stage>, overlap: OverlapConfig) {
        let busy0 = self.stats.board_busy[bi];
        // Deliver the upsets the board's clock has reached: this beat
        // executes on whatever configuration the campaign left behind.
        self.inject(bi);

        let finishing = self.boards[bi].executed.take();
        let t_out = finishing.as_ref().map_or(SimDuration::ZERO, |f| {
            let spec = f.entry.job.spec;
            self.dma(
                bi,
                t,
                f.addr,
                &spec,
                DmaDirection::BoardToHost,
                DmaChannel::Ch1,
            )
            .since(t)
        });

        let mut t_exec = SimDuration::ZERO;
        let board = &mut self.boards[bi];
        if let Some(mut st) = board.staged.take() {
            t_exec = st.execute;
            if let Some(digest) = board.guard.corruption(&board.coproc) {
                st.checksum ^= digest;
                st.corrupt = true;
                self.stats.guard.corrupt_executes += 1;
            }
            board.executed = Some(st);
        }

        let mut t_in = SimDuration::ZERO;
        if let Some(mut st) = new {
            let spec = st.entry.job.spec;
            let at = st.entry.ready_at.max(t);
            t_in = self
                .dma(
                    bi,
                    at,
                    st.addr,
                    &spec,
                    DmaDirection::HostToBoard,
                    DmaChannel::Ch0,
                )
                .since(t);
            st.dma_in = t_in;
            self.boards[bi].staged = Some(st);
        }

        let window = overlap.window([t_in, t_exec, t_out]);
        let s = &mut self.stats;
        let p = &mut s.pipeline;
        p.beats += 1;
        p.stage_time[0] += t_in;
        p.stage_time[1] += t_exec;
        p.stage_time[2] += t_out;
        p.window_time += window;
        p.overlap_saved += t_in + t_exec + t_out - window;
        s.board_busy[bi] += window;
        s.dma_time += t_in + t_out;
        s.execute_time += t_exec;

        // A detection invalidates every in-flight result: the executed
        // job when it is implicated, and the finishing one regardless.
        let executed = self.boards[bi]
            .executed
            .as_ref()
            .map(|e| (e.entry.job.spec, e.checksum));
        let (dirty, suspect) = self.guard_check(bi, executed);
        if suspect {
            if let Some(ex) = self.boards[bi].executed.take() {
                self.retry_detected(bi, t, ex.entry, ex.dma_in + ex.execute);
            }
        }
        if let Some(fin) = finishing {
            if dirty {
                self.retry_detected(bi, t, fin.entry, fin.dma_in + fin.execute);
            } else {
                self.complete(bi, fin, t_out);
            }
        }
        self.close(bi, t, busy0);
    }

    /// Close board `bi`'s occupancy that began at `t`: it lasts for
    /// everything charged to the board's busy clock since `busy0`, and
    /// every job it retires retires at its end.
    fn close(&mut self, bi: usize, t: SimTime, busy0: SimDuration) {
        let end = t + (self.stats.board_busy[bi] - busy0);
        let board = &mut self.boards[bi];
        for fin in &mut board.done {
            fin.done = end;
        }
        board.free_at = end;
        board.busy = true;
    }

    /// Release `stage`'s result: it retires when the board's occupancy
    /// closes.
    fn complete(&mut self, bi: usize, stage: Stage, dma_out: SimDuration) {
        if stage.corrupt {
            self.stats.guard.silent_corruptions += 1;
        }
        self.boards[bi].done.push(stage.completion(bi, dma_out));
    }

    /// Count a detected corruption of `entry`'s execution, charge the
    /// `wasted` virtual time, and retry it.
    fn retry_detected(&mut self, bi: usize, t: SimTime, entry: ShardEntry, wasted: SimDuration) {
        self.stats.guard.detected_corruptions += 1;
        self.stats.guard.wasted_time += wasted;
        self.requeue_or_fail(bi, t, entry);
    }

    /// Hand a suspect job back to the queue for a clean re-execution —
    /// charging the retry backoff to board `bi` — or give up on it once
    /// its retry budget is spent.
    fn requeue_or_fail(&mut self, bi: usize, t: SimTime, mut entry: ShardEntry) {
        let cfg = self.cfg.guard;
        entry.retries += 1;
        let g = &mut self.stats.guard;
        if entry.retries > cfg.max_retries {
            g.faulted += 1;
            let job = entry.job;
            self.boards[bi].done.push(ShardCompletion {
                id: job.id,
                tenant: job.tenant,
                priority: job.priority,
                spec: job.spec,
                board: bi,
                checksum: 0,
                cycles: 0,
                submitted: entry.submitted,
                started: t,
                done: t,
                dma: SimDuration::ZERO,
                reconfig: SimDuration::ZERO,
                execute: SimDuration::ZERO,
                switched: false,
                faulted: true,
            });
            return;
        }
        g.retries += 1;
        g.wasted_time += cfg.retry_backoff;
        self.stats.board_busy[bi] += cfg.retry_backoff;
        self.boards[bi].requeue.push(entry);
    }

    /// Deliver the upsets board `bi`'s busy clock has reached.
    fn inject(&mut self, bi: usize) {
        let board = &mut self.boards[bi];
        if !board.guard.is_active() {
            return;
        }
        let (injected, stealthy) = board
            .guard
            .inject(&mut board.coproc, self.stats.board_busy[bi]);
        self.stats.guard.upsets_injected += injected;
        self.stats.guard.upsets_stealthy += stealthy;
    }

    /// Run board `bi`'s detection ladder, charge it to the board, and
    /// quarantine the board when it keeps failing. Returns
    /// `(dirty, suspect)`: whether corruption was found, and whether the
    /// `executed` job is implicated.
    fn guard_check(&mut self, bi: usize, executed: Option<(JobSpec, u64)>) -> (bool, bool) {
        let board = &mut self.boards[bi];
        if !board.guard.is_active() {
            return (false, false);
        }
        let clock = self.stats.board_busy[bi];
        let scan = board
            .guard
            .scan(&mut board.coproc, &mut self.ctx, clock, executed);
        let g = &mut self.stats.guard;
        g.check_time += scan.check;
        g.scrub_time += scan.scrub;
        g.scrubs += scan.scrubs;
        g.repairs += scan.repairs;
        g.scrub_frames[bi] += scan.frames;
        g.detection_latency += scan.latency;
        g.detected_upsets += scan.settled;
        self.stats.board_busy[bi] += scan.check + scan.scrub;
        if scan.quarantine && self.quarantine_board(bi) {
            self.boards[bi].guard.quarantined();
        }
        (scan.dirty, scan.suspect)
    }

    /// Move `spec`'s payload (`HostToBoard`) or result (`BoardToHost`)
    /// for board `bi`, starting at `at`; returns when it lands. The
    /// backplane path books the pair's connection; the PCI path streams
    /// through the board's PLX9080 out of or into its reused buffer.
    fn dma(
        &mut self,
        bi: usize,
        at: SimTime,
        addr: u64,
        spec: &JobSpec,
        dir: DmaDirection,
        channel: DmaChannel,
    ) -> SimTime {
        let bytes = match dir {
            DmaDirection::HostToBoard => spec.payload_bytes(),
            DmaDirection::BoardToHost => spec.result_bytes(),
        };
        match &mut self.boards[bi].link {
            Link::Aab(conn) => {
                self.aab
                    .transfer(*conn, at, bytes)
                    .expect("pair connection is live")
                    .1
            }
            Link::Pci { driver, buf, .. } => {
                buf.clear();
                buf.resize(bytes as usize, (spec.seed as u8) ^ 0x5A);
                at + match dir {
                    DmaDirection::HostToBoard => driver.dma_write_from_on(channel, addr, buf),
                    DmaDirection::BoardToHost => driver.dma_read_into_on(channel, addr, buf),
                }
            }
        }
    }

    /// `entry`'s outcome: cached by an earlier pass, or computed now —
    /// together with up to `lanes − 1` queued TRT jobs, whose outcomes
    /// are cached on their entries, when gathering is on. The entry keeps
    /// its outcome, so a guard retry never recomputes it.
    fn outcome(&mut self, entry: &mut ShardEntry) -> JobOutcome {
        if let Some(outcome) = entry.outcome {
            return outcome;
        }
        let outcome = if self.cfg.lanes <= 1 {
            self.ctx.execute(&entry.job.spec)
        } else {
            self.gather(entry.job.spec)
        };
        entry.outcome = Some(outcome);
        outcome
    }

    /// One execute pass for `spec` plus up to `lanes − 1` queued TRT jobs
    /// when `spec` is TRT; returns `spec`'s outcome.
    fn gather(&mut self, spec: JobSpec) -> JobOutcome {
        let trt = |s: &JobSpec| s.kind == JobKind::TrtEvent;
        let mut peers: Vec<&mut ShardEntry> = Vec::new();
        if trt(&spec) {
            peers = self
                .core
                .iter_mut()
                .filter(|e| e.outcome.is_none() && trt(&e.job.spec))
                .take(self.cfg.lanes - 1)
                .collect();
        }
        let specs: Vec<JobSpec> = std::iter::once(spec)
            .chain(peers.iter().map(|e| e.job.spec))
            .collect();
        let outcomes = self.ctx.execute_batch(&specs);
        for (peer, &outcome) in peers.into_iter().zip(&outcomes[1..]) {
            peer.outcome = Some(outcome);
        }
        let l = &mut self.stats.lanes;
        if specs.len() > 1 {
            l.laned_passes += 1;
            l.laned_jobs += specs.len() as u64;
        } else {
            l.scalar_passes += 1;
        }
        outcomes[0]
    }

    /// Switch board `bi` to `kind`'s design through the shared cache
    /// and fold the task-stats delta into the shard counters.
    fn switch_board(&mut self, bi: usize, kind: JobKind) -> (SimDuration, bool) {
        let board = &mut self.boards[bi];
        let delta = self
            .cache
            .switch(&mut board.coproc, kind)
            .expect("workload designs are prefit for the shard's device family");
        let switched = delta.reconfig_time > SimDuration::ZERO;
        board.affinity.note_load(kind, switched);
        if switched {
            board.guard.healed();
        }
        self.stats.full_loads += delta.full_loads;
        self.stats.partial_switches += delta.partial_switches;
        (delta.reconfig_time, switched)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{LaneStats, PipelineStats};

    fn shard(boards: usize, capacity: usize) -> ShardScheduler {
        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        cache.prefit_all().expect("designs fit");
        ShardScheduler::new(
            ShardConfig {
                boards,
                queue_capacity: capacity,
                ..ShardConfig::default()
            },
            cache,
        )
        .expect("boards > 0")
    }

    fn job(id: u64, spec: JobSpec) -> ShardJob {
        ShardJob {
            id,
            tenant: (id % 3) as u32,
            priority: Priority::Normal,
            spec,
        }
    }

    #[test]
    fn refuses_zero_boards() {
        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        let r = ShardScheduler::new(
            ShardConfig {
                boards: 0,
                ..ShardConfig::default()
            },
            cache,
        );
        assert!(matches!(r, Err(RuntimeError::NoDevices)));
    }

    #[test]
    fn serves_a_mixed_workload_deterministically() {
        let run = || {
            let mut s = shard(2, 64);
            let mut t = SimTime::ZERO;
            for i in 0..24u64 {
                s.submit(t, job(i, JobSpec::mixed(i))).unwrap();
                t += SimDuration::from_micros(5);
            }
            let mut fins = s.advance(t);
            fins.extend(s.drain());
            assert_eq!(fins.len(), 24);
            (
                fins.iter().map(|f| (f.id, f.checksum)).collect::<Vec<_>>(),
                s.stats().clone(),
            )
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "completions replay identically");
        assert_eq!(sa, sb, "stats replay identically");
        assert_eq!(sa.completed, 24);
        assert_eq!(sa.per_kind.iter().sum::<u64>(), 24);
        assert!(sa.latency.count() == 24 && sa.queue_wait.count() == 24);
        assert!(sa.last_done > SimTime::ZERO);
    }

    #[test]
    fn checksums_match_the_software_oracle() {
        let mut s = shard(3, 64);
        let specs: Vec<_> = (0..12).map(JobSpec::mixed).collect();
        for (i, &spec) in specs.iter().enumerate() {
            s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
        }
        let mut fins = s.drain();
        fins.sort_by_key(|f| f.id);
        let mut oracle = WorkloadContext::new();
        for (f, spec) in fins.iter().zip(&specs) {
            assert_eq!(f.checksum, oracle.execute(spec).checksum);
            assert_eq!(f.service(), f.dma + f.reconfig + f.execute);
            assert!(f.done.since(f.started) == f.service());
        }
    }

    #[test]
    fn overload_sheds_with_context_and_retry_hint() {
        let mut s = shard(1, 4);
        let mut rejected = None;
        for i in 0..16u64 {
            if let Err(r) = s.submit(SimTime::ZERO, job(i, JobSpec::trt(i))) {
                rejected = Some(r);
                break;
            }
        }
        let r = rejected.expect("tiny queue must shed");
        assert_eq!(r.capacity, 4);
        assert!(r.depth >= 4);
        assert_eq!(r.priority, Priority::Normal);
        // No completion yet → the estimate is still uncalibrated.
        assert_eq!(r.retry_after, SimDuration::ZERO);
        s.drain();
        assert!(s.stats().rejected >= 1);
        assert_eq!(
            s.stats().rejected_by_class[Priority::Normal.index()],
            s.stats().rejected
        );
        // After completions the EWMA calibrates and the hint is real.
        assert!(s.retry_after(4) > SimDuration::ZERO);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut s = shard(1, 0);
        assert_eq!(s.queue_capacity(), 1);
        s.submit(SimTime::ZERO, job(0, JobSpec::trt(0))).unwrap();
        let fins = s.drain();
        assert_eq!(fins.len(), 1);
        assert_eq!(s.stats().rejected, 0);
    }

    #[test]
    fn affinity_batching_beats_fifo_on_switches() {
        let mix: Vec<_> = (0..40).map(JobSpec::mixed).collect();
        let run = |pick| {
            let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
            cache.prefit_all().unwrap();
            let mut s = ShardScheduler::new(
                ShardConfig {
                    boards: 1,
                    queue_capacity: 64,
                    pick,
                    ..ShardConfig::default()
                },
                cache,
            )
            .unwrap();
            for (i, &spec) in mix.iter().enumerate() {
                s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
            }
            s.drain();
            s.stats().clone()
        };
        let fifo = run(PickConfig::fifo());
        let aware = run(PickConfig::default());
        assert!(
            aware.full_loads + aware.partial_switches < fifo.full_loads + fifo.partial_switches,
            "affinity pick must reduce switches: {} vs {}",
            aware.full_loads + aware.partial_switches,
            fifo.full_loads + fifo.partial_switches
        );
        assert!(aware.affinity_hit_rate() > fifo.affinity_hit_rate());
        assert_eq!(aware.completed, fifo.completed);
    }

    #[test]
    fn quarantine_shrinks_capacity_but_never_kills_the_shard() {
        let mut s = shard(2, 64);
        assert_eq!(s.active_boards(), 2);
        assert!(s.quarantine_board(0));
        assert_eq!(s.active_boards(), 1);
        assert!(!s.quarantine_board(1), "last board must keep serving");
        assert!(!s.quarantine_board(0), "idempotent");
        for i in 0..8u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::trt(i))).unwrap();
        }
        let fins = s.drain();
        assert_eq!(fins.len(), 8);
        assert!(
            fins.iter().all(|f| f.board == 1),
            "only the live board serves"
        );
        assert_eq!(s.stats().quarantined, 1);
    }

    #[test]
    fn priority_classes_serve_urgent_first() {
        let mut s = shard(1, 64);
        // Fill the board, then queue a Low before a High at the same instant.
        s.submit(SimTime::ZERO, job(0, JobSpec::trt(0))).unwrap();
        let mut low = job(1, JobSpec::image(32, 1));
        low.priority = Priority::Low;
        let mut high = job(2, JobSpec::nbody(32, 2));
        high.priority = Priority::High;
        s.submit(SimTime::ZERO, low).unwrap();
        s.submit(SimTime::ZERO, high).unwrap();
        let fins = s.drain();
        let order: Vec<u64> = fins.iter().map(|f| f.id).collect();
        assert_eq!(order, vec![0, 2, 1], "High overtakes Low: {order:?}");
    }

    #[test]
    fn backplane_accounts_payload_and_result_bytes() {
        let mut s = shard(2, 64);
        let mut moved = 0u64;
        for i in 0..6u64 {
            let spec = JobSpec::volume(64, i);
            moved += spec.payload_bytes() + spec.result_bytes();
            s.submit(SimTime::ZERO, job(i, spec)).unwrap();
        }
        s.drain();
        let total: u64 = (0..2)
            .map(|b| s.backplane().slot_stats(2 * b).bytes_moved)
            .sum();
        assert_eq!(total, moved, "every byte crosses the AAB exactly once");
        assert!(s.backplane().slot_stats(0).busy > SimDuration::ZERO);
    }

    fn fabric_shard(fabric: FabricKind) -> ShardScheduler {
        let cache = Arc::new(BitstreamCache::new(fabric.device()));
        cache.prefit_all().expect("designs fit both families");
        ShardScheduler::new(
            ShardConfig {
                boards: 1,
                fabric,
                ..ShardConfig::default()
            },
            cache,
        )
        .expect("boards > 0")
    }

    #[test]
    fn virtex_fabric_executes_faster_with_identical_checksums() {
        let run = |fabric| {
            let mut s = fabric_shard(fabric);
            for i in 0..8u64 {
                s.submit(SimTime::ZERO, job(i, JobSpec::mixed(i))).unwrap();
            }
            let mut fins = s.drain();
            fins.sort_by_key(|f| f.id);
            (fins, s.stats().clone())
        };
        let (orca, so) = run(FabricKind::Orca);
        let (virtex, sv) = run(FabricKind::Virtex);
        for (o, v) in orca.iter().zip(&virtex) {
            assert_eq!(o.checksum, v.checksum, "fabric never changes results");
            assert_eq!(v.execute, FabricKind::Virtex.scale_execute(o.execute));
            assert!(v.execute < o.execute);
        }
        assert!(sv.execute_time < so.execute_time);
        // The other side of the trade: the paired-Virtex board streams a
        // bigger configuration, so design switches cost more there.
        assert!(
            FabricKind::Virtex.device().full_config_time()
                > FabricKind::Orca.device().full_config_time()
        );
    }

    #[test]
    fn stolen_jobs_keep_their_admission_instant_and_wait_for_data() {
        let mut donor = shard(1, 64);
        let mut thief = shard(1, 64);
        let submitted = SimTime::ZERO;
        // Occupy the donor's board, then queue four more of one kind.
        for i in 0..5u64 {
            donor.submit(submitted, job(i, JobSpec::trt(i))).unwrap();
        }
        assert_eq!(donor.queue_depth(), 4);
        let (n, bytes) = donor.queued_backlog(JobKind::TrtEvent, 8);
        assert_eq!(n, 4);
        assert!(bytes > 0);
        assert_eq!(donor.dominant_queued_kind(), Some(JobKind::TrtEvent));

        let now = SimTime::ZERO + SimDuration::from_micros(3);
        let stolen = donor.steal_queued(JobKind::TrtEvent, 2);
        assert_eq!(stolen.len(), 2);
        assert_eq!(donor.queue_depth(), 2);
        let ready = now + SimDuration::from_millis(1);
        for s in stolen {
            assert_eq!(s.submitted, submitted, "donor-queue wait keeps counting");
            assert!(thief.submit_stolen(now, s, ready));
        }
        let fins = thief.drain();
        assert_eq!(fins.len(), 2);
        for f in &fins {
            assert_eq!(f.submitted, submitted);
            assert_eq!(f.done.since(f.started), f.service());
        }
        // The first board start precedes the payload landing: the stall
        // is charged as DMA, and the service identity still holds.
        assert!(fins[0].started < ready);
        assert!(fins[0].dma >= ready.since(fins[0].started));
        // The thief never counts a stolen job as its own admission.
        assert_eq!(thief.stats().submitted, 0);
        assert_eq!(thief.stats().completed, 2);
        assert_eq!(donor.drain().len(), 3);
    }

    #[test]
    fn stolen_jobs_carry_their_outcome() {
        let mut donor = shard(1, 64);
        let mut thief = shard(1, 64);
        // Occupy the donor's board, then queue jobs with and without an
        // attached outcome.
        donor
            .submit(SimTime::ZERO, job(0, JobSpec::trt(0)))
            .unwrap();
        let mut ctx = WorkloadContext::new();
        let mut attached = Vec::new();
        for i in 1..4u64 {
            let spec = JobSpec::trt(i);
            // A marker checksum the thief can only report if it serves
            // the carried outcome instead of computing its own.
            let real = ctx.execute(&spec);
            let outcome = JobOutcome {
                checksum: !real.checksum,
                ..real
            };
            attached.push((i, outcome));
            donor
                .submit_with_outcome(SimTime::ZERO, job(i, spec), Some(outcome))
                .unwrap();
        }
        donor
            .submit(SimTime::ZERO, job(4, JobSpec::trt(4)))
            .unwrap();

        let stolen = donor.steal_queued(JobKind::TrtEvent, 4);
        assert_eq!(stolen.len(), 4);
        for s in &stolen {
            let want = attached.iter().find(|&&(id, _)| id == s.job.id);
            assert_eq!(s.outcome, want.map(|&(_, o)| o), "job {}", s.job.id);
        }
        for s in stolen {
            assert!(thief.submit_stolen(SimTime::ZERO, s, SimTime::ZERO));
        }
        for f in thief.drain() {
            let want = match attached.iter().find(|&&(id, _)| id == f.id) {
                Some(&(_, o)) => o,
                None => ctx.execute(&f.spec),
            };
            assert_eq!((f.checksum, f.cycles), (want.checksum, want.cycles));
        }
    }

    #[test]
    fn switch_cost_estimate_calibrates_from_measurement() {
        let mut s = shard(1, 64);
        // Uncalibrated: fall back to a full configuration of the fabric.
        assert_eq!(
            s.mean_switch_cost(),
            Device::orca_3t125().full_config_time()
        );
        for i in 0..6u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::mixed(i))).unwrap();
        }
        s.drain();
        let st = s.stats();
        let switches = st.full_loads + st.partial_switches;
        assert!(switches > 0);
        assert_eq!(s.mean_switch_cost(), st.reconfig_time / switches);
    }

    #[test]
    fn hop_transfers_serialize_on_the_reserved_connection() {
        let mut s = shard(2, 64);
        let bytes = 1 << 20;
        let cost = s.hop_cost(bytes);
        assert!(cost > SimDuration::ZERO);
        let a = s.hop_transfer(SimTime::ZERO, bytes);
        let b = s.hop_transfer(SimTime::ZERO, bytes);
        assert!(b >= a + cost, "back-to-back hops queue on the link");
        // The hop link never collides with board-pair DMA slots.
        for i in 0..4u64 {
            s.submit(SimTime::ZERO, job(i, JobSpec::volume(32, i)))
                .unwrap();
        }
        s.drain();
        assert_eq!(s.backplane().slot_stats(2 * 2).bytes_moved, 2 * bytes);
    }

    /// Serve `specs` as a backlog admitted at time zero and return the
    /// completions (in retirement order) and the final counters.
    fn backlog(cfg: ShardConfig, specs: &[JobSpec]) -> (Vec<ShardCompletion>, ShardStats) {
        let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
        cache.prefit_all().unwrap();
        let mut s = ShardScheduler::new(cfg, cache).unwrap();
        for (i, &spec) in specs.iter().enumerate() {
            s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
        }
        (s.drain(), s.stats().clone())
    }

    #[test]
    fn lanes_change_host_work_only() {
        let specs: Vec<_> = (0..40).map(JobSpec::mixed).collect();
        let key = |c: &ShardCompletion| (c.id, c.board, c.started, c.done, c.checksum, c.cycles);
        for pipeline in [Beat::Serial, ShardConfig::host().pipeline] {
            let run = |lanes| {
                let cfg = ShardConfig {
                    boards: 2,
                    pipeline,
                    lanes,
                    ..ShardConfig::default()
                };
                let (fins, stats) = backlog(cfg, &specs);
                (fins.iter().map(key).collect::<Vec<_>>(), stats)
            };
            let (scalar, s1) = run(1);
            let (laned, s8) = run(8);
            assert_eq!(scalar.len(), 40);
            assert_eq!(scalar, laned, "{pipeline:?}: completions depend on lanes");
            assert_eq!(s1.lanes, LaneStats::default(), "lanes 1 never gathers");
            assert!(s8.lanes.laned_passes > 0, "{pipeline:?}: TRT jobs gathered");
            assert_eq!(
                s8.lanes.laned_jobs + s8.lanes.scalar_passes,
                40,
                "every job is computed by exactly one pass"
            );
            let unlaned = ShardStats {
                lanes: LaneStats::default(),
                ..s8
            };
            assert_eq!(s1, unlaned, "{pipeline:?}: a non-lane counter moved");
        }
    }

    #[test]
    fn the_pipelined_backplane_beat_overlaps_and_keeps_results() {
        let specs: Vec<_> = (0..24).map(JobSpec::mixed).collect();
        let run = |pipeline| {
            let cfg = ShardConfig {
                boards: 2,
                pipeline,
                ..ShardConfig::default()
            };
            let (mut fins, stats) = backlog(cfg, &specs);
            fins.sort_by_key(|f| f.id);
            (fins.iter().map(|f| f.checksum).collect::<Vec<_>>(), stats)
        };
        let (serial, ss) = run(Beat::Serial);
        let (piped, sp) = run(ShardConfig::host().pipeline);
        assert_eq!(serial, piped, "the beat never changes results");
        assert_eq!(ss.pipeline, PipelineStats::default());
        assert!(sp.pipeline.beats >= 24 && sp.overlap_efficiency() > 0.0);
        assert_eq!(sp.completed, 24);
    }

    fn host_shard(acbs: usize, cfg: ShardConfig) -> ShardScheduler {
        let system = AtlantisSystem::builder().with_acbs(acbs).build();
        ShardScheduler::host(cfg, system).expect("the system has ACBs")
    }

    #[test]
    fn the_host_path_charges_plx9080_dma() {
        let spec = JobSpec::volume(64, 3);
        let serial = ShardConfig {
            pipeline: Beat::Serial,
            ..ShardConfig::host()
        };
        let mut s = host_shard(1, serial);
        s.submit(SimTime::ZERO, job(0, spec)).unwrap();
        let fin = s.drain().pop().expect("one completion");

        let (_, mut acbs, _) = AtlantisSystem::builder().with_acbs(1).build().into_boards();
        let mut driver = acbs.remove(0);
        let addr = driver.target().job_slot_addr(0).unwrap();
        let payload = vec![0u8; spec.payload_bytes() as usize];
        let mut result = vec![0u8; spec.result_bytes() as usize];
        let dma = driver.dma_write_from(addr, &payload) + driver.dma_read_into(addr, &mut result);
        assert_eq!(fin.dma, dma);
        assert_eq!(fin.done.since(fin.started), fin.service());
        assert_eq!(s.backplane().slot_stats(0).bytes_moved, 0, "no AAB traffic");
    }

    #[test]
    fn pipelined_host_boards_are_busy_for_their_beats_reconfig_and_guard_work() {
        let guard = GuardConfig {
            upset_rate: 4_000.0,
            upset_seed: 3,
            ..GuardConfig::protected()
        };
        let specs: Vec<_> = (0..60).map(JobSpec::mixed).collect();
        for acbs in [1, 2] {
            let cfg = ShardConfig {
                guard,
                ..ShardConfig::host()
            };
            let mut s = host_shard(acbs, cfg);
            for (i, &spec) in specs.iter().enumerate() {
                s.submit(SimTime::ZERO, job(i as u64, spec)).unwrap();
            }
            s.drain();
            let st = s.stats();
            let g = &st.guard;
            assert!(
                g.upsets_injected > 0 && g.retries > 0,
                "the guard must work"
            );
            let backoff = guard.retry_backoff * g.retries;
            assert_eq!(
                st.busy_total(),
                st.pipeline.window_time + st.reconfig_time + g.check_time + g.scrub_time + backoff,
                "{acbs} boards"
            );
            assert_eq!(st.completed + g.faulted, 60);
            assert_eq!(
                st.lanes.laned_jobs + st.lanes.scalar_passes,
                60,
                "a retry reuses the job's outcome"
            );
        }
    }
}
