//! Reliability policy and mechanics of the serving engine (DESIGN.md
//! §11).
//!
//! The ATLANTIS parts were chosen partly for "support for read-back/
//! test" (paper §2): in the radiation-exposed environments the machine
//! targeted, single-event upsets flip configuration bits and silently
//! corrupt the loaded logic. [`GuardConfig`] is the *policy* — when to
//! inject (for campaigns), when to scan, when to scrub, when to give up
//! on a board — and each board's `GuardState` runs it against the
//! `fabric::scrub` mechanisms: upset injection and the detection ladder.
//! The [`ShardScheduler`](crate::ShardScheduler) calls both from its
//! beat and folds what they report into
//! [`GuardStats`](crate::GuardStats).
//!
//! Everything is driven by **virtual board time**: upset arrivals are a
//! Poisson process over the board's busy clock, scrubs recur on a
//! virtual-time interval, and every check or repair is charged to the
//! board exactly like DMA or reconfiguration. With the policy disabled
//! (the default) the serving path never calls into this module.

use atlantis_apps::jobs::{JobSpec, WorkloadContext};
use atlantis_core::Coprocessor;
use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::SimDuration;

/// Reliability policy knobs. [`GuardConfig::disabled`] (the default)
/// turns every mechanism off; [`GuardConfig::protected`] is the recommended production
/// posture (per-beat CRC scans, periodic deep scrubs, bounded retries).
#[derive(Debug, Clone, Copy)]
pub struct GuardConfig {
    /// Mean SEU arrivals per board-second of *virtual* busy time
    /// (Poisson). `0.0` disables fault injection.
    pub upset_rate: f64,
    /// Fraction of injected upsets that refresh the frame's stored CRC
    /// — corruption a CRC read-back cannot see, only a golden-image
    /// scrub or a host re-execution vote.
    pub stealth_fraction: f64,
    /// Seed of the injection arrival process. Each board forks an
    /// independent stream, so a fixed seed replays the same campaign.
    pub upset_seed: u64,
    /// Virtual-time interval between periodic deep scrubs (full
    /// read-back against the golden image). `ZERO` disables them.
    pub scrub_interval: SimDuration,
    /// Run the configuration port's cheap frame-CRC scan every `N`
    /// pipeline beats (serial mode: every `N` jobs). `0` disables it.
    pub crc_every: u64,
    /// Re-execute every `N`-th job's result on the RISC host and vote
    /// against the FPGA's checksum — the detector of last resort for
    /// CRC-stealthy corruption. `0` disables voting.
    pub vote_every: u64,
    /// How many times a suspect job may be requeued before it is given
    /// up on (answered with
    /// [`RuntimeError::Faulted`](crate::RuntimeError::Faulted)).
    pub max_retries: u32,
    /// Virtual backoff charged to the board per suspect-job requeue.
    pub retry_backoff: SimDuration,
    /// Consecutive dirty integrity events after which the board is
    /// quarantined and its work handed to healthy boards. `0` disables
    /// quarantine. The last active board is never quarantined — someone
    /// has to keep serving.
    pub quarantine_after: u32,
}

impl Default for GuardConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl GuardConfig {
    /// Everything off — no injection, no scans, no scrubs, no voting,
    /// no quarantine.
    pub fn disabled() -> Self {
        GuardConfig {
            upset_rate: 0.0,
            stealth_fraction: 0.0,
            upset_seed: 0,
            scrub_interval: SimDuration::ZERO,
            crc_every: 0,
            vote_every: 0,
            max_retries: 3,
            retry_backoff: SimDuration::ZERO,
            quarantine_after: 0,
        }
    }

    /// The recommended protective posture: a CRC scan after every beat
    /// (≈ 21 µs on the ORCA 3T125 — cheap next to a job), a deep scrub
    /// every 250 ms of virtual time, three retries with 50 µs backoff,
    /// and quarantine after eight consecutive dirty events. Injection
    /// stays off; campaigns set `upset_rate` explicitly.
    pub fn protected() -> Self {
        GuardConfig {
            scrub_interval: SimDuration::from_millis(250),
            crc_every: 1,
            vote_every: 0,
            max_retries: 3,
            retry_backoff: SimDuration::from_micros(50),
            quarantine_after: 8,
            ..Self::disabled()
        }
    }

    /// Whether any mechanism is on. `false` short-circuits every guard
    /// hook in the serving beat.
    pub fn is_active(&self) -> bool {
        self.upset_rate > 0.0
            || self.scrub_interval > SimDuration::ZERO
            || self.crc_every > 0
            || self.vote_every > 0
    }
}

/// What one pass of the detection ladder found and cost.
#[derive(Debug, Default)]
pub(crate) struct Scan {
    /// The board was found corrupted (and has been repaired).
    pub dirty: bool,
    /// The just-executed job is implicated.
    pub suspect: bool,
    /// Virtual time of CRC scans and votes.
    pub check: SimDuration,
    /// Virtual time of scrubs and repairs.
    pub scrub: SimDuration,
    /// Full golden-image scrubs run.
    pub scrubs: u64,
    /// Targeted repairs run.
    pub repairs: u64,
    /// Configuration frames rewritten.
    pub frames: u64,
    /// Summed arrival-to-repair latency of the upsets settled here.
    pub latency: SimDuration,
    /// Upsets settled here.
    pub settled: u64,
    /// The board has failed `quarantine_after` consecutive checks.
    pub quarantine: bool,
}

/// Per-board guard state: the arrival/scrub schedules over the board's
/// virtual clock and the detection bookkeeping.
#[derive(Debug)]
pub(crate) struct GuardState {
    cfg: GuardConfig,
    rng: WorkloadRng,
    /// Virtual board time of the next SEU arrival.
    next_upset: Option<SimDuration>,
    /// Virtual board time of the next periodic deep scrub.
    next_scrub: Option<SimDuration>,
    /// Injected-but-unrepaired upsets: arrival times. Mirrors the
    /// fabric's tracker for detection-latency accounting.
    pending: Vec<SimDuration>,
    /// Beats (serial: jobs) seen — the CRC scan cadence.
    beats: u64,
    /// Jobs since the last re-execution vote.
    jobs_since_vote: u64,
    /// Consecutive integrity checks that found corruption.
    consecutive_dirty: u32,
}

impl GuardState {
    pub fn new(cfg: GuardConfig, board: usize) -> Self {
        // Stream 0 is the parent's own stream; board forks start at 1.
        let mut rng =
            WorkloadRng::seed_from_u64(cfg.upset_seed ^ 0x5E0_5C4AB).fork(board as u64 + 1);
        let next_upset =
            (cfg.upset_rate > 0.0).then(|| SimDuration::from_secs_f64(rng.exp_gap(cfg.upset_rate)));
        let next_scrub = (cfg.scrub_interval > SimDuration::ZERO).then_some(cfg.scrub_interval);
        GuardState {
            cfg,
            rng,
            next_upset,
            next_scrub,
            pending: Vec::new(),
            beats: 0,
            jobs_since_vote: 0,
            consecutive_dirty: 0,
        }
    }

    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Advance the arrival schedule by one exponential gap.
    fn schedule_next_upset(&mut self) {
        if let Some(t) = self.next_upset {
            self.next_upset =
                Some(t + SimDuration::from_secs_f64(self.rng.exp_gap(self.cfg.upset_rate)));
        }
    }

    /// A task switch rewrote every differing and corrupted frame,
    /// healing pending upsets as a side effect (the configuration port
    /// cleared the fabric's tracker too).
    pub fn healed(&mut self) {
        self.pending.clear();
    }

    /// Deliver every SEU whose scheduled arrival the board's busy
    /// `clock` has passed; returns `(injected, stealthy)`. An upset
    /// striking an unconfigured device flips nothing the machine will
    /// ever read; the draws still advance, keeping the arrival stream
    /// independent of configuration state.
    pub fn inject(&mut self, coproc: &mut Coprocessor, clock: SimDuration) -> (u64, u64) {
        let (mut injected, mut stealth) = (0, 0);
        while let Some(t) = self.next_upset.filter(|&t| t <= clock) {
            self.schedule_next_upset();
            let stealthy = self.rng.chance(self.cfg.stealth_fraction);
            let dev = coproc.fpga().device();
            let (frames, bytes) = (dev.config_frames as u64, dev.frame_bytes as u64);
            let frame = self.rng.below(frames) as u32;
            let byte = self.rng.below(bytes) as u32;
            let bit = self.rng.below(8) as u8;
            let hit = if stealthy {
                coproc.fpga_mut().inject_upset_stealthy(frame, byte, bit)
            } else {
                coproc.fpga_mut().inject_upset(frame, byte, bit)
            };
            if hit.is_ok() {
                self.pending.push(t);
                injected += 1;
                stealth += u64::from(stealthy);
            }
        }
        (injected, stealth)
    }

    /// The checksum perturbation an execution on `coproc` suffers right
    /// now: the fabric's upset digest while upsets are pending — the
    /// corruption model the detection ladder is measured against.
    pub fn corruption(&self, coproc: &Coprocessor) -> Option<u64> {
        (self.is_active() && !coproc.fpga().pending_upsets().is_empty())
            .then(|| coproc.fpga().upset_digest())
    }

    /// One pass of the detection ladder at board time `clock`, cheapest
    /// first: (a) host re-execution vote of the just-`executed` job —
    /// the RISC half recomputes it through the software model, the only
    /// detector that sees CRC-stealthy corruption without a read-back;
    /// (b) the configuration port's frame-CRC scan; (c) the periodic
    /// deep scrub against the golden image. Anything found triggers a
    /// targeted frame repair, escalating to a full scrub when a stealthy
    /// remainder survives, and advances the quarantine counter.
    pub fn scan(
        &mut self,
        coproc: &mut Coprocessor,
        ctx: &mut WorkloadContext,
        clock: SimDuration,
        executed: Option<(JobSpec, u64)>,
    ) -> Scan {
        let cfg = self.cfg;
        self.beats += 1;
        let mut s = Scan::default();
        let mut checked = false;

        // (a) Re-execution vote.
        if let Some((spec, checksum)) = executed.filter(|_| cfg.vote_every > 0) {
            self.jobs_since_vote += 1;
            if self.jobs_since_vote >= cfg.vote_every {
                self.jobs_since_vote = 0;
                checked = true;
                let (ok, cost) = ctx.self_check(&spec, checksum);
                s.check += cost;
                if !ok {
                    s.dirty = true;
                    s.suspect = true;
                }
            }
        }

        // (b) Frame-CRC scan (fails harmlessly on an unconfigured
        // device — there is nothing to corrupt there either).
        if cfg.crc_every > 0 && self.beats.is_multiple_of(cfg.crc_every) {
            if let Ok(c) = coproc.crc_check() {
                checked = true;
                s.check += c.time;
                if c.stale_frames > 0 {
                    s.dirty = true;
                    s.suspect = executed.is_some();
                }
            }
        }

        // (c) Periodic deep scrub.
        if self.next_scrub.is_some_and(|t| clock + s.check >= t) {
            self.next_scrub = Some(clock + s.check + cfg.scrub_interval);
            if let Ok(r) = coproc.scrub() {
                checked = true;
                s.scrub += r.time;
                s.scrubs += 1;
                s.frames += r.frames_repaired as u64;
                if r.frames_repaired > 0 {
                    s.dirty = true;
                    s.suspect = executed.is_some();
                }
            }
        }

        // Repair: rewrite the frames the CRC scan can identify; a
        // stealthy remainder needs the full golden-image scrub.
        if s.dirty {
            if !coproc.fpga().pending_upsets().is_empty() {
                if let Ok(r) = coproc.repair_upsets() {
                    s.scrub += r.time;
                    s.repairs += 1;
                    s.frames += r.frames_repaired as u64;
                }
            }
            if !coproc.fpga().pending_upsets().is_empty() {
                if let Ok(r) = coproc.scrub() {
                    s.scrub += r.time;
                    s.scrubs += 1;
                    s.frames += r.frames_repaired as u64;
                }
            }
            self.consecutive_dirty += 1;
        } else if checked {
            self.consecutive_dirty = 0;
        }

        // Detection-latency accounting: after the repairs above the
        // fabric tracker is clean, so everything the guard knew was
        // pending has just been detected and repaired.
        let now = clock + s.check + s.scrub;
        if s.dirty && coproc.fpga().pending_upsets().is_empty() {
            for arrival in self.pending.drain(..) {
                s.latency += now.saturating_sub(arrival);
                s.settled += 1;
            }
        }

        // Quarantine: repeated dirty events mean the board keeps
        // re-corrupting faster than it can serve.
        s.quarantine = cfg.quarantine_after > 0 && self.consecutive_dirty >= cfg.quarantine_after;
        s
    }

    /// The board was quarantined: its dirty streak is closed.
    pub fn quarantined(&mut self) {
        self.consecutive_dirty = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert() {
        let cfg = GuardConfig::default();
        assert!(!cfg.is_active());
        let g = GuardState::new(cfg, 0);
        assert!(g.next_upset.is_none());
        assert!(g.next_scrub.is_none());
    }

    #[test]
    fn protected_config_is_active_without_injection() {
        let cfg = GuardConfig::protected();
        assert!(cfg.is_active());
        assert_eq!(cfg.upset_rate, 0.0);
        assert_eq!(cfg.crc_every, 1);
        assert!(cfg.scrub_interval > SimDuration::ZERO);
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_per_device() {
        let cfg = GuardConfig {
            upset_rate: 1000.0,
            ..GuardConfig::disabled()
        };
        let mut a = GuardState::new(cfg, 0);
        let mut b = GuardState::new(cfg, 0);
        let mut c = GuardState::new(cfg, 1);
        for _ in 0..16 {
            assert_eq!(a.next_upset, b.next_upset, "same device, same stream");
            a.schedule_next_upset();
            b.schedule_next_upset();
            c.schedule_next_upset();
        }
        assert_ne!(
            a.next_upset, c.next_upset,
            "devices draw independent streams"
        );
    }
}
