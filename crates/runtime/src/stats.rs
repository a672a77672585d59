//! Serving statistics: the log-bucketed virtual-time histogram and the
//! shard's deterministic counters.

use atlantis_simcore::{SimDuration, SimTime};
use std::fmt;

/// A unit-agnostic log₂-bucketed histogram over `u64` samples — the one
/// percentile implementation shared by the shard's latency histograms
/// and the cluster bench. Fixed memory,
/// lock-friendly, good-enough percentiles (each bucket spans a factor of
/// two; the reported percentile is the bucket's upper bound). Record in
/// whatever unit the caller cares about — the serving layers record
/// *integer virtual picoseconds* so two runs of a deterministic campaign
/// produce byte-identical histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// holds zero samples.
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (64 - value.max(1).leading_zeros() as usize - 1).min(self.buckets.len() - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Record one virtual duration in integer picoseconds.
    pub fn record_virtual(&mut self, d: SimDuration) {
        self.record(d.as_picos());
    }

    /// Fold another histogram into this one (cluster-level aggregation
    /// over per-shard histograms).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `p`-quantile (`p` in
    /// 0..=1), in the recording unit.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 2f64.powi(i as i32 + 1);
            }
        }
        self.max as f64
    }

    /// The median (`p = 0.5`) bucket bound.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// The `p = 0.95` bucket bound.
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// The `p = 0.99` bucket bound — the tail the cluster bench sweeps
    /// for its latency knee.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Deterministic counters of one shard. Every field derives from the
/// virtual clock, so fixed-seed campaigns fingerprint byte-identically.
///
/// The pipeline, lane and guard sections stay all-zero on a shard that
/// never uses them (serial beat, `lanes: 1`, guard disabled — the
/// cluster shape), and `Debug` leaves an all-zero section out, so the
/// cluster's fingerprints read exactly as they did before the sections
/// existed.
#[derive(Clone, Default, PartialEq)]
pub struct ShardStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs retired with a result (faulted jobs are counted in
    /// [`GuardStats::faulted`] instead).
    pub completed: u64,
    /// Jobs refused with [`ShardReject`](crate::ShardReject).
    pub rejected: u64,
    /// Refusals per priority class.
    pub rejected_by_class: [u64; 3],
    /// Completions per workload kind (indexed like
    /// [`JobKind::ALL`](atlantis_apps::jobs::JobKind::ALL)).
    pub per_kind: [u64; 4],
    /// Jobs served without a hardware task switch — the shard's
    /// bitstream-affinity hits.
    pub affinity_hits: u64,
    /// Full FPGA configurations across the shard's boards.
    pub full_loads: u64,
    /// Partial-reconfiguration switches across the shard's boards.
    pub partial_switches: u64,
    /// Virtual time spent reconfiguring.
    pub reconfig_time: SimDuration,
    /// Virtual time payloads and results spent on the backplane or PCI.
    pub dma_time: SimDuration,
    /// Virtual execution time.
    pub execute_time: SimDuration,
    /// Per-board busy time — each board's virtual clock.
    pub board_busy: Vec<SimDuration>,
    /// End-to-end virtual latency histogram (picoseconds).
    pub latency: LogHistogram,
    /// Queue-wait histogram (picoseconds).
    pub queue_wait: LogHistogram,
    /// Boards quarantined out of the advertised capacity.
    pub quarantined: u64,
    /// The latest completion instant seen.
    pub last_done: SimTime,
    /// Pipelined-beat counters.
    pub pipeline: PipelineStats,
    /// Lane-gathering counters.
    pub lanes: LaneStats,
    /// Reliability counters.
    pub guard: GuardStats,
}

/// Counters of the pipelined beat (zero on a serial-beat shard).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// Pipeline beats advanced across all boards.
    pub beats: u64,
    /// Times a board drained its pipeline before a design switch
    /// (in-flight jobs must execute under the old design). Beats that
    /// empty the pipeline while the queue is quiet are not counted.
    pub drains: u64,
    /// Virtual time each stage was busy, summed over beats and boards:
    /// `[prefetch DMA-in, execute, writeback DMA-out]`.
    pub stage_time: [SimDuration; 3],
    /// Virtual time the boards occupied while pipelining — the per-beat
    /// overlap window, summed.
    pub window_time: SimDuration,
    /// Virtual time hidden by DMA/compute overlap: serial stage time
    /// minus the overlap window, summed.
    pub overlap_saved: SimDuration,
}

/// Counters of lane gathering (zero unless `lanes > 1`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LaneStats {
    /// Execute passes that gathered ≥ 2 same-design jobs into one laned
    /// pass.
    pub laned_passes: u64,
    /// Execute passes that computed a single job.
    pub scalar_passes: u64,
    /// Jobs computed through laned passes.
    pub laned_jobs: u64,
}

/// Reliability counters (zero with the guard disabled).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GuardStats {
    /// Single-event upsets injected across all boards.
    pub upsets_injected: u64,
    /// Injected upsets that refreshed the frame's stored CRC — invisible
    /// to a CRC read-back, caught only by deep scrubs or votes.
    pub upsets_stealthy: u64,
    /// Ground truth: executions that ran on a corrupt configuration.
    pub corrupt_executes: u64,
    /// In-flight jobs discarded and requeued because a detector fired.
    /// A detection discards every in-flight result, so this can exceed
    /// `corrupt_executes`.
    pub detected_corruptions: u64,
    /// Ground truth: corrupt results that reached a client. Zero under
    /// [`GuardConfig::protected`](crate::GuardConfig::protected) with
    /// CRC-visible upsets — the end-to-end reliability guarantee.
    pub silent_corruptions: u64,
    /// Full golden-image scrub passes (periodic plus anti-stealth).
    pub scrubs: u64,
    /// Targeted frame repairs after a CRC detection.
    pub repairs: u64,
    /// Virtual time spent scrubbing and repairing configurations.
    pub scrub_time: SimDuration,
    /// Virtual time spent on CRC scans and re-execution votes.
    pub check_time: SimDuration,
    /// Virtual time wasted on discarded suspect executions and retry
    /// backoff.
    pub wasted_time: SimDuration,
    /// Suspect-job requeues performed.
    pub retries: u64,
    /// Jobs given up on after exhausting the retry budget.
    pub faulted: u64,
    /// Summed virtual latency from each upset's arrival to its repair.
    pub detection_latency: SimDuration,
    /// Upsets whose detection latency was measured (upsets healed by a
    /// task switch don't count).
    pub detected_upsets: u64,
    /// Configuration frames repaired per board by scrubs and repairs.
    pub scrub_frames: Vec<u64>,
}

impl fmt::Debug for ShardStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("ShardStats");
        d.field("submitted", &self.submitted)
            .field("completed", &self.completed)
            .field("rejected", &self.rejected)
            .field("rejected_by_class", &self.rejected_by_class)
            .field("per_kind", &self.per_kind)
            .field("affinity_hits", &self.affinity_hits)
            .field("full_loads", &self.full_loads)
            .field("partial_switches", &self.partial_switches)
            .field("reconfig_time", &self.reconfig_time)
            .field("dma_time", &self.dma_time)
            .field("execute_time", &self.execute_time)
            .field("board_busy", &self.board_busy)
            .field("latency", &self.latency)
            .field("queue_wait", &self.queue_wait)
            .field("quarantined", &self.quarantined)
            .field("last_done", &self.last_done);
        if self.pipeline != PipelineStats::default() {
            d.field("pipeline", &self.pipeline);
        }
        if self.lanes != LaneStats::default() {
            d.field("lanes", &self.lanes);
        }
        if self.guard != GuardStats::default() {
            d.field("guard", &self.guard);
        }
        d.finish()
    }
}

/// `num / den`, or zero when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

impl ShardStats {
    /// Fraction of completions served without a task switch.
    pub fn affinity_hit_rate(&self) -> f64 {
        ratio(self.affinity_hits as f64, self.completed as f64)
    }

    /// Hardware task switches (full + partial) per completed job — the
    /// quantity reconfiguration-aware batching minimises.
    pub fn switches_per_job(&self) -> f64 {
        ratio(
            (self.full_loads + self.partial_switches) as f64,
            self.completed as f64,
        )
    }

    /// The virtual makespan: the busiest board's total busy time.
    pub fn makespan(&self) -> SimDuration {
        self.board_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Busy time summed over all boards.
    pub fn busy_total(&self) -> SimDuration {
        self.board_busy.iter().copied().sum()
    }

    /// Completed jobs per second of *virtual* machine time
    /// (`completed / makespan`) — what the real hardware would serve,
    /// independent of how fast the host simulates it.
    pub fn virtual_jobs_per_sec(&self) -> f64 {
        ratio(self.completed as f64, self.makespan().as_secs_f64())
    }

    /// The `p`-quantile of end-to-end virtual latency in microseconds
    /// (the histogram's bucket bound).
    pub fn latency_us(&self, p: f64) -> f64 {
        self.latency.percentile(p) / 1e6
    }

    /// Fraction of serial stage time hidden by overlapping the DMA-in,
    /// execute and DMA-out stages: `overlap_saved / Σ stage_time`. Zero
    /// on a serial beat.
    pub fn overlap_efficiency(&self) -> f64 {
        let serial: SimDuration = self.pipeline.stage_time.iter().copied().sum();
        ratio(
            self.pipeline.overlap_saved.as_secs_f64(),
            serial.as_secs_f64(),
        )
    }

    /// Per-stage occupancy of pipelined board time
    /// (`stage_time[i] / window_time`).
    pub fn stage_occupancy(&self) -> [f64; 3] {
        let w = self.pipeline.window_time.as_secs_f64();
        self.pipeline.stage_time.map(|t| ratio(t.as_secs_f64(), w))
    }

    /// Mean jobs per laned execute pass (`laned_jobs / laned_passes`);
    /// zero when no pass gathered more than one job.
    pub fn lane_occupancy(&self) -> f64 {
        ratio(self.lanes.laned_jobs as f64, self.lanes.laned_passes as f64)
    }

    /// Fraction of board busy time spent serving jobs rather than on
    /// reliability work: `1 − (scrub + check + wasted) / busy`. `1.0`
    /// with the guard disabled.
    pub fn availability(&self) -> f64 {
        let busy = self.busy_total().as_secs_f64();
        if busy <= 0.0 {
            return 1.0;
        }
        let g = &self.guard;
        let overhead = (g.scrub_time + g.check_time + g.wasted_time).as_secs_f64();
        (1.0 - overhead / busy).max(0.0)
    }

    /// Mean virtual busy time between configuration upsets, in seconds —
    /// infinite when no upset was injected.
    pub fn mtbf(&self) -> f64 {
        if self.guard.upsets_injected == 0 {
            f64::INFINITY
        } else {
            self.busy_total().as_secs_f64() / self.guard.upsets_injected as f64
        }
    }

    /// Fraction of board busy time spent on integrity work alone
    /// (scrubs, repairs, CRC scans, votes).
    pub fn scrub_overhead(&self) -> f64 {
        ratio(
            (self.guard.scrub_time + self.guard.check_time).as_secs_f64(),
            self.busy_total().as_secs_f64(),
        )
    }

    /// Mean virtual latency from an upset's arrival to its repair, in
    /// microseconds. Zero when nothing was detected.
    pub fn mean_detection_latency_us(&self) -> f64 {
        ratio(
            self.guard.detection_latency.as_secs_f64() * 1e6,
            self.guard.detected_upsets as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_brackets_picosecond_samples() {
        let mut h = LogHistogram::new();
        // 50 µs in picos = 5e7; the tail sample sits three decades up.
        for _ in 0..90 {
            h.record_virtual(SimDuration::from_micros(50));
        }
        for _ in 0..10 {
            h.record_virtual(SimDuration::from_millis(50));
        }
        assert_eq!(h.count(), 100);
        let p50 = h.p50();
        assert!(
            (5e7..2e8).contains(&p50),
            "p50 bucket should bracket 50 µs: {p50}"
        );
        assert!(h.p99() >= h.p95() && h.p95() >= h.p50());
        assert!(h.p99() >= 5e10, "p99 must see the 50 ms tail: {}", h.p99());
        assert_eq!(h.max(), SimDuration::from_millis(50).as_picos());
        assert!(h.p95() >= 5e10, "p95 sits at the 5% tail: {}", h.p95());
        assert!(h.mean() > 5e7);
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let (mut a, mut b, mut all) = (
            LogHistogram::new(),
            LogHistogram::new(),
            LogHistogram::new(),
        );
        for v in [1u64, 7, 63, 1 << 20, u64::MAX] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 4096, 1 << 33] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all, "merge must equal recording into one histogram");
    }

    #[test]
    fn log_histogram_zero_and_max_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0) > 0.0);
    }
}
