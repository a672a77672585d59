//! Quarantine events as capacity deltas — the guard layer's interface
//! to the cluster's elastic capacity tracking.
//!
//! The serving engine's guard quarantines a board after repeated dirty
//! integrity events (DESIGN.md §11). At cluster scale the router needs
//! that same signal *ahead of time* on the deterministic virtual clock: a
//! shard whose board goes dark advertises less capacity and the router
//! re-weights live. [`QuarantinePlan`] precomputes, from a seeded
//! Poisson upset model like the guard's, the virtual instant each board accumulates enough upsets to be
//! quarantined, and replays those instants as ordered
//! [`CapacityDelta`]s while the cluster clock advances.

use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::{SimDuration, SimTime};

/// Seeded degradation model for one shard's boards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationConfig {
    /// Single-event upsets per second of virtual time, per board.
    pub upset_rate: f64,
    /// A board is quarantined at its N-th upset — the same
    /// repeated-dirty threshold the serving guard applies
    /// ([`GuardConfig::quarantine_after`](atlantis_runtime::GuardConfig)).
    pub quarantine_after: u32,
    /// Seed of the upset arrival process.
    pub seed: u64,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            upset_rate: 0.0,
            quarantine_after: 3,
            seed: 0xA71A_5EED,
        }
    }
}

impl DegradationConfig {
    /// Whether the model injects anything at all.
    pub fn is_active(&self) -> bool {
        self.upset_rate > 0.0
    }
}

/// One board dropping out of a shard's advertised capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityDelta {
    /// Virtual instant the quarantine takes effect.
    pub at: SimTime,
    /// The shard-local board index quarantined.
    pub board: usize,
}

/// The precomputed quarantine schedule for one shard: each board's
/// N-th-upset instant, replayed in time order as the clock advances.
#[derive(Debug, Clone)]
pub struct QuarantinePlan {
    events: Vec<CapacityDelta>,
    cursor: usize,
}

impl QuarantinePlan {
    /// Build the schedule for `boards` boards. `stream` decorrelates
    /// shards sharing one [`DegradationConfig`] (pass the shard index);
    /// each board then draws from its own forked RNG stream, mirroring
    /// the per-board streams of the serving guard.
    pub fn new(cfg: &DegradationConfig, boards: usize, stream: u64) -> Self {
        let mut events = Vec::new();
        if cfg.is_active() && cfg.quarantine_after > 0 {
            let root =
                WorkloadRng::seed_from_u64(cfg.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for board in 0..boards {
                let mut rng = root.fork(board as u64 + 1);
                let mut at = SimTime::ZERO;
                for _ in 0..cfg.quarantine_after {
                    at += SimDuration::from_secs_f64(rng.exp_gap(cfg.upset_rate));
                }
                events.push(CapacityDelta { at, board });
            }
            // Replay order must be deterministic: time, then board.
            events.sort_by_key(|e| (e.at, e.board));
        }
        QuarantinePlan { events, cursor: 0 }
    }

    /// A plan that never quarantines anything.
    pub fn inactive() -> Self {
        QuarantinePlan {
            events: Vec::new(),
            cursor: 0,
        }
    }

    /// The next scheduled quarantine instant, if any remain.
    pub fn peek_next(&self) -> Option<SimTime> {
        self.events.get(self.cursor).map(|e| e.at)
    }

    /// Drain every delta scheduled at or before `now`, in time order.
    pub fn pending_until(&mut self, now: SimTime) -> Vec<CapacityDelta> {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        self.events[start..self.cursor].to_vec()
    }

    /// Deltas not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64) -> DegradationConfig {
        DegradationConfig {
            upset_rate: rate,
            quarantine_after: 3,
            seed: 42,
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = QuarantinePlan::new(&cfg(100.0), 4, 0);
        let b = QuarantinePlan::new(&cfg(100.0), 4, 0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 4);
    }

    #[test]
    fn streams_decorrelate_shards() {
        let a = QuarantinePlan::new(&cfg(100.0), 4, 0);
        let b = QuarantinePlan::new(&cfg(100.0), 4, 1);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn higher_rate_quarantines_sooner() {
        let slow = QuarantinePlan::new(&cfg(10.0), 8, 0);
        let fast = QuarantinePlan::new(&cfg(10_000.0), 8, 0);
        let first = |p: &QuarantinePlan| p.events[0].at;
        assert!(first(&fast) < first(&slow));
    }

    #[test]
    fn pending_drains_in_time_order_exactly_once() {
        let mut p = QuarantinePlan::new(&cfg(1000.0), 6, 3);
        let all = p.events.clone();
        assert!(all.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        let mid = all[2].at;
        let early = p.pending_until(mid);
        assert_eq!(early, all[..3].to_vec());
        assert_eq!(p.remaining(), 3);
        assert_eq!(p.peek_next(), Some(all[3].at));
        let late = p.pending_until(SimTime::ZERO + SimDuration::from_secs(3600));
        assert_eq!(late, all[3..].to_vec());
        assert_eq!(p.remaining(), 0);
        assert!(p
            .pending_until(SimTime::ZERO + SimDuration::from_secs(7200))
            .is_empty());
    }

    #[test]
    fn inactive_plans_schedule_nothing() {
        let mut p = QuarantinePlan::new(&cfg(0.0), 4, 0);
        assert_eq!(p.peek_next(), None);
        assert!(p
            .pending_until(SimTime::ZERO + SimDuration::from_secs(10))
            .is_empty());
        assert_eq!(QuarantinePlan::inactive().remaining(), 0);
    }
}
