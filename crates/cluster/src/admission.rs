//! Admission control: priority classes and per-tenant quotas in front
//! of every shard queue.
//!
//! A bounded queue alone sheds *whoever arrives last*, which is the
//! wrong answer under overload — a single chatty tenant can starve
//! everyone, and latency-critical work drowns behind batch work. The
//! cluster therefore refuses jobs *before* they reach a shard queue,
//! for one of three typed reasons:
//!
//! 1. **Tenant quota** — the tenant already has its full allowance of
//!    outstanding (admitted, not yet completed) jobs in the cluster.
//! 2. **Class shed** — the target shard's queue is filling, and the
//!    job's class sheds early: `Low` is refused once the queue passes
//!    `low_watermark`, `Normal` past `normal_watermark`, `High` only
//!    when the queue is actually full. Under overload the queue's tail
//!    is reserved for urgent work.
//! 3. **Queue full** — the hard bound, for `High` jobs too.
//!
//! Every refusal carries the queue depth seen and a retry-after hint
//! derived from the shard's service-time EWMA, mirroring the
//! [`ShardReject`](atlantis_runtime::ShardReject) that
//! [`RuntimeError::Overloaded`](atlantis_runtime::RuntimeError) carries
//! on the single-node front.

use atlantis_runtime::Priority;
use atlantis_simcore::SimDuration;

/// Why the cluster refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The target shard's queue was at its hard bound.
    QueueFull,
    /// The tenant hit its outstanding-job quota.
    TenantQuota,
    /// The job's priority class sheds early at the current queue depth.
    ClassShed,
}

impl ShedReason {
    /// Stable index for counters (`[QueueFull, TenantQuota, ClassShed]`).
    pub fn index(self) -> usize {
        match self {
            ShedReason::QueueFull => 0,
            ShedReason::TenantQuota => 1,
            ShedReason::ClassShed => 2,
        }
    }

    /// Every reason, in [`index`](Self::index) order.
    pub const ALL: [ShedReason; 3] = [
        ShedReason::QueueFull,
        ShedReason::TenantQuota,
        ShedReason::ClassShed,
    ];
}

/// A refused job: the typed reason plus enough context for the client
/// to back off intelligently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overloaded {
    /// Why the job was refused.
    pub reason: ShedReason,
    /// The shard the job was routed to.
    pub shard: usize,
    /// That shard's queue depth at refusal.
    pub queue_depth: usize,
    /// The refused job's class.
    pub priority: Priority,
    /// Estimated virtual time until the shard drains enough to accept —
    /// zero until the shard's service EWMA calibrates.
    pub retry_after: SimDuration,
}

/// Adaptive watermark tunables: scale the class watermarks by how far
/// the measured queue-wait tail sits from a target, instead of fixed
/// fill fractions. Off by default — the fixed behaviour is the
/// baseline every determinism pin was captured against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveWatermarks {
    /// Enable tracking (`false` keeps the fixed watermarks untouched).
    pub enabled: bool,
    /// The queue-wait p99 the controller steers toward.
    pub target_p99: SimDuration,
    /// Hard floor on the scale factor — watermarks never collapse
    /// below this fraction of their configured values, so a latency
    /// spike cannot shed everything.
    pub min_scale: f64,
    /// Hard ceiling on the scale factor (watermarks never exceed their
    /// configured values times this; capped at a fill of 1.0).
    pub max_scale: f64,
}

impl Default for AdaptiveWatermarks {
    fn default() -> Self {
        AdaptiveWatermarks {
            enabled: false,
            target_p99: SimDuration::from_millis(50),
            min_scale: 0.5,
            max_scale: 1.2,
        }
    }
}

/// Admission tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Maximum outstanding jobs per tenant across the cluster; `0`
    /// disables quotas.
    pub tenant_quota: usize,
    /// Queue-depth fraction past which `Low` jobs shed.
    pub low_watermark: f64,
    /// Queue-depth fraction past which `Normal` jobs shed.
    pub normal_watermark: f64,
    /// Measured-tail tracking of the class watermarks (off by default).
    pub adaptive: AdaptiveWatermarks,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_quota: 0,
            low_watermark: 0.70,
            normal_watermark: 0.85,
            adaptive: AdaptiveWatermarks::default(),
        }
    }
}

/// The cluster-wide admission state: per-tenant outstanding counts plus
/// the watermarks currently in force (the configured ones, unless
/// adaptive tracking has scaled them). Built with [`new`](Self::new) —
/// no `Default`, because zeroed watermarks would shed everything.
#[derive(Debug)]
pub struct AdmissionController {
    cfg: AdmissionConfig,
    low: f64,
    normal: f64,
    outstanding: Vec<u64>,
}

impl AdmissionController {
    /// A controller with the given tunables.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionController {
            cfg,
            low: cfg.low_watermark,
            normal: cfg.normal_watermark,
            outstanding: Vec::new(),
        }
    }

    /// The tunables in force.
    pub fn config(&self) -> AdmissionConfig {
        self.cfg
    }

    /// The `(low, normal)` watermarks currently applied — the
    /// configured pair unless [`adapt`](Self::adapt) has scaled them.
    pub fn watermarks(&self) -> (f64, f64) {
        (self.low, self.normal)
    }

    /// Track a measured queue-wait p99 (picoseconds, as the shard
    /// histograms report): when adaptive watermarks are enabled, scale
    /// both class watermarks by `target / measured`, clamped to the
    /// configured band — a tail above target tightens admission, a tail
    /// below it re-opens. A no-op when disabled or before the histogram
    /// has data.
    pub fn adapt(&mut self, measured_p99_ps: f64) {
        let a = self.cfg.adaptive;
        if !a.enabled || measured_p99_ps <= 0.0 {
            return;
        }
        let scale =
            (a.target_p99.as_picos() as f64 / measured_p99_ps).clamp(a.min_scale, a.max_scale);
        self.low = (self.cfg.low_watermark * scale).min(1.0);
        self.normal = (self.cfg.normal_watermark * scale).min(1.0);
    }

    /// Decide whether a job of `priority` from `tenant` may enter a
    /// queue currently `depth` deep with bound `capacity`. Does not
    /// mutate state — call [`note_admitted`](Self::note_admitted) after
    /// the shard actually takes the job.
    pub fn check(
        &self,
        tenant: u32,
        priority: Priority,
        depth: usize,
        capacity: usize,
    ) -> Result<(), ShedReason> {
        if depth >= capacity {
            return Err(ShedReason::QueueFull);
        }
        if self.cfg.tenant_quota > 0 && self.outstanding(tenant) >= self.cfg.tenant_quota as u64 {
            return Err(ShedReason::TenantQuota);
        }
        let fill = depth as f64 / capacity.max(1) as f64;
        let watermark = match priority {
            Priority::High => 1.0,
            Priority::Normal => self.normal,
            Priority::Low => self.low,
        };
        if fill >= watermark {
            return Err(ShedReason::ClassShed);
        }
        Ok(())
    }

    /// Record that `tenant`'s job entered a shard queue.
    pub fn note_admitted(&mut self, tenant: u32) {
        let i = tenant as usize;
        if i >= self.outstanding.len() {
            self.outstanding.resize(i + 1, 0);
        }
        self.outstanding[i] += 1;
    }

    /// Record that `tenant`'s job left the cluster (completed).
    pub fn note_done(&mut self, tenant: u32) {
        let i = tenant as usize;
        debug_assert!(self.outstanding.get(i).is_some_and(|&n| n > 0));
        if let Some(n) = self.outstanding.get_mut(i) {
            *n = n.saturating_sub(1);
        }
    }

    /// `tenant`'s outstanding job count.
    pub fn outstanding(&self, tenant: u32) -> u64 {
        self.outstanding.get(tenant as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_shed_at_their_watermarks() {
        let a = AdmissionController::new(AdmissionConfig::default());
        let cap = 100;
        // Below every watermark: everyone admitted.
        for p in [Priority::High, Priority::Normal, Priority::Low] {
            assert_eq!(a.check(0, p, 50, cap), Ok(()));
        }
        // Past the Low watermark only.
        assert_eq!(
            a.check(0, Priority::Low, 70, cap),
            Err(ShedReason::ClassShed)
        );
        assert_eq!(a.check(0, Priority::Normal, 70, cap), Ok(()));
        // Past Normal too; High holds to the bound.
        assert_eq!(
            a.check(0, Priority::Normal, 85, cap),
            Err(ShedReason::ClassShed)
        );
        assert_eq!(a.check(0, Priority::High, 99, cap), Ok(()));
        assert_eq!(
            a.check(0, Priority::High, 100, cap),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn quota_counts_outstanding_and_releases_on_done() {
        let mut a = AdmissionController::new(AdmissionConfig {
            tenant_quota: 2,
            ..AdmissionConfig::default()
        });
        assert_eq!(a.check(7, Priority::Normal, 0, 64), Ok(()));
        a.note_admitted(7);
        a.note_admitted(7);
        assert_eq!(a.outstanding(7), 2);
        assert_eq!(
            a.check(7, Priority::High, 0, 64),
            Err(ShedReason::TenantQuota),
            "quota binds every class"
        );
        assert_eq!(
            a.check(8, Priority::Normal, 0, 64),
            Ok(()),
            "other tenants unaffected"
        );
        a.note_done(7);
        assert_eq!(a.check(7, Priority::Normal, 0, 64), Ok(()));
    }

    #[test]
    fn queue_full_outranks_quota() {
        let mut a = AdmissionController::new(AdmissionConfig {
            tenant_quota: 1,
            ..AdmissionConfig::default()
        });
        a.note_admitted(1);
        assert_eq!(
            a.check(1, Priority::High, 64, 64),
            Err(ShedReason::QueueFull)
        );
    }

    #[test]
    fn reason_indices_are_stable() {
        for (i, r) in ShedReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn adaptive_watermarks_track_the_measured_tail() {
        let target = SimDuration::from_millis(50);
        let mut a = AdmissionController::new(AdmissionConfig {
            adaptive: AdaptiveWatermarks {
                enabled: true,
                target_p99: target,
                ..AdaptiveWatermarks::default()
            },
            ..AdmissionConfig::default()
        });
        assert_eq!(a.watermarks(), (0.70, 0.85));
        // Tail at 2× target: both watermarks halve → Low sheds earlier.
        a.adapt(2.0 * target.as_picos() as f64);
        let (low, normal) = a.watermarks();
        assert!((low - 0.35).abs() < 1e-9 && (normal - 0.425).abs() < 1e-9);
        assert_eq!(
            a.check(0, Priority::Low, 40, 100),
            Err(ShedReason::ClassShed)
        );
        // Tail well under target: the ceiling caps re-opening.
        a.adapt(0.1 * target.as_picos() as f64);
        let (low, normal) = a.watermarks();
        assert!((low - 0.70 * 1.2).abs() < 1e-9 && (normal - 1.0).abs() < 1e-9);
        // The floor holds under an extreme spike.
        a.adapt(1e3 * target.as_picos() as f64);
        assert!((a.watermarks().0 - 0.35).abs() < 1e-9);
    }

    #[test]
    fn adaptive_tracking_is_inert_by_default() {
        let mut a = AdmissionController::new(AdmissionConfig::default());
        a.adapt(1e12);
        a.adapt(1.0);
        assert_eq!(a.watermarks(), (0.70, 0.85), "disabled flag never moves");
    }
}
