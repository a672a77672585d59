//! Determinism: a fixed-seed multi-shard campaign must replay
//! byte-identically, and the router must agree with a brute-force
//! oracle on every affinity/spill decision.

use atlantis_apps::jobs::{JobKind, JobSpec};
use atlantis_cluster::{
    router::{rendezvous_weight, RouteKind, Router, RoutingPolicy, ShardView},
    AdmissionConfig, Cluster, ClusterConfig, LoadGen, LoadGenConfig, StealConfig, StealingPolicy,
};
use atlantis_fabric::Device;
use atlantis_guard::DegradationConfig;
use atlantis_runtime::{
    BitstreamCache, PickConfig, Priority, ShardConfig, ShardJob, ShardScheduler,
};
use atlantis_simcore::rng::WorkloadRng;
use atlantis_simcore::SimTime;
use std::sync::Arc;

fn campaign_config(seed: u64) -> (ClusterConfig, LoadGenConfig) {
    (
        ClusterConfig {
            shards: 4,
            shard: ShardConfig {
                boards: 2,
                queue_capacity: 32,
                ..ShardConfig::default()
            },
            routing: RoutingPolicy::Affinity {
                spill_threshold: 4.0,
            },
            admission: AdmissionConfig {
                tenant_quota: 24,
                ..AdmissionConfig::default()
            },
            // Active degradation, hot enough that boards quarantine
            // inside the campaign's few tens of virtual milliseconds —
            // quarantines must interleave with serving.
            degradation: DegradationConfig {
                upset_rate: 120.0,
                quarantine_after: 3,
                seed,
            },
            ..ClusterConfig::default()
        },
        LoadGenConfig {
            seed,
            // ~3x the eight boards' batched capacity: the queues fill
            // and the admission layer must shed.
            rate: 60_000.0,
            jobs: 600,
            tenants: 12,
            ..LoadGenConfig::default()
        },
    )
}

/// The tentpole determinism claim: same seed → byte-identical stats
/// fingerprint, across a campaign that exercises routing, spilling,
/// class shedding, tenant quotas and mid-run quarantines.
#[test]
fn fixed_seed_campaign_fingerprints_identically() {
    let run = |seed| {
        let (cc, lc) = campaign_config(seed);
        let mut cluster = Cluster::new(cc).unwrap();
        let fins = cluster.run_open_loop(LoadGen::new(lc));
        // Completion *order* is part of the determinism contract too.
        let trace: Vec<(u64, usize, u64)> = fins
            .iter()
            .map(|f| (f.inner.id, f.shard, f.inner.checksum))
            .collect();
        (cluster.fingerprint(), trace, cluster.stats().clone())
    };
    let (fa, ta, sa) = run(1234);
    let (fb, tb, sb) = run(1234);
    assert_eq!(fa, fb, "fingerprints replay byte-identically");
    assert_eq!(ta, tb, "completion traces replay identically");
    assert_eq!(sa, sb);
    // The campaign actually exercised the machinery it claims to.
    assert!(sa.completed > 0 && sa.shed > 0, "overload campaign sheds");
    assert!(sa.quarantined > 0, "degradation model quarantined boards");
    // A different seed is a different campaign.
    let (fc, _, _) = run(99);
    assert_ne!(fa, fc, "seeds select distinct campaigns");
}

fn synthetic_views(rng: &mut WorkloadRng, shards: usize) -> Vec<ShardView> {
    (0..shards)
        .map(|index| ShardView {
            index,
            active_boards: 1 + rng.below(4) as usize,
            queue_depth: rng.below(24) as usize,
            queue_capacity: 32,
            in_flight: rng.below(4) as usize,
            backplane_util: rng.unit() * 0.5,
        })
        .collect()
}

/// Brute-force oracle for one routing decision: recompute every
/// rendezvous weight, apply the documented spill rule longhand, and
/// demand the router agree — shard choice *and* decision kind.
#[test]
fn router_matches_brute_force_oracle() {
    let spill_threshold = 3.0;
    let mut router = Router::new(RoutingPolicy::Affinity { spill_threshold });
    let mut rng = WorkloadRng::seed_from_u64(0xFACADE);
    let mut spills = 0u32;
    let mut affinities = 0u32;
    for trial in 0..500 {
        let views = synthetic_views(&mut rng, 2 + (trial % 5));
        let kind = JobKind::ALL[trial % JobKind::ALL.len()];

        // Oracle, from first principles:
        // 1. the balanced greedy assignment longhand — kinds in ALL
        //    order, each to its heaviest live shard still under the
        //    cap of ceil(kinds / live shards) designs;
        let live = views.iter().filter(|v| v.active_boards > 0).count().max(1);
        let cap = JobKind::ALL.len().div_ceil(live);
        let mut assigned = vec![0usize; views.len()];
        let mut preferred = 0usize;
        for &k in &JobKind::ALL {
            let mut best: Option<usize> = None;
            let mut best_w = 0.0f64;
            for (i, v) in views.iter().enumerate() {
                if assigned[i] >= cap || v.active_boards == 0 {
                    continue;
                }
                let w = rendezvous_weight(k, v.index, v.active_boards);
                if best.is_none() || w > best_w {
                    best = Some(i);
                    best_w = w;
                }
            }
            let b = best.unwrap_or(0);
            assigned[b] += 1;
            if k == kind {
                preferred = b;
            }
        }
        // 2. below the spill threshold the owner serves; otherwise the
        //    lowest-load shard does (ties → lowest index).
        let least = views.iter().enumerate().fold(0usize, |best, (i, v)| {
            if v.load() < views[best].load() {
                i
            } else {
                best
            }
        });
        // ... an over-threshold owner that is still the least-loaded
        // shard keeps the job (and the Affinity label).
        let expect = if views[preferred].load() < spill_threshold || least == preferred {
            (views[preferred].index, RouteKind::Affinity)
        } else {
            (views[least].index, RouteKind::Spill)
        };

        let got = router.route(kind, &views);
        assert_eq!(got, expect, "trial {trial}: views {views:?}");
        match got.1 {
            RouteKind::Spill => spills += 1,
            RouteKind::Affinity => affinities += 1,
            RouteKind::Direct => unreachable!("affinity policy never routes Direct"),
        }
    }
    // The synthetic load mix must exercise both branches or the oracle
    // proves nothing.
    assert!(spills > 20, "only {spills} spill decisions tested");
    assert!(
        affinities > 20,
        "only {affinities} affinity decisions tested"
    );
}

/// Zero-capacity shards can never win rendezvous — the live re-weighting
/// guarantee the elastic-capacity design leans on.
#[test]
fn rendezvous_never_elects_a_dead_shard() {
    for &kind in &JobKind::ALL {
        for dead in 0..4usize {
            let views: Vec<ShardView> = (0..4)
                .map(|index| ShardView {
                    index,
                    active_boards: if index == dead { 0 } else { 2 },
                    queue_depth: 0,
                    queue_capacity: 32,
                    in_flight: 0,
                    backplane_util: 0.0,
                })
                .collect();
            assert_ne!(
                views[Router::preferred(kind, &views)].index,
                dead,
                "{kind:?} homed onto a zero-capacity shard"
            );
        }
    }
}

// ---- golden scheduler pins -------------------------------------------
//
// The digests pin the scheduler's exact behaviour — every pick, every
// virtual timestamp, every counter — so a refactor of the scheduling
// core must leave them unchanged. A change that is *meant* to alter
// scheduling (a new placement rule, a switch-breakeven test) re-pins
// them by running these tests with `GOLDEN_PRINT=1` and `--nocapture`,
// pasting the printed values, and saying why in CHANGES.md.

/// FNV-1a (64-bit) over a byte stream — hand-rolled so the pins need no
/// hashing dependency and never change with a library version.
fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digest of one open-loop campaign: the cluster fingerprint plus the
/// completion trace `(id, shard, board, checksum, done)` in retirement
/// order.
fn campaign_digest(cc: ClusterConfig, lc: LoadGenConfig) -> u64 {
    let mut cluster = Cluster::new(cc).unwrap();
    let fins = cluster.run_open_loop(LoadGen::new(lc));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut h, cluster.fingerprint().as_bytes());
    for f in &fins {
        for word in [
            f.inner.id,
            f.shard as u64,
            f.inner.board as u64,
            f.inner.checksum,
            f.inner.done.as_picos(),
        ] {
            fnv1a(&mut h, &word.to_le_bytes());
        }
    }
    h
}

fn check_pin(name: &str, got: u64, want: u64) {
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("{name}: {got:#018x}");
    }
    assert_eq!(got, want, "{name}: scheduling behaviour moved");
}

/// Nominal fleet capacity of 8 warm boards, jobs per virtual second.
const FLEET_CAPACITY: f64 = 35_125.0 * 8.0;

#[test]
fn golden_degradation_campaign_digest() {
    let (cc, lc) = campaign_config(1234);
    check_pin(
        "degradation seed 1234",
        campaign_digest(cc, lc),
        0x243a_2b6b_dcbc_665d,
    );
}

/// The benchmark's fleet — 4 shards x 2 boards, queue 32, stealing on —
/// at 1.0x load: the reconfiguration-bound overload path.
#[test]
fn golden_stealing_fleet_full_load_digest() {
    let cc = ClusterConfig {
        shards: 4,
        shard: ShardConfig {
            boards: 2,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        stealing: StealingPolicy::Enabled(StealConfig::default()),
        ..ClusterConfig::default()
    };
    let lc = LoadGenConfig {
        seed: 1,
        rate: FLEET_CAPACITY,
        jobs: 2_000,
        ..LoadGenConfig::default()
    };
    check_pin(
        "fleet 4x2 stealing 1.0x",
        campaign_digest(cc, lc),
        0x83dc_7e8d_d761_1e69,
    );
}

/// One shard of eight boards at 0.125x load — the intra-shard design
/// thrash shape: every family shares one queue, and idle boards
/// reconfigure for the queue head with no cost/benefit test. A
/// switch-breakeven placement rule is expected to change this pin.
#[test]
fn golden_single_shard_thrash_shape_digest() {
    let cc = ClusterConfig {
        shards: 1,
        shard: ShardConfig {
            boards: 8,
            queue_capacity: 32,
            ..ShardConfig::default()
        },
        ..ClusterConfig::default()
    };
    let lc = LoadGenConfig {
        seed: 1,
        rate: 0.125 * FLEET_CAPACITY,
        jobs: 2_000,
        ..LoadGenConfig::default()
    };
    check_pin(
        "1x8 at 0.125x",
        campaign_digest(cc, lc),
        0x6c4e_3540_0312_42ae,
    );
}

/// The service order of a fixed 40-job mixed backlog (three priority
/// classes, four kinds) on one board, all admitted at once.
fn backlog_pick_order(pick: ShardConfig) -> Vec<u64> {
    let cache = Arc::new(BitstreamCache::new(Device::orca_3t125()));
    cache.prefit_all().unwrap();
    let mut shard = ShardScheduler::new(
        ShardConfig {
            boards: 1,
            queue_capacity: 64,
            ..pick
        },
        cache,
    )
    .unwrap();
    for i in 0..40u64 {
        let priority = match i % 7 {
            0 => Priority::High,
            3 | 5 => Priority::Low,
            _ => Priority::Normal,
        };
        let job = ShardJob {
            id: i,
            tenant: (i % 3) as u32,
            priority,
            spec: JobSpec::mixed(i),
        };
        shard.submit(SimTime::ZERO, job).unwrap();
    }
    shard.drain().iter().map(|f| f.id).collect()
}

#[test]
fn golden_backlog_pick_order() {
    let aware = backlog_pick_order(ShardConfig {
        pick: PickConfig {
            batch_window: 32,
            ..PickConfig::default()
        },
        ..ShardConfig::default()
    });
    let fifo = backlog_pick_order(ShardConfig {
        pick: PickConfig::fifo(),
        ..ShardConfig::default()
    });
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("aware: {aware:?}\nfifo: {fifo:?}");
    }
    assert_eq!(
        aware,
        [
            0, 35, 7, 21, 14, 28, 13, 15, 29, 30, 1, 2, 16, 18, 32, 34, 4, 6, 8, 9, 11, 25, 27, 20,
            22, 23, 36, 37, 39, 5, 38, 3, 17, 19, 33, 10, 24, 26, 12, 31
        ]
    );
    assert_eq!(
        fifo,
        [
            0, 7, 14, 21, 28, 35, 1, 2, 4, 6, 8, 9, 11, 13, 15, 16, 18, 20, 22, 23, 25, 27, 29, 30,
            32, 34, 36, 37, 39, 3, 5, 10, 12, 17, 19, 24, 26, 31, 33, 38
        ]
    );
}
