//! Property tests of the shared scheduling core's pick: random push,
//! requeue and pick sequences under random `PickConfig`s, checked
//! against a shadow copy of the queue that only tracks order and skip
//! counts — it never decides a pick itself.

use atlantis_apps::jobs::JobKind;
use atlantis_runtime::{Affinity, PickConfig, Priority, SchedCore, Schedulable};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::VecDeque;

const PRIORITIES: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

#[derive(Debug, Clone, Copy)]
struct Item {
    id: u64,
    priority: Priority,
    kind: JobKind,
}

impl Schedulable for Item {
    fn priority(&self) -> Priority {
        self.priority
    }

    fn kind(&self) -> JobKind {
        self.kind
    }
}

/// `(id, kind, skips)` per class, in queue order.
type Shadow = [VecDeque<(u64, JobKind, u32)>; 3];

/// Pick once and check every pick property against the shadow; keep
/// the shadow in step with the core.
fn pick_and_check(
    core: &mut SchedCore<Item>,
    shadow: &mut Shadow,
    pick: PickConfig,
    affinity: Affinity,
) -> Result<Option<Item>, TestCaseError> {
    let got = core.pick(&affinity);
    let Some(c) = shadow.iter().position(|q| !q.is_empty()) else {
        prop_assert!(got.is_none(), "an empty queue yields nothing");
        return Ok(None);
    };
    let item = got.expect("a non-empty queue always yields an item");
    // Never a lower class while a higher class is non-empty.
    prop_assert_eq!(
        item.priority.index(),
        c,
        "picked below the urgent-most class"
    );
    let class = &mut shadow[c];
    let j = class
        .iter()
        .position(|&(id, _, _)| id == item.id)
        .expect("the picked item was queued in its class");
    let (_, head_kind, head_skips) = class[0];
    if j > 0 {
        let prefer = affinity.prefer(pick.batch_window);
        // Only a preferred pick reorders, and never past the scan window.
        prop_assert!(pick.batch_window > 0, "FIFO reordered a class");
        prop_assert_eq!(prefer, Some(item.kind));
        prop_assert!(
            j < pick.scan_depth,
            "reached {} past scan depth {}",
            j,
            pick.scan_depth
        );
        // An aged head is never passed over.
        prop_assert!(head_skips < pick.aging_limit, "passed an aged head");
        // The earliest preferred-kind entry is the one taken.
        prop_assert!(class.iter().take(j).all(|&(_, k, _)| k != item.kind));
        for e in class.iter_mut().take(j) {
            e.2 += 1;
        }
    } else if let Some(k) = affinity.prefer(pick.batch_window) {
        // A head pick under a live preference and an unaged head: no
        // preferred entry was within reach, unless the head is one.
        if head_skips < pick.aging_limit && head_kind != k {
            prop_assert!(
                class
                    .iter()
                    .take(pick.scan_depth)
                    .all(|&(_, kk, _)| kk != k),
                "a preferred entry within the scan window was ignored"
            );
        }
    }
    class.remove(j);
    Ok(Some(item))
}

fn pick_config(window: usize, depth: usize, aging: u32) -> PickConfig {
    PickConfig {
        batch_window: window,
        scan_depth: depth,
        aging_limit: aging,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random interleavings of push, requeue and pick: every pick obeys
    /// the class order, the aging bound, the scan window and the batch
    /// window, and the queue drains to exactly what was admitted.
    #[test]
    fn pick_obeys_classes_aging_scan_and_window(
        window in 0usize..6,
        depth in 1usize..8,
        aging in 0u32..5,
        capacity in 0usize..24,
        ops in proptest::collection::vec((0u8..5, 0usize..3, 0usize..4, 0usize..4, 0usize..8), 1..160),
    ) {
        let pick = pick_config(window, depth, aging);
        let mut core = SchedCore::new(capacity, pick);
        prop_assert_eq!(core.capacity(), capacity.max(1));
        let mut shadow: Shadow = Default::default();
        let mut next_id = 0u64;
        let mut admitted = 0u64;
        let mut served = 0u64;
        for (op, prio, kind, loaded, batch_len) in ops {
            let item = Item { id: next_id, priority: PRIORITIES[prio], kind: JobKind::ALL[kind] };
            match op {
                0 | 1 => {
                    next_id += 1;
                    let full = core.len() >= core.capacity();
                    match core.push(item) {
                        Ok(()) => {
                            prop_assert!(!full);
                            shadow[prio].push_back((item.id, item.kind, 0));
                            admitted += 1;
                        }
                        Err(back) => {
                            prop_assert!(full);
                            prop_assert_eq!(back.id, item.id);
                        }
                    }
                }
                2 => {
                    next_id += 1;
                    core.push_front(item);
                    shadow[prio].push_front((item.id, item.kind, 0));
                    admitted += 1;
                }
                _ => {
                    let affinity = Affinity {
                        loaded: (loaded < JobKind::COUNT).then(|| JobKind::ALL[loaded]),
                        batch_len,
                    };
                    if pick_and_check(&mut core, &mut shadow, pick, affinity)?.is_some() {
                        served += 1;
                    }
                }
            }
            prop_assert_eq!(core.len(), shadow.iter().map(VecDeque::len).sum::<usize>());
        }
        let affinity = Affinity { loaded: Some(JobKind::ALL[0]), batch_len: 0 };
        while pick_and_check(&mut core, &mut shadow, pick, affinity)?.is_some() {
            served += 1;
        }
        prop_assert_eq!(served, admitted);
        prop_assert!(core.is_empty());
    }

    /// `batch_window: 0` is strict per-class FIFO whatever the board has
    /// loaded, and a requeued item is served before every older entry
    /// of its class.
    #[test]
    fn fifo_serves_each_class_in_order_and_requeues_first(
        depth in 1usize..8,
        aging in 0u32..5,
        items in proptest::collection::vec((0usize..3, 0usize..4), 1..40),
        requeue in (0usize..3, 0usize..4),
        loaded in 0usize..4,
    ) {
        let mut core = SchedCore::new(64, pick_config(0, depth, aging));
        let mut expect: [Vec<u64>; 3] = Default::default();
        for (id, &(prio, kind)) in items.iter().enumerate() {
            let item = Item { id: id as u64, priority: PRIORITIES[prio], kind: JobKind::ALL[kind] };
            core.push(item).expect("under capacity");
            expect[prio].push(item.id);
        }
        let rq = Item {
            id: items.len() as u64,
            priority: PRIORITIES[requeue.0],
            kind: JobKind::ALL[requeue.1],
        };
        core.push_front(rq);
        expect[requeue.0].insert(0, rq.id);
        let affinity = Affinity { loaded: Some(JobKind::ALL[loaded]), batch_len: 0 };
        let mut got: [Vec<u64>; 3] = Default::default();
        let mut last_class = 0;
        while let Some(item) = core.pick(&affinity) {
            prop_assert!(item.priority.index() >= last_class, "classes drain urgent-first");
            last_class = item.priority.index();
            got[last_class].push(item.id);
        }
        prop_assert_eq!(got, expect);
    }
}

/// A reconfiguration-aware pick under a requeue: the requeued item is at
/// the head of its class, so once that head ages out it is served next
/// even though the board prefers another design.
#[test]
fn an_aged_requeued_head_is_served_before_preferred_work() {
    let pick = pick_config(64, 8, 2);
    let mut core = SchedCore::new(16, pick);
    let trt = |id| Item {
        id,
        priority: Priority::Normal,
        kind: JobKind::TrtEvent,
    };
    for id in 0..4 {
        core.push(trt(id)).unwrap();
    }
    core.push_front(Item {
        id: 99,
        priority: Priority::Normal,
        kind: JobKind::NBodyStep,
    });
    let affinity = Affinity {
        loaded: Some(JobKind::TrtEvent),
        batch_len: 0,
    };
    let order: Vec<u64> = std::iter::from_fn(|| core.pick(&affinity).map(|i| i.id)).collect();
    assert_eq!(order, [0, 1, 99, 2, 3]);
}
