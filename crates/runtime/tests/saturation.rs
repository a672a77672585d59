//! Saturation behaviour: a deliberately tiny admission queue flooded
//! from many client threads must shed load by *rejecting* submissions
//! (bounded memory), while every accepted job still completes — no
//! deadlock, no lost in-flight work. The real threads exercise the
//! front's lock: submissions and waits from all of them drive the one
//! shard's virtual clock.

use atlantis_apps::jobs::JobSpec;
use atlantis_core::AtlantisSystem;
use atlantis_runtime::{JobRequest, Priority, Runtime, RuntimeError, ShardConfig, ShardReject};
use std::sync::Arc;

#[test]
fn overload_sheds_by_rejection_and_loses_nothing() {
    const CLIENTS: u32 = 8;
    const JOBS_PER_CLIENT: u64 = 40;

    let system = AtlantisSystem::builder().with_acbs(1).build();
    let config = ShardConfig {
        queue_capacity: 4,
        ..ShardConfig::host()
    };
    let rt = Arc::new(Runtime::serve(system, config).unwrap());

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || {
                let mut accepted = 0u64;
                let mut rejected = 0u64;
                let mut handles = Vec::new();
                for i in 0..JOBS_PER_CLIENT {
                    let spec = JobSpec::trt(u64::from(c) * 1_000 + i);
                    let priority = match i % 3 {
                        0 => Priority::High,
                        1 => Priority::Normal,
                        _ => Priority::Low,
                    };
                    match rt.submit(JobRequest::new(c, spec).with_priority(priority)) {
                        Ok(h) => {
                            accepted += 1;
                            handles.push(h);
                        }
                        Err(RuntimeError::Overloaded(ShardReject {
                            capacity,
                            depth,
                            priority: shed_class,
                            ..
                        })) => {
                            assert_eq!(capacity, 4);
                            assert!(depth >= capacity, "rejection reports queue depth");
                            assert_eq!(shed_class, priority, "rejection echoes the class");
                            rejected += 1;
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                // Every accepted job must complete with a real result.
                for h in handles {
                    let r = h.wait().expect("accepted job must complete");
                    assert_eq!(r.tenant, c);
                }
                (accepted, rejected)
            })
        })
        .collect();

    let mut accepted = 0u64;
    let mut rejected = 0u64;
    for t in clients {
        let (a, r) = t.join().expect("client thread must not panic");
        accepted += a;
        rejected += r;
    }

    assert_eq!(
        accepted + rejected,
        u64::from(CLIENTS) * JOBS_PER_CLIENT,
        "every offered job is either accepted or rejected — none vanish"
    );

    let rt = Arc::into_inner(rt).expect("all clients joined");
    let stats = rt.shutdown();
    assert_eq!(stats.submitted, accepted);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.completed, accepted, "accepted jobs all completed");
    assert_eq!(stats.guard.faulted, 0);
    // With a queue bound of 4 and 320 offered jobs racing one device,
    // backpressure must actually have engaged.
    assert!(
        rejected > 0,
        "flood against capacity 4 must reject some jobs"
    );
}
