//! The purity contract of `atlantis_apps::jobs`: a job's outcome is a
//! function of its `JobSpec` alone. The cluster's outcome stage computes
//! outcomes on other threads, ahead of the virtual clock, and every
//! determinism fingerprint assumes this; here it is checked directly.
//!
//! For random specs of every kind, across each kind's full clamped size
//! range and random seeds:
//! - `execute` on a context with an arbitrary prior history equals
//!   `execute` on a fresh `WorkloadContext`;
//! - `execute_batch` equals serial `execute`, both for mixed batches and
//!   for all-TRT batches (the laned path).

use atlantis_apps::jobs::{JobKind, JobSpec, WorkloadContext};
use proptest::prelude::*;

/// A spec of kind `JobKind::ALL[kind]`. Sizes are drawn past both ends of
/// every kind's range, so the constructors' clamps are exercised too.
fn spec((kind, size, seed): (usize, u32, u64)) -> JobSpec {
    match JobKind::ALL[kind] {
        JobKind::TrtEvent => JobSpec::trt(seed),
        JobKind::VolumeFrame => JobSpec::volume(size, seed),
        JobKind::ImageFilter => JobSpec::image(size, seed),
        JobKind::NBodyStep => JobSpec::nbody(size, seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn outcomes_depend_on_the_spec_alone(
        history in proptest::collection::vec((0usize..4, 0u32..600, any::<u64>()), 0..6),
        specs in proptest::collection::vec((0usize..4, 0u32..600, any::<u64>()), 1..5),
        trt in proptest::collection::vec(any::<u64>(), 2..9),
    ) {
        let mut warm = WorkloadContext::new();
        for s in history {
            warm.execute(&spec(s));
        }
        let specs: Vec<JobSpec> = specs.into_iter().map(spec).collect();
        let mut fresh = Vec::new();
        for s in &specs {
            let want = WorkloadContext::new().execute(s);
            prop_assert_eq!(warm.execute(s), want, "{:?} after history", s);
            fresh.push(want);
        }
        prop_assert_eq!(warm.execute_batch(&specs), fresh);

        let trt: Vec<JobSpec> = trt.into_iter().map(JobSpec::trt).collect();
        let serial: Vec<_> = trt.iter().map(|s| warm.execute(s)).collect();
        prop_assert_eq!(WorkloadContext::new().execute_batch(&trt), serial.clone());
        prop_assert_eq!(warm.execute_batch(&trt), serial);
    }
}
