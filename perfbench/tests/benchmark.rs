//! The benchmark's own tests: replay determinism of the cluster
//! workloads, seed sensitivity, and agreement between `BENCHMARK.json`
//! and what a run prints.

use atlantis_perfbench::cluster::{self, Totals};
use atlantis_perfbench::metrics::{render, END_TO_END, PER_LAYER};
use atlantis_perfbench::{run, RunConfig, Size, Workload};

/// A run small enough for a test: one round of a few hundred jobs.
fn tiny(workload: Workload, seed: u64, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed,
        seconds: 1e-3,
        trace,
        size: Size {
            streams: 2,
            jobs: 400,
            events: 3,
            frames: 1,
        },
        trace_dir: None,
    }
}

const CLUSTER: [Workload; 2] = [Workload::ClusterSteady, Workload::ClusterOverload];

#[test]
fn same_seed_cluster_runs_agree_on_every_virtual_metric() {
    for w in CLUSTER {
        let totals = || {
            let streams = cluster::arrivals(w, 7, 2, 600);
            let passes: Vec<_> = streams
                .iter()
                .map(|a| cluster::serve(&cluster::config(), a, true, None))
                .collect();
            let details: Vec<_> = passes.iter().map(|p| p.detail.clone().unwrap()).collect();
            let prints: Vec<_> = passes.into_iter().map(|p| p.fingerprint).collect();
            (Totals::of(&details), prints)
        };
        let (a, fa) = totals();
        let (b, fb) = totals();
        assert_eq!(fa, fb, "{}: fingerprints replay byte for byte", w.name());
        assert_eq!(
            a,
            b,
            "{}: goodput, latencies, switches, sheds, steals",
            w.name()
        );
        assert_eq!(a.offered, 1_200);

        // The same through the command's own metrics, untraced and traced.
        let virtual_e2e = ["goodput", "virt_latency_mean_us", "virt_latency_p99_us"];
        let (x, y) = (run(&tiny(w, 7, false)), run(&tiny(w, 7, false)));
        for name in virtual_e2e {
            assert_eq!(
                x.outcome.metrics.get(name),
                y.outcome.metrics.get(name),
                "{name}"
            );
        }
        let (x, y) = (run(&tiny(w, 7, true)), run(&tiny(w, 7, true)));
        for name in VIRTUAL_PER_LAYER {
            let v = x.outcome.metrics.get(name);
            assert!(v.is_some(), "{name} is measured on {}", w.name());
            assert_eq!(v, y.outcome.metrics.get(name), "{name}");
        }
    }
}

/// Per-layer metrics of the cluster workloads that live on the virtual
/// clock, so replays must reproduce them exactly.
const VIRTUAL_PER_LAYER: [&str; 15] = [
    "cluster.shed.queue_full",
    "cluster.shed.tenant_quota",
    "cluster.shed.class_shed",
    "cluster.spill_share",
    "cluster.affinity_hit_rate",
    "cluster.steal.warm",
    "cluster.steal.cold",
    "cluster.steal.below_breakeven",
    "cluster.steal.jobs",
    "runtime.switches",
    "runtime.switches_per_job",
    "runtime.queue_wait_p99_us",
    "runtime.reconfig_virtual_s",
    "runtime.dma_virtual_s",
    "runtime.execute_virtual_s",
];

#[test]
fn overload_sheds_and_switches_where_steady_does_not() {
    let steady = run(&tiny(Workload::ClusterSteady, 3, true)).outcome.metrics;
    let overload = run(&tiny(Workload::ClusterOverload, 3, true))
        .outcome
        .metrics;
    assert!(steady.get("runtime.switches") < overload.get("runtime.switches"));
    let shed = |m: &atlantis_perfbench::metrics::Metrics| {
        m.get("cluster.shed.queue_full").unwrap() + m.get("cluster.shed.class_shed").unwrap()
    };
    assert_eq!(shed(&steady), 0.0);
    assert!(shed(&overload) > 0.0);
}

#[test]
fn a_different_seed_changes_the_arrivals() {
    for w in CLUSTER {
        let times = |seed| -> Vec<u64> {
            cluster::arrivals(w, seed, 1, 200)[0]
                .iter()
                .map(|a| a.at.since(atlantis_simcore::SimTime::ZERO).as_picos())
                .collect()
        };
        assert_eq!(times(1), times(1));
        assert_ne!(times(1), times(2), "{}", w.name());
    }
    let bank = atlantis_perfbench::chdl::bank(1);
    let hits = |seed| {
        atlantis_perfbench::chdl::inputs(seed, &bank, 2, 0).events[0]
            .hits
            .clone()
    };
    assert_ne!(hits(1), hits(2));
}

/// The entry `BENCHMARK.json` gives a metric, as the file spells it.
fn declared_entry(name: &str, unit: &str) -> String {
    format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\",")
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
    let names = doc.matches("\"name\": ").count();
    assert_eq!(
        names,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares exactly the code's workloads and metrics"
    );
    for w in Workload::ALL {
        assert!(
            doc.contains(&format!("\"name\": \"{}\",", w.name())),
            "BENCHMARK.json declares workload {}",
            w.name()
        );
    }
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            doc.contains(&declared_entry(name, unit)),
            "BENCHMARK.json declares {name} in {unit}"
        );
    }

    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&tiny(w, 11, trace));
            let set = if trace { PER_LAYER } else { END_TO_END };
            let (lines, line) = render(&report.outcome, set);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{}: {line}",
                w.name()
            );
            assert!(line.contains(", \"failed\": 0, \"metrics\": {"), "{line}");
            assert!(report.outcome.attempted >= 1);
            assert_eq!(line.matches("\"value\": ").count(), set.len());
            for &(name, unit) in set {
                let value = line
                    .split(&format!("\"{name}\": {{\"value\": "))
                    .nth(1)
                    .unwrap_or_else(|| panic!("{} prints {name}", w.name()));
                assert!(
                    value.contains(&format!(", \"unit\": \"{unit}\"}}")),
                    "{name} is printed in {unit}"
                );
                assert!(lines
                    .iter()
                    .any(|l| l.starts_with(&format!("metric {name} = "))));
            }
            if !trace {
                for &(name, _) in END_TO_END {
                    let v = report.outcome.metrics.get(name);
                    assert!(
                        v.is_some_and(|v| v > 0.0),
                        "{}: {name} is measured and never 0, got {v:?}",
                        w.name()
                    );
                }
            }
        }
    }
}
