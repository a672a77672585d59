//! Superop fusion + partitioned evaluation + threaded dispatch bench
//! (DESIGN.md §12 and §14).
//!
//! Two netlists, four engine tunings:
//!
//! * **TRT-scale** (the `chdl_engine` workload, shared via
//!   [`atlantis_bench::trt`]): the unfused micro-op stream
//!   (`EngineConfig::unfused()`: fusion and parallel evaluation off, on
//!   the same netopt'd netlist) versus the fused stream under match
//!   dispatch — the fusion pass must buy ≥1.5x ns/cycle on its own. The dispatch tiers are then compared head-to-head in
//!   **streaming** mode (`EngineConfig::streaming`, the spill-burst /
//!   full-bank-scan regime where every eval sweeps the whole stream —
//!   per-hit sparsity routes both tiers through identical queue
//!   bookkeeping and would measure nothing): the PR 6 flat match sweep
//!   versus the stream *compiled to closure-chain run blocks*
//!   (`DispatchMode::Threaded`), which must buy ≥1.2x on the sweep.
//! * **Deep netlist** (wide × deep combinational fabric seeded by
//!   free-running counters, so every node toggles every cycle): serial
//!   per-op queue evaluation (`EngineConfig::serial()`) versus the
//!   partitioned/adaptive evaluator (`EngineConfig::default()`, which
//!   sweeps dense level ranges and fans partitions across worker threads
//!   when the host has them — on a single-core host the ≥2x win comes
//!   entirely from the level-sweep plan replacing per-op bookkeeping).
//!
//! Every measured run is cross-checked bit-for-bit against the
//! interpreter oracle, and the PR 1 floor (compiled ≥2x interpreter) is
//! re-asserted on the fused+partitioned configuration. Always writes
//! `BENCH_fusion.json`; run with `--test` for CI's fast smoke mode.

use atlantis_bench::trt::{
    drive_trt, measure_trt, print_dispatch_ledger, print_fusion_ledger, print_netopt_ledger,
    trt_scale_design, write_netopt_artifact,
};
use atlantis_bench::Checker;
use atlantis_chdl::{Design, DispatchMode, EngineConfig, ExecMode, Sim};
use criterion::{black_box, Criterion};
use std::time::Instant;

/// The PR 6 engine: fused stream, adaptive sweeps, match dispatch. The
/// baseline the threaded tier must beat — identical in every way except
/// the dispatch mechanism.
fn fused_match() -> EngineConfig {
    EngineConfig {
        dispatch: DispatchMode::Match,
        ..EngineConfig::default()
    }
}

/// The PR 6 flat sweep pinned on: every eval straight-lines the whole
/// stream under match dispatch. Head-to-head baseline for the dispatch
/// tiers (identical work, identical sweep plan — only dispatch differs).
fn match_streaming() -> EngineConfig {
    EngineConfig {
        dispatch: DispatchMode::Match,
        streaming: true,
        ..EngineConfig::default()
    }
}

/// `match_streaming` with the sweep compiled to closure-chain run blocks.
fn threaded_streaming() -> EngineConfig {
    EngineConfig {
        dispatch: DispatchMode::Threaded,
        streaming: true,
        ..EngineConfig::default()
    }
}

/// Deep netlist: `cols` nodes per level × `depth` levels of mixed logic
/// (adders, ANDN/XOR shapes, constant sides, slice+concat re-packs,
/// compare-and-select), seeded by 64 free-running counters so the whole
/// fabric toggles every cycle, reduced by a balanced XOR tree.
fn deep_design(cols: usize, depth: usize) -> Design {
    let mut d = Design::new("deep");
    let seeds: Vec<_> = (0..64)
        .map(|i| {
            d.reg_feedback(format!("ctr{i}"), 16, |d, q| {
                let k = d.lit(2 * i + 1, 16);
                d.add(q, k)
            })
        })
        .collect();
    let mut layer: Vec<_> = (0..cols).map(|j| seeds[j % seeds.len()]).collect();
    for lvl in 0..depth {
        layer = (0..cols)
            .map(|j| {
                let a = layer[j];
                let b = layer[(j + 1) % cols];
                match (lvl + j) % 6 {
                    0 => d.add(a, b),
                    1 => {
                        let n = d.not(a);
                        d.and(n, b)
                    }
                    2 => d.xor(a, b),
                    3 => {
                        let k = d.lit(((lvl * 131 + j * 17) & 0xFFFF) as u64, 16);
                        d.or(a, k)
                    }
                    4 => {
                        let hi = d.slice(a, 8, 8);
                        let lo = d.slice(b, 0, 8);
                        d.concat(hi, lo)
                    }
                    _ => {
                        let s = d.eq(a, b);
                        d.mux(s, a, b)
                    }
                }
            })
            .collect();
    }
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|ch| {
                if ch.len() == 2 {
                    d.xor(ch[0], ch[1])
                } else {
                    ch[0]
                }
            })
            .collect();
    }
    d.expose_output("deep_out", layer[0]);
    d
}

/// One timed batch of `cycles` edges; returns ns/cycle and the final
/// value of `out` so configurations can be cross-checked.
fn measure(sim: &mut Sim, out: &str, cycles: u64) -> (f64, u64) {
    sim.get(out); // settle before the clock starts
    let t0 = Instant::now();
    sim.run_batch(cycles);
    let ns = t0.elapsed().as_nanos() as f64 / cycles as f64;
    (ns, sim.get(out))
}

fn bench_fusion(c: &mut Criterion) {
    let trt = trt_scale_design();
    let mut fused = Sim::with_config(&trt, ExecMode::Compiled, fused_match());
    drive_trt(&mut fused);
    c.bench_function("chdl_fusion/trt_fused_stream_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut fused, &trt, 1000)));
    });
    let mut unfused = Sim::with_config(&trt, ExecMode::Compiled, EngineConfig::unfused());
    drive_trt(&mut unfused);
    c.bench_function("chdl_fusion/trt_unfused_stream_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut unfused, &trt, 1000)));
    });
    let mut msweep = Sim::with_config(&trt, ExecMode::Compiled, match_streaming());
    drive_trt(&mut msweep);
    c.bench_function("chdl_fusion/trt_match_streaming_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut msweep, &trt, 1000)));
    });
    let mut threaded = Sim::with_config(&trt, ExecMode::Compiled, threaded_streaming());
    drive_trt(&mut threaded);
    c.bench_function("chdl_fusion/trt_threaded_streaming_1000", |b| {
        b.iter(|| black_box(measure_trt(&mut threaded, &trt, 1000)));
    });
}

fn main() -> std::process::ExitCode {
    let test_mode = std::env::args().any(|a| a == "--test" || a == "--quick");
    let mut criterion = Criterion::default();
    bench_fusion(&mut criterion);
    criterion.final_summary();

    let mut c = Checker::new();

    // ---- TRT-scale: fusion and dispatch floors, isolated --------------
    let trt_cycles: u64 = if test_mode { 10_000 } else { 100_000 };
    let trt = trt_scale_design();
    let mut sims = [
        Sim::with_mode(&trt, ExecMode::Interpreted),
        Sim::with_config(&trt, ExecMode::Compiled, EngineConfig::unfused()),
        Sim::with_config(&trt, ExecMode::Compiled, fused_match()),
        Sim::with_config(&trt, ExecMode::Compiled, match_streaming()),
        Sim::with_config(&trt, ExecMode::Compiled, threaded_streaming()),
    ];
    for sim in &mut sims {
        drive_trt(sim);
    }
    // Interleaved best-of-N: the configurations alternate in short blocks
    // so host-wide noise hits them alike, and each keeps its fastest block
    // (the standard noise-robust point estimate).
    let reps = 5;
    let mut best = [f64::INFINITY; 5];
    let mut digests = [0u64; 5];
    for _ in 0..reps {
        for (k, sim) in sims.iter_mut().enumerate() {
            let (ns, d) = measure_trt(sim, &trt, trt_cycles / reps);
            best[k] = best[k].min(ns);
            digests[k] = digests[k].rotate_left(7) ^ d;
        }
    }
    let (oracle_out, unfused_out, fused_out, msweep_out, threaded_out) =
        (digests[0], digests[1], digests[2], digests[3], digests[4]);
    let (unfused_ns, fused_ns, msweep_ns, threaded_ns) = (best[1], best[2], best[3], best[4]);
    let stats = sims[2].engine_stats().unwrap().clone();
    let threaded_stats = sims[4].engine_stats().unwrap().clone();
    let fusion_speedup = unfused_ns / fused_ns;
    let dispatch_speedup = msweep_ns / threaded_ns;

    print_netopt_ledger(&stats);
    print_fusion_ledger(&stats);
    print_dispatch_ledger(&threaded_stats);
    println!("unfused        : {unfused_ns:>8.1} ns/cycle");
    println!("fused          : {fused_ns:>8.1} ns/cycle  ({fusion_speedup:.2}x)");
    println!("match sweep    : {msweep_ns:>8.1} ns/cycle  (streaming)");
    println!(
        "threaded sweep : {threaded_ns:>8.1} ns/cycle  ({dispatch_speedup:.2}x over match sweep)"
    );

    c.check(
        "TRT: fused engine agrees with the interpreter oracle",
        fused_out == oracle_out,
    );
    c.check(
        "TRT: unfused engine agrees with the interpreter oracle",
        unfused_out == oracle_out,
    );
    c.check(
        "TRT: streaming match sweep agrees with the interpreter oracle",
        msweep_out == oracle_out,
    );
    c.check(
        "TRT: threaded dispatch agrees with the interpreter oracle",
        threaded_out == oracle_out,
    );
    c.check(
        "TRT: threaded evals actually took the compiled tier",
        threaded_stats.evals_threaded > 0 && threaded_stats.compiles > 0,
    );
    c.check_band(
        "TRT micro-ops before fusion",
        stats.ops_lowered as f64,
        100.0,
        1e9,
    );
    c.check_band(
        "TRT micro-ops after fusion",
        stats.ops_final as f64,
        1.0,
        stats.ops_lowered as f64,
    );
    c.check_band("TRT superops formed", stats.ops_fused as f64, 1.0, 1e9);
    c.check_band(
        "TRT fused speedup over the unfused stream (>= 1.5x required)",
        fusion_speedup,
        1.5,
        1e6,
    );
    c.check_band(
        "TRT threaded dispatch speedup over fused match dispatch (>= 1.2x required)",
        dispatch_speedup,
        1.2,
        1e6,
    );

    // ---- deep netlist: partitioned/adaptive vs serial per-op ----------
    let (cols, depth, deep_cycles) = if test_mode {
        (1024, 6, 200)
    } else {
        (4096, 16, 2_000)
    };
    let deep = deep_design(cols, depth);
    let mut serial = Sim::with_config(&deep, ExecMode::Compiled, EngineConfig::serial());
    let mut parted = Sim::new(&deep); // fused + auto partitioning
    let mut deep_oracle = Sim::with_mode(&deep, ExecMode::Interpreted);
    let deep_stats = parted.engine_stats().unwrap().clone();
    let (serial_ns, serial_out) = measure(&mut serial, "deep_out", deep_cycles);
    let (parted_ns, parted_out) = measure(&mut parted, "deep_out", deep_cycles);
    let (deep_interp_ns, deep_oracle_out) =
        measure(&mut deep_oracle, "deep_out", deep_cycles.min(200));
    let part_speedup = serial_ns / parted_ns;
    let interp_speedup = deep_interp_ns / parted_ns;

    println!(
        "\ndeep netlist ({cols} x {depth}): {} ops, {} levels, {} partitions",
        deep_stats.ops_final, deep_stats.levels, deep_stats.partitions
    );
    println!("serial per-op : {serial_ns:>9.1} ns/cycle");
    println!("partitioned   : {parted_ns:>9.1} ns/cycle  ({part_speedup:.2}x)");
    println!(
        "interpreter   : {deep_interp_ns:>9.1} ns/cycle  (partitioned is {interp_speedup:.2}x)"
    );

    c.check(
        "deep: partitioned engine agrees with the interpreter oracle",
        // The oracle ran fewer cycles in full mode; compare the serial
        // engine (same cycle count) and spot-check the oracle prefix.
        parted_out == serial_out,
    );
    c.check(
        "deep: serial engine agrees with the interpreter oracle prefix",
        {
            let mut a = Sim::with_config(&deep, ExecMode::Compiled, EngineConfig::serial());
            let (_, short_out) = measure(&mut a, "deep_out", deep_cycles.min(200));
            short_out == deep_oracle_out
        },
    );
    c.check_band(
        "deep netlist micro-ops",
        deep_stats.ops_final as f64,
        1_000.0,
        1e9,
    );
    c.check_band(
        "deep partitioned speedup over serial per-op eval (>= 2x required)",
        part_speedup,
        2.0,
        1e6,
    );
    c.check_band(
        "deep fused+partitioned speedup over the interpreter (PR 1 floor, >= 2x)",
        interp_speedup,
        2.0,
        1e6,
    );

    // Netlist-optimizer floors, shared with `chdl_engine`; writes the
    // `BENCH_netopt.json` artifact CI parses.
    let netopt_ok = write_netopt_artifact(test_mode);

    atlantis_bench::write_artifact("fusion", &c);
    match c.finish_report() {
        Ok(()) if netopt_ok => std::process::ExitCode::SUCCESS,
        _ => std::process::ExitCode::FAILURE,
    }
}
