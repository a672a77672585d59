//! The designs that are actually served, co-simulated against the
//! interpreter oracle.
//!
//! `Sim::new` always runs the netlist optimizer and then lowers the result
//! onto the compiled engine (fusion, immediate rewrites, dispatch tiers).
//! The interpreter walks the elaborated tree verbatim. For every design a
//! served job or the CHDL benchmark steps — the four `JobKind` designs,
//! the 48-lane TRT histogrammer and the 64-wide Sobel engine — both must
//! agree bit-exactly on every output for every cycle of a random-input
//! run.

use atlantis_apps::image2d::fpga::build_sobel_engine;
use atlantis_apps::jobs::{JobKind, TRT_PATTERNS};
use atlantis_apps::trt::{FpgaHistogrammer, PatternBank, TrtGeometry};
use atlantis_chdl::{Design, ExecMode, Sim};
use atlantis_simcore::rng::WorkloadRng;

/// Random-input cycles per design.
const CYCLES: u64 = 1_000;

/// Drive fresh random values (masked to each port's width) into every
/// input each cycle, and compare every output of the compiled engine with
/// the interpreter before each clock edge.
fn assert_matches_oracle(design: &Design, seed: u64) {
    let mut compiled = Sim::new(design);
    let mut oracle = Sim::with_mode(design, ExecMode::Interpreted);
    assert_eq!(compiled.mode(), ExecMode::Compiled);
    let inputs = design.inputs();
    let outputs = design.output_ports();
    assert!(!outputs.is_empty(), "{} exposes no outputs", design.name());
    let mut rng = WorkloadRng::seed_from_u64(seed);
    for cycle in 0..CYCLES {
        for (name, width) in &inputs {
            let v = rng.below(1u64 << u64::from(*width).min(63));
            compiled.set(name, v);
            oracle.set(name, v);
        }
        for (name, _) in &outputs {
            assert_eq!(
                compiled.get(name),
                oracle.get(name),
                "{}: output '{name}' diverged at cycle {cycle}",
                design.name()
            );
        }
        compiled.step();
        oracle.step();
    }
}

#[test]
fn job_kind_designs_match_the_interpreter() {
    for (i, kind) in JobKind::ALL.iter().enumerate() {
        assert_matches_oracle(&kind.build_design(), 0x5E4D + i as u64);
    }
}

#[test]
fn trt_histogrammer_48_lanes_matches_the_interpreter() {
    let bank = PatternBank::generate(
        TrtGeometry {
            phi_bins: 64,
            layers: 32,
        },
        TRT_PATTERNS,
        &mut WorkloadRng::seed_from_u64(7),
    );
    let hist = FpgaHistogrammer::new(&bank, 48);
    assert_matches_oracle(hist.design(), 48);
}

#[test]
fn sobel_64_matches_the_interpreter() {
    let mut d = Design::new("sobel_w64");
    build_sobel_engine(&mut d, 64);
    assert_matches_oracle(&d, 64);
}
