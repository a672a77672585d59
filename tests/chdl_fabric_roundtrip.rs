//! Cross-crate round trips between the CHDL netlist layer and the fabric
//! configuration layer: bitstream determinism, partial-reconfiguration
//! equivalence, and behavioural equivalence of a design run directly vs
//! through a configured FPGA.

use atlantis::apps::jobs::JobKind;
use atlantis::fabric::{FittedDesign, Fpga};
use atlantis::prelude::*;
use proptest::prelude::*;
use std::sync::OnceLock;

fn parametric_design(taps: &[u64]) -> Design {
    let mut d = Design::new("fir");
    let x = d.input("x", 16);
    let mut acc = d.lit(0, 16);
    for (i, &t) in taps.iter().enumerate() {
        let k = d.lit(t & 0xFFFF, 16);
        let m = d.mul(x, k);
        let r = d.reg(format!("z{i}"), m);
        acc = d.add(acc, r);
    }
    d.expose_output("y", acc);
    d
}

#[test]
fn direct_sim_equals_configured_fpga_sim() {
    let d = parametric_design(&[3, 5, 7]);
    let fitted = fit(&d, &Device::orca_3t125()).unwrap();

    let mut direct = Sim::new(&d);
    let mut fpga = Fpga::new(Device::orca_3t125());
    fpga.configure(&fitted).unwrap();

    for step in 0..50u64 {
        let v = (step * 37) & 0xFFFF;
        direct.set("x", v);
        direct.step();
        let sim = fpga.sim_mut().unwrap();
        sim.set("x", v);
        sim.step();
        assert_eq!(
            direct.get("y"),
            fpga.sim_mut().unwrap().get("y"),
            "step {step}"
        );
    }
}

#[test]
fn readback_after_partial_equals_direct_configuration() {
    let a = fit(&parametric_design(&[1, 2, 3]), &Device::orca_3t125()).unwrap();
    let b = fit(&parametric_design(&[1, 2, 9]), &Device::orca_3t125()).unwrap();

    let mut via_partial = Fpga::new(Device::orca_3t125());
    via_partial.configure(&a).unwrap();
    via_partial.partial_reconfigure(&b).unwrap();

    let mut direct = Fpga::new(Device::orca_3t125());
    direct.configure(&b).unwrap();

    assert_eq!(via_partial.readback().unwrap(), direct.readback().unwrap());
}

#[test]
fn config_time_accounts_every_frame() {
    let d = parametric_design(&[4, 4, 4, 4]);
    let dev = Device::orca_3t125();
    let fitted = fit(&d, &dev).unwrap();
    let mut fpga = Fpga::new(dev.clone());
    let t = fpga.configure(&fitted).unwrap();
    assert_eq!(t, dev.full_config_time());
    let stats = fpga.stats();
    assert_eq!(stats.frames_written, dev.config_frames as u64);
}

/// The four served designs fitted once onto the ORCA, in
/// [`JobKind::ALL`] order and shared by every test below.
fn served_fits() -> &'static [FittedDesign] {
    static FITS: OnceLock<Vec<FittedDesign>> = OnceLock::new();
    FITS.get_or_init(|| {
        JobKind::ALL
            .iter()
            .map(|k| fit(&k.build_design(), &Device::orca_3t125()).unwrap())
            .collect()
    })
}

/// The input value of port `i` (of `width` bits) at `cycle`.
fn stimulus(i: usize, width: u8, cycle: u64) -> u64 {
    let v = (cycle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (i as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    v & (u64::MAX >> (64 - u32::from(width)))
}

/// Step `sim` through `cycles` cycles of [`stimulus`] on every input of
/// `design`, recording every output after each step.
fn drive(sim: &mut Sim, design: &Design, cycles: u64) -> Vec<u64> {
    let (inputs, outputs) = (design.inputs(), design.output_ports());
    let mut seen = Vec::new();
    for c in 0..cycles {
        for (i, (name, width)) in inputs.iter().enumerate() {
            sim.set(name, stimulus(i, *width, c));
        }
        sim.step();
        seen.extend(outputs.iter().map(|(name, _)| sim.get(name)));
    }
    seen
}

/// Evaluations a simulator has run on either dispatch tier.
fn evals(sim: &Sim) -> u64 {
    let stats = sim.engine_stats().expect("compiled engine");
    stats.evals_threaded + stats.evals_match
}

#[test]
fn partial_frame_counts_follow_the_diff_definition() {
    let dev = Device::orca_3t125();
    let fits = served_fits();
    for (i, from) in fits.iter().enumerate() {
        for (j, to) in fits.iter().enumerate() {
            if i == j {
                continue;
            }
            let mut fpga = Fpga::new(dev.clone());
            fpga.configure(from).unwrap();
            let (frames, t) = fpga.partial_reconfigure(to).unwrap();
            let expect = from.golden().diff(to.golden()).frames.len();
            assert_eq!(frames as usize, expect, "{i} -> {j}");
            assert!(frames > 0, "served designs differ: {i} -> {j}");
            assert_eq!(t, dev.frame_config_time(frames));
            assert_eq!(fpga.readback().unwrap(), *to.golden());
        }
    }
}

/// A switch brings the design up in its init state: the shared prototype
/// is never stepped, and nothing leaks from an earlier load of the same
/// design, whether the fresh design is stepped directly or forked into
/// lanes.
#[test]
fn a_switch_always_starts_from_the_init_state() {
    const CYCLES: u64 = 12;
    let fits = served_fits();
    let mut coproc = Coprocessor::new(Device::orca_3t125());
    for f in fits {
        coproc
            .register_fitted(f.design().name(), f.clone())
            .unwrap();
    }
    let (a, b) = (&fits[0], &fits[2]);
    for fitted in [a, b, a, b, a] {
        let design = fitted.design();
        coproc.switch_to(design.name()).unwrap();
        let mut oracle = Sim::new(design);
        let sim = coproc.fpga_mut().sim_mut().unwrap();
        assert_eq!(sim.cycle(), 0, "{}", design.name());
        assert_eq!(evals(sim), 0, "{}: counters start from zero", design.name());
        assert_eq!(evals(&oracle), 0);
        assert_eq!(
            drive(sim, design, CYCLES),
            drive(&mut oracle, design, CYCLES),
            "{}",
            design.name()
        );
        assert_eq!(evals(sim), evals(&oracle), "{}", design.name());
    }
    assert_eq!(coproc.stats().partial_switches, 4);

    // Lanes forked from a switched-in design start from the same state.
    const LANES: usize = 4;
    coproc.switch_to(b.design().name()).unwrap();
    coproc.switch_to(a.design().name()).unwrap();
    let design = a.design();
    let mut group = coproc.fpga().fork_lanes(LANES).unwrap();
    let expect = drive(&mut Sim::new(design), design, CYCLES);
    let (inputs, outputs) = (design.inputs(), design.output_ports());
    let mut lanes = vec![Vec::new(); LANES];
    for c in 0..CYCLES {
        for lane in 0..LANES {
            for (i, (name, width)) in inputs.iter().enumerate() {
                group.set(lane, name, stimulus(i, *width, c));
            }
        }
        group.step();
        for (lane, seen) in lanes.iter_mut().enumerate() {
            seen.extend(outputs.iter().map(|(name, _)| group.get(lane, name)));
        }
    }
    for (lane, seen) in lanes.iter().enumerate() {
        assert_eq!(*seen, expect, "lane {lane}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With upsets pending on the live image, a switch still writes
    /// exactly the frames `Bitstream::diff` names — the corrupted ones
    /// included — and lands on the target's golden image.
    #[test]
    fn partial_frame_counts_follow_the_diff_under_upsets(
        from in 0usize..4,
        to in 0usize..4,
        upsets in proptest::collection::vec((any::<u32>(), any::<u32>(), 0u8..8, any::<bool>()), 1..12),
    ) {
        let dev = Device::orca_3t125();
        let fits = served_fits();
        let mut fpga = Fpga::new(dev.clone());
        fpga.configure(&fits[from]).unwrap();
        for (f, b, bit, stealthy) in upsets {
            let (frame, byte) = (f % dev.config_frames, b % dev.frame_bytes);
            if stealthy {
                fpga.inject_upset_stealthy(frame, byte, bit).unwrap();
            } else {
                fpga.inject_upset(frame, byte, bit).unwrap();
            }
        }
        let expect = fpga.readback().unwrap().diff(fits[to].golden()).frames.len();
        let (frames, _) = fpga.partial_reconfigure(&fits[to]).unwrap();
        prop_assert_eq!(frames as usize, expect);
        prop_assert_eq!(&fpga.readback().unwrap(), fits[to].golden());
        prop_assert!(fpga.integrity_ok().unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any two designs of this family: the partial bitstream applied to
    /// the first always reproduces the second exactly.
    #[test]
    fn partial_bitstreams_converge(t1 in proptest::collection::vec(0u64..0x1000, 1..6),
                                   t2 in proptest::collection::vec(0u64..0x1000, 1..6)) {
        let dev = Device::orca_3t125();
        let a = fit(&parametric_design(&t1), &dev).unwrap().golden().clone();
        let b = fit(&parametric_design(&t2), &dev).unwrap().golden().clone();
        let partial = a.diff(&b);
        let mut patched = a.clone();
        patched.apply(&partial);
        prop_assert_eq!(&patched, &b);
        prop_assert!(patched.verify());
        // And the diff is empty iff the designs are identical.
        prop_assert_eq!(partial.frames.is_empty(), t1 == t2);
    }

    /// Gate-count estimation is monotone in the tap count for this
    /// family (more structure never reports fewer resources).
    #[test]
    fn stats_monotone_in_structure(n in 1usize..10) {
        let small = parametric_design(&vec![7; n]).stats();
        let large = parametric_design(&vec![7; n + 1]).stats();
        prop_assert!(large.gates > small.gates);
        prop_assert!(large.flip_flops > small.flip_flops);
    }

    /// The simulated FIR always matches a software model of itself.
    #[test]
    fn fir_matches_software_model(taps in proptest::collection::vec(0u64..0x100, 1..5),
                                  inputs in proptest::collection::vec(0u64..0x10000, 1..30)) {
        let d = parametric_design(&taps);
        let mut sim = Sim::new(&d);
        let mut regs = vec![0u64; taps.len()];
        for &x in &inputs {
            sim.set("x", x);
            // Software model of the same structure (registered products).
            let expect: u64 = regs.iter().sum::<u64>() & 0xFFFF;
            prop_assert_eq!(sim.get("y"), expect);
            sim.step();
            for (r, &t) in regs.iter_mut().zip(&taps) {
                *r = x.wrapping_mul(t & 0xFFFF) & 0xFFFF;
            }
        }
    }
}
