//! Property-based tests: CHDL arithmetic must agree with host arithmetic
//! for arbitrary operands and widths, and structural generators must match
//! their behavioural models.

use atlantis_chdl::prelude::*;
use proptest::prelude::*;

fn mask(w: u8) -> u64 {
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Build a two-input design computing several operators at once.
fn alu_design(w: u8) -> Design {
    let mut d = Design::new("alu");
    let a = d.input("a", w);
    let b = d.input("b", w);
    let ops: Vec<(&str, Signal)> = vec![
        ("add", d.add(a, b)),
        ("sub", d.sub(a, b)),
        ("mul", d.mul(a, b)),
        ("and", d.and(a, b)),
        ("or", d.or(a, b)),
        ("xor", d.xor(a, b)),
        ("eq", d.eq(a, b)),
        ("lt", d.lt(a, b)),
        ("le", d.le(a, b)),
    ];
    for (name, sig) in ops {
        d.expose_output(name, sig);
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn alu_matches_u64_semantics(w in 1u8..=64, a in any::<u64>(), b in any::<u64>()) {
        let d = alu_design(w);
        let mut sim = Sim::new(&d);
        let (am, bm) = (a & mask(w), b & mask(w));
        sim.set("a", am);
        sim.set("b", bm);
        prop_assert_eq!(sim.get("add"), am.wrapping_add(bm) & mask(w));
        prop_assert_eq!(sim.get("sub"), am.wrapping_sub(bm) & mask(w));
        prop_assert_eq!(sim.get("mul"), am.wrapping_mul(bm) & mask(w));
        prop_assert_eq!(sim.get("and"), am & bm);
        prop_assert_eq!(sim.get("or"), am | bm);
        prop_assert_eq!(sim.get("xor"), am ^ bm);
        prop_assert_eq!(sim.get("eq"), u64::from(am == bm));
        prop_assert_eq!(sim.get("lt"), u64::from(am < bm));
        prop_assert_eq!(sim.get("le"), u64::from(am <= bm));
    }

    #[test]
    fn slice_concat_round_trip(w in 2u8..=64, v in any::<u64>(), cut in 1u8..=63) {
        prop_assume!(cut < w);
        let mut d = Design::new("rt");
        let a = d.input("a", w);
        let lo = d.slice(a, 0, cut);
        let hi = d.slice(a, cut, w - cut);
        let back = d.concat(hi, lo);
        d.expose_output("back", back);
        let mut sim = Sim::new(&d);
        let vm = v & mask(w);
        sim.set("a", vm);
        prop_assert_eq!(sim.get("back"), vm);
    }

    #[test]
    fn popcount_matches(w in 1u8..=64, v in any::<u64>()) {
        let mut d = Design::new("pc");
        let a = d.input("a", w);
        let pc = d.popcount(a);
        d.expose_output("pc", pc);
        let mut sim = Sim::new(&d);
        let vm = v & mask(w);
        sim.set("a", vm);
        prop_assert_eq!(sim.get("pc"), vm.count_ones() as u64);
    }

    #[test]
    fn select_matches_indexing(n in 2usize..=24, values in proptest::collection::vec(any::<u64>(), 24), sel in 0usize..24) {
        prop_assume!(sel < n);
        let mut d = Design::new("sel");
        let sw = atlantis_chdl::signal::bits_for(n as u64);
        let s = d.input("s", sw);
        let opts: Vec<Signal> = values[..n].iter().map(|&v| d.lit(v & mask(32), 32)).collect();
        let out = d.select(s, &opts);
        d.expose_output("out", out);
        let mut sim = Sim::new(&d);
        sim.set("s", sel as u64);
        prop_assert_eq!(sim.get("out"), values[sel] & mask(32));
    }

    #[test]
    fn fifo_behaves_like_vecdeque(ops in proptest::collection::vec((any::<bool>(), any::<bool>(), 0u64..256), 1..200)) {
        let mut d = Design::new("f");
        let din = d.input("din", 8);
        let push = d.input("push", 1);
        let pop = d.input("pop", 1);
        let f = d.fifo("f", 5, din, push, pop);
        d.expose_output("dout", f.dout);
        d.expose_output("empty", f.empty);
        d.expose_output("full", f.full);
        d.expose_output("count", f.count);
        let mut sim = Sim::new(&d);
        let mut model = std::collections::VecDeque::new();

        for (do_push, do_pop, val) in ops {
            sim.set("din", val);
            sim.set("push", u64::from(do_push));
            sim.set("pop", u64::from(do_pop));
            prop_assert_eq!(sim.get("count"), model.len() as u64);
            prop_assert_eq!(sim.get("empty"), u64::from(model.is_empty()));
            prop_assert_eq!(sim.get("full"), u64::from(model.len() == 5));
            if !model.is_empty() {
                prop_assert_eq!(sim.get("dout"), *model.front().unwrap());
            }
            // Model the hardware's edge semantics.
            let popped = do_pop && !model.is_empty();
            let pushed = do_push && model.len() < 5;
            sim.step();
            if popped {
                model.pop_front();
            }
            if pushed {
                model.push_back(val);
            }
        }
    }

    #[test]
    fn counter_mod_is_modular(limit in 1u64..200, steps in 0u64..500) {
        let mut d = Design::new("c");
        let en = d.input("en", 1);
        let c = d.counter_mod("c", 8, limit, en);
        d.expose_output("v", c.value);
        let mut sim = Sim::new(&d);
        sim.set("en", 1);
        sim.run(steps);
        prop_assert_eq!(sim.get("v"), steps % limit);
    }

    #[test]
    fn add_sat_never_wraps(w in 2u8..=32, a in any::<u64>(), b in any::<u64>()) {
        let mut d = Design::new("s");
        let x = d.input("x", w);
        let y = d.input("y", w);
        let s = d.add_sat(x, y);
        d.expose_output("s", s);
        let mut sim = Sim::new(&d);
        let (am, bm) = (a & mask(w), b & mask(w));
        sim.set("x", am);
        sim.set("y", bm);
        let expect = (am + bm).min(mask(w));
        prop_assert_eq!(sim.get("s"), expect);
    }

    #[test]
    fn regfile_holds_writes(writes in proptest::collection::vec((0u64..16, any::<u64>()), 1..64)) {
        let mut d = Design::new("rf");
        let waddr = d.input("waddr", 4);
        let wdata = d.input("wdata", 16);
        let we = d.input("we", 1);
        let raddr = d.input("raddr", 4);
        let (_m, rdata) = d.regfile("rf", 16, 16, waddr, wdata, we, raddr);
        d.expose_output("rdata", rdata);
        let mut sim = Sim::new(&d);
        let mut model = [0u64; 16];
        sim.set("we", 1);
        for (addr, data) in writes {
            let dm = data & mask(16);
            sim.set("waddr", addr);
            sim.set("wdata", dm);
            sim.step();
            model[addr as usize] = dm;
        }
        sim.set("we", 0);
        for (addr, &expect) in model.iter().enumerate() {
            sim.set("raddr", addr as u64);
            prop_assert_eq!(sim.get("rdata"), expect);
        }
    }

    /// The optimizer never changes observable behaviour and never grows
    /// the netlist, for a generated family with constants, identities and
    /// dead branches.
    #[test]
    fn optimizer_preserves_behaviour(taps in proptest::collection::vec(0u64..4, 1..8),
                                     stim in proptest::collection::vec(any::<u64>(), 1..20)) {
        let mut d = Design::new("family");
        let x = d.input("x", 16);
        let zero = d.lit(0, 16);
        let mut acc = zero;
        for (i, &t) in taps.iter().enumerate() {
            let k = d.lit(t, 16);
            let term = d.mul(x, k); // t ∈ {0,1} fold/alias; others stay
            let summed = d.add(acc, term);
            // A dead side branch per tap.
            let _dead = d.sub(summed, k);
            acc = if i % 2 == 0 { summed } else { d.reg(format!("r{i}"), summed) };
        }
        d.expose_output("y", acc);
        let (opt, _) = d.optimized();
        prop_assert!(opt.stats().gates <= d.stats().gates);
        prop_assert!(opt.stats().components <= d.stats().components);
        let mut s1 = Sim::with_mode(&d, ExecMode::Interpreted);
        let mut s2 = Sim::new(&opt);
        for v in stim {
            let vm = v & mask(16);
            s1.set("x", vm);
            s2.set("x", vm);
            prop_assert_eq!(s1.get("y"), s2.get("y"));
            s1.step();
            s2.step();
        }
    }

    #[test]
    fn structural_bytes_stable_under_rebuild(seed in any::<u64>()) {
        let build = || {
            let mut d = Design::new("s");
            let a = d.input("a", 32);
            let k = d.lit(seed & mask(32), 32);
            let x = d.xor(a, k);
            let r = d.reg("r", x);
            d.expose_output("r", r);
            d.structural_bytes()
        };
        prop_assert_eq!(build(), build());
    }
}
