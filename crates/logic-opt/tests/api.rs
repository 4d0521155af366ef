//! Public-API surface tests: accessors, displays and small behaviours not
//! exercised by the algorithmic suites.

use chortle_circuits::alu;
use chortle_logic_opt::{
    factor, kernels, optimize_with, optimize_with_telemetry, stats, Cube, Factored, Literal,
    OptimizeOptions, Sop, SopNetwork,
};
use chortle_netlist::{Network, NodeOp};
use chortle_telemetry::Telemetry;

#[test]
fn sop_network_accessors() {
    let mut net = SopNetwork::new();
    assert!(net.is_empty());
    let a = net.add_input("a");
    let b = net.add_input("b");
    let f = Sop::try_from_slices(&[&[(a, false), (b, true)]]).unwrap();
    let n = net.add_node(f.clone());
    net.add_output("z", Literal::positive(n));
    assert_eq!(net.len(), 3);
    assert_eq!(net.input_vars(), vec![a, b]);
    assert_eq!(net.node_vars(), vec![n]);
    assert_eq!(net.node_sop(n), Some(&f));
    assert_eq!(net.node_sop(a), None);
    assert_eq!(net.outputs().len(), 1);
    let counts = net.use_counts();
    assert_eq!(counts[a], (1, 0));
    assert_eq!(counts[b], (0, 1));
    assert_eq!(counts[n], (1, 0));
}

#[test]
fn factored_constants_and_eval() {
    assert_eq!(Factored::Const(true).literal_count(), 0);
    assert!(Factored::Const(true).eval(0));
    assert!(!Factored::Const(false).eval(0));
    let lit = Factored::Literal(Literal::negative(2));
    assert_eq!(lit.literal_count(), 1);
    assert!(lit.eval(0b000));
    assert!(!lit.eval(0b100));
}

#[test]
fn display_forms_are_readable() {
    let c = Cube::from_literals([Literal::positive(0), Literal::negative(3)]).unwrap();
    let s = format!("{c}");
    assert!(s.contains("v0") && s.contains("!v3"));
    assert_eq!(format!("{}", Cube::one()), "1");
    assert_eq!(format!("{}", Sop::zero()), "0");
    let f = Sop::from_cubes([c]);
    assert!(format!("{f}").contains('·'));
    let lit = Literal::positive(7);
    assert_eq!(format!("{lit}"), "v7");
    assert_eq!(Literal::from_code(lit.code()), lit);
}

#[test]
fn kernel_struct_exposes_cokernel() {
    let f = Sop::try_from_slices(&[&[(0, false), (2, false)], &[(1, false), (2, false)]]).unwrap();
    let ks = kernels(&f);
    // (a + b) with co-kernel c must appear.
    let found = ks.iter().any(|k| {
        k.co_kernel.literals() == [Literal::positive(2)]
            && k.kernel == Sop::try_from_slices(&[&[(0, false)], &[(1, false)]]).unwrap()
    });
    assert!(found, "kernels: {ks:?}");
}

#[test]
fn factor_of_deep_sop_matches_eval() {
    // A function whose quick factoring needs the literal fallback.
    let f = Sop::try_from_slices(&[
        &[(0, false), (1, false)],
        &[(0, false), (2, false)],
        &[(1, false), (2, false)],
        &[(3, true)],
    ])
    .unwrap();
    let t = factor(&f);
    for bits in 0..16u64 {
        assert_eq!(f.eval(bits), t.eval(bits));
    }
}

#[test]
fn optimize_options_toggles() {
    let mut net = Network::new();
    let a = net.add_input("a");
    let b = net.add_input("b");
    let c = net.add_input("c");
    let g1 = net.add_gate(NodeOp::And, vec![a.into(), c.into()]);
    let g2 = net.add_gate(NodeOp::And, vec![b.into(), c.into()]);
    let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
    net.add_output("z", z.into());

    let off = OptimizeOptions {
        kernel_extraction: false,
        cube_extraction: false,
        ..OptimizeOptions::default()
    };
    let (net_off, rep_off) = optimize_with(&net, &off).expect("optimizes");
    let (net_on, rep_on) = optimize_with(&net, &OptimizeOptions::default()).expect("optimizes");
    assert_eq!(rep_off.extracted, 0);
    assert!(rep_on.literals_after <= rep_off.literals_after);
    // Both stay correct.
    chortle_netlist::check_networks(&net, &net_off).unwrap();
    chortle_netlist::check_networks(&net, &net_on).unwrap();
}

#[test]
fn eliminate_threshold_controls_growth() {
    // A node used twice whose inlining grows literals: kept at threshold
    // 0, inlined at a generous threshold.
    let mut sn = SopNetwork::new();
    let a = sn.add_input("a");
    let b = sn.add_input("b");
    let c = sn.add_input("c");
    let d = sn.add_input("d");
    let t = sn.add_node(Sop::try_from_slices(&[&[(a, false), (b, false)], &[(c, false)]]).unwrap());
    let x = sn.add_node(Sop::try_from_slices(&[&[(t, false), (d, false)]]).unwrap());
    let y = sn.add_node(Sop::try_from_slices(&[&[(t, false), (d, true)]]).unwrap());
    sn.add_output("x", Literal::positive(x));
    sn.add_output("y", Literal::positive(y));

    let mut strict = sn.clone();
    assert_eq!(
        strict.eliminate(0).eliminated,
        0,
        "growth must be refused at threshold 0"
    );
    let mut loose = sn.clone();
    assert_eq!(
        loose.eliminate(100).eliminated,
        1,
        "generous threshold inlines"
    );
    for bits in 0..16u64 {
        assert_eq!(sn.eval_outputs(bits), loose.eval_outputs(bits));
    }
}

#[test]
fn optimize_work_counters_grow_linearly() {
    // Deterministic work counts, not timings: doubling the ALU width may
    // at most about double the work of eliminate and kernel extraction.
    let work = |bits: usize| {
        let t = Telemetry::enabled();
        optimize_with_telemetry(&alu(bits), &OptimizeOptions::default(), &t).expect("optimizes");
        let report = t.snapshot();
        [stats::ELIMINATE_VISITS, stats::KERNEL_DIVISIONS].map(|name| {
            let n = report
                .counter(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            (name, n)
        })
    };
    for ((name, at64), (_, at128)) in work(64).into_iter().zip(work(128)) {
        assert!(at64 > 0, "{name} counted no work");
        assert!(
            2 * at128 <= 5 * at64,
            "{name} grew superlinearly: {at64} at alu64, {at128} at alu128"
        );
    }
}
