//! Plan identity of the exact QO_N paths: the driver's default chain, the
//! two-phase engine at 1, 2 and 4 threads, and `aqo optimize --method dp`
//! must all return the plan of the sequential oracle `dp::optimize`, not
//! merely its cost.
//!
//! The instances are tie-heavy on purpose: uniform relation sizes and
//! selectivities over chain, star, cycle and clique graphs make many
//! orders cost the same, so any path with a different tie rule returns a
//! different (equal-cost) order and fails here.

use aqo_bignum::{BigInt, BigRational, BigUint};
use aqo_core::budget::Budget;
use aqo_core::qon::QoNInstance;
use aqo_core::{textio, AccessCostMatrix, SelectivityMatrix};
use aqo_driver::{optimize_qon, QonDriverConfig};
use aqo_graph::Graph;
use aqo_optimizer::{dp, engine};
use proptest::prelude::*;
use std::process::Command;

/// Family 0 chain, 1 star, 2 cycle, 3 clique; every relation has `size`
/// tuples and every edge selectivity `1/den`.
fn uniform_instance(family: usize, n: usize, size: u64, den: u64) -> QoNInstance {
    let mut g = Graph::new(n);
    for v in 1..n {
        match family {
            1 => g.add_edge(0, v),
            3 => (0..v).for_each(|u| g.add_edge(u, v)),
            _ => g.add_edge(v - 1, v),
        }
    }
    if family == 2 && n > 2 {
        g.add_edge(n - 1, 0);
    }
    let t = BigUint::from(size);
    let sel = BigRational::new(BigInt::one(), BigUint::from(den));
    let w = (BigRational::from(t.clone()) * &sel).ceil().magnitude().clone();
    let mut s = SelectivityMatrix::new();
    let mut a = AccessCostMatrix::new();
    for (u, v) in g.edges().collect::<Vec<_>>() {
        s.set(u, v, sel.clone());
        a.set(u, v, w.clone());
        a.set(v, u, w.clone());
    }
    QoNInstance::new(g, vec![t; n], s, a)
}

/// `aqo optimize <inst> --method dp`: the printed `order` line.
fn cli_dp_order(inst: &QoNInstance, allow_cartesian: bool) -> String {
    let dir = std::env::temp_dir().join(format!("aqo_plan_identity_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case{}.qon", u8::from(allow_cartesian)));
    std::fs::write(&path, textio::qon_to_text(inst)).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_aqo"));
    cmd.args(["optimize", path.to_str().unwrap(), "--method", "dp"]);
    if !allow_cartesian {
        cmd.arg("--no-cartesian");
    }
    let out = cmd.output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "aqo failed: {}", String::from_utf8_lossy(&out.stderr));
    stdout.lines().find_map(|l| l.strip_prefix("order  : ")).expect("order line").to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_exact_path_returns_the_oracle_plan(
        family in 0usize..4,
        n in 3usize..=7,
        size in 2u64..40,
        den in 2u64..9,
    ) {
        let inst = uniform_instance(family, n, size, den);
        for allow in [true, false] {
            let oracle = dp::optimize::<BigRational>(&inst, allow).expect("connected graph");
            let want = oracle.sequence.order().to_vec();
            let ctx = format!("family {family} n {n} size {size} den {den} cartesian {allow}");

            let cfg = QonDriverConfig { allow_cartesian: allow, ..QonDriverConfig::default() };
            let driven = optimize_qon(&inst, &cfg).expect("dp tier answers");
            prop_assert_eq!(driven.report.tier, "dp", "{}", ctx);
            prop_assert_eq!(&driven.optimum.cost, &oracle.cost, "{}", ctx);
            prop_assert_eq!(driven.optimum.sequence.order(), &want[..], "driver: {}", ctx);

            for threads in [1usize, 2, 4] {
                let opts = engine::DpOptions { allow_cartesian: allow, threads };
                let eng = engine::optimize_two_phase::<BigRational>(&inst, &opts, &Budget::unlimited())
                    .expect("unlimited budget cannot be exceeded")
                    .expect("connected graph");
                prop_assert_eq!(&eng.cost, &oracle.cost, "{}", ctx);
                prop_assert_eq!(eng.sequence.order(), &want[..], "engine t={}: {}", threads, ctx);
            }

            prop_assert_eq!(cli_dp_order(&inst, allow), format!("{want:?}"), "cli: {}", ctx);
        }
    }
}
