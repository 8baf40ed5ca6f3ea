//! gap-certify: the paper's Theorem 9 pipeline, in process.
//!
//! One op is one promise pair: `dense_known_omega(n, ω_yes)` and
//! `dense_known_omega(n, ω_no)` under a seeded vertex relabelling, both
//! reduced by `f_N` with selectivity `1/a`, both optimized exactly by the
//! driver. The op holds when both optima equal the committed reference,
//! `C*_yes ≤ K(a, e)` (Lemma 6), and `C*_no ≥ C*_yes · a^g` with
//! `g = certified_gap_exponent(e, ω_no)` (Lemma 8).

use crate::data::{parse_rational, GapRef};
use crate::trace::Tracer;
use aqo_bignum::{BigRational, BigUint};
use aqo_core::qon::QoNInstance;
use aqo_graph::Graph;
use aqo_reductions::fn_reduction;

/// One op of the list: which reference pair, and the relabelling.
#[derive(Clone, Debug)]
pub struct GapOp {
    pub pair: usize,
    pub perm: Vec<usize>,
}

/// What an op leaves behind for the traced run's later layers.
#[derive(Debug)]
pub struct GapOutcome {
    pub instances: [QoNInstance; 2],
    pub costs: [BigRational; 2],
    pub reports: [aqo_driver::DriverReport; 2],
}

fn relabel(g: &Graph, perm: &[usize]) -> Graph {
    let mut out = Graph::new(g.n());
    for (u, v) in g.edges() {
        out.add_edge(perm[u], perm[v]);
    }
    out
}

/// Runs one op; `Err` names the first check that failed.
pub fn run_op(pair: &GapRef, op: &GapOp, tr: &mut Tracer) -> Result<GapOutcome, String> {
    tr.begin("gap.op");
    let out = run_op_inner(pair, op, tr);
    tr.end();
    out
}

fn run_op_inner(pair: &GapRef, op: &GapOp, tr: &mut Tracer) -> Result<GapOutcome, String> {
    let a = BigUint::from(pair.a);
    let side = |tr: &mut Tracer, omega: usize| -> Result<_, String> {
        let g = tr.span("graph.generate", || {
            relabel(
                &aqo_graph::generators::dense_known_omega(pair.n, omega),
                &op.perm,
            )
        });
        let red = tr.span("reductions.fn_reduce", || {
            fn_reduction::reduce(&g, &a, pair.e)
        });
        let cfg = aqo_driver::QonDriverConfig::default();
        let outcome = tr
            .span("driver.optimize", || {
                aqo_driver::optimize_qon(&red.instance, &cfg)
            })
            .map_err(|e| format!("driver: {e}"))?;
        Ok((red.instance, outcome))
    };
    let (inst_yes, yes) = side(tr, pair.omega_yes)?;
    let (inst_no, no) = side(tr, pair.omega_no)?;
    tr.span("reductions.bound_check", || {
        if !yes.report.exact || !no.report.exact {
            return Err("inexact optimum".to_string());
        }
        let (c_yes, c_no) = (&yes.optimum.cost, &no.optimum.cost);
        if c_yes.to_string() != pair.cost_yes || c_no.to_string() != pair.cost_no {
            return Err(format!(
                "a={}: optima {c_yes}, {c_no} != reference {}, {}",
                pair.a, pair.cost_yes, pair.cost_no
            ));
        }
        let k = BigRational::from(fn_reduction::k_bound(&a, pair.e));
        if *c_yes > k {
            return Err(format!("a={}: C*_yes above K(a, e)", pair.a));
        }
        let g = fn_reduction::certified_gap_exponent(pair.e, pair.omega_no as u64);
        let factor = BigRational::from(a.pow(g.max(0) as u64));
        if g < 1 || c_no.clone() < c_yes.clone() * factor {
            return Err(format!("a={}: measured gap below a^{g}", pair.a));
        }
        Ok(())
    })?;
    Ok(GapOutcome {
        instances: [inst_yes, inst_no],
        costs: [yes.optimum.cost, no.optimum.cost],
        reports: [yes.report, no.report],
    })
}

/// The reference optima of every pair, parsed (bignum operands for the
/// traced run's arithmetic probes).
pub fn reference_costs(pairs: &[GapRef]) -> Result<Vec<BigRational>, String> {
    let mut out = Vec::new();
    for p in pairs {
        out.push(parse_rational(&p.cost_yes)?);
        out.push(parse_rational(&p.cost_no)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small pair (n = 7) so the test stays fast; the reference is the
    /// sequential oracle's answer.
    fn small_pair() -> GapRef {
        let (n, oy, on, e, a) = (7usize, 6usize, 4usize, 6u64, 4u64);
        let cost = |omega: usize| {
            let g = aqo_graph::generators::dense_known_omega(n, omega);
            let r = fn_reduction::reduce(&g, &BigUint::from(a), e);
            aqo_optimizer::dp::optimize::<BigRational>(&r.instance, true)
                .unwrap()
                .cost
                .to_string()
        };
        GapRef {
            n,
            omega_yes: oy,
            omega_no: on,
            e,
            a,
            cost_yes: cost(oy),
            cost_no: cost(on),
        }
    }

    #[test]
    fn relabelled_pair_matches_reference() {
        let pair = small_pair();
        let op = GapOp {
            pair: 0,
            perm: vec![3, 0, 6, 1, 5, 2, 4],
        };
        run_op(&pair, &op, &mut Tracer::new(false)).unwrap();
    }

    #[test]
    fn corrupted_reference_fails_the_op() {
        let mut pair = small_pair();
        pair.cost_no = format!("{}1", pair.cost_no);
        let op = GapOp {
            pair: 0,
            perm: (0..7).collect(),
        };
        assert!(run_op(&pair, &op, &mut Tracer::new(false))
            .unwrap_err()
            .contains("reference"));
    }
}
