//! The benchmark's committed inputs and their exact reference answers.
//!
//! `data/*.ref` hold every instance a serve workload can send, each with
//! the optimal cost, join order and (QO_H) pipeline decomposition computed
//! once by the sequential oracles `aqo_optimizer::dp::optimize` and
//! `aqo_optimizer::pipeline::optimize_exhaustive`. `data/gap.ref` holds the
//! exact optima of the gap-certify promise pairs. At run time the harness
//! only reads these files: the build under test never produces its own
//! reference. `gen-reference` rewrites them.
//!
//! Record format (`.ref`), one block per instance:
//!
//! ```text
//! instance <id> <qon|qoh> <pool> <label>
//! cost <exact rational>
//! order <v0,v1,...>
//! decomposition <lo-hi,lo-hi,...>      (qoh only)
//! text <line count>
//! <instance text lines>
//! ```
//!
//! `gap.ref` lines: `gap <n> <omega_yes> <omega_no> <e> <a> <C*_yes> <C*_no>`.

use aqo_bignum::{BigRational, BigUint};
use aqo_core::{qoh::QoHInstance, textio, workloads};
use aqo_optimizer::{dp, pipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    Qon,
    Qoh,
}

impl Problem {
    pub fn name(self) -> &'static str {
        match self {
            Problem::Qon => "qon",
            Problem::Qoh => "qoh",
        }
    }
}

/// One instance with its exact answer.
#[derive(Clone, Debug, PartialEq)]
pub struct RefInstance {
    pub id: String,
    pub problem: Problem,
    /// Which pool of the workload it belongs to (`cold`, `hot`, `miss`).
    pub pool: String,
    /// Shape and size, e.g. `chain-10`.
    pub label: String,
    pub text: String,
    pub cost: String,
    pub order: Vec<usize>,
    pub decomposition: Option<Vec<(usize, usize)>>,
}

/// Exact optima of one gap-certify promise pair.
#[derive(Clone, Debug, PartialEq)]
pub struct GapRef {
    pub n: usize,
    pub omega_yes: usize,
    pub omega_no: usize,
    pub e: u64,
    pub a: u64,
    pub cost_yes: String,
    pub cost_no: String,
}

pub fn read_refs(path: &Path) -> Result<Vec<RefInstance>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_refs(&body).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_refs(body: &str) -> Result<Vec<RefInstance>, String> {
    let mut out = Vec::new();
    let mut lines = body.lines().filter(|l| !l.starts_with('#'));
    while let Some(head) = lines.next() {
        if head.trim().is_empty() {
            continue;
        }
        let h: Vec<&str> = head.split_whitespace().collect();
        let [tag, id, problem, pool, label] = h[..] else {
            return Err(format!("bad instance header `{head}`"));
        };
        if tag != "instance" {
            return Err(format!("expected `instance`, got `{head}`"));
        }
        let problem = match problem {
            "qon" => Problem::Qon,
            "qoh" => Problem::Qoh,
            p => return Err(format!("unknown problem `{p}`")),
        };
        let mut field = |name: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or_else(|| format!("{id}: missing `{name}`"))?;
            line.strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| format!("{id}: expected `{name}`, got `{line}`"))
        };
        let cost = field("cost")?;
        let order = parse_order(&field("order")?)?;
        let decomposition = match problem {
            Problem::Qoh => Some(parse_decomposition(&field("decomposition")?)?),
            Problem::Qon => None,
        };
        let count: usize = field("text")?
            .parse()
            .map_err(|_| format!("{id}: bad text count"))?;
        let mut text = String::new();
        for _ in 0..count {
            let line = lines
                .next()
                .ok_or_else(|| format!("{id}: truncated text"))?;
            text.push_str(line);
            text.push('\n');
        }
        out.push(RefInstance {
            id: id.to_string(),
            problem,
            pool: pool.to_string(),
            label: label.to_string(),
            text,
            cost,
            order,
            decomposition,
        });
    }
    Ok(out)
}

fn parse_order(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|t| t.parse().map_err(|_| format!("bad order `{s}`")))
        .collect()
}

fn parse_decomposition(s: &str) -> Result<Vec<(usize, usize)>, String> {
    s.split(',')
        .map(|frag| {
            let (lo, hi) = frag
                .split_once('-')
                .ok_or_else(|| format!("bad fragment `{frag}`"))?;
            let lo = lo.parse().map_err(|_| format!("bad fragment `{frag}`"))?;
            let hi = hi.parse().map_err(|_| format!("bad fragment `{frag}`"))?;
            Ok((lo, hi))
        })
        .collect()
}

fn join<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn render_refs(header: &str, refs: &[RefInstance]) -> String {
    let mut out = format!("# {header}\n");
    for r in refs {
        let _ = writeln!(
            out,
            "instance {} {} {} {}",
            r.id,
            r.problem.name(),
            r.pool,
            r.label
        );
        let _ = writeln!(out, "cost {}", r.cost);
        let _ = writeln!(out, "order {}", join(&r.order));
        if let Some(d) = &r.decomposition {
            let _ = writeln!(
                out,
                "decomposition {}",
                join(d.iter().map(|(l, h)| format!("{l}-{h}")))
            );
        }
        let _ = writeln!(out, "text {}", r.text.lines().count());
        out.push_str(&r.text);
    }
    out
}

pub fn read_gap_refs(path: &Path) -> Result<Vec<GapRef>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    body.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let t: Vec<&str> = l.split_whitespace().collect();
            let bad = || format!("{}: bad gap line `{l}`", path.display());
            let ["gap", n, oy, on, e, a, cy, cn] = t[..] else {
                return Err(bad());
            };
            Ok(GapRef {
                n: n.parse().map_err(|_| bad())?,
                omega_yes: oy.parse().map_err(|_| bad())?,
                omega_no: on.parse().map_err(|_| bad())?,
                e: e.parse().map_err(|_| bad())?,
                a: a.parse().map_err(|_| bad())?,
                cost_yes: cy.to_string(),
                cost_no: cn.to_string(),
            })
        })
        .collect()
}

/// Parses an exact rational as the program renders it (`p` or `p/q`).
pub fn parse_rational(s: &str) -> Result<BigRational, String> {
    let (p, q) = s.split_once('/').unwrap_or((s, "1"));
    let p: BigUint = p.parse().map_err(|_| format!("bad rational `{s}`"))?;
    let q: BigUint = q.parse().map_err(|_| format!("bad rational `{s}`"))?;
    if q.is_zero() {
        return Err(format!("zero denominator in `{s}`"));
    }
    Ok(BigRational::new(p.into(), q))
}

// ---------------------------------------------------------------------
// Reference generation (run once; the output is committed).

/// The gap-certify family: `dense_known_omega(N, ω)` on both sides of the
/// promise, reduced with size exponent `E`. `ω_yes ≥ E` puts the yes side
/// under Lemma 6's `K(a, E)`; `ω_no = 5` certifies a gap of
/// `a^{E − ω_no − 1} = a` by Lemma 8.
pub const GAP_N: usize = 10;
pub const GAP_OMEGA_YES: usize = 8;
pub const GAP_OMEGA_NO: usize = 5;
pub const GAP_E: u64 = 7;
/// Selectivity denominators `a`: powers of two from 2 to 16 bits, so exact
/// costs span ~70–600 bits while every pair stays in one cost band (a
/// non-power-of-two `a` takes the slow gcd path and costs 2–3× more).
pub const GAP_A: [u64; 5] = [4, 16, 256, 4096, 65536];

fn qon_ref(
    id: String,
    pool: &str,
    label: String,
    inst: &aqo_core::qon::QoNInstance,
) -> RefInstance {
    let opt = dp::optimize::<BigRational>(inst, true).expect("cartesian DP always has a plan");
    RefInstance {
        id,
        problem: Problem::Qon,
        pool: pool.to_string(),
        label,
        text: textio::qon_to_text(inst),
        cost: opt.cost.to_string(),
        order: opt.sequence.order().to_vec(),
        decomposition: None,
    }
}

/// A QO_H instance over a seeded chain with memory equal to the product of
/// all relation sizes (so the exhaustive tier always finds a feasible plan).
fn qoh_ref(id: String, pool: &str, n: usize, seed: u64) -> RefInstance {
    let params = workloads::WorkloadParams::default();
    let base = workloads::chain(n, &params, &mut StdRng::seed_from_u64(seed));
    let memory = base
        .sizes()
        .iter()
        .fold(BigUint::from(1u64), |acc, s| &acc * s);
    let inst = QoHInstance::new(
        base.graph().clone(),
        base.sizes().to_vec(),
        base.selectivity().clone(),
        memory,
    );
    let plan = pipeline::optimize_exhaustive(&inst).expect("memory admits every join");
    RefInstance {
        id,
        problem: Problem::Qoh,
        pool: pool.to_string(),
        label: format!("qoh-chain-{n}"),
        text: textio::qoh_to_text(&inst),
        cost: plan.cost.to_string(),
        order: plan.sequence.order().to_vec(),
        decomposition: Some(plan.decomposition.fragments().to_vec()),
    }
}

fn qon_shape(shape: &str, n: usize, seed: u64) -> aqo_core::qon::QoNInstance {
    let params = workloads::WorkloadParams::default();
    let rng = &mut StdRng::seed_from_u64(seed);
    match shape {
        "chain" => workloads::chain(n, &params, rng),
        "star" => workloads::star(n, &params, rng),
        "cycle" => workloads::cycle(n, &params, rng),
        "clique" => workloads::clique(n, &params, rng),
        "grid" => workloads::grid(n / 2, 2, &params, rng),
        other => panic!("unknown shape {other}"),
    }
}

/// serve-cold: exact QO_N optimizations sized to one ~60–90 ms band on a
/// 2-core x86-64 VM, plus a one-in-six share of QO_H n=5.
pub const COLD_QON: [(&str, usize); 5] = [
    ("chain", 10),
    ("star", 10),
    ("cycle", 10),
    ("clique", 9),
    ("grid", 10),
];
pub const COLD_PER_SHAPE: usize = 4;
pub const COLD_QOH_N: usize = 5;

/// serve-hot: the warmed pool (QO_N n=7–8 and QO_H n=4) and the fresh
/// small QO_N instances that miss.
pub const HOT_QON: [(&str, usize); 5] = [
    ("chain", 8),
    ("star", 8),
    ("cycle", 8),
    ("clique", 7),
    ("grid", 8),
];
pub const HOT_PER_SHAPE: usize = 8;
pub const HOT_QOH: usize = 8;
pub const MISS_COUNT: usize = 240;

pub fn generate(dir: &Path) -> Result<(), String> {
    let write = |name: &str, body: String| {
        let path = dir.join(name);
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
    };
    let mut cold = Vec::new();
    for (shape, n) in COLD_QON {
        for _ in 0..COLD_PER_SHAPE {
            let seed = 1000 + cold.len() as u64;
            let label = format!("{shape}-{n}");
            cold.push(qon_ref(
                format!("c{}", cold.len()),
                "cold",
                label,
                &qon_shape(shape, n, seed),
            ));
        }
    }
    for _ in 0..COLD_PER_SHAPE {
        let seed = 1000 + cold.len() as u64;
        cold.push(qoh_ref(
            format!("c{}", cold.len()),
            "cold",
            COLD_QOH_N,
            seed,
        ));
    }
    write(
        "serve_cold.ref",
        render_refs(
            "serve-cold pool; exact answers from dp::optimize / pipeline::optimize_exhaustive",
            &cold,
        ),
    )?;

    let mut hot = Vec::new();
    for (shape, n) in HOT_QON {
        for _ in 0..HOT_PER_SHAPE {
            let seed = 2000 + hot.len() as u64;
            hot.push(qon_ref(
                format!("h{}", hot.len()),
                "hot",
                format!("{shape}-{n}"),
                &qon_shape(shape, n, seed),
            ));
        }
    }
    for _ in 0..HOT_QOH {
        let seed = 2000 + hot.len() as u64;
        hot.push(qoh_ref(format!("h{}", hot.len()), "hot", 4, seed));
    }
    for i in 0..MISS_COUNT {
        let shape = ["chain", "cycle", "star"][i % 3];
        let n = 6 + (i / 3) % 2;
        let seed = 3000 + i as u64;
        hot.push(qon_ref(
            format!("m{i}"),
            "miss",
            format!("{shape}-{n}"),
            &qon_shape(shape, n, seed),
        ));
    }
    write(
        "serve_hot.ref",
        render_refs("serve-hot warmed pool and miss pool; exact answers from dp::optimize / pipeline::optimize_exhaustive", &hot),
    )?;

    let mut gap = String::from(
        "# gap-certify promise pairs: gap n omega_yes omega_no e a C*_yes C*_no (dp::optimize)\n",
    );
    for a in GAP_A {
        let a_big = BigUint::from(a);
        let side = |omega: usize| {
            let g = aqo_graph::generators::dense_known_omega(GAP_N, omega);
            let r = aqo_reductions::fn_reduction::reduce(&g, &a_big, GAP_E);
            dp::optimize::<BigRational>(&r.instance, true)
                .expect("cartesian DP always has a plan")
                .cost
        };
        let _ = writeln!(
            gap,
            "gap {GAP_N} {GAP_OMEGA_YES} {GAP_OMEGA_NO} {GAP_E} {a} {} {}",
            side(GAP_OMEGA_YES),
            side(GAP_OMEGA_NO)
        );
    }
    write("gap.ref", gap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refs_round_trip() {
        let r = RefInstance {
            id: "x1".into(),
            problem: Problem::Qoh,
            pool: "hot".into(),
            label: "qoh-chain-4".into(),
            text: "qoh\nvertices 1\n".into(),
            cost: "7/3".into(),
            order: vec![0],
            decomposition: Some(vec![(1, 1), (2, 3)]),
        };
        let body = render_refs("t", std::slice::from_ref(&r));
        assert_eq!(parse_refs(&body).unwrap(), vec![r]);
    }

    #[test]
    fn rationals_parse_exactly() {
        assert_eq!(parse_rational("6/4").unwrap().to_string(), "3/2");
        assert_eq!(parse_rational("12").unwrap().to_string(), "12");
        assert!(parse_rational("1/0").is_err());
    }
}
