//! The traced run: per-layer metrics.
//!
//! It replays the workload's list in process, calling each layer's public
//! functions from the harness and recording a span around every call (see
//! [`crate::trace`]). The program's own `aqo_obs` counters are read after
//! a reset; the traced passes do a fixed amount of work, so the counts
//! repeat exactly between two traced runs of one seed. The traced run
//! never goes through the CLI's `--metrics`/`--trace-json` path, which
//! would switch the exact tier from `dp.rs` to the engine.
//!
//! Phases, each over one pass of the list:
//! 1. gap-certify only: every op untraced and traced back to back, then
//!    once more with the program's counters on.
//! 2. Per request, back to back: a TCP round trip to an `aqo serve` child
//!    (overhead = round trip minus the handler time the server reports for
//!    the same request), `Engine::handle` in process, and the serve path
//!    mirrored call by call ([`crate::serve::mirror`]) untraced and traced.
//!    gap-certify sends its reduced instances, with the cache off.
//! 3. The mirrored serve path once more with the program's counters on.
//! 4. Probes re-running each instance the driver optimized through the
//!    optimizer tiers, the cost model and the reduction directly.
//! 5. Rational arithmetic at the workload's operand widths.
//!
//! Running the variants of one request back to back keeps a shared host's
//! slow and fast spells from landing on one variant only.

use crate::bench::{gap_list, serve_lists, Config, Outcome, ServeLists, Workload, OUT_DIR};
use crate::data::{self, parse_rational, Problem};
use crate::gap::{self, GapOutcome};
use crate::serve::{
    check_reply, mirror, request_line, Expect, MirrorStats, Optimized, ServeReq, ServerProc,
};
use crate::trace::Tracer;
use crate::util::{median, ms, quantile, us};
use aqo_bignum::BigRational;
use aqo_core::qon::QoNInstance;
use aqo_core::{textio, Budget};
use aqo_optimizer::{dp, engine, pipeline};
use aqo_serve::{Engine, PlanCache, Request};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

type Counters = BTreeMap<String, u64>;

fn counters() -> Counters {
    aqo_obs::counters_snapshot().into_iter().collect()
}

fn delta(after: &Counters, before: &Counters, name: &str) -> f64 {
    (after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)) as f64
}

/// The serve list of a workload; gap-certify serves its reduced instances
/// (both sides of every op) with the cache off.
fn serve_side(cfg: &Config, gap_outcomes: &[GapOutcome]) -> Result<ServeLists, String> {
    if cfg.workload != Workload::GapCertify {
        return serve_lists(cfg.workload, cfg.seed, &cfg.data);
    }
    let mut list = Vec::new();
    for o in gap_outcomes {
        for (inst, cost) in o.instances.iter().zip(&o.costs) {
            let line = request_line(list.len() as u64, Problem::Qon, &textio::qon_to_text(inst));
            list.push(ServeReq {
                line,
                expect: Expect {
                    cost: cost.to_string(),
                    order: None,
                    decomposition: None,
                },
            });
        }
    }
    Ok(ServeLists {
        list,
        warm: Vec::new(),
        cache_cap: 0,
    })
}

pub fn run_traced(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut jsonl = format!("{{\"stamp\": {}}}\n", crate::util::json_str(&cfg.stamp));
    aqo_obs::set_enabled(false);

    // gap-certify's own pipeline. Each op runs untraced and traced back to
    // back (alternating which goes first), so both see the same machine
    // state; then the whole list once more with the program's counters on
    // (kept out of the timed runs: collecting them costs the program time
    // that no harness span accounts for).
    let mut gap_outcomes = Vec::new();
    let mut gap_counters = Counters::new();
    let mut gap_spans = BTreeMap::new();
    let (mut gap_untraced_us, mut gap_traced_us) = (0.0, 0.0);
    if cfg.workload == Workload::GapCertify {
        let pairs = data::read_gap_refs(&cfg.data.join("gap.ref"))?;
        let ops = gap_list(cfg.seed, &pairs);
        let mut tr = Tracer::new(true);
        let mut off = Tracer::new(false);
        for (i, op) in ops.iter().enumerate() {
            tr.set_request(i as u64);
            for traced in [i % 2 == 1, i % 2 == 0] {
                let t = Instant::now();
                let r = gap::run_op(&pairs[op.pair], op, if traced { &mut tr } else { &mut off });
                let dt = us(t.elapsed());
                match r {
                    Ok(o) if traced => {
                        gap_traced_us += dt;
                        gap_outcomes.push(o);
                        out.record(Ok(()));
                    }
                    Ok(_) => {
                        gap_untraced_us += dt;
                        out.record(Ok(()));
                    }
                    Err(e) => out.record(Err(e)),
                }
            }
        }
        aqo_obs::set_enabled(true);
        aqo_obs::reset_metrics();
        for op in &ops {
            out.record(gap::run_op(&pairs[op.pair], op, &mut off).map(drop));
        }
        gap_counters = counters();
        aqo_obs::set_enabled(false);
        gap_spans = tr.self_times_us();
        jsonl.push_str(&tr.to_jsonl("gap"));
    }

    // The serve path. Per request, back to back: a TCP round trip to an
    // `aqo serve` child, `Engine::handle` in process (counters on, as in
    // the server), and the mirrored serve path untraced and traced
    // (alternating which goes first). Each has its own plan cache, warmed
    // the same way, so all see the same hits and misses.
    let side = serve_side(cfg, &gap_outcomes)?;
    let server = ServerProc::spawn(&cfg.aqo, side.cache_cap)?;
    let mut conn = server.connect()?;
    let eng = Engine::new(side.cache_cap, None);
    let (cache_u, cache_t) = (
        PlanCache::new(side.cache_cap),
        PlanCache::new(side.cache_cap),
    );
    let (mut stats_u, mut stats) = (MirrorStats::default(), MirrorStats::default());
    let mut off = Tracer::new(false);
    for req in &side.warm {
        out.record(
            conn.roundtrip(&req.line)
                .and_then(|r| check_reply(&r, &req.expect))
                .map(drop),
        );
        aqo_obs::set_enabled(true);
        let reply = eng.handle(&Request::parse(&req.line)?);
        aqo_obs::set_enabled(false);
        out.record(check_reply(&reply.to_json_line(), &req.expect).map(drop));
        out.record(mirror(&req.line, &req.expect, &cache_u, &mut off, &mut stats_u).map(drop));
        out.record(mirror(&req.line, &req.expect, &cache_t, &mut off, &mut stats).map(drop));
    }
    let warm_optimized = std::mem::take(&mut stats.optimized);
    let before = cache_t.stats();
    let mut tr = Tracer::new(true);
    let mut overhead_us = Vec::new();
    let mut handle_ms = Vec::new();
    let (mut rtt_total_us, mut untraced_us, mut traced_us) = (0.0, 0.0, 0.0);
    for (i, req) in side.list.iter().enumerate() {
        let t = Instant::now();
        let reply = conn.roundtrip(&req.line);
        let rtt = us(t.elapsed());
        match reply.and_then(|r| check_reply(&r, &req.expect)) {
            Ok(info) => {
                overhead_us.push(rtt - info.elapsed_us as f64);
                rtt_total_us += rtt;
                out.record(Ok(()));
            }
            Err(e) => out.record(Err(e)),
        }

        let parsed = Request::parse(&req.line)?;
        aqo_obs::set_enabled(true);
        let t = Instant::now();
        let reply = eng.handle(&parsed);
        handle_ms.push(ms(t.elapsed()));
        aqo_obs::set_enabled(false);
        out.record(check_reply(&reply.to_json_line(), &req.expect).map(drop));

        tr.set_request(i as u64);
        for traced in [i % 2 == 1, i % 2 == 0] {
            let t = Instant::now();
            let r = if traced {
                mirror(&req.line, &req.expect, &cache_t, &mut tr, &mut stats)
            } else {
                mirror(&req.line, &req.expect, &cache_u, &mut off, &mut stats_u)
            };
            *(if traced {
                &mut traced_us
            } else {
                &mut untraced_us
            }) += us(t.elapsed());
            out.record(r.map(drop));
        }
    }
    let after = cache_t.stats();
    drop(conn);
    server.shutdown()?;

    // The program's counters over one more mirrored pass.
    let serve_counters = {
        let cache = PlanCache::new(side.cache_cap);
        let mut scratch = MirrorStats::default();
        for req in &side.warm {
            out.record(mirror(&req.line, &req.expect, &cache, &mut off, &mut scratch).map(drop));
        }
        aqo_obs::set_enabled(true);
        aqo_obs::reset_metrics();
        for req in &side.list {
            out.record(mirror(&req.line, &req.expect, &cache, &mut off, &mut scratch).map(drop));
        }
        aqo_obs::set_enabled(false);
        counters()
    };
    jsonl.push_str(&tr.to_jsonl("serve"));
    let spans = tr.self_times_us();
    let p50 =
        |spans: &BTreeMap<&str, Vec<f64>>, name: &str| spans.get(name).map_or(0.0, |v| median(v));
    let total = |spans: &BTreeMap<&str, Vec<f64>>, name: &str| {
        spans.get(name).map_or(0.0, |v| v.iter().sum())
    };

    out.metric("serve.server.overhead_us_p50", median(&overhead_us), "us");
    out.metric(
        "serve.proto.parse_us_p50",
        p50(&spans, "serve.proto.parse"),
        "us",
    );
    out.metric(
        "serve.proto.encode_us_p50",
        p50(&spans, "serve.proto.encode"),
        "us",
    );
    out.metric(
        "core.textio.parse_us_p50",
        p50(&spans, "core.textio.parse"),
        "us",
    );
    out.metric(
        "core.textio.parse_mb_per_s",
        stats.parsed_bytes as f64 / total(&spans, "core.textio.parse").max(1e-9),
        "MB/s",
    );
    out.metric(
        "core.fingerprint.key_us_p50",
        p50(&spans, "core.fingerprint.key"),
        "us",
    );
    out.metric(
        "serve.cache.lookup_us_p50",
        p50(&spans, "serve.cache.lookup"),
        "us",
    );
    out.metric(
        "serve.cache.insert_us_p50",
        p50(&spans, "serve.cache.insert"),
        "us",
    );
    let lookups = (after.hits + after.misses - before.hits - before.misses).max(1);
    out.metric(
        "serve.cache.hit_ratio",
        (after.hits - before.hits) as f64 / lookups as f64,
        "ratio",
    );
    out.metric(
        "serve.cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    out.metric("serve.engine.handle_ms_p50", median(&handle_ms), "ms");

    // The workload's own driver calls: the op pipeline for gap-certify,
    // the serve path otherwise.
    let (drv_spans, drv_counters) = if cfg.workload == Workload::GapCertify {
        (&gap_spans, &gap_counters)
    } else {
        (&spans, &serve_counters)
    };
    let (calls, exact, expansions) = if cfg.workload == Workload::GapCertify {
        let reports = gap_outcomes.iter().flat_map(|o| o.reports.iter());
        reports.fold((0u64, 0u64, 0u64), |(c, x, e), r| {
            (c + 1, x + u64::from(r.exact), e + r.expansions)
        })
    } else {
        (
            stats.driver_calls,
            stats.driver_exact,
            stats.driver_expansions,
        )
    };
    out.metric(
        "driver.optimize_ms_p50",
        p50(drv_spans, "driver.optimize") / 1e3,
        "ms",
    );
    out.metric(
        "driver.exact_share",
        exact as f64 / calls.max(1) as f64,
        "ratio",
    );
    out.metric(
        "driver.fallbacks",
        drv_counters.get("driver.fallbacks").copied().unwrap_or(0) as f64,
        "count",
    );
    out.metric("driver.expansions", expansions as f64, "count");

    // Phase 4: probes on every instance the workload's driver optimized.
    let mut qon: Vec<QoNInstance> = Vec::new();
    let mut qoh = Vec::new();
    if cfg.workload == Workload::GapCertify {
        qon.extend(
            gap_outcomes
                .iter()
                .flat_map(|o| o.instances.iter().cloned()),
        );
    } else {
        for o in warm_optimized.into_iter().chain(stats.optimized) {
            match o {
                Optimized::Qon(i) => qon.push(i),
                Optimized::Qoh(i) => qoh.push(i),
            }
        }
    }
    aqo_obs::set_enabled(true);
    let c0 = counters();
    let (mut dp_ms, mut eng_ms, mut cost_us) = (Vec::new(), Vec::new(), Vec::new());
    let unlimited = Budget::unlimited();
    for inst in &qon {
        let t = Instant::now();
        let opt = dp::optimize_with_budget::<BigRational>(inst, true, &unlimited)
            .map_err(|e| e.to_string())?
            .ok_or("dp found no plan")?;
        dp_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let opts = engine::DpOptions {
            allow_cartesian: true,
            threads: 1,
        };
        let eopt = engine::optimize_two_phase::<BigRational>(inst, &opts, &unlimited)
            .map_err(|e| e.to_string())?
            .ok_or("engine found no plan")?;
        eng_ms.push(ms(t.elapsed()));
        out.record(if eopt.cost == opt.cost {
            Ok(())
        } else {
            Err("engine and dp optima differ".into())
        });
        let t = Instant::now();
        let c: BigRational = inst.total_cost(&opt.sequence);
        cost_us.push(us(t.elapsed()));
        out.record(if c == opt.cost {
            Ok(())
        } else {
            Err("recost differs from dp optimum".into())
        });
    }
    let mut pipe_ms = Vec::new();
    for inst in &qoh {
        let t = Instant::now();
        pipeline::optimize_exhaustive_with_budget(inst, &unlimited).map_err(|e| e.to_string())?;
        pipe_ms.push(ms(t.elapsed()));
    }
    let c1 = counters();
    aqo_obs::set_enabled(false);
    out.metric("optimizer.dp.ms_p50", median(&dp_ms), "ms");
    out.metric(
        "optimizer.dp.subsets_expanded",
        delta(&c1, &c0, "optimizer.dp.subsets_expanded"),
        "count",
    );
    out.metric(
        "optimizer.dp.transitions",
        delta(&c1, &c0, "optimizer.dp.transitions"),
        "count",
    );
    out.metric("optimizer.engine.ms_p50", median(&eng_ms), "ms");
    out.metric(
        "optimizer.engine.subsets_expanded",
        delta(&c1, &c0, "optimizer.engine.subsets_expanded"),
        "count",
    );
    out.metric(
        "optimizer.engine.exact_recosts",
        delta(&c1, &c0, "optimizer.engine.exact_recosts"),
        "count",
    );
    out.metric("optimizer.pipeline.ms_p50", median(&pipe_ms), "ms");
    out.metric(
        "optimizer.pipeline.sequences_costed",
        delta(&c1, &c0, "optimizer.pipeline.sequences_costed"),
        "count",
    );
    out.metric("core.cost.total_cost_us", median(&cost_us), "us");

    // The reduction layer: on the op path for gap-certify; for the serve
    // workloads, f_N applied to the query graphs they optimize.
    let (reduce_us, bits) = if cfg.workload == Workload::GapCertify {
        let bits: Vec<f64> = qon.iter().map(instance_bits).collect();
        (p50(&gap_spans, "reductions.fn_reduce"), median(&bits))
    } else {
        let a = aqo_bignum::BigUint::from(4u64);
        let mut times = Vec::new();
        let mut bits = Vec::new();
        for inst in &qon {
            let t = Instant::now();
            let r = aqo_reductions::fn_reduction::reduce(inst.graph(), &a, (inst.n() / 2) as u64);
            times.push(us(t.elapsed()));
            bits.push(instance_bits(&r.instance));
        }
        (median(&times), median(&bits))
    };
    out.metric("reductions.fn_reduce_us", reduce_us, "us");
    out.metric("reductions.instance_bits", bits, "bits");

    // Phase 5: rational arithmetic at the widths of this workload's costs.
    let costs: Vec<BigRational> = if cfg.workload == Workload::GapCertify {
        gap::reference_costs(&data::read_gap_refs(&cfg.data.join("gap.ref"))?)?
    } else {
        side.list
            .iter()
            .map(|r| parse_rational(&r.expect.cost))
            .collect::<Result<_, _>>()?
    };
    bignum_probe(&costs, &mut out);

    // Tracing overhead and the share of end-to-end time no layer claims.
    let overhead = if cfg.workload == Workload::GapCertify {
        gap_traced_us / gap_untraced_us - 1.0
    } else {
        traced_us / untraced_us - 1.0
    };
    out.metric("obs.trace_overhead_frac", overhead, "ratio");
    let leaf_total = |spans: &BTreeMap<&str, Vec<f64>>, root: &str| -> f64 {
        spans
            .iter()
            .filter(|(k, _)| **k != root)
            .map(|(_, v)| v.iter().sum::<f64>())
            .sum()
    };
    let unattributed = if cfg.workload == Workload::GapCertify {
        (gap_untraced_us - leaf_total(&gap_spans, "gap.op")) / gap_untraced_us
    } else {
        let server_overhead: f64 = overhead_us.iter().sum();
        (rtt_total_us - server_overhead - leaf_total(&spans, "serve.request")) / rtt_total_us
    };
    out.metric("layers.unattributed_frac", unattributed, "ratio");

    // The program's own counters over the traced pass: deterministic.
    let own = if cfg.workload == Workload::GapCertify {
        &gap_counters
    } else {
        &serve_counters
    };
    let line = own
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    out.notes.push(format!("obs_counters {line}"));
    jsonl.push_str(&format!(
        "{{\"obs_counters\": {}}}\n",
        crate::util::json_str(&line)
    ));
    out.notes.push(format!(
        "traced: {} serve requests, {} QO_N + {} QO_H probe instances",
        side.list.len(),
        qon.len(),
        qoh.len()
    ));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = std::path::Path::new(OUT_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, jsonl).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

/// Total bit length of every number in a QO_N instance (sizes,
/// selectivities, access costs).
fn instance_bits(inst: &QoNInstance) -> f64 {
    let sizes: u64 = inst.sizes().iter().map(|t| t.bits()).sum();
    let edges: u64 = inst
        .graph()
        .edges()
        .map(|(u, v)| {
            let s = inst.selectivity().get(u, v);
            s.numer().magnitude().bits()
                + s.denom().bits()
                + inst.w(u, v).bits()
                + inst.w(v, u).bits()
        })
        .sum();
    (sizes + edges) as f64
}

/// Times add, mul, compare and gcd reduction on consecutive pairs of the
/// workload's exact costs; each figure is the median over five batches.
fn bignum_probe(costs: &[BigRational], out: &mut Outcome) {
    let mut ops: Vec<BigRational> = costs.to_vec();
    ops.sort();
    ops.dedup();
    let pairs: Vec<(&BigRational, &BigRational)> =
        ops.iter().zip(ops.iter().cycle().skip(1)).collect();
    let unreduced: Vec<_> = pairs
        .iter()
        .map(|(x, y)| {
            (
                x.numer().clone() * y.numer().clone(),
                x.denom().clone() * y.denom().clone(),
            )
        })
        .collect();
    const REPS: usize = 200;
    let per_op = |f: &dyn Fn(usize)| -> f64 {
        let mut batches = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..REPS {
                for i in 0..pairs.len() {
                    f(i);
                }
            }
            batches.push(t.elapsed().as_nanos() as f64 / (REPS * pairs.len()).max(1) as f64);
        }
        median(&batches)
    };
    let add = per_op(&|i| {
        drop(black_box(
            black_box(pairs[i].0).clone() + black_box(pairs[i].1),
        ))
    });
    let mul = per_op(&|i| {
        drop(black_box(
            black_box(pairs[i].0).clone() * black_box(pairs[i].1),
        ))
    });
    let cmp = per_op(&|i| {
        black_box(black_box(pairs[i].0) < black_box(pairs[i].1));
    });
    let reduce = per_op(&|i| {
        let (n, d) = black_box(&unreduced[i]);
        drop(black_box(BigRational::new(n.clone(), d.clone())))
    });
    let bits: Vec<f64> = ops
        .iter()
        .map(|c| c.numer().magnitude().bits().max(c.denom().bits()) as f64)
        .collect();
    out.metric("bignum.rational_add_ns", add, "ns");
    out.metric("bignum.rational_mul_ns", mul, "ns");
    out.metric("bignum.rational_cmp_ns", cmp, "ns");
    out.metric("bignum.rational_reduce_ns", reduce, "ns");
    out.metric("bignum.operand_bits_p50", quantile(&bits, 0.5), "bits");
}
