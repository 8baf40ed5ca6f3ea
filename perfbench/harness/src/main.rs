//! `aqo-perfbench`: the aqo workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! aqo-perfbench run --workload <serve-cold|serve-hot|gap-certify> --seed <n>
//!               --seconds <s> --trace <0|1> --aqo <path to aqo binary>
//!               [--data <dir>] [--stamp <text>]
//! aqo-perfbench gen-reference --data <dir>
//! ```
//!
//! `run` prints human-readable notes, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, with `--trace 1` the
//! per-layer set. Normally launched through `perfbench/run.py`, which
//! builds both the harness and `aqo` first.

mod bench;
mod data;
mod gap;
mod serve;
mod trace;
mod traced;
mod util;

use bench::{Config, Outcome, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [&str; 5] = [
    "ops_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
    "setup_s",
];

/// Per-layer metrics (`--trace 1`), in output order.
const PER_LAYER: [&str; 33] = [
    "serve.server.overhead_us_p50",
    "serve.proto.parse_us_p50",
    "serve.proto.encode_us_p50",
    "core.textio.parse_us_p50",
    "core.textio.parse_mb_per_s",
    "core.fingerprint.key_us_p50",
    "serve.cache.lookup_us_p50",
    "serve.cache.insert_us_p50",
    "serve.cache.hit_ratio",
    "serve.cache.evictions",
    "serve.engine.handle_ms_p50",
    "driver.optimize_ms_p50",
    "driver.exact_share",
    "driver.fallbacks",
    "driver.expansions",
    "optimizer.dp.ms_p50",
    "optimizer.dp.subsets_expanded",
    "optimizer.dp.transitions",
    "optimizer.engine.ms_p50",
    "optimizer.engine.subsets_expanded",
    "optimizer.engine.exact_recosts",
    "optimizer.pipeline.ms_p50",
    "optimizer.pipeline.sequences_costed",
    "core.cost.total_cost_us",
    "bignum.rational_add_ns",
    "bignum.rational_mul_ns",
    "bignum.rational_cmp_ns",
    "bignum.rational_reduce_ns",
    "bignum.operand_bits_p50",
    "reductions.fn_reduce_us",
    "reductions.instance_bits",
    "obs.trace_overhead_frac",
    "layers.unattributed_frac",
];

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name} must be a whole number"))
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], process_start),
        Some("gen-reference") => {
            required(&args, "--data").and_then(|d| data::generate(&PathBuf::from(d)))
        }
        _ => Err("usage: aqo-perfbench run|gen-reference ... (see the module docs)".into()),
    };
    if let Err(e) = result {
        eprintln!("aqo-perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String], process_start: Instant) -> Result<(), String> {
    let workload = required(args, "--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let trace = match number(args, "--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let cfg = Config {
        workload,
        seed: number(args, "--seed")?,
        seconds: number(args, "--seconds")?,
        aqo: PathBuf::from(required(args, "--aqo")?),
        data: PathBuf::from(flag(args, "--data").unwrap_or("perfbench/data")),
        stamp: flag(args, "--stamp").unwrap_or("").to_string(),
    };
    println!(
        "stamp: {} workload={} seed={} seconds={} trace={}",
        cfg.stamp,
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(trace)
    );
    let outcome = if trace {
        traced::run_traced(&cfg)?
    } else if workload == Workload::GapCertify {
        bench::run_gap(&cfg, process_start)?
    } else {
        bench::run_serve(&cfg, process_start)?
    };
    let expected: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    print_result(&outcome, expected)
}

fn print_result(out: &Outcome, expected: &[&str]) -> Result<(), String> {
    let mut names: Vec<&str> = out.metrics.iter().map(|m| m.0).collect();
    names.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if names != want {
        return Err(format!(
            "metric set {names:?} differs from the declared {expected:?}"
        ));
    }
    for note in &out.notes {
        println!("{note}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "error_rate={error_rate} (failed {} of {} attempted ops)",
        out.failed, out.attempted
    );
    if let Some(e) = &out.first_error {
        println!("first failure: {e}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<38} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}
