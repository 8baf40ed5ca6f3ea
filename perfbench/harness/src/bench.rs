//! The three workloads: their seeded request lists and the untraced,
//! closed-loop timed runs that give the end-to-end metrics.

use crate::data::{self, GapRef, Problem, RefInstance};
use crate::gap::{self, GapOp};
use crate::serve::{check_reply, request_line, Expect, ServeReq, ServerProc};
use crate::trace::Tracer;
use crate::util::{median, ms, quantile, vm_hwm_mb, SplitMix};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeCold,
    ServeHot,
    GapCertify,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeCold,
        Workload::ServeHot,
        Workload::GapCertify,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCold => "serve-cold",
            Workload::ServeHot => "serve-hot",
            Workload::GapCertify => "gap-certify",
        }
    }
}

/// Everything a run needs besides the workload.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// The `aqo` binary under test.
    pub aqo: PathBuf,
    /// Directory with the committed reference files.
    pub data: PathBuf,
    /// One-line provenance stamp carried into every written file.
    pub stamp: String,
}

/// Where the traced run writes its spans, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";
/// Set-up is repeated this many times per run and `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// serve-hot: each warmed instance appears this many times per list, next
/// to one appearance of each miss instance (5% misses for 48 + 240).
pub const HOT_REPEATS: usize = 95;
/// serve-hot plan-cache capacity: above the warmed pool, below the number
/// of distinct instances, so miss inserts evict.
pub const HOT_CACHE_CAP: usize = 160;
/// gap-certify: relabellings per reference pair in one list.
pub const GAP_PERMS: usize = 4;

/// A serve workload's inputs: the timed list, the warm-up requests sent
/// during set-up, and the server's cache capacity.
pub struct ServeLists {
    pub list: Vec<ServeReq>,
    pub warm: Vec<ServeReq>,
    pub cache_cap: usize,
}

fn serve_req(id: usize, r: &RefInstance) -> ServeReq {
    ServeReq {
        line: request_line(id as u64, r.problem, &r.text),
        expect: Expect::of(r),
    }
}

pub fn serve_lists(workload: Workload, seed: u64, data_dir: &Path) -> Result<ServeLists, String> {
    let mut rng = SplitMix::new(seed);
    match workload {
        Workload::ServeCold => {
            let mut refs = data::read_refs(&data_dir.join("serve_cold.ref"))?;
            // The first instance of each problem family in file order warms
            // the server's lazy state. Taking them before the shuffle makes
            // set-up the same work for every seed.
            let mut warm = Vec::new();
            for p in [Problem::Qon, Problem::Qoh] {
                let r = refs
                    .iter()
                    .find(|r| r.problem == p)
                    .ok_or("cold pool lacks a family")?;
                warm.push(serve_req(warm.len(), r));
            }
            rng.shuffle(&mut refs);
            let list: Vec<ServeReq> = refs
                .iter()
                .enumerate()
                .map(|(i, r)| serve_req(i, r))
                .collect();
            Ok(ServeLists {
                list,
                warm,
                cache_cap: 0,
            })
        }
        Workload::ServeHot => {
            let refs = data::read_refs(&data_dir.join("serve_hot.ref"))?;
            let mut hot: Vec<&RefInstance> = refs.iter().filter(|r| r.pool == "hot").collect();
            let misses = refs.iter().filter(|r| r.pool == "miss");
            let mut picks: Vec<&RefInstance> = hot
                .iter()
                .flat_map(|r| std::iter::repeat_n(*r, HOT_REPEATS))
                .chain(misses)
                .collect();
            rng.shuffle(&mut picks);
            rng.shuffle(&mut hot);
            let list = picks
                .iter()
                .enumerate()
                .map(|(i, r)| serve_req(i, r))
                .collect();
            let warm = hot
                .iter()
                .enumerate()
                .map(|(i, r)| serve_req(i, r))
                .collect();
            Ok(ServeLists {
                list,
                warm,
                cache_cap: HOT_CACHE_CAP,
            })
        }
        Workload::GapCertify => Err("gap-certify has no serve list".into()),
    }
}

pub fn gap_list(seed: u64, pairs: &[GapRef]) -> Vec<GapOp> {
    let mut rng = SplitMix::new(seed);
    let mut ops = Vec::new();
    for (p, pair) in pairs.iter().enumerate() {
        for _ in 0..GAP_PERMS {
            let mut perm: Vec<usize> = (0..pair.n).collect();
            rng.shuffle(&mut perm);
            ops.push(GapOp { pair: p, perm });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// What the timed phase measured, pass by pass.
struct Timed {
    /// Latencies (ms) of the ops that succeeded, one vector per pass.
    passes: Vec<Vec<f64>>,
    /// Per pass: ops that succeeded / wall time of the pass.
    pass_rates: Vec<f64>,
    wall: Duration,
    /// Share of machine CPU time stolen by the hypervisor meanwhile.
    steal: f64,
}

/// Closed-loop timed phase: whole passes over `list` until `seconds`
/// have elapsed, one op at a time. `op` returns its own latency in ms.
fn timed_passes<T>(
    list: &[T],
    seconds: u64,
    out: &mut Outcome,
    mut op: impl FnMut(&T) -> Result<f64, String>,
) -> Timed {
    let mut timed = Timed {
        passes: Vec::new(),
        pass_rates: Vec::new(),
        wall: Duration::ZERO,
        steal: 0.0,
    };
    let ticks0 = cpu_ticks();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut lat = Vec::with_capacity(list.len());
        for item in list {
            match op(item) {
                Ok(ms) => {
                    lat.push(ms);
                    out.record(Ok(()));
                }
                Err(e) => out.record(Err(e)),
            }
        }
        timed
            .pass_rates
            .push(lat.len() as f64 / pass_start.elapsed().as_secs_f64());
        timed.passes.push(lat);
        if start.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    timed.wall = start.elapsed();
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks0, cpu_ticks()) {
        timed.steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
    }
    timed
}

/// The end-to-end metrics. Every pass sends the same list, so each pass
/// is one sample of the workload: a latency quantile is computed per pass
/// and the mean over passes is reported. On a shared host whose speed
/// switches between states for seconds at a time, the mean moves smoothly
/// with the share of time spent slowed, where a whole-run quantile jumps
/// between the states.
fn end_to_end(out: &mut Outcome, t: &Timed, setup: &[f64], rss_mb: f64) {
    let per_pass =
        |q: f64| t.passes.iter().map(|p| quantile(p, q)).sum::<f64>() / t.passes.len() as f64;
    let all: Vec<f64> = t.passes.concat();
    out.metric("ops_per_s", all.len() as f64 / t.wall.as_secs_f64(), "1/s");
    out.metric("latency_p50_ms", per_pass(0.5), "ms");
    out.metric("latency_p90_ms", per_pass(0.9), "ms");
    out.metric("peak_rss_mb", rss_mb, "MiB");
    out.metric("setup_s", median(setup), "s");
    let p99 = quantile(&all, 0.99);
    let beyond = all.iter().filter(|&&x| x > p99).count();
    out.notes.push(format!(
        "ops={} passes={} wall_s={:.3} whole-run: p50_ms={:.4} p90_ms={:.4} setup_s_each={:?}",
        all.len(),
        t.passes.len(),
        t.wall.as_secs_f64(),
        quantile(&all, 0.5),
        quantile(&all, 0.9),
        setup
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>(),
    ));
    out.notes.push(format!(
        "latency_p99_ms={p99:.4} (whole run; samples beyond p99: {beyond}{})",
        if beyond >= 10 {
            ""
        } else {
            "; too few to report"
        },
    ));
    let series = |v: Vec<f64>| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    out.notes
        .push(format!("pass_ops_per_s={}", series(t.pass_rates.clone())));
    out.notes.push(format!(
        "pass_p50_ms={}",
        series(t.passes.iter().map(|p| quantile(p, 0.5)).collect())
    ));
    out.notes.push(format!(
        "pass_p90_ms={}",
        series(t.passes.iter().map(|p| quantile(p, 0.9)).collect())
    ));
    out.notes.push(format!(
        "cpu_steal_share={:.4} (whole machine, during the timed phase)",
        t.steal
    ));
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`; `None`
/// where the file is unavailable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.get(7).copied()?, ticks.iter().take(8).sum()))
}

/// Untraced run of a serve workload against an `aqo serve` child.
pub fn run_serve(cfg: &Config, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let lists = serve_lists(cfg.workload, cfg.seed, &cfg.data)?;
        let server = ServerProc::spawn(&cfg.aqo, lists.cache_cap)?;
        let mut conn = server.connect()?;
        for req in &lists.warm {
            let r = conn
                .roundtrip(&req.line)
                .and_then(|reply| check_reply(&reply, &req.expect).map(drop));
            out.record(r);
        }
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drop(conn);
            server.shutdown()?;
        } else {
            live = Some((lists, server, conn));
        }
    }
    let (lists, server, mut conn) = live.expect("at least one set-up");
    // Latency by reply class (served from the cache or optimized).
    let mut by_class: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let timed = timed_passes(&lists.list, cfg.seconds, &mut out, |req| {
        // The latency is the round trip alone; checking happens after it.
        let t = Instant::now();
        let reply = conn.roundtrip(&req.line)?;
        let dt = ms(t.elapsed());
        let info = check_reply(&reply, &req.expect)?;
        by_class[usize::from(info.cached)].push(dt);
        Ok(dt)
    });
    let rss = server.peak_rss_mb()?;
    drop(conn);
    server.shutdown()?;
    end_to_end(&mut out, &timed, &setup, rss);
    for (class, l) in ["optimized", "cached"].iter().zip(&by_class) {
        out.notes.push(format!(
            "{class}: n={} p50_ms={:.4} p90_ms={:.4} p99_ms={:.4}",
            l.len(),
            quantile(l, 0.5),
            quantile(l, 0.9),
            quantile(l, 0.99)
        ));
    }
    Ok(out)
}

/// Untraced in-process run of gap-certify.
pub fn run_gap(cfg: &Config, process_start: Instant) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut live = None;
    let mut off = Tracer::new(false);
    for rep in 0..SETUP_REPS {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let pairs = data::read_gap_refs(&cfg.data.join("gap.ref"))?;
        let ops = gap_list(cfg.seed, &pairs);
        // A fixed warm-up op (first pair, identity relabelling), so set-up
        // is the same work for every seed: the pairs' costs differ with `a`.
        let warm = GapOp {
            pair: 0,
            perm: (0..pairs[0].n).collect(),
        };
        out.record(gap::run_op(&pairs[0], &warm, &mut off).map(drop));
        setup.push(t0.elapsed().as_secs_f64());
        live = Some((pairs, ops));
    }
    let (pairs, ops) = live.expect("at least one set-up");
    let timed = timed_passes(&ops, cfg.seconds, &mut out, |op| {
        let t = Instant::now();
        gap::run_op(&pairs[op.pair], op, &mut off)?;
        Ok(ms(t.elapsed()))
    });
    end_to_end(&mut out, &timed, &setup, vm_hwm_mb("self")?);
    Ok(out)
}
