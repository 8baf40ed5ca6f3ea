//! The serve side: an `aqo serve` child process, a closed-loop JSONL
//! client, reply checking against the reference, and the in-process
//! mirror of the serve request path used by the traced run.

use crate::data::{Problem, RefInstance};
use crate::trace::Tracer;
use crate::util::{json_str, vm_hwm_mb};
use aqo_core::fingerprint::{canonical_qoh, canonical_qon, fnv1a};
use aqo_core::{qoh::QoHInstance, qon::QoNInstance, textio, CostScalar};
use aqo_obs::json::{self, JsonValue};
use aqo_serve::cache::CachedPlan;
use aqo_serve::proto::OkReply;
use aqo_serve::{Op, PlanCache, Reply, Request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The answer a reply must carry. `order`/`decomposition` are `None` where
/// the reference fixes only the cost (gap-certify instances).
#[derive(Clone, Debug)]
pub struct Expect {
    pub cost: String,
    pub order: Option<Vec<usize>>,
    pub decomposition: Option<Vec<(usize, usize)>>,
}

impl Expect {
    pub fn of(r: &RefInstance) -> Self {
        Expect {
            cost: r.cost.clone(),
            order: Some(r.order.clone()),
            decomposition: r.decomposition.clone(),
        }
    }
}

/// One request of a serve list: the wire line and its expected answer.
#[derive(Clone, Debug)]
pub struct ServeReq {
    pub line: String,
    pub expect: Expect,
}

/// An optimize request line for `text`, all knobs at their defaults.
pub fn request_line(id: u64, problem: Problem, text: &str) -> String {
    format!(
        "{{\"op\": \"optimize\", \"id\": {id}, \"problem\": \"{}\", \"instance\": {}}}",
        problem.name(),
        json_str(text)
    )
}

/// What a checked reply reported about itself.
#[derive(Debug)]
pub struct ReplyInfo {
    /// Time the server spent in its request handler.
    pub elapsed_us: u64,
    pub cached: bool,
}

/// Checks one reply line against `expect`: an error reply, a degraded or
/// inexact plan, or a cost/plan that differs from the reference fails.
pub fn check_reply(reply: &str, expect: &Expect) -> Result<ReplyInfo, String> {
    let doc = json::parse(reply)?;
    if doc.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("error reply: {reply}"));
    }
    if doc.get("degraded") == Some(&JsonValue::Bool(true)) {
        return Err("degraded reply".into());
    }
    if doc.get("exact") != Some(&JsonValue::Bool(true)) {
        return Err("inexact plan".into());
    }
    let cost = doc
        .get("cost")
        .and_then(JsonValue::as_str)
        .ok_or("reply has no cost")?;
    check_answer(
        cost,
        &numbers(doc.get("order"))?,
        decomposition(doc.get("decomposition"))?,
        expect,
    )?;
    let elapsed_us = doc
        .get("elapsed_us")
        .and_then(JsonValue::as_num)
        .ok_or("no elapsed_us")? as u64;
    let cached = doc.get("cached") == Some(&JsonValue::Bool(true));
    Ok(ReplyInfo { elapsed_us, cached })
}

fn check_answer(
    cost: &str,
    order: &[usize],
    decomposition: Option<Vec<(usize, usize)>>,
    expect: &Expect,
) -> Result<(), String> {
    if cost != expect.cost {
        return Err(format!("cost {cost} != reference {}", expect.cost));
    }
    if let Some(want) = &expect.order {
        if order != want.as_slice() {
            return Err(format!("order {order:?} != reference {want:?}"));
        }
    }
    if expect.decomposition.is_some() && decomposition != expect.decomposition {
        return Err(format!(
            "decomposition {decomposition:?} != reference {:?}",
            expect.decomposition
        ));
    }
    Ok(())
}

fn numbers(v: Option<&JsonValue>) -> Result<Vec<usize>, String> {
    let arr = v.and_then(JsonValue::as_arr).ok_or("reply has no order")?;
    arr.iter()
        .map(|x| {
            x.as_num()
                .map(|n| n as usize)
                .ok_or_else(|| "bad order".to_string())
        })
        .collect()
}

fn decomposition(v: Option<&JsonValue>) -> Result<Option<Vec<(usize, usize)>>, String> {
    let Some(arr) = v.and_then(JsonValue::as_arr) else {
        return Ok(None);
    };
    arr.iter()
        .map(|pair| match numbers(Some(pair))?.as_slice() {
            [lo, hi] => Ok((*lo, *hi)),
            _ => Err("bad decomposition".to_string()),
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

// ---------------------------------------------------------------------
// The `aqo serve` child.

pub struct ServerProc {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl ServerProc {
    /// Boots `aqo serve` on an ephemeral loopback port with one worker and
    /// a plan cache of `cache_cap` entries (0 disables it).
    pub fn spawn(aqo: &Path, cache_cap: usize) -> Result<Self, String> {
        let mut child = Command::new(aqo)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "1",
                "--cache-cap",
            ])
            .arg(cache_cap.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", aqo.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match err.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("aqo serve exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("serve: listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = err.read_to_string(&mut rest);
            rest
        });
        Ok(ServerProc {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            buf: String::new(),
        })
    }

    /// Peak resident set of the server process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&self.child.id().to_string())
    }

    /// Asks the server to stop and waits for the process to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = self
            .connect()
            .and_then(|mut c| c.roundtrip("{\"op\": \"shutdown\", \"id\": 0}"));
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(s) => break s,
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("aqo serve did not stop after shutdown".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        ack?;
        if !status.success() {
            return Err(format!("aqo serve exited with {status}: {log}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection; requests are sent one at a time (closed loop).
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn roundtrip(&mut self, line: &str) -> Result<String, String> {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(self.buf.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

// ---------------------------------------------------------------------
// In-process mirror of the serve request path, one public call per layer.

/// A parsed instance the mirror handed to the driver (the optimizer
/// probes re-run these).
pub enum Optimized {
    Qon(QoNInstance),
    Qoh(QoHInstance),
}

/// Per-pass tallies of the mirror.
#[derive(Default)]
pub struct MirrorStats {
    pub parsed_bytes: u64,
    pub driver_calls: u64,
    pub driver_exact: u64,
    pub driver_expansions: u64,
    pub optimized: Vec<Optimized>,
}

/// Handles one request line the way `aqo_serve::Engine` does (parse,
/// instance parse, canonical key, cache lookup, driver, cache insert,
/// encode), through the same public functions, each in its own span, and
/// checks the answer. Returns the encoded reply.
pub fn mirror(
    line: &str,
    expect: &Expect,
    cache: &PlanCache,
    tr: &mut Tracer,
    stats: &mut MirrorStats,
) -> Result<String, String> {
    tr.begin("serve.request");
    let out = mirror_inner(line, expect, cache, tr, stats);
    tr.end();
    out
}

fn mirror_inner(
    line: &str,
    expect: &Expect,
    cache: &PlanCache,
    tr: &mut Tracer,
    stats: &mut MirrorStats,
) -> Result<String, String> {
    let req = tr.span("serve.proto.parse", || Request::parse(line))?;
    let text = req.instance.as_deref().unwrap_or_default();
    stats.parsed_bytes += text.len() as u64;
    let (plan, cached) = match req.problem {
        aqo_serve::Problem::Qon => {
            let inst = tr
                .span("core.textio.parse", || textio::qon_from_text(text))
                .map_err(|e| e.to_string())?;
            let (key, hash) = tr.span("core.fingerprint.key", || {
                let key = format!(
                    "qon cart={} {}",
                    u8::from(req.allow_cartesian),
                    canonical_qon(&inst)
                );
                let hash = fnv1a(key.as_bytes());
                (key, hash)
            });
            match tr.span("serve.cache.lookup", || cache.lookup(hash, &key)) {
                Some(hit) => (hit, true),
                None => {
                    let cfg = aqo_driver::QonDriverConfig {
                        allow_cartesian: req.allow_cartesian,
                        threads: req.threads,
                        ..Default::default()
                    };
                    let outcome = tr
                        .span("driver.optimize", || aqo_driver::optimize_qon(&inst, &cfg))
                        .map_err(|e| e.to_string())?;
                    note_driver(stats, &outcome.report);
                    let plan = CachedPlan {
                        tier: outcome.report.tier.to_string(),
                        exact: outcome.report.exact,
                        order: outcome.optimum.sequence.order().to_vec(),
                        cost: outcome.optimum.cost.to_string(),
                        cost_log2: CostScalar::log2(&outcome.optimum.cost),
                        decomposition: None,
                    };
                    if plan.exact {
                        tr.span("serve.cache.insert", || {
                            cache.insert(hash, key, plan.clone())
                        });
                    }
                    stats.optimized.push(Optimized::Qon(inst));
                    (plan, false)
                }
            }
        }
        aqo_serve::Problem::Qoh => {
            let inst = tr
                .span("core.textio.parse", || textio::qoh_from_text(text))
                .map_err(|e| e.to_string())?;
            let (key, hash) = tr.span("core.fingerprint.key", || {
                let key = format!("qoh {}", canonical_qoh(&inst));
                let hash = fnv1a(key.as_bytes());
                (key, hash)
            });
            match tr.span("serve.cache.lookup", || cache.lookup(hash, &key)) {
                Some(hit) => (hit, true),
                None => {
                    let cfg = aqo_driver::QohDriverConfig {
                        threads: req.threads,
                        ..Default::default()
                    };
                    let outcome = tr
                        .span("driver.optimize", || aqo_driver::optimize_qoh(&inst, &cfg))
                        .map_err(|e| e.to_string())?;
                    note_driver(stats, &outcome.report);
                    let plan = CachedPlan {
                        tier: outcome.report.tier.to_string(),
                        exact: outcome.report.exact,
                        order: outcome.plan.sequence.order().to_vec(),
                        cost: outcome.plan.cost.to_string(),
                        cost_log2: outcome.plan.cost.log2(),
                        decomposition: Some(outcome.plan.decomposition.fragments().to_vec()),
                    };
                    if plan.exact {
                        tr.span("serve.cache.insert", || {
                            cache.insert(hash, key, plan.clone())
                        });
                    }
                    stats.optimized.push(Optimized::Qoh(inst));
                    (plan, false)
                }
            }
        }
        aqo_serve::Problem::Clique => {
            return Err("clique requests are not part of any workload".into())
        }
    };
    if !plan.exact {
        return Err("inexact plan".into());
    }
    check_answer(&plan.cost, &plan.order, plan.decomposition.clone(), expect)?;
    let reply = Reply::Ok(Box::new(OkReply {
        id: req.id,
        op: Op::Optimize,
        problem: req.problem,
        fingerprint: 0,
        cached,
        tier: plan.tier,
        exact: plan.exact,
        degraded: false,
        order: plan.order,
        cost: plan.cost,
        cost_log2: plan.cost_log2,
        decomposition: plan.decomposition,
        explain: None,
        elapsed_us: 0,
    }));
    Ok(tr.span("serve.proto.encode", || reply.to_json_line()))
}

fn note_driver(stats: &mut MirrorStats, report: &aqo_driver::DriverReport) {
    stats.driver_calls += 1;
    stats.driver_exact += u64::from(report.exact);
    stats.driver_expansions += report.expansions;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect() -> Expect {
        Expect {
            cost: "91/4".into(),
            order: Some(vec![1, 0, 2]),
            decomposition: None,
        }
    }

    const GOOD: &str = "{\"id\": 3, \"ok\": true, \"op\": \"optimize\", \"problem\": \"qon\", \
        \"fingerprint\": \"0x0\", \"cached\": false, \"tier\": \"dp\", \"exact\": true, \
        \"order\": [1, 0, 2], \"cost\": \"91/4\", \"cost_log2\": 4.5, \"elapsed_us\": 17}";

    #[test]
    fn matching_reply_passes() {
        let info = check_reply(GOOD, &expect()).unwrap();
        assert_eq!(info.elapsed_us, 17);
        assert!(!info.cached);
    }

    #[test]
    fn corrupted_reference_counts_as_failure() {
        let mut bad_cost = expect();
        bad_cost.cost = "93/4".into();
        assert!(check_reply(GOOD, &bad_cost).unwrap_err().contains("cost"));
        let mut bad_order = expect();
        bad_order.order = Some(vec![0, 1, 2]);
        assert!(check_reply(GOOD, &bad_order).unwrap_err().contains("order"));
    }

    #[test]
    fn error_and_degraded_replies_fail() {
        let err =
            "{\"id\": 3, \"ok\": false, \"error\": {\"kind\": \"driver\", \"message\": \"x\"}}";
        assert!(check_reply(err, &expect()).is_err());
        let degraded = GOOD.replace("\"exact\": true", "\"exact\": true, \"degraded\": true");
        assert!(check_reply(&degraded, &expect()).is_err());
    }
}
