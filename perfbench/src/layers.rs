//! The traced run: per-layer metrics for one workload's model and inputs.
//!
//! Layers are timed from outside: calls into each crate's public
//! functions are timed here, and the daemon is read through what it
//! already exposes (flight-recorder span trees, `Status`, `METRICS`).
//! End-to-end numbers never come from this run.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use kert_bn::model::{KertBn, SavedModel, SharedKert};
use kert_bn::obs::{parse_prometheus, TraceTree};
use kert_bn::serving::protocol::{decode, encode};
use kert_bn::serving::{Request, Response, WireDcomp, WirePaccel, WirePosterior};

use crate::model::{Shape, MODEL_SEED, TRAIN_ROWS};
use crate::relearn::{self, Relearn, SLIDE};
use crate::serve::{self, Window};
use crate::stats::{latency, median, quantile, Metrics, Outcome};

/// Repetitions of each set-up component.
const SETUP_REPS: usize = 5;
/// Relearn cycles timed on a serving workload's model.
const CYCLES_EDIAMOND: usize = 100;
const CYCLES_WIDE: usize = 8;
/// Time budget for the in-process session replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(1);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One session-level answer, exactly as the daemon computes it.
pub(crate) fn answer(engine: &SharedKert, req: &Request) -> io::Result<Response> {
    let mut s = engine.session();
    let resp = match req {
        Request::Posterior { evidence, target } => {
            s.set_evidence(evidence).map_err(other)?;
            Response::Posterior(
                WirePosterior::from_posterior(&s.posterior(*target).map_err(other)?)
                    .map_err(|e| other(e.message))?,
            )
        }
        Request::Dcomp { observed, targets } => Response::Dcomp {
            outcomes: s
                .dcomp(observed, targets)
                .map_err(other)?
                .iter()
                .map(WireDcomp::from_outcome)
                .collect::<Result<_, _>>()
                .map_err(|e| other(e.message))?,
        },
        Request::Violation {
            evidence,
            thresholds,
        } => Response::Violation {
            probabilities: s.violation_sweep(evidence, thresholds).map_err(other)?,
        },
        Request::Paccel { candidates } => Response::Paccel {
            outcomes: s
                .paccel(candidates)
                .map_err(other)?
                .iter()
                .map(WirePaccel::from_outcome)
                .collect::<Result<_, _>>()
                .map_err(|e| other(e.message))?,
        },
        other_req => return Err(other(format!("not a query: {other_req:?}"))),
    };
    Ok(resp)
}

/// Per-request parts of one daemon-side span tree, in µs. The parts
/// partition `kertd.request`: every span's self time, with the root's
/// self time split into the coalescing linger and the rest.
#[derive(Default)]
struct Parts {
    request: f64,
    queue_wait: f64,
    linger: f64,
    group_self: f64,
    propagate_self: f64,
    evidence: f64,
    collect: f64,
    marginal: f64,
    engine_other: f64,
    serialize: f64,
    remainder: f64,
}

const PART_NAMES: [&str; 10] = [
    "kertd.queue_wait",
    "kertd.coalesce_linger",
    "kertd.coalesce.group (self)",
    "kertd.propagate (self)",
    "serve.evidence",
    "jt.collect",
    "jt.marginal (self)",
    "other engine spans",
    "kertd.serialize",
    "kertd.request remainder",
];

impl Parts {
    fn list(&self) -> [f64; 10] {
        [
            self.queue_wait,
            self.linger,
            self.group_self,
            self.propagate_self,
            self.evidence,
            self.collect,
            self.marginal,
            self.engine_other,
            self.serialize,
            self.remainder,
        ]
    }
}

fn fold(tree: &TraceTree) -> Option<Parts> {
    let dur =
        |s: &kert_bn::obs::trace::SpanRecord| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3;
    if tree.spans.iter().any(|s| s.end_ns == 0) {
        return None;
    }
    let mut self_us: BTreeMap<u64, f64> = tree.spans.iter().map(|s| (s.id, dur(s))).collect();
    for s in &tree.spans {
        if let Some(parent) = self_us.get_mut(&s.parent) {
            *parent -= dur(s);
        }
    }
    let root = tree
        .spans
        .iter()
        .find(|s| s.parent == 0 && s.name == "kertd.request")?;
    let qw = tree.find("kertd.queue_wait")?;
    let group = tree.find("kertd.coalesce.group")?;
    let mut p = Parts {
        request: dur(root),
        linger: group.start_ns.saturating_sub(qw.end_ns) as f64 / 1e3,
        ..Parts::default()
    };
    for s in &tree.spans {
        let own = self_us[&s.id];
        match s.name.as_ref() {
            "kertd.request" => p.remainder += own,
            "kertd.queue_wait" => p.queue_wait += own,
            "kertd.coalesce.group" => p.group_self += own,
            "kertd.propagate" => p.propagate_self += own,
            "serve.evidence" => p.evidence += own,
            "jt.collect" => p.collect += own,
            "jt.marginal" => p.marginal += own,
            "kertd.serialize" => p.serialize += own,
            _ => p.engine_other += own,
        }
    }
    p.remainder -= p.linger;
    Some(p)
}

/// Join client round trips to their span trees and fold them into the
/// per-layer budget; the budget table goes to stderr.
fn budget(w: &Window, m: &mut Metrics) -> Result<(), String> {
    let mut rtts = Vec::new();
    let mut parts = Vec::new();
    for pass in w.passes.iter().map(|m| &m.pass) {
        for conn in &pass.conns {
            for (&id, &(_, rtt)) in conn.trace_ids.iter().zip(&conn.rtt) {
                if let Some(p) = pass.trees.get(&id).and_then(fold) {
                    rtts.push(us(rtt));
                    parts.push(p);
                }
            }
        }
    }
    if parts.is_empty() {
        return Err("no span tree joined a client request".into());
    }
    let col = |f: &dyn Fn(&Parts) -> f64| parts.iter().map(f).collect::<Vec<f64>>();
    let request = col(&|p| p.request);
    let p50s: Vec<f64> = (0..PART_NAMES.len())
        .map(|i| median(&col(&|p| p.list()[i])))
        .collect();
    eprintln!(
        "latency budget over {} traced requests joined to their round trips (µs):",
        parts.len()
    );
    eprintln!(
        "  {:<30} {:>10} {:>10} {:>10}",
        "part", "p50", "p99", "mean"
    );
    for (i, name) in PART_NAMES.iter().enumerate() {
        let v = col(&|p| p.list()[i]);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        eprintln!(
            "  {name:<30} {:>10.1} {:>10.1} {mean:>10.1}",
            p50s[i],
            quantile(&v, 0.99)
        );
    }
    let mean_req = request.iter().sum::<f64>() / request.len() as f64;
    eprintln!(
        "  {:<30} {:>10.1} {:>10.1} {mean_req:>10.1}   (means of the parts add up to this mean exactly)",
        "kertd.request",
        median(&request),
        quantile(&request, 0.99)
    );
    eprintln!(
        "  {:<30} {:>10.1} {:>10.1}",
        "client round trip",
        median(&rtts),
        quantile(&rtts, 0.99)
    );
    let req50 = median(&request);
    // The first nine parts are spans; the unattributed remainder is what
    // their medians leave of the request median.
    let attributed: f64 = p50s[..9].iter().sum();
    m.put("kertd.client_rtt_us", median(&rtts), "us");
    m.put("kertd.request_us", req50, "us");
    m.put("kertd.wire_us", median(&rtts) - req50, "us");
    m.put("kertd.queue_wait_us", p50s[0], "us");
    m.put("kertd.coalesce_linger_us", p50s[1], "us");
    m.put("kertd.coalesce.group_self_us", p50s[2], "us");
    m.put("kertd.propagate_self_us", p50s[3], "us");
    m.put("core.serve.evidence_us", p50s[4], "us");
    m.put("bayes.jt.collect_us", p50s[5], "us");
    m.put("bayes.jt.marginal_us", p50s[6], "us");
    m.put("kertd.engine_other_us", p50s[7], "us");
    m.put("kertd.serialize_us", p50s[8], "us");
    m.put("kertd.unattributed_us", req50 - attributed, "us");
    Ok(())
}

fn counter(prom: &str, suffix: &str) -> f64 {
    parse_prometheus(prom)
        .map(|samples| {
            samples
                .iter()
                .filter(|(n, _)| n.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        })
        .unwrap_or(f64::NAN)
}

/// The traced run of `workload`.
pub fn run(
    workload: &str,
    kertctl: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    let shape = if workload == "serve_wide" {
        Shape::Wide
    } else {
        Shape::Ediamond
    };
    let mut p = serve::prepare(shape, seed, kertctl, work)?;
    let mut m = Metrics::default();
    let mut bad = Vec::new();

    // Set-up components.
    let sims: Vec<f64> = (0..3)
        .map(|_| ms(timed(|| p.spec.simulate(TRAIN_ROWS, MODEL_SEED)).1))
        .collect();
    let builds: Vec<f64> = (0..SETUP_REPS)
        .map(|_| ms(timed(|| p.spec.build(&p.train)).1))
        .collect();
    let json = std::fs::read_to_string(&p.model_path)?;
    let mut loads = Vec::new();
    for _ in 0..SETUP_REPS {
        let (model, t) = timed(|| SavedModel::from_json(&json).and_then(KertBn::from_saved));
        std::hint::black_box(model.map_err(other)?);
        loads.push(ms(t));
    }

    // The learn -> compile -> query cycle on this workload's model.
    let mut r = Relearn::new(shape, seed)?;
    let ran = if workload == "relearn_cycle" {
        r.run_for(relearn::WARMUP, 1);
        r.run_for(Duration::from_secs_f64(seconds / 2.0), 1)
    } else {
        let n = if shape == Shape::Wide {
            CYCLES_WIDE
        } else {
            CYCLES_EDIAMOND
        };
        r.run_for(Duration::ZERO, n)
    };
    bad.extend(r.check(&ran.cycles));
    let cycles = &ran.cycles;
    let tree = r.model().compile().map_err(other)?.share_tree();
    let cards: Vec<usize> = r.model().discretizer().expect("discrete").cardinalities();
    let max_clique = (0..tree.n_cliques())
        .map(|i| {
            tree.clique_scope(i)
                .iter()
                .map(|&v| cards[v])
                .product::<usize>()
        })
        .max()
        .unwrap_or(0);

    // In-process session replay (the compute floor) and the codec.
    let engine =
        SharedKert::new(KertBn::from_saved(p.kert.to_saved()).map_err(other)?).map_err(other)?;
    let mut session_us = Vec::new();
    let mut replayed = Vec::new();
    let t0 = Instant::now();
    for req in &p.mixes[0] {
        if t0.elapsed() >= REPLAY_BUDGET && !session_us.is_empty() {
            break;
        }
        let (resp, t) = timed(|| answer(&engine, req));
        session_us.push(us(t));
        replayed.push((req, resp?));
    }
    let mut codec_us = Vec::new();
    for (req, resp) in &replayed {
        let (round, t) = timed(|| -> Result<(Request, Response), String> {
            let rq = decode::<Request>(&encode(*req)?)?;
            let rs = decode::<Response>(&encode(resp)?)?;
            Ok((rq, rs))
        });
        codec_us.push(us(t));
        match round {
            Ok((rq, rs)) if &rq == *req && &rs == resp => {}
            _ => bad.push(format!(
                "{} request or answer changed across encode/decode",
                req.verb()
            )),
        }
    }

    // Daemon: an untraced window for the counters and the baseline, then
    // a traced window for the span trees.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let (d, _) = p.spawn(false).map_err(serve::step("start"))?;
    let plain = serve::measure(&p, &d, half, false, true, 0)?;
    d.stop().map_err(serve::step("stop"))?;
    bad.extend(serve::check_window(&p, &plain));
    let (d, _) = p.spawn(true).map_err(serve::step("start traced"))?;
    let traced = serve::measure(&p, &d, half, true, false, 0)?;
    d.stop().map_err(serve::step("stop traced"))?;
    bad.extend(serve::check_window(&p, &traced));

    if let Err(e) = budget(&traced, &mut m) {
        bad.push(e);
    }
    let served = (crate::check::served(&plain.after) - crate::check::served(&plain.before)) as f64;
    let folded = (plain.after.coalesced_requests - plain.before.coalesced_requests) as f64;
    m.put("kertd.coalesce.folded_share", folded / served, "ratio");
    let (prom0, prom1) = plain.prom.as_ref().expect("scraped");
    let messages = |prom: &str| {
        counter(prom, "bayes_jt_messages_calibrate")
            + counter(prom, "bayes_jt_messages_incremental")
    };
    m.put(
        "bayes.jt.messages_per_op",
        (messages(prom1) - messages(prom0)) / served,
        "count",
    );
    m.put(
        "kertd.trace_overhead_pct",
        (1.0 - latency(&traced.blocks()).0 / latency(&plain.blocks()).0) * 100.0,
        "%",
    );
    m.put("kertd.protocol.codec_us", median(&codec_us), "us");
    m.put("core.serve.session_us", median(&session_us), "us");
    m.put("bayes.jt.max_clique_entries", max_clique as f64, "count");
    let per_cycle =
        |f: &dyn Fn(&relearn::Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    m.put(
        "core.streaming.ingest_us",
        per_cycle(&|c| us(c.ingest) / SLIDE as f64),
        "us",
    );
    m.put(
        "core.streaming.refresh_us",
        per_cycle(&|c| us(c.refresh)),
        "us",
    );
    m.put("bayes.jt.compile_ms", per_cycle(&|c| ms(c.compile)), "ms");
    m.put("core.compiled.query_ms", per_cycle(&|c| ms(c.query)), "ms");
    m.put(
        "core.compiled.fanout_workers",
        per_cycle(&|c| c.fanout_workers as f64),
        "count",
    );
    // Throughput and latency of the workload's own operations, untraced:
    // the timed cycles (relearn) or the untraced daemon window (serve).
    let (ops, p50, p99) = if workload == "relearn_cycle" {
        let lat: Vec<f64> = cycles.iter().map(|c| ms(c.total)).collect();
        (
            cycles.len() as f64 / ran.wall.as_secs_f64(),
            median(&lat),
            quantile(&lat, 0.99),
        )
    } else {
        latency(&plain.blocks())
    };
    m.put("untraced.ops_per_s", ops, "1/s");
    m.put("untraced.latency_p50_ms", p50, "ms");
    m.put("untraced.latency_p99_ms", p99, "ms");
    m.put("sim.trace_ms", median(&sims), "ms");
    m.put("core.kert.build_ms", median(&builds), "ms");
    m.put("core.persist.load_ms", median(&loads), "ms");
    Ok(Outcome {
        metrics: m,
        attempted: ran.attempted() + plain.completed() + traced.completed(),
        failed: ran.failed + plain.failed() + traced.failed(),
        bad,
    })
}
