//! `serve_ediamond` / `serve_wide`: a real `kertctl serve` process driven
//! by two closed-loop connections.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use kert_bn::bayes::Dataset;
use kert_bn::model::KertBn;
use kert_bn::serving::{Request, StatusInfo};

use crate::check::{self, Reference};
use crate::daemon::{steal_ticks, Daemon};
use crate::load::{self, Conn, Pass};
use crate::model::{self, Shape, Spec, HELDOUT_ROWS};
use crate::oracle::Joint;
use crate::stats::{blocks_in, end_to_end, Block, Outcome};

/// Client connections (and load threads): one per core of the 2-core
/// bench host, so the closed loop builds no queue.
pub const CONNECTIONS: usize = 2;
/// Distinct requests per connection, sent in order and wrapped around.
pub const MIX_LEN: usize = 4096;
/// Daemon start-ups timed after each measured block; `setup_s` is the
/// median of those after the quiet blocks. A start-up takes about 7 ms on
/// the eDiaMoND model and 140 ms on the wide one.
pub fn spawns_per_block(shape: Shape) -> usize {
    match shape {
        Shape::Ediamond => 5,
        Shape::Wide => 2,
    }
}
/// Load before the measured window, not recorded.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Answers per verb and connection compared with the joint sum.
pub const EXACT_PER_VERB: usize = 3;

/// Everything a serving run needs before the first daemon starts.
pub struct Prepared {
    pub kertctl: PathBuf,
    pub work: PathBuf,
    pub spec: Spec,
    pub train: Dataset,
    pub kert: KertBn,
    pub model_path: PathBuf,
    pub reference: Reference,
    pub mixes: Vec<Vec<Request>>,
}

pub fn prepare(shape: Shape, seed: u64, kertctl: &Path, work: &Path) -> io::Result<Prepared> {
    let mut spec = Spec::new(shape);
    let train = spec.train();
    let kert = spec.build(&train);
    let heldout = spec.simulate(HELDOUT_ROWS, model::derive(seed, 1));
    let th = model::thresholds(&train, spec.d_node());
    let mixes = (0..CONNECTIONS as u64)
        .map(|t| model::request_mix(&spec, &heldout, &th, MIX_LEN, model::derive(seed, 16 + t)))
        .collect();
    let model_path = work.join("model.json");
    let json = kert
        .to_saved()
        .to_json()
        .map_err(|e| io::Error::other(e.to_string()))?;
    std::fs::write(&model_path, json)?;
    let reference = Reference::new(Joint::of(&kert));
    Ok(Prepared {
        kertctl: kertctl.to_path_buf(),
        work: work.to_path_buf(),
        spec,
        train,
        kert,
        model_path,
        reference,
        mixes,
    })
}

impl Prepared {
    /// Start `kertctl serve` on the saved model; returns it with the time
    /// until its first `Ping` answered.
    pub fn spawn(&self, trace: bool) -> io::Result<(Daemon, Duration)> {
        Daemon::start(&self.kertctl, &self.model_path, &self.work, trace)
    }

    /// Start and stop `n` daemons; returns each start-up's seconds.
    fn time_setups(&self, n: usize) -> io::Result<Vec<f64>> {
        (0..n)
            .map(|_| {
                let (d, t) = self.spawn(false).map_err(step("start"))?;
                d.stop().map_err(step("stop"))?;
                Ok(t.as_secs_f64())
            })
            .collect()
    }
}

/// One block of a measured window.
pub struct Measured {
    pub pass: Pass,
    /// The daemon's CPU time during the pass.
    pub cpu: Duration,
    /// The host's steal ticks during the pass and the set-ups after it.
    pub steal: u64,
    /// Start-up times of the daemons spawned after the pass.
    pub setup_s: Vec<f64>,
}

/// One measured window against a running daemon, in blocks.
pub struct Window {
    pub passes: Vec<Measured>,
    pub before: StatusInfo,
    pub after: StatusInfo,
    /// `METRICS` before and after, when asked for.
    pub prom: Option<(String, String)>,
}

impl Window {
    pub fn completed(&self) -> u64 {
        self.passes.iter().map(|m| m.pass.completed()).sum()
    }

    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|m| m.pass.failed()).sum()
    }

    pub fn blocks(&self) -> Vec<Block> {
        self.passes
            .iter()
            .map(|m| Block {
                ops: m.pass.completed(),
                wall: m.pass.wall,
                cpu: m.cpu,
                steal: m.steal,
                lat_ms: m.pass.latencies_ms(),
                setup_s: m.setup_s.clone(),
            })
            .collect()
    }

    /// Every connection's requests, block by block: (connection, what it
    /// saw in that block).
    pub fn conns(&self) -> impl Iterator<Item = (usize, &Conn)> {
        self.passes
            .iter()
            .flat_map(|m| m.pass.conns.iter().enumerate())
    }
}

/// Name the step an I/O error came from.
pub fn step(what: &'static str) -> impl Fn(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// Warm up, then drive the daemon for `dur` in blocks and read its
/// counters around the window. After each block, `spawns` more daemons
/// are started and stopped to time set-up.
pub fn measure(
    p: &Prepared,
    d: &Daemon,
    dur: Duration,
    traced: bool,
    scrape: bool,
    spawns: usize,
) -> io::Result<Window> {
    let from_start = vec![0; p.mixes.len()];
    load::run(d.addr, &p.mixes, &from_start, WARMUP, false, false).map_err(step("warm-up"))?;
    let before = d.status().map_err(step("status"))?;
    let prom_before = if scrape {
        Some(d.metrics().map_err(step("metrics"))?)
    } else {
        None
    };
    let k = blocks_in(dur);
    let mut passes: Vec<Measured> = Vec::with_capacity(k);
    let mut next = from_start;
    for _ in 0..k {
        let cpu0 = d.cpu()?;
        let steal0 = steal_ticks()?;
        let pass = load::run(d.addr, &p.mixes, &next, dur / k as u32, true, traced)
            .map_err(step("load"))?;
        let cpu = d.cpu()?.saturating_sub(cpu0);
        let setup_s = p.time_setups(spawns)?;
        next = pass.next();
        passes.push(Measured {
            pass,
            cpu,
            steal: steal_ticks()?.saturating_sub(steal0),
            setup_s,
        });
    }
    let after = d.status().map_err(step("status"))?;
    let prom = match prom_before {
        Some(b) => Some((b, d.metrics().map_err(step("metrics"))?)),
        None => None,
    };
    Ok(Window {
        passes,
        before,
        after,
        prom,
    })
}

/// Accounting, properties of every answer, and the joint-sum comparison
/// on a fixed sample per verb. Returns the failures found.
pub fn check_window(p: &Prepared, w: &Window) -> Vec<String> {
    let mut bad = Vec::new();
    if let Err(e) = check::accounting(w.completed(), &w.before, &w.after) {
        bad.push(e);
    }
    for (t, conn) in w.conns() {
        let mix = &p.mixes[t];
        for (&(i, _), resp) in conn.rtt.iter().zip(&conn.answers) {
            if let Err(e) = check::properties(&mix[i], resp, &p.reference) {
                bad.push(format!("request {i}: {e}"));
            }
        }
    }
    // The first block starts every list at its head, so its answer i is
    // request i.
    for (t, conn) in w.passes[0].pass.conns.iter().enumerate() {
        let mix = &p.mixes[t];
        for i in check::sample(mix, EXACT_PER_VERB) {
            if let Some(resp) = conn.answers.get(i) {
                if let Err(e) = check::exact(&mix[i], resp, &p.reference) {
                    bad.push(format!("request {i}: {e}"));
                }
            }
        }
    }
    bad
}

/// The untraced end-to-end run.
pub fn run(
    shape: Shape,
    kertctl: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
) -> io::Result<Outcome> {
    let p = prepare(shape, seed, kertctl, work)?;
    let (d, _) = p.spawn(false).map_err(step("start"))?;
    let w = measure(
        &p,
        &d,
        Duration::from_secs_f64(seconds),
        false,
        false,
        spawns_per_block(shape),
    )?;
    let rss = d.peak_rss_mb()?;
    d.stop().map_err(step("stop"))?;
    Ok(Outcome {
        metrics: end_to_end(&w.blocks(), rss),
        attempted: w.completed(),
        failed: w.failed(),
        bad: check_window(&p, &w),
    })
}
