//! `relearn_cycle`: the model-update path, in process. Each cycle slides
//! new monitoring rows into a `StreamingWindow`, refreshes the CPDs,
//! compiles a fresh engine and answers a dComp batch over the hidden
//! services plus a violation sweep.

use std::io;
use std::time::{Duration, Instant};

use kert_bn::bayes::cpd::Cpd;
use kert_bn::bayes::learn::mle::{fit_all_parameters_with_workers, ParamOptions};
use kert_bn::bayes::{Dag, Dataset};
use kert_bn::model::{KertBn, Posterior, StreamingWindow};

use crate::check::{self, Reference};
use crate::daemon::{cpu_of, peak_rss_mb_of, steal_ticks};
use crate::model::{self, observed_evidence, Shape, Spec};
use crate::oracle::Joint;
use crate::stats::{blocks_in, end_to_end, Block, Outcome};

/// Rows the window holds.
pub const WINDOW: usize = 1000;
/// Rows each cycle slides in.
pub const SLIDE: usize = 25;
/// Held-out rows the stream cycles through.
pub const STREAM_ROWS: usize = 8192;
/// Set-ups timed after each measured block; `setup_s` is the median of
/// those after the quiet blocks.
pub const SETUPS_PER_BLOCK: usize = 5;
/// Cycles before the measured window, not recorded.
pub const WARMUP: Duration = Duration::from_millis(500);

fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// One cycle's timings and answers.
pub struct Cycle {
    pub ingest: Duration,
    pub refresh: Duration,
    pub compile: Duration,
    pub query: Duration,
    pub total: Duration,
    pub fanout_workers: usize,
    /// Rows streamed in so far, which fixes the window's contents.
    pub streamed: usize,
    /// FNV-1a over the bits of the refreshed learned CPTs.
    pub fingerprint: u64,
    /// Per hidden service its dComp prior then posterior, then the
    /// violation sweep.
    pub answers: Vec<f64>,
}

/// What [`Relearn::run_for`] ran.
pub struct Ran {
    pub cycles: Vec<Cycle>,
    /// Cycles that returned an error.
    pub failed: u64,
    pub wall: Duration,
}

impl Ran {
    pub fn attempted(&self) -> u64 {
        self.cycles.len() as u64 + self.failed
    }
}

pub struct Relearn {
    spec: Spec,
    train: Dataset,
    stream: Dataset,
    thresholds: Vec<f64>,
    model: KertBn,
    window: StreamingWindow,
    streamed: usize,
    /// The initial model as probability tables, for the checks.
    base: Joint,
}

/// Initial batch learn, window fill and first compile: the work
/// `setup_s` times.
fn set_up(spec: &Spec, train: &Dataset) -> io::Result<(KertBn, StreamingWindow)> {
    let model = spec.build(train);
    let mut window =
        StreamingWindow::new(&model, WINDOW, ParamOptions::default()).map_err(other)?;
    window.extend(&train.tail(WINDOW)).map_err(other)?;
    let engine = model.compile().map_err(other)?;
    std::hint::black_box(engine.width());
    drop(engine);
    Ok((model, window))
}

fn fingerprint(cpds: &[Cpd]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for cpd in cpds {
        if let Cpd::Tabular(t) = cpd {
            for v in t.table() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
            }
        }
    }
    h
}

impl Relearn {
    pub fn new(shape: Shape, seed: u64) -> io::Result<Relearn> {
        let mut spec = Spec::new(shape);
        let train = spec.train();
        let stream = spec.simulate(STREAM_ROWS, model::derive(seed, 2));
        let thresholds = model::thresholds(&train, spec.d_node());
        let (model, window) = set_up(&spec, &train)?;
        let base = Joint::of(&model);
        Ok(Relearn {
            spec,
            train,
            stream,
            thresholds,
            model,
            window,
            streamed: 0,
            base,
        })
    }

    /// Set up `n` more times from scratch, leaving this engine as it is;
    /// returns each set-up's seconds.
    pub fn time_setups(&self, n: usize) -> io::Result<Vec<f64>> {
        (0..n)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(set_up(&self.spec, &self.train)?);
                Ok(t0.elapsed().as_secs_f64())
            })
            .collect()
    }

    fn stream_row(&self, k: usize) -> &[f64] {
        self.stream.row(k % self.stream.rows())
    }

    pub fn model(&self) -> &KertBn {
        &self.model
    }

    pub fn cycle(&mut self) -> io::Result<Cycle> {
        let t0 = Instant::now();
        for _ in 0..SLIDE {
            let row = self.stream.row(self.streamed % self.stream.rows());
            self.window.push_row(row).map_err(other)?;
            self.streamed += 1;
        }
        let t1 = Instant::now();
        self.model
            .refresh_from_window(&mut self.window)
            .map_err(other)?;
        let t2 = Instant::now();
        let mut engine = self.model.compile().map_err(other)?;
        let t3 = Instant::now();
        let newest = self.stream_row(self.streamed - 1);
        let evidence = observed_evidence(&self.spec, newest);
        let mut observed = evidence.clone();
        observed.push((self.spec.d_node(), newest[self.spec.d_node()]));
        let dcomp = engine
            .dcomp_all(&observed, &self.spec.hidden)
            .map_err(other)?;
        let fanout_workers = engine.last_fanout().map_or(1, |f| f.workers);
        let sweep = engine
            .violation_sweep(&evidence, &self.thresholds)
            .map_err(other)?;
        let t4 = Instant::now();
        drop(engine);
        let fingerprint = fingerprint(&self.model.network().cpds()[..self.spec.d_node()]);
        let mut answers = Vec::with_capacity(dcomp.len() * 2 * model::BINS + sweep.len());
        for p in dcomp.iter().flat_map(|o| [&o.prior, &o.posterior]) {
            match p {
                Posterior::Discrete { probs, .. } => answers.extend_from_slice(probs),
                p => {
                    return Err(other(format!(
                        "dComp answered a non-discrete posterior {p:?}"
                    )))
                }
            }
        }
        answers.extend_from_slice(&sweep);
        Ok(Cycle {
            ingest: t1 - t0,
            refresh: t2 - t1,
            compile: t3 - t2,
            query: t4 - t3,
            total: t4 - t0,
            fanout_workers,
            streamed: self.streamed,
            fingerprint,
            answers,
        })
    }

    /// Cycles for `dur` (at least `min` of them), counting those that
    /// return an error.
    pub fn run_for(&mut self, dur: Duration, min: usize) -> Ran {
        let t0 = Instant::now();
        let mut ran = Ran {
            cycles: Vec::new(),
            failed: 0,
            wall: Duration::ZERO,
        };
        while t0.elapsed() < dur || ran.attempted() < min as u64 {
            match self.cycle() {
                Ok(c) => ran.cycles.push(c),
                Err(e) => {
                    if ran.failed == 0 {
                        eprintln!("relearn cycle failed: {e}");
                    }
                    ran.failed += 1;
                }
            }
        }
        ran.wall = t0.elapsed();
        ran
    }

    /// The window's rows after `streamed` rows: the newest [`WINDOW`] of
    /// the training tail followed by the stream.
    fn window_at(&self, streamed: usize) -> Dataset {
        let tail = self.train.tail(WINDOW);
        let rows = (streamed..streamed + WINDOW)
            .map(|k| {
                if k < WINDOW {
                    tail.row(k).to_vec()
                } else {
                    self.stream_row(k - WINDOW).to_vec()
                }
            })
            .collect();
        Dataset::from_rows(self.train.names().to_vec(), rows).expect("fixed width")
    }

    /// Batch fit of the learned CPTs over the window's rows under the
    /// model's discretizer: what the streaming refresh must reproduce
    /// bitwise.
    fn batch_fit(&self, streamed: usize) -> io::Result<Vec<Cpd>> {
        let net = self.model.network();
        let m = self.spec.d_node();
        let disc = self.model.discretizer().expect("discrete model");
        let mut dag = Dag::new(m);
        for (from, to) in net.dag().edges() {
            if from < m && to < m {
                dag.add_edge(from, to).map_err(other)?;
            }
        }
        let states = disc
            .transform(&self.window_at(streamed))
            .and_then(|s| s.project(&(0..m).collect::<Vec<_>>()))
            .map_err(other)?;
        fit_all_parameters_with_workers(
            &net.variables()[..m],
            &dag,
            &states,
            ParamOptions::default(),
            1,
        )
        .map_err(other)
    }

    /// Check every cycle: refreshed CPTs bitwise equal to the batch fit,
    /// answers that are distributions, priors equal to the no-evidence
    /// marginal, and answers equal to the joint sum of the batch-fitted
    /// model.
    pub fn check(&self, cycles: &[Cycle]) -> Vec<String> {
        let mut bad = Vec::new();
        for c in cycles {
            if let Err(e) = self.check_cycle(c) {
                bad.push(format!("cycle after {} streamed rows: {e}", c.streamed));
            }
        }
        bad
    }

    fn check_cycle(&self, c: &Cycle) -> Result<(), String> {
        let d = self.spec.d_node();
        let cpds = self
            .batch_fit(c.streamed)
            .map_err(|e| format!("batch fit failed: {e}"))?;
        if fingerprint(&cpds) != c.fingerprint {
            return Err("refreshed CPTs differ from the batch fit of the window".into());
        }
        let r = Reference::new(self.base.with_learned(&cpds));
        let j = &r.joint;
        let newest = self.stream_row(c.streamed - 1);
        let evidence = observed_evidence(&self.spec, newest);
        let mut observed = evidence.clone();
        observed.push((d, newest[d]));
        let m = j.marginals(&j.bin(&observed));
        let mut rest = c.answers.as_slice();
        for &t in &self.spec.hidden {
            let bins = j.discretizer().column(t).bins();
            if rest.len() < 2 * bins {
                return Err("dComp answered too few values".into());
            }
            let (prior, tail) = rest.split_at(bins);
            let (post, tail) = tail.split_at(bins);
            rest = tail;
            check::distribution(prior, bins, "dcomp prior")?;
            check::distribution(post, bins, "dcomp posterior")?;
            check::close(prior, &r.prior[t], "dcomp prior vs no-evidence marginal")?;
            check::close(post, &m[t], "dcomp posterior vs joint sum")?;
        }
        check::violation_sweep(rest, &self.thresholds)?;
        let mv = j.marginals(&j.bin(&evidence));
        let want: Vec<f64> = self
            .thresholds
            .iter()
            .map(|&h| j.exceedance(&mv[d], h))
            .collect();
        check::close(rest, &want, "violation vs joint sum")
    }
}

/// The untraced end-to-end run. Each block's cycles are checked, off the
/// clock, as soon as the block has been measured, and then dropped, so
/// the harness holds the same memory however many cycles run.
pub fn run(seed: u64, seconds: f64) -> io::Result<Outcome> {
    let mut r = Relearn::new(Shape::Ediamond, seed)?;
    r.run_for(WARMUP, 1);
    let (mut attempted, mut failed, mut bad) = (0, 0, Vec::new());
    let dur = Duration::from_secs_f64(seconds);
    let k = blocks_in(dur);
    let mut blocks: Vec<Block> = Vec::with_capacity(k);
    for _ in 0..k {
        let cpu0 = cpu_of("/proc/self/stat")?;
        let steal0 = steal_ticks()?;
        let ran = r.run_for(dur / k as u32, 1);
        let cpu = cpu_of("/proc/self/stat")?.saturating_sub(cpu0);
        let setup_s = r.time_setups(SETUPS_PER_BLOCK)?;
        blocks.push(Block {
            ops: ran.cycles.len() as u64,
            wall: ran.wall,
            cpu,
            steal: steal_ticks()?.saturating_sub(steal0),
            lat_ms: ran
                .cycles
                .iter()
                .map(|c| c.total.as_secs_f64() * 1e3)
                .collect(),
            setup_s,
        });
        attempted += ran.attempted();
        failed += ran.failed;
        bad.extend(r.check(&ran.cycles));
    }
    let rss = peak_rss_mb_of("/proc/self/status")?;
    Ok(Outcome {
        metrics: end_to_end(&blocks, rss),
        attempted,
        failed,
        bad,
    })
}
