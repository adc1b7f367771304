//! The two served models and the seeded inputs every workload draws.
//!
//! Models are fixed (their training trace uses [`MODEL_SEED`]), so every
//! run measures the same system; `--seed` only picks the held-out rows the
//! requests and the relearn stream are made of.

use kert_bn::bayes::Dataset;
use kert_bn::model::{DiscreteKertOptions, KertBn};
use kert_bn::serving::Request;
use kert_bn::sim::{Dist, ServiceConfig, SimOptions, SimSystem};
use kert_bn::workflow::{
    derive_structure, ediamond_workflow, expected_visits, random_workflow, GenOptions, ResourceMap,
    Workflow, WorkflowKnowledge,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the training trace and of the wide model's workflow.
pub const MODEL_SEED: u64 = 2007;
/// Rows the models are learned from.
pub const TRAIN_ROWS: usize = 2000;
/// Held-out rows a workload draws evidence from.
pub const HELDOUT_ROWS: usize = 4096;
/// States per variable.
pub const BINS: usize = 5;

/// A generator seed for one input stream of a run: `salt` keeps the
/// streams of one `--seed` apart from each other and from [`MODEL_SEED`].
pub fn derive(seed: u64, salt: u64) -> u64 {
    (seed ^ 0x6b65_7274_6265_6e63).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// Which model a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The paper's 6-service eDiaMoND workflow: one clique of 7 variables.
    Ediamond,
    /// A seeded 8-service sequence/parallel workflow: one clique of 9
    /// variables (5^9 ≈ 2M entries).
    Wide,
}

/// A model's knowledge, its simulator and the query roles of its nodes.
pub struct Spec {
    pub knowledge: WorkflowKnowledge,
    pub system: SimSystem,
    pub n_services: usize,
    /// Services whose elapsed time a request reports as evidence.
    pub observed: Vec<usize>,
    /// Services dComp estimates and pAccel projects.
    pub hidden: Vec<usize>,
}

impl Spec {
    pub fn new(shape: Shape) -> Spec {
        let (workflow, means, hidden): (Workflow, Vec<f64>, Vec<usize>) = match shape {
            Shape::Ediamond => (
                ediamond_workflow(),
                vec![0.05, 0.05, 0.04, 0.25, 0.05, 0.12],
                vec![3, 4, 5],
            ),
            Shape::Wide => {
                let mut rng = StdRng::seed_from_u64(MODEL_SEED);
                let wf = random_workflow(
                    8,
                    GenOptions {
                        choice_prob: 0.0,
                        loop_prob: 0.0,
                        ..Default::default()
                    },
                    &mut rng,
                );
                let means = (0..8).map(|_| rng.gen_range(0.02..0.10)).collect();
                (wf, means, vec![5, 6, 7])
            }
        };
        let n = means.len();
        let knowledge = derive_structure(&workflow, n, &ResourceMap::new())
            .expect("generated workflow is valid");
        // Arrivals at half the bottleneck station's utilization.
        let max_work = expected_visits(&workflow, n)
            .iter()
            .zip(&means)
            .map(|(&v, &m)| v * m)
            .fold(1e-6f64, f64::max);
        let stations = means
            .iter()
            .map(|&m| ServiceConfig::single(Dist::Erlang { k: 4, mean: m }))
            .collect();
        let system = SimSystem::new(
            &workflow,
            stations,
            SimOptions {
                inter_arrival: Dist::Exponential {
                    mean: max_work / 0.5,
                },
                warmup: 100,
            },
        )
        .expect("simulator accepts the generated workflow");
        let observed = (0..n).filter(|s| !hidden.contains(s)).collect();
        Spec {
            knowledge,
            system,
            n_services: n,
            observed,
            hidden,
        }
    }

    /// Simulate `rows` monitored requests.
    pub fn simulate(&mut self, rows: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        self.system.run(rows, &mut rng).to_dataset(None)
    }

    /// The fixed training trace.
    pub fn train(&mut self) -> Dataset {
        self.simulate(TRAIN_ROWS, MODEL_SEED)
    }

    /// Build the discrete KERT-BN the workload serves.
    pub fn build(&self, train: &Dataset) -> KertBn {
        KertBn::build_discrete(
            &self.knowledge,
            train,
            DiscreteKertOptions {
                bins: BINS,
                ..Default::default()
            },
        )
        .expect("discrete build on simulated data")
    }

    /// The response-time node.
    pub fn d_node(&self) -> usize {
        self.n_services
    }
}

/// Violation thresholds: the 10/30/50/70/90% quantiles of the training
/// response time, ascending.
pub fn thresholds(train: &Dataset, d_node: usize) -> Vec<f64> {
    let mut d = train.column(d_node);
    d.sort_by(f64::total_cmp);
    [0.1, 0.3, 0.5, 0.7, 0.9]
        .iter()
        .map(|q| d[((d.len() - 1) as f64 * q) as usize])
        .collect()
}

/// Evidence of a row on the observed services.
pub fn observed_evidence(spec: &Spec, row: &[f64]) -> Vec<(usize, f64)> {
    spec.observed.iter().map(|&s| (s, row[s])).collect()
}

/// A seeded request mix over held-out rows: a quarter each of
/// posterior(D), dComp, violation sweep and pAccel, the equal shares of
/// the four query verbs that the serving conformance suite and the kertd
/// determinism drill send. As in one autonomic control period, dComp asks
/// for every hidden service and pAccel projects each hidden service as a
/// candidate. Every request carries a different row's evidence, so
/// consecutive requests rarely share an evidence set.
pub fn request_mix(
    spec: &Spec,
    heldout: &Dataset,
    thresholds: &[f64],
    n: usize,
    seed: u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = spec.d_node();
    (0..n)
        .map(|_| {
            let row = heldout.row(rng.gen_range(0..heldout.rows()));
            match rng.gen_range(0..4u32) {
                0 => Request::Posterior {
                    evidence: observed_evidence(spec, row),
                    target: d,
                },
                1 => {
                    let mut observed = observed_evidence(spec, row);
                    observed.push((d, row[d]));
                    Request::Dcomp {
                        observed,
                        targets: spec.hidden.clone(),
                    }
                }
                2 => Request::Violation {
                    evidence: observed_evidence(spec, row),
                    thresholds: thresholds.to_vec(),
                },
                _ => Request::Paccel {
                    candidates: spec.hidden.iter().map(|&s| (s, 0.5 * row[s])).collect(),
                },
            }
        })
        .collect()
}
