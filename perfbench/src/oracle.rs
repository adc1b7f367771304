//! Brute-force reference answers: a sum over every joint state of the
//! served model, independent of the junction tree and of variable
//! elimination. Only the model's parameters are read: the learned CPTs as
//! stored, and the response-time CPD rebuilt here from its workflow
//! function, bin midpoints, bin edges and leak (Eq. 4).

use std::sync::Arc;

use kert_bn::bayes::cpd::{Cpd, DetNoise};
use kert_bn::bayes::discretize::Discretizer;
use kert_bn::bayes::BayesianNetwork;
use kert_bn::model::KertBn;

struct Table {
    parents: Vec<usize>,
    card: usize,
    /// `table[config * card + state]`, configurations mixed-radix with the
    /// last parent fastest.
    table: Vec<f64>,
}

/// The served model as plain probability tables. The response-time node
/// is the last node and a sink, so the sum over it is taken in closed form
/// for every configuration of the other nodes.
pub struct Joint {
    cards: Vec<usize>,
    /// Tables of nodes `0..d_node`.
    learned: Vec<Table>,
    /// D's table, shared between joints that differ only in learned CPTs.
    d_table: Arc<Table>,
    disc: Discretizer,
    d_node: usize,
}

impl Joint {
    pub fn of(model: &KertBn) -> Joint {
        Joint::new(
            model.network(),
            model.discretizer().expect("discrete model"),
            model.d_node(),
        )
    }

    pub fn new(net: &BayesianNetwork, disc: &Discretizer, d_node: usize) -> Joint {
        assert_eq!(d_node + 1, net.len(), "D is the last node");
        let cards: Vec<usize> = (0..net.len()).map(|i| disc.column(i).bins()).collect();
        let learned = (0..d_node)
            .map(|i| match net.cpd(i) {
                Cpd::Tabular(t) => Table {
                    parents: t.parents().to_vec(),
                    card: t.cardinality(),
                    table: t.table().to_vec(),
                },
                _ => panic!("learned node {i} is not tabular"),
            })
            .collect();
        let Cpd::Deterministic(det) = net.cpd(d_node) else {
            panic!("the response-time CPD is not the Eq. 4 deterministic CPD");
        };
        let DetNoise::Discrete {
            leak,
            card,
            child_edges,
            parent_mids,
        } = det.noise()
        else {
            panic!("continuous response-time CPD");
        };
        let parents = det.parents().to_vec();
        let pcards: Vec<usize> = parents.iter().map(|&p| cards[p]).collect();
        let configs: usize = pcards.iter().product();
        let other = (leak / (*card as f64 - 1.0)).max(1e-12);
        let mut table = vec![0.0; configs * card];
        let mut states = vec![0usize; parents.len()];
        let mut mids = vec![0.0; parents.len()];
        for c in 0..configs {
            decode(c, &pcards, &mut states);
            for (k, &s) in states.iter().enumerate() {
                mids[k] = parent_mids[k][s];
            }
            let v = det.local_expr().eval(&mids);
            let predicted = child_edges.iter().filter(|&&e| v >= e).count();
            for s in 0..*card {
                table[c * card + s] = if s == predicted { 1.0 - leak } else { other };
            }
        }
        Joint {
            cards,
            learned,
            d_table: Arc::new(Table {
                parents,
                card: *card,
                table,
            }),
            disc: disc.clone(),
            d_node,
        }
    }

    /// The same joint with the learned CPTs replaced.
    pub fn with_learned(&self, cpds: &[Cpd]) -> Joint {
        assert_eq!(cpds.len(), self.learned.len(), "one CPD per learned node");
        let learned = cpds
            .iter()
            .zip(&self.learned)
            .enumerate()
            .map(|(i, (cpd, old))| match cpd {
                Cpd::Tabular(t) if t.parents() == old.parents.as_slice() => Table {
                    parents: old.parents.clone(),
                    card: old.card,
                    table: t.table().to_vec(),
                },
                _ => panic!("learned node {i} changed form"),
            })
            .collect();
        Joint {
            cards: self.cards.clone(),
            learned,
            d_table: Arc::clone(&self.d_table),
            disc: self.disc.clone(),
            d_node: self.d_node,
        }
    }

    pub fn d_node(&self) -> usize {
        self.d_node
    }

    pub fn discretizer(&self) -> &Discretizer {
        &self.disc
    }

    /// Bin raw evidence values through the model's discretizer.
    pub fn bin(&self, evidence: &[(usize, f64)]) -> Vec<(usize, usize)> {
        evidence
            .iter()
            .map(|&(n, v)| (n, self.disc.column(n).state(v)))
            .collect()
    }

    /// Normalized marginal of every node given binned evidence, by summing
    /// the joint over every state consistent with it.
    pub fn marginals(&self, evidence: &[(usize, usize)]) -> Vec<Vec<f64>> {
        let d = self.d_node;
        let mut fixed = vec![None; d + 1];
        for &(node, s) in evidence {
            fixed[node] = Some(s);
        }
        let mut acc: Vec<Vec<f64>> = self.cards.iter().map(|&c| vec![0.0; c]).collect();
        let mut x: Vec<usize> = fixed[..d].iter().map(|f| f.unwrap_or(0)).collect();
        let dt = &*self.d_table;
        'outer: loop {
            let mut p = 1.0;
            for (i, t) in self.learned.iter().enumerate() {
                let mut cfg = 0;
                for &q in &t.parents {
                    cfg = cfg * self.cards[q] + x[q];
                }
                p *= t.table[cfg * t.card + x[i]];
            }
            let mut cfg = 0;
            for &q in &dt.parents {
                cfg = cfg * self.cards[q] + x[q];
            }
            let row = &dt.table[cfg * dt.card..(cfg + 1) * dt.card];
            // Σ over D: with D observed only its state's mass counts.
            let w = match fixed[d] {
                Some(s) => {
                    acc[d][s] += p * row[s];
                    p * row[s]
                }
                None => {
                    for (a, &r) in acc[d].iter_mut().zip(row) {
                        *a += p * r;
                    }
                    p * row.iter().sum::<f64>()
                }
            };
            for (i, &xi) in x.iter().enumerate() {
                acc[i][xi] += w;
            }
            // Odometer over the free nodes, last node fastest.
            for i in (0..d).rev() {
                if fixed[i].is_some() {
                    continue;
                }
                x[i] += 1;
                if x[i] < self.cards[i] {
                    continue 'outer;
                }
                x[i] = 0;
            }
            break;
        }
        for a in &mut acc {
            let z: f64 = a.iter().sum();
            a.iter_mut().for_each(|v| *v /= z);
        }
        acc
    }

    /// `P(D > h)` from a posterior over D's bins, with the mass of the bin
    /// holding `h` split linearly across the bin.
    pub fn exceedance(&self, probs: &[f64], h: f64) -> f64 {
        let col = self.disc.column(self.d_node);
        let sum: f64 = probs
            .iter()
            .enumerate()
            .map(|(s, &p)| {
                let (lo, hi) = col.bounds(s);
                if h <= lo {
                    p
                } else if h >= hi {
                    0.0
                } else {
                    p * (hi - h) / (hi - lo)
                }
            })
            .sum();
        sum.max(0.0)
    }
}

fn decode(mut idx: usize, cards: &[usize], out: &mut [usize]) {
    for k in (0..cards.len()).rev() {
        out[k] = idx % cards[k];
        idx /= cards[k];
    }
}
