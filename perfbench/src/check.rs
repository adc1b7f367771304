//! Output checks, all run off the clock.
//!
//! * [`properties`]: every answer is typed, its probabilities are finite,
//!   in [0,1] and sum to 1, violation probabilities do not increase with
//!   the threshold, and dComp/pAccel priors equal the no-evidence marginal.
//! * [`exact`]: a sampled answer equals the brute-force joint sum
//!   ([`crate::oracle`]) within [`TOL`].
//! * [`accounting`]: what the load generator completed is what the daemon
//!   says it served, and nothing was shed.

use kert_bn::serving::{Request, Response, StatusInfo, WirePosterior};

use crate::oracle::Joint;

/// Agreement required with the brute-force reference.
pub const TOL: f64 = 1e-9;

/// The oracle's view of one model: the joint plus its no-evidence
/// marginals, computed once.
pub struct Reference {
    pub joint: Joint,
    pub prior: Vec<Vec<f64>>,
}

impl Reference {
    pub fn new(joint: Joint) -> Reference {
        let prior = joint.marginals(&[]);
        Reference { joint, prior }
    }
}

/// `|x| ≤ tol`, false for NaN.
fn within(x: f64, tol: f64) -> bool {
    x.abs() <= tol
}

pub fn close(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if !within(g - w, TOL) {
            return Err(format!("{what}[{i}] = {g:e}, reference {w:e}"));
        }
    }
    Ok(())
}

fn probability(p: f64, what: &str) -> Result<(), String> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{what}: {p} is not a probability"))
    }
}

/// Probabilities over `bins` states: each in [0,1], summing to 1.
pub fn distribution(probs: &[f64], bins: usize, what: &str) -> Result<(), String> {
    if probs.len() != bins {
        return Err(format!(
            "{what}: {} probabilities for {bins} bins",
            probs.len()
        ));
    }
    for &p in probs {
        probability(p, what)?;
    }
    let sum: f64 = probs.iter().sum();
    if !within(sum - 1.0, TOL) {
        return Err(format!("{what}: probabilities sum to {sum}"));
    }
    Ok(())
}

/// `P(D > h)` per threshold: probabilities, not rising as `h` rises.
pub fn violation_sweep(probabilities: &[f64], thresholds: &[f64]) -> Result<(), String> {
    if probabilities.len() != thresholds.len() {
        return Err("violation: one probability per threshold expected".into());
    }
    for &p in probabilities {
        probability(p, "violation")?;
    }
    for (i, w) in probabilities.windows(2).enumerate() {
        if thresholds[i] <= thresholds[i + 1] && w[1] > w[0] + TOL {
            return Err(format!(
                "violation: P(D > h) rises from {} to {}",
                w[0], w[1]
            ));
        }
    }
    Ok(())
}

/// A discrete posterior over `node`'s bins.
fn posterior(wp: &WirePosterior, node: usize, r: &Reference, what: &str) -> Result<(), String> {
    let col = r.joint.discretizer().column(node);
    if wp.support != col.midpoints {
        return Err(format!(
            "{what}: support is not node {node}'s bin midpoints"
        ));
    }
    distribution(&wp.probs, col.bins(), what)?;
    let mean: f64 = wp.support.iter().zip(&wp.probs).map(|(v, p)| v * p).sum();
    if !within(mean - wp.mean, TOL * mean.abs().max(1.0)) {
        return Err(format!("{what}: mean {} but Σ v·p = {mean}", wp.mean));
    }
    Ok(())
}

/// Property checks on one answer to `req`.
pub fn properties(req: &Request, resp: &Response, r: &Reference) -> Result<(), String> {
    let d = r.joint.d_node();
    match (req, resp) {
        (_, Response::Error(e)) => Err(format!(
            "{} answered {:?}: {}",
            req.verb(),
            e.kind,
            e.message
        )),
        (Request::Posterior { target, .. }, Response::Posterior(wp)) => {
            posterior(wp, *target, r, "posterior")
        }
        (Request::Dcomp { targets, .. }, Response::Dcomp { outcomes }) => {
            if outcomes
                .iter()
                .map(|o| o.target)
                .ne(targets.iter().copied())
            {
                return Err("dcomp: outcome targets differ from the request's".into());
            }
            for o in outcomes {
                posterior(&o.prior, o.target, r, "dcomp prior")?;
                posterior(&o.posterior, o.target, r, "dcomp posterior")?;
                close(
                    &o.prior.probs,
                    &r.prior[o.target],
                    "dcomp prior vs no-evidence marginal",
                )?;
            }
            Ok(())
        }
        (Request::Violation { thresholds, .. }, Response::Violation { probabilities }) => {
            violation_sweep(probabilities, thresholds)
        }
        (Request::Paccel { candidates }, Response::Paccel { outcomes }) => {
            if outcomes.len() != candidates.len() {
                return Err("paccel: one outcome per candidate expected".into());
            }
            for (o, &(s, e)) in outcomes.iter().zip(candidates) {
                if o.service != s || o.predicted_elapsed.to_bits() != e.to_bits() {
                    return Err("paccel: outcome does not echo its candidate".into());
                }
                posterior(&o.prior_d, d, r, "paccel prior")?;
                posterior(&o.projected_d, d, r, "paccel projection")?;
                close(
                    &o.prior_d.probs,
                    &r.prior[d],
                    "paccel prior vs no-evidence marginal",
                )?;
            }
            Ok(())
        }
        _ => Err(format!(
            "{} answered with the wrong response type",
            req.verb()
        )),
    }
}

/// Compare one answer with the brute-force joint sum.
pub fn exact(req: &Request, resp: &Response, r: &Reference) -> Result<(), String> {
    let j = &r.joint;
    let d = j.d_node();
    match (req, resp) {
        (Request::Posterior { evidence, target }, Response::Posterior(wp)) => {
            let m = j.marginals(&j.bin(evidence));
            close(&wp.probs, &m[*target], "posterior vs joint sum")
        }
        (Request::Dcomp { observed, .. }, Response::Dcomp { outcomes }) => {
            let m = j.marginals(&j.bin(observed));
            for o in outcomes {
                close(
                    &o.prior.probs,
                    &r.prior[o.target],
                    "dcomp prior vs joint sum",
                )?;
                close(
                    &o.posterior.probs,
                    &m[o.target],
                    "dcomp posterior vs joint sum",
                )?;
            }
            Ok(())
        }
        (
            Request::Violation {
                evidence,
                thresholds,
            },
            Response::Violation { probabilities },
        ) => {
            let m = j.marginals(&j.bin(evidence));
            let want: Vec<f64> = thresholds.iter().map(|&h| j.exceedance(&m[d], h)).collect();
            close(probabilities, &want, "violation vs joint sum")
        }
        (Request::Paccel { candidates }, Response::Paccel { outcomes }) => {
            for (o, &(s, e)) in outcomes.iter().zip(candidates) {
                let m = j.marginals(&j.bin(&[(s, e)]));
                close(&o.prior_d.probs, &r.prior[d], "paccel prior vs joint sum")?;
                close(
                    &o.projected_d.probs,
                    &m[d],
                    "paccel projection vs joint sum",
                )?;
            }
            Ok(())
        }
        _ => properties(req, resp, r),
    }
}

/// Served-count delta between two `Status` snapshots.
pub fn served(s: &StatusInfo) -> u64 {
    s.served_posterior + s.served_dcomp + s.served_paccel + s.served_violation
}

/// The generator's completed count must equal the daemon's served delta,
/// and nothing may have been shed.
pub fn accounting(completed: u64, before: &StatusInfo, after: &StatusInfo) -> Result<(), String> {
    let delta = served(after) - served(before);
    if delta != completed {
        return Err(format!(
            "generator completed {completed} requests, daemon served {delta}"
        ));
    }
    if after.shed_overloaded != 0 || after.shed_shutting_down != 0 {
        return Err(format!(
            "daemon shed {} overloaded / {} shutting-down requests",
            after.shed_overloaded, after.shed_shutting_down
        ));
    }
    Ok(())
}

/// Which answers get the brute-force check: the first `per_verb` of each
/// verb in a mix.
pub fn sample(mix: &[Request], per_verb: usize) -> Vec<usize> {
    let mut seen: Vec<(&'static str, usize)> = Vec::new();
    let mut out = Vec::new();
    for (i, req) in mix.iter().enumerate() {
        let verb = req.verb();
        let n = match seen.iter_mut().find(|(v, _)| *v == verb) {
            Some((_, n)) => n,
            None => {
                seen.push((verb, 0));
                &mut seen.last_mut().expect("just pushed").1
            }
        };
        if *n < per_verb {
            *n += 1;
            out.push(i);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{self, Shape, Spec};
    use crate::oracle::Joint;
    use kert_bn::model::SharedKert;

    /// The answer a daemon gives: the shared serving engine, put on the
    /// wire types.
    fn answer(engine: &SharedKert, req: &Request) -> Response {
        crate::layers::answer(engine, req).unwrap()
    }

    fn fixture() -> (Reference, SharedKert, Vec<Request>) {
        let mut spec = Spec::new(Shape::Ediamond);
        let train = spec.train();
        let heldout = spec.simulate(256, 5);
        let kert = spec.build(&train);
        let reference = Reference::new(Joint::of(&kert));
        let th = model::thresholds(&train, spec.d_node());
        let mix = model::request_mix(&spec, &heldout, &th, 64, 9);
        (reference, SharedKert::new(kert).unwrap(), mix)
    }

    #[test]
    fn engine_answers_pass_every_check() {
        let (r, engine, mix) = fixture();
        for req in &mix {
            let resp = answer(&engine, req);
            properties(req, &resp, &r).unwrap();
            exact(req, &resp, &r).unwrap();
        }
    }

    #[test]
    fn a_perturbed_answer_fails() {
        let (r, engine, mix) = fixture();
        // Shift mass between two bins: the sum stays 1, so only the
        // comparison with the joint sum can see it.
        let shift = |probs: &mut Vec<f64>| {
            probs[0] += 1e-6;
            probs[1] -= 1e-6;
        };
        for i in sample(&mix, 1) {
            let req = &mix[i];
            let mut resp = answer(&engine, req);
            match &mut resp {
                Response::Posterior(wp) => shift(&mut wp.probs),
                Response::Dcomp { outcomes } => shift(&mut outcomes[0].posterior.probs),
                Response::Violation { probabilities } => probabilities[2] += 1e-6,
                Response::Paccel { outcomes } => shift(&mut outcomes[0].projected_d.probs),
                other => panic!("unexpected {other:?}"),
            }
            assert!(
                exact(req, &resp, &r).is_err(),
                "{} perturbation went unseen",
                req.verb()
            );
        }
        // A broken prior or an error answer fails the property check alone.
        let dcomp = mix
            .iter()
            .find(|q| matches!(q, Request::Dcomp { .. }))
            .unwrap();
        let mut resp = answer(&engine, dcomp);
        if let Response::Dcomp { outcomes } = &mut resp {
            shift(&mut outcomes[0].prior.probs);
        }
        assert!(properties(dcomp, &resp, &r).is_err());
        let err = Response::Error(kert_bn::serving::WireError::new(
            kert_bn::serving::ErrorKind::Internal,
            "boom",
        ));
        assert!(properties(dcomp, &err, &r).is_err());
    }

    #[test]
    fn a_count_mismatch_fails() {
        let status = |served_posterior, shed_overloaded| StatusInfo {
            nodes: 7,
            n_services: 6,
            d_node: 6,
            width: 6,
            workers: 2,
            queue_cap: 256,
            queue_depth: 0,
            inflight: 0,
            coalesce_window_us: 500,
            served_posterior,
            served_dcomp: 0,
            served_paccel: 0,
            served_violation: 0,
            shed_overloaded,
            shed_shutting_down: 0,
            coalesced_batches: 0,
            coalesced_requests: 0,
            uptime_ms: 0,
            draining: false,
            tracing: false,
            traces_recorded: 0,
        };
        assert!(accounting(100, &status(10, 0), &status(110, 0)).is_ok());
        assert!(accounting(99, &status(10, 0), &status(110, 0)).is_err());
        assert!(accounting(101, &status(10, 0), &status(110, 0)).is_err());
        assert!(accounting(100, &status(10, 0), &status(110, 1)).is_err());
    }
}
