//! Output checks: every reply the daemon acknowledged must equal a local
//! reference computed from the same generated inputs.
//!
//! * A sealed session's `close`/`outcome` replies and each `payments`
//!   reply must equal a local `run_auction` of the session's instance.
//! * A streaming session's `submit` verdicts and its `close`/`outcome`
//!   replies must equal a local `OnlineAuction` re-driven on the same
//!   stream.
//! * After the restart that measures recovery, every acknowledged session
//!   must answer `outcome` and `payments` exactly as before.
//!
//! Floats are compared bit for bit; outcomes through their lossless
//! `fl_auction::serial` encoding.

use std::net::SocketAddr;

use fl_auction::{
    run_auction, serial, AuctionError, AuctionOutcome, ClientId, ClientProfile, OnlineAuction,
    OnlineDecision, WdpSolution,
};
use fl_flpd::client::{PaymentReply, SubmitReply};
use fl_flpd::CloseReply;

use crate::drive::{connect, LoadOut, SessionOut};
use crate::workload::{to_bid, Plan, Step};

/// The local reference for one session.
struct Expected {
    close: CloseReply,
    /// On-arrival verdicts, indexed like the plan's bids (streaming only).
    verdicts: Vec<OnlineDecision>,
}

fn expected(plan: &Plan) -> Result<Expected, String> {
    let Some(budget) = plan.params.budget else {
        let close = match run_auction(&plan.instance()?) {
            Ok(outcome) => CloseReply::Committed(outcome),
            Err(AuctionError::Infeasible) => CloseReply::Aborted("infeasible".into()),
            Err(e) => CloseReply::Aborted(format!("solver failed: {e}")),
        };
        return Ok(Expected {
            close,
            verdicts: Vec::new(),
        });
    };
    let config = plan.params.to_config().map_err(|e| e.to_string())?;
    let mut online = OnlineAuction::new(config, budget).map_err(|e| e.to_string())?;
    let mut verdicts = Vec::with_capacity(plan.bids.len());
    for step in &plan.steps {
        match *step {
            Step::Client(c) => {
                let (t_cmp, t_com) = plan.clients[c as usize];
                online
                    .register_client(ClientProfile::new(t_cmp, t_com).map_err(|e| e.to_string())?);
            }
            Step::Bid(i) => {
                let b = &plan.bids[i as usize];
                verdicts.push(
                    online
                        .submit(ClientId(b.client), to_bid(b)?)
                        .map_err(|e| e.to_string())?,
                );
            }
            _ => {}
        }
    }
    let out = online.finish();
    Ok(Expected {
        close: CloseReply::Committed(AuctionOutcome::from_parts(out.horizon(), out.solution())),
        verdicts,
    })
}

/// Whether two close decisions are identical.
pub fn same_close(a: &CloseReply, b: &CloseReply) -> bool {
    match (a, b) {
        (CloseReply::Committed(x), CloseReply::Committed(y)) => {
            serial::outcome_to_json(x) == serial::outcome_to_json(y)
        }
        (CloseReply::Aborted(x), CloseReply::Aborted(y)) => x == y,
        _ => false,
    }
}

/// Whether two payment replies are identical, floats bit for bit.
pub fn same_payment(a: &PaymentReply, b: &PaymentReply) -> bool {
    match (a, b) {
        (
            PaymentReply::Committed {
                total: ta,
                per_bid: pa,
            },
            PaymentReply::Committed {
                total: tb,
                per_bid: pb,
            },
        ) => {
            ta.to_bits() == tb.to_bits()
                && pa.len() == pb.len()
                && pa
                    .iter()
                    .zip(pb)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        }
        (PaymentReply::Aborted(x), PaymentReply::Aborted(y)) => x == y,
        _ => false,
    }
}

fn same_verdict(d: &OnlineDecision, r: &SubmitReply) -> bool {
    d.bid_ref.bid == r.bid
        && d.committed == r.committed
        && d.reason.as_str() == r.reason
        && d.payment.to_bits() == r.payment.to_bits()
        && d.duplicate == r.duplicate
}

/// The `payments` reply a daemon holding `close` owes `client`: its
/// winning bids in winner order.
fn payments_of(close: &CloseReply, client: u32) -> PaymentReply {
    match close {
        CloseReply::Committed(outcome) => {
            let mut total = 0.0;
            let mut per_bid = Vec::new();
            for w in outcome.solution().winners() {
                if w.bid_ref.client.0 == client {
                    total += w.payment;
                    per_bid.push((w.bid_ref.bid, w.payment));
                }
            }
            PaymentReply::Committed { total, per_bid }
        }
        CloseReply::Aborted(reason) => PaymentReply::Aborted(reason.clone()),
    }
}

/// Which expectations [`check_session`] perturbs (the self-test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Perturb {
    None,
    All,
}

/// Mismatches between one session's replies and the local reference.
fn check_session(plan: &Plan, out: &SessionOut, perturb: Perturb) -> Vec<String> {
    let sid = out.sid.as_deref().unwrap_or("?");
    let mut bad = out.mismatches.clone();
    let mut exp = match expected(plan) {
        Ok(exp) => exp,
        Err(e) => return vec![format!("{sid}: reference failed: {e}")],
    };
    if perturb == Perturb::All {
        if let CloseReply::Committed(o) = &exp.close {
            let sol = o.solution();
            let mut winners = sol.winners().to_vec();
            if let Some(w) = winners.first_mut() {
                w.payment = w.payment.next_up();
            }
            let sol = WdpSolution::new(
                sol.horizon(),
                winners,
                sol.cost(),
                sol.certificate().cloned(),
            )
            .with_backfilled(sol.backfilled());
            exp.close = CloseReply::Committed(AuctionOutcome::from_parts(o.horizon(), sol));
        }
        if let Some(v) = exp.verdicts.first_mut() {
            v.committed = !v.committed;
        }
    }
    for (i, reply) in &out.submits {
        if !exp
            .verdicts
            .get(*i as usize)
            .is_some_and(|d| same_verdict(d, reply))
        {
            bad.push(format!(
                "{sid}: verdict of bid {i} differs from the local re-drive"
            ));
        }
    }
    for (what, reply) in [("close", &out.close), ("outcome", &out.outcome)] {
        match reply {
            Some(r) if !same_close(r, &exp.close) => {
                bad.push(format!("{sid}: {what} reply differs from the local solve"));
            }
            None if !out.failed => bad.push(format!("{sid}: no {what} reply")),
            _ => {}
        }
    }
    for (n, (c, reply)) in out.payments.iter().enumerate() {
        let mut want = payments_of(&exp.close, *c);
        if perturb == Perturb::All && n == 0 {
            if let PaymentReply::Committed { total, .. } = &mut want {
                *total = total.next_up();
            }
        }
        if !same_payment(reply, &want) {
            bad.push(format!(
                "{sid}: payments of client {c} differ from the local solve"
            ));
        }
    }
    bad
}

/// Checks every session of the load phase against its local reference,
/// on `threads` threads.
pub fn outputs(plans: &[Plan], load: &LoadOut, threads: usize) -> Vec<String> {
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    (t..plans.len())
                        .step_by(threads)
                        .flat_map(|i| check_session(&plans[i], &load.sessions[i], Perturb::None))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check thread panicked"))
            .collect()
    })
}

/// Shows that the check trips: with one winner's payment in the expected
/// outcome, the first expected payments total and the first streaming
/// verdict each perturbed, the first committed session (not a probe, which
/// may have no winner) must report each of them that it has replies for
/// as a mismatch.
///
/// # Errors
///
/// Names the perturbation the check missed.
pub fn self_test(plans: &[Plan], load: &LoadOut) -> Result<(), String> {
    let (plan, out) = plans
        .iter()
        .zip(&load.sessions)
        .find(|(p, s)| !p.probe && matches!(s.close, Some(CloseReply::Committed(_))))
        .ok_or("self-test: no committed session")?;
    let bad = check_session(plan, out, Perturb::All);
    let mut wanted = vec!["close reply", "outcome reply"];
    if !out.payments.is_empty() {
        wanted.push("payments of client");
    }
    if !out.submits.is_empty() {
        wanted.push("verdict of bid");
    }
    for what in wanted {
        if !bad.iter().any(|m| m.contains(what)) {
            return Err(format!("self-test: a perturbed {what} went unnoticed"));
        }
    }
    Ok(())
}

/// After a restart, every acknowledged session must answer `outcome` and
/// `payments` exactly as it did before.
///
/// # Errors
///
/// Describes a failed connection; mismatches are returned, not raised.
pub fn after_restart(
    addr: SocketAddr,
    sessions: &[&SessionOut],
    seed: u64,
) -> Result<Vec<String>, String> {
    let mut client = connect(addr, seed)?;
    let mut bad = Vec::new();
    for out in sessions {
        let (Some(sid), Some(close)) = (&out.sid, &out.close) else {
            continue;
        };
        match client.outcome(sid) {
            Ok(r) if same_close(&r, close) => {}
            Ok(_) => bad.push(format!("{sid}: outcome changed across the restart")),
            Err(e) => bad.push(format!("{sid}: outcome after restart failed: {e}")),
        }
        for (c, before) in &out.payments {
            match client.payments(sid, *c) {
                Ok(r) if same_payment(&r, before) => {}
                Ok(_) => bad.push(format!(
                    "{sid}: payments of client {c} changed across the restart"
                )),
                Err(e) => bad.push(format!("{sid}: payments after restart failed: {e}")),
            }
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::SessionOut;
    use crate::workload::{generate, Workload};

    /// Replies built from the reference itself pass; the perturbed
    /// reference trips every comparator.
    #[test]
    fn check_trips_on_perturbed_expectations() {
        for w in [Workload::SealedSmall, Workload::StreamIngest] {
            let gen = generate(w, 7, 0.01).expect("generate");
            let plan = &gen.warmup[0];
            let exp = expected(plan).expect("reference");
            let mut out = SessionOut {
                sid: Some("s-1".into()),
                close: Some(exp.close.clone()),
                outcome: Some(exp.close.clone()),
                ..SessionOut::default()
            };
            for (i, d) in exp.verdicts.iter().enumerate() {
                out.submits.push((
                    i as u32,
                    SubmitReply {
                        bid: d.bid_ref.bid,
                        committed: d.committed,
                        reason: d.reason.as_str().into(),
                        payment: d.payment,
                        duplicate: d.duplicate,
                    },
                ));
            }
            out.payments = (0..plan.clients.len() as u32)
                .map(|c| (c, payments_of(&exp.close, c)))
                .collect();
            assert!(check_session(plan, &out, Perturb::None).is_empty());
            let load = LoadOut {
                sessions: vec![out],
                ..LoadOut::default()
            };
            self_test(std::slice::from_ref(plan), &load).expect("self-test trips");
        }
    }
}
