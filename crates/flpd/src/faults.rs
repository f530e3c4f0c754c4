//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes how the daemon should misbehave: drop,
//! delay or duplicate response frames on the wire, die at a chosen
//! journal append with a partially-written record ([`CrashPoint`] from
//! the journal layer), and/or fail one append without dying
//! ([`JamPoint`]). Wire faults draw from a seeded RNG per
//! connection, so a `(plan, connection order)` pair replays the same
//! fault sequence — the chaos matrix depends on this to be debuggable.
//!
//! Plans come from the `FLPD_FAULTS` environment variable (for the
//! `flpd` bin) or are constructed programmatically (chaos harness):
//!
//! ```text
//! FLPD_FAULTS="seed=42,drop=0.2,delay=0.3:5,dup=0.1,crash=bid:3:0.5"
//! ```
//!
//! * `seed=<u64>` — RNG seed (default 0);
//! * `drop=<p>` — drop each response with probability `p`;
//! * `delay=<p>:<ms>` — delay each response by `ms` with probability `p`;
//! * `dup=<p>` — send each response twice with probability `p`;
//! * `crash=<kind>:<nth>[:<cut>]` — die appending the `nth` journal
//!   record of `kind`
//!   (`open|client|bid|decision|close_begin|close_commit`),
//!   having physically written `cut in [0, 1]` of it (default 0.5);
//! * `jam=<kind>:<nth>` — fail (without dying) the `nth` journal append
//!   of `kind` with a plain I/O error, exercising the `internal` error
//!   path: the record is not written and the journal poisons, so every
//!   later mutation answers `internal` until the daemon restarts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::journal::{CrashPoint, JamPoint, RecordKind};

/// Environment variable the `flpd` bin reads a plan from.
pub const FAULTS_ENV: &str = "FLPD_FAULTS";

/// A complete fault schedule for one daemon lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the wire-fault RNG.
    pub seed: u64,
    /// Probability of dropping a response frame.
    pub drop_resp: f64,
    /// `(probability, milliseconds)` of delaying a response frame.
    pub delay: Option<(f64, u64)>,
    /// Probability of duplicating a response frame.
    pub dup_resp: f64,
    /// At most one injected death per daemon lifetime.
    pub crash: Option<CrashPoint>,
    /// At most one injected non-fatal journal write failure.
    pub jam: Option<JamPoint>,
}

impl FaultPlan {
    /// Whether the plan perturbs the wire at all.
    pub fn has_wire_faults(&self) -> bool {
        self.drop_resp > 0.0 || self.dup_resp > 0.0 || self.delay.is_some()
    }

    /// The plan with the journal fault points (crash and jam) removed —
    /// what a restarted daemon runs under. The fault already fired once,
    /// and append counts restart from zero, so keeping it would fire it
    /// again at the same point of the next incarnation.
    pub fn after_crash(mut self) -> FaultPlan {
        self.crash = None;
        self.jam = None;
        self
    }

    /// Parses the `FLPD_FAULTS` syntax.
    ///
    /// # Errors
    ///
    /// Names the first malformed clause.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in text.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("clause {clause:?} is not key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
                }
                "drop" => plan.drop_resp = parse_prob(value)?,
                "dup" => plan.dup_resp = parse_prob(value)?,
                "delay" => {
                    let (p, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("delay needs p:ms, got {value:?}"))?;
                    let ms = ms.parse().map_err(|_| format!("bad delay ms {ms:?}"))?;
                    plan.delay = Some((parse_prob(p)?, ms));
                }
                "crash" => {
                    let mut parts = value.split(':');
                    let kind = parts.next().unwrap_or("");
                    let kind = RecordKind::parse_str(kind)
                        .ok_or_else(|| format!("unknown record kind {kind:?}"))?;
                    let nth = parts
                        .next()
                        .ok_or_else(|| "crash needs kind:nth".to_string())?
                        .parse()
                        .map_err(|_| "bad crash nth".to_string())?;
                    let cut = match parts.next() {
                        None => 0.5,
                        Some(c) => parse_prob(c)?,
                    };
                    plan.crash = Some(CrashPoint { kind, nth, cut });
                }
                "jam" => {
                    let (kind, nth) = value
                        .split_once(':')
                        .ok_or_else(|| format!("jam needs kind:nth, got {value:?}"))?;
                    let kind = RecordKind::parse_str(kind)
                        .ok_or_else(|| format!("unknown record kind {kind:?}"))?;
                    let nth = nth.parse().map_err(|_| "bad jam nth".to_string())?;
                    plan.jam = Some(JamPoint { kind, nth });
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// Reads the plan from [`FAULTS_ENV`]; `Ok(None)` when unset.
    ///
    /// # Errors
    ///
    /// Propagates parse failures so typos do not silently run fault-free.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var(FAULTS_ENV) {
            Ok(text) if !text.trim().is_empty() => FaultPlan::parse(&text).map(Some),
            _ => Ok(None),
        }
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|_| format!("bad probability {s:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("probability {p} outside [0,1]"));
    }
    Ok(p)
}

/// What to do with one response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAction {
    /// Send it once, immediately.
    Send,
    /// Do not send it at all.
    Drop,
    /// Sleep this many milliseconds, then send.
    DelayMs(u64),
    /// Send it twice back to back.
    Duplicate,
}

/// Per-connection wire-fault dice, seeded from `(plan.seed, conn_index)`.
#[derive(Debug)]
pub struct WireDice {
    plan: FaultPlan,
    rng: StdRng,
}

impl WireDice {
    /// Dice for connection number `conn` under `plan`.
    pub fn new(plan: FaultPlan, conn: u64) -> WireDice {
        WireDice {
            plan,
            rng: StdRng::seed_from_u64(plan.seed.wrapping_mul(0x9e37_79b9).wrapping_add(conn)),
        }
    }

    /// Rolls the fate of the next response frame. Faults are exclusive,
    /// checked in drop → delay → dup order.
    pub fn roll(&mut self) -> WireAction {
        if self.plan.drop_resp > 0.0 && self.rng.next_f64() < self.plan.drop_resp {
            return WireAction::Drop;
        }
        if let Some((p, ms)) = self.plan.delay {
            if p > 0.0 && self.rng.next_f64() < p {
                return WireAction::DelayMs(ms);
            }
        }
        if self.plan.dup_resp > 0.0 && self.rng.next_f64() < self.plan.dup_resp {
            return WireAction::Duplicate;
        }
        WireAction::Send
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_syntax_parses() {
        let plan =
            FaultPlan::parse("seed=42, drop=0.2, delay=0.3:5, dup=0.1, crash=bid:3:0.5").unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.drop_resp - 0.2).abs() < 1e-12);
        assert_eq!(plan.delay, Some((0.3, 5)));
        assert!((plan.dup_resp - 0.1).abs() < 1e-12);
        let cp = plan.crash.unwrap();
        assert_eq!(cp.kind, RecordKind::Bid);
        assert_eq!(cp.nth, 3);
        assert!((cp.cut - 0.5).abs() < 1e-12);
        assert!(plan.has_wire_faults());
    }

    #[test]
    fn crash_cut_defaults_to_half() {
        let plan = FaultPlan::parse("crash=close_commit:1").unwrap();
        assert!((plan.crash.unwrap().cut - 0.5).abs() < 1e-12);
        assert!(!plan.has_wire_faults());
    }

    #[test]
    fn crash_clause_targets_streaming_decisions() {
        let plan = FaultPlan::parse("crash=decision:4:0.25").unwrap();
        let cp = plan.crash.unwrap();
        assert_eq!(cp.kind, RecordKind::Decision);
        assert_eq!(cp.nth, 4);
        assert!((cp.cut - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jam_clause_parses() {
        let plan = FaultPlan::parse("jam=bid:2").unwrap();
        let jam = plan.jam.unwrap();
        assert_eq!(jam.kind, RecordKind::Bid);
        assert_eq!(jam.nth, 2);
        assert!(!plan.has_wire_faults());
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "drop",
            "drop=1.5",
            "delay=0.5",
            "crash=warp:1",
            "crash=bid:x",
            "jam=bid",
            "jam=warp:1",
            "wat=1",
            "seed=minus",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_plan_is_fault_free() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        let mut dice = WireDice::new(plan, 0);
        for _ in 0..100 {
            assert_eq!(dice.roll(), WireAction::Send);
        }
    }

    #[test]
    fn dice_are_deterministic_per_seed_and_connection() {
        let plan = FaultPlan::parse("seed=9,drop=0.3,dup=0.3").unwrap();
        let rolls = |conn| {
            let mut dice = WireDice::new(plan, conn);
            (0..64).map(|_| dice.roll()).collect::<Vec<_>>()
        };
        assert_eq!(rolls(1), rolls(1));
        assert_ne!(rolls(1), rolls(2));
        assert!(rolls(1).contains(&WireAction::Drop));
    }

    #[test]
    fn after_crash_strips_only_the_crash() {
        let plan = FaultPlan::parse("drop=0.2,crash=bid:1").unwrap();
        let restarted = plan.after_crash();
        assert_eq!(restarted.crash, None);
        assert!((restarted.drop_resp - 0.2).abs() < 1e-12);
        // A jam is a journal fault point too: a restarted daemon counts
        // appends from zero and must not jam again at the same point.
        let jammed = FaultPlan::parse("seed=3,dup=0.1,jam=close_commit:2").unwrap();
        let restarted = jammed.after_crash();
        assert_eq!(restarted.jam, None);
        assert_eq!(restarted.seed, 3);
        assert!((restarted.dup_resp - 0.1).abs() < 1e-12);
    }
}
