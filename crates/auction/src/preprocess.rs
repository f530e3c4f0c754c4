//! Qualified-bid preprocessing: within-client dominated-bid elimination
//! and the per-sweep admissibility precomputation ([`SweepPrecomp`]).
//!
//! For one client, bid `B'` **dominates** bid `B` when it is no more
//! expensive (`p' ≤ p`), at least as available (`a' ≤ a`, `d' ≥ d`) and
//! offers at least as many rounds (`c' ≥ c`). Any feasible solution using
//! `B` stays feasible (at no higher cost) after swapping in `B'`: the
//! wider window contains every schedulable round of the narrower one and
//! the extra rounds only add coverage, which ILP (6) never penalises. So
//! removing dominated bids preserves the optimal social cost exactly —
//! property-tested against the brute-force solver.
//!
//! Scope note: [`remove_dominated`] is a *cost-side* tool (exact solving,
//! relaxations, what-if analyses). Running the payment rule on a pruned
//! bid set changes critical values, so the mechanism itself never prunes
//! **bids**. [`SweepPrecomp`] is different: it never drops a bid — it only
//! precomputes, per bid, the smallest horizon at which the unchanged
//! qualification rules of [`crate::qualify()`] admit it, so the sweep can
//! rebuild each horizon's exact qualified set by threshold comparison
//! instead of re-deriving every gate, and can lower-bound a horizon's cost
//! to skip horizons that provably cannot win (see
//! [`SweepPrecomp::cost_lower_bound`]).

use crate::bid::{Bid, Instance};
use crate::config::{AuctionConfig, QualifyMode};
use crate::qualify::{QualifiedBid, QUALIFY_EPS};
use crate::types::{BidRef, Round, Window};
use crate::wdp::Wdp;
use fl_telemetry::{counter, span};

/// Returns a WDP without within-client dominated bids, plus how many bids
/// were removed. Exact ties (identical price, window and rounds) keep the
/// earliest bid reference.
pub fn remove_dominated(wdp: &Wdp) -> (Wdp, usize) {
    let bids = wdp.bids();
    let mut keep = vec![true; bids.len()];
    // Pairwise scan (bid counts per client are tiny — J ≤ 10).
    for i in 0..bids.len() {
        for j in 0..bids.len() {
            if i == j || !keep[i] || !keep[j] {
                continue;
            }
            if bids[i].bid_ref.client != bids[j].bid_ref.client {
                continue;
            }
            if dominates(&bids[j], &bids[i]) && (!dominates(&bids[i], &bids[j]) || j < i) {
                keep[i] = false;
            }
        }
    }
    let kept: Vec<QualifiedBid> = bids
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(b, _)| *b)
        .collect();
    let removed = bids.len() - kept.len();
    (
        Wdp::new(wdp.horizon(), wdp.demand_per_round(), kept),
        removed,
    )
}

/// Whether `a` (weakly) dominates `b` for the same client.
fn dominates(a: &QualifiedBid, b: &QualifiedBid) -> bool {
    a.price <= b.price
        && a.window.start() <= b.window.start()
        && a.window.end() >= b.window.end()
        && a.rounds >= b.rounds
}

/// Sentinel threshold for "no horizon in the sweep admits this bid".
const NEVER: u32 = u32::MAX;

/// One bid's qualification gates under one configuration, each folded
/// into the smallest horizon it admits the bid at.
struct Gates {
    /// Whether `t_ij ≤ t_max + ε` (horizon-independent).
    time_ok: bool,
    /// Smallest horizon passing the accuracy gate `θ ≤ 1 − 1/T̂_g + ε`
    /// ([`NEVER`] if none within `T`).
    h_accuracy: u32,
    /// Smallest horizon passing the window gate under the configured
    /// [`QualifyMode`].
    h_window: u32,
}

impl Gates {
    fn of(bid: &Bid, round_time: f64, config: &AuctionConfig) -> Gates {
        let a = u64::from(bid.window().start().0);
        let c = u64::from(bid.rounds());
        Gates {
            time_ok: round_time <= config.round_time_limit() + QUALIFY_EPS,
            h_accuracy: accuracy_threshold(bid.accuracy(), config.max_rounds()),
            h_window: match config.qualify_mode() {
                // Truncated window `[a, min(d, T̂_g)]` holds `c` rounds
                // iff `T̂_g ≥ a + c − 1` (bids guarantee `c ≤ d − a + 1`).
                QualifyMode::Intent => clamp_u32(a + c - 1),
                // Literal Alg. 1 line 6: `a + c ≤ T̂_g`.
                QualifyMode::Literal => clamp_u32(a + c),
            },
        }
    }

    /// Smallest horizon at which every gate admits the bid, or [`NEVER`].
    fn admission(&self) -> u32 {
        if !self.time_ok || self.h_accuracy == NEVER {
            NEVER
        } else {
            self.h_accuracy.max(self.h_window)
        }
    }
}

/// The smallest horizon in `1..=T` at which [`crate::qualify()`] admits
/// `bid` under `config`, or `None` if none does. `round_time` is the
/// bid's per-round wall clock ([`Instance::round_time`]).
///
/// A pure function of the bid and the configuration: the batch sweep
/// ([`SweepPrecomp`]) and the online mode ([`crate::OnlineAuction`]) both
/// qualify through it, so the two cannot disagree on any bid.
pub fn admission_horizon(bid: &Bid, round_time: f64, config: &AuctionConfig) -> Option<u32> {
    let h = Gates::of(bid, round_time, config).admission();
    (h != NEVER).then_some(h)
}

/// Per-bid admissibility data precomputed once per sweep, stored as
/// parallel columns (one entry per bid, instance order) in the same
/// struct-of-arrays style as [`crate::columnar`]: the per-horizon
/// qualification scan of [`SweepPrecomp::qualify_at`] reads only the
/// threshold columns until a bid is admitted, so rejected bids cost three
/// contiguous-array compares instead of dragging a full record through
/// the cache.
#[derive(Debug, Clone, Default)]
struct PrecompColumns {
    bid_refs: Vec<BidRef>,
    prices: Vec<f64>,
    accuracies: Vec<f64>,
    /// The bids' full (untruncated) windows.
    windows: Vec<Window>,
    rounds: Vec<u32>,
    round_times: Vec<f64>,
    /// [`Gates::time_ok`] per bid.
    time_ok: Vec<bool>,
    /// [`Gates::h_accuracy`] per bid.
    h_accuracy: Vec<u32>,
    /// [`Gates::h_window`] per bid.
    h_window: Vec<u32>,
    /// Smallest horizon at which the bid qualifies outright, or [`NEVER`].
    min_admissible: Vec<u32>,
    /// Average per-scheduled-round cost `b_ij / c_ij`.
    avg: Vec<f64>,
}

impl PrecompColumns {
    fn len(&self) -> usize {
        self.bid_refs.len()
    }
}

/// Threshold-based qualification for the `A_FL` horizon sweep.
///
/// Every gate in [`crate::qualify::qualify`] is monotone in the horizon:
/// the accuracy bound `θ_max = 1 − 1/T̂_g` relaxes as `T̂_g` grows, the
/// `t_max` check does not depend on `T̂_g` at all, and the truncated window
/// only gains rounds. A bid's qualification status therefore flips from
/// rejected to accepted at exactly one threshold horizon
/// ([`admission_horizon`]), which this type computes once per bid
/// (binary-searching the accuracy gate along the *identical*
/// floating-point comparison `qualify` uses). After that,
/// [`SweepPrecomp::qualify_at`] rebuilds any horizon's qualified set —
/// same bids, same order, same truncated windows, same telemetry counters
/// — by threshold comparison, in `O(bids)` with no float re-derivation.
///
/// The thresholds also yield [`SweepPrecomp::cost_lower_bound`], the
/// admissible-average-cost bound `A_FL` uses to skip horizons that provably
/// cannot beat an already-found outcome.
#[derive(Debug, Clone)]
pub struct SweepPrecomp {
    k: u32,
    horizon_cap: u32,
    cols: PrecompColumns,
    /// Indices of admissible entries sorted by `(avg, slot)` for the
    /// lower bound's cheapest-slot scan.
    by_avg: Vec<usize>,
}

impl SweepPrecomp {
    /// Precomputes per-bid admissibility thresholds for sweeping
    /// `instance`'s horizons `1..=T`.
    pub fn new(instance: &Instance) -> SweepPrecomp {
        let _span = span!(
            "sweep_precompute",
            bids = instance.iter_bids().count() as u64
        );
        let config = instance.config();
        let mut precomp = SweepPrecomp {
            k: config.clients_per_round(),
            horizon_cap: config.max_rounds(),
            cols: PrecompColumns::default(),
            by_avg: Vec::new(),
        };
        for (bid_ref, bid) in instance.iter_bids() {
            precomp.push_columns(bid_ref, bid, instance.round_time(bid_ref), config);
        }
        // A stable sort keys equal averages by slot order.
        let mut by_avg: Vec<usize> = (0..precomp.cols.len())
            .filter(|&i| precomp.cols.min_admissible[i] != NEVER)
            .collect();
        by_avg.sort_by(|&i, &j| precomp.cols.avg[i].total_cmp(&precomp.cols.avg[j]));
        precomp.by_avg = by_avg;
        precomp
    }

    /// Appends one bid's threshold columns.
    fn push_columns(
        &mut self,
        bid_ref: BidRef,
        bid: &Bid,
        round_time: f64,
        config: &AuctionConfig,
    ) {
        let gates = Gates::of(bid, round_time, config);
        self.cols.bid_refs.push(bid_ref);
        self.cols.prices.push(bid.price());
        self.cols.accuracies.push(bid.accuracy());
        self.cols.windows.push(bid.window());
        self.cols.rounds.push(bid.rounds());
        self.cols.round_times.push(round_time);
        self.cols.time_ok.push(gates.time_ok);
        self.cols.h_accuracy.push(gates.h_accuracy);
        self.cols.h_window.push(gates.h_window);
        self.cols.min_admissible.push(gates.admission());
        self.cols.avg.push(bid.price() / f64::from(bid.rounds()));
    }

    /// The largest horizon (`T`) the thresholds were computed for.
    pub fn horizon_cap(&self) -> u32 {
        self.horizon_cap
    }

    /// Builds the qualified bid set for `horizon` from the precomputed
    /// thresholds — bit-identical to
    /// [`qualify(instance, horizon)`](crate::qualify::qualify), including
    /// bid order, truncated windows, and the `qualify.*` telemetry
    /// counters' rejection-reason attribution.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero or exceeds
    /// [`horizon_cap`](SweepPrecomp::horizon_cap).
    pub fn qualify_at(&self, horizon: u32) -> Wdp {
        assert!(horizon >= 1, "horizon must be at least 1");
        assert!(
            horizon <= self.horizon_cap,
            "horizon {horizon} exceeds the precomputed cap {}",
            self.horizon_cap
        );
        let _span = span!("qualify", tg = horizon);
        let last = Round(horizon);
        let (mut examined, mut by_accuracy, mut by_time, mut by_window) = (0u64, 0u64, 0u64, 0u64);
        let mut bids = Vec::new();
        for i in 0..self.cols.len() {
            examined += 1;
            // Same gate order as `qualify`, so rejection counters agree.
            // Only the three threshold columns are read until admission.
            if horizon < self.cols.h_accuracy[i] {
                by_accuracy += 1;
                continue;
            }
            if !self.cols.time_ok[i] {
                by_time += 1;
                continue;
            }
            if horizon < self.cols.h_window[i] {
                by_window += 1;
                continue;
            }
            let window = self.cols.windows[i]
                .truncate(last)
                .expect("h ≥ h_window implies h ≥ window start");
            bids.push(QualifiedBid {
                bid_ref: self.cols.bid_refs[i],
                price: self.cols.prices[i],
                accuracy: self.cols.accuracies[i],
                window,
                rounds: self.cols.rounds[i],
                round_time: self.cols.round_times[i],
            });
        }
        counter!("qualify.examined", examined);
        counter!("qualify.rejected_accuracy", by_accuracy);
        counter!("qualify.rejected_time", by_time);
        counter!("qualify.rejected_window", by_window);
        counter!("qualify.accepted", bids.len());
        Wdp::new(horizon, self.k, bids)
    }

    /// A cheap lower bound on the social cost of **any** feasible solution
    /// at `horizon`: the sum of the `K·T̂_g` cheapest admissible
    /// average-cost round slots.
    ///
    /// Every feasible solution schedules at least `K` distinct clients in
    /// each of the `T̂_g` rounds, so its winners contribute at least
    /// `K·T̂_g` scheduled rounds in total; charging each winner's rounds at
    /// its average per-round cost `b_ij/c_ij` and taking the cheapest
    /// `K·T̂_g` such slots can only undercount. Returns `f64::INFINITY`
    /// when the admissible bids cannot even fill the slots (the horizon is
    /// infeasible outright). The summation order is deterministic, so
    /// prune decisions based on this bound reproduce across runs.
    pub fn cost_lower_bound(&self, horizon: u32) -> f64 {
        let mut remaining = u64::from(self.k) * u64::from(horizon);
        let mut bound = 0.0;
        for &idx in &self.by_avg {
            if self.cols.min_admissible[idx] > horizon {
                continue;
            }
            let take = remaining.min(u64::from(self.cols.rounds[idx]));
            bound += self.cols.avg[idx] * take as f64;
            remaining -= take;
            if remaining == 0 {
                return bound;
            }
        }
        f64::INFINITY
    }

    /// The smallest horizon at which `bid_ref` qualifies, or `None` if no
    /// horizon in `1..=T` admits it — or no bid is `bid_ref`. A linear
    /// lookup, exposed for tests and analyses.
    pub fn admission_horizon(&self, bid_ref: BidRef) -> Option<u32> {
        let i = self.cols.bid_refs.iter().position(|&r| r == bid_ref)?;
        (self.cols.min_admissible[i] != NEVER).then_some(self.cols.min_admissible[i])
    }
}

/// The smallest `h ∈ [1, cap]` with `θ ≤ (1 − 1/h) + ε`, or [`NEVER`].
///
/// Binary search over the **exact** comparison `qualify` evaluates per
/// horizon; `1 − 1/h` is monotone non-decreasing in `h` even in floating
/// point (division by a larger positive integer never rounds upward past
/// the previous quotient), so the predicate flips at most once.
fn accuracy_threshold(accuracy: f64, cap: u32) -> u32 {
    let admitted = |h: u32| accuracy <= (1.0 - 1.0 / f64::from(h)) + QUALIFY_EPS;
    if !admitted(cap) {
        return NEVER;
    }
    let (mut lo, mut hi) = (1u32, cap); // invariant: admitted(hi)
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if admitted(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Saturating `u64 → u32` for window thresholds (a saturated threshold can
/// never be reached by a real horizon, which is the correct reading).
fn clamp_u32(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BidRef, ClientId, Round, Window};
    use crate::wdp::WdpSolver;
    use crate::winner::AWinner;

    fn qb(client: u32, bid: u32, price: f64, a: u32, d: u32, c: u32) -> QualifiedBid {
        QualifiedBid {
            bid_ref: BidRef::new(ClientId(client), bid),
            price,
            accuracy: 0.5,
            window: Window::new(Round(a), Round(d)),
            rounds: c,
            round_time: 1.0,
        }
    }

    #[test]
    fn strictly_dominated_bid_is_removed() {
        // Bid 1 is pricier, narrower and offers fewer rounds than bid 0.
        let wdp = Wdp::new(
            5,
            1,
            vec![
                qb(0, 0, 3.0, 1, 5, 3),
                qb(0, 1, 7.0, 2, 4, 2),
                qb(1, 0, 4.0, 1, 5, 5),
            ],
        );
        let (pruned, removed) = remove_dominated(&wdp);
        assert_eq!(removed, 1);
        assert!(pruned
            .bids()
            .iter()
            .all(|b| b.bid_ref != BidRef::new(ClientId(0), 1)));
    }

    #[test]
    fn cross_client_bids_never_dominate() {
        let wdp = Wdp::new(5, 1, vec![qb(0, 0, 1.0, 1, 5, 5), qb(1, 0, 50.0, 2, 3, 1)]);
        let (pruned, removed) = remove_dominated(&wdp);
        assert_eq!(removed, 0);
        assert_eq!(pruned.bids().len(), 2);
    }

    #[test]
    fn exact_ties_keep_the_earliest_reference() {
        let wdp = Wdp::new(4, 1, vec![qb(0, 0, 2.0, 1, 4, 2), qb(0, 1, 2.0, 1, 4, 2)]);
        let (pruned, removed) = remove_dominated(&wdp);
        assert_eq!(removed, 1);
        assert_eq!(pruned.bids()[0].bid_ref, BidRef::new(ClientId(0), 0));
    }

    #[test]
    fn incomparable_bids_both_survive() {
        // Cheaper-but-narrow vs pricier-but-wide: neither dominates.
        let wdp = Wdp::new(6, 1, vec![qb(0, 0, 2.0, 2, 3, 1), qb(0, 1, 5.0, 1, 6, 4)]);
        let (_, removed) = remove_dominated(&wdp);
        assert_eq!(removed, 0);
    }

    #[test]
    fn greedy_cost_never_worsens_after_pruning() {
        let mut state = 0x0ddba11u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let h = 3 + (next() % 4) as u32;
            let n = 8 + (next() % 8) as usize;
            let bids: Vec<QualifiedBid> = (0..n)
                .map(|i| {
                    let a = 1 + (next() % u64::from(h)) as u32;
                    let d = a + (next() % u64::from(h - a + 1)) as u32;
                    let c = 1 + (next() % u64::from(d - a + 1)) as u32;
                    qb(
                        (i / 3) as u32,
                        (i % 3) as u32,
                        1.0 + (next() % 20) as f64,
                        a,
                        d,
                        c,
                    )
                })
                .collect();
            let wdp = Wdp::new(h, 1, bids);
            let (pruned, _) = remove_dominated(&wdp);
            let before = AWinner::new().without_certificate().solve_wdp(&wdp);
            let after = AWinner::new().without_certificate().solve_wdp(&pruned);
            match (before, after) {
                (Ok(b), Ok(a)) => assert!(
                    a.cost() <= b.cost() + 1e-9,
                    "trial {trial}: pruning worsened the greedy {} → {}",
                    b.cost(),
                    a.cost()
                ),
                (Err(_), Err(_)) => {}
                (Err(_), Ok(_)) => {} // pruning can only help the greedy
                (Ok(b), Err(e)) => {
                    panic!(
                        "trial {trial}: pruning broke feasibility ({}, {e})",
                        b.cost()
                    )
                }
            }
        }
    }

    // ---- SweepPrecomp: the incremental qualifier ------------------------

    use crate::bid::{Bid, ClientProfile};
    use crate::config::AuctionConfig;
    use crate::qualify::qualify;
    use fl_telemetry::{install_local, Recorder, Snapshot};
    use std::sync::Arc;

    /// The qualify-gate exercise instance (mirrors `qualify.rs`): one bid
    /// per gate — accepted, time-rejected, accuracy-rejected (until h = 5).
    fn gates_instance(mode: QualifyMode) -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(10)
            .clients_per_round(1)
            .round_time_limit(40.0)
            .qualify_mode(mode)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(5.0, 10.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(10.0, 0.5, Window::new(Round(1), Round(4)), 3).unwrap(),
        )
        .unwrap();
        // θ = 0.3 → t = 45 > 40: time-disqualified at every horizon.
        inst.add_bid(
            c,
            Bid::new(10.0, 0.3, Window::new(Round(1), Round(4)), 2).unwrap(),
        )
        .unwrap();
        // θ = 0.8 needs T̂_g ≥ 5.
        inst.add_bid(
            c,
            Bid::new(10.0, 0.8, Window::new(Round(2), Round(9)), 4).unwrap(),
        )
        .unwrap();
        inst
    }

    fn counters_of(f: impl FnOnce()) -> Snapshot {
        let recorder = Arc::new(Recorder::default());
        let guard = install_local(recorder.clone());
        f();
        drop(guard);
        recorder.snapshot()
    }

    #[test]
    fn qualify_at_matches_qualify_at_every_horizon_and_mode() {
        for mode in [QualifyMode::Intent, QualifyMode::Literal] {
            let inst = gates_instance(mode);
            let precomp = SweepPrecomp::new(&inst);
            for h in 1..=inst.config().max_rounds() {
                let (reference, incremental) = (qualify(&inst, h), precomp.qualify_at(h));
                assert_eq!(
                    reference.bids(),
                    incremental.bids(),
                    "bid sets diverge at T̂_g = {h} ({mode:?})"
                );
                assert_eq!(reference.horizon(), incremental.horizon());
                assert_eq!(reference.demand_per_round(), incremental.demand_per_round());
                // Rejection-reason attribution must agree too.
                let a = counters_of(|| drop(qualify(&inst, h)));
                let b = counters_of(|| drop(precomp.qualify_at(h)));
                assert_eq!(a.counters, b.counters, "counters diverge at T̂_g = {h}");
            }
        }
    }

    #[test]
    fn empty_bid_set_yields_empty_horizons_and_infinite_bounds() {
        let inst = Instance::new(AuctionConfig::paper_default());
        let precomp = SweepPrecomp::new(&inst);
        for h in [1, 2, precomp.horizon_cap()] {
            assert!(precomp.qualify_at(h).bids().is_empty());
            assert_eq!(precomp.cost_lower_bound(h), f64::INFINITY);
        }
    }

    #[test]
    fn all_infeasible_horizon_is_empty_with_infinite_lower_bound() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        // At T̂_g = 1 nothing passes the accuracy gate (θ_max = 0).
        assert!(precomp.qualify_at(1).bids().is_empty());
        assert_eq!(precomp.cost_lower_bound(1), f64::INFINITY);
    }

    #[test]
    fn t0_equal_to_t_still_sweeps_the_single_horizon() {
        // θ = 0.8 → T_0 = 5 = T: the sweep degenerates to one horizon.
        let cfg = AuctionConfig::builder()
            .max_rounds(5)
            .clients_per_round(1)
            .round_time_limit(100.0)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let c = inst.add_client(ClientProfile::new(1.0, 1.0).unwrap());
        inst.add_bid(
            c,
            Bid::new(4.0, 0.8, Window::new(Round(1), Round(5)), 5).unwrap(),
        )
        .unwrap();
        assert_eq!(crate::qualify::min_horizon(&inst), Some(5));
        let precomp = SweepPrecomp::new(&inst);
        assert_eq!(precomp.horizon_cap(), 5);
        assert_eq!(precomp.qualify_at(4).bids().len(), 0);
        assert_eq!(precomp.qualify_at(5).bids().len(), 1);
        let bid_ref = BidRef::new(ClientId(0), 0);
        assert_eq!(precomp.admission_horizon(bid_ref), Some(5));
    }

    #[test]
    fn admission_horizon_is_the_first_qualifying_horizon() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        for (bid_ref, _) in inst.iter_bids() {
            let first = (1..=inst.config().max_rounds()).find(|&h| {
                qualify(&inst, h)
                    .bids()
                    .iter()
                    .any(|b| b.bid_ref == bid_ref)
            });
            assert_eq!(
                precomp.admission_horizon(bid_ref),
                first,
                "admission horizon diverges for {bid_ref}"
            );
        }
    }

    // ---- The pure admission rule vs the batch thresholds ----------------

    /// A richer mixed instance: several clients, several bids each, every
    /// gate exercised (time-rejected, late-accuracy, escaping windows).
    fn mixed_instance(mode: QualifyMode) -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(8)
            .clients_per_round(2)
            .round_time_limit(40.0)
            .qualify_mode(mode)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let mut state = 0x5eedu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..4 {
            let c = inst.add_client(ClientProfile::new(1.0 + (next() % 8) as f64, 10.0).unwrap());
            for _ in 0..3 {
                let a = 1 + (next() % 8) as u32;
                let d = a + (next() % (12 - u64::from(a))) as u32;
                let len = d - a + 1;
                let rounds = 1 + (next() % u64::from(len)) as u32;
                let theta = [0.3, 0.5, 0.8, 0.9][(next() % 4) as usize];
                let price = 1.0 + (next() % 40) as f64;
                inst.add_bid(
                    c,
                    Bid::new(price, theta, Window::new(Round(a), Round(d)), rounds).unwrap(),
                )
                .unwrap();
            }
        }
        inst
    }

    #[test]
    fn admission_horizon_is_the_precomp_threshold_for_every_bid() {
        for mode in [QualifyMode::Intent, QualifyMode::Literal] {
            let inst = mixed_instance(mode);
            let precomp = SweepPrecomp::new(&inst);
            for (bid_ref, bid) in inst.iter_bids() {
                assert_eq!(
                    admission_horizon(bid, inst.round_time(bid_ref), inst.config()),
                    precomp.admission_horizon(bid_ref),
                    "admission diverges for {bid_ref} ({mode:?})"
                );
            }
            let absent = BidRef::new(ClientId(99), 0);
            assert_eq!(precomp.admission_horizon(absent), None);
        }
    }

    #[test]
    fn cost_lower_bound_never_exceeds_any_feasible_solution() {
        let inst = gates_instance(QualifyMode::Intent);
        let precomp = SweepPrecomp::new(&inst);
        let solver = AWinner::new().without_certificate();
        for h in 1..=inst.config().max_rounds() {
            let wdp = precomp.qualify_at(h);
            if let Ok(sol) = solver.solve_wdp(&wdp) {
                let lb = precomp.cost_lower_bound(h);
                assert!(
                    lb <= sol.cost() + 1e-12,
                    "T̂_g = {h}: lower bound {lb} exceeds greedy cost {}",
                    sol.cost()
                );
            }
        }
    }
}
