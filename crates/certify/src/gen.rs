//! Deterministic seeded instance generation across degenerate shapes.
//!
//! Every instance the fuzzer examines is a pure function of its seed: the
//! seed picks a [`Shape`] (a family of degenerate structures that has
//! historically broken greedy/payment code — `K = 1`, single-bid clients,
//! tight windows, all-tie prices, `T_0 == T`, monopolists) and then fills
//! in small parameters. Sizes are capped (≤ 6 rounds, ≤ 12 bids, `K ≤ 3`)
//! so the exhaustive [`fl_exact::BruteForceSolver`] stays viable as the
//! differential yardstick on every generated instance.

use fl_auction::{
    AuctionConfig, AuctionError, Bid, ClientId, ClientProfile, Instance, LocalIterationModel,
    QualifyMode, Round, Window,
};

/// SplitMix64: a tiny, fast, seedable PRNG (Steele–Lea–Flood constants).
/// Chosen over the vendored `rand` shim because its output is a fixed
/// public algorithm — a corpus seed must reproduce the same instance
/// forever, on every platform, regardless of what the shim does.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n = 0` is treated as 1.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform draw in `[lo, hi]` (inclusive). `lo` must not exceed `hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        debug_assert!(lo <= hi, "empty range [{lo}, {hi}]");
        lo + self.below(u64::from(hi - lo + 1)) as u32
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniform pick from a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The degenerate instance families the fuzzer cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Fully random small instance (the control group).
    Uniform,
    /// `K = 1`: a single client per round, so every selection is decisive.
    K1,
    /// Exactly one bid per client: no sibling-bid interactions.
    SingleBid,
    /// `c == window length` for every bid: schedules have no slack.
    TightWindows,
    /// Prices drawn from `{1, 2, 3}` plus occasional zero prices: every
    /// comparison is a tie-break.
    Ties,
    /// Every accuracy is exactly `1 − 1/T`, so only the last horizon
    /// qualifies (`T_0 == T`).
    T0EqT,
    /// One or two clients with `K = 1`: monopolist payment edge cases.
    Monopolist,
}

impl Shape {
    /// Every shape, in the order seeds cycle through them.
    pub const ALL: [Shape; 7] = [
        Shape::Uniform,
        Shape::K1,
        Shape::SingleBid,
        Shape::TightWindows,
        Shape::Ties,
        Shape::T0EqT,
        Shape::Monopolist,
    ];

    /// Stable name used in the serialised corpus format.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Uniform => "uniform",
            Shape::K1 => "k1",
            Shape::SingleBid => "single_bid",
            Shape::TightWindows => "tight_windows",
            Shape::Ties => "ties",
            Shape::T0EqT => "t0_eq_t",
            Shape::Monopolist => "monopolist",
        }
    }
}

/// One bid row of a serialisable certifier instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CertBid {
    /// Index into [`CertInstance::clients`].
    pub client: u32,
    /// Claimed cost `b_ij`.
    pub price: f64,
    /// Local accuracy `θ_ij ∈ (0, 1)`.
    pub theta: f64,
    /// Window start `a_ij` (1-based).
    pub a: u32,
    /// Window end `d_ij` (inclusive; may extend past `T`).
    pub d: u32,
    /// Participation rounds `c_ij`.
    pub c: u32,
}

/// A self-contained, serialisable auction instance: everything needed to
/// replay one certifier check, in plain-old-data form so it can round-trip
/// through the one-line JSON corpus format (see [`crate::corpus`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CertInstance {
    /// The generator seed (0 for hand-written corpus entries).
    pub seed: u64,
    /// The [`Shape`] name this instance was drawn from.
    pub shape: String,
    /// Free-text provenance (e.g. what bug a corpus entry pinned).
    pub note: String,
    /// Maximum global iterations `T`.
    pub t: u32,
    /// Clients required per round `K`.
    pub k: u32,
    /// Per-round wall-clock limit `t_max`.
    pub t_max: f64,
    /// The local-iteration model.
    pub model: LocalIterationModel,
    /// The qualification reading.
    pub qualify: QualifyMode,
    /// `(compute_time, comm_time)` per client.
    pub clients: Vec<(f64, f64)>,
    /// All submitted bids.
    pub bids: Vec<CertBid>,
    /// The online knob: `Some(B)` additionally replays the bids as an
    /// arrival stream through [`fl_auction::OnlineAuction`] under budget
    /// `B` and checks the online properties (budget feasibility, online
    /// IR, posted-price truthfulness, online ≡ batch admission).
    /// `B` may be `0` (degenerate: only zero-priced bids can commit) or
    /// `+∞` (disables the budget and price gates). `None` certifies the
    /// batch mechanism only.
    pub online_budget: Option<f64>,
}

impl CertInstance {
    /// Materialises the `fl-auction` [`Instance`].
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] when any field violates
    /// the instance contracts (bad window, accuracy outside `(0, 1)`,
    /// unknown client index, …) — hand-edited corpus files go through the
    /// same validation as API users.
    pub fn to_instance(&self) -> Result<Instance, AuctionError> {
        let cfg = AuctionConfig::builder()
            .max_rounds(self.t)
            .clients_per_round(self.k)
            .round_time_limit(self.t_max)
            .local_model(self.model)
            .qualify_mode(self.qualify)
            .build()?;
        let mut inst = Instance::new(cfg);
        for &(compute, comm) in &self.clients {
            inst.add_client(ClientProfile::new(compute, comm)?);
        }
        for b in &self.bids {
            // Window::new panics on inverted input; validate first so a
            // hostile corpus file reports an error instead.
            if b.a == 0 || b.d < b.a {
                return Err(AuctionError::InvalidInstance(format!(
                    "bid window [{}, {}] is not a valid round range",
                    b.a, b.d
                )));
            }
            let bid = Bid::new(b.price, b.theta, Window::new(Round(b.a), Round(b.d)), b.c)?;
            inst.add_bid(ClientId(b.client), bid)?;
        }
        Ok(inst)
    }
}

/// Generates the deterministic instance for `seed`.
pub fn generate(seed: u64) -> CertInstance {
    let mut rng = SplitMix64::new(seed);
    let shape = *rng.pick(&Shape::ALL);
    let t = rng.range(2, 6);
    let k = match shape {
        Shape::K1 | Shape::Monopolist => 1,
        _ => rng.range(1, 3),
    };
    let n_clients = match shape {
        Shape::Monopolist => rng.range(1, 2),
        _ => rng.range(k.max(2), 6),
    };
    let t_max = if rng.chance(1, 5) { 12.0 } else { 60.0 };
    let model = if rng.chance(1, 4) {
        LocalIterationModel::LogInverse { eta: 2.0 }
    } else {
        LocalIterationModel::paper()
    };
    let qualify = if rng.chance(1, 6) {
        QualifyMode::Literal
    } else {
        QualifyMode::Intent
    };
    let theta_last = 1.0 - 1.0 / f64::from(t);

    let clients: Vec<(f64, f64)> = (0..n_clients)
        .map(|_| (0.5 + 0.5 * rng.below(5) as f64, 1.0 + rng.below(4) as f64))
        .collect();

    let mut bids = Vec::new();
    for ci in 0..n_clients {
        let n_bids = match shape {
            Shape::SingleBid | Shape::Monopolist => 1,
            _ => rng.range(1, 2),
        };
        for _ in 0..n_bids {
            let a = rng.range(1, t);
            let mut d = rng.range(a, t.min(a + 3));
            if rng.chance(1, 8) {
                // Window escaping the horizon: qualification must truncate.
                d = t + rng.range(1, 2);
            }
            let len = d - a + 1;
            let c = match shape {
                Shape::TightWindows => len,
                _ => rng.range(1, len),
            };
            let theta = match shape {
                Shape::T0EqT => theta_last,
                _ => *rng.pick(&[0.2, 0.3, 0.4, 0.5, 0.5, 0.6, 0.75, theta_last]),
            };
            let price = match shape {
                Shape::Ties => {
                    if rng.chance(1, 10) {
                        0.0
                    } else {
                        *rng.pick(&[1.0, 2.0, 3.0])
                    }
                }
                _ => {
                    let raw = (1 + rng.below(40)) as f64;
                    if rng.chance(1, 3) {
                        raw / 4.0
                    } else {
                        raw
                    }
                }
            };
            bids.push(CertBid {
                client: ci,
                price,
                theta,
                a,
                d,
                c,
            });
        }
    }
    if shape == Shape::Ties && bids.len() > 1 && rng.chance(1, 2) {
        // Maximum tie pressure: every bid at the same price.
        let p = bids[0].price;
        for b in &mut bids {
            b.price = p;
        }
    }

    // The online knob draws from a *forked* RNG so attaching it did not
    // remap any seed's batch instance: every field above is produced by
    // the exact byte-for-byte draws it always was.
    let mut online_rng = SplitMix64::new(seed ^ ONLINE_SALT);
    let online_budget = if online_rng.chance(1, 2) {
        None
    } else if online_rng.chance(1, 8) {
        Some(0.0) // degenerate: a zero offer
    } else if online_rng.chance(1, 6) {
        Some(f64::INFINITY) // gates off: the threshold-equivalence regime
    } else {
        Some((1 + online_rng.below(60)) as f64)
    };

    CertInstance {
        seed,
        shape: shape.name().to_string(),
        note: String::new(),
        t,
        k,
        t_max,
        model,
        qualify,
        clients,
        bids,
        online_budget,
    }
}

/// XOR salt forking the online-knob RNG off the instance seed.
const ONLINE_SALT: u64 = 0x6f6e_6c69_6e65; // "online"

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0, 1, 7, 42, 12345] {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn generated_instances_are_valid_and_small() {
        for seed in 0..300 {
            let ci = generate(seed);
            let inst = ci
                .to_instance()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(inst.num_bids() <= 12, "seed {seed}: too many bids");
            assert!(inst.config().max_rounds() <= 6);
            assert!(inst.config().clients_per_round() <= 3);
        }
    }

    #[test]
    fn seeds_cover_every_shape() {
        let mut seen: Vec<&str> = Vec::new();
        for seed in 0..100 {
            let ci = generate(seed);
            if !seen.contains(&ci.shape.as_str()) {
                seen.push(
                    Shape::ALL
                        .iter()
                        .find(|s| s.name() == ci.shape)
                        .expect("generated shape must be a known shape")
                        .name(),
                );
            }
        }
        assert_eq!(seen.len(), Shape::ALL.len(), "shapes seen: {seen:?}");
    }

    #[test]
    fn online_knob_covers_batch_degenerate_infinite_and_finite() {
        let (mut none, mut zero, mut inf, mut finite) = (0, 0, 0, 0);
        for seed in 0..200 {
            match generate(seed).online_budget {
                None => none += 1,
                Some(0.0) => zero += 1,
                Some(b) if b.is_infinite() => inf += 1,
                Some(_) => finite += 1,
            }
        }
        assert!(
            none > 0 && zero > 0 && inf > 0 && finite > 0,
            "knob coverage: none={none} zero={zero} inf={inf} finite={finite}"
        );
    }

    #[test]
    fn invalid_hand_written_instance_is_an_error_not_a_panic() {
        let mut ci = generate(0);
        ci.bids[0].a = 5;
        ci.bids[0].d = 2; // inverted window
        assert!(ci.to_instance().is_err());
    }
}
