//! Bids, client profiles, and the auction instance container.

use crate::config::AuctionConfig;
use crate::error::AuctionError;
use crate::types::{BidRef, ClientId, Window};

/// One sealed bid `B_ij = {b_ij, θ_ij, [a_ij, d_ij], c_ij}` (Eq. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    price: f64,
    accuracy: f64,
    window: Window,
    rounds: u32,
}

impl Bid {
    /// Creates a bid.
    ///
    /// * `price` — the claimed cost `b_ij` for the whole participation.
    /// * `accuracy` — the local accuracy `θ_ij ∈ (0, 1)` the client commits
    ///   to per round (smaller is more accurate and more expensive to
    ///   compute).
    /// * `window` — the availability period `[a_ij, d_ij]`.
    /// * `rounds` — the number of global iterations `c_ij` the client can
    ///   participate in (battery-limited).
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] if the price is negative or
    /// non-finite, the accuracy is outside `(0, 1)`, `rounds` is zero, or
    /// `rounds` exceeds the window length.
    pub fn new(
        price: f64,
        accuracy: f64,
        window: Window,
        rounds: u32,
    ) -> Result<Self, AuctionError> {
        if !(price.is_finite() && price >= 0.0) {
            return Err(AuctionError::invalid(format!(
                "bid price must be finite and non-negative, got {price}"
            )));
        }
        if !(accuracy > 0.0 && accuracy < 1.0) {
            return Err(AuctionError::invalid(format!(
                "local accuracy must lie strictly inside (0, 1), got {accuracy}"
            )));
        }
        if rounds == 0 {
            return Err(AuctionError::invalid("a bid must offer at least one round"));
        }
        if rounds > window.len() {
            return Err(AuctionError::invalid(format!(
                "bid offers {rounds} rounds but its window {window} only has {}",
                window.len()
            )));
        }
        Ok(Bid {
            price,
            accuracy,
            window,
            rounds,
        })
    }

    /// The claimed cost `b_ij`.
    pub fn price(&self) -> f64 {
        self.price
    }

    /// The local accuracy `θ_ij`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The availability window `[a_ij, d_ij]`.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The number of participation rounds `c_ij`.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// A copy of this bid with a different claimed price (used by the
    /// truthfulness experiments to explore misreports).
    ///
    /// # Errors
    ///
    /// Same price validation as [`Bid::new`].
    pub fn with_price(&self, price: f64) -> Result<Bid, AuctionError> {
        Bid::new(price, self.accuracy, self.window, self.rounds)
    }
}

/// Static, server-known facts about a client: per-local-iteration compute
/// time `t_i^cmp` and per-round communication time `t_i^com` (§IV-C assumes
/// the platform learned these at registration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientProfile {
    compute_time: f64,
    comm_time: f64,
}

impl ClientProfile {
    /// Creates a profile.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] unless both times are
    /// finite and non-negative.
    pub fn new(compute_time: f64, comm_time: f64) -> Result<Self, AuctionError> {
        for (name, v) in [("compute_time", compute_time), ("comm_time", comm_time)] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(AuctionError::invalid(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(ClientProfile {
            compute_time,
            comm_time,
        })
    }

    /// Time `t_i^cmp` for one local iteration.
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Time `t_i^com` to exchange one round's model update.
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }
}

/// A complete auction instance: configuration, client profiles and every
/// submitted bid.
///
/// # Example
///
/// ```
/// use fl_auction::{AuctionConfig, Bid, ClientProfile, Instance, Round, Window};
///
/// # fn main() -> Result<(), fl_auction::AuctionError> {
/// let cfg = AuctionConfig::builder()
///     .max_rounds(4)
///     .clients_per_round(1)
///     .build()?;
/// let mut instance = Instance::new(cfg);
/// let c = instance.add_client(ClientProfile::new(5.0, 10.0)?);
/// instance.add_bid(c, Bid::new(8.0, 0.5, Window::new(Round(1), Round(4)), 4)?)?;
/// assert_eq!(instance.num_bids(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Instance {
    config: AuctionConfig,
    clients: Vec<ClientProfile>,
    bids: Vec<Vec<Bid>>,
}

impl Instance {
    /// Creates an empty instance for the given configuration.
    pub fn new(config: AuctionConfig) -> Self {
        Instance {
            config,
            clients: Vec::new(),
            bids: Vec::new(),
        }
    }

    /// Registers a client and returns its id.
    pub fn add_client(&mut self, profile: ClientProfile) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.clients.push(profile);
        self.bids.push(Vec::new());
        id
    }

    /// Submits a bid on behalf of `client`.
    ///
    /// The bid's window may extend past `T`; rounds beyond the horizon are
    /// simply never scheduled (qualification truncates the window).
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] if the client id is
    /// unknown.
    pub fn add_bid(&mut self, client: ClientId, bid: Bid) -> Result<BidRef, AuctionError> {
        let Some(list) = self.bids.get_mut(client.index()) else {
            return Err(AuctionError::invalid(format!("unknown {client}")));
        };
        let r = BidRef::new(client, list.len() as u32);
        list.push(bid);
        Ok(r)
    }

    /// The announced configuration.
    pub fn config(&self) -> &AuctionConfig {
        &self.config
    }

    /// All registered client profiles, indexed by [`ClientId`].
    pub fn clients(&self) -> &[ClientProfile] {
        &self.clients
    }

    /// Number of registered clients `I`.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Total number of submitted bids (`≤ I·J`).
    pub fn num_bids(&self) -> usize {
        self.bids.iter().map(Vec::len).sum()
    }

    /// The bids of one client, in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the client id is out of range.
    pub fn bids_of(&self, client: ClientId) -> &[Bid] {
        &self.bids[client.index()]
    }

    /// Looks up a bid by reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference does not address an existing bid.
    pub fn bid(&self, r: BidRef) -> &Bid {
        &self.bids[r.client.index()][r.bid as usize]
    }

    /// Iterates `(BidRef, &Bid)` over every submitted bid.
    pub fn iter_bids(&self) -> impl Iterator<Item = (BidRef, &Bid)> {
        self.bids.iter().enumerate().flat_map(|(ci, list)| {
            list.iter()
                .enumerate()
                .map(move |(bi, bid)| (BidRef::new(ClientId(ci as u32), bi as u32), bid))
        })
    }

    /// Per-round wall-clock `t_ij = T_l(θ_ij)·t_i^cmp + t_i^com` of a bid
    /// under this instance's local-iteration model.
    ///
    /// # Panics
    ///
    /// Panics if the reference does not address an existing bid.
    pub fn round_time(&self, r: BidRef) -> f64 {
        self.round_time_of(r.client, self.bid(r))
    }

    /// [`round_time`](Self::round_time) of a bid `client` has not (yet)
    /// submitted. Panics if `client` is out of range.
    pub(crate) fn round_time_of(&self, client: ClientId, bid: &Bid) -> f64 {
        let profile = &self.clients[client.index()];
        self.config.local_model().local_iterations(bid.accuracy()) * profile.compute_time()
            + profile.comm_time()
    }

    /// The smallest local accuracy among all bids (`θ_min`, Alg. 1 line 2),
    /// or `None` when no bids were submitted.
    pub fn min_accuracy(&self) -> Option<f64> {
        self.iter_bids()
            .map(|(_, b)| b.accuracy())
            .min_by(f64::total_cmp)
    }

    /// Replaces one bid's claimed price, leaving everything else untouched
    /// (used by truthfulness experiments).
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidInstance`] if the reference is stale
    /// or the new price is invalid.
    pub fn reprice_bid(&mut self, r: BidRef, price: f64) -> Result<(), AuctionError> {
        let bid = self
            .bids
            .get(r.client.index())
            .and_then(|l| l.get(r.bid as usize))
            .copied()
            .ok_or_else(|| AuctionError::invalid(format!("unknown {r}")))?;
        self.bids[r.client.index()][r.bid as usize] = bid.with_price(price)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Round;

    fn window(a: u32, d: u32) -> Window {
        Window::new(Round(a), Round(d))
    }

    #[test]
    fn bid_validation() {
        assert!(Bid::new(10.0, 0.5, window(1, 3), 2).is_ok());
        assert!(Bid::new(-1.0, 0.5, window(1, 3), 2).is_err());
        assert!(Bid::new(f64::NAN, 0.5, window(1, 3), 2).is_err());
        assert!(Bid::new(10.0, 0.0, window(1, 3), 2).is_err());
        assert!(Bid::new(10.0, 1.0, window(1, 3), 2).is_err());
        assert!(Bid::new(10.0, 0.5, window(1, 3), 0).is_err());
        assert!(
            Bid::new(10.0, 0.5, window(1, 3), 4).is_err(),
            "c > window length"
        );
    }

    #[test]
    fn profile_validation() {
        assert!(ClientProfile::new(5.0, 10.0).is_ok());
        assert!(ClientProfile::new(-1.0, 10.0).is_err());
        assert!(ClientProfile::new(5.0, f64::INFINITY).is_err());
    }

    fn tiny_instance() -> Instance {
        let cfg = AuctionConfig::builder()
            .max_rounds(5)
            .clients_per_round(1)
            .build()
            .unwrap();
        let mut inst = Instance::new(cfg);
        let a = inst.add_client(ClientProfile::new(5.0, 10.0).unwrap());
        let b = inst.add_client(ClientProfile::new(8.0, 12.0).unwrap());
        inst.add_bid(a, Bid::new(10.0, 0.5, window(1, 3), 2).unwrap())
            .unwrap();
        inst.add_bid(a, Bid::new(4.0, 0.7, window(4, 5), 1).unwrap())
            .unwrap();
        inst.add_bid(b, Bid::new(6.0, 0.4, window(2, 5), 3).unwrap())
            .unwrap();
        inst
    }

    #[test]
    fn instance_accessors() {
        let inst = tiny_instance();
        assert_eq!(inst.num_clients(), 2);
        assert_eq!(inst.num_bids(), 3);
        assert_eq!(inst.bids_of(ClientId(0)).len(), 2);
        assert_eq!(inst.bids_of(ClientId(1)).len(), 1);
        let refs: Vec<BidRef> = inst.iter_bids().map(|(r, _)| r).collect();
        assert_eq!(
            refs,
            vec![
                BidRef::new(ClientId(0), 0),
                BidRef::new(ClientId(0), 1),
                BidRef::new(ClientId(1), 0)
            ]
        );
        assert_eq!(inst.min_accuracy(), Some(0.4));
    }

    #[test]
    fn round_time_uses_profile_and_model() {
        let inst = tiny_instance();
        // Client 0 bid 0: θ = 0.5 → T_l = ⌊5⌋ = 5; 5·5 + 10 = 35.
        let t = inst.round_time(BidRef::new(ClientId(0), 0));
        assert!((t - 35.0).abs() < 1e-12);
        // Client 1 bid 0: θ = 0.4 → T_l = 6 (⌊10·0.6⌋ = 5 due to fp? compute exactly).
        let expected = (10.0f64 * 0.6).floor() * 8.0 + 12.0;
        let t2 = inst.round_time(BidRef::new(ClientId(1), 0));
        assert!((t2 - expected).abs() < 1e-12);
    }

    #[test]
    fn add_bid_rejects_unknown_client() {
        let mut inst = tiny_instance();
        let bid = Bid::new(1.0, 0.5, window(1, 2), 1).unwrap();
        assert!(inst.add_bid(ClientId(99), bid).is_err());
    }

    #[test]
    fn reprice_preserves_other_fields() {
        let mut inst = tiny_instance();
        let r = BidRef::new(ClientId(0), 0);
        let before = *inst.bid(r);
        inst.reprice_bid(r, 99.0).unwrap();
        let after = *inst.bid(r);
        assert_eq!(after.price(), 99.0);
        assert_eq!(after.accuracy(), before.accuracy());
        assert_eq!(after.window(), before.window());
        assert_eq!(after.rounds(), before.rounds());
        assert!(inst.reprice_bid(BidRef::new(ClientId(0), 9), 1.0).is_err());
        assert!(inst.reprice_bid(r, -3.0).is_err());
    }

    #[test]
    fn min_accuracy_empty_instance() {
        let inst = Instance::new(AuctionConfig::paper_default());
        assert_eq!(inst.min_accuracy(), None);
    }
}
