//! Ground truth: what actually happened, for detector validation.
//!
//! The paper could only validate its dark-fee detector against BTC.com's
//! public acceleration-checking endpoint; the simulator knows *everything*
//! it injected, so every audit metric in `cn-core` can be scored for
//! precision and recall.

use cn_chain::{Address, Amount, FastMap, FastSet, Timestamp, Txid};

/// Why a transaction exists, from the generator's point of view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// An ordinary user payment.
    User,
    /// A transfer issued from a pool's own wallet (self-interest).
    SelfInterest {
        /// The issuing pool's name.
        pool: String,
    },
    /// A donation to the scam address.
    Scam,
}

/// Ground-truth labels accumulated during a run.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    kinds: FastMap<Txid, TxKind>,
    issue_times: FastMap<Txid, Timestamp>,
    public_fees: FastMap<Txid, Amount>,
    accelerated: FastMap<Txid, (String, Amount)>,
    scam_address: Option<Address>,
}

impl GroundTruth {
    /// Records a newly issued transaction.
    pub fn record_issue(&mut self, txid: Txid, kind: TxKind, when: Timestamp, fee: Amount) {
        self.kinds.insert(txid, kind);
        self.issue_times.insert(txid, when);
        self.public_fees.insert(txid, fee);
    }

    /// Records a dark-fee acceleration purchase.
    pub fn record_acceleration(
        &mut self,
        txid: Txid,
        provider: impl Into<String>,
        dark_fee: Amount,
    ) {
        self.accelerated.insert(txid, (provider.into(), dark_fee));
    }

    /// Sets the scam address used in this run.
    pub fn set_scam_address(&mut self, addr: Address) {
        self.scam_address = Some(addr);
    }

    /// The scam address, if a scam window ran.
    pub fn scam_address(&self) -> Option<Address> {
        self.scam_address
    }

    /// The kind of a transaction.
    pub fn kind(&self, txid: &Txid) -> Option<&TxKind> {
        self.kinds.get(txid)
    }

    /// When the transaction was issued (at its origin, before propagation).
    pub fn issue_time(&self, txid: &Txid) -> Option<Timestamp> {
        self.issue_times.get(txid).copied()
    }

    /// The public fee the transaction offered.
    pub fn public_fee(&self, txid: &Txid) -> Option<Amount> {
        self.public_fees.get(txid).copied()
    }

    /// Whether (and with whom) the transaction was dark-fee accelerated.
    pub fn acceleration(&self, txid: &Txid) -> Option<(&str, Amount)> {
        self.accelerated.get(txid).map(|(p, a)| (p.as_str(), *a))
    }

    /// True when the transaction bought acceleration.
    pub fn is_accelerated(&self, txid: &Txid) -> bool {
        self.accelerated.contains_key(txid)
    }

    /// All accelerated txids.
    pub fn accelerated_txids(&self) -> FastSet<Txid> {
        self.accelerated.keys().copied().collect()
    }

    /// All txids of a given pool's self-interest transactions.
    pub fn self_interest_txids(&self, pool: &str) -> FastSet<Txid> {
        self.kinds
            .iter()
            .filter(|(_, k)| matches!(k, TxKind::SelfInterest { pool: p } if p == pool))
            .map(|(t, _)| *t)
            .collect()
    }

    /// All scam-donation txids.
    pub fn scam_txids(&self) -> FastSet<Txid> {
        self.kinds.iter().filter(|(_, k)| **k == TxKind::Scam).map(|(t, _)| *t).collect()
    }

    /// Total number of recorded transactions.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txid(n: u8) -> Txid {
        Txid::from([n; 32])
    }

    #[test]
    fn records_and_queries() {
        let mut t = GroundTruth::default();
        t.record_issue(txid(1), TxKind::User, 100, Amount::from_sat(500));
        t.record_issue(
            txid(2),
            TxKind::SelfInterest { pool: "ViaBTC".into() },
            110,
            Amount::from_sat(700),
        );
        t.record_issue(txid(3), TxKind::Scam, 120, Amount::from_sat(300));
        t.record_acceleration(txid(1), "BTC.com", Amount::from_sat(90_000));

        assert_eq!(t.len(), 3);
        assert_eq!(t.issue_time(&txid(1)), Some(100));
        assert_eq!(t.public_fee(&txid(3)), Some(Amount::from_sat(300)));
        assert!(t.is_accelerated(&txid(1)));
        assert!(!t.is_accelerated(&txid(2)));
        assert_eq!(t.acceleration(&txid(1)), Some(("BTC.com", Amount::from_sat(90_000))));
        assert_eq!(t.self_interest_txids("ViaBTC"), FastSet::from_iter([txid(2)]));
        assert!(t.self_interest_txids("F2Pool").is_empty());
        assert_eq!(t.scam_txids(), FastSet::from_iter([txid(3)]));
    }

    #[test]
    fn scam_address_round_trip() {
        let mut t = GroundTruth::default();
        assert_eq!(t.scam_address(), None);
        let a = Address::from_label("scammer");
        t.set_scam_address(a);
        assert_eq!(t.scam_address(), Some(a));
    }
}
