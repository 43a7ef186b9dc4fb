//! Miner prioritization policies — the norm and every deviation from it
//! that the paper documents.

use crate::acceleration::AccelerationService;
use cn_chain::{Address, FeeRate, Transaction};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// How a miner treats one transaction when building a template.
///
/// Ordering: directives compose with `Exclude` strongest, then
/// `Accelerate`, then `Decelerate`, then `Normal` (see [`CompositePolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Follow the fee-rate norm.
    Normal,
    /// Only include if space remains after all normal transactions, and
    /// place at the bottom of the block.
    Decelerate,
    /// Include ahead of all normal transactions, at the top of the block —
    /// the signature the SPPE detector keys on.
    Accelerate,
    /// Never include (censorship).
    Exclude,
}

/// Everything a policy may inspect about one candidate transaction.
///
/// Input addresses must be resolved by the caller (the node layer owns the
/// UTXO view); they are how a pool recognizes spends *from* its own wallets.
#[derive(Clone, Debug)]
pub struct TxContext<'a> {
    /// The candidate transaction.
    pub tx: &'a Transaction,
    /// Its standalone fee rate.
    pub fee_rate: FeeRate,
    /// Addresses funding the transaction (senders).
    pub input_addresses: &'a [Address],
}

impl TxContext<'_> {
    /// True when any input or output touches `addr`.
    pub fn touches(&self, addr: &Address) -> bool {
        self.input_addresses.contains(addr) || self.tx.output_addresses().any(|a| a == *addr)
    }
}

/// A transaction-prioritization policy.
pub trait MinerPolicy: Send + Sync {
    /// Classifies one candidate.
    fn classify(&self, ctx: &TxContext<'_>) -> Priority;

    /// A short label for reports.
    fn name(&self) -> &str;

    /// Whether [`MinerPolicy::classify`] ever reads
    /// [`TxContext::input_addresses`]. Template building resolves every
    /// input's address per candidate when true; policies that only look at
    /// the transaction itself (or nothing) should return false so the
    /// norm-following majority of pools skips that work entirely.
    fn wants_input_addresses(&self) -> bool {
        true
    }

    /// Whether [`MinerPolicy::classify`] returns [`Priority::Normal`] for
    /// *every* transaction. When true the assembler skips the per-entry
    /// classification pass and selects straight off the mempool's
    /// best-first ancestor-score keys. Only override to `true` for a
    /// policy that cannot return anything but Normal; the conservative
    /// default keeps unknown policies on the classified path.
    fn always_normal(&self) -> bool {
        false
    }
}

/// The norm-following policy: pure fee-rate prioritization (what the paper
/// assumes all miners run, and what most in fact run).
#[derive(Clone, Debug, Default)]
pub struct NormPolicy;

impl MinerPolicy for NormPolicy {
    fn classify(&self, _ctx: &TxContext<'_>) -> Priority {
        Priority::Normal
    }

    fn name(&self) -> &str {
        "norm"
    }

    fn wants_input_addresses(&self) -> bool {
        false
    }

    fn always_normal(&self) -> bool {
        true
    }
}

/// Accelerates transactions touching a watched wallet set.
///
/// With the pool's own wallets this is the paper's *self-interest*
/// misbehaviour (§5.2); with a partner pool's wallets it is the *collusive*
/// variant (ViaBTC accelerating 1THash/58Coin and SlushPool transactions).
#[derive(Clone, Debug)]
pub struct AddressAccelerationPolicy {
    label: String,
    watched: HashSet<Address>,
}

impl AddressAccelerationPolicy {
    /// Creates a policy accelerating any transaction touching `watched`.
    pub fn new(label: impl Into<String>, watched: impl IntoIterator<Item = Address>) -> Self {
        AddressAccelerationPolicy { label: label.into(), watched: watched.into_iter().collect() }
    }

    /// The watched wallet set.
    pub fn watched(&self) -> &HashSet<Address> {
        &self.watched
    }
}

impl MinerPolicy for AddressAccelerationPolicy {
    fn classify(&self, ctx: &TxContext<'_>) -> Priority {
        let touches_watched = ctx.input_addresses.iter().any(|a| self.watched.contains(a))
            || ctx.tx.output_addresses().any(|a| self.watched.contains(&a));
        if touches_watched {
            Priority::Accelerate
        } else {
            Priority::Normal
        }
    }

    fn name(&self) -> &str {
        &self.label
    }
}

/// Accelerates transactions with a paid order in a dark-fee
/// [`AccelerationService`] (§5.4).
#[derive(Clone)]
pub struct DarkFeePolicy {
    service: Arc<Mutex<AccelerationService>>,
}

impl DarkFeePolicy {
    /// Creates a policy backed by the given service.
    pub fn new(service: Arc<Mutex<AccelerationService>>) -> Self {
        DarkFeePolicy { service }
    }
}

impl MinerPolicy for DarkFeePolicy {
    fn classify(&self, ctx: &TxContext<'_>) -> Priority {
        if self.service.lock().is_accelerated(&ctx.tx.txid()) {
            Priority::Accelerate
        } else {
            Priority::Normal
        }
    }

    fn name(&self) -> &str {
        "dark-fee"
    }

    fn wants_input_addresses(&self) -> bool {
        false
    }
}

/// Decelerates or excludes transactions paying to blacklisted addresses —
/// the hypothesized (and, per §5.3, *not* observed in the wild) treatment
/// of scam payments.
#[derive(Clone, Debug)]
pub struct CensorPolicy {
    blacklist: HashSet<Address>,
    exclude: bool,
}

impl CensorPolicy {
    /// Decelerate-only variant: blacklisted payments sink to the block
    /// bottom and are skipped under contention, but are not refused.
    pub fn decelerating(blacklist: impl IntoIterator<Item = Address>) -> Self {
        CensorPolicy { blacklist: blacklist.into_iter().collect(), exclude: false }
    }

    /// Hard-censoring variant: blacklisted payments are never mined.
    pub fn excluding(blacklist: impl IntoIterator<Item = Address>) -> Self {
        CensorPolicy { blacklist: blacklist.into_iter().collect(), exclude: true }
    }
}

impl MinerPolicy for CensorPolicy {
    fn classify(&self, ctx: &TxContext<'_>) -> Priority {
        let touches = ctx.tx.output_addresses().any(|a| self.blacklist.contains(&a))
            || ctx.input_addresses.iter().any(|a| self.blacklist.contains(a));
        if touches {
            if self.exclude {
                Priority::Exclude
            } else {
                Priority::Decelerate
            }
        } else {
            Priority::Normal
        }
    }

    fn name(&self) -> &str {
        if self.exclude {
            "censor-exclude"
        } else {
            "censor-decelerate"
        }
    }
}

/// Combines several policies; the strongest directive wins
/// (`Exclude > Accelerate > Decelerate > Normal`).
pub struct CompositePolicy {
    label: String,
    parts: Vec<Box<dyn MinerPolicy>>,
}

impl CompositePolicy {
    /// Creates a composite.
    pub fn new(label: impl Into<String>, parts: Vec<Box<dyn MinerPolicy>>) -> Self {
        CompositePolicy { label: label.into(), parts }
    }
}

impl MinerPolicy for CompositePolicy {
    fn classify(&self, ctx: &TxContext<'_>) -> Priority {
        let mut strongest = Priority::Normal;
        for part in &self.parts {
            let p = part.classify(ctx);
            if p == Priority::Exclude {
                return Priority::Exclude;
            }
            strongest = strongest.max(p);
        }
        strongest
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wants_input_addresses(&self) -> bool {
        self.parts.iter().any(|p| p.wants_input_addresses())
    }

    fn always_normal(&self) -> bool {
        self.parts.iter().all(|p| p.always_normal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Amount, TxOut};

    fn tx_to(addr: Address) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([1; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(1_000), addr))
            .build()
    }

    fn ctx<'a>(tx: &'a Transaction, inputs: &'a [Address]) -> TxContext<'a> {
        TxContext { tx, fee_rate: FeeRate::from_sat_per_vb(5), input_addresses: inputs }
    }

    #[test]
    fn norm_policy_is_neutral() {
        let tx = tx_to(Address::from_label("anyone"));
        assert_eq!(NormPolicy.classify(&ctx(&tx, &[])), Priority::Normal);
    }

    #[test]
    fn address_acceleration_matches_outputs() {
        let mine = Address::from_label("pool-wallet");
        let policy = AddressAccelerationPolicy::new("self", [mine]);
        let to_me = tx_to(mine);
        let to_other = tx_to(Address::from_label("other"));
        assert_eq!(policy.classify(&ctx(&to_me, &[])), Priority::Accelerate);
        assert_eq!(policy.classify(&ctx(&to_other, &[])), Priority::Normal);
    }

    #[test]
    fn address_acceleration_matches_inputs() {
        let mine = Address::from_label("pool-wallet");
        let policy = AddressAccelerationPolicy::new("self", [mine]);
        let tx = tx_to(Address::from_label("payee"));
        let inputs = [mine];
        assert_eq!(policy.classify(&ctx(&tx, &inputs)), Priority::Accelerate);
    }

    #[test]
    fn dark_fee_policy_reads_order_book() {
        let svc = Arc::new(Mutex::new(AccelerationService::new("BTC.com")));
        let policy = DarkFeePolicy::new(svc.clone());
        let tx = tx_to(Address::from_label("user"));
        assert_eq!(policy.classify(&ctx(&tx, &[])), Priority::Normal);
        svc.lock().accelerate(tx.txid(), Amount::from_sat(100_000));
        assert_eq!(policy.classify(&ctx(&tx, &[])), Priority::Accelerate);
    }

    #[test]
    fn censor_variants() {
        let scam = Address::from_label("scammer");
        let tx = tx_to(scam);
        let soft = CensorPolicy::decelerating([scam]);
        let hard = CensorPolicy::excluding([scam]);
        assert_eq!(soft.classify(&ctx(&tx, &[])), Priority::Decelerate);
        assert_eq!(hard.classify(&ctx(&tx, &[])), Priority::Exclude);
        let clean = tx_to(Address::from_label("legit"));
        assert_eq!(soft.classify(&ctx(&clean, &[])), Priority::Normal);
    }

    #[test]
    fn composite_takes_strongest() {
        let mine = Address::from_label("pool");
        let scam = Address::from_label("scam");
        let composite = CompositePolicy::new(
            "both",
            vec![
                Box::new(AddressAccelerationPolicy::new("self", [mine])),
                Box::new(CensorPolicy::excluding([scam])),
            ],
        );
        assert_eq!(composite.classify(&ctx(&tx_to(mine), &[])), Priority::Accelerate);
        assert_eq!(composite.classify(&ctx(&tx_to(scam), &[])), Priority::Exclude);
        assert_eq!(
            composite.classify(&ctx(&tx_to(Address::from_label("x")), &[])),
            Priority::Normal
        );
        // Exclude beats Accelerate when both apply (tx paying pool AND scam).
        let both = Transaction::builder()
            .add_input_with_sizes([1; 32].into(), 0, 107, 0)
            .add_output(TxOut::to_address(Amount::from_sat(1), mine))
            .add_output(TxOut::to_address(Amount::from_sat(1), scam))
            .build();
        assert_eq!(composite.classify(&ctx(&both, &[])), Priority::Exclude);
    }

    #[test]
    fn priority_ordering_for_composition() {
        assert!(Priority::Exclude > Priority::Accelerate);
        assert!(Priority::Accelerate > Priority::Decelerate);
        assert!(Priority::Decelerate > Priority::Normal);
    }
}
