//! The user population: wallets, spendable outputs, transaction building.
//!
//! Keeps the simulated economy *consensus-valid*: every generated
//! transaction spends real unspent outputs, so the chain's full validation
//! (`cn_chain::validation`) accepts every mined block. Unconfirmed outputs
//! may be re-spent (producing the CPFP chains the paper must filter out),
//! but only once the parent was accepted by every stakeholder node —
//! otherwise a miner that never saw the parent could mine an orphan child.

use cn_chain::{Address, Amount, Block, Chain, FeeRate, OutPoint, Transaction, TxIn, TxOut, Txid};
use cn_stats::{LogNormal, SimRng};
use cn_chain::FastMap;
use std::sync::Arc;

/// Dust threshold below which change is folded into the fee.
const DUST: u64 = 546;

/// Hard cap on extra inputs one consolidating payment may sweep, so
/// transaction sizes stay within ordinary relay bounds.
const MAX_CONSOLIDATION_INPUTS: usize = 12;

/// Lifecycle of a spendable output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutState {
    /// On chain.
    Confirmed,
    /// Unconfirmed but accepted by every stakeholder Mempool — safe to
    /// spend (the child can always be packaged with its parent).
    PendingOk,
    /// Unconfirmed and not universally accepted (e.g. zero-fee);
    /// unspendable until confirmation.
    PendingLocked,
}

#[derive(Clone, Debug)]
struct OutputMeta {
    value: Amount,
    owner: Address,
    state: OutState,
}

/// A transaction built by the workload, ready for broadcast.
#[derive(Clone, Debug)]
pub struct BuiltTx {
    /// The transaction (shared handle; Mempool views all reference it).
    pub tx: Arc<Transaction>,
    /// The public fee it offers.
    pub fee: Amount,
    /// The funding wallet.
    pub from: Address,
    /// The payment destination.
    pub to: Address,
    /// True when the spent output was itself unconfirmed (CPFP shape).
    pub spends_unconfirmed: bool,
}

/// Where a payment should go.
#[derive(Clone, Copy, Debug)]
pub enum PaymentTarget {
    /// A uniformly random user wallet.
    RandomUser,
    /// A specific address.
    To(Address),
}

/// The random draws one payment consumes, separated from their
/// application.
///
/// Every field is a pure function of the drawing RNG and the fixed wallet
/// population — nothing here reads the live ledger, the estimator, or the
/// backlog. [`Workload::build_payment`] then *applies* the draws against
/// mutable state, in event order. That split keeps the draws for
/// transaction *i* a function of its own indexed RNG fork alone: no
/// ledger state can change a drawn value.
#[derive(Clone, Copy, Debug)]
pub struct PaymentDraws {
    /// Candidate funding wallets (used when no explicit source is given;
    /// sparse wallets are skipped in order).
    pub candidates: [u32; 8],
    /// Recipient wallet index (used for [`PaymentTarget::RandomUser`]).
    pub recipient: u32,
    /// Raw virtual-size target sample (clamped at application time).
    pub target_vsize: f64,
    /// Raw payment-value sample (clamped against the source at
    /// application time).
    pub payment_value: f64,
}

/// Wallets and the spendable-output ledger.
#[derive(Clone, Debug)]
pub struct Workload {
    users: Vec<Address>,
    outputs: FastMap<OutPoint, OutputMeta>,
    /// Per-owner outpoint lists; entries may be stale (validated on pop).
    per_owner: FastMap<Address, Vec<OutPoint>>,
    /// Unconfirmed txids -> their not-yet-promoted outputs.
    tx_outputs: FastMap<Txid, Vec<OutPoint>>,
    payment_value: LogNormal,
    target_vsize: LogNormal,
    funding_counter: u64,
    /// When set, payments from wallets holding more than this many tracked
    /// outputs sweep extra confirmed outputs as additional inputs, keeping
    /// the live output population bounded. `None` keeps the historical
    /// one-input shape bit-for-bit.
    consolidate_above: Option<usize>,
}

impl Workload {
    /// Creates a population of `users` wallets.
    ///
    /// # Panics
    /// Panics when `users` is zero.
    pub fn new(users: usize) -> Workload {
        assert!(users > 0, "need at least one user");
        Workload {
            // A mixed population: roughly a third of users run native
            // SegWit wallets (witness-discounted spends), the rest legacy
            // P2PKH — so both serialization paths carry real traffic.
            users: (0..users)
                .map(|i| {
                    let legacy = Address::from_label(&format!("user:{i}"));
                    if i % 3 == 0 {
                        Address::p2wpkh(*legacy.payload())
                    } else {
                        legacy
                    }
                })
                .collect(),
            outputs: FastMap::default(),
            per_owner: FastMap::default(),
            tx_outputs: FastMap::default(),
            // Payments: median 0.002 BTC, heavy spread.
            payment_value: LogNormal::with_median(200_000.0, 1.2),
            // Virtual sizes: median 250 vB (the classic 1-in-2-out spans
            // ~190-230; padding models multi-input/output diversity).
            target_vsize: LogNormal::with_median(250.0, 0.45),
            funding_counter: 0,
            consolidate_above: None,
        }
    }

    /// Sets the wallet-consolidation threshold (see
    /// [`crate::scenario::Scenario::wallet_consolidation`]).
    pub fn set_consolidation(&mut self, threshold: Option<usize>) {
        self.consolidate_above = threshold;
    }

    /// The user wallets.
    pub fn users(&self) -> &[Address] {
        &self.users
    }

    /// Number of currently spendable (confirmed or pending-ok) outputs.
    pub fn spendable_count(&self) -> usize {
        self.outputs
            .values()
            .filter(|m| m.state != OutState::PendingLocked)
            .count()
    }

    /// Seeds `per_address` outputs of `value` each for every user plus
    /// every address in `extra_owners`, as pre-window coins outside any
    /// block (the simulator's stand-in for history before the
    /// observation window). Outputs are registered as confirmed.
    pub fn seed_funding(
        &mut self,
        chain: &mut Chain,
        per_address: usize,
        value: Amount,
        extra_owners: &[Address],
    ) {
        let owners: Vec<Address> =
            self.users.iter().copied().chain(extra_owners.iter().copied()).collect();
        // Batch outputs into funding transactions of at most 1000 outputs.
        let mut batch: Vec<Address> = Vec::new();
        let flush = |wl: &mut Workload, chain: &mut Chain, batch: &mut Vec<Address>| {
            if batch.is_empty() {
                return;
            }
            let mut builder = Transaction::builder().add_input_with_sizes(
                Txid::from([0xfa; 32]),
                wl.funding_counter as u32,
                2,
                0,
            );
            wl.funding_counter += 1;
            for owner in batch.iter() {
                builder = builder.add_output(TxOut::to_address(value, *owner));
            }
            let tx = builder.build();
            chain.seed_utxos(&tx);
            for (vout, owner) in batch.iter().enumerate() {
                wl.insert_output(
                    OutPoint::new(tx.txid(), vout as u32),
                    *owner,
                    value,
                    OutState::Confirmed,
                );
            }
            batch.clear();
        };
        for owner in owners {
            for _ in 0..per_address {
                batch.push(owner);
                if batch.len() == 1000 {
                    flush(self, chain, &mut batch);
                }
            }
        }
        flush(self, chain, &mut batch);
    }

    fn insert_output(&mut self, op: OutPoint, owner: Address, value: Amount, state: OutState) {
        self.outputs.insert(op, OutputMeta { value, owner, state });
        self.per_owner.entry(owner).or_default().push(op);
    }

    /// Samples everything one payment will consume from `rng`, without
    /// touching any mutable state. Apply with [`Workload::build_payment`].
    ///
    /// The draws are unconditional: every payment consumes the same number
    /// of samples regardless of how application later branches (source
    /// exhausted, fee too large, explicit recipient). That fixed shape
    /// keeps every later draw from the transaction's fork at the same
    /// position however application branches.
    pub fn draw_payment(&self, rng: &mut SimRng) -> PaymentDraws {
        let mut candidates = [0u32; 8];
        for slot in &mut candidates {
            *slot = rng.next_below(self.users.len() as u64) as u32;
        }
        PaymentDraws {
            candidates,
            recipient: rng.next_below(self.users.len() as u64) as u32,
            target_vsize: self.target_vsize.sample(rng),
            payment_value: self.payment_value.sample(rng),
        }
    }

    /// Pops a spendable output owned by `owner` (or one of the pre-drawn
    /// candidate users when `None`), optionally allowing pending-ok
    /// outputs.
    fn pick_source(
        &mut self,
        candidates: &[u32; 8],
        owner: Option<Address>,
        allow_pending: bool,
    ) -> Option<(OutPoint, OutputMeta)> {
        let candidates: Vec<Address> = match owner {
            Some(a) => vec![a],
            None => {
                // Try a few pre-drawn users; sparse wallets are skipped.
                candidates.iter().map(|&i| self.users[i as usize]).collect()
            }
        };
        for addr in candidates {
            let Some(list) = self.per_owner.get_mut(&addr) else { continue };
            // Scan from the newest entry down, skipping (but keeping)
            // currently ineligible outputs and purging stale/dust ones.
            let mut i = list.len();
            while i > 0 {
                i -= 1;
                let op = list[i];
                let Some(meta) = self.outputs.get(&op) else {
                    list.swap_remove(i); // stale (already spent)
                    continue;
                };
                if meta.value.to_sat() < 3 * DUST {
                    if self.consolidate_above.is_none() {
                        self.outputs.remove(&op); // dust: drop permanently
                        list.swap_remove(i);
                    }
                    // Under consolidation the dust stays tracked — a later
                    // sweep spends it instead of stranding it in the UTXO
                    // set forever.
                    continue;
                }
                let eligible = match meta.state {
                    OutState::Confirmed => true,
                    OutState::PendingOk => allow_pending,
                    OutState::PendingLocked => false,
                };
                if !eligible {
                    continue;
                }
                list.swap_remove(i);
                let meta = self.outputs.remove(&op).expect("checked above");
                return Some((op, meta));
            }
        }
        None
    }

    /// Pops up to `max_extra` additional *confirmed* outputs from
    /// `owner`'s list — the consolidation sweep. Dust is welcome here:
    /// being swept into a spend is how it re-enters circulation. Pending
    /// outputs are never swept, so CPFP packaging invariants are
    /// untouched.
    fn pop_confirmed_extras(
        &mut self,
        owner: Address,
        max_extra: usize,
    ) -> Vec<(OutPoint, OutputMeta)> {
        let mut extras = Vec::new();
        let Some(list) = self.per_owner.get_mut(&owner) else { return extras };
        let mut i = list.len();
        while i > 0 && extras.len() < max_extra {
            i -= 1;
            let op = list[i];
            let Some(meta) = self.outputs.get(&op) else {
                list.swap_remove(i); // stale (already spent)
                continue;
            };
            if meta.state != OutState::Confirmed {
                continue;
            }
            list.swap_remove(i);
            let meta = self.outputs.remove(&op).expect("checked above");
            extras.push((op, meta));
        }
        extras
    }

    /// Applies pre-sampled [`PaymentDraws`] against the live ledger,
    /// building a payment. Returns `None` when no eligible source output
    /// exists (the caller simply skips this arrival).
    pub fn build_payment(
        &mut self,
        draws: &PaymentDraws,
        from: Option<Address>,
        to: PaymentTarget,
        fee_rate: FeeRate,
        allow_pending: bool,
    ) -> Option<BuiltTx> {
        let (source_op, source) = self.pick_source(&draws.candidates, from, allow_pending)?;
        let spends_unconfirmed = source.state == OutState::PendingOk;
        // Consolidation sweep: once the funding wallet's tracked-output
        // list outgrows the threshold, spend extra confirmed outputs
        // alongside the primary source. The trigger and the sweep read
        // only ledger state, never the RNG, so the sweep never shifts a
        // later transaction's draws.
        let extras = match self.consolidate_above {
            Some(threshold) => {
                let tracked = self.per_owner.get(&source.owner).map_or(0, Vec::len);
                if tracked > threshold {
                    let want = (tracked - threshold).min(MAX_CONSOLIDATION_INPUTS);
                    self.pop_confirmed_extras(source.owner, want)
                } else {
                    Vec::new()
                }
            }
            None => Vec::new(),
        };
        let recipient = match to {
            PaymentTarget::To(a) => a,
            PaymentTarget::RandomUser => self.users[draws.recipient as usize],
        };

        // Size the transaction: pad the unlocking data toward a sampled
        // virtual-size target (models multi-input/multi-output diversity
        // without extra UTXO bookkeeping). SegWit owners spend with
        // witness data (discounted 4x in virtual size), legacy owners
        // with scriptSig bytes.
        let target = draws.target_vsize.clamp(150.0, 3_000.0) as u64;
        // A 1-in-2-out p2pkh baseline is ~119 vB plus the script bytes.
        let pad = (target.saturating_sub(119)).clamp(60, 2_800) as usize;
        let (script_len, witness_len) = match source.owner {
            Address::P2wpkh(_) => (0usize, (pad * 4).min(9_000)),
            _ => (pad, 0usize),
        };

        // The filler input hashes its padding into existence; build it once
        // and share it between the sizing draft and the final transaction.
        let input = TxIn::with_filler(source_op.txid, source_op.vout, script_len, witness_len);
        // Swept inputs carry ordinary single-signature unlocking data
        // (~107 raw bytes: signature + pubkey), witness-discounted for
        // SegWit owners.
        let (extra_script, extra_witness) = match source.owner {
            Address::P2wpkh(_) => (0usize, 107usize),
            _ => (107usize, 0usize),
        };
        let extra_inputs: Vec<TxIn> = extras
            .iter()
            .map(|(op, _)| TxIn::with_filler(op.txid, op.vout, extra_script, extra_witness))
            .collect();

        // First pass to learn the exact vsize (amounts don't change size);
        // the builder sizes the draft without hashing a throwaway txid.
        let mut draft = Transaction::builder().add_input(input.clone());
        for extra in &extra_inputs {
            draft = draft.add_input(extra.clone());
        }
        let vsize = draft
            .add_output(TxOut::to_address(Amount::from_sat(DUST), recipient))
            .add_output(TxOut::to_address(Amount::from_sat(DUST), source.owner))
            .vsize();
        let fee = fee_rate.fee_for_vsize(vsize);

        let available = source.value.to_sat()
            + extras.iter().map(|(_, meta)| meta.value.to_sat()).sum::<u64>();
        if available <= fee.to_sat() + 2 * DUST {
            if self.consolidate_above.is_some() {
                // Put everything back: silently consuming outputs the
                // current fee level makes unaffordable would strand them
                // in the UTXO set forever, leaking memory over long runs.
                // A later, cheaper arrival (or a fatter sweep) spends them.
                self.insert_output(source_op, source.owner, source.value, source.state);
                for (op, meta) in extras {
                    self.insert_output(op, meta.owner, meta.value, meta.state);
                }
                return None;
            }
            // Too small to pay the fee meaningfully; treat as consumed dust.
            return None;
        }
        let spendable = available - fee.to_sat();
        let mut payment = draws.payment_value as u64;
        payment = payment.clamp(DUST, spendable.saturating_sub(DUST));
        let change = spendable - payment;

        let mut builder = Transaction::builder().add_input(input);
        for extra in extra_inputs {
            builder = builder.add_input(extra);
        }
        builder = builder.add_output(TxOut::to_address(Amount::from_sat(payment), recipient));
        let has_change = change >= DUST;
        if has_change {
            builder = builder.add_output(TxOut::to_address(Amount::from_sat(change), source.owner));
        }
        let tx = builder.build();
        let fee = if has_change {
            fee
        } else {
            // Change folded into the fee.
            Amount::from_sat(available - payment)
        };

        let txid = tx.txid();
        let mut produced = Vec::with_capacity(2);
        self.insert_output(
            OutPoint::new(txid, 0),
            recipient,
            Amount::from_sat(payment),
            OutState::PendingLocked,
        );
        produced.push(OutPoint::new(txid, 0));
        if has_change {
            self.insert_output(
                OutPoint::new(txid, 1),
                source.owner,
                Amount::from_sat(change),
                OutState::PendingLocked,
            );
            produced.push(OutPoint::new(txid, 1));
        }
        self.tx_outputs.insert(txid, produced);

        Some(BuiltTx {
            tx: Arc::new(tx),
            fee,
            from: source.owner,
            to: recipient,
            spends_unconfirmed,
        })
    }

    /// Marks a transaction as accepted by every stakeholder: its outputs
    /// become spendable while unconfirmed.
    pub fn mark_broadcast_ok(&mut self, txid: &Txid) {
        if let Some(ops) = self.tx_outputs.get(txid) {
            for op in ops {
                if let Some(meta) = self.outputs.get_mut(op) {
                    if meta.state == OutState::PendingLocked {
                        meta.state = OutState::PendingOk;
                    }
                }
            }
        }
    }

    /// Promotes the outputs of every transaction in a confirmed block, and
    /// registers coinbase rewards as spendable pool funds.
    pub fn on_block_confirmed(&mut self, block: &Block) {
        if let Some(cb) = block.coinbase() {
            for (vout, out) in cb.outputs().iter().enumerate() {
                if let Some(addr) = out.address() {
                    self.insert_output(
                        OutPoint::new(cb.txid(), vout as u32),
                        addr,
                        out.value,
                        OutState::Confirmed,
                    );
                }
            }
        }
        for tx in block.body() {
            if let Some(ops) = self.tx_outputs.remove(&tx.txid()) {
                for op in ops {
                    if let Some(meta) = self.outputs.get_mut(&op) {
                        meta.state = OutState::Confirmed;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::Params;

    fn setup() -> (Workload, Chain, SimRng) {
        let mut wl = Workload::new(20);
        let mut chain = Chain::new(Params::mainnet());
        wl.seed_funding(&mut chain, 3, Amount::from_btc(1), &[]);
        (wl, chain, SimRng::seed_from_u64(77))
    }

    /// Draw-then-apply in one step, as the serial world loop does.
    fn pay(
        wl: &mut Workload,
        rng: &mut SimRng,
        from: Option<Address>,
        to: PaymentTarget,
        rate: FeeRate,
        allow_pending: bool,
    ) -> Option<BuiltTx> {
        let draws = wl.draw_payment(rng);
        wl.build_payment(&draws, from, to, rate, allow_pending)
    }

    #[test]
    fn seeding_registers_spendables() {
        let (wl, chain, _) = setup();
        assert_eq!(wl.spendable_count(), 60);
        assert_eq!(chain.utxos().len(), 60);
    }

    #[test]
    fn payments_are_consensus_valid() {
        let (mut wl, chain, mut rng) = setup();
        let built = pay(&mut wl, &mut rng, None, PaymentTarget::RandomUser, FeeRate::from_sat_per_vb(10), false)
            .expect("source available");
        // The fee claimed must equal what the UTXO set computes.
        let fee = chain.utxos().fee(&built.tx).expect("spendable inputs");
        assert_eq!(fee, built.fee);
        assert!(!built.spends_unconfirmed);
        assert!(fee.to_sat() >= built.tx.vsize() * 10);
    }

    #[test]
    fn pending_outputs_locked_until_broadcast_ok() {
        let (mut wl, _, mut rng) = setup();
        // Drain one user's confirmed outputs to force a pending pick.
        let owner = wl.users()[0];
        let rate = FeeRate::from_sat_per_vb(5);
        let first = pay(&mut wl, &mut rng, Some(owner), PaymentTarget::To(owner), rate, true)
            .expect("confirmed source");
        // Self-payment: owner's new outputs are pending-locked.
        for _ in 0..2 {
            let _ = pay(&mut wl, &mut rng, Some(owner), PaymentTarget::To(owner), rate, true);
        }
        // After exhausting confirmed sources, pending-locked must not be spent.
        let before = wl.spendable_count();
        let blocked = pay(&mut wl, &mut rng, Some(owner), PaymentTarget::To(owner), rate, true);
        assert!(blocked.is_none(), "locked outputs must be unspendable");
        assert_eq!(wl.spendable_count(), before);
        // Once universally accepted, they unlock.
        wl.mark_broadcast_ok(&first.tx.txid());
        let unblocked =
            pay(&mut wl, &mut rng, Some(owner), PaymentTarget::To(owner), rate, true);
        assert!(unblocked.is_some());
        assert!(unblocked.expect("built").spends_unconfirmed);
    }

    #[test]
    fn cpfp_flag_reflects_source_state() {
        let (mut wl, _, mut rng) = setup();
        let owner = wl.users()[1];
        let rate = FeeRate::from_sat_per_vb(5);
        let parent = pay(&mut wl, &mut rng, Some(owner), PaymentTarget::To(owner), rate, false)
            .expect("confirmed source");
        wl.mark_broadcast_ok(&parent.tx.txid());
        // Exhaust remaining confirmed outputs for this owner.
        while pay(&mut wl, &mut rng, Some(owner), PaymentTarget::RandomUser, rate, false)
            .is_some()
        {}
        let child = pay(&mut wl, &mut rng, Some(owner), PaymentTarget::RandomUser, rate, true)
            .expect("pending-ok source");
        assert!(child.spends_unconfirmed);
    }

    #[test]
    fn confirmation_promotes_outputs_and_coinbase() {
        let (mut wl, _, mut rng) = setup();
        let built = pay(&mut wl, &mut rng, None, PaymentTarget::RandomUser, FeeRate::from_sat_per_vb(5), false)
            .expect("built");
        let pool_wallet = Address::from_label("pool:X:0");
        let cb = cn_chain::CoinbaseBuilder::new(0)
            .reward(pool_wallet, Amount::from_btc(6))
            .build();
        let block = cn_chain::Block::assemble(
            2,
            cn_chain::BlockHash::ZERO,
            0,
            0,
            cb,
            vec![(*built.tx).clone()],
        );
        let before = wl.spendable_count();
        wl.on_block_confirmed(&block);
        // Outputs of the confirmed tx unlocked (+2) and coinbase added (+1).
        assert_eq!(wl.spendable_count(), before + 3);
        // Pool wallet can now fund a self-interest transfer.
        let self_tx = pay(
            &mut wl,
            &mut rng,
            Some(pool_wallet),
            PaymentTarget::RandomUser,
            FeeRate::from_sat_per_vb(5),
            false,
        );
        assert!(self_tx.is_some());
        assert_eq!(self_tx.expect("built").from, pool_wallet);
    }

    #[test]
    fn fee_rate_is_honored_at_or_above_request() {
        let (mut wl, chain, mut rng) = setup();
        for rate_vb in [1u64, 10, 200] {
            let rate = FeeRate::from_sat_per_vb(rate_vb);
            let built = pay(&mut wl, &mut rng, None, PaymentTarget::RandomUser, rate, false)
                .expect("built");
            let fee = chain.utxos().fee(&built.tx).expect("valid");
            let actual = FeeRate::from_fee_and_vsize(fee, built.tx.vsize());
            assert!(actual >= rate, "requested {rate}, got {actual}");
        }
    }

    #[test]
    fn zero_fee_payment_possible() {
        let (mut wl, chain, mut rng) = setup();
        let built = pay(&mut wl, &mut rng, None, PaymentTarget::RandomUser, FeeRate::ZERO, false)
            .expect("built");
        assert_eq!(chain.utxos().fee(&built.tx).expect("valid"), Amount::ZERO);
    }

    #[test]
    fn consolidation_bounds_the_live_output_population() {
        let threshold = 4;
        let mut wl = Workload::new(3);
        wl.set_consolidation(Some(threshold));
        let mut chain = Chain::new(Params::mainnet());
        // 20 confirmed outputs per wallet — far above the threshold.
        wl.seed_funding(&mut chain, 20, Amount::from_btc(1), &[]);
        let mut rng = SimRng::seed_from_u64(9);
        let rate = FeeRate::from_sat_per_vb(5);
        let owner = wl.users()[0];
        // The first payment from the bloated wallet must sweep extras.
        let draws = wl.draw_payment(&mut rng);
        let built = wl
            .build_payment(&draws, Some(owner), PaymentTarget::To(owner), rate, false)
            .expect("source available");
        assert!(
            built.tx.inputs().len() > 1,
            "a wallet above the threshold must consolidate, got {} input(s)",
            built.tx.inputs().len()
        );
        assert!(built.tx.inputs().len() <= 1 + MAX_CONSOLIDATION_INPUTS);
        // Every input must be a real spendable output the chain knows.
        let fee = chain.utxos().fee(&built.tx).expect("all inputs spendable");
        assert_eq!(fee, built.fee);
        // Keep paying self and confirming; the tracked population must
        // settle near users × threshold instead of growing.
        let mut body = vec![(*built.tx).clone()];
        for _ in 0..60 {
            let draws = wl.draw_payment(&mut rng);
            if let Some(b) =
                wl.build_payment(&draws, None, PaymentTarget::RandomUser, rate, false)
            {
                body.push((*b.tx).clone());
            }
            for tx in body.drain(..) {
                let block = cn_chain::Block::assemble(
                    2,
                    cn_chain::BlockHash::ZERO,
                    0,
                    0,
                    cn_chain::CoinbaseBuilder::new(0).build(),
                    vec![tx],
                );
                wl.on_block_confirmed(&block);
            }
        }
        let tracked = wl.spendable_count();
        assert!(
            tracked <= 3 * (threshold + 2),
            "population should stay bounded, got {tracked}"
        );
    }

    #[test]
    fn consolidation_off_is_single_input() {
        let (mut wl, _, mut rng) = setup();
        for _ in 0..10 {
            if let Some(b) =
                pay(&mut wl, &mut rng, None, PaymentTarget::RandomUser, FeeRate::from_sat_per_vb(3), false)
            {
                assert_eq!(b.tx.inputs().len(), 1);
            }
        }
    }

    #[test]
    fn sizes_are_diverse() {
        let (mut wl, _, mut rng) = setup();
        let mut sizes = Vec::new();
        for _ in 0..30 {
            if let Some(b) = pay(
                &mut wl,
                &mut rng,
                None,
                PaymentTarget::RandomUser,
                FeeRate::from_sat_per_vb(2),
                true,
            ) {
                wl.mark_broadcast_ok(&b.tx.txid());
                sizes.push(b.tx.vsize());
            }
        }
        assert!(sizes.len() >= 20);
        let min = sizes.iter().min().expect("non-empty");
        let max = sizes.iter().max().expect("non-empty");
        assert!(max > min, "vsizes should vary: {sizes:?}");
    }
}
