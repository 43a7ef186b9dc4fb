//! Transactions with BIP-141 weight and virtual-size accounting.
//!
//! A [`Transaction`] is immutable once built; its txid, weight, and virtual
//! size are computed at construction and cached, because the audit
//! pipeline looks these up in tight loops over hundreds of thousands of
//! transactions. The wtxid, which nothing on those paths reads, is hashed
//! on demand.

use crate::address::Address;
use crate::amount::Amount;
use crate::encode::{
    compact_size_len, ensure_remaining, read_compact_size, read_var_bytes, write_compact_size,
    write_var_bytes, Decodable, DecodeError, Encodable,
};
use crate::hash::{sha256d, Hash256};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// A transaction identifier: the double-SHA-256 of the non-witness encoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Txid(pub Hash256);

impl Txid {
    /// The all-zero txid (used by coinbase prevouts).
    pub const ZERO: Txid = Txid(Hash256::ZERO);
}

impl From<[u8; 32]> for Txid {
    fn from(b: [u8; 32]) -> Self {
        Txid(Hash256(b))
    }
}

impl fmt::Display for Txid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl fmt::Debug for Txid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Txid({})", self.0)
    }
}

/// A reference to a specific output of a prior transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OutPoint {
    /// The transaction whose output is spent.
    pub txid: Txid,
    /// The output index within that transaction.
    pub vout: u32,
}

impl OutPoint {
    /// The null outpoint marking a coinbase input.
    pub const NULL: OutPoint = OutPoint { txid: Txid::ZERO, vout: u32::MAX };

    /// Creates an outpoint.
    pub const fn new(txid: Txid, vout: u32) -> OutPoint {
        OutPoint { txid, vout }
    }

    /// True for the coinbase marker outpoint.
    pub fn is_null(&self) -> bool {
        *self == OutPoint::NULL
    }
}

impl Encodable for OutPoint {
    fn encode(&self, buf: &mut BytesMut) {
        self.txid.0.encode(buf);
        buf.put_u32_le(self.vout);
    }

    fn encoded_len(&self) -> usize {
        36
    }
}

impl Decodable for OutPoint {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        let txid = Txid(Hash256::decode(buf)?);
        ensure_remaining(buf, 4)?;
        let vout = buf.get_u32_le();
        Ok(OutPoint { txid, vout })
    }
}

/// A transaction input.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxIn {
    /// The output being spent.
    pub prevout: OutPoint,
    /// Unlocking script bytes (content is opaque to this substrate;
    /// only its length matters for sizing).
    pub script_sig: Vec<u8>,
    /// Sequence number (relative locktime / RBF signalling).
    pub sequence: u32,
    /// Segregated-witness stack items.
    pub witness: Vec<Vec<u8>>,
}

impl TxIn {
    /// Creates an input spending `prevout` with an empty script and witness.
    pub fn new(prevout: OutPoint) -> TxIn {
        TxIn { prevout, script_sig: Vec::new(), sequence: 0xffff_ffff, witness: Vec::new() }
    }

    /// Creates an input spending `txid:vout` with filler unlocking data of
    /// the given sizes — the simulator's way of producing realistically
    /// sized transactions without real signatures. The filler content is
    /// derived from the prevout so distinct spends never collide.
    ///
    /// Building the (hash-heavy) filler once and reusing the `TxIn` is
    /// much cheaper than calling
    /// [`TransactionBuilder::add_input_with_sizes`] per draft.
    pub fn with_filler(txid: Txid, vout: u32, script_sig_len: usize, witness_len: usize) -> TxIn {
        let prevout = OutPoint::new(txid, vout);
        let mut seed = Vec::with_capacity(36);
        seed.extend_from_slice(txid.0.as_bytes());
        seed.extend_from_slice(&vout.to_le_bytes());
        let fill = sha256d(&seed);
        let script_sig = filler_bytes(fill, 0x51, script_sig_len);
        let witness = if witness_len > 0 {
            vec![filler_bytes(fill, 0x52, witness_len)]
        } else {
            Vec::new()
        };
        TxIn { prevout, script_sig, sequence: 0xffff_ffff, witness }
    }

    /// True when any witness item is present.
    pub fn has_witness(&self) -> bool {
        !self.witness.is_empty()
    }
}

/// A transaction output: an amount locked to a script.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TxOut {
    /// The amount carried by this output.
    pub value: Amount,
    /// The locking script.
    pub script_pubkey: Vec<u8>,
}

impl TxOut {
    /// Creates an output.
    pub fn new(value: Amount, script_pubkey: Vec<u8>) -> TxOut {
        TxOut { value, script_pubkey }
    }

    /// Creates an output paying `value` to `address`.
    pub fn to_address(value: Amount, address: Address) -> TxOut {
        TxOut { value, script_pubkey: address.script_pubkey() }
    }

    /// The address this output pays to, when the script matches a template.
    pub fn address(&self) -> Option<Address> {
        Address::from_script_pubkey(&self.script_pubkey)
    }
}

impl Encodable for TxOut {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(self.value.to_sat());
        write_var_bytes(buf, &self.script_pubkey);
    }
}

impl Decodable for TxOut {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure_remaining(buf, 8)?;
        let value = Amount::from_sat(buf.get_u64_le());
        let script_pubkey = read_var_bytes(buf)?;
        Ok(TxOut { value, script_pubkey })
    }
}

/// An immutable transaction with cached identity and size metrics.
#[derive(Clone, PartialEq, Eq)]
pub struct Transaction {
    version: i32,
    inputs: Vec<TxIn>,
    outputs: Vec<TxOut>,
    lock_time: u32,
    // Cached at construction:
    txid: Txid,
    weight: u64,
}

impl Transaction {
    /// Starts building a transaction.
    pub fn builder() -> TransactionBuilder {
        TransactionBuilder::new()
    }

    /// The transaction version.
    pub fn version(&self) -> i32 {
        self.version
    }

    /// The inputs.
    pub fn inputs(&self) -> &[TxIn] {
        &self.inputs
    }

    /// The outputs.
    pub fn outputs(&self) -> &[TxOut] {
        &self.outputs
    }

    /// The lock time.
    pub fn lock_time(&self) -> u32 {
        self.lock_time
    }

    /// The cached transaction id (hash of the non-witness serialization).
    pub fn txid(&self) -> Txid {
        self.txid
    }

    /// The witness transaction id: the hash of the full serialization
    /// (the txid when there is no witness), computed on each call.
    pub fn wtxid(&self) -> Hash256 {
        if !self.has_witness() {
            return self.txid.0;
        }
        let mut full = BytesMut::with_capacity(full_parts_len(&self.inputs, &self.outputs));
        self.encode_full(&mut full);
        sha256d(&full)
    }

    /// BIP-141 weight: `3 * base_size + total_size`.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Virtual size in vbytes: `ceil(weight / 4)`.
    pub fn vsize(&self) -> u64 {
        self.weight.div_ceil(4)
    }

    /// True for a coinbase transaction (single null-prevout input).
    pub fn is_coinbase(&self) -> bool {
        self.inputs.len() == 1 && self.inputs[0].prevout.is_null()
    }

    /// Total value of all outputs.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// Iterates over template-decodable destination addresses.
    pub fn output_addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.outputs.iter().filter_map(|o| o.address())
    }

    /// True when any input carries witness data.
    pub fn has_witness(&self) -> bool {
        self.inputs.iter().any(|i| i.has_witness())
    }

    fn encode_base(&self, buf: &mut BytesMut) {
        encode_base_parts(self.version, &self.inputs, &self.outputs, self.lock_time, buf);
    }

    fn encode_full(&self, buf: &mut BytesMut) {
        encode_full_parts(self.version, &self.inputs, &self.outputs, self.lock_time, buf);
    }
}

/// Non-witness serialization of a transaction's parts — shared by the
/// built [`Transaction`] and the builder's hash-free size preview so the
/// two can never disagree about encoded length.
fn encode_base_parts(
    version: i32,
    inputs: &[TxIn],
    outputs: &[TxOut],
    lock_time: u32,
    buf: &mut BytesMut,
) {
    buf.put_i32_le(version);
    write_compact_size(buf, inputs.len() as u64);
    for input in inputs {
        input.prevout.encode(buf);
        write_var_bytes(buf, &input.script_sig);
        buf.put_u32_le(input.sequence);
    }
    write_compact_size(buf, outputs.len() as u64);
    for output in outputs {
        output.encode(buf);
    }
    buf.put_u32_le(lock_time);
}

/// Byte length [`encode_base_parts`] would produce, computed arithmetically
/// from the compact-size rules — no serialization, no allocation.
fn base_parts_len(inputs: &[TxIn], outputs: &[TxOut]) -> usize {
    let mut len = 4 + compact_size_len(inputs.len() as u64);
    for input in inputs {
        len += 36 + compact_size_len(input.script_sig.len() as u64) + input.script_sig.len() + 4;
    }
    len += compact_size_len(outputs.len() as u64);
    for output in outputs {
        len += 8
            + compact_size_len(output.script_pubkey.len() as u64)
            + output.script_pubkey.len();
    }
    len + 4
}

/// Byte length [`encode_full_parts`] would produce.
fn full_parts_len(inputs: &[TxIn], outputs: &[TxOut]) -> usize {
    let base = base_parts_len(inputs, outputs);
    if !inputs.iter().any(|i| i.has_witness()) {
        return base;
    }
    let mut len = base + 2; // segwit marker + flag
    for input in inputs {
        len += compact_size_len(input.witness.len() as u64);
        for item in &input.witness {
            len += compact_size_len(item.len() as u64) + item.len();
        }
    }
    len
}

/// Full (witness-carrying) serialization of a transaction's parts.
fn encode_full_parts(
    version: i32,
    inputs: &[TxIn],
    outputs: &[TxOut],
    lock_time: u32,
    buf: &mut BytesMut,
) {
    if !inputs.iter().any(|i| i.has_witness()) {
        return encode_base_parts(version, inputs, outputs, lock_time, buf);
    }
    buf.put_i32_le(version);
    buf.put_u8(0x00); // segwit marker
    buf.put_u8(0x01); // segwit flag
    write_compact_size(buf, inputs.len() as u64);
    for input in inputs {
        input.prevout.encode(buf);
        write_var_bytes(buf, &input.script_sig);
        buf.put_u32_le(input.sequence);
    }
    write_compact_size(buf, outputs.len() as u64);
    for output in outputs {
        output.encode(buf);
    }
    for input in inputs {
        write_compact_size(buf, input.witness.len() as u64);
        for item in &input.witness {
            write_var_bytes(buf, item);
        }
    }
    buf.put_u32_le(lock_time);
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transaction")
            .field("txid", &self.txid)
            .field("inputs", &self.inputs.len())
            .field("outputs", &self.outputs.len())
            .field("vsize", &self.vsize())
            .finish()
    }
}

impl Encodable for Transaction {
    fn encode(&self, buf: &mut BytesMut) {
        self.encode_full(buf);
    }
}

impl Decodable for Transaction {
    fn decode(buf: &mut Bytes) -> Result<Self, DecodeError> {
        ensure_remaining(buf, 4)?;
        let version = buf.get_i32_le();
        // Peek for the segwit marker: a zero here cannot be a canonical
        // input count for a valid transaction.
        ensure_remaining(buf, 1)?;
        let segwit = buf[0] == 0x00;
        if segwit {
            buf.advance(1);
            ensure_remaining(buf, 1)?;
            if buf.get_u8() != 0x01 {
                return Err(DecodeError::UnexpectedEnd);
            }
        }
        let n_in = read_compact_size(buf)?;
        if n_in > crate::encode::MAX_DECODE_LEN {
            return Err(DecodeError::OversizedLength(n_in));
        }
        let mut inputs = Vec::with_capacity(n_in as usize);
        for _ in 0..n_in {
            let prevout = OutPoint::decode(buf)?;
            let script_sig = read_var_bytes(buf)?;
            ensure_remaining(buf, 4)?;
            let sequence = buf.get_u32_le();
            inputs.push(TxIn { prevout, script_sig, sequence, witness: Vec::new() });
        }
        let n_out = read_compact_size(buf)?;
        if n_out > crate::encode::MAX_DECODE_LEN {
            return Err(DecodeError::OversizedLength(n_out));
        }
        let mut outputs = Vec::with_capacity(n_out as usize);
        for _ in 0..n_out {
            outputs.push(TxOut::decode(buf)?);
        }
        if segwit {
            for input in inputs.iter_mut() {
                let n_items = read_compact_size(buf)?;
                if n_items > crate::encode::MAX_DECODE_LEN {
                    return Err(DecodeError::OversizedLength(n_items));
                }
                let mut witness = Vec::with_capacity(n_items as usize);
                for _ in 0..n_items {
                    witness.push(read_var_bytes(buf)?);
                }
                input.witness = witness;
            }
        }
        ensure_remaining(buf, 4)?;
        let lock_time = buf.get_u32_le();
        Ok(TransactionBuilder { version, inputs, outputs, lock_time }.build())
    }
}

/// Builder for [`Transaction`]; computes and caches identity and sizes.
#[derive(Clone, Debug)]
pub struct TransactionBuilder {
    version: i32,
    inputs: Vec<TxIn>,
    outputs: Vec<TxOut>,
    lock_time: u32,
}

impl Default for TransactionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TransactionBuilder {
    /// Creates an empty builder (version 2, lock time 0).
    pub fn new() -> TransactionBuilder {
        TransactionBuilder { version: 2, inputs: Vec::new(), outputs: Vec::new(), lock_time: 0 }
    }

    /// Sets the version.
    pub fn version(mut self, v: i32) -> Self {
        self.version = v;
        self
    }

    /// Sets the lock time.
    pub fn lock_time(mut self, t: u32) -> Self {
        self.lock_time = t;
        self
    }

    /// Adds a fully specified input.
    pub fn add_input(mut self, input: TxIn) -> Self {
        self.inputs.push(input);
        self
    }

    /// Adds an input spending `txid:vout` with filler unlocking data of the
    /// given sizes — the simulator's way of producing realistically sized
    /// transactions without real signatures. The filler content is derived
    /// from the prevout so distinct spends never collide.
    pub fn add_input_with_sizes(
        mut self,
        txid: Txid,
        vout: u32,
        script_sig_len: usize,
        witness_len: usize,
    ) -> Self {
        self.inputs.push(TxIn::with_filler(txid, vout, script_sig_len, witness_len));
        self
    }

    /// Adds an output.
    pub fn add_output(mut self, output: TxOut) -> Self {
        self.outputs.push(output);
        self
    }

    /// Adds an output paying `value` to `address`.
    pub fn pay_to(self, address: Address, value: Amount) -> Self {
        self.add_output(TxOut::to_address(value, address))
    }

    /// BIP-141 weight of the transaction this builder would produce,
    /// computed arithmetically from the wire-format size rules — no
    /// serialization and no hashing, so fee-sizing drafts cost a few
    /// integer additions.
    pub fn weight(&self) -> u64 {
        let base = base_parts_len(&self.inputs, &self.outputs);
        let full = full_parts_len(&self.inputs, &self.outputs);
        3 * base as u64 + full as u64
    }

    /// Virtual size the built transaction will have: `ceil(weight / 4)`.
    pub fn vsize(&self) -> u64 {
        self.weight().div_ceil(4)
    }

    /// Finalizes the transaction, computing its txid and weight.
    pub fn build(self) -> Transaction {
        let mut tx = Transaction {
            version: self.version,
            inputs: self.inputs,
            outputs: self.outputs,
            lock_time: self.lock_time,
            txid: Txid::ZERO,
            weight: 0,
        };
        let base_len = base_parts_len(&tx.inputs, &tx.outputs);
        let mut base = BytesMut::with_capacity(base_len);
        tx.encode_base(&mut base);
        debug_assert_eq!(base.len(), base_len);
        tx.txid = Txid(sha256d(&base));
        tx.weight = if tx.has_witness() {
            3 * base_len as u64 + full_parts_len(&tx.inputs, &tx.outputs) as u64
        } else {
            4 * base_len as u64
        };
        tx
    }
}

/// Deterministic filler bytes: `seed`-derived, tagged, of exactly `len` bytes.
fn filler_bytes(seed: Hash256, tag: u8, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut input = [0u8; 37];
    input[..32].copy_from_slice(seed.as_bytes());
    input[32] = tag;
    let mut counter = 0u32;
    while out.len() < len {
        input[33..].copy_from_slice(&counter.to_le_bytes());
        let h = sha256d(&input);
        let take = (len - out.len()).min(32);
        out.extend_from_slice(&h.as_bytes()[..take]);
        counter += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tx(witness_len: usize) -> Transaction {
        Transaction::builder()
            .add_input_with_sizes([1u8; 32].into(), 0, 107, witness_len)
            .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(50_000))
            .pay_to(Address::p2pkh([3; 20]), Amount::from_sat(25_000))
            .build()
    }

    #[test]
    fn builder_size_preview_matches_built() {
        for witness_len in [0usize, 1, 107, 2_800] {
            let builder = Transaction::builder()
                .add_input_with_sizes([1u8; 32].into(), 0, 107, witness_len)
                .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(50_000))
                .pay_to(Address::p2pkh([3; 20]), Amount::from_sat(25_000));
            let (weight, vsize) = (builder.weight(), builder.vsize());
            let built = builder.build();
            assert_eq!(weight, built.weight(), "witness_len={witness_len}");
            assert_eq!(vsize, built.vsize(), "witness_len={witness_len}");
        }
    }

    #[test]
    fn arithmetic_lengths_match_encoders() {
        // Cross the compact-size thresholds (0xfc/0xfd boundary) in both
        // the script and witness dimensions.
        for (sig_len, wit_len) in
            [(0usize, 0usize), (107, 0), (107, 1), (252, 253), (300, 2_800), (70_000, 70_000)]
        {
            let tx = Transaction::builder()
                .add_input_with_sizes([1u8; 32].into(), 0, sig_len, wit_len)
                .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(50_000))
                .build();
            let mut base = BytesMut::new();
            tx.encode_base(&mut base);
            assert_eq!(base_parts_len(tx.inputs(), tx.outputs()), base.len());
            let mut full = BytesMut::new();
            tx.encode_full(&mut full);
            assert_eq!(full_parts_len(tx.inputs(), tx.outputs()), full.len());
            assert_eq!(tx.weight(), 3 * base.len() as u64 + full.len() as u64);
        }
    }

    #[test]
    fn filler_input_matches_add_input_with_sizes() {
        let via_builder = Transaction::builder()
            .add_input_with_sizes([7u8; 32].into(), 3, 60, 400)
            .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(1_000))
            .build();
        let via_txin = Transaction::builder()
            .add_input(TxIn::with_filler([7u8; 32].into(), 3, 60, 400))
            .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(1_000))
            .build();
        assert_eq!(via_builder, via_txin);
        assert_eq!(via_builder.txid(), via_txin.txid());
    }

    #[test]
    fn txid_is_stable_and_content_sensitive() {
        let a = sample_tx(0);
        let b = sample_tx(0);
        assert_eq!(a.txid(), b.txid());
        let c = Transaction::builder()
            .add_input_with_sizes([1u8; 32].into(), 1, 107, 0)
            .pay_to(Address::p2pkh([2; 20]), Amount::from_sat(50_000))
            .build();
        assert_ne!(a.txid(), c.txid());
    }

    #[test]
    fn non_witness_legacy_size() {
        // Classic 1-in 2-out P2PKH: 4 + 1 + (36+1+107+4) + 1 + 2*(8+1+25) + 4
        let tx = sample_tx(0);
        let expected = 4 + 1 + (36 + 1 + 107 + 4) + 1 + 2 * (8 + 1 + 25) + 4;
        assert_eq!(tx.encoded_len(), expected);
        assert_eq!(tx.weight(), 4 * expected as u64);
        assert_eq!(tx.vsize(), expected as u64);
        assert_eq!(tx.wtxid(), tx.txid().0);
    }

    #[test]
    fn witness_discount_applies() {
        let legacy = sample_tx(0);
        let segwit = sample_tx(107);
        // Witness bytes count once, base bytes count four times.
        assert!(segwit.weight() > legacy.weight());
        assert!(segwit.weight() < legacy.weight() + 4 * 107);
        assert!(segwit.vsize() < legacy.vsize() + 107);
        assert_ne!(segwit.wtxid(), segwit.txid().0);
        // Txid ignores witness data entirely: same base fields, different witness.
        let segwit2 = sample_tx(50);
        assert_eq!(segwit.txid(), segwit2.txid());
    }

    #[test]
    fn encode_decode_round_trip_legacy() {
        let tx = sample_tx(0);
        let bytes = tx.encode_to_bytes();
        let decoded = Transaction::decode_all(&bytes).expect("decode");
        assert_eq!(decoded, tx);
        assert_eq!(decoded.txid(), tx.txid());
        assert_eq!(decoded.weight(), tx.weight());
    }

    #[test]
    fn encode_decode_round_trip_segwit() {
        let tx = sample_tx(107);
        let bytes = tx.encode_to_bytes();
        let decoded = Transaction::decode_all(&bytes).expect("decode");
        assert_eq!(decoded, tx);
        assert_eq!(decoded.wtxid(), tx.wtxid());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Transaction::decode_all(&[]).is_err());
        assert!(Transaction::decode_all(&[1, 2, 3]).is_err());
        let tx = sample_tx(0);
        let bytes = tx.encode_to_bytes();
        assert!(Transaction::decode_all(&bytes[..bytes.len() - 1]).is_err());
        // Trailing junk is also an error under decode_all.
        let mut extended = bytes.to_vec();
        extended.push(0);
        assert!(Transaction::decode_all(&extended).is_err());
    }

    #[test]
    fn coinbase_detection() {
        let cb = Transaction::builder()
            .add_input(TxIn::new(OutPoint::NULL))
            .pay_to(Address::p2pkh([9; 20]), Amount::from_btc(6))
            .build();
        assert!(cb.is_coinbase());
        assert!(!sample_tx(0).is_coinbase());
    }

    #[test]
    fn output_helpers() {
        let tx = sample_tx(0);
        assert_eq!(tx.output_value().to_sat(), 75_000);
        let addrs: Vec<_> = tx.output_addresses().collect();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0], Address::p2pkh([2; 20]));
    }

    #[test]
    fn filler_bytes_exact_length_and_deterministic() {
        let seed = sha256d(b"seed");
        for len in [0usize, 1, 31, 32, 33, 100] {
            let a = filler_bytes(seed, 7, len);
            let b = filler_bytes(seed, 7, len);
            assert_eq!(a.len(), len);
            assert_eq!(a, b);
        }
        assert_ne!(filler_bytes(seed, 1, 32), filler_bytes(seed, 2, 32));
    }
}
