//! Coinbase construction and mining-pool markers.
//!
//! Mining pools stamp an ASCII tag into the coinbase scriptSig (the paper
//! uses these tags, following Judmayer et al. and Romiti et al., to attribute
//! blocks to pools). [`CoinbaseBuilder`] writes a BIP-34-style height plus a
//! `PoolMarker`; [`PoolMarker::parse`] recovers the tag for attribution.

use crate::address::Address;
use crate::amount::Amount;
use crate::transaction::{OutPoint, Transaction, TxIn};

/// Marker framing: `0xCA 0xFE <len> <tag bytes>` after the height push.
const MARKER_MAGIC: [u8; 2] = [0xca, 0xfe];

/// An ASCII pool tag embedded in the coinbase scriptSig.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PoolMarker(pub String);

impl PoolMarker {
    /// Creates a marker, truncating to 75 bytes (single-push limit).
    pub fn new(tag: impl Into<String>) -> PoolMarker {
        let mut tag = tag.into();
        tag.truncate(75);
        PoolMarker(tag)
    }

    /// Extracts the marker from coinbase scriptSig bytes, if present.
    pub fn parse(script_sig: &[u8]) -> Option<PoolMarker> {
        let pos = script_sig.windows(2).position(|w| w == MARKER_MAGIC)?;
        let rest = &script_sig[pos + 2..];
        let len = *rest.first()? as usize;
        let tag = rest.get(1..1 + len)?;
        String::from_utf8(tag.to_vec()).ok().map(PoolMarker)
    }

    /// Extracts the marker from a coinbase transaction.
    pub fn from_coinbase(tx: &Transaction) -> Option<PoolMarker> {
        if !tx.is_coinbase() {
            return None;
        }
        PoolMarker::parse(&tx.inputs()[0].script_sig)
    }
}

/// Builds a coinbase transaction carrying a height, a pool marker, and
/// reward outputs.
#[derive(Clone, Debug)]
pub struct CoinbaseBuilder {
    height: u64,
    marker: Option<PoolMarker>,
    outputs: Vec<(Address, Amount)>,
    extra_nonce: u64,
}

impl CoinbaseBuilder {
    /// Starts a coinbase for the block at `height`.
    pub fn new(height: u64) -> CoinbaseBuilder {
        CoinbaseBuilder { height, marker: None, outputs: Vec::new(), extra_nonce: 0 }
    }

    /// Sets the pool marker tag.
    pub fn marker(mut self, marker: PoolMarker) -> Self {
        self.marker = Some(marker);
        self
    }

    /// Adds a reward output.
    pub fn reward(mut self, address: Address, amount: Amount) -> Self {
        self.outputs.push((address, amount));
        self
    }

    /// Sets an extra nonce, making otherwise-identical coinbases distinct
    /// (and thus giving every block a unique txid set).
    pub fn extra_nonce(mut self, n: u64) -> Self {
        self.extra_nonce = n;
        self
    }

    /// Builds the coinbase transaction.
    pub fn build(self) -> Transaction {
        let mut script_sig = Vec::with_capacity(16 + 78);
        // BIP-34-style height push (length-prefixed little-endian).
        let height_bytes = self.height.to_le_bytes();
        let sig_len = height_bytes.iter().rposition(|&b| b != 0).map_or(1, |p| p + 1);
        script_sig.push(sig_len as u8);
        script_sig.extend_from_slice(&height_bytes[..sig_len]);
        if let Some(marker) = &self.marker {
            script_sig.extend_from_slice(&MARKER_MAGIC);
            script_sig.push(marker.0.len() as u8);
            script_sig.extend_from_slice(marker.0.as_bytes());
        }
        script_sig.extend_from_slice(&self.extra_nonce.to_le_bytes());

        let mut builder = Transaction::builder().add_input(TxIn {
            prevout: OutPoint::NULL,
            script_sig,
            sequence: 0xffff_ffff,
            witness: Vec::new(),
        });
        for (address, amount) in self.outputs {
            builder = builder.pay_to(address, amount);
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_round_trips() {
        let cb = CoinbaseBuilder::new(650_000)
            .marker(PoolMarker::new("/F2Pool/"))
            .reward(Address::from_label("f2pool:0"), Amount::from_btc(6))
            .build();
        assert!(cb.is_coinbase());
        assert_eq!(PoolMarker::from_coinbase(&cb), Some(PoolMarker::new("/F2Pool/")));
    }

    #[test]
    fn marker_absent_when_not_set() {
        let cb = CoinbaseBuilder::new(1)
            .reward(Address::from_label("solo"), Amount::from_btc(50))
            .build();
        assert_eq!(PoolMarker::from_coinbase(&cb), None);
    }

    #[test]
    fn marker_rejected_for_non_coinbase() {
        let tx = Transaction::builder()
            .add_input_with_sizes([1; 32].into(), 0, 10, 0)
            .pay_to(Address::from_label("u"), Amount::from_sat(1))
            .build();
        assert_eq!(PoolMarker::from_coinbase(&tx), None);
    }

    #[test]
    fn long_tags_truncated() {
        let tag = "x".repeat(100);
        let m = PoolMarker::new(tag);
        assert_eq!(m.0.len(), 75);
    }

    #[test]
    fn extra_nonce_distinguishes_coinbases() {
        let a = CoinbaseBuilder::new(5)
            .reward(Address::from_label("p"), Amount::from_btc(50))
            .extra_nonce(1)
            .build();
        let b = CoinbaseBuilder::new(5)
            .reward(Address::from_label("p"), Amount::from_btc(50))
            .extra_nonce(2)
            .build();
        assert_ne!(a.txid(), b.txid());
    }

    #[test]
    fn height_zero_encodes_one_byte() {
        let cb =
            CoinbaseBuilder::new(0).reward(Address::from_label("g"), Amount::from_btc(50)).build();
        assert_eq!(cb.inputs()[0].script_sig[0], 1);
        assert_eq!(cb.inputs()[0].script_sig[1], 0);
    }

    #[test]
    fn multiple_reward_outputs() {
        let cb = CoinbaseBuilder::new(9)
            .marker(PoolMarker::new("/Multi/"))
            .reward(Address::from_label("a"), Amount::from_btc(3))
            .reward(Address::from_label("b"), Amount::from_btc(3))
            .build();
        assert_eq!(cb.outputs().len(), 2);
        assert_eq!(cb.output_value(), Amount::from_btc(6));
    }

    #[test]
    fn marker_survives_weird_bytes_before_magic() {
        // parse should find the magic anywhere in the scriptSig.
        let mut script = vec![0x03, 0x01, 0x02, 0x03, 0x00, 0xff];
        script.extend_from_slice(&MARKER_MAGIC);
        script.push(4);
        script.extend_from_slice(b"Pool");
        assert_eq!(PoolMarker::parse(&script), Some(PoolMarker::new("Pool")));
    }
}
