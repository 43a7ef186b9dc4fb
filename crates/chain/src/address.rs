//! Wallet addresses: base58check (legacy) and bech32 (native SegWit).
//!
//! The audit pipeline identifies mining-pool operators by the reward
//! addresses appearing in coinbase transactions (§5.2 of the paper), so
//! addresses must be first-class, hashable values with a stable textual
//! form. We support the two classic Bitcoin address kinds plus P2WPKH;
//! script execution is out of scope.

use crate::hash::sha256d;
use serde::{Deserialize, Serialize};
use std::fmt;

const BASE58_ALPHABET: &[u8; 58] = b"123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz";

/// A wallet address: a 20-byte hash plus a kind discriminant.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Address {
    /// Pay-to-public-key-hash (version byte `0x00`).
    P2pkh([u8; 20]),
    /// Pay-to-script-hash (version byte `0x05`).
    P2sh([u8; 20]),
    /// Native SegWit v0 pay-to-witness-public-key-hash (`bc1q…`).
    P2wpkh([u8; 20]),
}

impl Address {
    /// Constructs a P2PKH address from a 20-byte key hash.
    pub const fn p2pkh(hash: [u8; 20]) -> Address {
        Address::P2pkh(hash)
    }

    /// Constructs a P2SH address from a 20-byte script hash.
    pub const fn p2sh(hash: [u8; 20]) -> Address {
        Address::P2sh(hash)
    }

    /// Constructs a native SegWit P2WPKH address from a 20-byte key hash.
    pub const fn p2wpkh(hash: [u8; 20]) -> Address {
        Address::P2wpkh(hash)
    }

    /// Derives a deterministic P2PKH address from a label (for simulations,
    /// where key management is irrelevant but stable identity matters).
    pub fn from_label(label: &str) -> Address {
        let h = crate::hash::sha256(label.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&h.as_bytes()[..20]);
        Address::P2pkh(out)
    }

    /// The 20-byte payload.
    pub fn payload(&self) -> &[u8; 20] {
        match self {
            Address::P2pkh(h) | Address::P2sh(h) | Address::P2wpkh(h) => h,
        }
    }

    /// The base58check version byte (legacy kinds only).
    fn version(&self) -> u8 {
        match self {
            Address::P2pkh(_) => 0x00,
            Address::P2sh(_) => 0x05,
            Address::P2wpkh(_) => unreachable!("segwit addresses use bech32"),
        }
    }

    /// The canonical script-pubkey bytes locking coins to this address.
    ///
    /// P2PKH: `OP_DUP OP_HASH160 <20> OP_EQUALVERIFY OP_CHECKSIG` (25 bytes);
    /// P2SH: `OP_HASH160 <20> OP_EQUAL` (23 bytes); P2WPKH: `OP_0 <20>`
    /// (22 bytes). Real templates keep output sizes — and hence virtual
    /// sizes and fee rates — realistic.
    pub fn script_pubkey(&self) -> Vec<u8> {
        match self {
            Address::P2pkh(h) => {
                let mut s = Vec::with_capacity(25);
                s.extend_from_slice(&[0x76, 0xa9, 0x14]);
                s.extend_from_slice(h);
                s.extend_from_slice(&[0x88, 0xac]);
                s
            }
            Address::P2sh(h) => {
                let mut s = Vec::with_capacity(23);
                s.extend_from_slice(&[0xa9, 0x14]);
                s.extend_from_slice(h);
                s.push(0x87);
                s
            }
            Address::P2wpkh(h) => {
                let mut s = Vec::with_capacity(22);
                s.extend_from_slice(&[0x00, 0x14]);
                s.extend_from_slice(h);
                s
            }
        }
    }

    /// Recovers an address from script-pubkey bytes, if it matches a known
    /// template.
    pub fn from_script_pubkey(script: &[u8]) -> Option<Address> {
        match script {
            [0x76, 0xa9, 0x14, mid @ .., 0x88, 0xac] if mid.len() == 20 => {
                Some(Address::P2pkh(mid.try_into().ok()?))
            }
            [0xa9, 0x14, mid @ .., 0x87] if mid.len() == 20 => {
                Some(Address::P2sh(mid.try_into().ok()?))
            }
            [0x00, 0x14, rest @ ..] if rest.len() == 20 => {
                Some(Address::P2wpkh(rest.try_into().ok()?))
            }
            _ => None,
        }
    }

    /// Renders the canonical textual form: base58check for legacy kinds,
    /// bech32 for SegWit.
    pub fn to_text(&self) -> String {
        match self {
            Address::P2wpkh(h) => crate::bech32::encode_segwit_v0("bc", h),
            _ => self.to_base58check(),
        }
    }

    /// Parses any supported textual address form.
    pub fn from_text(s: &str) -> Option<Address> {
        if let Some((0, program)) = crate::bech32::decode_segwit("bc", s) {
            if program.len() == 20 {
                return Some(Address::P2wpkh(program.try_into().ok()?));
            }
            return None;
        }
        Address::from_base58check(s)
    }

    /// Encodes as a base58check string.
    ///
    /// # Panics
    /// Panics for SegWit addresses — use [`Address::to_text`].
    pub fn to_base58check(&self) -> String {
        let mut data = Vec::with_capacity(25);
        data.push(self.version());
        data.extend_from_slice(self.payload());
        let checksum = sha256d(&data);
        data.extend_from_slice(&checksum.as_bytes()[..4]);
        base58_encode(&data)
    }

    /// Decodes a base58check string, validating the checksum and version.
    pub fn from_base58check(s: &str) -> Option<Address> {
        let data = base58_decode(s)?;
        if data.len() != 25 {
            return None;
        }
        let (body, checksum) = data.split_at(21);
        let expect = sha256d(body);
        if checksum != &expect.as_bytes()[..4] {
            return None;
        }
        let payload: [u8; 20] = body[1..].try_into().ok()?;
        match body[0] {
            0x00 => Some(Address::P2pkh(payload)),
            0x05 => Some(Address::P2sh(payload)),
            _ => None,
        }
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({self})")
    }
}

fn base58_encode(data: &[u8]) -> String {
    // Count leading zero bytes; each maps to a literal '1'.
    let zeros = data.iter().take_while(|&&b| b == 0).count();
    // Big-number base conversion, digits little-endian.
    let mut digits: Vec<u8> = Vec::with_capacity(data.len() * 138 / 100 + 1);
    for &byte in &data[zeros..] {
        let mut carry = byte as u32;
        for d in digits.iter_mut() {
            carry += (*d as u32) << 8;
            *d = (carry % 58) as u8;
            carry /= 58;
        }
        while carry > 0 {
            digits.push((carry % 58) as u8);
            carry /= 58;
        }
    }
    let mut out = String::with_capacity(zeros + digits.len());
    out.extend(std::iter::repeat_n('1', zeros));
    for &d in digits.iter().rev() {
        out.push(BASE58_ALPHABET[d as usize] as char);
    }
    out
}

fn base58_decode(s: &str) -> Option<Vec<u8>> {
    let ones = s.bytes().take_while(|&b| b == b'1').count();
    let mut bytes: Vec<u8> = Vec::with_capacity(s.len());
    for ch in s.bytes().skip(ones) {
        let val = BASE58_ALPHABET.iter().position(|&a| a == ch)? as u32;
        let mut carry = val;
        for b in bytes.iter_mut() {
            carry += (*b as u32) * 58;
            *b = (carry & 0xff) as u8;
            carry >>= 8;
        }
        while carry > 0 {
            bytes.push((carry & 0xff) as u8);
            carry >>= 8;
        }
    }
    let mut out = vec![0u8; ones];
    out.extend(bytes.iter().rev());
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_genesis_address_encoding() {
        // The famous genesis-block reward address.
        // hash160 = 62e907b15cbf27d5425399ebf6f0fb50ebb88f18
        let payload: [u8; 20] = [
            0x62, 0xe9, 0x07, 0xb1, 0x5c, 0xbf, 0x27, 0xd5, 0x42, 0x53, 0x99, 0xeb, 0xf6, 0xf0,
            0xfb, 0x50, 0xeb, 0xb8, 0x8f, 0x18,
        ];
        let addr = Address::p2pkh(payload);
        assert_eq!(addr.to_base58check(), "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa");
    }

    #[test]
    fn base58check_round_trip() {
        for i in 0u8..20 {
            let addr = Address::p2pkh([i; 20]);
            let s = addr.to_base58check();
            assert_eq!(Address::from_base58check(&s), Some(addr));
            let addr = Address::p2sh([i; 20]);
            let s = addr.to_base58check();
            assert_eq!(Address::from_base58check(&s), Some(addr));
        }
    }

    #[test]
    fn checksum_detects_typos() {
        let s = Address::p2pkh([9; 20]).to_base58check();
        let mut corrupted = s.clone().into_bytes();
        // Flip the final character to a different alphabet letter.
        corrupted[0] = if corrupted[0] == b'1' { b'2' } else { b'1' };
        let corrupted = String::from_utf8(corrupted).expect("ascii");
        if corrupted != s {
            assert_eq!(Address::from_base58check(&corrupted), None);
        }
        assert_eq!(Address::from_base58check("0OIl"), None); // invalid chars
        assert_eq!(Address::from_base58check(""), None);
    }

    #[test]
    fn script_pubkey_round_trip() {
        let a = Address::p2pkh([3; 20]);
        assert_eq!(Address::from_script_pubkey(&a.script_pubkey()), Some(a));
        let b = Address::p2sh([4; 20]);
        assert_eq!(Address::from_script_pubkey(&b.script_pubkey()), Some(b));
        assert_eq!(Address::from_script_pubkey(&[0x6a, 0x01, 0x02]), None);
    }

    #[test]
    fn script_sizes_match_bitcoin() {
        assert_eq!(Address::p2pkh([0; 20]).script_pubkey().len(), 25);
        assert_eq!(Address::p2sh([0; 20]).script_pubkey().len(), 23);
    }

    #[test]
    fn from_label_is_deterministic_and_distinct() {
        let a = Address::from_label("pool:F2Pool:0");
        let b = Address::from_label("pool:F2Pool:0");
        let c = Address::from_label("pool:F2Pool:1");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn p2wpkh_text_round_trip() {
        // The BIP-173 example key hash.
        let payload: [u8; 20] = [
            0x75, 0x1e, 0x76, 0xe8, 0x19, 0x91, 0x96, 0xd4, 0x54, 0x94, 0x1c, 0x45, 0xd1, 0xb3,
            0xa3, 0x23, 0xf1, 0x43, 0x3b, 0xd6,
        ];
        let addr = Address::p2wpkh(payload);
        let text = addr.to_text();
        assert_eq!(text, "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4");
        assert_eq!(Address::from_text(&text), Some(addr));
        assert_eq!(addr.to_string(), text);
    }

    #[test]
    fn p2wpkh_script_round_trip_and_size() {
        let addr = Address::p2wpkh([9; 20]);
        let script = addr.script_pubkey();
        assert_eq!(script.len(), 22);
        assert_eq!(script[0], 0x00);
        assert_eq!(script[1], 0x14);
        assert_eq!(Address::from_script_pubkey(&script), Some(addr));
    }

    #[test]
    fn from_text_parses_all_kinds() {
        let legacy = Address::p2pkh([3; 20]);
        assert_eq!(Address::from_text(&legacy.to_text()), Some(legacy));
        let script = Address::p2sh([4; 20]);
        assert_eq!(Address::from_text(&script.to_text()), Some(script));
        assert_eq!(Address::from_text("definitely-not-an-address"), None);
    }

    #[test]
    #[should_panic(expected = "bech32")]
    fn base58check_panics_for_segwit() {
        let _ = Address::p2wpkh([1; 20]).to_base58check();
    }

    #[test]
    fn leading_zeros_preserved() {
        let addr = Address::p2pkh([0; 20]);
        let s = addr.to_base58check();
        assert!(s.starts_with('1'));
        assert_eq!(Address::from_base58check(&s), Some(addr));
    }
}
