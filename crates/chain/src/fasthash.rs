//! Prefix-folding hashers for SHA-256-derived keys.
//!
//! Txids, wtxids, and block hashes are SHA-256 outputs, so every byte is
//! already uniformly distributed — running 32 such bytes through SipHash
//! (the `HashMap` default) buys collision resistance the key material
//! already has. Bitcoin Core draws the same conclusion: its mempool maps
//! use `SaltedTxidHasher`, which just reads 8 bytes of the txid. The
//! hashers here do the equivalent fold, turning every map touch on the
//! admission/assembly hot path into a few integer ops.
//!
//! Not for attacker-chosen keys: a key that is not itself a hash output
//! (or derived from one) gets no mixing here and can be driven into
//! collisions. Every use in this workspace keys on digests.

use crate::transaction::{OutPoint, Txid};
use std::hash::{BuildHasherDefault, Hasher};

/// A [`Hasher`] that folds the first 8 bytes of digest-shaped input and
/// ignores everything else (including the length prefixes `Hash` impls
/// write for composite keys).
///
/// [`Txid`]/[`Hash256`](crate::Hash256) feed it one 32-byte `write`; [`OutPoint`] adds a
/// `write_u32` for the output index, which is mixed in multiplicatively so
/// `(txid, 0)` and `(txid, 1)` land in different buckets.
#[derive(Clone, Copy, Default)]
pub struct DigestHasher {
    state: u64,
}

impl Hasher for DigestHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // First 8 bytes of a digest are as good as any mix of all 32.
        // Shorter inputs (there are none on the hot path) still fold in.
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        self.state ^= u64::from_le_bytes(buf);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        // OutPoint vout: spread it across the word so adjacent indexes
        // don't collide after the xor-fold (odd constant from splitmix64).
        self.state ^= (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state ^= i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, _i: usize) {
        // Length prefixes from derived `Hash` impls carry no key entropy.
    }
}

/// `BuildHasher` for [`DigestHasher`] — stateless, so map construction is
/// free and hashes are stable within a process run.
pub type DigestHashBuilder = BuildHasherDefault<DigestHasher>;

/// A `HashMap` keyed by digests ([`Txid`], [`Hash256`](crate::Hash256), [`OutPoint`], …).
pub type FastMap<K, V> = std::collections::HashMap<K, V, DigestHashBuilder>;

/// A `HashSet` over digest-shaped keys.
pub type FastSet<K> = std::collections::HashSet<K, DigestHashBuilder>;

/// Convenience fold used by code that wants the bucket index directly.
#[inline]
pub fn fold_txid(txid: &Txid) -> u64 {
    txid.0.to_u64()
}

/// Fold for outpoints: txid prefix xor a spread of the output index.
#[inline]
pub fn fold_outpoint(op: &OutPoint) -> u64 {
    op.txid.0.to_u64() ^ (op.vout as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: &T) -> u64 {
        DigestHashBuilder::default().hash_one(v)
    }

    #[test]
    fn txid_hash_is_prefix_fold() {
        let txid = Txid::from([0xAB; 32]);
        assert_eq!(hash_one(&txid), fold_txid(&txid));
    }

    #[test]
    fn outpoints_on_same_txid_differ() {
        let txid = Txid::from([7; 32]);
        let a = hash_one(&OutPoint::new(txid, 0));
        let b = hash_one(&OutPoint::new(txid, 1));
        assert_ne!(a, b);
        assert_eq!(a, fold_outpoint(&OutPoint::new(txid, 0)));
    }

    #[test]
    fn maps_behave_like_std() {
        let mut fast: FastMap<Txid, u32> = FastMap::default();
        let mut std_map = std::collections::HashMap::new();
        for i in 0..64u8 {
            let txid = Txid::from([i; 32]);
            fast.insert(txid, i as u32);
            std_map.insert(txid, i as u32);
        }
        assert_eq!(fast.len(), std_map.len());
        for (k, v) in &std_map {
            assert_eq!(fast.get(k), Some(v));
        }
    }
}
