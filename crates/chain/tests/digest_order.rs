//! `Hash256` orders digests exactly as their bytes order.
//!
//! `Hash256::cmp` compares four big-endian `u64` words instead of 32 bytes.
//! Every txid-sorted structure (snapshot rows and their merge, the fleet's
//! k-way merge, digest-keyed trees and sorts) relies on that being the
//! byte-lexicographic order, so it is checked three ways: on random pairs,
//! on pairs equal through byte k that differ at byte k in one bit (for
//! every k and every bit, with independent random bytes after k), and by
//! sorting `Txid`s and `BlockHash`es against sorting their bytes.

use cn_chain::{BlockHash, Hash256, Txid};
use proptest::prelude::*;
use std::cmp::Ordering;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_pairs_compare_as_bytes(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let (x, y) = (Hash256(a), Hash256(b));
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        prop_assert_eq!(y.cmp(&x), b.cmp(&a));
        prop_assert_eq!(x.partial_cmp(&y), Some(a.cmp(&b)));
        prop_assert_eq!(x.cmp(&x), Ordering::Equal);
    }

    #[test]
    fn the_first_differing_byte_decides(
        base in any::<[u8; 32]>(),
        tail_a in any::<[u8; 32]>(),
        tail_b in any::<[u8; 32]>(),
    ) {
        for k in 0..32 {
            for bit in 0..8 {
                let mut a = base;
                let mut b = base;
                b[k] ^= 1 << bit;
                a[k + 1..].copy_from_slice(&tail_a[k + 1..]);
                b[k + 1..].copy_from_slice(&tail_b[k + 1..]);
                let expected = a[k].cmp(&b[k]);
                prop_assert_eq!(a.cmp(&b), expected);
                prop_assert_eq!(Hash256(a).cmp(&Hash256(b)), expected, "byte {} bit {}", k, bit);
                prop_assert_eq!(Hash256(b).cmp(&Hash256(a)), expected.reverse());
                prop_assert_eq!(Txid(Hash256(a)) < Txid(Hash256(b)), expected.is_lt());
                prop_assert_eq!(BlockHash(Hash256(a)) > BlockHash(Hash256(b)), expected.is_gt());
            }
        }
    }

    #[test]
    fn sorting_ids_sorts_their_bytes(
        raw in proptest::collection::vec(any::<[u8; 32]>(), 0..64),
        shared in 0usize..32,
    ) {
        // Every other digest shares its first `shared` bytes with the first
        // one, so the sorts also separate digests on their later words.
        let mut digests = raw;
        if let Some(&first) = digests.first() {
            for d in digests.iter_mut().skip(1).step_by(2) {
                d[..shared].copy_from_slice(&first[..shared]);
            }
        }
        let mut by_bytes = digests.clone();
        by_bytes.sort_unstable();

        let mut txids: Vec<Txid> = digests.iter().map(|&d| Txid(Hash256(d))).collect();
        txids.sort_unstable();
        let txid_bytes: Vec<[u8; 32]> = txids.iter().map(|t| t.0 .0).collect();
        prop_assert_eq!(&txid_bytes, &by_bytes);

        let mut hashes: Vec<BlockHash> = digests.iter().map(|&d| BlockHash(Hash256(d))).collect();
        hashes.sort();
        let hash_bytes: Vec<[u8; 32]> = hashes.iter().map(|h| h.0 .0).collect();
        prop_assert_eq!(&hash_bytes, &by_bytes);
    }
}
