//! Property-based tests over the core data structures and algorithms.

use chain_neutrality::audit::pairs::{
    count_violations, count_violations_reference, PairObservation,
};
use chain_neutrality::prelude::*;
use chain_neutrality::stats::binomial::binomial_test_normal_approx;
use chain_neutrality::stats::fisher_combine;
use cn_chain::{Decodable, Encodable};
use proptest::prelude::*;

fn arb_transaction() -> impl Strategy<Value = Transaction> {
    (
        proptest::collection::vec((any::<[u8; 32]>(), 0u32..4, 0usize..200, 0usize..120), 1..5),
        proptest::collection::vec((1u64..10_000_000, any::<[u8; 20]>()), 1..5),
        any::<u32>(),
    )
        .prop_map(|(inputs, outputs, lock_time)| {
            let mut b = Transaction::builder().lock_time(lock_time);
            for (txid, vout, ss, wit) in inputs {
                b = b.add_input_with_sizes(txid.into(), vout, ss, wit);
            }
            for (value, payload) in outputs {
                b = b.pay_to(Address::p2pkh(payload), Amount::from_sat(value));
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transaction_round_trips(tx in arb_transaction()) {
        let bytes = tx.encode_to_bytes();
        let decoded = Transaction::decode_all(&bytes).expect("round trip");
        prop_assert_eq!(&decoded, &tx);
        prop_assert_eq!(decoded.txid(), tx.txid());
        prop_assert_eq!(decoded.weight(), tx.weight());
    }

    #[test]
    fn vsize_respects_weight_identity(tx in arb_transaction()) {
        prop_assert_eq!(tx.vsize(), tx.weight().div_ceil(4));
        prop_assert!(tx.weight() >= tx.encode_to_bytes().len() as u64);
    }

    #[test]
    fn address_base58_round_trips(payload in any::<[u8; 20]>(), p2sh in any::<bool>()) {
        let addr = if p2sh { Address::p2sh(payload) } else { Address::p2pkh(payload) };
        let s = addr.to_base58check();
        prop_assert_eq!(Address::from_base58check(&s), Some(addr));
        prop_assert_eq!(Address::from_script_pubkey(&addr.script_pubkey()), Some(addr));
    }

    #[test]
    fn cdq_equals_reference(
        raw in proptest::collection::vec((0u64..2_000, 0u64..100_000, 0u64..60), 0..120),
        epsilon in 0u64..50,
    ) {
        let obs: Vec<PairObservation> = raw
            .into_iter()
            .map(|(t, rate, h)| PairObservation {
                received: t,
                fee_rate: FeeRate::from_sat_per_kvb(rate),
                height: h,
            })
            .collect();
        let reference = count_violations_reference(&obs, epsilon);
        match count_violations(&obs, epsilon) {
            Ok(cdq) => prop_assert_eq!(cdq, reference),
            Err(e) => prop_assert!(obs.is_empty(), "refused non-empty input: {e}"),
        }
    }

    #[test]
    fn binomial_tails_complement(x in 0u64..50, extra in 0u64..50, theta in 0.01f64..0.99) {
        let y = x + extra;
        let upper = binomial_test(x, y, theta, Tail::Upper).p_value;
        let lower = binomial_test(x, y, theta, Tail::Lower).p_value;
        // P(B >= x) + P(B <= x) = 1 + P(B = x) >= 1.
        prop_assert!(upper + lower >= 1.0 - 1e-9);
        prop_assert!((0.0..=1.0).contains(&upper));
        prop_assert!((0.0..=1.0).contains(&lower));
    }

    #[test]
    fn normal_approx_tracks_exact_when_large(frac in 0.05f64..0.95, theta in 0.2f64..0.8) {
        let y = 5_000u64;
        let x = (frac * y as f64) as u64;
        for tail in [Tail::Upper, Tail::Lower] {
            let exact = binomial_test(x, y, theta, tail).p_value;
            let approx = binomial_test_normal_approx(x, y, theta, tail).p_value;
            prop_assert!((exact - approx).abs() < 1e-2,
                "x={} exact={} approx={}", x, exact, approx);
        }
    }

    #[test]
    fn fisher_combination_within_bounds(ps in proptest::collection::vec(0.0f64..=1.0, 1..10)) {
        let combined = fisher_combine(&ps);
        prop_assert!((0.0..=1.0).contains(&combined));
    }

    #[test]
    fn ecdf_is_monotone_cdf(values in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(values.clone());
        prop_assert_eq!(e.eval(f64::NEG_INFINITY), 0.0);
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
        let (lo, hi) = (e.quantile(0.25), e.quantile(0.75));
        prop_assert!(lo <= hi);
        prop_assert!(e.eval(e.max()) == 1.0);
    }

    #[test]
    fn amount_checked_arithmetic_consistent(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (x, y) = (Amount::from_sat(a), Amount::from_sat(b));
        let sum = x.checked_add(y).expect("no overflow in range");
        prop_assert_eq!(sum.checked_sub(y), Some(x));
        prop_assert_eq!(sum.saturating_sub(y), x);
        if a >= b {
            prop_assert_eq!(x.checked_sub(y).map(|d| d + y), Some(x));
        } else {
            prop_assert_eq!(x.checked_sub(y), None);
        }
    }

    #[test]
    fn fee_rate_round_trips_via_fee(rate in 0u64..10_000_000, vsize in 1u64..100_000) {
        let r = FeeRate::from_sat_per_kvb(rate);
        let fee = r.fee_for_vsize(vsize);
        // fee_for_vsize rounds up, so the realized rate never undershoots.
        let realized = FeeRate::from_fee_and_vsize(fee, vsize);
        prop_assert!(realized >= r);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mempool_indexes_stay_consistent(
        ops in proptest::collection::vec((any::<[u8; 32]>(), 1u64..500, any::<bool>()), 1..80)
    ) {
        let mut pool = Mempool::new(MempoolPolicy::accept_all());
        let mut resident: Vec<Txid> = Vec::new();
        for (seed, rate, remove) in ops {
            if remove && !resident.is_empty() {
                let victim = resident.swap_remove(0);
                pool.remove_with_descendants(&victim);
                resident.retain(|t| pool.contains(t));
            } else {
                let tx = Transaction::builder()
                    .add_input_with_sizes(seed.into(), 0, 107, 0)
                    .pay_to(Address::from_label("r"), Amount::from_sat(10_000))
                    .build();
                let fee = Amount::from_sat(tx.vsize() * rate);
                if let Ok(txid) = pool.add(tx, fee, 0) {
                    resident.push(txid);
                }
            }
            // Invariants: size accounting and index agreement.
            let total: u64 = pool.iter().map(|e| e.vsize()).sum();
            prop_assert_eq!(total, pool.total_vsize());
            prop_assert_eq!(pool.iter_by_fee_rate_desc().count(), pool.len());
            let mut last: Option<FeeRate> = None;
            for e in pool.iter_by_fee_rate_desc() {
                if let Some(prev) = last {
                    prop_assert!(e.fee_rate() <= prev);
                }
                last = Some(e.fee_rate());
            }
        }
    }

    #[test]
    fn assembler_output_is_always_valid(
        ops in proptest::collection::vec((any::<[u8; 32]>(), 1u64..400, any::<bool>()), 1..60),
        budget_blocks in 1u64..3,
    ) {
        use chain_neutrality::miner::BlockAssembler;
        // Random mempool with CPFP chains.
        let mut pool = Mempool::new(MempoolPolicy::accept_all());
        let mut parents: Vec<Transaction> = Vec::new();
        for (seed, rate, make_child) in ops {
            let tx = if make_child && !parents.is_empty() {
                let parent = &parents[(seed[0] as usize) % parents.len()];
                Transaction::builder()
                    .add_input_with_sizes(parent.txid(), 0, 107, 0)
                    .pay_to(Address::from_label("c"), Amount::from_sat(5_000))
                    .build()
            } else {
                Transaction::builder()
                    .add_input_with_sizes(seed.into(), 0, 107, 0)
                    .pay_to(Address::from_label("p"), Amount::from_sat(9_000))
                    .build()
            };
            let fee = Amount::from_sat(tx.vsize() * rate);
            if pool.add(tx.clone(), fee, 0).is_ok() && !make_child {
                parents.push(tx);
            }
        }
        let params = Params {
            max_block_weight: budget_blocks * 40_000,
            ..Params::mainnet()
        };
        let mut assembler = BlockAssembler::new(params);
        let tpl = assembler.assemble(&pool, |_| Priority::Normal);
        // Weight budget respected.
        prop_assert!(tpl.total_weight <= assembler.weight_budget());
        // Topological validity: every in-pool parent of an included child
        // appears earlier in the template.
        let mut placed = std::collections::HashSet::new();
        for tx in &tpl.transactions {
            for input in tx.inputs() {
                if pool.contains(&input.prevout.txid) {
                    prop_assert!(
                        placed.contains(&input.prevout.txid),
                        "child before parent in template"
                    );
                }
            }
            placed.insert(tx.txid());
        }
        // No duplicates, totals consistent.
        prop_assert_eq!(placed.len(), tpl.transactions.len());
        let sum: Amount = tpl.fees.iter().copied().sum();
        prop_assert_eq!(sum, tpl.total_fees);
    }

    #[test]
    fn ppe_bounded_for_random_blocks(rates in proptest::collection::vec(1u64..100_000, 1..200)) {
        use chain_neutrality::audit::index::{BlockInfo, TxRecord};
        let txs: Vec<TxRecord> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| TxRecord {
                txid: {
                    let mut b = [0u8; 32];
                    b[..8].copy_from_slice(&(i as u64).to_le_bytes());
                    Txid::from(b)
                },
                height: 0,
                position: i,
                fee: Amount::from_sat(r),
                vsize: 250,
                is_cpfp: false,
            })
            .collect();
        let block = BlockInfo {
            height: 0,
            hash: BlockHash::ZERO,
            time: 0,
            miner: None,
            coinbase_wallets: vec![],
            txs,
        };
        let ppe = block_ppe(&block).expect("non-empty");
        prop_assert!((0.0..=50.0 + 1e-9).contains(&ppe), "PPE {}", ppe);
        // SPPE over all txs in a block sums to ~zero (signed displacements cancel).
        let sum: f64 = chain_neutrality::audit::sppe::block_sppes(&block)
            .iter()
            .map(|(_, s)| s)
            .sum();
        prop_assert!(sum.abs() < 1e-6, "SPPE sum {}", sum);
    }
}
