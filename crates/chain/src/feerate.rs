//! Fee rates: the quantity the GetBlockTemplate norm ranks transactions by.
//!
//! Internally a fee rate is satoshi per 1000 virtual bytes (`sat/kvB`), the
//! same integer representation Bitcoin Core uses, so ranking is exact (no
//! float ties). Conversions to the paper's `BTC/KB` units are provided for
//! reporting: `1 sat/vB == 1000 sat/kvB == 1e-5 BTC/KB`.

use crate::Amount;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A transaction fee rate in satoshi per 1000 virtual bytes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct FeeRate(u64);

impl FeeRate {
    /// Zero fee rate.
    pub const ZERO: FeeRate = FeeRate(0);

    /// Bitcoin Core's default minimum relay fee rate: 1 sat/vB
    /// (the paper's "recommended minimum" of 1e-5 BTC/KB).
    pub const MIN_RELAY: FeeRate = FeeRate(1_000);

    /// Constructs a fee rate from satoshi per 1000 virtual bytes.
    #[inline]
    pub const fn from_sat_per_kvb(s: u64) -> FeeRate {
        FeeRate(s)
    }

    /// Constructs a fee rate from whole satoshi per virtual byte.
    #[inline]
    pub const fn from_sat_per_vb(s: u64) -> FeeRate {
        FeeRate(s * 1_000)
    }

    /// Computes `fee / vsize`, rounding down to the nearest sat/kvB.
    ///
    /// A zero `vsize` is a logic error (no valid transaction is empty) and
    /// yields a zero rate rather than a panic, which keeps audit passes over
    /// adversarial data total.
    pub fn from_fee_and_vsize(fee: Amount, vsize: u64) -> FeeRate {
        if vsize == 0 {
            return FeeRate::ZERO;
        }
        FeeRate(fee.to_sat().saturating_mul(1_000) / vsize)
    }

    /// The rate in satoshi per 1000 virtual bytes.
    #[inline]
    pub const fn to_sat_per_kvb(self) -> u64 {
        self.0
    }

    /// The rate in satoshi per virtual byte (fractional).
    #[inline]
    pub fn sat_per_vbyte(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The rate in the paper's reporting unit, BTC per kilobyte.
    ///
    /// `1 sat/kvB == 1e-8 BTC / kvB`, and the paper treats KB and kvB
    /// interchangeably post-segwit.
    #[inline]
    pub fn btc_per_kb(self) -> f64 {
        self.0 as f64 * 1e-8
    }

    /// The fee this rate implies for a transaction of `vsize` virtual bytes,
    /// rounded up (Bitcoin Core's `GetFee` rounds up so the rate is met).
    pub fn fee_for_vsize(self, vsize: u64) -> Amount {
        let sat = (self.0 as u128 * vsize as u128).div_ceil(1_000) as u64;
        Amount::from_sat(sat)
    }
}

impl fmt::Display for FeeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} sat/vB", self.sat_per_vbyte())
    }
}

impl fmt::Debug for FeeRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} sat/kvB", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let r = FeeRate::from_sat_per_vb(10);
        assert_eq!(r.to_sat_per_kvb(), 10_000);
        assert!((r.sat_per_vbyte() - 10.0).abs() < 1e-12);
        assert!((r.btc_per_kb() - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn min_relay_matches_paper_recommended_minimum() {
        // 1e-5 BTC/KB from the paper.
        assert!((FeeRate::MIN_RELAY.btc_per_kb() - 1e-5).abs() < 1e-18);
    }

    #[test]
    fn from_fee_and_vsize_rounds_down() {
        let r = FeeRate::from_fee_and_vsize(Amount::from_sat(1), 3);
        assert_eq!(r.to_sat_per_kvb(), 333);
        assert_eq!(FeeRate::from_fee_and_vsize(Amount::from_sat(5), 0), FeeRate::ZERO);
    }

    #[test]
    fn fee_for_vsize_rounds_up() {
        let r = FeeRate::from_sat_per_kvb(333);
        assert_eq!(r.fee_for_vsize(3).to_sat(), 1); // 0.999 -> 1
        assert_eq!(r.fee_for_vsize(1_000).to_sat(), 333);
        assert_eq!(FeeRate::ZERO.fee_for_vsize(250), Amount::ZERO);
    }

    #[test]
    fn ordering_is_exact() {
        assert!(FeeRate::from_sat_per_kvb(1_001) > FeeRate::from_sat_per_kvb(1_000));
    }

    #[test]
    fn rate_fee_round_trip_is_consistent() {
        // fee_for_vsize(from_fee_and_vsize(f, s), s) >= implied-rate fee and
        // the derived rate never exceeds the original.
        for (fee, vsize) in [(1_000u64, 250u64), (12_345, 141), (7, 3), (0, 200)] {
            let r = FeeRate::from_fee_and_vsize(Amount::from_sat(fee), vsize);
            assert!(r.fee_for_vsize(vsize).to_sat() <= fee.max(1));
        }
    }
}
