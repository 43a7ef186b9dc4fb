//! Monetary amounts in satoshi, with checked arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// Number of satoshi in one bitcoin.
pub const SAT_PER_BTC: u64 = 100_000_000;

/// A non-negative monetary amount, stored in satoshi.
///
/// Plain `+`/`-` panic on overflow/underflow (a logic error in this codebase);
/// use [`Amount::checked_add`] / [`Amount::checked_sub`] where failure is a
/// legitimate outcome (e.g. computing a fee from untrusted inputs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Amount(u64);

impl Amount {
    /// Zero satoshi.
    pub const ZERO: Amount = Amount(0);
    /// One satoshi.
    pub const ONE_SAT: Amount = Amount(1);
    /// One bitcoin.
    pub const ONE_BTC: Amount = Amount(SAT_PER_BTC);
    /// Maximum money supply (21 million BTC), as in Bitcoin's `MAX_MONEY`.
    pub const MAX_MONEY: Amount = Amount(21_000_000 * SAT_PER_BTC);

    /// Constructs an amount from satoshi.
    #[inline]
    pub const fn from_sat(sat: u64) -> Amount {
        Amount(sat)
    }

    /// Constructs an amount from whole bitcoin.
    #[inline]
    pub const fn from_btc(btc: u64) -> Amount {
        Amount(btc * SAT_PER_BTC)
    }

    /// Constructs an amount from a fractional BTC value, rounding to the
    /// nearest satoshi. Returns `None` for negative, non-finite, or
    /// out-of-range inputs.
    pub fn from_btc_f64(btc: f64) -> Option<Amount> {
        if !btc.is_finite() || btc < 0.0 {
            return None;
        }
        let sat = (btc * SAT_PER_BTC as f64).round();
        if sat > Amount::MAX_MONEY.0 as f64 {
            return None;
        }
        Some(Amount(sat as u64))
    }

    /// The amount in satoshi.
    #[inline]
    pub const fn to_sat(self) -> u64 {
        self.0
    }

    /// The amount as fractional BTC (lossy beyond 2^53 sat; fine for display).
    #[inline]
    pub fn to_btc(self) -> f64 {
        self.0 as f64 / SAT_PER_BTC as f64
    }

    /// Checked addition.
    #[inline]
    pub fn checked_add(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_add(rhs.0).map(Amount)
    }

    /// Checked subtraction.
    #[inline]
    pub fn checked_sub(self, rhs: Amount) -> Option<Amount> {
        self.0.checked_sub(rhs.0).map(Amount)
    }

    /// Saturating subtraction (clamps at zero).
    #[inline]
    pub fn saturating_sub(self, rhs: Amount) -> Amount {
        Amount(self.0.saturating_sub(rhs.0))
    }

    /// True when the amount is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Amount {
    type Output = Amount;
    fn add(self, rhs: Amount) -> Amount {
        self.checked_add(rhs).expect("Amount overflow")
    }
}

impl AddAssign for Amount {
    fn add_assign(&mut self, rhs: Amount) {
        *self = *self + rhs;
    }
}

impl Sub for Amount {
    type Output = Amount;
    fn sub(self, rhs: Amount) -> Amount {
        self.checked_sub(rhs).expect("Amount underflow")
    }
}

impl Sum for Amount {
    fn sum<I: Iterator<Item = Amount>>(iter: I) -> Amount {
        iter.fold(Amount::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let btc = self.0 / SAT_PER_BTC;
        let rem = self.0 % SAT_PER_BTC;
        write!(f, "{btc}.{rem:08} BTC")
    }
}

impl fmt::Debug for Amount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} sat", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Amount::from_btc(1), Amount::from_sat(SAT_PER_BTC));
        assert_eq!(Amount::from_btc_f64(0.5), Some(Amount::from_sat(50_000_000)));
        assert_eq!(Amount::from_btc_f64(-1.0), None);
        assert_eq!(Amount::from_btc_f64(f64::NAN), None);
        assert_eq!(Amount::from_btc_f64(22_000_000.0), None);
    }

    #[test]
    fn arithmetic() {
        let a = Amount::from_sat(10);
        let b = Amount::from_sat(3);
        assert_eq!((a + b).to_sat(), 13);
        assert_eq!((a - b).to_sat(), 7);
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(b.saturating_sub(a), Amount::ZERO);
        assert_eq!(Amount::from_sat(u64::MAX).checked_add(Amount::ONE_SAT), None);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Amount::from_sat(1) - Amount::from_sat(2);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Amount = (1..=4).map(Amount::from_sat).sum();
        assert_eq!(total.to_sat(), 10);
    }

    #[test]
    fn display_formats_btc() {
        assert_eq!(Amount::from_sat(150_000_000).to_string(), "1.50000000 BTC");
        assert_eq!(Amount::from_sat(1).to_string(), "0.00000001 BTC");
    }

    #[test]
    fn btc_round_trip() {
        let a = Amount::from_sat(123_456_789);
        assert_eq!(Amount::from_btc_f64(a.to_btc()), Some(a));
    }
}
