//! The paper's published numbers, kept in one place so reports can print
//! paper-vs-measured side by side (and EXPERIMENTS.md can cite them).

/// Table 1 and §4 headline statistics for one dataset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DatasetCalibration {
    /// Dataset label.
    pub label: &'static str,
    /// Blocks in the paper's dataset.
    pub blocks: u64,
    /// Issued transactions in the paper's dataset.
    pub transactions: u64,
    /// CPFP share of transactions.
    pub cpfp_fraction: f64,
    /// Empty blocks.
    pub empty_blocks: u64,
    /// Fraction of time the Mempool exceeded one block capacity.
    pub congested_fraction: Option<f64>,
    /// Fraction of transactions committed in the next block.
    pub next_block_fraction: Option<f64>,
    /// Fraction waiting at least 3 blocks.
    pub three_plus_blocks_fraction: Option<f64>,
}

/// Dataset 𝒜 (Feb 20 – Mar 13, 2019).
pub const DATASET_A: DatasetCalibration = DatasetCalibration {
    label: "A",
    blocks: 3_119,
    transactions: 6_816_375,
    cpfp_fraction: 0.2645,
    empty_blocks: 38,
    congested_fraction: Some(0.75),
    next_block_fraction: Some(0.65),
    three_plus_blocks_fraction: Some(0.15),
};

/// Dataset ℬ (Jun 1 – 30, 2019).
pub const DATASET_B: DatasetCalibration = DatasetCalibration {
    label: "B",
    blocks: 4_520,
    transactions: 10_484_201,
    cpfp_fraction: 0.2317,
    empty_blocks: 18,
    congested_fraction: Some(0.92),
    next_block_fraction: Some(0.60),
    three_plus_blocks_fraction: Some(0.20),
};

/// Dataset 𝒞 (Jan 1 – Dec 31, 2020).
pub const DATASET_C: DatasetCalibration = DatasetCalibration {
    label: "C",
    blocks: 53_214,
    transactions: 112_489_054,
    cpfp_fraction: 0.1911,
    empty_blocks: 240,
    congested_fraction: None,
    next_block_fraction: None,
    three_plus_blocks_fraction: None,
};

/// §4.2.2: mean PPE over dataset 𝒞 and the 80th-percentile bound.
pub const PAPER_MEAN_PPE: f64 = 2.65;
/// §4.2.2: 80 % of blocks have PPE below this.
pub const PAPER_P80_PPE: f64 = 4.03;

/// Table 4 (BTC.com, dataset 𝒞): `(SPPE threshold, total, accelerated)`.
pub const PAPER_TABLE_4: [(f64, u64, u64); 5] = [
    (100.0, 628, 464),
    (99.0, 1_108, 720),
    (90.0, 5_365, 972),
    (50.0, 95_282, 1_007),
    (1.0, 657_423, 1_029),
];

/// Figure 14: acceleration-fee multiples over public fees.
pub const PAPER_ACCEL_FEE_MEAN_MULTIPLE: f64 = 566.3;
/// Figure 14 median multiple.
pub const PAPER_ACCEL_FEE_MEDIAN_MULTIPLE: f64 = 116.64;

/// Table 5: per-year fee share of miner revenue (mean %, 2016–2020).
pub const PAPER_FEE_SHARE_BY_YEAR: [(u32, f64); 5] =
    [(2016, 2.48), (2017, 11.77), (2018, 3.19), (2019, 2.75), (2020, 6.29)];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_internally_consistent() {
        for d in [DATASET_A, DATASET_B, DATASET_C] {
            assert!(d.blocks > 0);
            assert!(d.transactions > d.blocks);
            assert!((0.0..1.0).contains(&d.cpfp_fraction));
            assert!(d.empty_blocks < d.blocks);
        }
        assert!(DATASET_B.congested_fraction > DATASET_A.congested_fraction);
    }

    #[test]
    fn table4_monotone() {
        for w in PAPER_TABLE_4.windows(2) {
            assert!(w[0].0 > w[1].0, "thresholds descending");
            assert!(w[0].1 <= w[1].1, "totals grow as threshold drops");
        }
    }
}
