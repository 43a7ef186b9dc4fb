//! The inputs of a run.
//!
//! A 12-hour dataset-𝒞 span mines 56 to 91 blocks depending on the seed,
//! and a seed that mines few blocks, or mines them at the wrong times,
//! leaves a large backlog: the observers' snapshot rows, which every
//! layer's cost follows, varied fivefold between seeds. Taken as it comes,
//! the seed would move `blocks_per_s` more than any regression bound. So
//! each workload scans scenario seeds once, offline, and pins a pool of
//! seeds whose inputs cost the same per block within a few per cent (see
//! `README.md`); `--seed` picks which of them a run uses.

use cn_sim::scenario::Scenario;

/// Inputs per run.
pub const INPUTS: usize = 3;

/// The scenario seeds of a run: [`INPUTS`] consecutive entries of `pool`,
/// starting at entry `seed mod pool.len()` and wrapping around.
pub fn pick(pool: &[u64], seed: u64) -> Vec<u64> {
    let start = (seed % pool.len() as u64) as usize;
    (0..INPUTS)
        .map(|k| pool[(start + k) % pool.len()])
        .collect()
}

/// The scenario's target block count: its span over the target interval.
pub fn target_blocks(scenario: &Scenario) -> u64 {
    scenario.duration / scenario.params.target_spacing_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_picks_consecutive_pool_entries_and_wraps() {
        let pool = [10, 11, 12, 13, 14, 15];
        assert_eq!(pick(&pool, 0), [10, 11, 12]);
        assert_eq!(pick(&pool, 4), [14, 15, 10]);
        assert_eq!(pick(&pool, 6), pick(&pool, 0));
        assert_eq!(pick(&pool, u64::MAX), pick(&pool, u64::MAX % 6));
    }
}
