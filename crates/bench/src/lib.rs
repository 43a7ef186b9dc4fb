//! # cn-bench — the experiment harness
//!
//! One function per table and figure in the paper's evaluation, each
//! regenerating the artifact from a calibrated simulation and printing
//! the same rows/series the paper reports (see `EXPERIMENTS.md` for the
//! paper-vs-measured record). Run them via the `experiments` binary:
//!
//! ```text
//! cargo run --release -p cn-bench --bin experiments -- all
//! cargo run --release -p cn-bench --bin experiments -- table2 fig7
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_datasets;
pub mod exp_extensions;
pub mod exp_fleet;
pub mod exp_megasim;
pub mod exp_misbehavior;
pub mod exp_norms;
pub mod exp_revenue;
pub mod exp_robustness;
pub mod exp_streaming;
pub mod lab;
pub mod record;

pub use lab::{Lab, MegasimBench, MegasimTier, StreamingBench, DATASET_COUNT, DATASET_NAMES};

/// Every experiment id, in presentation order.
pub const ALL_IDS: &[&str] = &[
    "fig1",
    "table1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    // Extensions beyond the numbered artifacts:
    "norm3",
    "harm",
    "robustness",
    "observer_fleet",
    "streaming",
    "megasim",
];

/// Runs one experiment by id; `None` for an unknown id.
pub fn run_experiment(id: &str, lab: &Lab) -> Option<String> {
    Some(match id {
        "fig1" => exp_norms::fig1(lab),
        "table1" => exp_datasets::table1(lab),
        "fig2" => exp_datasets::fig2(lab),
        "fig3" => exp_datasets::fig3(lab),
        "fig4" => exp_datasets::fig4(lab),
        "fig5" => exp_datasets::fig5(lab),
        "fig6" => exp_norms::fig6(lab),
        "fig7" => exp_norms::fig7(lab),
        "fig8" => exp_misbehavior::fig8(lab),
        "table2" => exp_misbehavior::table2(lab),
        "table3" => exp_misbehavior::table3(lab),
        "table4" => exp_misbehavior::table4(lab),
        "table5" => exp_revenue::table5(lab),
        "fig9" => exp_datasets::fig9(lab),
        "fig10" => exp_datasets::fig10(lab),
        "fig11" => exp_datasets::fig11(lab),
        "fig12" => exp_datasets::fig12(lab),
        "fig13" => exp_misbehavior::fig13(lab),
        "fig14" => exp_misbehavior::fig14(lab),
        "norm3" => exp_extensions::norm3(lab),
        "harm" => exp_extensions::harm(lab),
        "robustness" => exp_robustness::robustness(lab),
        "observer_fleet" => exp_fleet::observer_fleet(lab),
        "streaming" => exp_streaming::streaming(lab),
        "megasim" => exp_megasim::megasim(lab),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_ids() {
        let lab = Lab::quick();
        // Only check id resolution here — actually running them is the
        // integration tests' job (they are expensive).
        assert!(run_experiment("nope", &lab).is_none());
        assert_eq!(ALL_IDS.len(), 25);
        let mut ids: Vec<&&str> = ALL_IDS.iter().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 25, "ids must be unique");
    }
}
