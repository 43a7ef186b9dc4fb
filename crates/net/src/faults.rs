//! Fault injection: the knobs that degrade the P2P and observation layers.
//!
//! Real measurement pipelines never see the clean world the rest of this
//! workspace simulates: relay links drop and delay announcements, peers
//! deliver the same transaction twice or out of order, observer daemons
//! crash and leave holes in the snapshot stream, and RPC dumps get cut
//! off mid-transfer. A [`FaultPlan`] describes all of that declaratively;
//! the simulation runner samples from it, and the audit layer is expected
//! to survive (and quantify) the resulting damage.
//!
//! A plan with every knob at zero — [`FaultPlan::none`] — must be
//! *inert*: the runner guards every fault draw behind
//! [`FaultPlan::enabled`], so a disabled plan leaves the event stream
//! bit-identical to a build without this module.

use cn_stats::SimRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a fault- or adversary-plan input was rejected: the typed error
/// behind [`FaultPlan::validate`], [`FaultPlan::try_scaled`] and
/// [`AdversaryPlan::validate`]. Rejecting bad knobs at construction keeps
/// garbage probabilities (NaN, negatives, >1) out of the RNG draws, where
/// they would silently bias every downstream sample.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A knob that must be a finite number was NaN or infinite.
    NonFinite {
        /// Which knob.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A knob left its allowed interval.
    OutOfRange {
        /// Which knob.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (inclusive).
        max: f64,
    },
    /// Downtime was requested but spread over zero spells.
    MissingSpells,
    /// A certain stale tip: no block would ever connect.
    CertainStaleTip,
    /// An adversary rule targets an observer index outside the fleet.
    UnknownObserver {
        /// The out-of-range index.
        observer: usize,
        /// How many observers the fleet actually has.
        fleet_size: usize,
    },
    /// An eclipse window whose end does not come after its start.
    EmptyEclipseWindow {
        /// Window start, seconds.
        start_secs: u64,
        /// Window end, seconds.
        end_secs: u64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NonFinite { field, value } => {
                write!(f, "fault plan: {field} must be finite, got {value}")
            }
            FaultPlanError::OutOfRange { field, value, min, max } => {
                write!(f, "fault plan: {field} must be in [{min},{max}], got {value}")
            }
            FaultPlanError::MissingSpells => {
                write!(f, "fault plan: downtime_frac > 0 needs at least one spell")
            }
            FaultPlanError::CertainStaleTip => {
                write!(f, "fault plan: stale_tip_prob must be < 1 or no block ever connects")
            }
            FaultPlanError::UnknownObserver { observer, fleet_size } => {
                write!(f, "adversary plan: observer {observer} outside fleet of {fleet_size}")
            }
            FaultPlanError::EmptyEclipseWindow { start_secs, end_secs } => {
                write!(f, "adversary plan: eclipse window [{start_secs},{end_secs}) is empty")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Checks one probability-like knob: finite and inside `[min, max]`.
fn check_range(field: &'static str, value: f64, min: f64, max: f64) -> Result<(), FaultPlanError> {
    if !value.is_finite() {
        return Err(FaultPlanError::NonFinite { field, value });
    }
    if !(min..=max).contains(&value) {
        return Err(FaultPlanError::OutOfRange { field, value, min, max });
    }
    Ok(())
}

/// Per-delivery link degradation, sampled independently for every
/// (transaction, stakeholder) delivery the runner schedules.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Probability a delivery is silently lost (never reaches the node).
    pub loss_prob: f64,
    /// Probability a delivery suffers a latency spike.
    pub spike_prob: f64,
    /// Extra delay added by a spike, in milliseconds.
    pub spike_ms: u64,
    /// Probability a delivery arrives twice (the duplicate trails the
    /// original by up to [`LinkFaults::jitter_ms`]).
    pub duplicate_prob: f64,
    /// Probability a delivery is jittered out of order relative to other
    /// in-flight transactions.
    pub reorder_prob: f64,
    /// Uniform jitter bound for reordered and duplicated deliveries, ms.
    pub jitter_ms: u64,
}

impl LinkFaults {
    /// No link degradation.
    pub fn none() -> LinkFaults {
        LinkFaults {
            loss_prob: 0.0,
            spike_prob: 0.0,
            spike_ms: 0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            jitter_ms: 0,
        }
    }

    /// True when any knob can fire.
    pub fn enabled(&self) -> bool {
        self.loss_prob > 0.0
            || self.spike_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.reorder_prob > 0.0
    }

    /// Extra delivery delay in milliseconds, or `None` when the delivery
    /// is lost. Draws from `rng` only for knobs that are switched on, so
    /// two plans differing in one knob keep the other draws aligned.
    pub fn sample_delivery(&self, rng: &mut SimRng) -> Option<u64> {
        if self.loss_prob > 0.0 && rng.next_bool(self.loss_prob) {
            return None;
        }
        let mut extra = 0u64;
        if self.spike_prob > 0.0 && rng.next_bool(self.spike_prob) {
            extra += self.spike_ms;
        }
        if self.reorder_prob > 0.0 && rng.next_bool(self.reorder_prob) {
            extra += rng.next_below(self.jitter_ms.max(1));
        }
        Some(extra)
    }

    /// Trailing delay for a duplicate delivery, or `None` when this
    /// delivery is not duplicated.
    pub fn sample_duplicate(&self, rng: &mut SimRng) -> Option<u64> {
        if self.duplicate_prob > 0.0 && rng.next_bool(self.duplicate_prob) {
            Some(1 + rng.next_below(self.jitter_ms.max(1)))
        } else {
            None
        }
    }
}

/// Observer-side degradation: snapshot gaps and truncated detail dumps.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ObserverFaults {
    /// Fraction of the run the observer is down (snapshot windows inside
    /// an outage are simply missing from the stream).
    pub downtime_frac: f64,
    /// Number of distinct outage spells the downtime is spread over.
    pub downtime_spells: usize,
    /// Probability a detailed snapshot is truncated (its per-transaction
    /// dump cut off partway, as an interrupted RPC would be).
    pub truncate_prob: f64,
    /// Fraction of rows a truncated snapshot keeps.
    pub truncate_keep_frac: f64,
}

impl ObserverFaults {
    /// A fully available observer.
    pub fn none() -> ObserverFaults {
        ObserverFaults {
            downtime_frac: 0.0,
            downtime_spells: 0,
            truncate_prob: 0.0,
            truncate_keep_frac: 1.0,
        }
    }

    /// True when any knob can fire.
    pub fn enabled(&self) -> bool {
        (self.downtime_frac > 0.0 && self.downtime_spells > 0) || self.truncate_prob > 0.0
    }

    /// The outage windows over a run of `duration_ms`, as half-open
    /// `[start, end)` millisecond intervals. Spells are evenly spaced and
    /// equally sized — deterministic, so a plan fully determines which
    /// snapshot windows go missing.
    pub fn downtime_windows_ms(&self, duration_ms: u64) -> Vec<(u64, u64)> {
        if self.downtime_frac <= 0.0 || self.downtime_spells == 0 {
            return Vec::new();
        }
        let spells = self.downtime_spells as u64;
        let spell_len = (self.downtime_frac * duration_ms as f64 / spells as f64) as u64;
        let stride = duration_ms / spells;
        (0..spells)
            .map(|k| {
                let center = k * stride + stride / 2;
                let start = center.saturating_sub(spell_len / 2);
                (start, (start + spell_len).min(duration_ms))
            })
            .collect()
    }
}

/// The complete fault model for one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Link-level delivery faults.
    pub link: LinkFaults,
    /// Observer-side faults.
    pub observer: ObserverFaults,
    /// Probability a found block loses a propagation race to a
    /// same-height competitor and is orphaned (never enters the chain).
    pub stale_tip_prob: f64,
}

impl FaultPlan {
    /// A fully inert plan: no fault draw ever happens under it.
    pub fn none() -> FaultPlan {
        FaultPlan {
            link: LinkFaults::none(),
            observer: ObserverFaults::none(),
            stale_tip_prob: 0.0,
        }
    }

    /// True when any fault can fire anywhere.
    pub fn enabled(&self) -> bool {
        self.link.enabled() || self.observer.enabled() || self.stale_tip_prob > 0.0
    }

    /// A calibrated plan at `intensity` in `[0, 1]`: every knob scales
    /// linearly from inert (0.0) to severely degraded (1.0) — at full
    /// intensity a fifth of deliveries are lost, the observer misses a
    /// third of the run, and most detail dumps are cut in half.
    ///
    /// Finite out-of-range intensities are clamped into `[0, 1]`; a
    /// non-finite intensity (NaN, ±∞) carries no usable scale at all and
    /// panics with the typed [`FaultPlanError`] message. Use
    /// [`FaultPlan::try_scaled`] to handle bad inputs without panicking.
    ///
    /// # Panics
    /// Panics when `intensity` is NaN or infinite.
    pub fn scaled(intensity: f64) -> FaultPlan {
        FaultPlan::try_scaled(intensity.clamp(0.0, 1.0))
            .unwrap_or_else(|e| panic!("FaultPlan::scaled: {e}"))
    }

    /// The checked form of [`FaultPlan::scaled`]: rejects non-finite and
    /// out-of-`[0, 1]` intensities with a typed error instead of clamping
    /// or propagating NaN into every probability knob (`NaN.clamp` is
    /// NaN, so an unchecked path would hand the RNG garbage draws).
    pub fn try_scaled(intensity: f64) -> Result<FaultPlan, FaultPlanError> {
        check_range("intensity", intensity, 0.0, 1.0)?;
        let i = intensity;
        if i == 0.0 {
            return Ok(FaultPlan::none());
        }
        Ok(FaultPlan {
            link: LinkFaults {
                loss_prob: 0.20 * i,
                spike_prob: 0.25 * i,
                spike_ms: (45_000.0 * i) as u64,
                duplicate_prob: 0.15 * i,
                reorder_prob: 0.25 * i,
                jitter_ms: (20_000.0 * i) as u64,
            },
            observer: ObserverFaults {
                downtime_frac: 0.35 * i,
                downtime_spells: 3,
                truncate_prob: 0.5 * i,
                truncate_keep_frac: 1.0 - 0.5 * i,
            },
            stale_tip_prob: 0.10 * i,
        })
    }

    /// Sanity checks, surfaced through `Scenario::validate`. Non-finite
    /// knobs are rejected before the range checks — `NaN` fails every
    /// comparison, so it would otherwise slip through an interval test
    /// written with `contains`.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        let probs = [
            ("link.loss_prob", self.link.loss_prob),
            ("link.spike_prob", self.link.spike_prob),
            ("link.duplicate_prob", self.link.duplicate_prob),
            ("link.reorder_prob", self.link.reorder_prob),
            ("observer.truncate_prob", self.observer.truncate_prob),
            ("observer.truncate_keep_frac", self.observer.truncate_keep_frac),
            ("stale_tip_prob", self.stale_tip_prob),
        ];
        for (name, p) in probs {
            check_range(name, p, 0.0, 1.0)?;
        }
        check_range("observer.downtime_frac", self.observer.downtime_frac, 0.0, 0.9)?;
        if self.observer.downtime_frac > 0.0 && self.observer.downtime_spells == 0 {
            return Err(FaultPlanError::MissingSpells);
        }
        if self.stale_tip_prob >= 1.0 {
            return Err(FaultPlanError::CertainStaleTip);
        }
        Ok(())
    }
}

/// A targeted observer partition: the named observer loses all its peers
/// for the half-open window `[start_secs, end_secs)`. Deliveries whose
/// arrival at that observer falls inside the window never reach it, and
/// snapshots it records inside the window are marked degraded — the
/// daemon is up, but its view is frozen at the eclipse's start.
///
/// Eclipses are fully deterministic (no RNG draw): a plan pins exactly
/// which arrivals and windows are affected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EclipseWindow {
    /// Fleet index of the eclipsed observer.
    pub observer: usize,
    /// Window start in simulation seconds (inclusive).
    pub start_secs: u64,
    /// Window end in simulation seconds (exclusive).
    pub end_secs: u64,
}

impl EclipseWindow {
    /// True when millisecond instant `t_ms` falls inside the window.
    /// The window is half-open: an event exactly at the opening edge is
    /// eclipsed, one exactly at the closing edge is not.
    pub fn contains_ms(&self, t_ms: u64) -> bool {
        t_ms >= self.start_secs * 1_000 && t_ms < self.end_secs * 1_000
    }
}

/// What a selectively-withholding peer refuses to relay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WithholdPredicate {
    /// Every transaction (a fully censoring neighborhood).
    All,
    /// Transactions bidding at or above a fee-rate floor — the adversary
    /// hides exactly the traffic an ordering audit cares most about.
    HighFee {
        /// Fee-rate floor in satoshis per kilo-vbyte.
        min_sat_per_kvb: u64,
    },
    /// Transactions issued from mining-pool wallets — hiding the
    /// self-interest transfers the §5.2 detector needs to see pending.
    MinerOrigin,
}

impl WithholdPredicate {
    /// Whether a transaction with the given provenance and fee rate
    /// matches this predicate.
    pub fn matches(&self, miner_origin: bool, fee_rate_sat_per_kvb: u64) -> bool {
        match self {
            WithholdPredicate::All => true,
            WithholdPredicate::HighFee { min_sat_per_kvb } => {
                fee_rate_sat_per_kvb >= *min_sat_per_kvb
            }
            WithholdPredicate::MinerOrigin => miner_origin,
        }
    }
}

/// A selectively-withholding peer neighborhood around one observer (or
/// the whole fleet): matching transactions are dropped on their way to
/// the target with probability `control` — the fraction of the target's
/// peers the adversary speaks for.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WithholdRule {
    /// Fleet index of the targeted observer; `None` targets every
    /// observer (each with an independent draw, so fleets recover what a
    /// single vantage point loses).
    pub observer: Option<usize>,
    /// Probability a matching delivery to the target is withheld.
    pub control: f64,
    /// Which transactions the adversary withholds.
    pub predicate: WithholdPredicate,
}

/// Spy-resistant diffusion delays: first-hop announcement stalling (à la
/// Dandelion stem phases or trickle timers) that postpones when
/// *observers* first hear of a transaction without delaying miners.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DiffusionDelay {
    /// Probability a (transaction, observer) first delivery is stalled.
    pub stall_prob: f64,
    /// Upper bound of the uniform extra delay, in milliseconds.
    pub max_stall_ms: u64,
}

/// The adversarial-observation model for one scenario: attacks on *what
/// the measurement fleet sees* rather than on the link substrate
/// ([`LinkFaults`]) or the observer daemon ([`ObserverFaults`]).
///
/// Like the fault plan, the empty plan — [`AdversaryPlan::none`] — is
/// bit-inert: the runner guards every draw behind
/// [`AdversaryPlan::enabled`] (and per-component checks), so a run under
/// the empty plan is byte-identical to one without adversary support.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversaryPlan {
    /// Targeted observer partitions.
    pub eclipses: Vec<EclipseWindow>,
    /// Selectively-withholding peer neighborhoods.
    pub withholds: Vec<WithholdRule>,
    /// First-hop announcement stalling toward observers.
    pub diffusion: Option<DiffusionDelay>,
}

impl AdversaryPlan {
    /// The empty plan: no adversary, no draw, bit-identical runs.
    pub fn none() -> AdversaryPlan {
        AdversaryPlan::default()
    }

    /// True when any attack can fire anywhere.
    pub fn enabled(&self) -> bool {
        !self.eclipses.is_empty()
            || self.withholds.iter().any(|w| w.control > 0.0)
            || self.diffusion.is_some_and(|d| d.stall_prob > 0.0)
    }

    /// Sanity checks against a fleet of `fleet_size` observers.
    pub fn validate(&self, fleet_size: usize) -> Result<(), FaultPlanError> {
        for e in &self.eclipses {
            if e.observer >= fleet_size {
                return Err(FaultPlanError::UnknownObserver { observer: e.observer, fleet_size });
            }
            if e.end_secs <= e.start_secs {
                return Err(FaultPlanError::EmptyEclipseWindow {
                    start_secs: e.start_secs,
                    end_secs: e.end_secs,
                });
            }
        }
        for w in &self.withholds {
            if let Some(obs) = w.observer {
                if obs >= fleet_size {
                    return Err(FaultPlanError::UnknownObserver { observer: obs, fleet_size });
                }
            }
            check_range("withhold.control", w.control, 0.0, 1.0)?;
        }
        if let Some(d) = self.diffusion {
            check_range("diffusion.stall_prob", d.stall_prob, 0.0, 1.0)?;
        }
        Ok(())
    }

    /// True when observer `obs` is eclipsed at millisecond instant `t_ms`.
    /// Deterministic; consumes no RNG state.
    pub fn eclipsed(&self, obs: usize, t_ms: u64) -> bool {
        self.eclipses.iter().any(|e| e.observer == obs && e.contains_ms(t_ms))
    }

    /// Whether the delivery of a transaction (with the given provenance
    /// and fee rate) to observer `obs` is withheld. One draw per rule
    /// whose target and predicate match — rules that cannot fire consume
    /// no RNG state, keeping the empty plan bit-inert.
    pub fn withholds_delivery(
        &self,
        obs: usize,
        miner_origin: bool,
        fee_rate_sat_per_kvb: u64,
        rng: &mut SimRng,
    ) -> bool {
        let mut withheld = false;
        for w in &self.withholds {
            if w.control <= 0.0 {
                continue;
            }
            if w.observer.is_some_and(|t| t != obs) {
                continue;
            }
            if !w.predicate.matches(miner_origin, fee_rate_sat_per_kvb) {
                continue;
            }
            // Draw for every matching rule (not short-circuiting on the
            // first hit) so the stream stays aligned across observers.
            if rng.next_bool(w.control) {
                withheld = true;
            }
        }
        withheld
    }

    /// Extra announcement delay toward an observer, in milliseconds.
    /// Draws only when diffusion stalling is enabled.
    pub fn diffusion_extra_ms(&self, rng: &mut SimRng) -> u64 {
        match self.diffusion {
            Some(d) if d.stall_prob > 0.0 && rng.next_bool(d.stall_prob) => {
                1 + rng.next_below(d.max_stall_ms.max(1))
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert_and_valid() {
        let plan = FaultPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan.validate(), Ok(()));
        assert!(plan.observer.downtime_windows_ms(86_400_000).is_empty());
    }

    #[test]
    fn scaled_zero_equals_none() {
        assert_eq!(FaultPlan::scaled(0.0), FaultPlan::none());
    }

    #[test]
    fn scaled_plans_validate_across_range() {
        for i in [0.1, 0.35, 0.6, 0.85, 1.0] {
            let plan = FaultPlan::scaled(i);
            assert!(plan.enabled(), "intensity {i} should enable faults");
            assert_eq!(plan.validate(), Ok(()), "intensity {i}");
        }
    }

    #[test]
    fn scaled_is_monotone_in_intensity() {
        let lo = FaultPlan::scaled(0.3);
        let hi = FaultPlan::scaled(0.9);
        assert!(hi.link.loss_prob > lo.link.loss_prob);
        assert!(hi.observer.downtime_frac > lo.observer.downtime_frac);
        assert!(hi.stale_tip_prob > lo.stale_tip_prob);
    }

    #[test]
    fn downtime_windows_cover_requested_fraction() {
        let obs = ObserverFaults {
            downtime_frac: 0.3,
            downtime_spells: 3,
            truncate_prob: 0.0,
            truncate_keep_frac: 1.0,
        };
        let duration = 600_000u64;
        let windows = obs.downtime_windows_ms(duration);
        assert_eq!(windows.len(), 3);
        let covered: u64 = windows.iter().map(|(s, e)| e - s).sum();
        let frac = covered as f64 / duration as f64;
        assert!((frac - 0.3).abs() < 0.02, "covered {frac}");
        // Windows are disjoint and ordered.
        for pair in windows.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "overlapping windows {windows:?}");
        }
    }

    #[test]
    fn invalid_plans_rejected() {
        let mut plan = FaultPlan::none();
        plan.link.loss_prob = 1.5;
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.observer.downtime_frac = 0.95;
        assert!(plan.validate().is_err());

        let mut plan = FaultPlan::none();
        plan.observer.downtime_frac = 0.2;
        plan.observer.downtime_spells = 0;
        assert!(plan.validate().is_err());
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let faults = LinkFaults { loss_prob: 0.4, ..LinkFaults::none() };
        let mut rng = SimRng::seed_from_u64(11);
        let lost = (0..10_000).filter(|_| faults.sample_delivery(&mut rng).is_none()).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.4).abs() < 0.03, "loss rate {rate}");
    }

    #[test]
    fn non_finite_knobs_rejected_with_typed_error() {
        assert!(matches!(
            FaultPlan::try_scaled(f64::NAN),
            Err(FaultPlanError::NonFinite { field: "intensity", value }) if value.is_nan()
        ));
        assert!(matches!(
            FaultPlan::try_scaled(f64::INFINITY),
            Err(FaultPlanError::NonFinite { field: "intensity", .. })
        ));
        assert_eq!(
            FaultPlan::try_scaled(-0.2),
            Err(FaultPlanError::OutOfRange { field: "intensity", value: -0.2, min: 0.0, max: 1.0 })
        );
        assert_eq!(FaultPlan::try_scaled(1.0), Ok(FaultPlan::scaled(1.0)));
        assert_eq!(FaultPlan::try_scaled(0.0), Ok(FaultPlan::none()));

        // A NaN smuggled into a knob no longer slips past validation.
        let mut plan = FaultPlan::none();
        plan.link.loss_prob = f64::NAN;
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::NonFinite { field: "link.loss_prob", .. })
        ));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn scaled_panics_on_nan_instead_of_propagating_it() {
        let _ = FaultPlan::scaled(f64::NAN);
    }

    #[test]
    fn scaled_clamps_finite_out_of_range() {
        assert_eq!(FaultPlan::scaled(-3.0), FaultPlan::none());
        assert_eq!(FaultPlan::scaled(7.5), FaultPlan::scaled(1.0));
    }

    #[test]
    fn empty_adversary_plan_is_inert_and_valid() {
        let plan = AdversaryPlan::none();
        assert!(!plan.enabled());
        assert_eq!(plan.validate(4), Ok(()));
        assert!(!plan.eclipsed(0, 0));
        // No knob on: sampling must consume no RNG state.
        let mut a = SimRng::seed_from_u64(5);
        let mut b = SimRng::seed_from_u64(5);
        assert!(!plan.withholds_delivery(0, true, 1_000_000, &mut a));
        assert_eq!(plan.diffusion_extra_ms(&mut a), 0);
        assert_eq!(a.next_raw(), b.next_raw());
    }

    #[test]
    fn eclipse_window_boundaries_are_half_open() {
        let e = EclipseWindow { observer: 1, start_secs: 100, end_secs: 200 };
        assert!(!e.contains_ms(99_999));
        assert!(e.contains_ms(100_000), "opening edge is eclipsed");
        assert!(e.contains_ms(199_999));
        assert!(!e.contains_ms(200_000), "closing edge is not");
        let plan = AdversaryPlan { eclipses: vec![e], ..AdversaryPlan::none() };
        assert!(plan.enabled());
        assert!(plan.eclipsed(1, 100_000));
        assert!(!plan.eclipsed(0, 100_000), "only the targeted observer");
        assert!(!plan.eclipsed(1, 200_000));
    }

    #[test]
    fn adversary_plan_validation_catches_bad_targets() {
        let plan = AdversaryPlan {
            eclipses: vec![EclipseWindow { observer: 4, start_secs: 0, end_secs: 10 }],
            ..AdversaryPlan::none()
        };
        assert_eq!(
            plan.validate(4),
            Err(FaultPlanError::UnknownObserver { observer: 4, fleet_size: 4 })
        );

        let plan = AdversaryPlan {
            eclipses: vec![EclipseWindow { observer: 0, start_secs: 10, end_secs: 10 }],
            ..AdversaryPlan::none()
        };
        assert!(matches!(plan.validate(1), Err(FaultPlanError::EmptyEclipseWindow { .. })));

        let plan = AdversaryPlan {
            withholds: vec![WithholdRule {
                observer: Some(9),
                control: 0.5,
                predicate: WithholdPredicate::All,
            }],
            ..AdversaryPlan::none()
        };
        assert!(matches!(plan.validate(2), Err(FaultPlanError::UnknownObserver { .. })));

        let plan = AdversaryPlan {
            withholds: vec![WithholdRule {
                observer: None,
                control: f64::NAN,
                predicate: WithholdPredicate::All,
            }],
            ..AdversaryPlan::none()
        };
        assert!(matches!(plan.validate(2), Err(FaultPlanError::NonFinite { .. })));

        let plan = AdversaryPlan {
            diffusion: Some(DiffusionDelay { stall_prob: 1.5, max_stall_ms: 100 }),
            ..AdversaryPlan::none()
        };
        assert!(matches!(plan.validate(2), Err(FaultPlanError::OutOfRange { .. })));
    }

    #[test]
    fn withhold_predicates_select_their_traffic() {
        assert!(WithholdPredicate::All.matches(false, 0));
        assert!(WithholdPredicate::HighFee { min_sat_per_kvb: 50_000 }.matches(false, 50_000));
        assert!(!WithholdPredicate::HighFee { min_sat_per_kvb: 50_000 }.matches(false, 49_999));
        assert!(WithholdPredicate::MinerOrigin.matches(true, 0));
        assert!(!WithholdPredicate::MinerOrigin.matches(false, 1_000_000));
    }

    #[test]
    fn withhold_rate_tracks_control_on_target_only() {
        let plan = AdversaryPlan {
            withholds: vec![WithholdRule {
                observer: Some(2),
                control: 0.6,
                predicate: WithholdPredicate::All,
            }],
            ..AdversaryPlan::none()
        };
        let mut rng = SimRng::seed_from_u64(17);
        let hits = (0..10_000).filter(|_| plan.withholds_delivery(2, false, 0, &mut rng)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.6).abs() < 0.03, "withhold rate {rate}");
        // A non-target observer is never withheld (and draws nothing).
        let mut a = SimRng::seed_from_u64(3);
        let mut b = SimRng::seed_from_u64(3);
        assert!(!plan.withholds_delivery(0, false, 0, &mut a));
        assert_eq!(a.next_raw(), b.next_raw());
    }

    #[test]
    fn diffusion_stall_bounded_and_sometimes_zero() {
        let plan = AdversaryPlan {
            diffusion: Some(DiffusionDelay { stall_prob: 0.5, max_stall_ms: 2_000 }),
            ..AdversaryPlan::none()
        };
        assert!(plan.enabled());
        let mut rng = SimRng::seed_from_u64(29);
        let mut stalled = 0;
        for _ in 0..5_000 {
            let extra = plan.diffusion_extra_ms(&mut rng);
            assert!(extra <= 2_000);
            if extra > 0 {
                stalled += 1;
            }
        }
        let rate = stalled as f64 / 5_000.0;
        assert!((rate - 0.5).abs() < 0.05, "stall rate {rate}");
    }

    #[test]
    fn error_display_is_informative() {
        let e = FaultPlanError::OutOfRange { field: "intensity", value: 2.0, min: 0.0, max: 1.0 };
        assert!(e.to_string().contains("intensity"), "{e}");
        assert!(FaultPlanError::MissingSpells.to_string().contains("spell"));
        let e = FaultPlanError::UnknownObserver { observer: 7, fleet_size: 4 };
        assert!(e.to_string().contains('7') && e.to_string().contains('4'), "{e}");
    }

    #[test]
    fn disabled_knobs_never_draw() {
        // A plan with everything off must not consume rng state even when
        // sampled — that is what keeps FaultPlan::none() bit-inert.
        let faults = LinkFaults::none();
        let mut a = SimRng::seed_from_u64(3);
        let b = SimRng::seed_from_u64(3);
        assert_eq!(faults.sample_delivery(&mut a), Some(0));
        assert_eq!(faults.sample_duplicate(&mut a), None);
        let mut a2 = a;
        let mut b2 = b;
        assert_eq!(a2.next_raw(), b2.next_raw());
    }
}
