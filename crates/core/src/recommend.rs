//! The end-user flow of §5.5: size estimator → cluster-configuration
//! selector → execution-time predictor → cost estimator → Pareto menu.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use dagflow::Schedule;

/// Pricing model turning (machines, seconds) into money-equivalent cost.
/// The paper uses machine-minutes and notes the model "can be replaced
/// with other pricing models".
pub trait CostModel {
    /// Cost of running `machines` machines for `seconds`.
    fn cost(&self, machines: u32, seconds: f64) -> f64;
    /// Unit label for display.
    fn unit(&self) -> &'static str;
}

/// The paper's `#machines × time` pricing, in machine-minutes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineMinutes;

impl CostModel for MachineMinutes {
    fn cost(&self, machines: u32, seconds: f64) -> f64 {
        f64::from(machines) * seconds / 60.0
    }
    fn unit(&self) -> &'static str {
        "machine-min"
    }
}

/// A tiered hourly price list (cloud-style: whole machine-hours, with a
/// volume discount above a machine threshold). Ships as the example of a
/// replaceable pricing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TieredHourly {
    /// Price per machine-hour.
    pub per_machine_hour: f64,
    /// Machines above this count get the discounted rate.
    pub discount_threshold: u32,
    /// Discount multiplier for machines past the threshold.
    pub discount: f64,
}

impl CostModel for TieredHourly {
    fn cost(&self, machines: u32, seconds: f64) -> f64 {
        let hours = (seconds / 3600.0).ceil().max(1.0);
        let base = machines.min(self.discount_threshold);
        let extra = machines.saturating_sub(self.discount_threshold);
        (f64::from(base) + f64::from(extra) * self.discount) * hours * self.per_machine_hour
    }
    fn unit(&self) -> &'static str {
        "$"
    }
}

/// One menu entry: a schedule with its recommendation and predictions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Index of the schedule in the trained family.
    pub schedule_index: usize,
    /// The schedule itself (shared with the trained family — menu
    /// construction never deep-copies schedules).
    pub schedule: Arc<Schedule>,
    /// Predicted total size of the cached datasets, bytes.
    pub predicted_size_bytes: u64,
    /// Recommended machine count (Eq. 6).
    pub machines: u32,
    /// Predicted execution time, seconds.
    pub predicted_time_s: f64,
    /// Predicted cost in machine-minutes.
    pub predicted_cost_machine_min: f64,
}

impl Recommendation {
    /// Whether both predictions are finite — a degenerate NNLS fit can
    /// emit NaN or ±inf, which must never crash menu construction.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.predicted_time_s.is_finite() && self.predicted_cost_machine_min.is_finite()
    }
}

/// The menu returned to the end user: Pareto-efficient schedules only
/// ("Juggler does not offer a schedule if another one is faster and
/// cheaper"), plus the dominated ones for inspection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendationMenu {
    /// Pareto-efficient options, cheapest first.
    pub options: Vec<Recommendation>,
    /// Options suppressed because another is both faster and cheaper.
    pub dominated: Vec<Recommendation>,
    /// Candidates quarantined because a prediction was NaN or infinite
    /// (degenerate model fit) — reported, never offered.
    pub invalid: Vec<Recommendation>,
}

impl RecommendationMenu {
    /// Splits candidates into Pareto-efficient, dominated, and invalid
    /// (non-finite prediction) sets. Never panics: non-finite candidates
    /// are quarantined into [`RecommendationMenu::invalid`] before the
    /// Pareto pass, and the cost sort uses [`f64::total_cmp`].
    #[must_use]
    pub fn from_candidates(candidates: Vec<Recommendation>) -> Self {
        let (candidates, invalid): (Vec<_>, Vec<_>) =
            candidates.into_iter().partition(Recommendation::is_finite);
        let mut dominated_flags = vec![false; candidates.len()];
        for i in 0..candidates.len() {
            for j in 0..candidates.len() {
                if i == j {
                    continue;
                }
                let faster =
                    candidates[j].predicted_time_s < candidates[i].predicted_time_s - 1e-12;
                let cheaper = candidates[j].predicted_cost_machine_min
                    < candidates[i].predicted_cost_machine_min - 1e-12;
                if faster && cheaper {
                    dominated_flags[i] = true;
                    break;
                }
            }
        }
        let mut options = Vec::new();
        let mut dominated = Vec::new();
        for (i, c) in candidates.into_iter().enumerate() {
            if dominated_flags[i] {
                dominated.push(c);
            } else {
                options.push(c);
            }
        }
        options.sort_by(|a, b| {
            a.predicted_cost_machine_min
                .total_cmp(&b.predicted_cost_machine_min)
        });
        if let Some(reg) = obs::Registry::current() {
            reg.counter("recommend_menus_total", "recommendation menus constructed")
                .inc();
            reg.counter("recommend_options_total", "Pareto-surviving menu options")
                .add(options.len() as u64);
            reg.counter("recommend_dominated_total", "Pareto-dominated candidates")
                .add(dominated.len() as u64);
            reg.counter(
                "recommend_invalid_total",
                "candidates quarantined for non-finite predictions",
            )
            .add(invalid.len() as u64);
        }
        RecommendationMenu {
            options,
            dominated,
            invalid,
        }
    }

    /// The minimal-cost option (the paper's headline recommendation).
    #[must_use]
    pub fn cheapest(&self) -> Option<&Recommendation> {
        self.options.first()
    }

    /// The minimal-time option among Pareto survivors.
    #[must_use]
    pub fn fastest(&self) -> Option<&Recommendation> {
        self.options
            .iter()
            .min_by(|a, b| a.predicted_time_s.total_cmp(&b.predicted_time_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(idx: usize, time: f64, cost: f64) -> Recommendation {
        Recommendation {
            schedule_index: idx,
            schedule: Arc::new(Schedule::empty()),
            predicted_size_bytes: 0,
            machines: 1,
            predicted_time_s: time,
            predicted_cost_machine_min: cost,
        }
    }

    #[test]
    fn machine_minutes_cost() {
        assert_eq!(MachineMinutes.cost(7, 120.0), 14.0);
        assert_eq!(MachineMinutes.unit(), "machine-min");
    }

    #[test]
    fn tiered_pricing_discounts_large_clusters() {
        let p = TieredHourly {
            per_machine_hour: 1.0,
            discount_threshold: 4,
            discount: 0.5,
        };
        // 8 machines, 30 min → 1 billed hour: 4 full + 4 half = 6.
        assert_eq!(p.cost(8, 1800.0), 6.0);
        // Hours round up.
        assert_eq!(p.cost(1, 3700.0), 2.0);
    }

    #[test]
    fn dominated_schedules_are_suppressed() {
        // Option 1 is both faster and cheaper than option 0.
        let menu =
            RecommendationMenu::from_candidates(vec![rec(0, 100.0, 50.0), rec(1, 80.0, 40.0)]);
        assert_eq!(menu.options.len(), 1);
        assert_eq!(menu.options[0].schedule_index, 1);
        assert_eq!(menu.dominated.len(), 1);
    }

    #[test]
    fn tradeoff_schedules_both_survive() {
        // Faster but more expensive vs slower but cheaper: keep both.
        let menu =
            RecommendationMenu::from_candidates(vec![rec(0, 100.0, 30.0), rec(1, 60.0, 45.0)]);
        assert_eq!(menu.options.len(), 2);
        assert_eq!(menu.cheapest().unwrap().schedule_index, 0);
        assert_eq!(menu.fastest().unwrap().schedule_index, 1);
    }

    #[test]
    fn options_sorted_by_cost() {
        let menu = RecommendationMenu::from_candidates(vec![
            rec(0, 10.0, 90.0),
            rec(1, 30.0, 20.0),
            rec(2, 20.0, 50.0),
        ]);
        let costs: Vec<f64> = menu
            .options
            .iter()
            .map(|o| o.predicted_cost_machine_min)
            .collect();
        assert_eq!(costs, vec![20.0, 50.0, 90.0]);
    }

    #[test]
    fn equal_predictions_are_not_dominated() {
        let menu =
            RecommendationMenu::from_candidates(vec![rec(0, 50.0, 25.0), rec(1, 50.0, 25.0)]);
        assert_eq!(menu.options.len(), 2);
    }

    /// Regression: NaN/inf predictions from a degenerate fit used to panic
    /// in `partial_cmp().expect(...)`; now they are quarantined.
    #[test]
    fn non_finite_predictions_are_quarantined_not_panicking() {
        let menu = RecommendationMenu::from_candidates(vec![
            rec(0, f64::NAN, 10.0),
            rec(1, 50.0, f64::INFINITY),
            rec(2, f64::NEG_INFINITY, f64::NAN),
            rec(3, 60.0, 20.0),
            rec(4, 40.0, 30.0),
        ]);
        assert_eq!(menu.invalid.len(), 3);
        let bad: Vec<usize> = menu.invalid.iter().map(|r| r.schedule_index).collect();
        assert_eq!(bad, vec![0, 1, 2]);
        // The finite candidates still form a menu; neither dominates.
        assert_eq!(menu.options.len(), 2);
        assert_eq!(menu.cheapest().unwrap().schedule_index, 3);
        assert_eq!(menu.fastest().unwrap().schedule_index, 4);
    }

    /// Regression: an all-non-finite candidate set yields an empty (not
    /// crashing) menu with everything reported.
    #[test]
    fn all_non_finite_candidates_yield_empty_menu() {
        let menu = RecommendationMenu::from_candidates(vec![
            rec(0, f64::NAN, f64::NAN),
            rec(1, f64::INFINITY, 1.0),
        ]);
        assert!(menu.options.is_empty());
        assert!(menu.dominated.is_empty());
        assert_eq!(menu.invalid.len(), 2);
        assert!(menu.cheapest().is_none());
        assert!(menu.fastest().is_none());
    }
}
