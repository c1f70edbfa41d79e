//! Property tests for marker-summary invariants through the public API.

use opinedb::core::summary::{
    AssignMode, Marker, MarkerSet, MarkerSummary, PhraseContribution, SummaryKind,
};
use proptest::prelude::*;

/// A small deterministic marker set over a `dim`-dimensional space, with
/// markers at the unit axes.
fn axis_markers(k: usize, dim: usize, kind: SummaryKind) -> MarkerSet {
    MarkerSet {
        attribute: "attr".into(),
        kind,
        markers: (0..k)
            .map(|i| {
                let mut rep = vec![0.0f32; dim];
                rep[i % dim] = 1.0;
                Marker::new(format!("m{i}"), rep, i as f64 / k as f64)
            })
            .collect(),
    }
}

proptest! {
    /// Total mass equals the number of added phrases; matched + unmatched
    /// partition it; fractions sum to 1 when anything matched.
    #[test]
    fn mass_conservation(
        phrases in prop::collection::vec(
            (prop::collection::vec(-1.0f32..=1.0, 4), -1.0f64..=1.0), 1..30),
        mode in prop::sample::select(vec![AssignMode::Best, AssignMode::Proportional]),
    ) {
        let set = axis_markers(3, 4, SummaryKind::Linear);
        let mut summary = MarkerSummary::empty(3);
        for (rep, senti) in &phrases {
            summary.add(&PhraseContribution::compute(rep, *senti, &set, mode, 0.1));
        }
        prop_assert!((summary.total - phrases.len() as f64).abs() < 1e-9);
        let matched = summary.matched_mass();
        prop_assert!(matched <= summary.total + 1e-9);
        prop_assert!((matched + summary.unmatched - summary.total).abs() < 1e-6);
        if matched > 1e-9 {
            let frac_sum: f64 = summary.fractions().iter().sum();
            prop_assert!((frac_sum - 1.0).abs() < 1e-6, "fractions sum {frac_sum}");
        }
        prop_assert!((0.0..=1.0).contains(&summary.unmatched_fraction()));
    }

    /// Proportional assignment never concentrates more mass on a marker
    /// than best assignment does on its winner, and both conserve mass.
    #[test]
    fn assignment_mass_is_one(rep in prop::collection::vec(-1.0f32..=1.0, 4)) {
        for kind in [SummaryKind::Linear, SummaryKind::Categorical] {
            let set = axis_markers(4, 4, kind);
            for mode in [AssignMode::Best, AssignMode::Proportional] {
                let assigned = set.assign(&rep, mode);
                let mass: f64 = assigned.iter().map(|(_, w)| w).sum();
                prop_assert!((mass - 1.0).abs() < 1e-9);
                for (idx, w) in &assigned {
                    prop_assert!(*idx < set.markers.len());
                    prop_assert!(*w >= 0.0 && *w <= 1.0 + 1e-9);
                }
            }
        }
    }

    /// Incremental aggregation is order-insensitive — *bit-exactly* so,
    /// now that accumulators are fixed-point integers.
    #[test]
    fn histogram_is_order_insensitive(
        mut phrases in prop::collection::vec(
            (prop::collection::vec(-1.0f32..=1.0, 4), -1.0f64..=1.0), 2..15),
    ) {
        let set = axis_markers(3, 4, SummaryKind::Linear);
        let run = |ps: &[(Vec<f32>, f64)]| {
            let mut s = MarkerSummary::empty(3);
            for (rep, senti) in ps {
                s.add(&PhraseContribution::compute(rep, *senti, &set, AssignMode::Best, 0.1));
            }
            s
        };
        let forward = run(&phrases);
        phrases.reverse();
        let backward = run(&phrases);
        prop_assert!(forward.same_aggregates(&backward));
        for (a, b) in forward.counts().iter().zip(&backward.counts()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert!((forward.unmatched - backward.unmatched).abs() < 1e-9);
    }
}
