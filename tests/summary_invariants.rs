//! Property tests for marker-summary invariants through the public API.

use opinedb::core::summary::{AssignMode, Marker, MarkerSet, MarkerSummary, SummaryKind};
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
                Marker {
                    phrase: format!("m{i}"),
                    rep,
                    sentiment: i as f64 / k as f64,
                }
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
        for (i, (rep, senti)) in phrases.iter().enumerate() {
            summary.add_phrase("p", rep, *senti, &set, mode, 0.1, i);
        }
        prop_assert!((summary.total - phrases.len() as f64).abs() < 1e-9);
        let matched = summary.matched_mass();
        prop_assert!(matched <= summary.total + 1e-9);
        prop_assert!((matched + summary.unmatched - summary.total).abs() < 1e-6);
        prop_assert_eq!(summary.provenance.len(), phrases.len());
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
            for (i, (rep, senti)) in ps.iter().enumerate() {
                s.add_phrase("p", rep, *senti, &set, AssignMode::Best, 0.1, i);
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

    /// The tentpole property: building partial summaries over any
    /// partition of the phrases and merging them — in any order — is
    /// bit-identical to the from-scratch build over all phrases.
    /// Fixed-point accumulation makes merge exactly associative and
    /// commutative, which is what lets the engine merge a live delta
    /// cell's summary into the build-time one, and fold a qualified
    /// summary in storage order, with the reference's bits.
    #[test]
    fn merge_of_partition_is_bit_identical_to_from_scratch(
        phrases in prop::collection::vec(
            (prop::collection::vec(-1.0f32..=1.0, 4), -1.0f64..=1.0), 1..24),
        assignment in prop::collection::vec(0usize..4, 24),
        mode in prop::sample::select(vec![AssignMode::Best, AssignMode::Proportional]),
        merge_backwards in prop::sample::select(vec![false, true]),
    ) {
        let set = axis_markers(3, 4, SummaryKind::Linear);
        // From-scratch build over every phrase, in order.
        let mut whole = MarkerSummary::empty(3);
        for (i, (rep, senti)) in phrases.iter().enumerate() {
            whole.add_phrase("p", rep, *senti, &set, mode, 0.1, i);
        }
        // Partition phrases into up to 4 parts by the random assignment
        // and build each part independently.
        let mut parts: Vec<MarkerSummary> = (0..4).map(|_| MarkerSummary::empty(3)).collect();
        for (i, (rep, senti)) in phrases.iter().enumerate() {
            parts[assignment[i]].add_phrase("p", rep, *senti, &set, mode, 0.1, i);
        }
        let mut merged = MarkerSummary::empty(3);
        if merge_backwards {
            for p in parts.iter().rev() {
                merged.merge(p);
            }
        } else {
            for p in &parts {
                merged.merge(p);
            }
        }
        prop_assert!(merged.same_aggregates(&whole),
            "merged {:?}/{:?} vs whole {:?}/{:?}",
            merged.counts(), merged.total, whole.counts(), whole.total);
        for i in 0..3 {
            prop_assert_eq!(merged.count(i).to_bits(), whole.count(i).to_bits());
            prop_assert_eq!(
                merged.sentiment_mean(i).to_bits(),
                whole.sentiment_mean(i).to_bits()
            );
        }
        prop_assert_eq!(merged.matched_mass().to_bits(), whole.matched_mass().to_bits());
        prop_assert_eq!(merged.provenance.len(), whole.provenance.len());
    }
}
