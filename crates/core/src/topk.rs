//! Fagin's Threshold Algorithm for fuzzy top-k (the classic technique the
//! paper cites as [15] for efficient evaluation of fuzzy selections).
//!
//! Given one degree column per distinct predicate and the statement's
//! [`Residue`] as the combiner (the WHERE tree as parsed, under either
//! fuzzy algebra), TA scans the per-predicate *sorted orders* in
//! parallel, random-accessing each newly seen entity's degrees, and
//! stops as soon as the k-th best combined score beats the threshold —
//! the residue evaluated at the degrees of the current scan positions.
//! That bound is sound for any residue monotone in every list (product,
//! min, max and product-OR all are, and rounding keeps them so); a NOT
//! is not, and its residue is scanned.
//!
//! There is one TA kernel, [`threshold_topk`]: degrees live in
//! entity-id-indexed `f64` columns (O(1) random access, no hashing),
//! seen-tracking is a `Vec<bool>` bitmap, the current top-k is a
//! fixed-size binary min-heap, and an `is_candidate` filter restricts
//! sorted access to the executor's objective prefilter. It needs every
//! column's sorted order; [`scan_topk`] answers the same question from
//! the columns alone — combine every candidate, select the k best — for
//! the statements where building or walking the orders costs more than
//! one pass, and for the residues TA cannot bound
//! (`AtPin::rank_top_k_filtered` chooses). The reference they are
//! tested against is `reference::full_scan_topk_dense`.
//!
//! Ranking is a total order: combined degree descending, entity id
//! ascending on ties. TA, the scan and the full-scan reference combine
//! through [`Residue::score`] and break ties identically, which the
//! property tests assert exactly. The kernels score a flat conjunction
//! of every column ([`Residue::is_conjunction`], decided once per call)
//! with [`Residue::conjoin`] straight across the columns: the same fold,
//! without the tree walk.

use opine_store::{FuzzyAlgebra, Residue};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A ranked candidate; the `Ord` impl is the ranking total order
/// (higher degree first, smaller entity id on ties).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    score: f64,
    entity: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Greater = ranks earlier; defined via `rank_cmp` (where Less =
        // ranks earlier) so there is exactly one ranking rule to edit.
        rank_cmp(&(self.entity, self.score), &(other.entity, other.score)).reverse()
    }
}

/// The ranking comparator shared by every entry point: combined degree
/// descending, entity id ascending on ties.
#[inline]
pub fn rank_cmp(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0))
}

/// Top-k entities by `residue`'s degree under `algebra` over dense
/// columns, with **restricted sorted access**: only entities for which
/// `is_candidate` returns true are eligible (the executor's
/// objective-prefilter bitmap, mapped to entity ids; `|_| true` ranks
/// everything).
///
/// * `columns[leaf][e]` — degree of entity `e` under the residue's leaf
///   `leaf`; all columns must have the same length (one slot per
///   entity).
/// * `sorted[leaf]` — **all** entity ids in descending-degree order for
///   that column (ties in any order): TA's sorted-access sequence. A
///   list that runs out of candidates has therefore shown every
///   candidate, and the scan stops.
/// * `residue` must be [`Residue::is_monotone`].
///
/// Each list keeps its own cursor and skips non-candidates, so the
/// stopping threshold is the residue evaluated at the degrees of the
/// last **candidate** accessed per list. Any unseen candidate sits
/// deeper than every cursor, so each of its degrees is at most its
/// list's bound and, the residue being monotone, its score at most the
/// threshold — the plain at-depth threshold would be needlessly loose
/// (or, with lockstep depth, scan non-candidates forever on selective
/// filters).
///
/// Returns `(entity, combined degree)` in ranking order; only candidate
/// entities appear, fewer than `k` when there are fewer of them.
pub fn threshold_topk<C, S, F>(
    columns: &[C],
    sorted: &[S],
    residue: &Residue,
    algebra: FuzzyAlgebra,
    k: usize,
    is_candidate: F,
) -> Vec<(usize, f64)>
where
    C: AsRef<[f64]>,
    S: AsRef<[u32]>,
    F: Fn(usize) -> bool,
{
    assert_eq!(
        columns.len(),
        sorted.len(),
        "one sorted order per degree column"
    );
    assert!(
        residue.is_monotone(),
        "sorted access cannot bound a residue with a NOT"
    );
    if columns.is_empty() || k == 0 {
        return Vec::new();
    }
    let columns: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
    let sorted: Vec<&[u32]> = sorted.iter().map(AsRef::as_ref).collect();
    let flat = residue.is_conjunction(columns.len());
    let mut seen = vec![false; columns[0].len()];
    // Min-heap of the current top-k: the root is the candidate that would
    // be evicted first (lowest score, then largest entity id).
    let mut best: BinaryHeap<Reverse<Candidate>> = BinaryHeap::with_capacity(k + 1);
    // Heap evictions are counted locally and flushed to the ambient
    // trace once per call, so the loop body stays atomic-free.
    let mut heap_pops = 0u64;
    let mut cursors = vec![0usize; sorted.len()];
    // Degree of the last candidate accessed per list.
    let mut bounds = vec![0.0f64; sorted.len()];

    'scan: loop {
        // Cancellation checkpoint per sorted-access round: an expired
        // request deadline unwinds out of the scan here instead of
        // walking the remaining entities.
        opine_faults::checkpoint();
        for (p, order) in sorted.iter().enumerate() {
            let mut cur = cursors[p];
            while let Some(&e) = order.get(cur) {
                if is_candidate(e as usize) {
                    break;
                }
                // The non-candidate skip can walk a long sparse prefix;
                // keep the deadline honest while it does.
                opine_faults::checkpoint();
                cur += 1;
            }
            let Some(&e) = order.get(cur) else {
                // This list is out of candidates; since it covers every
                // entity, all candidates have been seen.
                break 'scan;
            };
            cursors[p] = cur + 1;
            let entity = e as usize;
            bounds[p] = columns[p][entity];
            if seen[entity] {
                continue;
            }
            seen[entity] = true;
            let candidate = Candidate {
                score: if flat {
                    Residue::conjoin(algebra, columns.iter().map(|c| c[entity]))
                } else {
                    residue.score(algebra, &|leaf| columns[leaf][entity])
                },
                entity,
            };
            if best.len() < k {
                best.push(Reverse(candidate));
            } else if candidate > best.peek().expect("non-empty heap").0 {
                best.pop();
                heap_pops += 1;
                best.push(Reverse(candidate));
            }
        }

        // Strict inequality: at equality an unseen candidate could still
        // tie the k-th candidate and win the entity-id tiebreak.
        if best.len() >= k {
            let threshold = if flat {
                Residue::conjoin(algebra, bounds.iter().copied())
            } else {
                residue.score(algebra, &|leaf| bounds[leaf])
            };
            if best.peek().expect("non-empty heap").0.score > threshold {
                break;
            }
        }
    }
    if heap_pops != 0 {
        opine_trace::count("ta_topk", "heap_pops", heap_pops);
    }

    let mut out: Vec<(usize, f64)> = best
        .into_iter()
        .map(|Reverse(c)| (c.entity, c.score))
        .collect();
    out.sort_by(rank_cmp);
    out
}

/// Top-k of `candidates` (`count` entity ids, each at most once) by
/// `residue`'s degree under `algebra`, without sorted orders: one pass
/// over the candidates, select the k best in O(candidates), order only
/// the winners. Any residue, NOT included. Same combining expression and
/// comparator as [`threshold_topk`], so the two return the same pairs
/// bit for bit.
pub fn scan_topk<C: AsRef<[f64]>>(
    columns: &[C],
    residue: &Residue,
    algebra: FuzzyAlgebra,
    k: usize,
    candidates: impl Iterator<Item = usize>,
    count: usize,
) -> Vec<(usize, f64)> {
    if columns.is_empty() || k == 0 {
        return Vec::new();
    }
    let columns: Vec<&[f64]> = columns.iter().map(AsRef::as_ref).collect();
    let flat = residue.is_conjunction(columns.len());
    let mut scored = Vec::with_capacity(count);
    for e in candidates {
        opine_faults::checkpoint();
        let score = if flat {
            Residue::conjoin(algebra, columns.iter().map(|c| c[e]))
        } else {
            residue.score(algebra, &|leaf| columns[leaf][e])
        };
        scored.push((e, score));
    }
    if scored.len() > k {
        scored.select_nth_unstable_by(k - 1, rank_cmp);
        scored.truncate(k);
    }
    scored.sort_by(rank_cmp);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DegreeColumn;
    use crate::reference::full_scan_topk_dense;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn columns(degrees: &[&[f64]]) -> Vec<DegreeColumn> {
        degrees
            .iter()
            .map(|d| DegreeColumn::new(d.to_vec()))
            .collect()
    }

    /// `leaf 0 and leaf 1 and …` over every column, the shape most
    /// tests below rank under the product algebra.
    fn product(columns: &[DegreeColumn]) -> Residue {
        Residue::conjunction(columns.len()).unwrap_or(Residue::Leaf(0))
    }

    /// The kernel over columns whose sorted orders come from the
    /// production sort.
    fn ta_with(
        columns: &[DegreeColumn],
        residue: &Residue,
        algebra: FuzzyAlgebra,
        k: usize,
        is_candidate: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        let orders: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
        threshold_topk(&degrees, &orders, residue, algebra, k, is_candidate)
    }

    fn ta(
        columns: &[DegreeColumn],
        k: usize,
        is_candidate: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let residue = product(columns);
        ta_with(columns, &residue, FuzzyAlgebra::Product, k, is_candidate)
    }

    fn full_scan(columns: &[DegreeColumn], k: usize) -> Vec<(usize, f64)> {
        let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        full_scan_topk_dense(&degrees, &product(columns), FuzzyAlgebra::Product, k)
    }

    fn random_columns(
        rng: &mut StdRng,
        predicates: usize,
        n: usize,
        mut degree: impl FnMut(&mut StdRng) -> f64,
    ) -> Vec<DegreeColumn> {
        (0..predicates)
            .map(|_| DegreeColumn::new((0..n).map(|_| degree(rng)).collect()))
            .collect()
    }

    #[test]
    fn matches_full_scan_on_small_case() {
        let cols = columns(&[&[0.9, 0.8, 0.1], &[0.2, 0.9, 0.9]]);
        let top = ta(&cols, 2, |_| true);
        assert_eq!(top, full_scan(&cols, 2));
        assert_eq!(top[0].0, 1); // 0.8 * 0.9 = 0.72 is the best product
    }

    #[test]
    fn matches_full_scan_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let cols = random_columns(&mut rng, 3, 50, |rng| rng.gen::<f64>());
            assert_eq!(
                ta(&cols, 5, |_| true),
                full_scan(&cols, 5),
                "TA must equal the reference exactly"
            );
        }
    }

    #[test]
    fn matches_full_scan_with_heavy_ties() {
        // Quantized degrees force score ties; ranking must still agree
        // exactly because both sides tiebreak on entity id.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let cols = random_columns(&mut rng, 2, 30, |rng| {
                f64::from(rng.gen_range(0..4u32)) / 4.0
            });
            for k in [1, 3, 7, 30] {
                assert_eq!(ta(&cols, k, |_| true), full_scan(&cols, k), "k={k}");
            }
        }
    }

    #[test]
    fn early_termination_happens() {
        // One dominant entity: TA should stop after ~1 depth.
        let degrees: Vec<f64> = (0..1000)
            .map(|e| if e == 0 { 1.0 } else { 0.001 })
            .collect();
        let top = ta(&columns(&[&degrees, &degrees]), 1, |_| true);
        assert_eq!(top[0].0, 0);
        assert!((top[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        assert!(ta(&[], 3, |_| true).is_empty());
        assert!(ta(&columns(&[&[0.5]]), 0, |_| true).is_empty());
        assert!(full_scan(&[], 3).is_empty());
    }

    #[test]
    fn k_larger_than_entity_count() {
        assert_eq!(ta(&columns(&[&[0.5, 0.4]]), 10, |_| true).len(), 2);
    }

    #[test]
    fn sparse_entity_ids_are_not_fabricated() {
        // Only ids 5 and 7 are entities of the ranked set: the ids below
        // them must not come back as zero-score results.
        let cols = columns(&[&[0.0, 0.0, 0.0, 0.0, 0.0, 0.9, 0.0, 0.2]]);
        let top = ta(&cols, 4, |e| e == 5 || e == 7);
        assert_eq!(top, vec![(5, 0.9), (7, 0.2)]);
    }

    /// Filtered full-scan reference: combine candidate entities only.
    fn full_scan_filtered(
        columns: &[DegreeColumn],
        k: usize,
        is_candidate: impl Fn(usize) -> bool,
    ) -> Vec<(usize, f64)> {
        let residue = product(columns);
        let mut combined: Vec<(usize, f64)> = (0..columns[0].len())
            .filter(|&e| is_candidate(e))
            .map(|e| {
                let score =
                    residue.score(FuzzyAlgebra::Product, &|leaf| columns[leaf].degrees()[e]);
                (e, score)
            })
            .collect();
        combined.sort_by(rank_cmp);
        combined.truncate(k);
        combined
    }

    /// A random residue of depth ≤ `depth` over `leaves` columns; NOTs
    /// only when `negate`.
    fn random_residue(rng: &mut StdRng, leaves: usize, depth: usize, negate: bool) -> Residue {
        if depth == 0 || rng.gen_range(0..4) == 0 {
            return Residue::Leaf(rng.gen_range(0..leaves));
        }
        let sub = |rng: &mut StdRng| random_residue(rng, leaves, depth - 1, negate);
        let operands = |rng: &mut StdRng| (0..rng.gen_range(2..4)).map(|_| sub(rng)).collect();
        match rng.gen_range(0..if negate { 3 } else { 2 }) {
            0 => Residue::And(operands(rng)),
            1 => Residue::Or(operands(rng)),
            _ => Residue::Not(Box::new(sub(rng))),
        }
    }

    #[test]
    fn filtered_ta_matches_filtered_full_scan() {
        let mut rng = StdRng::seed_from_u64(123);
        for round in 0..30 {
            // Quantize every other round to force ties.
            let cols = random_columns(&mut rng, 3, 80, |rng| {
                if round % 2 == 0 {
                    rng.gen::<f64>()
                } else {
                    f64::from(rng.gen_range(0..5u32)) / 5.0
                }
            });
            // Selective, mid, and non-selective candidate sets.
            let masks: Vec<Box<dyn Fn(usize) -> bool>> = vec![
                Box::new(|e| e % 13 == 0),
                Box::new(|e| e % 2 == 0),
                Box::new(|_| true),
                Box::new(|_| false),
            ];
            for mask in &masks {
                for k in [1, 4, 200] {
                    assert_eq!(
                        ta(&cols, k, mask),
                        full_scan_filtered(&cols, k, mask),
                        "round {round} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn filtered_ta_with_all_candidates_equals_unfiltered() {
        let mut rng = StdRng::seed_from_u64(7);
        let cols = random_columns(&mut rng, 2, 120, |rng| rng.gen::<f64>());
        let all = [true; 120];
        assert_eq!(ta(&cols, 9, |e| all[e]), ta(&cols, 9, |_| true));
        assert_eq!(ta(&cols, 9, |e| all[e]), full_scan(&cols, 9));
    }

    #[test]
    fn filtered_ta_early_terminates_on_selective_filters() {
        // One dominant candidate among many non-candidates: the cursor
        // skipping must still find it and stop (this is a liveness
        // check — an at-depth threshold would walk all 10k rows).
        let degrees: Vec<f64> = (0..10_000)
            .map(|e| if e == 4242 { 0.95 } else { 0.5 })
            .collect();
        let top = ta(&columns(&[&degrees, &degrees]), 1, |e| e == 4242);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].0, 4242);
        assert!((top[0].1 - 0.95 * 0.95).abs() < 1e-12);
    }

    /// The production scan against both the TA kernel and the reference,
    /// on the inputs where a selection could diverge from a sort: score
    /// ties across the k-th place (quantized degrees), both zeros (equal
    /// as numbers, ordered by `total_cmp`), `k` at and past either end,
    /// and candidate sets from empty to everything. The first 60 rounds
    /// rank the product conjunction of every column, the shape most
    /// statements take; the next 120 rank random residues (AND / OR, a
    /// leaf repeated, NOT for the scan alone) and conjunctions under both
    /// algebras.
    #[test]
    fn scan_equals_ta_and_the_reference() {
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..180 {
            let n = rng.gen_range(1..90usize);
            let predicates = rng.gen_range(1..4usize);
            let cols = random_columns(&mut rng, predicates, n, |rng| match round % 3 {
                0 => rng.gen::<f64>(),
                1 => f64::from(rng.gen_range(0..4u32)) / 4.0,
                _ => [0.0, -0.0, 0.5, 1.0][rng.gen_range(0..4usize)],
            });
            let (residue, algebra) = if round < 60 {
                (product(&cols), FuzzyAlgebra::Product)
            } else {
                let residue = match (round / 6) % 3 {
                    0 => product(&cols),
                    1 => random_residue(&mut rng, predicates, 3, false),
                    _ => random_residue(&mut rng, predicates, 3, true),
                };
                (
                    residue,
                    [FuzzyAlgebra::Product, FuzzyAlgebra::Godel][round % 2],
                )
            };
            let degrees: Vec<&[f64]> = cols.iter().map(|c| c.degrees()).collect();
            let bits = |ranked: Vec<(usize, f64)>| -> Vec<(usize, u64)> {
                ranked.into_iter().map(|(e, s)| (e, s.to_bits())).collect()
            };
            let keep: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.15).collect();
            let lone = rng.gen_range(0..n);
            for k in [0, 1, n / 2, n, n + 1] {
                assert_eq!(
                    bits(scan_topk(&degrees, &residue, algebra, k, 0..n, n)),
                    bits(full_scan_topk_dense(&degrees, &residue, algebra, k)),
                    "round {round} k={k}: scan vs reference"
                );
                if !residue.is_monotone() {
                    continue;
                }
                let masks: [&dyn Fn(usize) -> bool; 4] =
                    [&|_| true, &|e| keep[e], &|e| e == lone, &|_| false];
                for (m, mask) in masks.iter().enumerate() {
                    let candidates: Vec<usize> = (0..n).filter(|&e| mask(e)).collect();
                    let count = candidates.len();
                    assert_eq!(
                        bits(scan_topk(
                            &degrees,
                            &residue,
                            algebra,
                            k,
                            candidates.into_iter(),
                            count
                        )),
                        bits(ta_with(&cols, &residue, algebra, k, mask)),
                        "round {round} k={k} mask {m}: scan vs TA of {residue:?}"
                    );
                }
            }
        }
        let leaf = Residue::Leaf(0);
        assert!(scan_topk::<&[f64]>(&[], &leaf, FuzzyAlgebra::Product, 3, 0..0, 0).is_empty());
    }

    /// An OR bounds an unseen entity by `or(bound_a, bound_b)`, so the
    /// entity each list puts first is found and nothing it hides.
    #[test]
    fn disjunction_ranks_what_either_list_puts_first() {
        let n = 1000;
        let a: Vec<f64> = (0..n).map(|e| if e == 7 { 1.0 } else { 0.01 }).collect();
        let b: Vec<f64> = (0..n).map(|e| if e == 9 { 0.99 } else { 0.02 }).collect();
        let cols = columns(&[&a, &b]);
        let or = Residue::Or(vec![Residue::Leaf(0), Residue::Leaf(1)]);
        for algebra in [FuzzyAlgebra::Product, FuzzyAlgebra::Godel] {
            let top = ta_with(&cols, &or, algebra, 2, |_| true);
            assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), [7, 9]);
            let degrees: Vec<&[f64]> = cols.iter().map(|c| c.degrees()).collect();
            assert_eq!(top, full_scan_topk_dense(&degrees, &or, algebra, 2));
        }
    }

    #[test]
    #[should_panic(expected = "cannot bound a residue with a NOT")]
    fn sorted_access_refuses_a_negation() {
        let cols = columns(&[&[0.2, 0.8]]);
        ta_with(
            &cols,
            &Residue::Not(Box::new(Residue::Leaf(0))),
            FuzzyAlgebra::Product,
            1,
            |_| true,
        );
    }

    #[test]
    fn all_zero_degrees_rank_by_entity_id() {
        let cols = columns(&[&[0.0, 0.0, 0.0]]);
        let top = ta(&cols, 2, |_| true);
        assert_eq!(top, full_scan(&cols, 2));
        assert_eq!(top, vec![(0, 0.0), (1, 0.0)]);
    }
}
