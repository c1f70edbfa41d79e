//! Mixed objective+subjective queries must return **byte-identical**
//! results whether they ride the objective-predicate pushdown into the
//! threshold-algorithm fast path or the naive row-at-a-time scoring
//! loop — same rows, same order, bit-equal `f64` scores — borrowed and
//! materialized.

use opinedb::core::topk::threshold_topk;
use opinedb::core::DegreeColumn;
use opinedb::store::ast::ColumnRef;
use opinedb::store::exec::{BoundLeaf, SubjectiveScorer};
use opinedb::store::parser::parse_select;
use opinedb::store::{
    execute, Bitmap, Catalog, Column, ColumnType, FuzzyAlgebra, Residue, Schema, StoreError, Table,
    Value,
};
use proptest::prelude::*;
use std::cell::Cell;

/// A scorer over synthetic degree columns that implements the same
/// ranking contract as `OpineDb`: dense columns per predicate, sorted
/// orders, candidate-filtered TA. Row order equals entity id (the
/// catalog below is inserted in id order), so the executor's row-indexed
/// candidate bitmaps apply to entities directly.
struct SyntheticIndex {
    /// The column of predicate name `p{p}`.
    columns: Vec<DegreeColumn>,
    keys: Vec<String>,
    /// When false the scorer has "no index": the executor falls back to
    /// row-at-a-time scoring of the candidates.
    use_index: bool,
    pushdowns: Cell<u32>,
}

impl SyntheticIndex {
    fn new(degrees: Vec<Vec<f64>>, keys: Vec<String>, use_index: bool) -> Self {
        SyntheticIndex {
            columns: degrees.into_iter().map(DegreeColumn::new).collect(),
            keys,
            use_index,
            pushdowns: Cell::new(0),
        }
    }

    fn predicate_index(&self, predicate: &str) -> Option<usize> {
        predicate.strip_prefix('p').and_then(|n| n.parse().ok())
    }

    fn entity(&self, key: &Value) -> Option<usize> {
        let name = key.as_str()?;
        self.keys.iter().position(|k| k == name)
    }
}

impl SubjectiveScorer for SyntheticIndex {
    fn bind_predicate<'s>(
        &'s self,
        _base: &Table,
        predicate: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        let p = self
            .predicate_index(predicate)
            .ok_or_else(|| StoreError::NoScorer(predicate.to_string()))?;
        Ok(BoundLeaf::by_key(move |key| {
            let e = self
                .entity(key)
                .ok_or_else(|| StoreError::Execution(format!("unknown key {key}")))?;
            Ok(self.columns[p].degrees()[e])
        }))
    }

    fn bind_match<'s>(
        &'s self,
        _base: &Table,
        attribute: &'s ColumnRef,
        _phrase: &'s str,
    ) -> Result<BoundLeaf<'s>, StoreError> {
        Err(StoreError::NoScorer(attribute.column.clone()))
    }

    fn rank_residue(
        &self,
        _base: &Table,
        residue: &Residue,
        predicates: &[&str],
        algebra: FuzzyAlgebra,
        k: usize,
        candidates: Option<&Bitmap>,
    ) -> Option<Vec<(usize, f64)>> {
        if !self.use_index {
            return None;
        }
        let columns: Vec<&DegreeColumn> = predicates
            .iter()
            .map(|p| self.predicate_index(p).map(|i| &self.columns[i]))
            .collect::<Option<Vec<_>>>()?;
        let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
        let orders: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
        let ranked = match candidates {
            Some(bitmap) => {
                self.pushdowns.set(self.pushdowns.get() + 1);
                threshold_topk(&degrees, &orders, residue, algebra, k, |e| bitmap.get(e))
            }
            None => threshold_topk(&degrees, &orders, residue, algebra, k, |_| true),
        };
        // Entity ids are row positions of `t` (see `catalog`).
        Some(ranked)
    }
}

/// Builds the catalog: one table `t(name, price)` with rows in entity-id
/// order.
fn catalog(prices: &[f64]) -> (Catalog, Vec<String>) {
    let mut cat = Catalog::new();
    cat.create_table(Schema::new(
        "t",
        vec![
            Column::new("name", ColumnType::Text),
            Column::new("price", ColumnType::Float),
        ],
        0,
    ))
    .unwrap();
    let keys: Vec<String> = (0..prices.len()).map(|e| format!("e{e}")).collect();
    for (key, &price) in keys.iter().zip(prices) {
        cat.insert("t", vec![Value::text(key), Value::Float(price)])
            .unwrap();
    }
    (cat, keys)
}

proptest! {
    /// The pushdown TA path and the naive row-at-a-time path agree
    /// exactly on random catalogs and random mixed WHERE clauses —
    /// degrees and prices are quantized so score ties are common and
    /// the deterministic tiebreak is genuinely exercised.
    #[test]
    fn pushdown_ta_equals_row_at_a_time(
        rows in prop::collection::vec((0u32..8, 0u32..5, 0u32..5), 1..40),
        threshold in 0u32..9,
        predicates in 1usize..3,
        limit in 0usize..14,
    ) {
        let prices: Vec<f64> = rows.iter().map(|r| f64::from(r.0) * 25.0).collect();
        let degrees: Vec<Vec<f64>> = (0..predicates)
            .map(|p| {
                rows.iter()
                    .map(|r| f64::from([r.1, r.2][p % 2]) / 4.0)
                    .collect()
            })
            .collect();
        let (cat, keys) = catalog(&prices);

        // Interleave the objective conjunct between subjective ones so
        // conjunct collection (not just prefix splitting) is tested.
        let subjective: Vec<String> = (0..predicates).map(|p| format!("\"p{p}\"")).collect();
        let mut where_parts = subjective.clone();
        where_parts.insert(predicates / 2, format!("price < {}", f64::from(threshold) * 25.0));
        let mut sql = format!("select * from t where {}", where_parts.join(" and "));
        if limit > 0 {
            sql += &format!(" limit {limit}");
        }
        let query = parse_select(&sql).unwrap();

        let indexed = SyntheticIndex::new(degrees.clone(), keys.clone(), true);
        let naive = SyntheticIndex::new(degrees, keys, false);

        let fast = execute(&query, &cat, &indexed, FuzzyAlgebra::Product, None).unwrap().into_result_set();
        let slow = execute(&query, &cat, &naive, FuzzyAlgebra::Product, None).unwrap().into_result_set();
        prop_assert!(indexed.pushdowns.get() == 1, "pushdown must fire for {}", sql);
        prop_assert_eq!(naive.pushdowns.get(), 0);

        prop_assert!(fast.rows.len() == slow.rows.len(), "{}", sql);
        for (i, ((frow, fscore), (srow, sscore))) in
            fast.rows.iter().zip(&slow.rows).enumerate()
        {
            prop_assert!(frow == srow, "row {} of {}", i, sql);
            prop_assert!(
                fscore.to_bits() == sscore.to_bits(),
                "score {} must be bit-identical ({} vs {}) in {}",
                i, fscore, sscore, sql
            );
        }

        // The borrowing path agrees with the materializing path on both
        // scorers.
        for (scorer, reference) in [(&indexed, &fast), (&naive, &slow)] {
            let lazy = execute(&query, &cat, scorer, FuzzyAlgebra::Product, None).unwrap();
            prop_assert_eq!(lazy.len(), reference.rows.len());
            for (i, (row, score)) in reference.rows.iter().enumerate() {
                prop_assert_eq!(lazy.score(i).to_bits(), score.to_bits());
                let vals: Vec<Value> = lazy.values(i).map(|v| v.to_value()).collect();
                prop_assert_eq!(&vals, row);
            }
        }
    }
}

/// End-to-end: the same equivalence through a real `OpineDb` — the
/// pushdown against the reference's prefilter + row-at-a-time residue —
/// over the paper's running-example shape at several selectivities.
#[test]
fn opinedb_pushdown_matches_naive_end_to_end() {
    use opinedb::core::{build, BuildConfig};
    use opinedb::corpus::hotel::hotel_spec;
    use opinedb::corpus::{Corpus, CorpusConfig};

    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 20,
            mean_reviews: 10,
            seed: 33,
        },
    );
    let db = build(
        &corpus,
        &BuildConfig {
            w2v: opinedb::embed::Word2VecConfig {
                dim: 16,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            ..Default::default()
        },
    );

    let queries = [
        "select * from hotels where price_pn < 80 and \"clean rooms\" limit 10",
        "select * from hotels where price_pn < 200 and \"clean rooms\" limit 10",
        "select * from hotels where price_pn < 10000 and \"clean rooms\" and \"friendly staff\"",
        "select hotelname from hotels where price_pn < 150 and \"clean rooms\"",
    ];
    for sql in queries {
        let fast = db.query(sql).expect("pushdown query");
        let reference = db.reference().query(sql).expect("reference query");
        assert_eq!(fast.result.rows.len(), reference.result.rows.len(), "{sql}");
        for (a, b) in fast.result.rows.iter().zip(&reference.result.rows) {
            assert_eq!(a.0, b.0, "{sql}");
            assert_eq!(
                a.1.to_bits(),
                b.1.to_bits(),
                "scores must be bit-identical ({} vs {}) in {sql}",
                a.1,
                b.1
            );
        }
    }
    assert!(
        db.cache_report().pushdown_queries >= queries.len() as u64,
        "every mixed query must take the pushdown path"
    );
}

/// A row position is an entity id only in the engine's own entity
/// table. Over any other base table — a relation keyed by hotel name
/// but stored in another order, the `reviews` table, a clone of the
/// catalog — every plan must answer what `reference()` answers (which
/// reads by key, always) or raise the same typed error.
#[test]
fn foreign_base_tables_match_the_reference_from_every_plan() {
    use opinedb::core::{build, BuildConfig};
    use opinedb::corpus::hotel::hotel_spec;
    use opinedb::corpus::{Corpus, CorpusConfig};

    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 60,
            mean_reviews: 8,
            seed: 33,
        },
    );
    let db = build(
        &corpus,
        &BuildConfig {
            w2v: opinedb::embed::Word2VecConfig {
                dim: 16,
                epochs: 1,
                ..Default::default()
            },
            membership_tuples: 300,
            ..Default::default()
        },
    );

    // The `examples/join_search.rs` pattern: clone the catalog, add a
    // relation keyed by hotel name — in *reverse* entity order, so row
    // `i` of `hotel_streets` is entity `n - 1 - i`.
    let mut catalog = db.catalog().clone();
    catalog
        .create_table(Schema::new(
            "hotel_streets",
            vec![
                Column::new("hotel", ColumnType::Text),
                Column::new("street", ColumnType::Text),
            ],
            0,
        ))
        .unwrap();
    let streets = ["baker", "oxford", "regent"];
    for e in (0..db.num_entities()).rev() {
        catalog
            .insert(
                "hotel_streets",
                vec![
                    Value::text(db.entity_key(e)),
                    Value::text(streets[e % streets.len()]),
                ],
            )
            .unwrap();
    }

    let run = |sql: &str, scorer: &dyn SubjectiveScorer| {
        let select = parse_select(sql).unwrap();
        execute(&select, &catalog, scorer, FuzzyAlgebra::Product, None)
            .map(|rows| rows.into_result_set().rows)
    };
    let reference = db.reference();
    for sql in [
        // filter + conjunction: the pushdown's shape
        "select hotel from hotel_streets where street = 'baker' and \"clean rooms\" limit 5",
        // pure conjunction: TA's shape
        "select hotel from hotel_streets where \"clean rooms\" and \"friendly staff\" limit 5",
        // filtered OR: the row loop over candidates
        "select hotel from hotel_streets where street = 'baker' \
         and (\"clean rooms\" or \"friendly staff\") limit 5",
        // the cloned entity table is correct whichever reader it gets
        "select * from hotels where price_pn < 150 and \"clean rooms\" limit 5",
        "select * from hotels where price_pn < 150 \
         and (\"clean rooms\" or \"friendly staff\") limit 5",
    ] {
        let fast = run(sql, &db).expect(sql);
        let slow = run(sql, &reference).expect(sql);
        assert!(!fast.is_empty(), "{sql}");
        assert_eq!(fast.len(), slow.len(), "{sql}");
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.0, b.0, "{sql}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "{sql}");
        }
    }

    // `reviews` is keyed by review id: no row of it is an entity, and
    // every plan says so with the error the reference raises.
    let errors: Vec<_> = [
        "select * from reviews where review_id < 40 and \"clean rooms\"",
        "select * from reviews where review_id < 40 and (\"clean rooms\" or \"friendly staff\")",
        "select * from reviews where \"clean rooms\" limit 3",
    ]
    .into_iter()
    .flat_map(|sql| [db.query(sql), db.reference().query(sql)])
    .map(|result| result.expect_err("a review is not an entity"))
    .collect();
    assert!(errors.windows(2).all(|w| w[0] == w[1]), "{errors:?}");
}
