//! A generated differential test for the ranking kernel.
//!
//! Seeded WHERE trees of depth ≤ 3 over bank predicates — AND, OR and
//! NOT nested either way, a predicate repeated within a tree, a
//! text-fallback predicate among the leaves — under objective filters
//! from empty to everything, with every kind of `limit` and sometimes an
//! `order by`. Each statement runs through the engine and through the
//! reference under both algebras: cold, warm, after an INSERT batch that
//! touches some candidates, and after a merge. Rows and score bits must
//! be equal every time.

use opinedb::core::trace::{with_trace, TraceContext};
use opinedb::core::{build, BuildConfig, Interpretation, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::build_workload;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::{execute, parse_select, Expr, FuzzyAlgebra, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALGEBRAS: [FuzzyAlgebra; 2] = [FuzzyAlgebra::Product, FuzzyAlgebra::Godel];
const STATEMENTS: usize = 28;

fn db() -> OpineDb {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 160,
            mean_reviews: 5,
            seed: 11,
        },
    );
    build(
        &corpus,
        &BuildConfig {
            w2v: Word2VecConfig {
                dim: 24,
                epochs: 2,
                ..Default::default()
            },
            membership_tuples: 400,
            ..Default::default()
        },
    )
}

/// The leaves trees draw from: four bank predicates the interpreter maps
/// to attributes, and the first one it sends to the text fallback.
fn leaves(db: &OpineDb) -> Vec<String> {
    let bank: Vec<String> = build_workload(&hotel_spec(), 190)
        .into_iter()
        .map(|p| p.text)
        .collect();
    let fallback = |p: &&String| db.interpret(p) == Interpretation::TextFallback;
    let mut leaves: Vec<String> = bank
        .iter()
        .filter(|p| !fallback(p))
        .step_by(9)
        .take(4)
        .cloned()
        .collect();
    leaves.push(
        bank.iter()
            .find(fallback)
            .expect("the bank exercises the text fallback")
            .clone(),
    );
    leaves
}

/// A random tree of depth ≤ `depth` over `leaves`.
fn tree(rng: &mut StdRng, leaves: &[String], depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        return Expr::Subjective(leaves[rng.gen_range(0..leaves.len())].clone());
    }
    let sub = |rng: &mut StdRng| Box::new(tree(rng, leaves, depth - 1));
    match rng.gen_range(0..5) {
        0 | 1 => Expr::And(sub(rng), sub(rng)),
        2 | 3 => Expr::Or(sub(rng), sub(rng)),
        _ => Expr::Not(sub(rng)),
    }
}

/// What a generated tree exercises, for the coverage check.
#[derive(Default, Debug)]
struct Coverage {
    repeated: usize,
    right_nested: usize,
    negated: usize,
    fallback: usize,
    ordered: usize,
}

impl Coverage {
    fn record(&mut self, tree: &Expr, fallback: &str) {
        let rendered = tree.to_string();
        let mut predicates = tree.subjective_predicates();
        let leaves = predicates.len();
        predicates.sort_unstable();
        predicates.dedup();
        self.repeated += usize::from(predicates.len() < leaves);
        self.right_nested += usize::from(right_nested(tree));
        self.negated += usize::from(rendered.contains("not ("));
        self.fallback += usize::from(predicates.contains(&fallback));
    }
}

fn right_nested(expr: &Expr) -> bool {
    match expr {
        Expr::And(a, b) | Expr::Or(a, b) => {
            matches!(**b, Expr::And(..) | Expr::Or(..)) || right_nested(a) || right_nested(b)
        }
        Expr::Not(e) => right_nested(e),
        _ => false,
    }
}

/// The generated statements, with what they cover.
fn statements(db: &OpineDb) -> (Vec<String>, Coverage) {
    let mut rng = StdRng::seed_from_u64(25);
    let leaves = leaves(db);
    let mut prices: Vec<f64> = db
        .query("select price_pn from hotels")
        .expect("objective statement")
        .result
        .rows
        .into_iter()
        .map(|(row, _)| row[0].as_f64().expect("a price"))
        .collect();
    prices.sort_by(f64::total_cmp);
    let n = prices.len();
    // Admits none, ≈ 5 %, ≈ 50 %, all.
    let filters = [
        None,
        Some(prices[0]),
        Some(prices[n / 20]),
        Some(prices[n / 2]),
        Some(prices[n - 1] + 1.0),
    ];
    let limits = [Some(0), Some(1), Some(10), Some(n), Some(n + 1), None];
    let mut coverage = Coverage::default();
    let statements = (0..STATEMENTS)
        .map(|_| {
            let tree = tree(&mut rng, &leaves, 3);
            coverage.record(&tree, &leaves[4]);
            let filter = filters[rng.gen_range(0..filters.len())];
            let clause = match filter {
                None => tree.to_string(),
                Some(price) if rng.gen_bool(0.5) => format!("price_pn < {price} and {tree}"),
                Some(price) => format!("{tree} and price_pn < {price}"),
            };
            let order = if rng.gen_range(0..6) == 0 {
                coverage.ordered += 1;
                " order by price_pn desc"
            } else {
                ""
            };
            let limit = match limits[rng.gen_range(0..limits.len())] {
                Some(k) => format!(" limit {k}"),
                None => String::new(),
            };
            format!("select * from hotels where {clause}{order}{limit}")
        })
        .collect();
    (statements, coverage)
}

/// The reference's answer: its rows with their score bits.
fn reference(db: &OpineDb, sql: &str, algebra: FuzzyAlgebra) -> Vec<(Vec<Value>, u64)> {
    let select = parse_select(sql).expect("generated SQL parses");
    execute(&select, db.catalog(), &db.reference(), algebra, None)
        .expect("reference answers")
        .into_result_set()
        .rows
        .into_iter()
        .map(|(row, score)| (row, score.to_bits()))
        .collect()
}

/// Every statement under both algebras against `references` (one per
/// statement and algebra, at the current data); returns the plan notes.
fn check(
    db: &OpineDb,
    stage: &str,
    cold: bool,
    statements: &[String],
    references: &[Vec<(Vec<Value>, u64)>],
) -> Vec<String> {
    let mut notes = Vec::new();
    for (i, sql) in statements.iter().enumerate() {
        for (a, &algebra) in ALGEBRAS.iter().enumerate() {
            if cold {
                db.clear_caches();
            }
            let ctx = TraceContext::new();
            let fast = with_trace(Some(ctx.clone()), || db.query_with_algebra(sql, algebra))
                .expect("engine answers");
            let fast: Vec<(Vec<Value>, u64)> = fast
                .result
                .rows
                .into_iter()
                .map(|(row, score)| (row, score.to_bits()))
                .collect();
            assert_eq!(fast, references[2 * i + a], "{stage}, {algebra:?}: {sql}");
            notes.extend(
                ctx.snapshot()
                    .notes
                    .into_iter()
                    .map(|n| format!("{algebra:?} {n}")),
            );
        }
    }
    notes
}

fn references(db: &OpineDb, statements: &[String]) -> Vec<Vec<(Vec<Value>, u64)>> {
    statements
        .iter()
        .flat_map(|sql| ALGEBRAS.map(|algebra| reference(db, sql, algebra)))
        .collect()
}

#[test]
fn generated_residues_equal_the_reference_in_every_cache_state() {
    let db = db();
    let (statements, coverage) = statements(&db);
    assert!(
        coverage.repeated > 0
            && coverage.right_nested > 0
            && coverage.negated > 0
            && coverage.fallback > 0
            && coverage.ordered > 0,
        "{coverage:?}"
    );

    let before = references(&db, &statements);
    let mut notes = check(&db, "cold", true, &statements, &before);
    notes.extend(check(&db, "warm", false, &statements, &before));

    // Reviews for every 13th entity, phrased from the frozen opinion
    // domains so they reach marker summaries: the warm columns are
    // repaired, keeping their orders.
    for i in 0..12 {
        let entity = db.entity_key(i * 13).to_string();
        let phrase = &db.opinion_domain(i % 3).variations()[i % 4].phrase;
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) VALUES ('{entity}', 'so {phrase}', 2021)"
        ))
        .unwrap();
    }
    let inserted = references(&db, &statements);
    assert_ne!(inserted, before, "the inserts must move some answer");
    notes.extend(check(&db, "after inserts", false, &statements, &inserted));

    db.merge_delta().unwrap();
    let merged = references(&db, &statements);
    notes.extend(check(&db, "after the merge", false, &statements, &merged));

    // The kernel ran every way it can, under both algebras, and the row
    // loop took the statements it must.
    for algebra in ["Product", "Godel"] {
        for plan in [
            "ta_topk: scan of",
            "ta_topk: pushdown via",
            "— a NOT is not monotone",
            "plan: ORDER BY sorts by a column",
        ] {
            assert!(
                notes
                    .iter()
                    .any(|n| n.starts_with(algebra) && n.contains(plan)),
                "{algebra}: no `{plan}` note"
            );
        }
        assert!(
            notes.iter().any(|n| n.starts_with(algebra)
                && (n.contains("full TA") || n.contains("restricted sorted access"))),
            "{algebra}: sorted access never ran"
        );
    }
}
