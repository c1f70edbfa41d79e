//! A generated differential test for the ranking kernel.
//!
//! Seeded WHERE trees of depth ≤ 3 — AND, OR and NOT nested either way,
//! a leaf repeated within a tree — over every leaf kind: bank predicates
//! (one of them a text-fallback predicate), `.=` matches (a domain
//! phrase on an aliased attribute, an out-of-vocabulary phrase on an
//! unaliased one) and comparisons (against a literal and column against
//! column), under objective filters from empty to everything, with every
//! kind of `limit`, sometimes an `order by` and about every other time
//! a `with reviews(…)` qualifier (year bounds either way, a
//! reviewer-count bound, both, or the trivial `with reviews()`). Each
//! statement runs through the engine and through the reference under
//! both algebras: cold, warm, after an INSERT batch that touches some
//! candidates, gives the text-fallback predicate's words to some of them
//! and takes one reviewer across a `reviewer_min_count` bound through
//! the delta alone, after a merge, and after a second INSERT batch with
//! the fallback's words in reviews of years either side of the
//! qualifiers' bounds, met by warm columns. Rows and score bits must be
//! equal every time.

use opinedb::core::trace::{with_trace, TraceContext};
use opinedb::core::OpineError;
use opinedb::core::{build, BuildConfig, Interpretation, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::workload::build_workload;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::embed::Word2VecConfig;
use opinedb::store::ast::ColumnRef;
use opinedb::store::ReviewQualifier;
use opinedb::store::{execute, parse_select, Expr, FuzzyAlgebra, StoreError, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ALGEBRAS: [FuzzyAlgebra; 2] = [FuzzyAlgebra::Product, FuzzyAlgebra::Godel];
const STATEMENTS: usize = 48;

/// The qualifiers a statement may carry, `None` for none. The
/// reviewer-count bound is [`CROSSING`] so that the INSERT batch can
/// take a reviewer across it.
const QUALIFIERS: [Option<&str>; 6] = [
    None,
    Some("with reviews()"),
    Some("with reviews(year >= 2012)"),
    Some("with reviews(year <= 2013)"),
    Some("with reviews(reviewer_min_count >= 3)"),
    Some("with reviews(year >= 2008, year <= 2016, reviewer_min_count >= 3)"),
];

/// The `reviewer_min_count` bound of [`QUALIFIERS`].
const CROSSING: usize = 3;

fn corpus() -> Corpus {
    Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 160,
            mean_reviews: 5,
            seed: 11,
        },
    )
}

fn config() -> BuildConfig {
    BuildConfig {
        w2v: Word2VecConfig {
            dim: 24,
            epochs: 2,
            ..Default::default()
        },
        membership_tuples: 400,
        ..Default::default()
    }
}

fn db() -> OpineDb {
    build(&corpus(), &config())
}

/// The leaves trees draw from: four bank predicates the interpreter
/// maps to attributes and the first one it sends to the text fallback
/// (at index 4), two `.=` matches and three comparisons.
fn leaves(db: &OpineDb, median_price: f64) -> Vec<Expr> {
    let bank: Vec<String> = build_workload(&hotel_spec(), 190)
        .into_iter()
        .map(|p| p.text)
        .collect();
    let fallback = |p: &&String| db.interpret(p) == Interpretation::TextFallback;
    let mut leaves: Vec<Expr> = bank
        .iter()
        .filter(|p| !fallback(p))
        .step_by(9)
        .take(4)
        .map(|p| Expr::Subjective(p.clone()))
        .collect();
    leaves.push(Expr::Subjective(
        bank.iter()
            .find(fallback)
            .expect("the bank exercises the text fallback")
            .clone(),
    ));
    let matches = |table: Option<&str>, attribute: usize, phrase: &str| Expr::MarkerMatch {
        attribute: ColumnRef {
            table: table.map(str::to_string),
            column: db.attributes[attribute].clone(),
        },
        phrase: phrase.to_string(),
    };
    leaves.push(matches(
        Some("h"),
        0,
        &db.opinion_domain(0).variations()[0].phrase,
    ));
    leaves.push(matches(None, 1, "zyzzyva quuxly"));
    for comparison in [
        format!("price_pn < {median_price}"),
        "city = 'London'".to_string(),
        "h.price_pn < capacity".to_string(),
    ] {
        leaves.push(clause(&comparison));
    }
    leaves
}

/// The WHERE clause `sql` parses to, over `hotels h`.
fn clause(sql: &str) -> Expr {
    parse_select(&format!("select * from hotels h where {sql}"))
        .expect("a clause parses")
        .where_clause
        .expect("a WHERE clause")
}

/// A random tree of depth ≤ `depth` over `leaves`: half of its leaves
/// are predicates, the rest any leaf.
fn tree(rng: &mut StdRng, leaves: &[Expr], depth: usize) -> Expr {
    if depth == 0 || rng.gen_range(0..3) == 0 {
        let pool = if rng.gen_bool(0.5) { 5 } else { leaves.len() };
        return leaves[rng.gen_range(0..pool)].clone();
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
    /// Per entry of [`QUALIFIERS`]: statements carrying it.
    qualified: [usize; QUALIFIERS.len()],
    /// Per leaf of the pool past the predicates: trees holding it.
    matches: [usize; 2],
    /// The statements with a comparison under an OR or a NOT.
    nested_comparison: Vec<String>,
}

impl Coverage {
    fn record(&mut self, tree: &Expr, leaves: &[Expr]) {
        let rendered = tree.to_string();
        let mut predicates = tree.subjective_predicates();
        let count = predicates.len();
        predicates.sort_unstable();
        predicates.dedup();
        self.repeated += usize::from(predicates.len() < count);
        self.right_nested += usize::from(right_nested(tree));
        self.negated += usize::from(rendered.contains("not ("));
        self.fallback += usize::from(rendered.contains(&leaves[4].to_string()));
        for (seen, leaf) in self.matches.iter_mut().zip(&leaves[5..7]) {
            *seen += usize::from(rendered.contains(&leaf.to_string()));
        }
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

/// True when a comparison sits under an OR or a NOT (`nested`).
fn nested_comparison(expr: &Expr, nested: bool) -> bool {
    match expr {
        Expr::Compare { .. } => nested,
        Expr::And(a, b) => nested_comparison(a, nested) || nested_comparison(b, nested),
        Expr::Or(a, b) => nested_comparison(a, true) || nested_comparison(b, true),
        Expr::Not(e) => nested_comparison(e, true),
        _ => false,
    }
}

/// The generated statements, with what they cover.
fn statements(db: &OpineDb) -> (Vec<String>, Coverage) {
    let mut rng = StdRng::seed_from_u64(25);
    // Qualifiers draw from a stream of their own: the trees, filters
    // and limits do not depend on them.
    let mut qualifiers = StdRng::seed_from_u64(32);
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
    let leaves = leaves(db, prices[n / 2]);
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
            coverage.record(&tree, &leaves);
            let nested = nested_comparison(&tree, false);
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
            let q = match qualifiers.gen_bool(0.5) {
                true => qualifiers.gen_range(1..QUALIFIERS.len()),
                false => 0,
            };
            coverage.qualified[q] += 1;
            let qualifier = QUALIFIERS[q].map_or_else(String::new, |q| format!(" {q}"));
            let sql = format!("select * from hotels h where {clause}{qualifier}{order}{limit}");
            if nested {
                coverage.nested_comparison.push(sql.clone());
            }
            sql
        })
        .collect();
    (statements, coverage)
}

/// The text of the generated trees' fallback leaf.
fn fallback_leaf(db: &OpineDb) -> String {
    match &leaves(db, 0.0)[4] {
        Expr::Subjective(text) => text.clone(),
        other => panic!("leaf 4 is the fallback predicate, got {other}"),
    }
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
/// statement and algebra, at the current data); returns the plan notes,
/// each with its statement.
fn check(
    db: &OpineDb,
    stage: &str,
    cold: bool,
    statements: &[String],
    references: &[Vec<(Vec<Value>, u64)>],
) -> Vec<(String, String)> {
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
                    .map(|n| (sql.clone(), format!("{algebra:?} {n}"))),
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

/// A reviewer one review short of [`CROSSING`] with an occurrence in
/// `entity`'s summaries, and that entity: one more review takes every
/// review they wrote across the bound.
fn crossing_reviewer(corpus: &Corpus, db: &OpineDb) -> (usize, usize) {
    let counts = corpus.reviewer_counts();
    corpus
        .reviews
        .iter()
        .filter(|r| counts[&r.reviewer_id] == CROSSING - 1)
        .find(|r| {
            (0..db.attributes.len()).any(|a| {
                db.provenance(r.entity_id, a)
                    .iter()
                    .any(|&(id, _)| id == r.id)
            })
        })
        .map(|r| (r.reviewer_id, r.entity_id))
        .expect("a reviewer one review short of the bound")
}

#[test]
fn generated_residues_equal_the_reference_in_every_cache_state() {
    let corpus = corpus();
    let db = db();
    let (statements, coverage) = statements(&db);
    assert!(
        coverage.repeated > 0
            && coverage.right_nested > 0
            && coverage.negated > 0
            && coverage.fallback > 0
            && coverage.ordered > 0
            && coverage.qualified.iter().all(|&q| q > 0)
            && coverage.matches.iter().all(|&m| m > 0)
            && !coverage.nested_comparison.is_empty(),
        "{coverage:?}"
    );
    let (reviewer, reviewed) = crossing_reviewer(&corpus, &db);
    let bound = ReviewQualifier {
        min_reviewer_count: Some(CROSSING as u32),
        ..Default::default()
    };
    // Each feature row's `ln(total + 1)` slot, the next to last.
    let reviewed_mass = |db: &OpineDb| -> f64 {
        let set = db.summaries_qualified(&bound);
        let rows = (0..db.attributes.len()).map(|a| set.feature_row(reviewed, a));
        rows.map(|row| row[row.len() - 2]).sum()
    };
    let mass_before = reviewed_mass(&db);

    let before = references(&db, &statements);
    let mut notes = check(&db, "cold", true, &statements, &before);
    notes.extend(check(&db, "warm", false, &statements, &before));

    // The fallback predicate's words: no build-time review holds them,
    // so before any insert every entity scores `sigmoid(0 − c)`.
    let fallback = fallback_leaf(&db);
    let floor = 1.0 / (1.0 + config().sigmoid_c.exp());
    let fallback_scores = |qualifier: &str| -> Vec<u64> {
        let sql = format!("select * from hotels h where \"{fallback}\"{qualifier}");
        db.query(&sql)
            .expect("engine answers")
            .result
            .rows
            .into_iter()
            .map(|(_, score)| score.to_bits())
            .collect()
    };
    assert!(
        fallback_scores("").iter().all(|&s| s == floor.to_bits()),
        "fixture: a build-time review holds a word of {fallback:?}"
    );

    // Reviews for every 13th entity, phrased from the frozen opinion
    // domains so they reach marker summaries, every other one with the
    // fallback predicate's words: the warm membership columns are
    // repaired, keeping their orders, and the warm fallback column is
    // rebuilt.
    for i in 0..12 {
        let entity = db.entity_key(i * 13).to_string();
        let phrase = &db.opinion_domain(i % 3).variations()[i % 4].phrase;
        let text = match i % 2 {
            0 => format!("so {phrase} and {fallback}"),
            _ => format!("so {phrase}"),
        };
        db.insert_sql(&format!(
            "INSERT INTO reviews (entity, text, year) VALUES ('{entity}', '{text}', 2021)"
        ))
        .unwrap();
    }
    // The fallback's words now count, at the inserts' epoch, but only
    // in reviews of 2021: a qualifier that rejects those finds them in
    // no review it accepts.
    assert!(fallback_scores("").iter().any(|&s| s != floor.to_bits()));
    assert!(
        fallback_scores(" with reviews(year <= 2013)")
            .iter()
            .all(|&s| s == floor.to_bits()),
        "a qualifier that rejects every review holding {fallback:?} must score sigmoid(-c)"
    );
    // One more review, elsewhere, takes a reviewer across the
    // `reviewer_min_count` bound: the reviews they wrote before now
    // count in an entity no insert touched.
    let elsewhere = db
        .entity_key((reviewed + 1) % db.num_entities())
        .to_string();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) \
         VALUES ('{elsewhere}', 'fine', 2021, {reviewer})"
    ))
    .unwrap();
    assert_eq!(db.reviewer_review_count(reviewer), CROSSING);
    assert!(
        reviewed_mass(&db) > mass_before,
        "the crossing moved no summary"
    );
    let inserted = references(&db, &statements);
    assert_ne!(inserted, before, "the inserts must move some answer");
    notes.extend(check(&db, "after inserts", false, &statements, &inserted));

    db.merge_delta().unwrap();
    let merged = references(&db, &statements);
    notes.extend(check(&db, "after the merge", false, &statements, &merged));

    // A second round over the warm caches: the fallback's words in
    // reviews of 2010 and of 2021, by a prolific reviewer and by new
    // ones, on entities the first round did and did not touch — every
    // qualifier of the pool sees the fallback's text move.
    let prolific = corpus
        .reviews
        .iter()
        .map(|r| r.reviewer_id)
        .find(|&id| db.reviewer_review_count(id) >= CROSSING)
        .expect("a reviewer past the bound");
    for i in 0..8 {
        let entity = db.entity_key(i * 13 + 5 * (i % 2)).to_string();
        let year = [2010, 2021][i % 2];
        let reviewer = match i % 4 {
            0 => format!(", {prolific}"),
            _ => String::new(),
        };
        let columns = match reviewer.is_empty() {
            true => "entity, text, year",
            false => "entity, text, year, reviewer_id",
        };
        db.insert_sql(&format!(
            "INSERT INTO reviews ({columns}) VALUES ('{entity}', '{fallback} {fallback}', {year}{reviewer})"
        ))
        .unwrap();
    }
    let second = references(&db, &statements);
    assert_ne!(second, merged, "the second round must move some answer");
    notes.extend(check(
        &db,
        "after a second round",
        false,
        &statements,
        &second,
    ));

    // The kernel ran every way it can, under both algebras, and the row
    // loop took the statements it must.
    for algebra in ["Product", "Godel"] {
        for plan in [
            "ta_topk: scan of",
            "ta_topk: pushdown via",
            "— a NOT is not monotone",
            "— qualified columns are built per statement",
            "plan: ORDER BY sorts by a column",
        ] {
            assert!(
                notes
                    .iter()
                    .any(|(_, n)| n.starts_with(algebra) && n.contains(plan)),
                "{algebra}: no `{plan}` note"
            );
        }
        assert!(
            notes.iter().any(|(_, n)| n.starts_with(algebra)
                && (n.contains("full TA") || n.contains("restricted sorted access"))),
            "{algebra}: sorted access never ran"
        );
    }
    // Every leaf kind ranks, qualified or not: the row loop scored only
    // ORDER BY statements, and the kernel ranked a `.=` and a
    // comparison under OR/NOT.
    for (sql, note) in &notes {
        if note.contains(" candidates by ") {
            assert!(sql.contains(" order by "), "{sql}: {note}");
        }
    }
    let ranked = |sql: &String| {
        notes
            .iter()
            .any(|(s, n)| s == sql && n.contains("scorer top-k"))
    };
    assert!(
        statements.iter().any(|s| s.contains(".=") && ranked(s)),
        "no `.=` ranked"
    );
    assert!(
        coverage.nested_comparison.iter().any(ranked),
        "no comparison under OR/NOT ranked"
    );
}

/// A `.=` on an attribute the engine does not have is the same typed
/// error from the engine and from the reference, whether or not a row
/// reaches it and whatever the statement's qualifier.
#[test]
fn an_unknown_attribute_is_unknown_to_the_engine_and_the_reference() {
    let db = db();
    let clauses = [
        "h.no_such_attribute .= \"clean\"",
        "price_pn < 100000 and (h.no_such_attribute .= \"clean\" or \"clean rooms\")",
        "price_pn < 0 and not no_such_attribute .= \"clean\"",
    ];
    for (clause, qualifier) in clauses
        .into_iter()
        .flat_map(|clause| QUALIFIERS.map(|q| (clause, q)))
    {
        let qualifier = qualifier.map_or_else(String::new, |q| format!(" {q}"));
        let sql = format!("select * from hotels h where {clause}{qualifier}");
        for algebra in ALGEBRAS {
            let engine = db.query_with_algebra(&sql, algebra).map(|_| ());
            assert!(
                matches!(engine, Err(OpineError::Store(StoreError::UnknownColumn(_)))),
                "{sql}: {engine:?}"
            );
            let select = parse_select(&sql).expect("parses");
            let reference = execute(&select, db.catalog(), &db.reference(), algebra, None)
                .map(|_| ())
                .map_err(OpineError::Store);
            assert_eq!(
                reference.map_err(|e| e.to_string()),
                engine.map_err(|e| e.to_string()),
                "{sql}"
            );
        }
    }
}
