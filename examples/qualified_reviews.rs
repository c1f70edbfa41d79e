//! Review-qualified queries (Sec. 2): "consider only opinions of people
//! who reviewed at least 10 hotels" and "reviews after 2010".
//!
//! These are first-class Subjective SQL (`... with reviews(year >= 2010,
//! reviewer_min_count >= 10)`) and interactive: a qualified summary is
//! one fold over its cell's raw occurrences, each adding the contribution
//! tabulated once for its linguistic variation (fixed-point accumulators
//! make the fold bit-identical to the reference's from-scratch rescan,
//! which computes every marker cosine again). A set keeps the folded
//! cells as a feature plane, which the same lane kernel as an
//! unqualified column scores; sets are cached per qualifier and repaired
//! per entity after an INSERT.
//!
//! ```sh
//! cargo run --release --example qualified_reviews [entities] [reviews]
//! ```

use opinedb::core::membership::feature_row;
use opinedb::core::{build, BuildConfig, Interpretation};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::store::ReviewQualifier;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1).map(|a| a.parse::<usize>());
    let num_entities = args.next().and_then(Result::ok).unwrap_or(30);
    let mean_reviews = args.next().and_then(Result::ok).unwrap_or(30);
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities,
            mean_reviews,
            seed: 5,
        },
    );
    let db = build(&corpus, &BuildConfig::default());

    let prolific = corpus
        .reviews
        .iter()
        .filter(|r| db.reviewer_review_count(r.reviewer_id) >= 10)
        .count();
    println!(
        "{prolific} of {} reviews were written by reviewers with >= 10 reviews",
        corpus.reviews.len()
    );

    // The SQL surface: the qualifier scopes every subjective degree in
    // the statement to the qualifying reviews.
    let sql = "select hotelname, price_pn from hotels \
               where \"very clean rooms\" \
               with reviews(year > 2010, reviewer_min_count >= 10) \
               limit 8";
    println!("\n{sql}\n");
    let out = db.query(sql).expect("qualified query runs");
    for (row, score) in &out.result.rows {
        println!("  {:<12} {:>8}   degree {score:.3}", row[0], row[1]);
    }

    // Under the hood: the fold vs the raw rescan — same feature rows
    // and degrees (bit-identical), very different cost.
    let qualifier = ReviewQualifier {
        min_year: Some(2011),
        max_year: None,
        min_reviewer_count: Some(10),
    };
    let start = Instant::now();
    let rebuilt = db.summaries_with_review_filter(|m| {
        qualifier.accepts(m.year, db.reviewer_review_count(m.reviewer_id) as u32)
    });
    let t_rescan = start.elapsed();
    db.clear_filtered_summaries();
    let start = Instant::now();
    let folded = db.summaries_qualified(&qualifier);
    let t_fold = start.elapsed();
    let start = Instant::now();
    let column = db.degree_column_qualified("very clean rooms", &qualifier);
    let t_column = start.elapsed();

    println!("\nroom-cleanliness degree for \"very clean rooms\", all vs qualified reviews:");
    println!(
        "{:<12} {:>8} {:>11} {:>8}",
        "hotel", "all", "qualified", "reviews"
    );
    let all = db.degree_column_qualified("very clean rooms", &ReviewQualifier::default());
    let attribute = match db.interpret("very clean rooms") {
        Interpretation::Direct { attribute, .. } => attribute,
        other => panic!("\"very clean rooms\" is a direct predicate, got {other:?}"),
    };
    for e in 0..8.min(db.num_entities()) {
        let (d_all, d_q) = (all[e], column[e]);
        for (a, rebuilt) in rebuilt[e].iter().enumerate() {
            let bits = |row: Vec<f64>| row.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(folded.feature_row(e, a)),
                bits(feature_row(rebuilt)),
                "fold and rescan must agree bit-for-bit"
            );
        }
        assert_eq!(
            d_q.to_bits(),
            db.attribute_degree_with_summaries(&rebuilt, e, attribute, "very clean rooms")
                .to_bits(),
            "the plane's column and the rescan's degree must agree bit-for-bit"
        );
        println!(
            "{:<12} {:>8.3} {:>11.3} {:>8}",
            db.entity_key(e),
            d_all,
            d_q,
            db.review_count(e)
        );
    }

    // One INSERT batch touching one entity in eight (at most 100), by
    // new reviewers, then the same qualifier again: the cached set is
    // repaired by folding only those entities into rows beside its
    // plane (past one in eight it would fold cold); a third call is a
    // cache probe. This first repair also builds the entity → review
    // index the repaired text lengths are summed over, once per process.
    let touched = (db.num_entities() / 8).min(100);
    let phrase = &db.opinion_domain(0).variations()[0].phrase;
    let rows: Vec<String> = (0..touched)
        .map(|e| format!("('{}', 'really {phrase}', 2019)", db.entity_key(e)))
        .collect();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year) VALUES {}",
        rows.join(", ")
    ))
    .expect("insert runs");
    let before = db.cache_report().qualified_repaired_entities;
    let start = Instant::now();
    let repaired = db.summaries_qualified(&qualifier);
    let t_repair = start.elapsed();
    let repaired_entities = db.cache_report().qualified_repaired_entities - before;
    let start = Instant::now();
    let cached = db.summaries_qualified(&qualifier);
    let t_cached = start.elapsed();
    assert!(std::sync::Arc::ptr_eq(&repaired, &cached));
    let report = db.cache_report();

    let attributes = db.attributes.len();
    let occurrences: usize = (0..db.num_entities())
        .flat_map(|e| (0..attributes).map(move |a| (e, a)))
        .map(|(e, a)| db.raw_phrases(e, a).len())
        .sum();
    let variations: usize = (0..attributes)
        .map(|a| db.opinion_domain(a).variations().len())
        .sum();
    println!(
        "\n{} entities x {mean_reviews} reviews: {occurrences} raw occurrences of {variations} \
         variations (one tabulated contribution each)",
        db.num_entities()
    );
    // Past one changed entity in eight a stale set folds cold instead.
    let repair = match repaired_entities {
        0 => format!("folded cold again {t_repair:.1?}"),
        m => format!(
            "repair {:.2?} per entity ({m} entities, {t_repair:.1?})",
            t_repair / m as u32
        ),
    };
    println!(
        "raw rescan {t_rescan:>8.1?}   cold fold {t_fold:>8.1?} ({:.1}x)   {repair}   \
         cached set {t_cached:.1?}   column {t_column:.1?}",
        t_rescan.as_secs_f64() / t_fold.as_secs_f64().max(1e-9),
    );
    println!(
        "cached sets hold {} B: feature plane {} B per set, {} entities repaired beside it",
        report.qualified_set_bytes,
        report.feature_plane_bytes,
        cached.repaired_entities()
    );
}
