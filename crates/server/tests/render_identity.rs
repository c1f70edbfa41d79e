//! A served body copies entity rows from the JSON their table rendered at
//! build; it must be byte for byte what formatting every value writes.
//! Checked on both domains for every entity row, for `select *`, a
//! projection in another column order, a join, and overlay rows.

use opine_core::{build, BuildConfig, OpineDb, QueryRef};
use opine_corpus::hotel::hotel_spec;
use opine_corpus::restaurant::restaurant_spec;
use opine_corpus::{Corpus, CorpusConfig, DomainSpec};
use opine_embed::Word2VecConfig;
use opine_server::json::{escape_fmt_into, escape_into, push_f64, push_value};
use opine_server::render_query_body;
use opine_store::{parse_select, FuzzyAlgebra, ObjectiveOnly, ScoredRows, TableOverlay, Value};

fn db(spec: DomainSpec, seed: u64) -> OpineDb {
    let corpus = Corpus::generate(
        spec,
        &CorpusConfig {
            num_entities: 30,
            mean_reviews: 8,
            seed,
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

/// Row `i`'s values with every cell formatted.
fn formatted_values(rows: &ScoredRows<'_>, i: usize) -> String {
    let mut out = String::new();
    for (j, value) in rows.values(i).enumerate() {
        if j > 0 {
            out.push(',');
        }
        push_value(&mut out, value);
    }
    out
}

/// Row `i`'s values copied from its table's rendered cells, if any.
fn copied_values(rows: &ScoredRows<'_>, i: usize) -> Option<String> {
    Some(rows.rendered_values(i)?.collect::<Vec<_>>().join(","))
}

/// The `/query` body with every value formatted, as it was written
/// before rows were copied: the specification of the bytes.
fn formatted_body(q: &QueryRef<'_>) -> String {
    let rows = &q.result;
    let mut out = String::from("{\"columns\":[");
    for (i, col) in rows.columns().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_into(&mut out, col);
    }
    out.push_str(&format!("],\"row_count\":{},\"rows\":[", rows.len()));
    for i in 0..rows.len() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"values\":[");
        out.push_str(&formatted_values(rows, i));
        out.push_str("],\"score\":");
        push_f64(&mut out, rows.score(i));
        out.push('}');
    }
    out.push_str("],\"interpretations\":[");
    for (i, (predicate, interp)) in q.interpretations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"predicate\":");
        escape_into(&mut out, predicate);
        out.push_str(",\"interpretation\":");
        escape_fmt_into(&mut out, format_args!("{interp:?}"));
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Serves `sql` and checks the body against the formatted one. Returns
/// how many rows were copied and how many formatted.
fn same_body(db: &OpineDb, sql: &str) -> (usize, usize) {
    let select = parse_select(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let served = render_query_body(db, &select).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let q = db.query_select_ref(&select).unwrap();
    assert_eq!(served, formatted_body(&q), "{sql}");
    let rows = &q.result;
    let copied = (0..rows.len())
        .filter(|&i| {
            copied_values(rows, i).is_some_and(|c| {
                assert_eq!(c, formatted_values(rows, i), "{sql}, row {i}");
                true
            })
        })
        .count();
    (copied, rows.len() - copied)
}

fn check_domain(db: &OpineDb, table: &str, key: &str, phrase: &str) {
    let n = db.num_entities();
    let entities = db.catalog().table(table).unwrap();
    assert_eq!(entities.len(), n);
    for row in entities.rows() {
        let rendered = row
            .rendered()
            .expect("the entity table is rendered at build");
        let mut want = String::new();
        for c in 0..row.len() {
            let mut cell = String::new();
            push_value(&mut cell, row.get(c));
            assert_eq!(
                rendered.cell(c),
                cell,
                "{table} row {} cell {c}",
                row.index()
            );
            if c > 0 {
                want.push(',');
            }
            want.push_str(&cell);
        }
        assert_eq!(rendered.cells(), want, "{table} row {}", row.index());
    }
    assert!(db.cache_report().rendered_cell_bytes > 0);
    assert!(db
        .catalog()
        .table("reviews")
        .unwrap()
        .row(0)
        .rendered()
        .is_none());

    // Every entity row, whole and projected out of order.
    assert_eq!(
        same_body(db, &format!("select * from {table} limit {n}")),
        (n, 0)
    );
    assert_eq!(
        same_body(
            db,
            &format!("select rating, city, {key} from {table} limit {n}")
        ),
        (n, 0)
    );
    let (copied, formatted) = same_body(
        db,
        &format!("select * from {table} where rating > 3 and \"{phrase}\" limit 10"),
    );
    assert_eq!(formatted, 0);
    assert!(copied > 0);
    // A join materializes its rows: every one is formatted.
    let join = format!("select * from {table} h join reviews r on h.{key} = r.entity limit 40");
    assert_eq!(same_body(db, &join), (0, 40));

    // Overlay rows: reviews inserted after the build, alone and joined.
    let name = entities.row(0).get(0).as_str().unwrap().to_string();
    db.insert_sql(&format!(
        "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES \
         ('{name}', 'the \"best\" stay, a\\\\b', 2016, 7), ('{name}', 'fine', 2017, 8)"
    ))
    .unwrap();
    let (copied, formatted) = same_body(
        db,
        &format!("select * from reviews where entity = '{name}' limit 1000"),
    );
    assert_eq!(copied, 0);
    assert!(formatted >= 2);
    let (copied, formatted) = same_body(
        db,
        &format!(
            "select r.year, h.{key}, r.entity from {table} h join reviews r \
             on h.{key} = r.entity where h.{key} = '{name}' limit 1000"
        ),
    );
    assert_eq!(copied, 0);
    assert!(formatted >= 2);
    assert_eq!(
        same_body(db, &format!("select * from {table} limit {n}")),
        (n, 0)
    );

    // Overlay rows of the entity table itself, over a clone of the
    // catalog (which shares the rendered cells): base rows copy, the
    // appended rows format.
    let catalog = db.catalog().clone();
    let clone_rows = catalog.table(table).unwrap();
    assert!(std::ptr::eq(
        clone_rows.row(3).rendered().unwrap().cells(),
        entities.row(3).rendered().unwrap().cells()
    ));
    let mut overlay = TableOverlay::new();
    let mut extra = entities.row(1).to_values();
    extra[0] = Value::text("New \"Place\"\n☕");
    overlay.push_row(table, extra);
    for sql in [
        format!("select * from {table}"),
        format!("select city, {key}, rating from {table}"),
    ] {
        let select = parse_select(&sql).unwrap();
        let rows = opine_store::execute(
            &select,
            &catalog,
            &ObjectiveOnly,
            FuzzyAlgebra::Product,
            Some(&overlay),
        )
        .unwrap();
        assert_eq!(rows.len(), n + 1);
        let mut appended = 0;
        for i in 0..rows.len() {
            match copied_values(&rows, i) {
                Some(copied) => assert_eq!(copied, formatted_values(&rows, i), "{sql}"),
                None => appended += 1,
            }
        }
        assert_eq!(appended, 1, "{sql}");
    }
}

#[test]
fn served_rows_copy_the_bytes_the_formatter_writes() {
    check_domain(&db(hotel_spec(), 41), "hotels", "hotelname", "clean rooms");
    check_domain(
        &db(restaurant_spec(), 42),
        "restaurants",
        "restname",
        "tasty food",
    );
}
