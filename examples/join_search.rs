//! The Fig. 3 join query: "find a hotel with a lively bar on the same
//! street as a cafe with a relaxing atmosphere".
//!
//! OpineDB leaves fuzzy join *semantics* to future work; as documented in
//! DESIGN.md we execute the join relationally and combine the subjective
//! scores with the product t-norm.
//!
//! ```sh
//! cargo run --release --example join_search
//! ```

use opinedb::core::{build, BuildConfig};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::{Corpus, CorpusConfig};
use opinedb::store::{Column, ColumnType, Schema, Value};

fn main() {
    let corpus = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: 30,
            mean_reviews: 18,
            seed: 21,
        },
    );
    let db = build(&corpus, &BuildConfig::default());

    // Extend the catalog with a streets mapping and a cafes table (the
    // cafes' "relaxing atmosphere" scores come from their own mini review
    // aggregation; here they are published scores).
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
    catalog
        .create_table(Schema::new(
            "cafes",
            vec![
                Column::new("cafename", ColumnType::Text),
                Column::new("street", ColumnType::Text),
                Column::new("relaxing", ColumnType::Float),
            ],
            0,
        ))
        .unwrap();
    let streets = ["baker", "oxford", "regent", "piccadilly"];
    for e in 0..db.num_entities() {
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
    for (i, street) in streets.iter().enumerate() {
        catalog
            .insert(
                "cafes",
                vec![
                    Value::text(&format!("Cafe {i}")),
                    Value::text(street),
                    Value::Float(0.4 + 0.15 * i as f64),
                ],
            )
            .unwrap();
    }

    // Join hotels to co-located cafes; the "lively bar" predicate is
    // subjective (scored by OpineDB), the cafe condition is objective here.
    let sql = "select * from hotels h \
               join hotel_streets s on h.hotelname = s.hotel \
               join cafes c on s.street = c.street \
               where \"a lively bar scene\" and c.relaxing > 0.6 \
               limit 5";
    println!("query (Fig. 3): {sql}\n");
    let select = opinedb::store::parse_select(sql).expect("parses");
    let result = opinedb::store::execute(
        &select,
        &catalog,
        &db.at_pin(),
        opinedb::store::FuzzyAlgebra::Product,
        None,
    )
    .expect("executes");
    println!("hotel        street       cafe      score");
    for (row, score) in result.iter() {
        let row: Vec<_> = row.collect();
        println!(
            "{:<12} {:<12} {:<9} {score:.3}",
            row[0].to_string(),
            row[6].to_string(),
            row[7].to_string()
        );
    }
}
