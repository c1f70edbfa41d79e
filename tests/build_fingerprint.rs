//! Pins what `build` produces, bit for bit.
//!
//! For each domain at a small scale (150 entities × 8 reviews, seed 3,
//! the default `BuildConfig`) five FNV-1a hashes cover:
//! - the vocabulary in id order;
//! - every word's word2vec vector bits;
//! - every word's IDF, through the bits of its one-word phrase
//!   representation (the IDF weight times the unit vector, for every
//!   word the embedder resolves) and the review index's document
//!   frequency (the IDF model counts the same per-review documents);
//! - the rows and score bits of every bank predicate alone, AND-ed with
//!   its neighbour and under `with reviews(year >= 2012)`, plus two
//!   concept texts the interpreter sends to co-occurrence (the review
//!   index and its sentiments) and one partly out-of-vocabulary text it
//!   sends to the text fallback;
//! - the interpretation each of those statements reports.
//!
//! Every construction step is deterministic, so any change to the build
//! that moves one of these hashes changed the database it builds. A
//! change that only speeds the build up must leave them all equal.

use opinedb::core::{build, BuildConfig, OpineDb};
use opinedb::corpus::hotel::hotel_spec;
use opinedb::corpus::restaurant::restaurant_spec;
use opinedb::corpus::spec::DomainSpec;
use opinedb::corpus::workload::build_workload;
use opinedb::corpus::{Corpus, CorpusConfig};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// The five hashes, in the order the module doc lists them.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    vocab: u64,
    vectors: u64,
    idf: u64,
    answers: u64,
    interpretations: u64,
}

/// Builds `spec`'s database and hashes it. `texts` are two concept texts
/// and one out-of-vocabulary text, each asked alone.
fn fingerprint(spec: DomainSpec, table: &str, bank_size: usize, texts: [&str; 3]) -> Fingerprint {
    let corpus = Corpus::generate(
        spec.clone(),
        &CorpusConfig {
            num_entities: 150,
            mean_reviews: 8,
            seed: 3,
        },
    );
    let db = build(&corpus, &BuildConfig::default());
    let vocab = db.vocab();
    let w2v = db.embedder().w2v();
    let review_index = db.interpreter().review_index();

    let (mut words, mut vectors, mut idf) = (Fnv::new(), Fnv::new(), Fnv::new());
    idf.u64(review_index.num_docs() as u64);
    for (id, word) in vocab.iter() {
        words.str(word);
        for x in w2v.vector(id) {
            vectors.u64(u64::from(x.to_bits()));
        }
        for x in db.embedder().rep(word, vocab) {
            idf.u64(u64::from(x.to_bits()));
        }
        idf.u64(review_index.doc_freq(id) as u64);
    }

    let bank: Vec<String> = build_workload(&spec, bank_size)
        .into_iter()
        .map(|p| p.text)
        .collect();
    let mut statements = Vec::new();
    for (i, p) in bank.iter().enumerate() {
        let next = &bank[(i + 1) % bank.len()];
        statements.push(format!("select * from {table} where \"{p}\" limit 10"));
        statements.push(format!(
            "select * from {table} where \"{p}\" and \"{next}\" limit 10"
        ));
        statements.push(format!(
            "select * from {table} where \"{p}\" with reviews(year >= 2012) limit 10"
        ));
    }
    for text in texts {
        statements.push(format!("select * from {table} where \"{text}\" limit 10"));
    }

    let (mut answers, mut interpretations) = (Fnv::new(), Fnv::new());
    for sql in &statements {
        hash_statement(&db, sql, &mut answers, &mut interpretations);
    }
    Fingerprint {
        vocab: words.0,
        vectors: vectors.0,
        idf: idf.0,
        answers: answers.0,
        interpretations: interpretations.0,
    }
}

fn hash_statement(db: &OpineDb, sql: &str, answers: &mut Fnv, interpretations: &mut Fnv) {
    let out = db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e:?}"));
    answers.str(sql);
    for (row, score) in &out.result.rows {
        answers.str(&row[0].to_string());
        answers.u64(score.to_bits());
    }
    for (predicate, interpretation) in &out.interpretations {
        interpretations.str(predicate);
        interpretations.str(&format!("{interpretation:?}"));
    }
}

#[test]
fn the_hotel_build_is_pinned() {
    assert_eq!(
        fingerprint(
            hotel_spec(),
            "hotels",
            190,
            // At this scale the hotel interpreter sends no word a review
            // contains to the fallback, so this text scores every entity
            // alike and pins only the fallback's tie order.
            [
                "romantic hotel for couples",
                "kid friendly hotel",
                "zyzzyva quuxly close to attractions",
            ]
        ),
        Fingerprint {
            vocab: 10870427501655864717,
            vectors: 14646744883656786191,
            idf: 10213385792089423856,
            answers: 11881034565167336939,
            interpretations: 12329198601328160018,
        }
    );
}

#[test]
fn the_restaurant_build_is_pinned() {
    assert_eq!(
        fingerprint(
            restaurant_spec(),
            "restaurants",
            185,
            [
                "dinner with kids",
                "private dinner vibe",
                "zyzzyva quuxly ridiculous",
            ]
        ),
        Fingerprint {
            vocab: 16603210306324869799,
            vectors: 157498203440960674,
            idf: 9783437352585720012,
            answers: 18259145239973268605,
            interpretations: 9056034646975530172,
        }
    );
}
