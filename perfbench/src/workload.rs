//! The scenario registry: four workloads, each a seeded request stream.
//!
//! Everything the server will be sent is generated here, before any
//! clock starts, from `--seed` alone: the program under test sees only
//! the generated inputs. Each workload is chosen for the layer it
//! stresses *and* the layers it bypasses (see `README.md`).

use crate::stats::Fnv;
use opine_corpus::hotel::hotel_spec;
use opine_corpus::workload::{hotel_workload, WorkloadPredicate};
use opine_corpus::{Corpus, CorpusConfig, DomainSpec, Entity};
use opine_eval::{generate_queries, ObjectiveFilter};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Rows per `INSERT` batch on `ingest_mixed`.
pub const ROWS_PER_BATCH: usize = 10;
/// Every this-many-th reader request on `ingest_mixed` is qualified: at
/// this scale a qualified statement behind a live delta costs a hundred
/// plain ones, and at every 200th they take a third of the reader's time.
pub const QUALIFIED_EVERY: usize = 200;
/// Inserts go to every this-many-th entity (100 of 2 000).
pub const HOT_ENTITY_EVERY: usize = 20;
/// Distinct statements on `serve_hot`: fits the 1 024-entry result cache.
pub const HOT_STATEMENTS: usize = 256;
/// Intensifier prefixes that turn the 190-text bank into the cold bank.
pub const COLD_PREFIXES: [&str; 24] = [
    "very",
    "really",
    "truly",
    "extremely",
    "quite",
    "pretty",
    "super",
    "so",
    "incredibly",
    "remarkably",
    "exceptionally",
    "absolutely",
    "especially",
    "particularly",
    "fairly",
    "rather",
    "wonderfully",
    "consistently",
    "reliably",
    "notably",
    "seriously",
    "honestly",
    "simply",
    "totally",
];
/// Every this-many-th cold-bank slot holds an out-of-vocabulary pair
/// instead, so the interpreter's text-fallback stage fires too.
const OOV_EVERY: usize = 19;
/// The review qualifiers `ingest_mixed` rotates through: (min year,
/// min reviews by the author).
pub const QUALIFIERS: [(u32, u32); 4] = [(2012, 2), (2015, 3), (2010, 2), (2017, 2)];

/// Corpus and stream sizes. Two fixed scales: the measured one and a
/// smoke scale that exercises every code path in a few seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Entities in the generated hotel corpus.
    pub entities: usize,
    /// Mean reviews per entity.
    pub mean_reviews: usize,
    /// Distinct statements on `rank_warm` (≫ the result cache).
    pub rank_statements: usize,
    /// Length of the pre-drawn Zipf sequence on `serve_hot`.
    pub hot_draws: usize,
    /// Unrecorded requests replayed by set-up after the pre-touch.
    pub warmup_requests: usize,
    /// Open-loop writer rate on `ingest_mixed`, batches per second.
    pub writer_batches_per_s: f64,
    /// Requests in the traced replay (warm workloads).
    pub replay_requests: usize,
    /// Requests in the traced replay on `interpret_cold`.
    pub replay_cold_requests: usize,
    /// Insert batches in the traced replay on `ingest_mixed`.
    pub replay_batches: usize,
    /// How many times set-up is repeated (and timed) per run.
    pub setups: usize,
}

impl Scale {
    /// The measured scale. 2 000 entities, not the 10 000 the design
    /// note asked for: the acceptance pipeline makes 92 runs of this
    /// benchmark inside 57 minutes and wants set-up repeated within a
    /// run, which leaves about two seconds for one build.
    pub const FULL: Scale = Scale {
        entities: 2_000,
        mean_reviews: 12,
        rank_statements: 100_000,
        hot_draws: 1 << 18,
        warmup_requests: 1_000,
        writer_batches_per_s: 25.0,
        replay_requests: 2_000,
        replay_cold_requests: 300,
        replay_batches: 100,
        setups: 3,
    };
    /// `--smoke`: every path in a few seconds; numbers mean nothing.
    pub const SMOKE: Scale = Scale {
        entities: 200,
        mean_reviews: 6,
        rank_statements: 4_000,
        hot_draws: 1 << 12,
        warmup_requests: 100,
        writer_batches_per_s: 25.0,
        replay_requests: 200,
        replay_cold_requests: 40,
        replay_batches: 20,
        setups: 2,
    };

    /// The seeded hotel corpus at this scale.
    pub fn corpus(&self, seed: u64) -> Corpus {
        Corpus::generate(
            hotel_spec(),
            &CorpusConfig {
                num_entities: self.entities,
                mean_reviews: self.mean_reviews,
                seed,
            },
        )
    }
}

/// The four workloads. Names are stable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 256 hot statements, Zipf(1.0): the serving layer alone.
    ServeHot,
    /// 100 k distinct statements over warm engine caches: the ranking
    /// kernels.
    RankWarm,
    /// 4 560 cold predicates in a cyclic permutation: interpretation and
    /// degree-column builds.
    InterpretCold,
    /// `rank_warm` reads beside an open-loop `INSERT` stream.
    IngestMixed,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::RankWarm,
        Workload::InterpretCold,
        Workload::IngestMixed,
    ];

    /// The stable identifier.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::RankWarm => "rank_warm",
            Workload::InterpretCold => "interpret_cold",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parses a stable identifier.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether a writer runs beside the reader.
    pub fn ingests(self) -> bool {
        self == Workload::IngestMixed
    }

    /// Closed-loop reader connections. `ingest_mixed` gives one of the
    /// two connections (and server workers) to the writer.
    pub fn readers(self) -> usize {
        if self.ingests() {
            1
        } else {
            2
        }
    }
}

/// The objective part of a statement's WHERE clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Filter {
    /// No objective condition.
    None,
    /// `price_pn < t`.
    PriceBelow(f64),
    /// `city = 'c'`.
    City(&'static str),
    /// `city = 'c' and price_pn < t`.
    CityPriceBelow(&'static str, f64),
}

impl Filter {
    fn sql(&self) -> Option<String> {
        match self {
            Filter::None => None,
            Filter::PriceBelow(t) => Some(format!("price_pn < {t}")),
            Filter::City(c) => Some(format!("city = '{c}'")),
            Filter::CityPriceBelow(c, t) => Some(format!("city = '{c}' and price_pn < {t}")),
        }
    }

    /// Ground truth: does `entity` pass the filter?
    pub fn accepts(&self, entity: &Entity) -> bool {
        match *self {
            Filter::None => true,
            Filter::PriceBelow(t) => entity.price < t,
            Filter::City(c) => entity.city == c,
            Filter::CityPriceBelow(c, t) => entity.city == c && entity.price < t,
        }
    }
}

/// One subjective conjunct: its text, and the bank predicate whose
/// latent rule is its ground truth (`None` for out-of-vocabulary pairs).
#[derive(Debug, Clone, PartialEq)]
pub struct Conjunct {
    /// The quoted natural-language predicate.
    pub text: String,
    /// Index into [`Stream::bank`].
    pub gold: Option<u16>,
}

/// One pre-generated SELECT.
#[derive(Debug, Clone)]
pub struct Statement {
    /// The Subjective SQL text.
    pub sql: String,
    /// The `/query` request body carrying it.
    pub body: String,
    /// Bank indices of its conjuncts (`None`: no ground truth).
    pub gold: Vec<Option<u16>>,
    /// Its objective filter.
    pub filter: Filter,
    /// Whether it carries a `with reviews(…)` qualifier.
    pub qualified: bool,
    /// Whether its subjective predicates are OR-ed rather than AND-ed.
    pub disjunctive: bool,
}

/// `{"sql": …}` for `sql`.
pub fn query_body(sql: &str) -> String {
    format!("{{\"sql\": {}}}", opine_server::json::escaped(sql))
}

fn statement(
    conjuncts: &[Conjunct],
    disjunctive: bool,
    filter: Filter,
    qualifier: Option<(u32, u32)>,
    limit: usize,
) -> Statement {
    let mut conditions: Vec<String> = filter.sql().into_iter().collect();
    let quoted: Vec<String> = conjuncts
        .iter()
        .map(|c| format!("\"{}\"", c.text))
        .collect();
    if disjunctive {
        conditions.push(format!("({})", quoted.join(" or ")));
    } else {
        conditions.extend(quoted);
    }
    let mut sql = format!("select * from hotels where {}", conditions.join(" and "));
    if let Some((year, count)) = qualifier {
        sql.push_str(&format!(
            " with reviews(year >= {year}, reviewer_min_count >= {count})"
        ));
    }
    sql.push_str(&format!(" limit {limit}"));
    Statement {
        body: query_body(&sql),
        sql,
        gold: conjuncts.iter().map(|c| c.gold).collect(),
        filter,
        qualified: qualifier.is_some(),
        disjunctive,
    }
}

/// One pre-generated `INSERT` batch.
#[derive(Debug, Clone)]
pub struct InsertBatch {
    /// The `INSERT INTO reviews …` text.
    pub sql: String,
    /// The `/insert` request body carrying it.
    pub body: String,
}

/// A workload's complete, seeded input.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Which workload this is.
    pub workload: Workload,
    /// The distinct SELECTs.
    pub statements: Vec<Statement>,
    /// Request `i` sends `statements[order[i % order.len()]]`.
    pub order: Vec<u32>,
    /// Predicates set-up touches once each before the warm-up (empty on
    /// `interpret_cold`: its point is that nothing is pre-touched).
    pub pretouch: Vec<String>,
    /// Unrecorded requests set-up sends after the pre-touch: the tail
    /// of `order`. A tenth as many on `interpret_cold`, whose requests
    /// cost a hundred times more and warm nothing that lasts.
    pub warmup: usize,
    /// The paper's 190-predicate bank, ground truth for `sat_at_10`.
    pub bank: Vec<WorkloadPredicate>,
    /// The domain spec the bank's rules refer to.
    pub spec: DomainSpec,
    /// Latent entity state, ground truth for `sat_at_10`.
    pub entities: Vec<Entity>,
}

impl Stream {
    /// Generates `workload`'s stream for `seed` at `scale`.
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Stream {
        let Corpus { spec, entities, .. } = scale.corpus(seed);
        let bank = hotel_workload(&spec);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6f70_696e_6564_6221);
        let (statements, order) = match workload {
            Workload::ServeHot => hot_stream(&bank, &entities, seed, scale, &mut rng),
            Workload::RankWarm => {
                let statements = statement_mix(
                    &bank,
                    &rank_filters(&entities),
                    2..=4,
                    false,
                    scale.rank_statements,
                    &mut rng,
                );
                let order = (0..statements.len() as u32).collect();
                (statements, order)
            }
            Workload::InterpretCold => cold_stream(&bank, &mut rng),
            Workload::IngestMixed => ingest_reader_stream(&bank, &entities, scale, &mut rng),
        };
        let pretouch = match workload {
            Workload::InterpretCold => Vec::new(),
            _ => bank.iter().map(|p| p.text.clone()).collect(),
        };
        let warmup = match workload {
            Workload::InterpretCold => scale.warmup_requests / 10,
            _ => scale.warmup_requests,
        };
        Stream {
            workload,
            statements,
            order,
            pretouch,
            warmup,
            bank,
            spec,
            entities,
        }
    }

    /// The statement request `i` sends.
    pub fn request(&self, i: usize) -> &Statement {
        &self.statements[self.order[i % self.order.len()] as usize]
    }

    /// Identity of the stream: every statement and the order they are
    /// sent in. Same seed ⇒ same hash; the report carries it so two run
    /// sets can be shown to have measured the same traffic.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        for s in &self.statements {
            h.write(s.sql.as_bytes());
        }
        for i in &self.order {
            h.write(&i.to_le_bytes());
        }
        h.0
    }
}

/// Price at quantile `q` of the corpus.
fn price_quantile(entities: &[Entity], q: f64) -> f64 {
    let mut prices: Vec<f64> = entities.iter().map(|e| e.price).collect();
    prices.sort_by(f64::total_cmp);
    // Whole currency units: the literal survives SQL normalization
    // unchanged and reads like something a user would type.
    prices[((prices.len() - 1) as f64 * q) as usize].round()
}

fn conjunct(bank: &[WorkloadPredicate], i: usize) -> Conjunct {
    Conjunct {
        text: bank[i].text.clone(),
        gold: Some(i as u16),
    }
}

/// `serve_hot`: 256 distinct 2-conjunct statements from the paper's
/// bank, half of them filtered, requested with Zipf(1.0) popularity.
fn hot_stream(
    bank: &[WorkloadPredicate],
    entities: &[Entity],
    seed: u64,
    scale: &Scale,
    rng: &mut StdRng,
) -> (Vec<Statement>, Vec<u32>) {
    let median_price = price_quantile(entities, 0.5);
    let mut seen = HashSet::new();
    let mut statements = Vec::with_capacity(HOT_STATEMENTS);
    // A few spare queries cover the rare duplicate pair.
    for query in generate_queries(bank, HOT_STATEMENTS * 2, 2, ObjectiveFilter::None, seed) {
        if statements.len() == HOT_STATEMENTS {
            break;
        }
        let filter = match statements.len() % 4 {
            0 | 1 => Filter::None,
            2 => Filter::PriceBelow(median_price),
            _ => Filter::City("London"),
        };
        let conjuncts: Vec<Conjunct> = query
            .predicates
            .iter()
            .map(|p| {
                let i = bank
                    .iter()
                    .position(|b| b.text == p.text)
                    .expect("query predicates come from the bank");
                conjunct(bank, i)
            })
            .collect();
        let s = statement(&conjuncts, false, filter, None, 10);
        if seen.insert(s.sql.clone()) {
            statements.push(s);
        }
    }
    assert_eq!(statements.len(), HOT_STATEMENTS, "bank too small");
    let zipf = Zipf::new(HOT_STATEMENTS, 1.0);
    let order = (0..scale.hot_draws)
        .map(|_| zipf.sample(rng) as u32)
        .collect();
    (statements, order)
}

/// The `rank_warm` filters: none, four price quantiles, two cities.
fn rank_filters(entities: &[Entity]) -> Vec<Filter> {
    vec![
        Filter::None,
        Filter::PriceBelow(price_quantile(entities, 0.05)),
        Filter::PriceBelow(price_quantile(entities, 0.25)),
        Filter::PriceBelow(price_quantile(entities, 0.50)),
        Filter::PriceBelow(price_quantile(entities, 0.75)),
        Filter::CityPriceBelow("London", 300.0),
        Filter::City("Amsterdam"),
    ]
}

/// The `ingest_mixed` reader's filters: all of them admit 40–60 % of
/// the entities. These statements are scored candidate by candidate, so
/// their cost is proportional to the filter's selectivity; filters of
/// very different selectivity make the latency distribution multi-modal
/// and its median a coin toss between two modes.
fn scan_filters(entities: &[Entity]) -> Vec<Filter> {
    let mut filters: Vec<Filter> = [0.40, 0.45, 0.50, 0.55, 0.60]
        .into_iter()
        .map(|q| Filter::PriceBelow(price_quantile(entities, q)))
        .collect();
    // 70 % of the hotels are in London.
    filters.push(Filter::CityPriceBelow(
        "London",
        price_quantile(entities, 0.70),
    ));
    filters
}

/// A statement mix: `n` distinct statements, uniform over `conjuncts`,
/// `filters` and `limit` {10, 50}.
///
/// * `rank_warm` (`disjunctive: false`): 2–4 AND-ed bank conjuncts ×
///   [`rank_filters`]. Every one is a TA-shaped conjunction, so it takes
///   the top-k kernel (with pushdown when filtered).
/// * the `ingest_mixed` reader (`disjunctive: true`): one of
///   [`scan_filters`] AND-ed with two OR-ed bank predicates. The OR
///   residue is not TA-rankable, so the executor scores the filter's
///   candidates one at a time through the point-degree path. See
///   `README.md` for why the reader beside the writer cannot use the TA
///   shapes.
fn statement_mix(
    bank: &[WorkloadPredicate],
    filters: &[Filter],
    conjuncts: std::ops::RangeInclusive<usize>,
    disjunctive: bool,
    n: usize,
    rng: &mut StdRng,
) -> Vec<Statement> {
    let mut indices: Vec<usize> = (0..bank.len()).collect();
    let mut seen = HashSet::with_capacity(n);
    let mut statements = Vec::with_capacity(n);
    while statements.len() < n {
        let chosen = rng.gen_range(conjuncts.clone());
        // Sampling without replacement: a partial Fisher–Yates.
        for i in 0..chosen {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        let chosen: Vec<Conjunct> = indices[..chosen]
            .iter()
            .map(|&i| conjunct(bank, i))
            .collect();
        let filter = filters[rng.gen_range(0..filters.len())];
        let limit = if rng.gen_bool(0.5) { 10 } else { 50 };
        let s = statement(&chosen, disjunctive, filter, None, limit);
        if seen.insert(s.sql.clone()) {
            statements.push(s);
        }
    }
    statements
}

/// The 4 560-text cold bank: every bank text under every intensifier
/// prefix (which keeps the spec's concept queries in, so the
/// co-occurrence stage fires), with every 19th slot replaced by a
/// unique out-of-vocabulary pair (so the text fallback fires).
pub fn cold_bank(bank: &[WorkloadPredicate]) -> Vec<Conjunct> {
    let mut out = Vec::with_capacity(bank.len() * COLD_PREFIXES.len());
    for prefix in COLD_PREFIXES {
        for (i, base) in bank.iter().enumerate() {
            let slot = out.len();
            out.push(if slot % OOV_EVERY == OOV_EVERY - 1 {
                Conjunct {
                    text: format!("{} {}", nonsense(2 * slot), nonsense(2 * slot + 1)),
                    gold: None,
                }
            } else {
                Conjunct {
                    text: format!("{prefix} {}", base.text),
                    gold: Some(i as u16),
                }
            });
        }
    }
    out
}

/// A pronounceable token no review contains, unique per `n`.
fn nonsense(mut n: usize) -> String {
    let mut word = String::from("zq");
    loop {
        word.push((b'a' + (n % 26) as u8) as char);
        n /= 26;
        if n == 0 {
            break;
        }
    }
    word.push_str("vx");
    word
}

/// `interpret_cold`: pure-subjective 2-conjunct statements whose
/// predicates walk a fixed cyclic permutation of the cold bank, so no
/// predicate recurs within a full cycle — longer than every engine
/// cache (256 columns, 1 024 interpretations, 4 096 phrases).
fn cold_stream(bank: &[WorkloadPredicate], rng: &mut StdRng) -> (Vec<Statement>, Vec<u32>) {
    let cold = cold_bank(bank);
    let mut permutation: Vec<usize> = (0..cold.len()).collect();
    permutation.shuffle(rng);
    let statements: Vec<Statement> = permutation
        .chunks_exact(2)
        .map(|pair| {
            statement(
                &[cold[pair[0]].clone(), cold[pair[1]].clone()],
                false,
                Filter::None,
                None,
                10,
            )
        })
        .collect();
    let order = (0..statements.len() as u32).collect();
    (statements, order)
}

/// The reader side of `ingest_mixed`: filtered disjunctive statements
/// with every 200th request a qualified pure-subjective conjunction.
fn ingest_reader_stream(
    bank: &[WorkloadPredicate],
    entities: &[Entity],
    scale: &Scale,
    rng: &mut StdRng,
) -> (Vec<Statement>, Vec<u32>) {
    let mut statements = statement_mix(
        bank,
        &scan_filters(entities),
        2..=2,
        true,
        scale.rank_statements / 4,
        rng,
    );
    let plain = statements.len();
    let qualified = plain / QUALIFIED_EVERY;
    for q in 0..qualified {
        let a = rng.gen_range(0..bank.len());
        let b = (a + 1 + rng.gen_range(0..bank.len() - 1)) % bank.len();
        statements.push(statement(
            &[conjunct(bank, a), conjunct(bank, b)],
            false,
            Filter::None,
            Some(QUALIFIERS[q % QUALIFIERS.len()]),
            10,
        ));
    }
    let mut order = Vec::with_capacity(plain + qualified);
    let mut next_plain = 0u32;
    let mut next_qualified = plain as u32;
    while (next_qualified as usize) < statements.len() {
        for _ in 0..QUALIFIED_EVERY - 1 {
            order.push(next_plain);
            next_plain += 1;
        }
        order.push(next_qualified);
        next_qualified += 1;
    }
    (statements, order)
}

/// The writer side of `ingest_mixed`: `batches` `INSERT` statements of
/// [`ROWS_PER_BATCH`] reviews each. Review text comes from a donor
/// corpus (a different seed, so the text is new to the database but
/// in-vocabulary), every donor reviewer becomes a new, independent
/// reviewer, and the reviews go round-robin to a hot set of every
/// [`HOT_ENTITY_EVERY`]th entity.
///
/// A hot set, not all entities: review streams are skewed, and a
/// stream that touches every entity within seconds pushes the engine's
/// 65 536-entry point-degree memo into thrashing (stale entities ×
/// 190 predicates), where read latency depends on eviction order and
/// stops repeating from run to run.
pub fn insert_batches(
    seed: u64,
    scale: &Scale,
    entities: &[Entity],
    batches: usize,
) -> Vec<InsertBatch> {
    let rows = batches * ROWS_PER_BATCH;
    let donor = Corpus::generate(
        hotel_spec(),
        &CorpusConfig {
            num_entities: rows / scale.mean_reviews + 8,
            mean_reviews: scale.mean_reviews * 2,
            seed: seed ^ 0x646f_6e6f_7221,
        },
    );
    assert!(donor.reviews.len() >= rows, "donor corpus too small");
    let hot: Vec<&Entity> = entities.iter().step_by(HOT_ENTITY_EVERY).collect();
    donor
        .reviews
        .chunks_exact(ROWS_PER_BATCH)
        .take(batches)
        .enumerate()
        .map(|(b, reviews)| {
            let rows: Vec<String> = reviews
                .iter()
                .enumerate()
                .map(|(r, review)| {
                    let entity = &hot[(b * ROWS_PER_BATCH + r) % hot.len()].name;
                    // The SQL lexer has no quote escape.
                    let text: String = review.text.chars().filter(|c| *c != '\'').collect();
                    format!(
                        "('{entity}', '{text}', {}, {})",
                        review.year,
                        5_000_000 + review.reviewer_id
                    )
                })
                .collect();
            let sql = format!(
                "INSERT INTO reviews (entity, text, year, reviewer_id) VALUES {}",
                rows.join(", ")
            );
            InsertBatch {
                body: query_body(&sql),
                sql,
            }
        })
        .collect()
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Popularity of rank `r` ∝ `1 / (r + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("n > 0");
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_different_seed_differs() {
        for workload in Workload::ALL {
            let a = Stream::generate(workload, 7, &Scale::SMOKE);
            let b = Stream::generate(workload, 7, &Scale::SMOKE);
            let c = Stream::generate(workload, 8, &Scale::SMOKE);
            assert_eq!(a.hash(), b.hash(), "{workload:?}");
            assert_ne!(a.hash(), c.hash(), "{workload:?}");
        }
        let batches = |seed| {
            let entities = Scale::SMOKE.corpus(seed).entities;
            insert_batches(seed, &Scale::SMOKE, &entities, 12)
        };
        let (a, b, c) = (batches(7), batches(7), batches(8));
        assert_eq!(a.len(), 12);
        assert!(a.iter().zip(&b).all(|(x, y)| x.sql == y.sql));
        assert!(a.iter().zip(&c).any(|(x, y)| x.sql != y.sql));
    }

    #[test]
    fn every_statement_parses_and_statements_are_distinct() {
        for workload in Workload::ALL {
            let stream = Stream::generate(workload, 3, &Scale::SMOKE);
            let mut seen = HashSet::new();
            for s in &stream.statements {
                let select =
                    opine_store::parse_select(&s.sql).unwrap_or_else(|e| panic!("{}: {e}", s.sql));
                assert_eq!(select.review_qualifier.is_some(), s.qualified);
                assert!(seen.insert(select.normalized()), "duplicate {}", s.sql);
            }
        }
        let entities = Scale::SMOKE.corpus(3).entities;
        for batch in insert_batches(3, &Scale::SMOKE, &entities, 5) {
            let stmt = opine_store::parse_insert(&batch.sql).expect("insert parses");
            assert_eq!(stmt.rows.len(), ROWS_PER_BATCH);
        }
    }

    #[test]
    fn hot_stream_fits_the_result_cache_and_is_skewed() {
        let stream = Stream::generate(Workload::ServeHot, 5, &Scale::SMOKE);
        assert_eq!(stream.statements.len(), HOT_STATEMENTS);
        let mut counts = vec![0usize; HOT_STATEMENTS];
        for &i in &stream.order {
            counts[i as usize] += 1;
        }
        // Zipf(1.0): rank 0 draws about 1/H(256) ≈ 16% of requests.
        let top = counts[0] as f64 / stream.order.len() as f64;
        assert!((0.12..0.21).contains(&top), "rank-0 share {top}");
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
        let filtered = stream
            .statements
            .iter()
            .filter(|s| s.filter != Filter::None)
            .count();
        assert_eq!(filtered, HOT_STATEMENTS / 2);
    }

    #[test]
    fn zipf_sampler_is_seeded_and_in_range() {
        let zipf = Zipf::new(16, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert!(draw(1).iter().all(|&r| r < 16));
    }

    #[test]
    fn cold_permutation_never_repeats_a_predicate_within_a_cycle() {
        let stream = Stream::generate(Workload::InterpretCold, 11, &Scale::SMOKE);
        let bank_size = stream.bank.len() * COLD_PREFIXES.len();
        assert_eq!(bank_size, 4_560);
        assert_eq!(stream.statements.len(), bank_size / 2);
        // Walk two full cycles of draws: within any window of 4 560
        // consecutive draws every predicate is distinct.
        let draws: Vec<String> = (0..stream.statements.len() * 2)
            .flat_map(|i| {
                let select = opine_store::parse_select(&stream.request(i).sql).unwrap();
                select
                    .where_clause
                    .as_ref()
                    .unwrap()
                    .subjective_predicates()
                    .into_iter()
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(draws.len(), bank_size * 2);
        for start in [0, 1, 777, bank_size - 1, bank_size] {
            let window: HashSet<&String> = draws[start..start + bank_size].iter().collect();
            assert_eq!(window.len(), bank_size, "repeat in window at {start}");
        }
        assert!(stream.pretouch.is_empty());
        let oov = cold_bank(&stream.bank)
            .iter()
            .filter(|c| c.gold.is_none())
            .count();
        assert_eq!(oov, bank_size / OOV_EVERY);
    }

    #[test]
    fn ingest_reader_qualifies_every_two_hundredth_request() {
        let stream = Stream::generate(Workload::IngestMixed, 2, &Scale::SMOKE);
        for i in 0..stream.order.len() {
            assert_eq!(
                stream.request(i).qualified,
                i % QUALIFIED_EVERY == QUALIFIED_EVERY - 1,
                "request {i}"
            );
        }
    }
}
