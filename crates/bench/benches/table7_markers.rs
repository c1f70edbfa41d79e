//! **Table 7** — marker summaries vs no markers: membership-function
//! (LR) accuracy, result quality, and runtime per 100 queries, plus the
//! marker-count (10 vs 4) and Threshold-Algorithm ablations from
//! DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use opine_bench::{banner, build_db, hotel_corpus, opine_rank, opine_rank_with, restaurant_corpus};
use opine_core::membership::{marker_features, scan_features};
use opine_core::reference::full_scan_topk_dense;
use opine_core::topk::threshold_topk;
use opine_core::OpineDb;
use opine_corpus::workload::{build_workload, hotel_workload, restaurant_workload};
use opine_corpus::Corpus;
use opine_eval::{generate_queries, workload_quality, EvalQuery, ObjectiveFilter};
use opine_store::{FuzzyAlgebra, Residue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const TOP_K: usize = 10;
const QUERIES: usize = 50;

/// Held-out LR accuracy of both membership models, on fresh tuples.
fn lr_accuracy(db: &OpineDb, corpus: &Corpus, seed: u64) -> (f64, f64) {
    let bank = build_workload(&corpus.spec, 150);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut marker_tuples = Vec::new();
    let mut scan_tuples = Vec::new();
    for _ in 0..400 {
        let e = rng.gen_range(0..corpus.entities.len());
        let p = &bank[rng.gen_range(0..bank.len())];
        let label = p.satisfied_by(&corpus.entities[e], &corpus.spec);
        let mut q_rep = db.embedder().rep(&p.text, db.vocab());
        opine_embed::normalize(&mut q_rep);
        let q_sent = db.sentiment().score(&p.text);
        marker_tuples.push((
            marker_features(
                &db.summary(e, p.gold_aspect),
                db.marker_set(p.gold_aspect),
                &q_rep,
                q_sent,
            ),
            label,
        ));
        let phrases = db.raw_phrases(e, p.gold_aspect);
        scan_tuples.push((scan_features(&phrases, &q_rep, q_sent), label));
    }
    (
        db.membership_markers().accuracy(&marker_tuples),
        db.membership_scan().accuracy(&scan_tuples),
    )
}

fn run_set(db: &OpineDb, corpus: &Corpus, queries: &[EvalQuery], label: &str) {
    // Warm the interpretation cache so both timed runs measure degree
    // computation (the thing markers accelerate), not one-off
    // interpretation that would otherwise bill to whichever runs first.
    for q in queries {
        for p in &q.predicates {
            db.interpret(&p.text);
        }
    }
    // Both arms run on the cache-free reference: every degree is
    // recomputed, which is what the table times.
    let t0 = Instant::now();
    let quality_mk = workload_quality(queries, corpus, TOP_K, |q| {
        opine_rank_with(db, q, TOP_K, |sql| db.reference().query(sql))
    });
    let time_mk = t0.elapsed().as_secs_f64() * (100.0 / queries.len() as f64);

    let t1 = Instant::now();
    let quality_scan = workload_quality(queries, corpus, TOP_K, |q| {
        opine_rank_with(db, q, TOP_K, |sql| db.reference().scan().query(sql))
    });
    let time_scan = t1.elapsed().as_secs_f64() * (100.0 / queries.len() as f64);

    let (acc_mk, acc_scan) = lr_accuracy(db, corpus, 77);
    println!(
        "{:<12} | 10-mkrs: LR-acc {:.2} NDCG@10 {:.2} runtime {:>7.2}s | no-mkrs: LR-acc {:.2} NDCG@10 {:.2} runtime {:>7.2}s | speedup {:.2}x",
        label, acc_mk, quality_mk, time_mk, acc_scan, quality_scan, time_scan,
        time_scan / time_mk.max(1e-9)
    );
}

fn bench(c: &mut Criterion) {
    banner("Table 7: marker summaries (10-mkrs) vs no markers (runtime per 100 queries)");
    let hotels = hotel_corpus();
    let hotel_db = build_db(&hotels);
    let h_bank = hotel_workload(&hotels.spec);
    run_set(
        &hotel_db,
        &hotels,
        &generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::LondonUnder300, 7),
        "London",
    );
    run_set(
        &hotel_db,
        &hotels,
        &generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::Amsterdam, 8),
        "Amsterdam",
    );
    let restaurants = restaurant_corpus();
    let rest_db = build_db(&restaurants);
    let r_bank = restaurant_workload(&restaurants.spec);
    run_set(
        &rest_db,
        &restaurants,
        &generate_queries(&r_bank, QUERIES, 4, ObjectiveFilter::LowPrice, 9),
        "Low-Price",
    );
    run_set(
        &rest_db,
        &restaurants,
        &generate_queries(&r_bank, QUERIES, 4, ObjectiveFilter::Japanese, 10),
        "JP Cuisine",
    );

    // Ablation: 4 markers instead of 10.
    let mut small_cfg = opine_bench::bench_build_config();
    small_cfg.markers_per_attribute = 4;
    let small_db = opine_core::build(&hotels, &small_cfg);
    let queries = generate_queries(&h_bank, QUERIES, 4, ObjectiveFilter::LondonUnder300, 7);
    let q4 = workload_quality(&queries, &hotels, TOP_K, |q| {
        opine_rank(&small_db, q, TOP_K)
    });
    let q10 = workload_quality(&queries, &hotels, TOP_K, |q| {
        opine_rank(&hotel_db, q, TOP_K)
    });
    println!("marker-count ablation (London medium): k=4 NDCG {q4:.2} vs k=10 NDCG {q10:.2}");

    // Ablation: Fagin's Threshold Algorithm vs full scan for fuzzy top-k.
    let preds = ["clean rooms", "friendly staff", "quiet room"];
    let columns: Vec<_> = preds.iter().map(|p| hotel_db.degree_column(p)).collect();
    let degrees: Vec<&[f64]> = columns.iter().map(|c| c.degrees()).collect();
    let orders: Vec<&[u32]> = columns.iter().map(|c| c.sorted_order()).collect();
    let conjunction = Residue::conjunction(preds.len()).expect("three leaves");
    let ta = || {
        threshold_topk(
            &degrees,
            &orders,
            &conjunction,
            FuzzyAlgebra::Product,
            TOP_K,
            |_| true,
        )
    };
    let full_scan = || full_scan_topk_dense(&degrees, &conjunction, FuzzyAlgebra::Product, TOP_K);
    assert_eq!(ta(), full_scan());
    println!("threshold-algorithm top-{TOP_K} matches full scan on 3-predicate conjunction ✓");

    let mut group = c.benchmark_group("table7");
    group.sample_size(10);
    group.bench_function("degree_with_markers", |b| {
        b.iter(|| black_box(hotel_db.reference().degree(3, "clean rooms")))
    });
    group.bench_function("degree_no_markers_scan", |b| {
        b.iter(|| black_box(hotel_db.reference().scan().degree(3, "clean rooms")))
    });
    group.bench_function("threshold_topk", |b| b.iter(|| black_box(ta())));
    group.bench_function("full_scan_topk", |b| b.iter(|| black_box(full_scan())));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
