//! P1 — derivation-pipeline hot paths: index-dense vs HashMap state, and
//! sequential vs parallel execution.
//!
//! The headline comparison is `derive/*`: the `baseline_hashmap` rows run
//! the pre-optimization pipeline (sequential categories, `HashMap`-keyed
//! fixed-point state), the `index_dense_seq` rows isolate the data-layout
//! win at one thread, and `index_dense_par` adds the rayon-style
//! per-category fan-out. All three produce bit-identical `Derived` models
//! (asserted by the workspace's determinism tests), so the ratio between
//! their times is pure overhead removed.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wot_bench::{Scale, DEFAULT_SEED};
use wot_core::{pipeline, trust, DeriveConfig};
use wot_sparse::masked_row_dot;

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Laptop => "laptop",
        Scale::Paper => "paper",
    }
}

fn bench(c: &mut Criterion) {
    let seq = DeriveConfig::builder().parallel(false).build().unwrap();
    let par = DeriveConfig::builder().thread_count(0).build().unwrap();

    for scale in [Scale::Tiny, Scale::Laptop] {
        let name = scale_name(scale);
        let out = wot_synth::generate(&scale.synth_config(DEFAULT_SEED)).expect("preset valid");
        let store = out.store;
        let derived = pipeline::derive(&store, &par).expect("derivation succeeds");
        let r = store.direct_connection_matrix();

        let mut group = c.benchmark_group(format!("pipeline/{name}"));
        group.sample_size(if scale == Scale::Tiny { 30 } else { 10 });

        group.bench_function("derive/baseline_hashmap", |b| {
            b.iter(|| pipeline::derive_baseline(black_box(&store), black_box(&seq)).unwrap())
        });
        group.bench_function("derive/index_dense_seq", |b| {
            b.iter(|| pipeline::derive(black_box(&store), black_box(&seq)).unwrap())
        });
        group.bench_function("derive/index_dense_par", |b| {
            b.iter(|| pipeline::derive(black_box(&store), black_box(&par)).unwrap())
        });

        group.bench_function("masked_row_dot/seq", |b| {
            b.iter(|| {
                masked_row_dot(
                    black_box(&derived.affiliation),
                    black_box(&derived.expertise),
                    black_box(&r),
                    1,
                )
                .unwrap()
            })
        });
        group.bench_function("masked_row_dot/par", |b| {
            b.iter(|| {
                masked_row_dot(
                    black_box(&derived.affiliation),
                    black_box(&derived.expertise),
                    black_box(&r),
                    0,
                )
                .unwrap()
            })
        });

        group.bench_function("support_count/seq", |b| {
            b.iter(|| {
                trust::support_count(
                    black_box(&derived.affiliation),
                    black_box(&derived.expertise),
                    1,
                )
                .unwrap()
            })
        });
        group.bench_function("support_count/par", |b| {
            b.iter(|| {
                trust::support_count(
                    black_box(&derived.affiliation),
                    black_box(&derived.expertise),
                    0,
                )
                .unwrap()
            })
        });

        // The full dense T̂ is only materializable away from paper scale.
        if store.num_users() <= 10_000 {
            group.bench_function("trust_dense/seq", |b| {
                b.iter(|| {
                    trust::derive_dense(
                        black_box(&derived.affiliation),
                        black_box(&derived.expertise),
                        1,
                    )
                    .unwrap()
                })
            });
            group.bench_function("trust_dense/par", |b| {
                b.iter(|| {
                    trust::derive_dense(
                        black_box(&derived.affiliation),
                        black_box(&derived.expertise),
                        0,
                    )
                    .unwrap()
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
