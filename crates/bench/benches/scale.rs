//! Scale sweep: sequential vs parallel batch kernels (all-pairs shortest
//! paths, multi-file solve) over N × M grids. The JSON artifact committed at
//! the repo root (`BENCH_scale.json`) is produced by `fap bench-scale`; this
//! criterion harness measures the same kernels statistically.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_batch::Parallelism;
use fap_bench::scale::{scale_graph, scale_problem};
use fap_core::MultiFileScratch;
use fap_obs::NoopRecorder;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale");
    group.sample_size(10);
    for n in [64usize, 256] {
        let graph = scale_graph(n);
        group.bench_function(format!("all_pairs_seq_n{n}"), |b| {
            b.iter(|| black_box(&graph).shortest_path_matrix().expect("connected"));
        });
        group.bench_function(format!("all_pairs_par_n{n}"), |b| {
            b.iter(|| {
                black_box(&graph)
                    .shortest_path_matrix_observed(Parallelism::Auto, &mut NoopRecorder)
                    .expect("connected")
            });
        });

        for m in [1usize, 16] {
            let problem = scale_problem(&graph, m);
            let initial = vec![vec![1.0 / n as f64; n]; m];
            let mut seq_scratch = MultiFileScratch::new();
            let mut par_scratch = MultiFileScratch::new();
            group.bench_function(format!("multi_file_seq_n{n}_m{m}"), |b| {
                b.iter(|| {
                    black_box(&problem)
                        .solve_with_scratch(
                            &initial,
                            0.002,
                            1e-300,
                            10,
                            Parallelism::Sequential,
                            &mut seq_scratch,
                            &mut NoopRecorder,
                        )
                        .expect("stable solve")
                });
            });
            group.bench_function(format!("multi_file_par_n{n}_m{m}"), |b| {
                b.iter(|| {
                    black_box(&problem)
                        .solve_with_scratch(
                            &initial,
                            0.002,
                            1e-300,
                            10,
                            Parallelism::Auto,
                            &mut par_scratch,
                            &mut NoopRecorder,
                        )
                        .expect("stable solve")
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
