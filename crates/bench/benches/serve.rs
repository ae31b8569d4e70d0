//! Serving sweep: sequential vs sharded batch serving over a mixed
//! workload. The JSON artifact committed at the repo root
//! (`BENCH_serve.json`) is produced by `fap bench-serve`; this criterion
//! harness measures the same batcher statistically.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_batch::Parallelism;
use fap_bench::serve::serve_workload;
use fap_obs::NoopRecorder;
use fap_serve::{BatchServer, WarmMode};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for count in [12usize, 48] {
        let requests = serve_workload(count);
        let mut server = BatchServer::new(Parallelism::Sequential, WarmMode::Off);
        group.bench_function(format!("sequential_r{count}"), |b| {
            b.iter(|| server.serve(black_box(&requests), &mut NoopRecorder));
        });
        for shards in [2usize, 4] {
            let mut server = BatchServer::new(Parallelism::Fixed(shards), WarmMode::Off);
            group.bench_function(format!("sharded_r{count}_s{shards}"), |b| {
                b.iter(|| server.serve(black_box(&requests), &mut NoopRecorder));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
