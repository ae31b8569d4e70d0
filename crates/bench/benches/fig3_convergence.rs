//! Figure 3: time to solve the §6 four-node ring at each of the paper's
//! step sizes (α = 0.67, 0.3, 0.19, 0.08), start `(0.8, 0.1, 0.1, 0.0)`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use fap_bench::paper;
use fap_econ::{BoundaryRule, ResourceDirectedOptimizer, StepSize};
use fap_obs::NoopRecorder;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_convergence");
    for (alpha, _) in paper::FIG3_ALPHAS {
        let problem = paper::ring_problem();
        group.bench_function(format!("alpha_{alpha}"), |b| {
            b.iter(|| {
                let s = ResourceDirectedOptimizer::new(StepSize::Fixed(alpha))
                    .with_boundary(BoundaryRule::Unconstrained)
                    .with_epsilon(paper::EPSILON)
                    .run(black_box(&problem), black_box(&paper::START), &mut NoopRecorder)
                    .expect("run succeeds");
                assert!(s.converged);
                s.iterations
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
