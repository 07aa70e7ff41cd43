//! Criterion bench: the cold-solve hot path — the recommended route on the
//! unconstrained designs.
//!
//! Headline numbers from this bench (and the one-shot n = 128 / n = 256 runs
//! of the `backend_scaling` bin) live in BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::prelude::*;

/// Group sizes for the unconstrained solves.  n = 64 is the largest size a
/// ~10-sample Criterion group can afford; the n = 128 / 256 endpoints are
/// one-shot measurements in BENCHMARKS.md.
const UNCONSTRAINED_SWEEP: [usize; 3] = [16, 32, 64];

fn bench_unconstrained(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("cold_solve_unconstrained");
    group.sample_size(10);
    for &n in &UNCONSTRAINED_SWEEP {
        let problem = DesignProblem::unconstrained(n, alpha, Objective::l0());
        group.bench_with_input(BenchmarkId::new("recommended", n), &n, |b, _| {
            b.iter(|| problem.solve().expect("cold solve"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_unconstrained);
criterion_main!(benches);
