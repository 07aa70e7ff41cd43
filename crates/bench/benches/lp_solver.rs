//! Criterion bench: building and solving the constrained mechanism-design LPs,
//! comparing the sparse revised simplex against the dense tableau reference
//! solver ([`cpm_simplex::oracle::solve_dense`]).
//!
//! The paper reports that solving its LPs is "negligible (sub-second)" at paper
//! scale (n ≤ ~20); this bench verifies the same holds for this reproduction and
//! measures how far each solver scales.  The dense tableau pays `O(rows · cols)`
//! per pivot, which becomes prohibitive beyond `n ≈ 32` (at `n = 32` the BASICDP
//! LP already has ~2k rows × ~3k columns); it is therefore benched only up to
//! `DENSE_MAX_N`, while the sparse route runs across the full sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cpm_core::prelude::*;
use cpm_simplex::{oracle, SolveOptions};

/// Group sizes swept by the build benchmark.
const SWEEP: [usize; 5] = [8, 16, 32, 64, 128];
/// Group sizes the solvers are asked to *solve*; the n = 128 / 256 endpoints
/// are one-shot measurements in BENCHMARKS.md.
const SOLVE_SWEEP: [usize; 4] = [8, 16, 32, 64];
/// Largest group size the dense tableau is asked to solve (beyond this a single
/// solve takes minutes and the comparison stops being informative).
const DENSE_MAX_N: usize = 32;

fn options() -> SolveOptions {
    SolveOptions::default().with_max_iterations(5_000_000)
}

fn bench_backend_comparison(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_solve_backends");
    group.sample_size(10);
    for &n in &SOLVE_SWEEP {
        let problem = DesignProblem::unconstrained(n, alpha, Objective::l0());
        group.bench_with_input(
            BenchmarkId::new("unconstrained_l0/sparse_revised", n),
            &n,
            |b, _| b.iter(|| problem.solve_with(&options()).expect("sparse solve")),
        );
        if n <= DENSE_MAX_N {
            group.bench_with_input(
                BenchmarkId::new("unconstrained_l0/dense_tableau", n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let (lp, _) = problem.build_lp().expect("LP builds");
                        oracle::solve_dense(&lp, &options()).expect("dense solve")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_constrained_solves(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_solve_constrained");
    group.sample_size(10);
    for &n in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::new("wm_wh_rm_cm", n), &n, |b, &n| {
            b.iter(|| optimal_constrained(n, alpha, Objective::l0(), wm_properties()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("all_properties", n), &n, |b, &n| {
            b.iter(|| optimal_constrained(n, alpha, Objective::l0(), PropertySet::all()).unwrap())
        });
    }
    group.finish();
}

fn bench_lp_build_only(c: &mut Criterion) {
    let alpha = Alpha::new(0.9).unwrap();
    let mut group = c.benchmark_group("lp_build");
    for &n in &SWEEP {
        group.bench_with_input(BenchmarkId::new("build_all_properties", n), &n, |b, &n| {
            let problem = DesignProblem::constrained(n, alpha, Objective::l0(), PropertySet::all());
            b.iter(|| problem.build_lp().unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_backend_comparison,
    bench_constrained_solves,
    bench_lp_build_only
);
criterion_main!(benches);
