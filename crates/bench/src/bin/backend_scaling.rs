//! Scaling probe: time one BASICDP solve per group size, printing the
//! wall-clock, pivot counts, factorisation/update/repair counts, the
//! steepest-edge updates whose cross-term BTRAN was abandoned, the peak
//! bytes of the LU factors plus their elimination workspace
//! (`SolveStats::factor_bytes`), the total
//! time spent factorising (the solve's delta of the
//! `cpm_lp_refactorize_nanos` histogram), and LP dimensions, then where the
//! pivots' time went: each stage of `cpm_simplex::PIVOT_STAGES` with its
//! time and share (the solve's deltas of the
//! `cpm_lp_pivot_stage_nanos{stage=…}` histograms).  Quicker and more
//! informative for tuning than the statistical Criterion bench; `--full`
//! extends the sweep to n = 128.
//!
//! The independent per-size solves run on the [`cpm_eval::par`] worker pool;
//! per-solve wall-clocks are still measured inside each task, so set
//! `CPM_THREADS=1` for contention-free timings when comparing runs (the
//! factorisation and stage histograms are process-wide, so with several
//! workers a solve's factor and stage times also count its neighbours').  The LP
//! form can be overridden with `CPM_FORM=auto|primal|dual` (default `auto`,
//! which takes the dual on the tall mechanism LPs), and the sweep itself with
//! `CPM_SWEEP=64,128` (comma-separated group sizes).  `CPM_PROPERTIES=WH+CM`
//! designs that property set instead of BASICDP (WM's pivots exercise
//! every stage; BASICDP's crash seed is optimal, so it only factorises).
//! Each design seeds itself as in serving (the closed-form GM crash basis,
//! or the lifted relaxation).

use std::time::{Duration, Instant};

use cpm_bench::cli::FigureOptions;
use cpm_core::prelude::*;
use cpm_eval::par::parallel_map;
use cpm_simplex::{LpForm, SolveOptions, PIVOT_STAGES};

/// The `cpm_lp_pivot_stage_nanos` histogram of each pivot stage.
fn stage_histograms() -> Vec<&'static cpm_obs::Histogram> {
    PIVOT_STAGES
        .iter()
        .map(|stage| {
            cpm_obs::registry().histogram(&format!("cpm_lp_pivot_stage_nanos{{stage=\"{stage}\"}}"))
        })
        .collect()
}

/// One line of per-stage times and shares from the histograms' deltas.
fn stage_line(before: &[cpm_obs::HistogramSnapshot]) -> String {
    let nanos: Vec<u64> = stage_histograms()
        .iter()
        .zip(before)
        .map(|(histogram, before)| histogram.snapshot().diff(before).sum)
        .collect();
    let total = nanos.iter().sum::<u64>().max(1) as f64;
    let stages: Vec<String> = PIVOT_STAGES
        .iter()
        .zip(&nanos)
        .map(|(stage, &ns)| {
            format!(
                "{stage} {:.2?} ({:.0}%)",
                Duration::from_nanos(ns),
                100.0 * ns as f64 / total
            )
        })
        .collect();
    format!("       stages: {}", stages.join(", "))
}

fn main() {
    let options = FigureOptions::from_env();
    let alpha = Alpha::new(0.9).unwrap();
    let default_sweep = || {
        if options.full {
            vec![8, 16, 32, 64, 128]
        } else {
            vec![8, 16, 32]
        }
    };
    let sweep: Vec<usize> = match std::env::var("CPM_SWEEP") {
        Ok(list) => {
            let parsed: Vec<usize> = list
                .split(',')
                .filter_map(|v| v.trim().parse().ok())
                .collect();
            if parsed.is_empty() {
                eprintln!(
                    "warning: CPM_SWEEP={list:?} has no parsable group sizes \
                     (expected e.g. CPM_SWEEP=64,128); using the default sweep"
                );
                default_sweep()
            } else {
                parsed
            }
        }
        Err(_) => default_sweep(),
    };
    let form = match std::env::var("CPM_FORM").as_deref() {
        Ok("primal") => Some(LpForm::Primal),
        Ok("dual") => Some(LpForm::Dual),
        Ok("auto") => Some(LpForm::Auto),
        _ => None,
    };

    let properties: PropertySet = match std::env::var("CPM_PROPERTIES") {
        Ok(list) => list.parse().unwrap_or_else(|_| {
            eprintln!("warning: CPM_PROPERTIES={list:?} is not a property set; designing BASICDP");
            PropertySet::empty()
        }),
        Err(_) => PropertySet::empty(),
    };

    let workers = cpm_eval::par::worker_count(sweep.len());
    if workers > 1 {
        eprintln!(
            "note: running {} solves on {workers} workers — per-solve timings are \
             contended; set CPM_THREADS=1 for clean comparisons",
            sweep.len()
        );
    }
    println!(
        "n | form | rows x cols | terms | solve | phase1+phase2 pivots | factors | factor time | updates | repairs | cross terms abandoned | factor bytes | objective"
    );
    let rows = parallel_map(sweep, |n| {
        let problem = DesignProblem::constrained(n, alpha, Objective::l0(), properties);
        let (lp, _) = problem.build_lp().unwrap();
        // Start from the per-size tuning, then layer the env override through
        // the builder.
        let mut solve_options =
            SolveOptions::tuned((n + 1) * (n + 1)).with_max_iterations(5_000_000);
        if let Some(form) = form {
            solve_options = solve_options.with_form(form);
        }
        let factor_histogram = cpm_obs::histogram!("cpm_lp_refactorize_nanos");
        let factor_before = factor_histogram.snapshot();
        let stages_before: Vec<_> = stage_histograms().iter().map(|h| h.snapshot()).collect();
        let start = Instant::now();
        match problem.solve_with(&solve_options) {
            Ok(solution) => {
                let elapsed = start.elapsed();
                let factor_time =
                    Duration::from_nanos(factor_histogram.snapshot().diff(&factor_before).sum);
                let stats = solution.solver_stats;
                format!(
                    "{n:4} | {} | {}x{} | {} | {elapsed:10.2?} | {}+{} | {} | {factor_time:9.2?} | {} | {} | {} | {} | {:.9}",
                    stats.form,
                    lp.num_constraints(),
                    lp.num_variables(),
                    lp.num_terms(),
                    stats.phase1_iterations,
                    stats.phase2_iterations,
                    stats.refactorizations,
                    stats.basis_updates,
                    stats.basis_repairs,
                    stats.cross_term_abandoned,
                    stats.factor_bytes,
                    solution.objective_value,
                ) + "\n"
                    + &stage_line(&stages_before)
            }
            Err(error) => {
                format!(
                    "{n:4} | solve failed after {:.2?}: {error}",
                    start.elapsed()
                )
            }
        }
    });
    for row in rows {
        println!("{row}");
    }
}
