//! Figure 8: the optimal L0 of every meaningful property combination on top of weak
//! honesty, (a) as the group size varies at α = 0.76 and (b) as α varies at fixed n.

use cpm_bench::cli::FigureOptions;
use cpm_core::Alpha;
use cpm_eval::prelude::{fmt, render_table, score_sweeps};

fn main() {
    let options = FigureOptions::from_env();
    let alpha = Alpha::new(0.76).unwrap();
    let group_sizes: Vec<usize> = if options.full {
        vec![2, 3, 4, 5, 6, 7, 8, 10, 12]
    } else {
        vec![2, 4, 6, 8]
    };
    let sweep_a = score_sweeps::combinations_vs_group_size(alpha, &group_sizes)
        .expect("constrained LPs must solve");

    println!(
        "Figure 8(a) — L0 of weak-honesty combinations vs group size, alpha = 0.76 (threshold {:.2})",
        alpha.weak_honesty_threshold()
    );
    print_sweep(&sweep_a);
    options.maybe_print_json(&sweep_a);

    let alphas: Vec<Alpha> = if options.full {
        vec![0.5, 0.6, 0.67, 0.76, 0.83, 0.9, 0.95, 0.99]
    } else {
        vec![0.6, 0.76, 0.9]
    }
    .into_iter()
    .map(|a| Alpha::new(a).unwrap())
    .collect();
    // The paper's panel uses n = 6; CPM_FIG8_N scales the α sweep up for
    // timing it on nontrivial LPs.
    let n = std::env::var("CPM_FIG8_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let sweep_b =
        score_sweeps::combinations_vs_alpha(n, &alphas).expect("constrained LPs must solve");
    println!("\nFigure 8(b) — L0 of weak-honesty combinations vs alpha, n = {n}");
    print_sweep(&sweep_b);
    options.maybe_print_json(&sweep_b);
}

fn print_sweep(sweep: &score_sweeps::CombinationSweep) {
    let mut header = vec![sweep.swept.clone()];
    if let Some(first) = sweep.points.first() {
        header.extend(first.scores.iter().map(|(label, _)| label.clone()));
    }
    let rows: Vec<Vec<String>> = sweep
        .points
        .iter()
        .map(|point| {
            let mut cells = vec![fmt(point.x, 3)];
            cells.extend(point.scores.iter().map(|(_, score)| fmt(*score, 4)));
            cells
        })
        .collect();
    println!("{}", render_table(&header, &rows));
}
