//! Release-mode α-sweep warm-start smoke test: at n = 64, re-solving an
//! α-neighbour of a finished design with the dual-simplex warm start must cost
//! a small fraction of the cold solve's pivots — the contract that makes
//! α sweeps and serving cold-start storms cheap.
//!
//! `#[ignore]`d so the ordinary (debug) `cargo test` stays fast; CI runs it
//! explicitly with
//! `cargo test --release -p cpm-bench --test warm_start_smoke -- --ignored`.

use cpm_core::prelude::*;

fn basicdp(n: usize, alpha: f64) -> DesignProblem {
    // The closed-form crash seed (PR 7) solves these unconstrained programs in
    // zero pivots, which makes a pivot-ratio comparison degenerate (0 < 0).
    // This smoke gates the *warm-start* lever, so measure both sides with the
    // crash seed off and the real simplex walks exposed.
    DesignProblem::unconstrained(n, Alpha::new(alpha).unwrap(), Objective::l0())
        .with_crash_seed(false)
}

#[test]
#[ignore = "release-mode warm-start smoke test; run explicitly (see CI workflow)"]
fn n64_alpha_neighbour_warm_resolve_needs_under_a_quarter_of_the_cold_pivots() {
    let donor = basicdp(64, 0.90).solve().expect("donor solve");
    let seed = donor
        .optimal_basis
        .clone()
        .expect("donor reports its basis");

    let cold = basicdp(64, 0.905).solve().expect("cold solve");
    let warm = basicdp(64, 0.905)
        .with_warm_basis(Some(seed))
        .solve()
        .expect("warm solve");

    assert!(
        warm.solver_stats.warm_started,
        "the α-neighbour seed must take the dual warm-start path"
    );
    assert_eq!(warm.solver_stats.phase1_iterations, 0);
    assert!(
        (warm.objective_value - cold.objective_value).abs() < 1e-9,
        "warm {} vs cold {}",
        warm.objective_value,
        cold.objective_value
    );

    let cold_pivots = cold.solver_stats.pivots();
    let warm_pivots = warm.solver_stats.pivots();
    assert!(
        warm_pivots * 4 < cold_pivots,
        "warm re-solve must perform < 25% of the cold solve's pivots: \
         warm {warm_pivots} vs cold {cold_pivots}"
    );
    eprintln!(
        "n=64 α 0.90→0.905: cold {cold_pivots} pivots, warm {warm_pivots} \
         ({} dual + {} primal cleanup)",
        warm.solver_stats.dual_iterations, warm.solver_stats.phase2_iterations
    );
}

#[test]
#[ignore = "release-mode warm-start smoke test; run explicitly (see CI workflow)"]
fn warm_chain_across_an_alpha_sweep_stays_cheap() {
    // A five-point sweep seeded hand-over-hand, the way `DesignCache::warm`
    // chains a family: every seeded re-solve must stay warm and cheap.
    let mut donor = basicdp(32, 0.88).solve().expect("first cold solve");
    let cold_pivots = donor.solver_stats.pivots();
    for alpha in [0.885, 0.89, 0.895, 0.90] {
        let warm = basicdp(32, alpha)
            .with_warm_basis(donor.optimal_basis.clone())
            .solve()
            .expect("warm solve");
        assert!(warm.solver_stats.warm_started, "α = {alpha} must stay warm");
        let warm_pivots = warm.solver_stats.pivots();
        assert!(
            warm_pivots * 4 < cold_pivots,
            "α = {alpha}: warm {warm_pivots} vs cold {cold_pivots}"
        );
        donor = warm;
    }
}
