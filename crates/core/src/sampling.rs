//! Sampling outputs from mechanisms.
//!
//! The experiments of Section V repeatedly privatise group counts: given a mechanism
//! matrix and a true count `j`, draw an output from column `j`.  Two samplers share
//! one contract (and one `dim`-strided memory layout):
//!
//! * [`MechanismSampler`] precomputes cumulative distributions per column and walks
//!   them by binary search — `O(log n)` per draw, the natural oracle.
//! * [`AliasSampler`] precomputes a Walker/Vose alias table per column — `O(1)` per
//!   draw regardless of `n`, the serving hot path (`cpm-serve`).
//!
//! Both consume exactly **one uniform `f64` per draw**, exposed through
//! `sample_from_uniform`, so a recorded uniform stream can be replayed through
//! either sampler for differential testing and reproducible serving.
//! [`sample_geometric_direct`] draws from the truncated Geometric Mechanism
//! directly via two-sided geometric noise (Definition 4) without materialising the
//! matrix — it is verified against the matrix samplers in the tests.

use rand::Rng;

use crate::alpha::Alpha;
use crate::matrix::Mechanism;

/// Columns whose total mass drifts further than this from 1 are renormalised at
/// sampler-construction time (LP round-off can leave a column summing to
/// `1 - 1e-13`; anything beyond this bound is treated as real drift, not noise).
const COLUMN_MASS_DRIFT: f64 = 1e-12;

/// A sampler for a fixed mechanism, with per-column cumulative distributions
/// precomputed.
///
/// The CDFs live in **one contiguous `dim`-strided buffer** (column `j` occupies
/// `cdf[j * dim .. (j + 1) * dim]`) rather than a `Vec<Vec<f64>>`: `privatize`
/// walks one column per input, and keeping all columns in a single allocation
/// avoids a pointer chase per sample and keeps neighbouring columns on the same
/// cache lines when inputs repeat.
#[derive(Debug, Clone)]
pub struct MechanismSampler {
    dim: usize,
    /// Flattened column-major CDFs: `cdf[input * dim + i] = Pr[output <= i | input]`.
    cdf: Vec<f64>,
}

impl MechanismSampler {
    /// Precompute the sampler for `mechanism`.
    ///
    /// Columns whose total mass has drifted more than `1e-12` from 1
    /// (LP round-off, hand-built matrices) are renormalised so the CDF covers the
    /// whole unit interval, and the final entry of every column is forced to
    /// exactly `1.0` — `u ~ Uniform[0, 1)` then always lands strictly inside the
    /// table, with no mass silently folded into the last output.
    pub fn new(mechanism: &Mechanism) -> Self {
        let dim = mechanism.dim();
        let mut cdf = Vec::with_capacity(dim * dim);
        for j in 0..dim {
            let mut running = 0.0;
            for i in 0..dim {
                running += mechanism.prob(i, j);
                cdf.push(running);
            }
            let column = &mut cdf[j * dim..(j + 1) * dim];
            // Renormalise real drift instead of clamping: a bare `max(last, 1.0)`
            // would assign all missing mass to the largest output, biasing the tail.
            if (running - 1.0).abs() > COLUMN_MASS_DRIFT && running > 0.0 {
                for entry in column.iter_mut() {
                    *entry /= running;
                }
            }
            // The last entry must be *exactly* 1.0 so that u < 1 always resolves.
            column[dim - 1] = 1.0;
        }
        MechanismSampler { dim, cdf }
    }

    /// Number of possible outputs (`n + 1`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draw one output for the true count `input`.
    pub fn sample<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> usize {
        self.sample_from_uniform(input, rng.gen())
    }

    /// Deterministically map one uniform `u ∈ [0, 1)` to an output for `input`.
    ///
    /// This is the whole sampler — [`MechanismSampler::sample`] draws `u` and
    /// delegates here.  Exposing it lets differential tests replay one recorded
    /// uniform stream through several samplers.
    pub fn sample_from_uniform(&self, input: usize, u: f64) -> usize {
        let column = &self.cdf[input * self.dim..(input + 1) * self.dim];
        // First index whose cumulative mass exceeds u (the last entry is exactly
        // 1 > u, so the partition point is always a valid output).
        column.partition_point(|&mass| mass <= u).min(self.dim - 1)
    }

    /// Privatise a slice of true counts, drawing one output per count.
    pub fn privatize<R: Rng + ?Sized>(&self, counts: &[usize], rng: &mut R) -> Vec<usize> {
        counts.iter().map(|&c| self.sample(c, rng)).collect()
    }
}

/// An `O(1)`-per-draw sampler: one Walker/Vose alias table per column.
///
/// Construction is `O(dim)` per column (Vose's two-stack method).  A draw splits a
/// single uniform into a bucket index and an acceptance fraction, then makes at
/// most one comparison — no binary search, no dependence on `n`.  The tables live
/// in two **`dim`-strided buffers** mirroring [`MechanismSampler`]'s layout:
/// column `j` occupies `prob[j * dim .. (j + 1) * dim]` (acceptance thresholds)
/// and the same slice of `alias` (overflow targets).
///
/// The sampler realises the same distribution as the CDF sampler for the same
/// mechanism (same drift renormalisation, construction is exact up to a few ulps
/// of float rounding); `implied_pmf` reconstructs the realised distribution for
/// verification.
#[derive(Debug, Clone)]
pub struct AliasSampler {
    dim: usize,
    /// Flattened column-major acceptance thresholds: bucket `b` of column `j` is
    /// accepted (yielding output `b`) when the acceptance fraction is below
    /// `prob[j * dim + b]`.
    prob: Vec<f64>,
    /// Flattened column-major alias targets: bucket `b` of column `j` yields
    /// `alias[j * dim + b]` when the acceptance test fails.
    alias: Vec<u32>,
}

impl AliasSampler {
    /// Build alias tables for every column of `mechanism`.
    pub fn new(mechanism: &Mechanism) -> Self {
        let dim = mechanism.dim();
        debug_assert!(dim <= u32::MAX as usize, "alias targets are stored as u32");
        let mut prob = vec![0.0f64; dim * dim];
        let mut alias = vec![0u32; dim * dim];
        // Scratch reused across columns: scaled weights and the two Vose stacks.
        let mut scaled = vec![0.0f64; dim];
        let mut small: Vec<u32> = Vec::with_capacity(dim);
        let mut large: Vec<u32> = Vec::with_capacity(dim);
        for j in 0..dim {
            let column = j * dim;
            let total: f64 = (0..dim).map(|i| mechanism.prob(i, j)).sum();
            if total <= 0.0 {
                // Degenerate all-zero column: mirror the CDF sampler, whose
                // forced exact-1.0 tail sends every draw to the largest output
                // — the two samplers must realise the same distribution even
                // on unvalidated input.
                let last = (dim - 1) as u32;
                for b in 0..dim {
                    alias[column + b] = last;
                }
                prob[column + dim - 1] = 1.0;
                continue;
            }
            // Same renormalisation policy as the CDF sampler so the two samplers
            // realise identical distributions even on drifted columns.
            let scale = if (total - 1.0).abs() > COLUMN_MASS_DRIFT {
                dim as f64 / total
            } else {
                dim as f64
            };
            small.clear();
            large.clear();
            for (i, weight) in scaled.iter_mut().enumerate() {
                *weight = mechanism.prob(i, j) * scale;
                if *weight < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                prob[column + s as usize] = scaled[s as usize];
                alias[column + s as usize] = l;
                // The donor keeps what is left after topping the small bucket up to
                // exactly 1; computed as (w_l - (1 - w_s)) for better cancellation.
                scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
                if scaled[l as usize] < 1.0 {
                    large.pop();
                    small.push(l);
                }
            }
            // Leftovers on either stack hold (up to rounding) exactly weight 1:
            // they accept unconditionally and never use their alias slot.
            for &i in large.iter().chain(small.iter()) {
                prob[column + i as usize] = 1.0;
                alias[column + i as usize] = i;
            }
        }
        AliasSampler { dim, prob, alias }
    }

    /// Number of possible outputs (`n + 1`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Draw one output for the true count `input` — `O(1)`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, input: usize, rng: &mut R) -> usize {
        self.sample_from_uniform(input, rng.gen())
    }

    /// Deterministically map one uniform `u ∈ [0, 1)` to an output for `input`.
    ///
    /// `u * dim` is split into an integer bucket and a fractional acceptance test;
    /// the two parts of a single uniform are independent, so one `f64` per draw
    /// suffices (the same budget as [`MechanismSampler::sample_from_uniform`]).
    ///
    /// The draw is branch-free: both the bucket's threshold and its alias are
    /// loaded, and the acceptance test picks one with a conditional move.
    /// Acceptance is a data-dependent coin flip, so a branch on it would be
    /// mispredicted on a large share of draws; a plain mask is not enough,
    /// since the compiler turns it back into that branch.
    #[inline]
    pub fn sample_from_uniform(&self, input: usize, u: f64) -> usize {
        let scaled = u * self.dim as f64;
        // Outputs are `u32`s in the alias table, so the bucket fits one; the
        // `u32` ⇄ `f64` conversions are single instructions, `usize`'s not.
        let bucket = (scaled as u32 as usize).min(self.dim - 1);
        let fraction = scaled - bucket as u32 as f64;
        let at = input * self.dim + bucket;
        let (threshold, alias) = (self.prob[at], self.alias[at] as usize);
        std::hint::select_unpredictable(fraction < threshold, bucket, alias)
    }

    /// Privatise a slice of true counts, drawing one output per count.
    pub fn privatize<R: Rng + ?Sized>(&self, counts: &[usize], rng: &mut R) -> Vec<usize> {
        counts.iter().map(|&c| self.sample(c, rng)).collect()
    }

    /// Reconstruct the exact probability mass this table assigns to each output of
    /// `input`: bucket `b` contributes `prob[b] / dim` to output `b` and
    /// `(1 - prob[b]) / dim` to `alias[b]`.  Used by the differential tests to
    /// verify distribution equivalence with the source column without sampling.
    pub fn implied_pmf(&self, input: usize) -> Vec<f64> {
        let mut pmf = vec![0.0f64; self.dim];
        let inv_dim = 1.0 / self.dim as f64;
        let column = input * self.dim;
        for b in 0..self.dim {
            let p = self.prob[column + b];
            pmf[b] += p * inv_dim;
            pmf[self.alias[column + b] as usize] += (1.0 - p) * inv_dim;
        }
        pmf
    }
}

/// Sample from the truncated Geometric Mechanism directly (Definition 4): add
/// two-sided geometric noise with parameter α to `input` and clamp to `[0, n]`.
pub fn sample_geometric_direct<R: Rng + ?Sized>(
    n: usize,
    alpha: Alpha,
    input: usize,
    rng: &mut R,
) -> usize {
    let a = alpha.value();
    if a >= 1.0 {
        // Degenerate case: the noise distribution is improper; all mass escapes to the
        // clamped endpoints, each with probability 1/2 (matching the matrix limit).
        return if rng.gen_bool(0.5) { 0 } else { n };
    }
    // Two-sided geometric: magnitude |delta| has Pr[|delta| = k] proportional to
    // alpha^k (k >= 1), Pr[delta = 0] = (1 - alpha)/(1 + alpha); signs are symmetric.
    let p_zero = (1.0 - a) / (1.0 + a);
    let u: f64 = rng.gen();
    let delta: i64 = if u < p_zero {
        0
    } else {
        // Draw the magnitude from a geometric distribution with success probability
        // (1 - alpha), shifted to start at 1, then a fair sign.
        let magnitude = 1 + sample_geometric_trials(a, rng);
        if rng.gen_bool(0.5) {
            magnitude as i64
        } else {
            -(magnitude as i64)
        }
    };
    (input as i64 + delta).clamp(0, n as i64) as usize
}

/// Number of failures before the first success of a Bernoulli(1 − α) process.
fn sample_geometric_trials<R: Rng + ?Sized>(alpha: f64, rng: &mut R) -> u64 {
    // Inverse-CDF sampling: k = floor(ln(u) / ln(alpha)).
    let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    (u.ln() / alpha.ln()).floor() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanisms::{ExplicitFairMechanism, GeometricMechanism};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn a(v: f64) -> Alpha {
        Alpha::new(v).unwrap()
    }

    #[test]
    fn samples_follow_the_column_distribution() {
        let em = ExplicitFairMechanism::new(4, a(0.8)).unwrap();
        let sampler = MechanismSampler::new(em.matrix());
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 200_000;
        let input = 2;
        let mut counts = [0usize; 5];
        for _ in 0..trials {
            counts[sampler.sample(input, &mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / trials as f64;
            let expected = em.matrix().prob(i, input);
            assert!(
                (empirical - expected).abs() < 0.01,
                "output {i}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn alias_samples_follow_the_column_distribution() {
        let em = ExplicitFairMechanism::new(4, a(0.8)).unwrap();
        let sampler = AliasSampler::new(em.matrix());
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 200_000;
        let input = 2;
        let mut counts = [0usize; 5];
        for _ in 0..trials {
            counts[sampler.sample(input, &mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / trials as f64;
            let expected = em.matrix().prob(i, input);
            assert!(
                (empirical - expected).abs() < 0.01,
                "output {i}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn alias_implied_pmf_reconstructs_every_column() {
        for &(n, alpha) in &[(4usize, 0.8), (9, 0.9), (16, 0.5), (31, 0.99)] {
            let gm = GeometricMechanism::new(n, a(alpha)).unwrap().into_matrix();
            let sampler = AliasSampler::new(&gm);
            for j in 0..gm.dim() {
                let pmf = sampler.implied_pmf(j);
                for (i, &mass) in pmf.iter().enumerate() {
                    assert!(
                        (mass - gm.prob(i, j)).abs() < 1e-12,
                        "n={n} alpha={alpha} column {j} output {i}: {mass} vs {}",
                        gm.prob(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn under_normalized_columns_are_renormalized_not_clamped() {
        // A deliberately under-normalised matrix: every column sums to 0.97, with
        // the missing 3% of mass spread over the whole column.  The old
        // `f64::max(last, 1.0)` clamp would have assigned all 3% to the *largest*
        // output; renormalisation must instead scale the whole column up.
        let n = 3;
        let dim = n + 1;
        let column = [0.4 * 0.97, 0.3 * 0.97, 0.2 * 0.97, 0.1 * 0.97];
        let mut entries = vec![0.0; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                entries[i * dim + j] = column[i];
            }
        }
        let mechanism = Mechanism::from_row_major_unchecked(n, entries);

        for j in 0..dim {
            let cdf_sampler = MechanismSampler::new(&mechanism);
            let alias_sampler = AliasSampler::new(&mechanism);
            let mut rng = StdRng::seed_from_u64(17);
            let trials = 400_000;
            let mut counts = [0usize; 4];
            for _ in 0..trials {
                counts[cdf_sampler.sample(j, &mut rng)] += 1;
            }
            // The renormalised distribution is exactly [0.4, 0.3, 0.2, 0.1]; with
            // the clamp bug the last output would absorb the deficit (0.1 -> 0.127).
            let expected = [0.4, 0.3, 0.2, 0.1];
            for (i, &count) in counts.iter().enumerate() {
                let empirical = count as f64 / trials as f64;
                assert!(
                    (empirical - expected[i]).abs() < 0.005,
                    "column {j} output {i}: {empirical} vs {}",
                    expected[i]
                );
            }
            // The alias table renormalises identically (checked exactly via pmf).
            let pmf = alias_sampler.implied_pmf(j);
            for (i, &mass) in pmf.iter().enumerate() {
                assert!((mass - expected[i]).abs() < 1e-12, "alias pmf {i}: {mass}");
            }
        }
    }

    #[test]
    fn zero_mass_columns_behave_identically_in_both_samplers() {
        // An unvalidated matrix with an all-zero column 1: the CDF sampler's
        // forced exact-1.0 tail sends every draw to the largest output, and the
        // alias table must realise the very same degenerate distribution.
        let n = 3;
        let dim = n + 1;
        let mut entries = vec![0.0; dim * dim];
        for j in [0usize, 2, 3] {
            entries[j * dim + j] = 1.0; // identity on the other columns
        }
        let mechanism = Mechanism::from_row_major_unchecked(n, entries);
        let cdf = MechanismSampler::new(&mechanism);
        let alias = AliasSampler::new(&mechanism);
        for k in 0..64 {
            let u = k as f64 / 64.0;
            assert_eq!(cdf.sample_from_uniform(1, u), n);
            assert_eq!(alias.sample_from_uniform(1, u), n);
        }
        let pmf = alias.implied_pmf(1);
        assert_eq!(pmf[n], 1.0);
        assert!(pmf[..n].iter().all(|&mass| mass == 0.0));
    }

    #[test]
    fn cdf_tail_is_exactly_one_for_every_column() {
        let gm = GeometricMechanism::new(12, a(0.9)).unwrap().into_matrix();
        let sampler = MechanismSampler::new(&gm);
        let dim = sampler.dim();
        // A uniform arbitrarily close to 1 must resolve to a valid output via the
        // exact-1.0 tail, never fall off the table.
        let almost_one = f64::from_bits(1.0f64.to_bits() - 1);
        for j in 0..dim {
            assert_eq!(sampler.sample_from_uniform(j, almost_one), dim - 1);
        }
    }

    #[test]
    fn direct_geometric_sampler_matches_the_matrix() {
        let n = 5;
        let alpha = a(0.7);
        let gm = GeometricMechanism::new(n, alpha).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let trials = 200_000;
        let input = 1;
        let mut counts = vec![0usize; n + 1];
        for _ in 0..trials {
            counts[sample_geometric_direct(n, alpha, input, &mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let empirical = count as f64 / trials as f64;
            let expected = gm.matrix().prob(i, input);
            assert!(
                (empirical - expected).abs() < 0.01,
                "output {i}: {empirical} vs {expected}"
            );
        }
    }

    #[test]
    fn privatize_maps_each_count() {
        let em = ExplicitFairMechanism::new(3, a(0.6)).unwrap();
        let sampler = MechanismSampler::new(em.matrix());
        let mut rng = StdRng::seed_from_u64(3);
        let outputs = sampler.privatize(&[0, 1, 2, 3, 3, 0], &mut rng);
        assert_eq!(outputs.len(), 6);
        assert!(outputs.iter().all(|&o| o <= 3));

        let alias = AliasSampler::new(em.matrix());
        let mut rng = StdRng::seed_from_u64(3);
        let outputs = alias.privatize(&[0, 1, 2, 3, 3, 0], &mut rng);
        assert_eq!(outputs.len(), 6);
        assert!(outputs.iter().all(|&o| o <= 3));
    }

    #[test]
    fn sampler_dim_matches_mechanism() {
        let em = ExplicitFairMechanism::new(6, a(0.5)).unwrap();
        assert_eq!(MechanismSampler::new(em.matrix()).dim(), 7);
        assert_eq!(AliasSampler::new(em.matrix()).dim(), 7);
    }

    /// The alias draw as it was written before it went branch-free: the
    /// reference [`AliasSampler::sample_from_uniform`] must match.
    fn branchy_draw(sampler: &AliasSampler, input: usize, u: f64) -> usize {
        let scaled = u * sampler.dim as f64;
        let bucket = (scaled as usize).min(sampler.dim - 1);
        let fraction = scaled - bucket as f64;
        let at = input * sampler.dim + bucket;
        if fraction < sampler.prob[at] {
            bucket
        } else {
            sampler.alias[at] as usize
        }
    }

    /// Uniforms at every bucket boundary of `sampler`: each bucket's first
    /// `u` and the one just below it, and the acceptance threshold of every
    /// input's bucket with the `u` just below and just above it.
    fn boundary_uniforms(sampler: &AliasSampler) -> Vec<f64> {
        let dim = sampler.dim as f64;
        let mut uniforms = Vec::new();
        for bucket in 0..sampler.dim {
            let start = bucket as f64 / dim;
            uniforms.extend([start.next_down(), start]);
            for input in 0..sampler.dim {
                let threshold = (bucket as f64 + sampler.prob[input * sampler.dim + bucket]) / dim;
                uniforms.extend([threshold.next_down(), threshold, threshold.next_up()]);
            }
        }
        // u → 1.
        let mut below_one = 1.0f64;
        for _ in 0..4 {
            below_one = below_one.next_down();
            uniforms.push(below_one);
        }
        uniforms.retain(|u| (0.0..1.0).contains(u));
        uniforms
    }

    #[test]
    fn branch_free_alias_draws_match_the_branchy_reference() {
        use crate::design::MechanismSpec;
        use crate::properties::{Property, PropertySet};

        let designs = [
            ("GM", PropertySet::empty()),
            ("EM", PropertySet::empty().with(Property::Fairness)),
            (
                "WM",
                PropertySet::empty().with(Property::ColumnMonotonicity),
            ),
        ];
        for n in [1, 8, 32, 128] {
            for (name, properties) in designs {
                let designed = MechanismSpec::new(n, a(0.9))
                    .properties(properties)
                    .build()
                    .unwrap()
                    .design()
                    .unwrap();
                let sampler = designed.alias_sampler();
                let mut uniforms = boundary_uniforms(sampler);
                let mut rng = StdRng::seed_from_u64(n as u64);
                uniforms.extend((0..4096).map(|_| rng.gen::<f64>()));
                for input in 0..sampler.dim {
                    for &u in &uniforms {
                        assert_eq!(
                            sampler.sample_from_uniform(input, u),
                            branchy_draw(sampler, input, u),
                            "{name} n = {n}, input {input}, u = {u:e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn alpha_one_direct_sampler_hits_the_endpoints() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let out = sample_geometric_direct(4, a(1.0), 2, &mut rng);
            assert!(out == 0 || out == 4);
        }
    }
}
