//! Kernel-parity tier: enforces the bit-or-tolerance contracts of the
//! vectorized kernel layer (DESIGN.md "Kernel contracts").
//!
//! Three families of pins:
//!
//! 1. chunked-lane kernels vs a scalar element-order reference —
//!    *bitwise* where the contract says bitwise (Chebyshev max, the
//!    norm/dot chain identity), *tolerance* where reassociation is real
//!    (sums, dots, central moments);
//! 2. batch kNN predictions — bit-identical to `predict`;
//! 3. exact-vs-binned tree splits — the accuracy thresholds that gate
//!    the binned default (`PV_EXACT_TREES` opt-out) at the evaluation
//!    level.

use perfvar_suite::core::usecase1::FewRunsConfig;
use perfvar_suite::core::{evaluate_few_runs, ModelKind, ReprKind};
use perfvar_suite::ml::dataset::Dataset;
use perfvar_suite::ml::distance::{cosine_with_sq_norms, squared_norm, Distance};
use perfvar_suite::ml::{DenseMatrix, GradientBoostingRegressor, KnnRegressor, Regressor};
use perfvar_suite::stats::kernel::{
    central_sums4, dot4, max_abs_diff4, sq_norm4, sum4, sum_abs_diff4, sum_sq_diff4,
};
use perfvar_suite::sysmodel::{Corpus, SystemModel};

/// Deterministic pseudo-random values in [-2, 2).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    }
}

fn vecs(n: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut next = lcg(seed);
    (0..n)
        .map(|_| (0..width).map(|_| next()).collect())
        .collect()
}

// -----------------------------------------------------------------
// 1. chunked kernels vs scalar element-order reference
// -----------------------------------------------------------------

#[test]
fn chunked_kernels_match_scalar_reference_within_tolerance() {
    // Reassociated sums are NOT bit-identical to element-order scalar
    // loops; the contract is relative tolerance (DESIGN.md pins 1e-12
    // for the widths this workspace uses).
    for width in [1usize, 4, 7, 68, 300] {
        for (i, pair) in vecs(8, width, width as u64).chunks(2).enumerate() {
            let (a, b) = (&pair[0], &pair[1]);
            let scalar_sum: f64 = a.iter().sum();
            let scalar_dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let scalar_sq: f64 = a.iter().map(|x| x * x).sum();
            let scalar_ssd: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            let scalar_sad: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
            let close = |got: f64, want: f64, what: &str| {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= 1e-12 * scale,
                    "{what} width {width} pair {i}: {got} vs {want}"
                );
            };
            close(sum4(a), scalar_sum, "sum4");
            close(dot4(a, b), scalar_dot, "dot4");
            close(sq_norm4(a), scalar_sq, "sq_norm4");
            close(sum_sq_diff4(a, b), scalar_ssd, "sum_sq_diff4");
            close(sum_abs_diff4(a, b), scalar_sad, "sum_abs_diff4");
        }
    }
}

#[test]
fn chebyshev_is_bitwise_equal_to_the_scalar_fold() {
    // max is commutative and associative: lane order cannot change it.
    for width in [1usize, 5, 68] {
        for pair in vecs(6, width, 77).chunks(2) {
            let (a, b) = (&pair[0], &pair[1]);
            let scalar = a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0_f64, f64::max);
            assert_eq!(max_abs_diff4(a, b).to_bits(), scalar.to_bits());
            assert_eq!(Distance::Chebyshev.eval(a, b).to_bits(), scalar.to_bits());
        }
    }
}

#[test]
fn central_sums_match_scalar_reference_within_tolerance() {
    for width in [2usize, 9, 300] {
        for xs in vecs(4, width, 99) {
            let mean = sum4(&xs) / xs.len() as f64;
            let (m2, m3, m4) = central_sums4(&xs, mean);
            let (mut s2, mut s3, mut s4) = (0.0, 0.0, 0.0);
            for &x in &xs {
                let d = x - mean;
                s2 += d * d;
                s3 += d * d * d;
                s4 += d * d * d * d;
            }
            for (got, want, what) in [(m2, s2, "m2"), (m3, s3, "m3"), (m4, s4, "m4")] {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= 1e-11 * scale,
                    "{what} width {width}: {got} vs {want}"
                );
            }
        }
    }
}

#[test]
fn all_cosine_routes_agree_bitwise() {
    // eval and cached-norm must be the same chain.
    let rows = vecs(12, 68, 5150);
    let norms: Vec<f64> = rows.iter().map(|r| squared_norm(r)).collect();
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let naive = Distance::Cosine.eval(&rows[i], &rows[j]);
            let cached = cosine_with_sq_norms(&rows[i], &rows[j], norms[i], norms[j]);
            assert_eq!(naive.to_bits(), cached.to_bits(), "({i},{j})");
        }
    }
}

// -----------------------------------------------------------------
// 2. batch kNN predictions
// -----------------------------------------------------------------

#[test]
fn knn_batch_predictions_are_bit_identical_to_row_predictions() {
    let xs = vecs(90, 75, 21);
    let ys = vecs(90, 5, 22);
    let data = Dataset::ungrouped(
        DenseMatrix::from_rows(&xs).unwrap(),
        DenseMatrix::from_rows(&ys).unwrap(),
    )
    .unwrap();
    let mut m = KnnRegressor::new(15).with_distance(Distance::Cosine);
    m.fit(&data).unwrap();
    let queries = DenseMatrix::from_rows(&vecs(23, 75, 23)).unwrap();
    let batch = m.predict_batch(&queries).unwrap();
    for r in 0..queries.rows() {
        let row = m.predict(queries.row(r)).unwrap();
        for (a, b) in batch.row(r).iter().zip(&row) {
            assert_eq!(a.to_bits(), b.to_bits(), "query {r}");
        }
    }
}

// -----------------------------------------------------------------
// 3. exact vs binned trees: the thresholds gating the default
// -----------------------------------------------------------------

/// Restores `PV_EXACT_TREES` to "unset" when dropped, even on panic.
struct ExactTreesGuard;

impl Drop for ExactTreesGuard {
    fn drop(&mut self) {
        std::env::remove_var("PV_EXACT_TREES");
    }
}

#[test]
fn binned_eval_summary_is_within_the_documented_threshold_of_exact() {
    // The gate for default-on (DESIGN.md "Kernel contracts"): a full
    // few-runs RandomForest evaluation under binned splits must land
    // within |Δ mean KS| ≤ 0.02 of exhaustive exact splits. This test
    // owns the PV_EXACT_TREES toggle; no other test in this binary
    // builds tree models through ModelKind.
    let corpus = Corpus::collect(&SystemModel::intel(), 24, 0x51);
    let cfg = FewRunsConfig {
        repr: ReprKind::Histogram,
        model: ModelKind::RandomForest,
        n_profile_runs: 5,
        profiles_per_benchmark: 1,
        seed: 9,
    };
    let binned = evaluate_few_runs(&corpus, cfg).unwrap();
    let _guard = ExactTreesGuard;
    std::env::set_var("PV_EXACT_TREES", "1");
    let exact = evaluate_few_runs(&corpus, cfg).unwrap();
    let delta = (binned.mean - exact.mean).abs();
    assert!(
        delta <= 0.02,
        "binned mean KS {} vs exact {} (Δ {delta})",
        binned.mean,
        exact.mean
    );
}

#[test]
fn binned_gbt_predictions_stay_close_to_exact_fits() {
    // Model-level gate for the boosted path: same data, same seed, the
    // binned fit's predictions track the exact fit within the DESIGN.md
    // tolerance (mean |Δ| ≤ 5% of the target's scale).
    let xs = vecs(120, 30, 31);
    let ys = vecs(120, 4, 32);
    let data = Dataset::ungrouped(
        DenseMatrix::from_rows(&xs).unwrap(),
        DenseMatrix::from_rows(&ys).unwrap(),
    )
    .unwrap();
    let build = |binned: bool| {
        let mut m = GradientBoostingRegressor::new(40)
            .with_learning_rate(0.1)
            .with_max_depth(3)
            .with_seed(4)
            .with_binned(binned);
        m.fit(&data).unwrap();
        m
    };
    let exact = build(false);
    let binned = build(true);
    let (mut err, mut n) = (0.0, 0);
    for q in xs.iter().step_by(7) {
        let a = exact.predict(q).unwrap();
        let b = binned.predict(q).unwrap();
        for (x, y) in a.iter().zip(&b) {
            err += (x - y).abs();
            n += 1;
        }
    }
    let mean_abs_delta = err / n as f64;
    assert!(
        mean_abs_delta <= 0.05 * 2.0, // targets span [-2, 2)
        "mean |Δ| = {mean_abs_delta}"
    );
}
