//! Leave-one-group-out evaluation of both use cases.
//!
//! Section IV-E / V: every benchmark is held out once; a model trained on
//! the remaining 59 predicts the held-out distribution; the prediction is
//! reconstructed into samples and scored with the two-sample KS statistic
//! against the measured (1,000-run) distribution. Violin plots in the
//! paper are KDEs over these 60 per-benchmark scores.
//!
//! Both evaluations run on the shared [`pipeline`](crate::pipeline)
//! layer, and each has exactly one evaluate path: a private function
//! written once over [`FoldSource`], so an [`EncodedCorpus`] and a
//! [`crate::shard::ShardedCorpus`] of one campaign run the same fold
//! assembly and the same fold loop (bit-identical results at any shard
//! layout). The public entry points are thin wrappers:
//!
//! * `evaluate_*(corpus, cfg)` encodes the corpus and evaluates it;
//! * `evaluate_*_encoded(source, cfg)` evaluates a prebuilt source, so
//!   sweeps over models/representations on the same corpus (the paper's
//!   grids) pay for encoding once;
//! * `evaluate_*_incremental(source, cfg, prior)` additionally serves
//!   folds from a prior-fold cache (see [`crate::incremental`]).

use serde::{Deserialize, Serialize};

use pv_stats::descriptive::FiveNumber;
use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;
use pv_sysmodel::{BenchmarkId, Corpus};

use crate::incremental::{FoldCache, FoldEntry, IncrementalEval};
use crate::model::ModelKind;
use crate::pipeline::{EncodedCorpus, EncodingSpec, FoldRunner, FoldSource, FoldView, SeedMode};
use crate::repr::DistributionRepr;
use crate::usecase1::FewRunsConfig;
use crate::usecase2::CrossSystemConfig;

/// Number of samples drawn when reconstructing a predicted distribution
/// for scoring (matches the 1,000-run measurement campaign).
pub const RECONSTRUCTION_SAMPLES: usize = 1000;

/// KS score of one held-out benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchScore {
    /// The held-out benchmark.
    pub id: BenchmarkId,
    /// Two-sample KS statistic, predicted vs. measured.
    pub ks: f64,
}

/// Aggregate of a leave-one-group-out evaluation.
///
/// Serializes losslessly (shortest-round-trip floats), so a summary that
/// round-trips through the sweep service's on-disk cell cache compares
/// bit-identical to the freshly computed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalSummary {
    /// Per-benchmark scores, roster order.
    pub scores: Vec<BenchScore>,
    /// Mean KS across benchmarks (the paper's headline number per cell).
    pub mean: f64,
    /// Five-number summary of the scores (violin skeleton).
    pub spread: FiveNumber,
}

impl EvalSummary {
    /// Builds the aggregate from per-benchmark scores.
    ///
    /// # Errors
    /// Fails on an empty score list.
    pub fn from_scores(scores: Vec<BenchScore>) -> Result<Self, StatsError> {
        let values: Vec<f64> = scores.iter().map(|s| s.ks).collect();
        let spread = FiveNumber::from_sample(&values)?;
        Ok(EvalSummary {
            mean: values.iter().sum::<f64>() / values.len() as f64,
            scores,
            spread,
        })
    }

    /// The raw KS values (for violin rendering).
    pub fn ks_values(&self) -> Vec<f64> {
        self.scores.iter().map(|s| s.ks).collect()
    }
}

/// The cache spec [`evaluate_few_runs`] needs for a given configuration.
///
/// Use this to prebuild an [`EncodedCorpus`] shared across several
/// configurations (merge specs by chaining the builder).
pub fn few_runs_spec(cfg: &FewRunsConfig) -> EncodingSpec {
    EncodingSpec::new()
        .profiles(cfg.n_profile_runs, cfg.profiles_per_benchmark.max(1))
        .target(cfg.repr)
}

/// Leave-one-group-out evaluation of use case #1 on one corpus.
///
/// Folds run in parallel; each fold derives its own seeds, so the result
/// is independent of thread count.
///
/// # Errors
/// Propagates training/prediction failures from any fold.
pub fn evaluate_few_runs(corpus: &Corpus, cfg: FewRunsConfig) -> Result<EvalSummary, StatsError> {
    let enc = EncodedCorpus::build(corpus, &few_runs_spec(&cfg))?;
    evaluate_few_runs_encoded(&enc, cfg)
}

/// [`evaluate_few_runs`] on a prebuilt source — an [`EncodedCorpus`] or a
/// [`crate::shard::ShardedCorpus`].
///
/// Bit-identical to the uncached function for the same campaign, config
/// and seed, at any shard layout and thread count; the source must cover
/// [`few_runs_spec`] for this config.
///
/// # Errors
/// Fails when the source is missing required entries, plus anything
/// [`evaluate_few_runs`] can fail with.
pub fn evaluate_few_runs_encoded(
    src: &dyn FoldSource,
    cfg: FewRunsConfig,
) -> Result<EvalSummary, StatsError> {
    few_runs(src, cfg, None).map(|r| r.summary)
}

/// Incremental [`evaluate_few_runs_encoded`]: bit-identical summary, but
/// folds whose fingerprints (or kNN neighbour lists) match verified
/// `prior` entries are served from cache. With an empty `prior` this is a
/// cold run that additionally returns the fold entries to seed the next.
///
/// Fold fingerprints hash the per-benchmark content digests, which are
/// the same for both source kinds at any shard layout, so entries written
/// by an [`EncodedCorpus`] run serve a [`crate::shard::ShardedCorpus`] run
/// of the same campaign and vice versa.
///
/// # Errors
/// Everything the non-incremental evaluation can fail with.
pub fn evaluate_few_runs_incremental(
    src: &dyn FoldSource,
    cfg: FewRunsConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    few_runs(src, cfg, Some(prior))
}

/// The one evaluate path of use case 1.
fn few_runs(
    src: &dyn FoldSource,
    cfg: FewRunsConfig,
    prior: Option<&[FoldEntry]>,
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.few_runs",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.n_profile_runs,
    );
    let cache = prior
        .map(|p| FoldCache::new("uc1", &cfg, cfg.model, src.bench_fingerprints().to_vec(), p))
        .transpose()?;
    let repr = cfg.repr.build();
    let (s, windows) = (cfg.n_profile_runs, cfg.profiles_per_benchmark.max(1));
    // `windows` profile rows per included benchmark, all mapping to the
    // benchmark's target encoding. Row order is include-rank-major
    // (`rank × windows + w`), so when the corpus grows, surviving rows
    // keep their positions and only new rows append — the property the
    // kNN delta path in [`crate::incremental`] relies on.
    let assemble = move |held: usize, include: Vec<usize>| {
        let (query, y_dim) = src.with_block(held, |b| {
            Ok((
                b.profile(s, held, 0)?.to_vec(),
                b.target(cfg.repr, held)?.len(),
            ))
        })?;
        Ok(FoldView::new(
            include.len() * windows,
            query.len(),
            y_dim,
            query,
            move |sink| {
                src.for_each_block(&include, &mut |run, b| {
                    for &bi in run {
                        let target = b.target(cfg.repr, bi)?;
                        for w in 0..windows {
                            sink(b.profile(s, bi, w)?, target, bi)?;
                        }
                    }
                    Ok(())
                })
            },
        ))
    };
    runner(src.len(), cfg.seed, cfg.model, repr.as_ref()).run(
        |fold_seed| cfg.model.build(fold_seed),
        assemble,
        src,
        cache.as_ref(),
    )
}

/// The [`FoldRunner`] both use cases evaluate with.
fn runner(
    n_folds: usize,
    seed: u64,
    model: ModelKind,
    repr: &dyn DistributionRepr,
) -> FoldRunner<'_> {
    FoldRunner {
        n_folds,
        seed,
        seed_mode: SeedMode::PerFold,
        standardize: model.wants_standardization(),
        n_samples: RECONSTRUCTION_SAMPLES,
        repr,
    }
}

/// The cache specs (source, destination) [`evaluate_cross_system`] needs.
pub fn cross_system_specs(src: &Corpus, cfg: &CrossSystemConfig) -> (EncodingSpec, EncodingSpec) {
    cross_system_specs_for_runs(src.n_runs, cfg)
}

/// [`cross_system_specs`] from the source run count alone — for sharded
/// campaigns that never materialize a [`Corpus`].
pub fn cross_system_specs_for_runs(
    src_n_runs: usize,
    cfg: &CrossSystemConfig,
) -> (EncodingSpec, EncodingSpec) {
    let s_eff = cfg.profile_runs.min(src_n_runs).max(1);
    (
        EncodingSpec::new().joined(s_eff, cfg.repr),
        EncodingSpec::new().target(cfg.repr),
    )
}

/// Leave-one-group-out evaluation of use case #2 (source → destination).
///
/// # Errors
/// Propagates training/prediction failures from any fold.
pub fn evaluate_cross_system(
    src: &Corpus,
    dst: &Corpus,
    cfg: CrossSystemConfig,
) -> Result<EvalSummary, StatsError> {
    let (src_spec, dst_spec) = cross_system_specs(src, &cfg);
    let src_enc = EncodedCorpus::build(src, &src_spec)?;
    let dst_enc = EncodedCorpus::build(dst, &dst_spec)?;
    evaluate_cross_system_encoded(&src_enc, &dst_enc, cfg)
}

/// [`evaluate_cross_system`] on prebuilt sources (either kind, and the
/// two may differ in kind and shard layout).
///
/// Bit-identical to the uncached function for the same campaigns, config
/// and seed; the sources must cover [`cross_system_specs`].
///
/// # Errors
/// Fails on mismatched corpora, missing cache entries, plus anything
/// [`evaluate_cross_system`] can fail with.
pub fn evaluate_cross_system_encoded(
    src: &dyn FoldSource,
    dst: &dyn FoldSource,
    cfg: CrossSystemConfig,
) -> Result<EvalSummary, StatsError> {
    cross_system(src, dst, cfg, None).map(|r| r.summary)
}

/// Incremental [`evaluate_cross_system_encoded`]; see
/// [`evaluate_few_runs_incremental`].
///
/// Per-fold fingerprints hash the *pair* of source/destination benchmark
/// digests, so a change on either system invalidates exactly the folds
/// that observe it.
///
/// # Errors
/// Everything the non-incremental evaluation can fail with.
pub fn evaluate_cross_system_incremental(
    src: &dyn FoldSource,
    dst: &dyn FoldSource,
    cfg: CrossSystemConfig,
    prior: &[FoldEntry],
) -> Result<IncrementalEval, StatsError> {
    cross_system(src, dst, cfg, Some(prior))
}

/// Validates a use-case-2 pair: aligned rosters on two distinct systems.
fn validate_cross_system_pair(
    src: &dyn FoldSource,
    dst: &dyn FoldSource,
) -> Result<(), StatsError> {
    let invalid = |detail| Err(StatsError::invalid("evaluate_cross_system", detail));
    if src.len() != dst.len() {
        return invalid("source and destination corpora cover different rosters");
    }
    if src.system() == dst.system() {
        return invalid("source and destination are the same system");
    }
    if (0..src.len()).any(|bi| src.id(bi) != dst.id(bi)) {
        return invalid("corpora rosters are misaligned");
    }
    Ok(())
}

/// The one evaluate path of use case 2.
fn cross_system(
    src: &dyn FoldSource,
    dst: &dyn FoldSource,
    cfg: CrossSystemConfig,
    prior: Option<&[FoldEntry]>,
) -> Result<IncrementalEval, StatsError> {
    let _span = pv_obs::span!(
        "pv.core.eval.cross_system",
        repr = cfg.repr.name(),
        model = cfg.model.name(),
        s = cfg.profile_runs,
    );
    validate_cross_system_pair(src, dst)?;
    let cache = prior
        .map(|p| {
            let pairs = src
                .bench_fingerprints()
                .iter()
                .zip(dst.bench_fingerprints())
                .map(|(&s, &d)| {
                    let mut h = Fnv1a::new();
                    h.write_str("pv-bench-pair");
                    h.write_u64(s);
                    h.write_u64(d);
                    h.finish()
                })
                .collect();
            FoldCache::new("uc2", &cfg, cfg.model, pairs, p)
        })
        .transpose()?;
    let repr = cfg.repr.build();
    let s_eff = cfg.profile_runs.min(src.n_runs()).max(1);
    // One joined source row per included benchmark mapping to its
    // destination target encoding, include-rank order (corpus growth
    // appends rows without moving survivors). Source and destination
    // blocks are pinned independently: their shard layouts may differ.
    let assemble = move |held: usize, include: Vec<usize>| {
        let query = src.with_block(held, |b| Ok(b.joined(s_eff, cfg.repr, held)?.to_vec()))?;
        let y_dim = dst.with_block(held, |b| Ok(b.target(cfg.repr, held)?.len()))?;
        Ok(FoldView::new(
            include.len(),
            query.len(),
            y_dim,
            query,
            move |sink| {
                src.for_each_block(&include, &mut |run, sb| {
                    dst.for_each_block(run, &mut |run, db| {
                        for &bi in run {
                            sink(
                                sb.joined(s_eff, cfg.repr, bi)?,
                                db.target(cfg.repr, bi)?,
                                bi,
                            )?;
                        }
                        Ok(())
                    })
                })
            },
        ))
    };
    // Folds score against the held-out benchmark's measured relative
    // times on the *destination* system.
    runner(src.len(), cfg.seed, cfg.model, repr.as_ref()).run(
        |fold_seed| cfg.model.build(fold_seed),
        assemble,
        dst,
        cache.as_ref(),
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::model::ModelKind;
    use crate::repr::ReprKind;
    use pv_stats::ks::ks2_statistic;
    use pv_sysmodel::SystemModel;

    fn tiny_corpus(sys: SystemModel) -> Corpus {
        Corpus::collect(&sys, 40, 3)
    }

    fn uc1_cfg() -> FewRunsConfig {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 3,
            seed: 1,
        }
    }

    #[test]
    fn few_runs_eval_produces_sixty_scores_in_unit_range() {
        let corpus = tiny_corpus(SystemModel::intel());
        let summary = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        assert_eq!(summary.scores.len(), 60);
        assert!(summary.scores.iter().all(|s| (0.0..=1.0).contains(&s.ks)));
        assert!(summary.mean > 0.0 && summary.mean < 1.0);
        assert!(summary.spread.min <= summary.mean && summary.mean <= summary.spread.max);
    }

    #[test]
    fn few_runs_eval_is_deterministic() {
        let corpus = tiny_corpus(SystemModel::intel());
        let a = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        let b = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn few_runs_eval_is_thread_count_independent() {
        let corpus = tiny_corpus(SystemModel::intel());
        let baseline = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        for n in [1, 2, 7] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let under_pool = pool.install(|| evaluate_few_runs(&corpus, uc1_cfg()).unwrap());
            assert_eq!(baseline, under_pool, "{n} threads");
        }
    }

    #[test]
    fn few_runs_predictions_beat_a_mismatched_baseline() {
        // The predicted distribution for each benchmark should, on
        // average, be closer to its own measured distribution than a
        // fixed ultra-wide uniform baseline is.
        let corpus = tiny_corpus(SystemModel::intel());
        let summary = evaluate_few_runs(&corpus, uc1_cfg()).unwrap();
        let baseline: Vec<f64> = (0..1000).map(|i| 0.7 + 0.8 * i as f64 / 999.0).collect();
        let baseline_mean: f64 = corpus
            .benchmarks
            .iter()
            .map(|b| ks2_statistic(&baseline, &b.runs.rel_times()).unwrap())
            .sum::<f64>()
            / corpus.len() as f64;
        assert!(
            summary.mean < baseline_mean,
            "prediction mean {} vs uniform baseline {}",
            summary.mean,
            baseline_mean
        );
    }

    #[test]
    fn shared_cache_reproduces_per_call_results() {
        // One cache built for the widest config serves narrower ones.
        let corpus = tiny_corpus(SystemModel::intel());
        let wide = uc1_cfg();
        let narrow = FewRunsConfig {
            profiles_per_benchmark: 1,
            ..wide
        };
        let enc = EncodedCorpus::build(&corpus, &few_runs_spec(&wide)).unwrap();
        for cfg in [wide, narrow] {
            let cached = evaluate_few_runs_encoded(&enc, cfg).unwrap();
            let fresh = evaluate_few_runs(&corpus, cfg).unwrap();
            assert_eq!(cached, fresh);
        }
    }

    #[test]
    fn cross_system_eval_runs_both_directions() {
        let amd = tiny_corpus(SystemModel::amd());
        let intel = tiny_corpus(SystemModel::intel());
        let cfg = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 20,
            seed: 2,
        };
        let a2i = evaluate_cross_system(&amd, &intel, cfg).unwrap();
        let i2a = evaluate_cross_system(&intel, &amd, cfg).unwrap();
        assert_eq!(a2i.scores.len(), 60);
        assert_eq!(i2a.scores.len(), 60);
        assert!(a2i.mean > 0.0 && a2i.mean < 1.0);
        assert!(i2a.mean > 0.0 && i2a.mean < 1.0);
    }

    #[test]
    fn cross_system_rejects_mismatched_pairs() {
        let amd = tiny_corpus(SystemModel::amd());
        let cfg = CrossSystemConfig::default();
        assert!(evaluate_cross_system(&amd, &amd, cfg).is_err());
    }

    #[test]
    fn eval_summary_rejects_empty() {
        assert!(EvalSummary::from_scores(vec![]).is_err());
    }
}
