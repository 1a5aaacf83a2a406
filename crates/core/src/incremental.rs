//! Incremental fold-level evaluation: per-fold score cache with
//! corpus-append delta recompute.
//!
//! A LOGO evaluation is a set of independent folds, and each fold's score
//! is a pure function of (config, held-out benchmark, ordered training
//! set). This module keys every fold by a **fold fingerprint** — FNV-1a
//! over the config's canonical JSON, the held-out benchmark's content
//! digest, and the *ordered* per-benchmark digests of its training set
//! (order matters: [`pv_ml::StandardScaler`] accumulates moments in row
//! order, so permuted training sets are not bit-identical) — and reuses
//! cached [`FoldEntry`]s whenever the fingerprint proves nothing the fold
//! can observe has changed.
//!
//! When a corpus *grows* (benchmarks appended to the roster), every old
//! fold's training set changes, so exact fingerprint hits never fire on
//! an append. For uniform-weight kNN there is a cheaper truth: the
//! prediction is the mean of the neighbours' unscaled target rows,
//! accumulated in ascending row order — a pure function of the
//! neighbour *set*. If the held-out query's k-set survives the append
//! (standardization shifts every distance and near-ties swap ranks, but
//! membership only changes when the new rows actually enter the
//! neighbourhood — expected rate ≈ k/n per appended benchmark), the
//! prediction — and the decode and KS score behind it, which dominate
//! fold cost — is bit-identical. The **delta path** prepares the fold
//! (cheap: row assembly + scaling), fits the kNN (cheap: it just stores
//! rows), recomputes the canonical neighbour set, and reuses the cached
//! score on an exact match; any mismatch falls through to a full
//! recompute. Soundness rests on three pinned properties:
//!
//! * `ModelKind::neighbor_delta_model` is exactly what `build` runs for
//!   kNN (uniform weights, k = 15, cosine), and uniform-kNN accumulates
//!   its mean in ascending row order, so the neighbour set fully
//!   determines the prediction bit-for-bit.
//! * Fold assembly is include-rank-major, so surviving rows keep their
//!   matrix positions when the roster grows and cached `u32` row indices
//!   stay comparable.
//! * kNN neighbour *selection* is canonical — `(distance, row index)`
//!   under `total_cmp` — so the k-set is deterministic, not a
//!   `select_nth` accident, and `neighbor_indices` reports it sorted
//!   ascending.
//!
//! Every cached entry carries an integrity digest over its own fields; a
//! tampered or torn entry fails [`FoldEntry::verify`] and is recomputed,
//! never trusted (mirroring the sweep cell cache's verified loads).
//!
//! This module holds only the per-fold reuse decision ([`FoldCache`]);
//! the fold loop is the one every evaluation runs,
//! [`crate::pipeline::FoldRunner::run`], and the entry points are
//! [`crate::eval::evaluate_few_runs_incremental`] and
//! [`crate::eval::evaluate_cross_system_incremental`], which accept
//! either corpus kind.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};

use pv_ml::{KnnRegressor, Regressor};
use pv_stats::fingerprint::Fnv1a;
use pv_stats::StatsError;

use crate::eval::{BenchScore, EvalSummary};
use crate::model::ModelKind;
use crate::pipeline::PreparedFold;

/// Domain tag of the fold fingerprint; bump to orphan all cached folds
/// on any change to fold evaluation semantics.
const FOLD_FP_TAG: &str = "pv-fold-v1";

/// The fold fingerprint: everything fold `held_index`'s score is a
/// function of, hashed bit-exactly.
///
/// `config_json` is the canonical serde_json form of the evaluation
/// config (repr, model, sample count, windows, seed); `held_fp` is the
/// held-out benchmark's content digest; `train_fps` are the training
/// benchmarks' digests **in training order**.
pub fn fold_fingerprint(
    config_json: &str,
    held_index: usize,
    held_fp: u64,
    train_fps: &[u64],
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(FOLD_FP_TAG);
    h.write_str(config_json);
    h.write_usize(held_index);
    h.write_u64(held_fp);
    h.write_usize(train_fps.len());
    for &fp in train_fps {
        h.write_u64(fp);
    }
    h.finish()
}

/// One cached fold: its fingerprint inputs, its score, and (for kNN) the
/// held-out query's canonical ordered neighbour list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldEntry {
    /// Fold index (= held-out benchmark's roster index).
    pub held_index: usize,
    /// Content digest of the held-out benchmark.
    pub held_fp: u64,
    /// Content digests of the training benchmarks, training order.
    pub train_fps: Vec<u64>,
    /// The fold fingerprint ([`fold_fingerprint`] over the above plus
    /// the config).
    pub fold_fp: u64,
    /// The fold's KS score.
    pub score: BenchScore,
    /// The held-out query's neighbour row indices, ascending (`Some`
    /// only for neighbour-delta-eligible models, i.e. kNN).
    pub neighbors: Option<Vec<u32>>,
    /// Integrity digest over every field above; entries that fail
    /// [`FoldEntry::verify`] are recomputed, not trusted.
    pub check: u64,
}

impl FoldEntry {
    fn integrity(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("pv-fold-entry-v1");
        h.write_usize(self.held_index);
        h.write_u64(self.held_fp);
        h.write_usize(self.train_fps.len());
        for &fp in &self.train_fps {
            h.write_u64(fp);
        }
        h.write_u64(self.fold_fp);
        h.write_str(&self.score.id.qualified());
        h.write_f64(self.score.ks);
        match &self.neighbors {
            None => h.write_usize(0),
            Some(n) => {
                h.write_usize(1);
                h.write_usize(n.len());
                for &i in n {
                    h.write_u64(i as u64);
                }
            }
        }
        h.finish()
    }

    /// Seals the entry: stamps the integrity digest.
    fn sealed(mut self) -> Self {
        self.check = self.integrity();
        self
    }

    /// Whether the entry's integrity digest matches its content.
    pub fn verify(&self) -> bool {
        self.check == self.integrity()
    }
}

/// Per-fold cache tallies of one incremental evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FoldCacheStats {
    /// Folds reused on an exact fold-fingerprint match.
    pub hits: usize,
    /// Folds reused after a verified kNN neighbour-delta check.
    pub deltas: usize,
    /// Folds recomputed in full.
    pub misses: usize,
}

impl FoldCacheStats {
    /// Total folds the evaluation covered.
    pub fn total(&self) -> usize {
        self.hits + self.deltas + self.misses
    }

    /// Folds served from cache (exact hits + verified deltas).
    pub fn reused(&self) -> usize {
        self.hits + self.deltas
    }

    /// Element-wise sum (for aggregating across sweep cells).
    pub fn add(&mut self, other: &FoldCacheStats) {
        self.hits += other.hits;
        self.deltas += other.deltas;
        self.misses += other.misses;
    }
}

/// An incremental evaluation's full result: the summary (bit-identical
/// to a cold run), the fold entries to persist for the next run, and
/// the hit/delta/miss tallies. [`crate::pipeline::FoldRunner::run`]
/// returns one for every run; without a prior-fold cache the entries
/// are empty and the tallies zero.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalEval {
    /// The aggregate, bit-identical to the non-incremental evaluation.
    pub summary: EvalSummary,
    /// Per-fold entries (fold order) for the next run's `prior`.
    pub folds: Vec<FoldEntry>,
    /// How the folds were served.
    pub stats: FoldCacheStats,
}

/// Whether `old` is a strict prefix of `new` — the training-set shape a
/// pure corpus append produces for every surviving fold.
fn is_strict_prefix(old: &[u64], new: &[u64]) -> bool {
    old.len() < new.len() && new[..old.len()] == *old
}

/// The prior-fold cache of one evaluation: everything fold identity and
/// reuse decisions read, plus the hit/delta/miss tallies.
///
/// [`crate::pipeline::FoldRunner::run`] offers every fold to
/// [`FoldCache::serve`]: an exact fold-fingerprint match against a
/// verified prior entry reuses the cached score outright; otherwise, when
/// the model is delta-eligible (kNN) and the prior entry describes the
/// same held-out benchmark under this config with a strictly-grown
/// training set, the fold is prepared and the cached score reused iff
/// the recomputed canonical neighbour set matches; everything else is a
/// full recompute. Every reuse is bit-identical by construction, so the
/// summary is independent of both thread count and cache state.
pub struct FoldCache<'p> {
    /// Per-benchmark content digests, roster order.
    bench_fps: Vec<u64>,
    /// Canonical config JSON (hashed into every fold fingerprint).
    config_json: String,
    /// The neighbour-delta probe model, when the config's model is
    /// delta-eligible (kNN).
    delta_model: Option<KnnRegressor>,
    /// Fold entries from a previous run (any corpus state).
    prior: &'p [FoldEntry],
    hits: AtomicUsize,
    deltas: AtomicUsize,
    misses: AtomicUsize,
}

impl<'p> FoldCache<'p> {
    /// A cache over `prior` for an evaluation of `cfg` (tagged by use
    /// case) whose fold `i` holds out the benchmark digested as
    /// `bench_fps[i]`.
    ///
    /// # Errors
    /// Fails when the config cannot be serialized (never happens for the
    /// shipped config types).
    pub fn new<C: Serialize>(
        tag: &str,
        cfg: &C,
        model: ModelKind,
        bench_fps: Vec<u64>,
        prior: &'p [FoldEntry],
    ) -> Result<Self, StatsError> {
        let json = serde_json::to_string(cfg)
            .map_err(|e| StatsError::invalid("incremental", format!("serialize config: {e}")))?;
        Ok(FoldCache {
            bench_fps,
            config_json: format!("{tag}:{json}"),
            delta_model: model.neighbor_delta_model(),
            prior,
            hits: AtomicUsize::new(0),
            deltas: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        })
    }

    /// How the folds served so far were served.
    pub(crate) fn stats(&self) -> FoldCacheStats {
        FoldCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            deltas: self.deltas.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Serves fold `held` from the cache or computes it: `prepare`
    /// assembles the fold, `score` pays for fit + decode + KS. Returns
    /// the sealed entry to persist for the next run.
    ///
    /// # Errors
    /// Propagates `prepare`/`score` and neighbour-probe failures.
    pub(crate) fn serve(
        &self,
        held: usize,
        prepare: impl Fn() -> Result<PreparedFold, StatsError>,
        score: impl Fn(&PreparedFold) -> Result<BenchScore, StatsError>,
    ) -> Result<FoldEntry, StatsError> {
        let held_fp = self.bench_fps[held];
        let train_fps: Vec<u64> = (0..self.bench_fps.len())
            .filter(|&i| i != held)
            .map(|i| self.bench_fps[i])
            .collect();
        let fold_fp = fold_fingerprint(&self.config_json, held, held_fp, &train_fps);
        // Verification at the point of consumption: a prior entry that
        // fails its integrity digest is simply absent.
        let cached = self
            .prior
            .iter()
            .find(|e| e.held_index == held && e.verify());

        let (score, neighbors, tally) = 'served: {
            let Some(e) = cached else {
                break 'served self.recompute(&prepare, &score)?;
            };
            if e.fold_fp == fold_fp {
                // Nothing this fold observes has changed.
                pv_obs::counter_inc!("pv.core.pipeline.fold_cache.hit");
                break 'served (e.score, e.neighbors.clone(), &self.hits);
            }
            // Delta eligibility: the entry must have been produced under
            // this exact config (its own fold fingerprint must reproduce
            // from its stored inputs — that pins the config JSON),
            // describe the same held-out content, and its training set
            // must be a strict prefix of ours (a pure append).
            let same_config_and_held = e.held_fp == held_fp
                && fold_fingerprint(&self.config_json, held, e.held_fp, &e.train_fps) == e.fold_fp;
            let (Some(knn), Some(old_neighbors), true) = (
                &self.delta_model,
                e.neighbors.as_ref(),
                same_config_and_held && is_strict_prefix(&e.train_fps, &train_fps),
            ) else {
                break 'served self.recompute(&prepare, &score)?;
            };
            let prepared = prepare()?;
            let neighbors = neighbor_set(knn, &prepared)?;
            if &neighbors == old_neighbors {
                // Same neighbour set ⇒ same row-ordered mean of the same
                // unscaled target rows ⇒ bit-identical predict, decode,
                // and KS. Skip all three.
                pv_obs::counter_inc!("pv.core.pipeline.fold_cache.delta");
                break 'served (e.score, Some(neighbors), &self.deltas);
            }
            // The append disturbed the neighbourhood: pay for the back
            // half on the already-prepared fold.
            pv_obs::counter_inc!("pv.core.pipeline.fold_cache.miss");
            (score(&prepared)?, Some(neighbors), &self.misses)
        };
        tally.fetch_add(1, Ordering::Relaxed);
        Ok(FoldEntry {
            held_index: held,
            held_fp,
            train_fps,
            fold_fp,
            score,
            neighbors,
            check: 0,
        }
        .sealed())
    }

    /// A full recompute; for delta-eligible models it also records the
    /// canonical neighbour list so the *next* run can delta.
    fn recompute(
        &self,
        prepare: &impl Fn() -> Result<PreparedFold, StatsError>,
        score: &impl Fn(&PreparedFold) -> Result<BenchScore, StatsError>,
    ) -> Result<(BenchScore, Option<Vec<u32>>, &AtomicUsize), StatsError> {
        pv_obs::counter_inc!("pv.core.pipeline.fold_cache.miss");
        let prepared = prepare()?;
        let neighbors = match &self.delta_model {
            Some(knn) => Some(neighbor_set(knn, &prepared)?),
            None => None,
        };
        Ok((score(&prepared)?, neighbors, &self.misses))
    }
}

/// The canonical neighbour list of a prepared fold's query.
fn neighbor_set(knn: &KnnRegressor, prepared: &PreparedFold) -> Result<Vec<u32>, StatsError> {
    let mut knn = knn.clone();
    knn.fit(&prepared.data)?;
    knn.neighbor_indices(&prepared.query)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::eval::{
        evaluate_cross_system_incremental, evaluate_few_runs_encoded,
        evaluate_few_runs_incremental, few_runs_spec,
    };
    use crate::pipeline::{EncodedCorpus, EncodingSpec};
    use crate::repr::ReprKind;
    use crate::usecase1::FewRunsConfig;
    use crate::usecase2::CrossSystemConfig;
    use pv_sysmodel::{Corpus, SystemModel};

    fn corpus(n_runs: usize) -> Corpus {
        Corpus::collect(&SystemModel::intel(), n_runs, 5)
    }

    fn truncated(c: &Corpus, drop: usize) -> Corpus {
        let mut t = c.clone();
        t.benchmarks.truncate(t.benchmarks.len() - drop);
        t
    }

    fn cfg() -> FewRunsConfig {
        FewRunsConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            n_profile_runs: 5,
            profiles_per_benchmark: 1,
            seed: 9,
        }
    }

    #[test]
    fn cold_incremental_matches_plain_eval_bitwise() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let plain = evaluate_few_runs_encoded(&enc, cfg()).unwrap();
        let inc = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        assert_eq!(inc.summary, plain);
        assert_eq!(inc.stats.misses, c.len());
        assert_eq!(inc.stats.reused(), 0);
        assert_eq!(inc.folds.len(), c.len());
        assert!(inc.folds.iter().all(|f| f.verify()));
        assert!(inc.folds.iter().all(|f| f.neighbors.is_some()));
    }

    #[test]
    fn same_corpus_rerun_is_all_exact_hits() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &cold.folds).unwrap();
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len());
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.folds, cold.folds);
    }

    #[test]
    fn append_reuses_unchanged_folds_and_stays_bit_identical() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();

        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        let cold = evaluate_few_runs_encoded(&full_enc, cfg()).unwrap();
        assert_eq!(warm.summary, cold, "reuse must be bit-identical");
        // An append changes every surviving fold's training set, so
        // exact hits cannot fire; reuse comes from the delta path.
        assert_eq!(warm.stats.hits, 0);
        assert!(
            warm.stats.deltas > 0,
            "expected some neighbour-stable folds: {:?}",
            warm.stats
        );
        // The appended benchmark's own fold has no prior entry.
        assert!(warm.stats.misses >= 1);
        assert_eq!(warm.stats.total(), full.len());
    }

    #[test]
    fn append_result_is_thread_count_independent() {
        let full = corpus(30);
        let small = truncated(&full, 1);
        let spec = few_runs_spec(&cfg());
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, cfg(), &[]).unwrap();
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let baseline = evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds).unwrap();
        for n in [1, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap();
            let under = pool
                .install(|| evaluate_few_runs_incremental(&full_enc, cfg(), &prior.folds))
                .unwrap();
            assert_eq!(baseline.summary, under.summary, "{n} threads");
            assert_eq!(baseline.stats, under.stats, "{n} threads");
            assert_eq!(baseline.folds, under.folds, "{n} threads");
        }
    }

    #[test]
    fn tampered_prior_entry_is_recomputed_not_trusted() {
        let c = corpus(30);
        let enc = EncodedCorpus::build(&c, &few_runs_spec(&cfg())).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let mut vandalized = cold.folds.clone();
        // A lying score with a stale integrity digest…
        vandalized[3].score.ks += 0.25;
        // …and one where the attacker also "fixed" nothing else.
        vandalized[7].fold_fp ^= 1;
        let warm = evaluate_few_runs_incremental(&enc, cfg(), &vandalized).unwrap();
        // Both tampered folds fail verification and recompute; the
        // summary still comes out bit-identical to the cold run.
        assert_eq!(warm.summary, cold.summary);
        assert_eq!(warm.stats.hits, c.len() - 2);
        assert_eq!(warm.stats.misses, 2);
    }

    #[test]
    fn config_change_invalidates_every_fold() {
        let c = corpus(30);
        let spec = EncodingSpec::new()
            .profiles(5, 1)
            .target(ReprKind::PearsonRnd)
            .target(ReprKind::Histogram);
        let enc = EncodedCorpus::build(&c, &spec).unwrap();
        let cold = evaluate_few_runs_incremental(&enc, cfg(), &[]).unwrap();
        let other = FewRunsConfig {
            repr: ReprKind::Histogram,
            ..cfg()
        };
        let cross = evaluate_few_runs_incremental(&enc, other, &cold.folds).unwrap();
        // Same corpus, different config: no hit, no delta (the prior
        // entries' fingerprints don't reproduce under this config).
        assert_eq!(cross.stats.reused(), 0);
        assert_eq!(cross.stats.misses, c.len());
    }

    #[test]
    fn non_knn_models_never_take_the_delta_path() {
        let full = corpus(20);
        let small = truncated(&full, 1);
        let rf = FewRunsConfig {
            model: ModelKind::RandomForest,
            ..cfg()
        };
        let spec = few_runs_spec(&rf);
        let small_enc = EncodedCorpus::build(&small, &spec).unwrap();
        let prior = evaluate_few_runs_incremental(&small_enc, rf, &[]).unwrap();
        assert!(prior.folds.iter().all(|f| f.neighbors.is_none()));
        let full_enc = EncodedCorpus::build(&full, &spec).unwrap();
        let warm = evaluate_few_runs_incremental(&full_enc, rf, &prior.folds).unwrap();
        assert_eq!(warm.stats.reused(), 0);
        assert_eq!(warm.stats.misses, full.len());
        // And it still matches the cold evaluation bitwise.
        let cold = evaluate_few_runs_encoded(&full_enc, rf).unwrap();
        assert_eq!(warm.summary, cold);
    }

    #[test]
    fn cross_system_incremental_matches_and_caches() {
        let amd = Corpus::collect(&SystemModel::amd(), 30, 5);
        let intel = corpus(30);
        let uc2 = CrossSystemConfig {
            repr: ReprKind::PearsonRnd,
            model: ModelKind::Knn,
            profile_runs: 15,
            seed: 4,
        };
        let (src_spec, dst_spec) = crate::eval::cross_system_specs(&amd, &uc2);
        let src = EncodedCorpus::build(&amd, &src_spec).unwrap();
        let dst = EncodedCorpus::build(&intel, &dst_spec).unwrap();
        let cold = evaluate_cross_system_incremental(&src, &dst, uc2, &[]).unwrap();
        let plain = crate::eval::evaluate_cross_system_encoded(&src, &dst, uc2).unwrap();
        assert_eq!(cold.summary, plain);
        let warm = evaluate_cross_system_incremental(&src, &dst, uc2, &cold.folds).unwrap();
        assert_eq!(warm.stats.hits, amd.len());
        assert_eq!(warm.summary, plain);
    }

    #[test]
    fn strict_prefix_detection() {
        assert!(is_strict_prefix(&[1, 2], &[1, 2, 3]));
        assert!(!is_strict_prefix(&[1, 2], &[1, 2]));
        assert!(!is_strict_prefix(&[1, 3], &[1, 2, 3]));
        assert!(!is_strict_prefix(&[1, 2, 3], &[1, 2]));
        assert!(is_strict_prefix(&[], &[9]));
    }
}
