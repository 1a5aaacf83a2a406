//! Fold recomposition for the traced run.
//!
//! `FoldRunner::run_fold` is one opaque call. The traced run re-drives
//! each fold through the public calls it is made of — `prepare_fold`,
//! `Regressor::fit` / `predict`, `DistributionRepr::decode`, the sort
//! and `ks2_statistic_presorted` — with a span around each, and the
//! caller asserts that the fold's KS is bit-identical to the untraced
//! result, so the per-layer split measures the same program.

use std::time::Instant;

use pv_core::pipeline::{FoldRunner, FoldView};
use pv_core::ModelKind;
use pv_stats::ks::ks2_statistic_presorted;
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use pv_stats::StatsError;
use rand::SeedableRng;

use crate::layers::model_tag;
use crate::trace::Tracer;

/// What a recomposed fold runs: the runner, the model, and the span
/// name of the runner's decode call.
pub struct FoldPlan<'r> {
    pub runner: &'r FoldRunner<'r>,
    pub model: ModelKind,
    pub decode_span: String,
}

/// Re-drives fold `held`; returns its KS statistic.
///
/// `assemble` receives the id of the `pipeline.prepare_fold` span and
/// `truth` the id of the fold span, so shard fetches inside them nest
/// under those; `truth` returns the held-out benchmark's measured
/// relative times, sorted ascending.
pub fn recompose<'a, A, T>(
    tr: &Tracer,
    plan: &FoldPlan<'_>,
    group: u64,
    held: usize,
    assemble: impl FnOnce(u64) -> A,
    truth: T,
) -> Result<f64, StatsError>
where
    A: Fn(usize, Vec<usize>) -> Result<FoldView<'a>, StatsError>,
    T: FnOnce(u64) -> Result<Vec<f64>, StatsError>,
{
    let fold = tr.open();
    let start = Instant::now();
    let prep = tr.open();
    let prep_start = Instant::now();
    let prepared = plan.runner.prepare_fold(held, &assemble(prep))?;
    tr.close(
        prep,
        "pipeline.prepare_fold",
        group,
        Some(fold),
        prep_start,
        Instant::now(),
    );

    let tag = model_tag(plan.model);
    let mut model = plan.model.build(prepared.fold_seed);
    tr.time(&format!("ml.fit.{tag}"), group, Some(fold), || {
        model.fit(&prepared.data)
    })?;
    let features = tr.time(&format!("ml.predict.{tag}"), group, Some(fold), || {
        model.predict(&prepared.query)
    })?;
    let mut rng = Xoshiro256pp::seed_from_u64(derive_stream(prepared.fold_seed, held as u64));
    let mut predicted = tr.time(&plan.decode_span, group, Some(fold), || {
        plan.runner
            .repr
            .decode(&features, &mut rng, plan.runner.n_samples)
    })?;
    tr.time("stats.sort", group, Some(fold), || {
        predicted.sort_by(f64::total_cmp)
    });
    let rel = truth(fold)?;
    let ks = tr.time("stats.ks", group, Some(fold), || {
        ks2_statistic_presorted(&predicted, &rel)
    })?;
    tr.close(fold, "fold", group, None, start, Instant::now());
    Ok(ks)
}
