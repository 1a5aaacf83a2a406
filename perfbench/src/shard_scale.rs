//! `shard_scale`: a 1,000-benchmark campaign through the sharded data
//! plane.
//!
//! Set-up builds the sharded corpus — generate, encode, fingerprint and
//! spill eight shards of 128 benchmarks (`setup_s`). The cold sweep runs
//! the PearsonRnd × kNN cell over all 1,000 folds against a resident
//! budget of four shards, so the LRU must reload (`wall_s`, and
//! `cpu_ms_per_op` as this process's CPU time per fold); it stores
//! the cell in the cell cache. The warm rerun restarts from the spill
//! files and answers the same grid from the cache (gated, and timed as
//! the per-layer `sweep.warm_rerun_s`). The
//! campaign is the canonical one (`repro sweep --benchmarks 1000`); the
//! seed is the evaluation's root seed, which drives every fold's seed and
//! decode sampling.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pv_bench::CAMPAIGN_SEED;
use pv_core::eval::{EvalSummary, RECONSTRUCTION_SAMPLES};
use pv_core::pipeline::{EncodingSpec, FoldRunner, FoldView, SeedMode};
use pv_core::shard::{CampaignSource, EncodedShard, ShardSource, ShardedCorpus};
use pv_core::sweep::{CellCache, CellConfig, GridSpec, Sweep, SweepReport};
use pv_core::{ModelKind, ReprKind};
use pv_stats::rng::derive_stream;
use pv_stats::StatsError;
use pv_sysmodel::SystemModel;
use rayon::prelude::*;

use crate::fold::{recompose, FoldPlan};
use crate::layers::{repr_tag, Layers};
use crate::trace::Tracer;
use crate::{cpu_ms_per_op, cpu_ticks, median_s, peak_rss_mb, Ctx, RunResult, SETUP_REPS};

const BENCHMARKS: usize = 1000;
const RUNS: usize = 1000;
const SHARD_SIZE: usize = 128;
const RESIDENT: usize = 4;
/// Warm reruns per run; `sweep.warm_rerun_s` is their median.
const WARM_REPS: usize = 5;

/// The evaluation's root seed for benchmark seed `seed`.
fn eval_seed(seed: u64) -> u64 {
    derive_stream(CAMPAIGN_SEED, seed)
}

fn grid(seed: u64) -> GridSpec {
    GridSpec {
        reprs: vec![ReprKind::PearsonRnd],
        models: vec![ModelKind::Knn],
        sample_counts: vec![10],
        seeds: vec![eval_seed(seed)],
        profiles_per_benchmark: 1,
    }
}

fn campaign() -> CampaignSource {
    CampaignSource {
        system: SystemModel::intel(),
        n_benchmarks: BENCHMARKS,
        n_runs: RUNS,
        seed: CAMPAIGN_SEED,
    }
}

/// Builds the sharded corpus; `span` is `shard.build` for a cold build
/// and `shard.reopen` for a warm restart from existing spill files.
fn build(
    tr: &Tracer,
    span: &str,
    rep: usize,
    spec: &EncodingSpec,
    spill: &std::path::Path,
) -> Result<ShardedCorpus<'static>, String> {
    tr.time(span, rep as u64, None, || {
        ShardedCorpus::builder(ShardSource::Campaign(campaign()), spec)
            .shard_size(SHARD_SIZE)
            .resident_shards(RESIDENT)
            .spill_dir(spill)
            .build()
            .map_err(|e| format!("shard build: {e}"))
    })
}

/// The cell's summary, or why there is none.
fn only_summary(report: &SweepReport) -> Result<EvalSummary, String> {
    match report.cells.as_slice() {
        [cell] => cell
            .summary()
            .cloned()
            .ok_or_else(|| format!("cell did not complete: {:?}", cell.outcome)),
        cells => Err(format!("sweep returned {} cells, expected 1", cells.len())),
    }
}

/// A shard fetch, recorded as a `shard.get` span.
fn get(
    tr: &Tracer,
    sh: &ShardedCorpus<'_>,
    si: usize,
    group: u64,
    parent: u64,
) -> Result<Arc<EncodedShard>, StatsError> {
    tr.time("shard.get", group, Some(parent), || sh.shard(si))
}

/// Re-drives every fold with spans, assembling rows from
/// `ShardedCorpus::shard` in the order of the pipeline's own sharded
/// assembly (ascending include order, one shard pinned at a time), and
/// checks each KS against the cold sweep bit for bit. Returns the wall
/// time and the number of shard requests.
fn traced_folds(
    tr: &Tracer,
    sh: &ShardedCorpus<'_>,
    seed: u64,
    summary: &EvalSummary,
    result: &mut RunResult,
) -> Duration {
    let started = Instant::now();
    let repr = ReprKind::PearsonRnd;
    let model = ModelKind::Knn;
    let repr_impl = repr.build();
    let runner = FoldRunner {
        n_folds: sh.len(),
        seed,
        seed_mode: SeedMode::PerFold,
        standardize: model.wants_standardization(),
        n_samples: RECONSTRUCTION_SAMPLES,
        repr: repr_impl.as_ref(),
    };
    let plan = FoldPlan {
        runner: &runner,
        model,
        decode_span: format!("repr.decode.{}", repr_tag(repr)),
    };
    let s = 10;
    let layout = sh.layout();
    let ks: Vec<Result<f64, String>> = (0..sh.len())
        .into_par_iter()
        .map(|held| {
            let group = held as u64;
            let assemble = |prep: u64| {
                move |held: usize, include: Vec<usize>| -> Result<FoldView<'_>, StatsError> {
                    let held_shard = get(tr, sh, layout.shard_of(held), group, prep)?;
                    let query = held_shard.profile(s, held, 0)?.to_vec();
                    let (x_dim, y_dim) = (query.len(), held_shard.target(repr, held)?.len());
                    drop(held_shard);
                    Ok(FoldView::new(
                        include.len(),
                        x_dim,
                        y_dim,
                        query,
                        move |sink| {
                            let mut i = 0;
                            for si in 0..layout.n_shards() {
                                let end = layout.range(si).end;
                                if i >= include.len() || include[i] >= end {
                                    continue;
                                }
                                let shard = get(tr, sh, si, group, prep)?;
                                while i < include.len() && include[i] < end {
                                    let bi = include[i];
                                    sink(shard.profile(s, bi, 0)?, shard.target(repr, bi)?, bi)?;
                                    i += 1;
                                }
                            }
                            Ok(())
                        },
                    ))
                }
            };
            recompose(tr, &plan, group, held, assemble, |fold| {
                let shard = get(tr, sh, layout.shard_of(held), group, fold)?;
                Ok(shard.rel_times_sorted(held)?.to_vec())
            })
            .map_err(|e| e.to_string())
        })
        .collect();
    for (held, k) in ks.into_iter().enumerate() {
        let want = summary.scores[held].ks;
        result.gate(matches!(&k, Ok(v) if v.to_bits() == want.to_bits()), || {
            format!("fold {held}: recomposed KS {k:?} differs from {want}")
        });
    }
    started.elapsed()
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let tr = &ctx.tracer;
    let spill = ctx.work.join("shard-spill");
    let cache_dir = ctx.work.join("cell-cache");
    let cells = grid(ctx.seed);
    let spec = cells.few_runs_encoding();

    // Set-up: cold shard builds, each into an empty spill directory.
    let mut setup = Vec::new();
    let mut sh = None;
    for rep in 0..SETUP_REPS {
        drop(sh.take());
        let _ = std::fs::remove_dir_all(&spill);
        let t = Instant::now();
        sh = Some(build(tr, "shard.build", rep, &spec, &spill)?);
        setup.push(t.elapsed());
    }
    let sh = sh.ok_or("no set-up ran")?;

    // Cold sweep: every fold computed, the cell stored.
    let (t, cpu_before) = (Instant::now(), cpu_ticks("self")?);
    let cold = Sweep::few_runs_sharded(&sh)
        .with_cache(CellCache::new(&cache_dir))
        .run(&cells)
        .map_err(|e| format!("cold sweep: {e}"))?;
    let wall = t.elapsed();
    let cpu_ms = cpu_ms_per_op(cpu_ticks("self")? - cpu_before, BENCHMARKS as u64);
    drop(sh);
    result.attempted += BENCHMARKS as u64;
    let cold_summary = match only_summary(&cold) {
        Ok(s) => s,
        Err(e) => {
            result.failed += BENCHMARKS as u64;
            result.violations.push(format!("cold sweep: {e}"));
            return Ok(result);
        }
    };
    result.gate(cold.misses == 1 && cold.hits == 0, || {
        format!(
            "cold sweep: {} hits, {} misses, expected 0 and 1",
            cold.hits, cold.misses
        )
    });
    let peak_rss = peak_rss_mb("self")?;

    // Warm reruns: restart from the spill files, answer from the cache.
    let mut warm = Vec::new();
    let collector = ctx.traced().then(pv_obs::Collector::install);
    for rep in 0..WARM_REPS {
        let t = Instant::now();
        let sh = build(tr, "shard.reopen", rep, &spec, &spill)?;
        let report = Sweep::few_runs_sharded(&sh)
            .with_cache(CellCache::new(&cache_dir))
            .run(&cells)
            .map_err(|e| format!("warm sweep: {e}"))?;
        warm.push(t.elapsed());
        eprintln!("  warm rerun {rep}: {:.3} s", t.elapsed().as_secs_f64());
        result.gate(report.hits == 1 && report.misses == 0, || {
            format!(
                "warm rerun: {} hits, {} misses, expected 1 and 0",
                report.hits, report.misses
            )
        });
        result.gate(
            only_summary(&report).is_ok_and(|s| same_bits(&s, &cold_summary)),
            || "warm rerun summary differs from the cold sweep".into(),
        );
    }

    if let Some(collector) = collector {
        let warm_counters = collector.finish().metrics;
        let mut layers = Layers::new();
        let hits = warm_counters
            .counter("pv.core.sweep.cache_hit")
            .unwrap_or(0);
        let misses = warm_counters
            .counter("pv.core.sweep.cache_miss")
            .unwrap_or(0);
        if hits + misses > 0 {
            layers.set(
                "sweep.hit_ratio",
                hits as f64 / (hits + misses) as f64,
                (hits + misses) as usize,
            );
        }
        traced_cache(
            tr,
            &cells,
            &cache_dir,
            &ctx.work.join("cell-cache-copy"),
            &cold,
            &mut result,
        )?;

        // The campaign-generation share of a build: every shard's range
        // collected the way `ShardedCorpus::build` collects it.
        let sh = build(tr, "shard.reopen", WARM_REPS, &spec, &spill)?;
        let ids = pv_sysmodel::scaled_roster(BENCHMARKS);
        let c = campaign();
        tr.time("sysmodel.collect", 0, None, || {
            for si in 0..sh.layout().n_shards() {
                let range = &ids[sh.layout().range(si)];
                std::hint::black_box(pv_sysmodel::collect_benchmarks(
                    &c.system, range, c.n_runs, c.seed,
                ));
            }
        });
        let collector = pv_obs::Collector::install();
        let traced = traced_folds(tr, &sh, eval_seed(ctx.seed), &cold_summary, &mut result);
        let counters = collector.finish().metrics;
        let spans = tr.spans();
        layers.fill_from_spans(&spans);
        let requests = spans.iter().filter(|s| s.name == "shard.get").count();
        let loads = counters.counter("pv.core.shard.load").unwrap_or(0);
        layers.set("shard.loads", loads as f64, requests);
        if requests > 0 {
            layers.set(
                "shard.resident_ratio",
                1.0 - loads as f64 / requests as f64,
                requests,
            );
        }
        layers.set(
            "obs.trace_overhead_ratio",
            traced.as_secs_f64() / wall.as_secs_f64(),
            1,
        );
        layers.set("sweep.warm_rerun_s", median_s(&warm), warm.len());
        result.metrics = layers.into_metrics();
    } else {
        result.metric("setup_s", "s", median_s(&setup), setup.len());
        result.metric("wall_s", "s", wall.as_secs_f64(), 1);
        result.metric("cpu_ms_per_op", "ms", cpu_ms, BENCHMARKS);
        result.metric("peak_rss_mb", "MB", peak_rss, 1);
        result.metric(
            "ks_mean",
            "ks",
            cold_summary.mean,
            cold_summary.scores.len(),
        );
        result.metric(
            "ok_frac",
            "ratio",
            result.ok_frac(),
            result.attempted as usize,
        );
    }
    Ok(result)
}

/// Times the cell cache's public load and store on the cell the cold
/// sweep wrote: load from the sweep's cache, store (summary plus its
/// per-fold entries) into an empty one.
fn traced_cache(
    tr: &Tracer,
    cells: &GridSpec,
    cache_dir: &std::path::Path,
    copy_dir: &std::path::Path,
    cold: &SweepReport,
    result: &mut RunResult,
) -> Result<(), String> {
    let cache = CellCache::new(cache_dir);
    let copy = CellCache::new(copy_dir);
    let fp = cold.fingerprint;
    let cfg = CellConfig::FewRuns(cells.few_runs_cells()[0]);
    // `donor_folds` returns the stored folds of cells keyed under any
    // *other* fingerprint, so asking for a neighbour of `fp` yields this
    // cell's own entries.
    let folds = cache
        .donor_folds(fp ^ 1)
        .remove(&cfg)
        .ok_or("the cold sweep stored no fold entries")?;
    for rep in 0..WARM_REPS as u64 {
        let loaded = tr.time("sweep.cache_load", rep, None, || cache.load(fp, &cfg));
        let Some((summary, degraded)) = loaded else {
            result
                .violations
                .push("cell cache load missed after the cold sweep".into());
            return Ok(());
        };
        tr.time("sweep.cache_store", rep, None, || {
            copy.store(fp, &cfg, &summary, degraded.as_ref(), &folds)
        })
        .map_err(|e| format!("cache store: {e}"))?;
    }
    Ok(())
}

fn same_bits(a: &EvalSummary, b: &EvalSummary) -> bool {
    a.mean.to_bits() == b.mean.to_bits()
        && a.scores.len() == b.scores.len()
        && a.scores
            .iter()
            .zip(&b.scores)
            .all(|(x, y)| x.id == y.id && x.ks.to_bits() == y.ks.to_bits())
}
