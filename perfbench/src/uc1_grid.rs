//! `uc1_grid`: the use-case-1 LOGO grid behind Fig. 4.
//!
//! Set-up collects the 60-benchmark Intel campaign and encodes it once
//! (`setup_s`). The measured job evaluates all nine representation ×
//! model cells at s = 10 through `evaluate_few_runs_encoded`, 540 folds
//! with no cell cache (`wall_s`; `cpu_ms_per_op` is this process's CPU
//! time per fold). Cells run one after another and each
//! cell's folds run in parallel, so the seed-chosen cell order does not
//! change how work spreads over the cores. The campaign itself is fixed:
//! the gate compares cell means with the committed `repro_output.txt`.

use std::time::{Duration, Instant};

use pv_bench::{intel_corpus, uc1_config};
use pv_core::eval::{evaluate_few_runs_encoded, EvalSummary, RECONSTRUCTION_SAMPLES};
use pv_core::pipeline::{EncodedCorpus, EncodingSpec, FoldRunner, FoldView, SeedMode};
use pv_core::sweep::GridSpec;
use pv_core::{ModelKind, ReprKind};
use pv_stats::rng::Xoshiro256pp;
use pv_sysmodel::Corpus;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

use crate::fold::{recompose, FoldPlan};
use crate::layers::{repr_tag, Layers};
use crate::trace::Tracer;
use crate::{cpu_ms_per_op, cpu_ticks, median_s, peak_rss_mb, Ctx, RunResult, SETUP_REPS};

/// Profile runs per prediction (the Fig. 4 setting).
const S: usize = 10;

/// Largest |Δ mean KS| a tree cell may show against `repro_output.txt`
/// (the binned-split tolerance of DESIGN.md §10).
const TREE_TOLERANCE: f64 = 0.02;

type Cell = (ReprKind, ModelKind);

/// The nine cells in a seed-chosen order.
fn cell_order(seed: u64) -> Vec<Cell> {
    let mut cells: Vec<Cell> = ReprKind::ALL
        .iter()
        .flat_map(|&r| ModelKind::ALL.iter().map(move |&m| (r, m)))
        .collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    cells
}

/// Fig. 4 cell means as printed in `repro_output.txt`
/// (`  [Histogram × kNN] mean KS 0.208 (13.9ms)`).
fn reference_means(text: &str) -> Result<Vec<(Cell, String)>, String> {
    let block = text
        .split("== Fig. 4")
        .nth(1)
        .ok_or("repro_output.txt has no Fig. 4 block")?;
    let mut out = Vec::new();
    for line in block.lines().skip(1) {
        let Some(rest) = line.trim().strip_prefix('[') else {
            break;
        };
        let (label, tail) = rest.split_once(']').ok_or("malformed Fig. 4 line")?;
        let (repr, model) = label.split_once(" × ").ok_or("malformed Fig. 4 label")?;
        let repr = ReprKind::ALL
            .into_iter()
            .find(|r| r.name() == repr)
            .ok_or_else(|| format!("unknown representation {repr:?}"))?;
        let model = ModelKind::ALL
            .into_iter()
            .find(|m| m.name() == model)
            .ok_or_else(|| format!("unknown model {model:?}"))?;
        let mean = tail
            .split_whitespace()
            .nth(2)
            .ok_or("malformed Fig. 4 mean")?;
        out.push(((repr, model), mean.to_string()));
    }
    if out.len() != 9 {
        return Err(format!(
            "Fig. 4 block lists {} cells, expected 9",
            out.len()
        ));
    }
    Ok(out)
}

/// The Fig. 4 gate: kNN cells must print the same three decimals (all
/// the file holds), tree cells must lie within [`TREE_TOLERANCE`].
fn check_fig4(result: &mut RunResult, cells: &[(Cell, EvalSummary)]) {
    let reference = match std::fs::read_to_string("repro_output.txt")
        .map_err(|e| format!("repro_output.txt: {e}"))
        .and_then(|t| reference_means(&t))
    {
        Ok(r) => r,
        Err(e) => {
            result.violations.push(e);
            return;
        }
    };
    for ((repr, model), summary) in cells {
        let Some((_, text)) = reference.iter().find(|(c, _)| *c == (*repr, *model)) else {
            result
                .violations
                .push(format!("no reference for {repr:?} × {model:?}"));
            continue;
        };
        let printed = format!("{:.3}", summary.mean);
        let ok = match model {
            ModelKind::Knn => printed == *text,
            _ => text
                .parse::<f64>()
                .is_ok_and(|r| (summary.mean - r).abs() <= TREE_TOLERANCE + 5e-4),
        };
        result.gate(ok, || {
            format!(
                "{} × {}: mean KS {} vs repro_output.txt {text}",
                repr.name(),
                model.name(),
                summary.mean
            )
        });
    }
}

/// Re-drives every fold of `cells` with spans and checks each KS against
/// the untraced summaries bit for bit.
fn traced_grid(
    ctx: &Ctx,
    enc: &EncodedCorpus<'_>,
    cells: &[(Cell, EvalSummary)],
    result: &mut RunResult,
) -> Duration {
    let started = Instant::now();
    for (ci, ((repr, model), summary)) in cells.iter().enumerate() {
        let cfg = uc1_config(*repr, *model, S);
        let repr_impl = repr.build();
        let runner = FoldRunner {
            n_folds: enc.len(),
            seed: cfg.seed,
            seed_mode: SeedMode::PerFold,
            standardize: model.wants_standardization(),
            n_samples: RECONSTRUCTION_SAMPLES,
            repr: repr_impl.as_ref(),
        };
        let plan = FoldPlan {
            runner: &runner,
            model: *model,
            decode_span: format!("repr.decode.{}", repr_tag(*repr)),
        };
        let windows = cfg.profiles_per_benchmark.max(1);
        let ks: Vec<Result<f64, String>> = (0..enc.len())
            .into_par_iter()
            .map(|held| {
                // The same rows in the same order as the pipeline's own
                // use-case-1 assembly: include-rank-major, windows inner.
                let assemble = |_prep: u64| {
                    move |held: usize, include: Vec<usize>| {
                        let query = enc.profile(S, held, 0)?.to_vec();
                        let (x_dim, y_dim) = (query.len(), enc.target(cfg.repr, held)?.len());
                        Ok(FoldView::new(
                            include.len() * windows,
                            x_dim,
                            y_dim,
                            query,
                            move |sink| {
                                for &bi in &include {
                                    let target = enc.target(cfg.repr, bi)?;
                                    for w in 0..windows {
                                        sink(enc.profile(S, bi, w)?, target, bi)?;
                                    }
                                }
                                Ok(())
                            },
                        ))
                    }
                };
                let group = (ci * enc.len() + held) as u64;
                recompose(&ctx.tracer, &plan, group, held, assemble, |_| {
                    Ok(enc.rel_times_sorted(held).to_vec())
                })
                .map_err(|e| e.to_string())
            })
            .collect();
        for (held, k) in ks.into_iter().enumerate() {
            let want = summary.scores[held].ks;
            result.gate(matches!(&k, Ok(v) if v.to_bits() == want.to_bits()), || {
                format!(
                    "{} × {} fold {held}: recomposed KS {k:?} differs from {want}",
                    repr.name(),
                    model.name()
                )
            });
        }
    }
    started.elapsed()
}

fn encode<'c>(
    tr: &Tracer,
    spec: &EncodingSpec,
    rep: usize,
    root: u64,
    corpus: &'c Corpus,
) -> Result<EncodedCorpus<'c>, String> {
    tr.time("pipeline.encode", rep as u64, Some(root), || {
        EncodedCorpus::build(corpus, spec).map_err(|e| format!("encode: {e}"))
    })
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let spec = GridSpec::default().few_runs_encoding();
    let tr = &ctx.tracer;

    // Set-up: collect + encode, several times; the last one is kept.
    let collect =
        |rep: usize, root: u64| tr.time("sysmodel.collect", rep as u64, Some(root), intel_corpus);
    let mut setup = Vec::new();
    for rep in 0..SETUP_REPS - 1 {
        let (root, t) = (tr.open(), Instant::now());
        let corpus = collect(rep, root);
        std::hint::black_box(encode(tr, &spec, rep, root, &corpus)?);
        setup.push(t.elapsed());
        tr.close(root, "setup", rep as u64, None, t, Instant::now());
    }
    let (rep, root, t) = (SETUP_REPS - 1, tr.open(), Instant::now());
    let corpus = collect(rep, root);
    let enc = encode(tr, &spec, rep, root, &corpus)?;
    setup.push(t.elapsed());
    tr.close(root, "setup", rep as u64, None, t, Instant::now());

    // The measured job: the grid, repeated while the budget allows.
    let order = cell_order(ctx.seed);
    let mut walls = Vec::new();
    let mut cells: Vec<(Cell, EvalSummary)> = Vec::new();
    let mut last = Duration::ZERO;
    let cpu_before = cpu_ticks("self")?;
    while walls.is_empty() || (!ctx.traced() && ctx.budget_left() > last.as_secs_f64()) {
        let t = Instant::now();
        let mut pass = Vec::new();
        for &(repr, model) in &order {
            result.attempted += enc.len() as u64;
            match evaluate_few_runs_encoded(&enc, uc1_config(repr, model, S)) {
                Ok(summary) => pass.push(((repr, model), summary)),
                Err(e) => {
                    result.failed += enc.len() as u64;
                    result
                        .violations
                        .push(format!("{} × {}: {e}", repr.name(), model.name()));
                }
            }
        }
        last = t.elapsed();
        walls.push(last);
        if !cells.is_empty() {
            result.gate(pass == cells, || "grid passes of one run disagree".into());
        }
        cells = pass;
    }
    let cpu_ms = cpu_ms_per_op(cpu_ticks("self")? - cpu_before, result.attempted);
    check_fig4(&mut result, &cells);

    if ctx.traced() {
        let collector = pv_obs::Collector::install();
        let traced = traced_grid(ctx, &enc, &cells, &mut result);
        let snapshot = collector.finish().metrics;
        let mut layers = Layers::new();
        layers.fill_from_spans(&tr.spans());
        let converged = snapshot.counter("pv.maxent.solver.converged").unwrap_or(0);
        let failed = snapshot.counter("pv.maxent.solver.failed").unwrap_or(0);
        let solves = converged + failed;
        if solves > 0 {
            layers.set(
                "maxent.fail_ratio",
                failed as f64 / solves as f64,
                solves as usize,
            );
        }
        if let Some(h) = snapshot.histogram("pv.maxent.solver.iterations") {
            if h.count > 0 {
                layers.set(
                    "maxent.iters_mean",
                    h.sum / h.count as f64,
                    h.count as usize,
                );
            }
        }
        layers.set(
            "obs.trace_overhead_ratio",
            traced.as_secs_f64() / walls[0].as_secs_f64(),
            1,
        );
        result.metrics = layers.into_metrics();
    } else {
        let n_cells = cells.len().max(1);
        result.metric("setup_s", "s", median_s(&setup), setup.len());
        result.metric("wall_s", "s", median_s(&walls), walls.len());
        result.metric("cpu_ms_per_op", "ms", cpu_ms, result.attempted as usize);
        result.metric("peak_rss_mb", "MB", peak_rss_mb("self")?, 1);
        // Summed in the grid's canonical order, so the value does not
        // depend on the seed-chosen run order.
        let mut means: Vec<(Cell, f64)> = cells.iter().map(|(c, s)| (*c, s.mean)).collect();
        means.sort_by_key(|((r, m), _)| (*r as u8, *m as u8));
        let ks_mean = means.iter().fold(0.0, |a, (_, m)| a + m) / n_cells as f64;
        result.metric("ks_mean", "ks", ks_mean, cells.len());
        result.metric(
            "ok_frac",
            "ratio",
            result.ok_frac(),
            result.attempted as usize,
        );
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_is_a_seeded_permutation() {
        let a = cell_order(7);
        assert_eq!(a, cell_order(7));
        assert_ne!(a, cell_order(8));
        let mut sorted = a.clone();
        sorted.sort_by_key(|(r, m)| (r.name(), m.name()));
        sorted.dedup();
        assert_eq!(sorted.len(), 9);
    }

    #[test]
    fn fig4_reference_parses_the_committed_output() {
        let text = "x\n== Fig. 4: use case 1 ==\n  [Histogram × kNN] mean KS 0.208 (13.9ms)\n";
        assert!(reference_means(text).is_err(), "needs all nine cells");
        let full = std::fs::read_to_string("../repro_output.txt").expect("committed output");
        let cells = reference_means(&full).expect("parses");
        assert_eq!(cells.len(), 9);
        assert!(cells.iter().all(|(_, m)| m.parse::<f64>().is_ok()));
    }
}
