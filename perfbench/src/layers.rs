//! The per-layer metrics of the traced run.
//!
//! Every traced run reports the full list below, so one workload's
//! numbers can be compared with another's; a layer a workload does not
//! exercise reads 0. Span-derived values come from [`Layers::fill_from_spans`];
//! counter- and log-derived values are set by the workload.

use std::collections::BTreeMap;

use pv_core::{ModelKind, ReprKind};

use crate::trace::{analyze, Span};
use crate::Metric;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sysmodel.collect_s", "s"),
    ("pipeline.encode_s", "s"),
    ("pipeline.prepare_fold_ms", "ms"),
    ("pipeline.prepare_fold_calls", "count"),
    ("shard.build_s", "s"),
    ("shard.get_ms", "ms"),
    ("shard.get_calls", "count"),
    ("shard.loads", "count"),
    ("shard.resident_ratio", "ratio"),
    ("ml.fit_s.gbt", "s"),
    ("ml.fit_s.forest", "s"),
    ("ml.fit_s.knn", "s"),
    ("ml.fit_calls.gbt", "count"),
    ("ml.fit_calls.forest", "count"),
    ("ml.fit_calls.knn", "count"),
    ("ml.predict_us.gbt", "us"),
    ("ml.predict_us.forest", "us"),
    ("ml.predict_us.knn", "us"),
    ("ml.predict_calls.gbt", "count"),
    ("ml.predict_calls.forest", "count"),
    ("ml.predict_calls.knn", "count"),
    ("repr.decode_ms.histogram", "ms"),
    ("repr.decode_ms.maxent", "ms"),
    ("repr.decode_ms.pearson", "ms"),
    ("repr.decode_calls.histogram", "count"),
    ("repr.decode_calls.maxent", "count"),
    ("repr.decode_calls.pearson", "count"),
    ("maxent.fail_ratio", "ratio"),
    ("maxent.iters_mean", "count"),
    ("stats.ks_us", "us"),
    ("stats.ks_calls", "count"),
    ("sweep.cache_store_ms", "ms"),
    ("sweep.cache_load_ms", "ms"),
    ("sweep.hit_ratio", "ratio"),
    ("sweep.warm_rerun_s", "s"),
    ("registry.store_ms", "ms"),
    ("registry.load_ms", "ms"),
    ("serve.engine_us", "us"),
    ("serve.protocol_us", "us"),
    ("serve.queue_ms.p50", "ms"),
    ("serve.queue_ms.p99", "ms"),
    ("serve.worker_ms.p50", "ms"),
    ("serve.write_us.p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.shed", "count"),
    ("serve.transport_ms", "ms"),
    ("serve.p50_ms.low", "ms"),
    ("serve.p50_ms.high", "ms"),
    ("serve.p99_ms.low", "ms"),
    ("serve.p99_ms.high", "ms"),
    ("serve.max_rate_rps", "1/s"),
    ("serve.daemon_rss_mb", "MB"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.late_ms.max", "ms"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("trace.root_coverage", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Per-call layers reported as total time plus call count:
/// `(time metric, count metric, span name, ns → unit scale)`.
const TOTALS: &[(&str, &str, &str, f64)] = &[
    (
        "pipeline.prepare_fold_ms",
        "pipeline.prepare_fold_calls",
        "pipeline.prepare_fold",
        1e-6,
    ),
    ("shard.get_ms", "shard.get_calls", "shard.get", 1e-6),
    ("ml.fit_s.gbt", "ml.fit_calls.gbt", "ml.fit.gbt", 1e-9),
    (
        "ml.fit_s.forest",
        "ml.fit_calls.forest",
        "ml.fit.forest",
        1e-9,
    ),
    ("ml.fit_s.knn", "ml.fit_calls.knn", "ml.fit.knn", 1e-9),
    (
        "ml.predict_us.gbt",
        "ml.predict_calls.gbt",
        "ml.predict.gbt",
        1e-3,
    ),
    (
        "ml.predict_us.forest",
        "ml.predict_calls.forest",
        "ml.predict.forest",
        1e-3,
    ),
    (
        "ml.predict_us.knn",
        "ml.predict_calls.knn",
        "ml.predict.knn",
        1e-3,
    ),
    (
        "repr.decode_ms.histogram",
        "repr.decode_calls.histogram",
        "repr.decode.histogram",
        1e-6,
    ),
    (
        "repr.decode_ms.maxent",
        "repr.decode_calls.maxent",
        "repr.decode.maxent",
        1e-6,
    ),
    (
        "repr.decode_ms.pearson",
        "repr.decode_calls.pearson",
        "repr.decode.pearson",
        1e-6,
    ),
    ("stats.ks_us", "stats.ks_calls", "stats.ks", 1e-3),
];

/// Short layer tag of a model, as used in span and metric names.
pub fn model_tag(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Knn => "knn",
        ModelKind::RandomForest => "forest",
        ModelKind::XgBoost => "gbt",
    }
}

/// Short layer tag of a representation.
pub fn repr_tag(repr: ReprKind) -> &'static str {
    match repr {
        ReprKind::Histogram => "histogram",
        ReprKind::PyMaxEnt => "maxent",
        ReprKind::PearsonRnd => "pearson",
    }
}

/// Per-layer values under construction.
pub struct Layers {
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// All metrics at 0 with no samples.
    pub fn new() -> Layers {
        Layers {
            values: PER_LAYER.iter().map(|&(n, _)| (n, (0.0, 0))).collect(),
        }
    }

    /// Sets one metric; the name must be in [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| **n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot.1 = (value, samples);
    }

    /// Fills the span-derived metrics and prints the self-time and
    /// root-coverage tables to stderr.
    pub fn fill_from_spans(&mut self, spans: &[Span]) {
        let durations = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .collect()
        };
        // Set-up layers run a few times per run: report the median call.
        for (metric, span, scale) in [
            ("sysmodel.collect_s", "sysmodel.collect", 1e-9),
            ("pipeline.encode_s", "pipeline.encode", 1e-9),
            ("shard.build_s", "shard.build", 1e-9),
            ("sweep.cache_store_ms", "sweep.cache_store", 1e-6),
            ("sweep.cache_load_ms", "sweep.cache_load", 1e-6),
            ("registry.store_ms", "registry.store", 1e-6),
            ("registry.load_ms", "registry.load", 1e-6),
        ] {
            let d = durations(span);
            if let Some(m) = crate::stats::median(&d) {
                self.set(metric, m * scale, d.len());
            }
        }
        // Per-fold layers: total time plus call count.
        for &(metric, calls, span, scale) in TOTALS {
            let d = durations(span);
            self.set(metric, d.iter().fold(0.0, |a, b| a + b) * scale, d.len());
            self.set(calls, d.len() as f64, d.len());
        }

        let (layers, roots) = analyze(spans);
        eprintln!(
            "\n  {:<28} {:>8} {:>12} {:>12}",
            "span", "calls", "total_s", "self_s"
        );
        for (name, l) in &layers {
            eprintln!(
                "  {:<28} {:>8} {:>12.6} {:>12.6}",
                name,
                l.calls,
                l.total_ns as f64 * 1e-9,
                l.self_ns as f64 * 1e-9
            );
        }
        eprintln!(
            "\n  {:<28} {:>8} {:>12} {:>10}",
            "root span", "roots", "wall_s", "covered"
        );
        let (mut wall, mut covered) = (0u64, 0u64);
        for (name, r) in &roots {
            eprintln!(
                "  {:<28} {:>8} {:>12.6} {:>9.1}%",
                name,
                r.roots,
                r.wall_ns as f64 * 1e-9,
                100.0 * r.share()
            );
            wall += r.wall_ns;
            covered += r.covered_ns;
        }
        let n_roots = roots.values().map(|r| r.roots as usize).sum();
        if wall > 0 {
            self.set("trace.root_coverage", covered as f64 / wall as f64, n_roots);
            self.set(
                "trace.unattributed_s",
                (wall - covered) as f64 * 1e-9,
                n_roots,
            );
        }
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = self.values[name];
                Metric {
                    name: name.to_string(),
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER {
            assert!(crate::stats::valid_metric_name(name), "{name}");
            assert!(!unit.is_empty());
            assert!(seen.insert(*name), "duplicate {name}");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
