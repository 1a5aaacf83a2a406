//! perfbench — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload uc1_grid|shard_scale|serve_open \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `run.sh` builds `repro`, `pv-serve` and this program from source, then
//! runs one workload. A human-readable report goes to stderr; the last
//! line of stdout is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. With `--trace 0` the metrics are the workload's
//! end-to-end metrics, measured with no recording; with `--trace 1` they
//! are the per-layer metrics of a separate traced run, whose spans are
//! written to `.perfbench/`. The exit code is non-zero when an output
//! correctness gate fails. `perfbench/README.md` explains each workload,
//! metric and gate.

mod fold;
mod layers;
mod serve_open;
mod shard_scale;
mod stats;
mod trace;
mod uc1_grid;

use std::path::{Path, PathBuf};
use std::process::{Child, ExitCode};
use std::time::{Duration, Instant};

use crate::trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The end-to-end metrics, with units, in report order. Every workload
/// reports every one; `perfbench/README.md` gives each workload's
/// definition.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ks_mean", "ks"),
    ("ok_frac", "ratio"),
];

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["uc1_grid", "shard_scale", "serve_open"];

/// Where runs keep their scratch state and trace output, relative to
/// the checkout root.
const OUT_DIR: &str = ".perfbench";

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; empty means every output checked out.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// `1 − failed / attempted`: the end-to-end form of the failure
    /// share, which must never read 0.
    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a gate: `ok == false` adds `what` to the violations.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Everything a workload needs from the command line and the build.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
    /// Scratch directory of this run (removed at exit).
    pub work: PathBuf,
    /// Directory holding the `repro` and `pv-serve` binaries.
    pub bin_dir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// Seconds of the measurement budget still unspent.
    pub fn budget_left(&self) -> f64 {
        self.seconds as f64 - self.started.elapsed().as_secs_f64()
    }

    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// Kills and reaps a child process on drop, so no error path leaves a
/// process running.
pub struct ChildGuard(pub Option<Child>);

impl ChildGuard {
    /// Waits up to `timeout` for a clean exit; kills the child after that.
    /// Returns whether it exited successfully by itself.
    pub fn wait_exit(&mut self, timeout: Duration) -> bool {
        let Some(mut child) = self.0.take() else {
            return false;
        };
        let deadline = Instant::now() + timeout;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Peak resident set (VmHWM) of process `pid` in MB; `"self"` for this
/// process.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User + system CPU time of process `pid` (`"self"` for this one) so far, in clock ticks of
/// 10 ms (`/proc/<pid>/stat` fields 14 and 15). Time the hypervisor stole
/// is not charged to the process.
pub fn cpu_ticks(pid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = text
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (field(11), field(12)) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err(format!("{path}: no utime/stime fields")),
    }
}

/// CPU milliseconds per operation from a `cpu_ticks` difference.
pub fn cpu_ms_per_op(ticks: u64, ops: u64) -> f64 {
    ticks as f64 * 10.0 / ops.max(1) as f64
}

/// CPU time the hypervisor has stolen from this machine so far, in
/// clock ticks (the `steal` column of `/proc/stat`); 0 where the kernel
/// does not report it. Printed next to timings as a health signal.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Median of durations, in seconds.
pub fn median_s(durations: &[Duration]) -> f64 {
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    stats::median(&secs).unwrap_or(f64::NAN)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.violations.is_empty(),
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

fn report(args: &Args, result: &RunResult) {
    eprintln!(
        "\nperfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    eprintln!(
        "  {:<28} {:>16} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &result.metrics {
        eprintln!(
            "  {:<28} {:>16.6} {:<6} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let fail_frac = result.failed as f64 / result.attempted.max(1) as f64;
    eprintln!(
        "  attempted {} failed {} (fail_frac {fail_frac})",
        result.attempted, result.failed
    );
    for v in &result.violations {
        eprintln!("  GATE FAILED: {v}");
    }
}

/// The metrics must be exactly the declared list, in order, with finite
/// values and valid names.
fn check_metrics(args: &Args, metrics: &[Metric]) -> Result<(), String> {
    let declared = if args.trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    };
    let got: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name.as_str(), m.unit)).collect();
    if got != declared {
        return Err(format!(
            "reported metrics {got:?} differ from the declared {declared:?}"
        ));
    }
    match metrics
        .iter()
        .find(|m| !stats::valid_metric_name(&m.name) || !m.value.is_finite())
    {
        Some(bad) => Err(format!("invalid metric {bad:?}")),
        None => Ok(()),
    }
}

fn run(args: &Args, ctx: &Ctx) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "uc1_grid" => uc1_grid::run(ctx),
        "shard_scale" => shard_scale::run(ctx),
        "serve_open" => serve_open::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bin_dir = match std::env::current_exe() {
        Ok(exe) => exe.parent().map(Path::to_path_buf).unwrap_or_default(),
        Err(e) => {
            eprintln!("perfbench: cannot locate the build directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work =
        PathBuf::from(OUT_DIR).join(format!("work-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        work,
        bin_dir,
        started: Instant::now(),
    };
    let outcome = run(&args, &ctx);
    if ctx.traced() {
        let path =
            PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    let result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if let Err(e) = check_metrics(&args, &result.metrics) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }
    report(&args, &result);
    println!("{}", result_json(&result));
    if result.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn field<'a>(map: &'a [(String, Content)], key: &str) -> &'a Content {
        &map.iter().find(|(k, _)| k == key).expect(key).1
    }

    /// `(a, b)` text fields of each object in list `key`.
    fn entries(map: &[(String, Content)], key: &str, a: &str, b: &str) -> Vec<(String, String)> {
        let Content::Seq(items) = field(map, key) else {
            panic!("{key} is not a list");
        };
        items
            .iter()
            .map(|item| {
                let Content::Map(m) = item else {
                    panic!("{key} entry is not an object");
                };
                let text = |k| match field(m, k) {
                    Content::Str(s) => s.clone(),
                    other => panic!("{k}: {other:?}"),
                };
                (text(a), text(b))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_workloads_report() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json");
        let pv_bench::serve::Json(Content::Map(doc)) =
            serde_json::from_str(&text).expect("valid JSON")
        else {
            panic!("BENCHMARK.json is not an object");
        };
        let e2e = entries(&doc, "end_to_end", "name", "unit");
        assert_eq!(e2e, owned(END_TO_END), "end_to_end differs from END_TO_END");
        let per_layer = entries(&doc, "per_layer", "name", "unit");
        assert_eq!(
            per_layer,
            owned(layers::PER_LAYER),
            "per_layer differs from PER_LAYER"
        );
        for (name, _) in e2e.iter().chain(&per_layer) {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        let workloads: Vec<String> = entries(&doc, "workloads", "name", "why")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
