//! `serve_open`: the `pv-serve` daemon under an open-loop arrival
//! schedule.
//!
//! Set-up runs `repro train` (the default use-case-1 model, PearsonRnd +
//! kNN at s = 10) and starts `pv-serve` on a unix socket until it
//! answers a health probe (`setup_s`). The load generator then sends
//! requests on a seeded exponential inter-arrival schedule, regardless
//! of replies: open loop, one connection, a writer and a reader thread.
//! Each request is timed from when it was *due*, so a stall also counts
//! against the requests queued behind it. Two fixed rates run in
//! alternating rounds. The end-to-end metrics are the rounds' wall-clock
//! from first due time to last reply, the daemon's CPU time per request
//! and peak RSS, and the mean KS of the served predictions. The traced
//! run adds the latencies, a fixed ascending rate ladder for the highest
//! rate meeting the latency limit, and the per-layer split.
//! About 1% of lines are `{"op":"stats"}`.
//!
//! Gates: every `ok` prediction is byte-identical to the in-process
//! `ServeEngine::handle_line` on the same line; stats replies are `ok`;
//! the daemon's `pv.serve.request` equals the lines sent and splits
//! exactly into its outcome counters.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pv_bench::serve::{Json, Outcome, ServeEngine};
use pv_bench::{intel_corpus, uc1_config};
use pv_core::profile::Profile;
use pv_core::registry::{Artifact, ModelRegistry, RegistryEntry};
use pv_core::usecase1::FewRunsPredictor;
use pv_core::{ModelKind, ReprKind};
use pv_stats::ks::ks2_statistic;
use pv_stats::rng::{derive_stream, Xoshiro256pp};
use serde::Content;

use crate::layers::Layers;
use crate::stats::{median, supported_percentile};
use crate::trace::Tracer;
use crate::{
    cpu_ms_per_op, cpu_ticks, median_s, peak_rss_mb, steal_ticks, ChildGuard, Ctx, RunResult,
    SETUP_REPS,
};

/// The two fixed rates, frozen as absolute req/s: about 15% and 55% of
/// the daemon's closed-loop capacity (~2,250 req/s on 2 cores) when the
/// benchmark was defined.
pub const LOW_RPS: f64 = 340.0;
pub const HIGH_RPS: f64 = 1240.0;
/// The p99 latency limit `max_rate_rps` is measured against. It sits
/// where the p99-vs-rate curve turns steep on 2 vCPUs, above the
/// several-millisecond scheduling stalls of a shared host (see
/// README.md).
pub const P99_LIMIT_MS: f64 = 25.0;
/// Share of lines that are `{"op":"stats"}` probes.
const STATS_SHARE: f64 = 0.01;
/// Reconstruction samples per prediction.
const N_SAMPLES: usize = 1000;
/// Distinct `sample_seed`s per benchmark in the request pool.
const SEEDS_PER_BENCH: usize = 4;
/// Requests per ladder probe (enough for a p99 with 10 samples beyond).
const PROBE_REQUESTS: usize = 1000;
/// Alternating rounds of the two fixed-rate phases.
const ROUNDS: usize = 5;
/// Request-count range of a fixed-rate phase.
const MIN_PHASE_REQUESTS: usize = 1000;
const MAX_PHASE_REQUESTS: usize = 9999;
/// In-process replays of each pool line in the traced run.
const REPLAY_REPS: usize = 3;

const STATS_LINE: &str = "{\"op\":\"stats\"}";

/// The fixed ascending rate ladder: 800 req/s × 1.09^k, up to about
/// the daemon's closed-loop capacity.
pub fn ladder() -> Vec<f64> {
    (0..13).map(|k| 800.0 * 1.09f64.powi(k)).collect()
}

/// One scheduled request: when it is due (ns after the phase starts)
/// and which line it sends (`None` = a stats probe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub line: Option<usize>,
}

/// `n` arrivals at `rate` per second with exponential gaps, drawn from
/// stream `stream` of `seed` before anything is sent.
pub fn schedule(seed: u64, stream: u64, rate: f64, n: usize, pool: usize) -> Vec<Arrival> {
    let mut rng = Xoshiro256pp::from_seed_stream(seed, stream);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // 1 - U is in (0, 1], so the log is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            let line = if rng.next_f64() < STATS_SHARE {
                None
            } else {
                Some(((rng.next_f64() * pool as f64) as usize).min(pool - 1))
            };
            Arrival {
                due_ns: (t * 1e9) as u64,
                line,
            }
        })
        .collect()
}

/// The highest passing rung of a ladder probed once per rung, in
/// ascending order: the split that best separates passing rungs below
/// from failing rungs above (most rungs on the expected side; the lower
/// split on a tie), so one probe disturbed by the host cannot move the
/// result far. `None` when the best split puts every rung above it.
pub fn highest_passing(passes: &[bool]) -> Option<usize> {
    let agree = |t: usize| {
        passes[..t].iter().filter(|&&p| p).count() + passes[t..].iter().filter(|&&p| !p).count()
    };
    let split = (0..=passes.len()).fold(0, |best, t| if agree(t) > agree(best) { t } else { best });
    split.checked_sub(1)
}

/// What one open-loop phase observed, per request in send order.
struct Phase {
    arrivals: Vec<Arrival>,
    /// Seq the daemon gave the phase's first line.
    first_seq: u64,
    /// Due → reply read, ms.
    latency_ms: Vec<f64>,
    /// Due → line written, ms.
    late_ms: Vec<f64>,
    /// Line written → reply read, ns.
    round_trip_ns: Vec<u64>,
    /// Replies that were not `ok` (refused, shed, timed out, errors).
    failed: u64,
    /// `ok` predictions that differ from the in-process reply.
    mismatched: u64,
    /// Realized offered rate: arrivals over the schedule's span.
    offered_rps: f64,
    /// First request due → last reply read, s.
    makespan_s: f64,
    /// Hypervisor steal during the phase, clock ticks.
    steal: u64,
}

impl Phase {
    /// No request failed, no backlog built up, and p99 is within the
    /// limit.
    fn meets_limit(&self) -> bool {
        self.failed == 0 && !self.backlog_grew() && p99(self) <= P99_LIMIT_MS
    }

    /// Whether latency rose over the phase: the last quarter's median
    /// more than twice the first quarter's plus 1 ms.
    fn backlog_grew(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        let first = median(&self.latency_ms[..q]).unwrap_or(0.0);
        let last = median(&self.latency_ms[self.latency_ms.len() - q..]).unwrap_or(0.0);
        last > 2.0 * first + 1.0
    }
}

/// The load generator's view of the daemon.
struct Target<'a> {
    socket: &'a Path,
    lines: &'a [String],
    /// In-process `handle_line` reply per pool line.
    expected: &'a [String],
    /// Lines sent so far over the daemon's life (its next seq).
    sent: u64,
}

impl Target<'_> {
    /// Sends every pool line once, one at a time, on one connection: the
    /// daemon's warm-up, and the load its `peak_rss_mb` is read under.
    /// Returns how many replies differ from the in-process engine.
    fn closed_loop_pass(&mut self) -> Result<u64, String> {
        let stream = UnixStream::connect(self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone: {e}"))?,
        );
        let mut writer = &stream;
        let mut mismatched = 0;
        for (line, want) in self.lines.iter().zip(self.expected) {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            self.sent += 1;
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(k) if k > 0 => mismatched += u64::from(reply.trim_end_matches('\n') != want),
                Ok(_) => return Err("daemon closed the connection".into()),
                Err(e) => return Err(format!("read reply: {e}")),
            }
        }
        Ok(mismatched)
    }

    /// Sends `arrivals` on their schedule from one connection and checks
    /// every reply.
    fn drive(&mut self, arrivals: Vec<Arrival>) -> Result<Phase, String> {
        let stream = UnixStream::connect(self.socket).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        let payloads: Vec<Vec<u8>> = arrivals
            .iter()
            .map(|a| {
                let mut b = a
                    .line
                    .map_or(STATS_LINE, |i| &self.lines[i])
                    .as_bytes()
                    .to_vec();
                b.push(b'\n');
                b
            })
            .collect();
        let n = arrivals.len();
        let steal_before = steal_ticks();
        let start = Instant::now() + Duration::from_millis(20);
        let (sent_at, replies) = std::thread::scope(|scope| {
            let read = scope.spawn(move || -> Result<Vec<(Instant, String)>, String> {
                let mut reader = BufReader::new(reader);
                let mut out = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(k) if k > 0 => out.push((Instant::now(), line)),
                        Ok(_) => return Err("daemon closed the connection".into()),
                        Err(e) => return Err(format!("read reply: {e}")),
                    }
                }
                Ok(out)
            });
            let mut writer = &stream;
            let mut sent_at = Vec::with_capacity(n);
            for (a, payload) in arrivals.iter().zip(&payloads) {
                let due = start + Duration::from_nanos(a.due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent_at.push(Instant::now());
                if let Err(e) = writer.write_all(payload) {
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    let _ = read.join();
                    return (sent_at, Err(format!("send: {e}")));
                }
            }
            let replies = read
                .join()
                .unwrap_or_else(|_| Err("reader panicked".into()));
            (sent_at, replies)
        });
        let replies = replies?;
        let first_seq = self.sent;
        self.sent += n as u64;
        let mut phase = Phase {
            first_seq,
            latency_ms: Vec::with_capacity(n),
            late_ms: Vec::with_capacity(n),
            round_trip_ns: Vec::with_capacity(n),
            failed: 0,
            mismatched: 0,
            offered_rps: 0.0,
            makespan_s: replies.last().map_or(0.0, |(read, _)| {
                read.saturating_duration_since(start).as_secs_f64()
            }),
            steal: steal_ticks() - steal_before,
            arrivals: Vec::new(),
        };
        for ((a, sent), (read, reply)) in arrivals.iter().zip(&sent_at).zip(&replies) {
            let due = start + Duration::from_nanos(a.due_ns);
            phase
                .latency_ms
                .push(read.saturating_duration_since(due).as_secs_f64() * 1e3);
            phase
                .late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            phase
                .round_trip_ns
                .push(read.saturating_duration_since(*sent).as_nanos() as u64);
            let reply = reply.trim_end_matches('\n');
            if !reply.contains("\"ok\":true") {
                phase.failed += 1;
            } else if a.line.is_some_and(|i| reply != self.expected[i]) {
                phase.mismatched += 1;
            }
        }
        let span_s = arrivals.last().map_or(0, |a| a.due_ns) as f64 * 1e-9;
        phase.offered_rps = n as f64 / span_s.max(1e-9);
        phase.arrivals = arrivals;
        Ok(phase)
    }
}

/// One request line per (benchmark, sample seed), as `repro load-gen`
/// builds them; the `id` is the pool index.
fn request_pool(key: u64, profiles: &[Profile], seed: u64) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for profile in profiles {
        let profile_json =
            serde_json::to_string(profile).map_err(|e| format!("profile json: {e}"))?;
        for _ in 0..SEEDS_PER_BENCH {
            let id = lines.len();
            let sample_seed = derive_stream(seed, id as u64);
            lines.push(format!(
                "{{\"id\": {id}, \"model\": \"{key:016x}\", \"profile\": {profile_json}, \
                 \"n_samples\": {N_SAMPLES}, \"sample_seed\": {sample_seed}}}"
            ));
        }
    }
    Ok(lines)
}

/// A running daemon and where it writes.
struct Daemon {
    child: ChildGuard,
    pid: u32,
    socket: PathBuf,
    metrics: PathBuf,
    access_log: Option<PathBuf>,
}

impl Daemon {
    fn start(ctx: &Ctx, rep: usize, registry: &Path) -> Result<Daemon, String> {
        let socket = ctx.work.join(format!("s{rep}.sock"));
        let metrics = ctx.work.join(format!("metrics-{rep}.json"));
        let access_log = ctx
            .traced()
            .then(|| ctx.work.join(format!("access-{rep}.jsonl")));
        let mut cmd = Command::new(ctx.bin("pv-serve"));
        cmd.arg("--registry")
            .arg(registry)
            .arg("--socket")
            .arg(&socket)
            .arg("--metrics-out")
            .arg(&metrics)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(log) = &access_log {
            cmd.arg("--access-log").arg(log);
        }
        let child = cmd.spawn().map_err(|e| format!("spawn pv-serve: {e}"))?;
        let pid = child.id();
        let mut daemon = Daemon {
            child: ChildGuard(Some(child)),
            pid,
            socket,
            metrics,
            access_log,
        };
        daemon.wait_ready()?;
        Ok(daemon)
    }

    /// Polls until a health probe is answered `ok`.
    fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(reply) = self.round_trip("{\"op\":\"health\"}") {
                return if reply.contains("\"ok\":true") {
                    Ok(())
                } else {
                    Err(format!("health probe: {reply}"))
                };
            }
            if let Some(child) = self.child.0.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("pv-serve exited during start-up: {status}"));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("pv-serve did not become ready within 30 s".into())
    }

    fn round_trip(&self, line: &str) -> Result<String, String> {
        let mut s = UnixStream::connect(&self.socket).map_err(|e| e.to_string())?;
        s.write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        Ok(reply)
    }

    /// Sends the shutdown line and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let ack = self.round_trip("{\"shutdown\": true}")?;
        if !ack.contains("\"ok\":true") {
            return Err(format!("shutdown ack: {ack}"));
        }
        if self.child.wait_exit(Duration::from_secs(30)) {
            Ok(())
        } else {
            Err("pv-serve did not exit cleanly after shutdown".into())
        }
    }
}

fn train(ctx: &Ctx, registry: &Path) -> Result<(), String> {
    let status = Command::new(ctx.bin("repro"))
        .arg("train")
        .arg("--registry")
        .arg(registry)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .status()
        .map_err(|e| format!("spawn repro train: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("repro train failed: {status}"))
    }
}

/// The single model `repro train` sealed.
fn only_entry(registry: &Path) -> Result<RegistryEntry, String> {
    let reg = ModelRegistry::new(registry);
    match reg.keys().as_slice() {
        [key] => reg
            .load_key(*key)
            .map_err(|e| format!("registry load: {e}")),
        keys => Err(format!("registry holds {} models, expected 1", keys.len())),
    }
}

fn u64_field(map: &[(String, Content)], name: &str) -> Option<u64> {
    map.iter()
        .find(|(k, _)| k == name)
        .and_then(|(_, v)| match v {
            Content::U64(x) => Some(*x),
            Content::I64(x) => u64::try_from(*x).ok(),
            _ => None,
        })
}

/// `(seq, queue_ns, predict_ns, write_ns, total_ns)` per access-log line.
fn read_access_log(path: &Path) -> Result<Vec<[u64; 5]>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Json(Content::Map(map)) =
            serde_json::from_str::<Json>(line).map_err(|e| format!("access log: {e}"))?
        else {
            return Err("access log line is not an object".into());
        };
        let f = |n| u64_field(&map, n).ok_or_else(|| format!("access log line lacks {n}"));
        out.push([
            f("req")?,
            f("queue_ns")?,
            f("predict_ns")?,
            f("write_ns")?,
            f("total_ns")?,
        ]);
    }
    out.sort_unstable();
    Ok(out)
}

/// The daemon's counters: total requests equal the lines sent and split
/// exactly into the outcome counters.
fn check_counters(
    result: &mut RunResult,
    metrics: &Path,
    sent: u64,
) -> Result<pv_obs::MetricsSnapshot, String> {
    let m = pv_obs::read_metrics(metrics)?;
    let requests = m.counter("pv.serve.request").unwrap_or(0);
    let split: u64 = Outcome::ALL
        .iter()
        .map(|o| m.counter(o.counter()).unwrap_or(0))
        .sum();
    result.gate(requests == sent, || {
        format!("daemon counted {requests} requests, the generator sent {sent} lines")
    });
    result.gate(split == requests, || {
        format!("outcome counters sum to {split}, pv.serve.request is {requests}")
    });
    Ok(m)
}

/// In-process replay of every pool line: the engine end to end, then
/// its predict and decode calls on their own, so `protocol_us` (parse +
/// lookup + render) is what remains.
fn replay(
    tr: &Tracer,
    engine: &ServeEngine,
    predictor: &FewRunsPredictor,
    lines: &[String],
    profiles: &[Profile],
    seed: u64,
) -> Result<Duration, String> {
    let started = Instant::now();
    for rep in 0..REPLAY_REPS {
        for (i, line) in lines.iter().enumerate() {
            let group = (rep * lines.len() + i) as u64;
            std::hint::black_box(tr.time("serve.engine", group, None, || engine.handle_line(line)));
            let profile = &profiles[i / SEEDS_PER_BENCH];
            let features = tr
                .time("ml.predict.knn", group, None, || {
                    predictor.predict_features_profile(profile)
                })
                .map_err(|e| format!("predict: {e}"))?;
            let sample_seed = derive_stream(seed, i as u64);
            std::hint::black_box(
                tr.time("repr.decode.pearson", group, None, || {
                    predictor.decode_features(&features, N_SAMPLES, sample_seed)
                })
                .map_err(|e| format!("decode: {e}"))?,
            );
        }
    }
    Ok(started.elapsed())
}

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let tr = &ctx.tracer;

    // Set-up: train + daemon ready, several times; the last daemon stays.
    let mut setup = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let registry = ctx.work.join(format!("registry-{rep}"));
        let root = tr.open();
        let t = Instant::now();
        tr.time("serve.train", rep as u64, Some(root), || {
            train(ctx, &registry)
        })?;
        let daemon = tr.time("serve.ready", rep as u64, Some(root), || {
            Daemon::start(ctx, rep, &registry)
        })?;
        setup.push(t.elapsed());
        tr.close(root, "setup", rep as u64, None, t, Instant::now());
        if let Some((old, _)) = kept.replace((daemon, registry)) {
            Daemon::shutdown(old)?;
        }
    }
    let (daemon, registry) = kept.ok_or("no set-up ran")?;

    // Inputs: one profile per benchmark of the campaign the model was
    // trained on, and the in-process reply every line must match.
    let corpus = tr.time("sysmodel.collect", 0, None, intel_corpus);
    let cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    let profiles: Vec<Profile> = corpus
        .benchmarks
        .iter()
        .map(|b| Profile::from_runs(&b.runs, cfg.n_profile_runs))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("profile: {e}"))?;
    // The measured relative times each pool line's prediction is scored
    // against, as the evaluation scores a fold.
    let truth: Vec<Vec<f64>> = corpus
        .benchmarks
        .iter()
        .flat_map(|b| std::iter::repeat_n(b.runs.rel_times(), SEEDS_PER_BENCH))
        .collect();
    let entry = only_entry(&registry)?;
    let lines = request_pool(entry.key, &profiles, ctx.seed)?;
    let engine = ServeEngine::from_registry(&ModelRegistry::new(&registry))
        .map_err(|e| format!("in-process engine: {e}"))?;
    let expected: Vec<String> = lines.iter().map(|l| engine.handle_line(l).0).collect();
    result.gate(expected.iter().all(|r| r.contains("\"ok\":true")), || {
        "the in-process engine rejected a pool line".into()
    });

    let mut target = Target {
        socket: &daemon.socket,
        lines: &lines,
        expected: &expected,
        sent: 1, // the readiness probe
    };
    let warm_mismatched = target.closed_loop_pass()?;
    result.gate(warm_mismatched == 0, || {
        format!("{warm_mismatched} closed-loop replies differ from the in-process engine")
    });
    let closed_loop_rss = peak_rss_mb(&daemon.pid.to_string())?;
    // The fixed-rate phases run in alternating rounds, so a slow stretch
    // of the shared host lands in some rounds of both rates, not in all
    // of one. Each round has at least 1,000 requests (a p99 with ten
    // samples beyond it) and fewer than 10,000 (so p99 is the highest
    // percentile the rule allows, as the metric names promise).
    let secs = ctx.seconds as f64;
    let round_n = |rate: f64, share: f64| {
        ((rate * secs * share / ROUNDS as f64) as usize)
            .clamp(MIN_PHASE_REQUESTS, MAX_PHASE_REQUESTS)
    };
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let cpu_before = cpu_ticks(&daemon.pid.to_string())?;
    for r in 0..ROUNDS as u64 {
        low.push(target.drive(schedule(
            ctx.seed,
            10 + r,
            LOW_RPS,
            round_n(LOW_RPS, 0.4),
            lines.len(),
        ))?);
        high.push(target.drive(schedule(
            ctx.seed,
            20 + r,
            HIGH_RPS,
            round_n(HIGH_RPS, 0.1),
            lines.len(),
        ))?);
    }
    let served: usize = low.iter().chain(&high).map(|p| p.arrivals.len()).sum();
    let cpu_ms = cpu_ms_per_op(
        cpu_ticks(&daemon.pid.to_string())? - cpu_before,
        served as u64,
    );
    let makespan_s: f64 = low.iter().chain(&high).map(|p| p.makespan_s).sum();
    // Peak RSS over the fixed-rate phases; the ladder's overload probes
    // would make it depend on which rungs were visited.
    let loaded_rss = peak_rss_mb(&daemon.pid.to_string())?;
    // Interference from the shared host only ever adds latency, so each
    // percentile is taken from the round where it was lowest.
    let best = |rounds: &[Phase], f: &dyn Fn(&Phase) -> f64| {
        rounds.iter().map(f).fold(f64::INFINITY, f64::min)
    };
    let p50 = |p: &Phase| median(&p.latency_ms).unwrap_or(f64::INFINITY);
    for (tag, rounds) in [("low", &low), ("high", &high)] {
        for (r, p) in rounds.iter().enumerate() {
            eprintln!(
                "  {tag} round {r}: p50 {:.3} ms, p99 {:.3} ms, {} requests, {} failed, steal {} ticks",
                p50(p),
                p99(p),
                p.arrivals.len(),
                p.failed,
                p.steal
            );
        }
    }

    // The traced run adds the rate ladder, the in-process replay and the
    // registry timings.
    let (probes, traced_extra) = if ctx.traced() {
        let rungs = ladder();
        let mut probes = Vec::with_capacity(rungs.len());
        for (k, &rate) in rungs.iter().enumerate() {
            std::thread::sleep(Duration::from_millis(100));
            let p = target.drive(schedule(
                ctx.seed,
                100 + k as u64,
                rate,
                PROBE_REQUESTS,
                lines.len(),
            ))?;
            eprintln!(
                "  ladder {rate:>7.1} req/s: p99 {:>8.3} ms, {} failed, steal {} ticks, {}",
                p99(&p),
                p.failed,
                p.steal,
                if p.meets_limit() {
                    "meets the limit"
                } else {
                    "misses the limit"
                }
            );
            probes.push(p);
        }
        let predictor = match entry.artifact.clone() {
            Artifact::FewRuns(a) => {
                FewRunsPredictor::from_artifact(a).map_err(|e| e.to_string())?
            }
            Artifact::CrossSystem(_) => return Err("expected a use-case-1 model".into()),
        };
        // A discarded first pass warms caches, so the untraced and traced
        // passes compare like with like.
        let off = Tracer::new(false);
        replay(&off, &engine, &predictor, &lines, &profiles, ctx.seed)?;
        let untraced = replay(&off, &engine, &predictor, &lines, &profiles, ctx.seed)?;
        let traced = replay(tr, &engine, &predictor, &lines, &profiles, ctx.seed)?;
        registry_layers(tr, &ctx.work.join("registry-copy"), &entry)?;
        (probes, Some(traced.as_secs_f64() / untraced.as_secs_f64()))
    } else {
        (Vec::new(), None)
    };

    let sent_total = target.sent + 1; // plus the shutdown line
    let access_log = daemon.access_log.clone();
    let metrics_path = daemon.metrics.clone();
    Daemon::shutdown(daemon)?;
    let counters = check_counters(&mut result, &metrics_path, sent_total)?;

    // Ladder probes above capacity may legitimately be refused, so only
    // the fixed-rate phases count as attempts; every `ok` reply of every
    // phase must still match the in-process engine.
    let fixed: Vec<&Phase> = low.iter().chain(&high).collect();
    for p in &fixed {
        result.attempted += p.arrivals.len() as u64;
        result.failed += p.failed;
    }
    let mismatched: u64 = fixed
        .iter()
        .copied()
        .chain(&probes)
        .map(|p| p.mismatched)
        .sum();
    result.gate(mismatched == 0, || {
        format!("{mismatched} ok replies differ from the in-process engine")
    });
    let late: Vec<f64> = fixed
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    eprintln!(
        "  generator lateness: p50 {:.3} ms, max {:.3} ms over {} sends",
        median(&late).unwrap_or(0.0),
        late.iter().fold(0.0f64, |a, &b| a.max(b)),
        late.len()
    );

    let Some(overhead) = traced_extra else {
        result.metric("setup_s", "s", median_s(&setup), setup.len());
        result.metric("wall_s", "s", makespan_s, fixed.len());
        result.metric("cpu_ms_per_op", "ms", cpu_ms, served);
        result.metric("peak_rss_mb", "MB", closed_loop_rss, 1);
        result.metric(
            "ks_mean",
            "ks",
            served_ks_mean(&expected, &truth)?,
            lines.len(),
        );
        result.metric(
            "ok_frac",
            "ratio",
            result.ok_frac(),
            result.attempted as usize,
        );
        return Ok(result);
    };

    let mut layers = Layers::new();
    layers.fill_from_spans(&tr.spans());
    let engine_us: Vec<f64> = span_us(tr, "serve.engine");
    let predict_us = span_us(tr, "ml.predict.knn");
    let decode_us = span_us(tr, "repr.decode.pearson");
    if let (Some(e), Some(p), Some(d)) =
        (median(&engine_us), median(&predict_us), median(&decode_us))
    {
        layers.set("serve.engine_us", e, engine_us.len());
        layers.set("serve.protocol_us", e - p - d, engine_us.len());
    }
    let requests = counters.counter("pv.serve.request").unwrap_or(0);
    let batches = counters.counter("pv.serve.batch").unwrap_or(0);
    if batches > 0 {
        layers.set(
            "serve.batch_mean",
            requests as f64 / batches as f64,
            batches as usize,
        );
    }
    layers.set(
        "serve.shed",
        counters.counter("pv.serve.shed").unwrap_or(0) as f64,
        requests as usize,
    );
    let log = read_access_log(access_log.as_deref().ok_or("no access log")?)?;
    access_layers(&mut layers, &log, &fixed)?;
    let n_high: usize = high.iter().map(|p| p.arrivals.len()).sum();
    let n_low: usize = low.iter().map(|p| p.arrivals.len()).sum();
    layers.set("serve.p50_ms.low", best(&low, &p50), n_low);
    layers.set("serve.p50_ms.high", best(&high, &p50), n_high);
    layers.set("serve.p99_ms.low", best(&low, &p99), n_low);
    layers.set("serve.p99_ms.high", best(&high, &p99), n_high);
    layers.set("serve.daemon_rss_mb", loaded_rss, 1);
    let passes: Vec<bool> = probes.iter().map(Phase::meets_limit).collect();
    match highest_passing(&passes) {
        Some(k) => layers.set("serve.max_rate_rps", probes[k].offered_rps, PROBE_REQUESTS),
        None => eprintln!("  no ladder rung met the latency limit; serve.max_rate_rps reads 0"),
    }
    if let Some(p99) = supported_percentile(&late, 99.0) {
        layers.set("loadgen.late_ms.p99", p99, late.len());
    }
    layers.set(
        "loadgen.late_ms.max",
        late.iter().fold(0.0, |a: f64, &b| a.max(b)),
        late.len(),
    );
    layers.set("obs.trace_overhead_ratio", overhead, 1);
    result.metrics = layers.into_metrics();
    Ok(result)
}

/// Mean over the pool lines of the KS statistic between the predicted
/// samples of each line's `ok` reply and its benchmark's measured
/// relative times. Every `ok` reply the daemon sends is gated
/// byte-identical to these in-process replies, so this is the quality of
/// what was served.
fn served_ks_mean(replies: &[String], truth: &[Vec<f64>]) -> Result<f64, String> {
    let mut sum = 0.0;
    for (reply, rel) in replies.iter().zip(truth) {
        let samples = reply_samples(reply)?;
        sum += ks2_statistic(&samples, rel).map_err(|e| format!("served KS: {e}"))?;
    }
    Ok(sum / replies.len().max(1) as f64)
}

/// The `prediction.samples` of an `ok` reply.
fn reply_samples(reply: &str) -> Result<Vec<f64>, String> {
    let Json(Content::Map(map)) =
        serde_json::from_str::<Json>(reply).map_err(|e| format!("reply: {e}"))?
    else {
        return Err("reply is not an object".into());
    };
    let get = |map: &[(String, Content)], key: &str| {
        map.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| format!("reply lacks {key}"))
    };
    let Content::Map(prediction) = get(&map, "prediction")? else {
        return Err("reply prediction is not an object".into());
    };
    let Content::Seq(samples) = get(&prediction, "samples")? else {
        return Err("reply samples is not a list".into());
    };
    samples
        .iter()
        .map(|v| match v {
            Content::F64(x) => Ok(*x),
            Content::I64(x) => Ok(*x as f64),
            Content::U64(x) => Ok(*x as f64),
            other => Err(format!("reply sample {other:?} is not a number")),
        })
        .collect()
}

/// A phase's p99 latency (its requests always support one).
fn p99(p: &Phase) -> f64 {
    supported_percentile(&p.latency_ms, 99.0).unwrap_or(f64::INFINITY)
}

/// Span durations of `name`, in µs.
fn span_us(tr: &Tracer, name: &str) -> Vec<f64> {
    tr.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 * 1e-3)
        .collect()
}

/// Queue, worker and write time from the access log, and transport time
/// (client round trip minus the daemon's total), over the two fixed-rate
/// phases' predictions.
fn access_layers(layers: &mut Layers, log: &[[u64; 5]], phases: &[&Phase]) -> Result<(), String> {
    let (mut queue, mut worker, mut write, mut transport) = (vec![], vec![], vec![], vec![]);
    for p in phases {
        for (i, a) in p.arrivals.iter().enumerate() {
            if a.line.is_none() {
                continue;
            }
            let seq = p.first_seq + i as u64;
            let at = log
                .binary_search_by_key(&seq, |e| e[0])
                .map_err(|_| format!("access log has no line for request {seq}"))?;
            let [_, q, w, wr, total] = log[at];
            queue.push(q as f64 * 1e-6);
            worker.push(w as f64 * 1e-6);
            write.push(wr as f64 * 1e-3);
            transport.push((p.round_trip_ns[i] as f64 - total as f64) * 1e-6);
        }
    }
    let n = queue.len();
    let mut set = |name, v: Option<f64>| {
        if let Some(v) = v {
            layers.set(name, v, n);
        }
    };
    set("serve.queue_ms.p50", median(&queue));
    set("serve.queue_ms.p99", supported_percentile(&queue, 99.0));
    set("serve.worker_ms.p50", median(&worker));
    set("serve.write_us.p50", median(&write));
    set("serve.transport_ms", median(&transport));
    Ok(())
}

/// Times the registry's public store and load on the served artifact.
fn registry_layers(tr: &Tracer, dir: &Path, entry: &RegistryEntry) -> Result<(), String> {
    let reg = ModelRegistry::new(dir);
    let cfg = entry.artifact.config();
    for rep in 0..5u64 {
        tr.time("registry.store", rep, None, || {
            reg.store(entry.fingerprint, &entry.artifact)
        })
        .map_err(|e| format!("registry store: {e}"))?;
        tr.time("registry.load", rep, None, || {
            reg.load(entry.fingerprint, &cfg)
        })
        .map_err(|e| format!("registry load: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(3, 1, 1000.0, 5000, 240);
        assert_eq!(a, schedule(3, 1, 1000.0, 5000, 240));
        assert_ne!(a, schedule(4, 1, 1000.0, 5000, 240));
        assert_ne!(a, schedule(3, 2, 1000.0, 5000, 240));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|x| x.line.is_none_or(|i| i < 240)));
        // The realized rate and stats share sit near their targets.
        let span_s = a.last().expect("non-empty").due_ns as f64 * 1e-9;
        assert!((a.len() as f64 / span_s - 1000.0).abs() < 60.0);
        let stats = a.iter().filter(|x| x.line.is_none()).count();
        assert!((20..=80).contains(&stats), "{stats} stats probes");
    }

    #[test]
    fn ladder_estimate_is_the_best_split() {
        let rungs = ladder();
        assert!(rungs.windows(2).all(|w| w[0] < w[1]));
        let (t, f) = (true, false);
        assert_eq!(highest_passing(&[t, t, t, f, f]), Some(2));
        assert_eq!(highest_passing(&[t, t, t, t]), Some(3));
        assert_eq!(highest_passing(&[f, f, f]), None);
        // One disturbed probe on either side of the knee moves nothing.
        assert_eq!(highest_passing(&[t, f, t, t, t, f, f, f]), Some(4));
        assert_eq!(highest_passing(&[t, t, t, t, t, f, t, f, f]), Some(4));
        // A tie keeps the lower split.
        assert_eq!(highest_passing(&[t, f, t, f]), Some(0));
        assert_eq!(highest_passing(&[]), None);
    }
}
