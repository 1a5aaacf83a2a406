//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program: a name, a start, an end, the span that caused it, and a
//! group id shared by every span of one fold or one request. They stay
//! in memory until the run ends, when [`Tracer::write_jsonl`] writes them
//! out and [`analyze`] derives each layer's self time and the share of
//! each root span that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub sid: u64,
    pub parent: Option<u64>,
    pub group: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled every call just runs the
/// timed closure, so the untraced path carries no recording cost.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_sid: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_sid: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn open(&self) -> u64 {
        self.next_sid.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span with a reserved id.
    pub fn close(
        &self,
        sid: u64,
        name: &str,
        group: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            sid,
            parent,
            group,
            name: name.to_string(),
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .push(span);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &str, group: u64, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let sid = self.open();
        let start = Instant::now();
        let out = f();
        self.close(sid, name, group, parent, start, Instant::now());
        out
    }

    /// Everything recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking recorder")
            .clone()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let line = format!(
                "{{\"sid\":{},\"parent\":{parent},\"group\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
                s.sid, s.group, s.name, s.start_ns, s.end_ns
            );
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time its children cover.
    pub self_ns: u64,
}

/// Child coverage of the root spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RootCoverage {
    pub roots: u64,
    pub wall_ns: u64,
    pub covered_ns: u64,
}

impl RootCoverage {
    pub fn share(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.wall_ns as f64
        }
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time per span name, and child coverage per name of the root
/// spans that have children.
pub fn analyze(spans: &[Span]) -> (BTreeMap<String, LayerTime>, BTreeMap<String, RootCoverage>) {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut layers: BTreeMap<String, LayerTime> = BTreeMap::new();
    let mut roots: BTreeMap<String, RootCoverage> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.sid).cloned().unwrap_or_default();
        let cov = covered(kids, s.start_ns, s.end_ns);
        let layer = layers.entry(s.name.clone()).or_default();
        layer.calls += 1;
        layer.total_ns += s.dur_ns();
        layer.self_ns += s.dur_ns() - cov;
        // A root without children is a single call with nothing to
        // attribute; coverage is measured over composite roots only.
        if s.parent.is_none() && children.contains_key(&s.sid) {
            let root = roots.entry(s.name.clone()).or_default();
            root.roots += 1;
            root.wall_ns += s.dur_ns();
            root.covered_ns += cov;
        }
    }
    (layers, roots)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(sid: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            sid,
            parent,
            group: 0,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "fold", 0, 100),
            span(2, Some(1), "fit", 10, 40),
            span(3, Some(1), "predict", 30, 50),
            span(4, Some(1), "ks", 90, 120),
            span(5, None, "fold", 200, 300),
        ];
        let (layers, roots) = analyze(&spans);
        assert_eq!(layers["fold"].calls, 2);
        assert_eq!(layers["fold"].total_ns, 200);
        // Children cover 10..50 and 90..100 of the first fold.
        assert_eq!(layers["fold"].self_ns, 200 - 50);
        assert_eq!(layers["fit"].self_ns, 30);
        let r = roots["fold"];
        // The childless second fold is a leaf, not a root to attribute.
        assert_eq!((r.roots, r.wall_ns, r.covered_ns), (1, 100, 50));
        assert!((r.share() - 0.5).abs() < 1e-12);
        assert!(!roots.contains_key("fit"));
        // A childless root is a leaf call, not a root to attribute.
        let (_, roots) = analyze(&[span(9, None, "load", 0, 10)]);
        assert!(roots.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", 0, None, || 7), 7);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let parent = t.open();
        t.time("child", 3, Some(parent), || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent, Some(parent));
        assert_eq!(spans[0].group, 3);
    }
}
