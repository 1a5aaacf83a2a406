//! The serving engine's two counter views agree request by request: one
//! arrival of every outcome, answered in-process, moves the telemetry
//! totals and the `pv.serve.*` counters by exactly one each. Its own
//! test binary, because the obs collector is process-global and other
//! serving tests would bump the same counters.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use pv_bench::serve::{Input, Outcome, ServeEngine, ServedModel};
use pv_bench::{uc1_config, CAMPAIGN_SEED};
use pv_core::resilience::{silence_injected_panics, ServeFaultPlan};
use pv_core::usecase1::FewRunsPredictor;
use pv_core::{ModelKind, Profile, ReprKind};
use pv_sysmodel::{Corpus, SystemModel};

#[test]
fn every_outcome_is_counted_once_in_both_views() {
    silence_injected_panics();
    let corpus = Corpus::collect(&SystemModel::intel(), 30, 3);
    let mut cfg = uc1_config(ReprKind::PearsonRnd, ModelKind::Knn, 10);
    cfg.seed = CAMPAIGN_SEED;
    let include: Vec<usize> = (0..corpus.len()).collect();
    let predictor = FewRunsPredictor::train(&corpus, &include, cfg).expect("train");
    let key = 0xb3e1;
    let engine = ServeEngine::from_models(HashMap::from([(key, ServedModel::FewRuns(predictor))]))
        .with_deadline(Some(Duration::from_secs(3600)))
        .with_fault_plan(
            ServeFaultPlan::none()
                .inject_slow(4, 86_400_000)
                .inject_panic(5),
        );
    let profile = Profile::from_runs(&corpus.benchmarks[0].runs, 10).expect("profile");
    let predict = |key: u64| {
        format!(
            "{{\"model\": \"{key:016x}\", \"profile\": {}, \"n_samples\": 50}}",
            serde_json::to_string(&profile).expect("profile json")
        )
    };

    let collector = pv_obs::Collector::install();
    // `handle_line` draws arrival sequence 0; the rest name theirs.
    assert_eq!(engine.handle_line(&predict(key)).1, Outcome::Ok);
    let (ok, missing) = (predict(key), predict(key ^ 1));
    let arrivals = [
        (Input::Line("not json"), Outcome::BadRequest),
        (Input::Oversized { max_line: 16 }, Outcome::BadRequest),
        (Input::Line(&missing), Outcome::NotFound),
        (Input::Line(&ok), Outcome::Timeout),
        (Input::Line(&ok), Outcome::Error),
        (Input::Shed("queue full".into()), Outcome::Overloaded),
        (Input::Draining, Outcome::Draining),
        (Input::Line("{\"op\": \"health\"}"), Outcome::Health),
        (Input::Line("{\"op\": \"reload\"}"), Outcome::Reload),
        (Input::Line("{\"op\": \"stats\"}"), Outcome::Stats),
        (Input::Line("{\"shutdown\": true}"), Outcome::Shutdown),
    ];
    let mut sent: HashMap<&str, u64> = HashMap::from([(Outcome::Ok.key(), 1)]);
    for (seq, (input, want)) in (1..).zip(arrivals) {
        let reply = engine.answer(input, seq, Instant::now());
        assert_eq!(reply.outcome, want, "seq {seq}: {}", reply.text);
        *sent.entry(want.key()).or_default() += 1;
    }
    let snapshot = collector.snapshot_now();
    drop(collector);

    let telemetry = engine.telemetry();
    for o in Outcome::ALL {
        let n = sent.get(o.key()).copied().unwrap_or(0);
        assert_eq!(telemetry.total_outcome(o), n, "telemetry {}", o.key());
        assert_eq!(snapshot.counter(o.counter()), Some(n), "{}", o.counter());
    }
    assert_eq!(telemetry.total_requests(), 12);
    assert_eq!(snapshot.counter("pv.serve.request"), Some(12));
    assert_eq!(snapshot.counter("pv.serve.panic"), Some(1));
    assert_eq!(snapshot.counter("pv.serve.shed"), Some(1));
    let latency = snapshot
        .histogram("pv.serve.latency_ns")
        .expect("latency histogram");
    assert_eq!(latency.count, 12);
}
