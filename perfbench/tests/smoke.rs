//! The benchmark's own tests, on the tiny corpus: every workload runs,
//! traced and untraced, reports exactly the metrics `BENCHMARK.json`
//! names, and a corrupted expected reply is counted as a failed op.

use std::sync::Arc;

use perfbench::batch::DIGEST_DIFFERS;
use perfbench::mix::Kind;
use perfbench::serve::{fixture, one_shot_outcome, sessions_outcome, stop, CLIENTS, MISMATCH};
use perfbench::{run, Params, Workload};

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn contract(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = rtbh_json::parse(&text).expect("BENCHMARK.json parses");
    let field = |m: &rtbh_json::Json, k: &str| {
        m.get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_else(|| panic!("{list} entry lacks {k}"))
            .to_string()
    };
    match json.get(list).expect("metric list") {
        rtbh_json::Json::Arr(items) => items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect(),
        other => panic!("{list} is not an array: {other:?}"),
    }
}

#[test]
fn every_workload_runs_on_the_tiny_corpus_and_reports_the_contract_metrics() {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = contract(list);
        for workload in Workload::ALL {
            let out = run(workload, trace, &Params::tiny(7, 0.3));
            let name = workload.name();
            assert!(out.attempted > 0, "{name} attempted nothing");
            // The tiny corpus decodes, but the container drops the path
            // attributes of withdrawals, so its digest differs from the
            // in-memory corpus's; that is the only failure allowed.
            let failures: Vec<&str> = out.failures.keys().map(String::as_str).collect();
            assert!(
                failures.iter().all(|f| *f == DIGEST_DIFFERS),
                "{name} (trace {trace}) failed: {failures:?}"
            );
            let got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(got, expected, "{name} (trace {trace}) metric set");
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{name}: every value is a finite number"
            );
            let line = out.result_line();
            rtbh_json::parse(&line).expect("the result line is JSON");
        }
    }
}

#[test]
fn a_corrupted_expected_reply_counts_in_fail_ratio() {
    let p = Params::tiny(11, 0.3);
    let mut fx = fixture(&p, CLIENTS);
    let q = fx
        .hot
        .iter_mut()
        .find(|q| q.kind == Kind::Small)
        .expect("a small section");
    Arc::make_mut(&mut q.expected)[0] ^= 0x20;

    for out in [sessions_outcome(&fx, &p), one_shot_outcome(&fx, &p)] {
        assert!(!out.correct(), "the corrupted reply must be detected");
        assert!(out.failed >= 1, "the warm-up pass sends every hot query");
        assert_eq!(out.failed, out.mismatches, "only mismatches failed");
        assert_eq!(out.failures.keys().collect::<Vec<_>>(), [MISMATCH]);
        assert!(out.fail_ratio() > 0.0);
        assert!(out.failed < out.attempted, "the other replies still match");
    }
    stop(fx.handle);
}
