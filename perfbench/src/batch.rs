//! `batch`: the `rtbh simulate` + `rtbh analyze` path.
//!
//! Why it exists: it is the only workload where the prepare kernels
//! (clean, align, shift, events, enrich, index) and the ten analysis
//! stages do nearly all the work, and the only one that crosses the
//! on-disk corpus codec (`rtbh::corpus_io`). Layers loaded: `sim`,
//! `corpus_io`, prepare kernels, analysis stages, report serialization.
//!
//! Set-up (`setup_s`) is `rtbh_sim::run` + `to_bytes`. Each measured pass
//! decodes the container (`from_bytes`; a decode error is a failed load
//! op, its text is reported, and the pass continues on the in-memory
//! corpus, as a user who simulated in-process would) and then analyzes:
//! `Analyzer::new` → `full()` → `to_vec_pretty`. The analyze time of each
//! pass is one latency sample. `peak_heap_mb` is the median over passes of
//! the heap peak of a pass above the bytes live when it starts (the
//! benchmark's retained corpus, container bytes and reference report): the
//! decoded (or cloned) input corpus, the analyzer and the report.

use std::time::Instant;

use rtbh::core::pipeline::{Analyzer, AnalyzerConfig};
use rtbh::corpus_io;

use crate::{alloc, end_to_end, median, secs, Outcome, Params};

/// The check a decoded corpus fails when it differs from the in-memory one.
pub const DIGEST_DIFFERS: &str = "decoded corpus digest differs from the in-memory corpus";

/// Set-ups per run (each simulates the corpus, a few seconds).
const SETUPS: usize = 3;

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut out = Outcome::default();
    out.param("scale", &p.scale);

    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take()); // free the previous corpus before simulating the next
        let t0 = Instant::now();
        let corpus = rtbh::sim::run(&p.scenario).corpus;
        let encoded = corpus_io::to_bytes(&corpus);
        setups.push(secs(t0));
        last = Some((corpus, encoded));
    }
    let (corpus, encoded) = last.expect("at least one set-up");
    let samples = corpus.flows.len();
    out.param("samples", samples);
    out.param("updates", corpus.updates.len());
    let config = AnalyzerConfig::for_corpus(&corpus);

    // References, computed before the clock starts by paths the timed
    // code does not share: the sequential stage schedule and the corpus
    // digest of the in-memory corpus.
    let reference =
        rtbh_json::to_vec_pretty(&Analyzer::new(corpus.clone(), config).full_sequential());
    let digest = corpus.digest();

    let encoded = match encoded {
        Ok(bytes) => Some(bytes),
        Err(e) => {
            out.fail(format!("encode: {e}"));
            None
        }
    };

    let mut loads = Vec::new();
    let mut analyze = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    while analyze.len() < 2 || secs(start) < p.seconds {
        let base = alloc::restart_high_water();
        let mut input = None;
        if let Some(bytes) = &encoded {
            let t0 = Instant::now();
            let loaded = corpus_io::from_bytes(bytes);
            let load_s = secs(t0);
            match loaded {
                Ok(decoded) => {
                    loads.push(load_s);
                    out.check(decoded.digest() == digest, DIGEST_DIFFERS);
                    input = Some(decoded);
                }
                Err(e) => out.fail(format!("load: {e}")),
            }
        }
        let input = input.unwrap_or_else(|| corpus.clone());

        let t0 = Instant::now();
        let analyzer = Analyzer::new(input, config);
        let report = analyzer.full();
        let bytes = rtbh_json::to_vec_pretty(&report);
        analyze.push(secs(t0));
        drop((analyzer, report));
        peaks.push((alloc::high_water_bytes() - base) as f64);
        out.check(bytes == reference, "report differs from full_sequential");
    }

    end_to_end(&mut out, &setups, &analyze, median(&peaks));
    if loads.is_empty() {
        out.notes.push("metric load_s absent s".to_string());
    } else {
        out.note("load_s", median(&loads), "s");
    }
    out.note("analyze_s", median(&analyze), "s");
    out.note("samples_per_s", samples as f64 / median(&analyze), "1/s");
    out
}
