//! The end-to-end benchmark of the paths users run.
//!
//! Every input is generated from the run's seed in this process; the
//! system is driven from outside through its public functions; every
//! output is compared, outside the timed intervals, against a reference
//! computed by a path the timed code does not share. See `BENCHMARK.json`
//! at the repository root for the metric contract and `perfbench/README.md`
//! for how to run it.

pub mod alloc;
pub mod batch;
pub mod mix;
pub mod serve;
pub mod stream;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use rtbh::sim::ScenarioConfig;
use rtbh_json::Json;

/// The scale every workload runs at.
pub const SCALE: f64 = 0.25;

/// The workloads, one per user-facing path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `rtbh simulate` + `rtbh analyze`.
    Batch,
    /// `rtbh stream`.
    Stream,
    /// `rtbhd` sessions on persistent connections.
    Serve,
    /// Scripted `rtbh query`: one connection per request.
    QueryCli,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Batch,
        Workload::Stream,
        Workload::Serve,
        Workload::QueryCli,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Stream => "stream",
            Workload::Serve => "serve",
            Workload::QueryCli => "query_cli",
        }
    }

    /// Parses the `--workload` spelling.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one run is given.
#[derive(Debug, Clone)]
pub struct Params {
    /// The scenario the corpus is simulated from.
    pub scenario: ScenarioConfig,
    /// The scenario's label for the environment header.
    pub scale: String,
    /// The run's seed: the stream feed's shuffle and the query mixes
    /// derive from it.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
}

impl Params {
    /// The benchmark's configuration: the ROADMAP baseline corpus (scale
    /// 0.25 with the scenario's own seed, about 840k samples and 8k
    /// updates over 104 days) in every run, so runs of different seeds
    /// compare like with like; the seed varies what is done with it.
    pub fn at_scale(seed: u64, seconds: f64) -> Params {
        Params {
            scenario: ScenarioConfig::scaled(SCALE),
            scale: SCALE.to_string(),
            seed,
            seconds,
        }
    }

    /// The tiny corpus, for the benchmark's own smoke tests.
    pub fn tiny(seed: u64, seconds: f64) -> Params {
        Params {
            scenario: ScenarioConfig::tiny(),
            scale: "tiny".to_string(),
            seed,
            seconds,
        }
    }

    /// A seeded generator for one named input stream of this run.
    pub fn rng(&self, stream: u64) -> rtbh_rng::ChaChaRng {
        rtbh_rng::ChaChaRng::seed_from_u64(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result: op counts, the correctness verdict and the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (any reason).
    pub failed: u64,
    /// Failures that were wrong outputs (a reply, report or decoded corpus
    /// that differs from its reference). An operation that returned an
    /// error, such as a corpus load, is a failure but not a mismatch.
    pub mismatches: u64,
    /// Failed operations by what failed (error text for errors).
    pub failures: BTreeMap<String, u64>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line: the
    /// workload's own metric names, per-kind tables, load errors.
    pub notes: Vec<String>,
    /// Workload parameters for the environment header.
    pub params: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one operation whose output was checked; `what` names the
    /// check when it fails.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.attempted += 1;
        } else {
            self.mismatches += 1;
            self.fail(what.to_string());
        }
    }

    /// Counts one operation that returned an error (`what`: its text).
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        *self.failures.entry(what).or_default() += 1;
    }

    /// True when every produced output matched its reference.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.attempted > 0
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a line to the human-readable table: the workload's metric by
    /// its own name, with its unit.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("metric {name} {value} {unit}"));
    }

    /// Records a workload parameter for the environment header.
    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.params.push((key.to_string(), value.to_string()));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values have no JSON spelling and mean a bug in
                // the benchmark.
                assert!(
                    m.value.is_finite(),
                    "{} = {} is not finite",
                    m.name,
                    m.value
                );
                let value = Json::Obj(vec![
                    ("value".to_string(), Json::F64(m.value)),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::U64(self.attempted)),
            ("failed".to_string(), Json::U64(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`pct` in 0..=100) of `values`.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// The high-water resident set size of this process, in MiB (Linux
/// `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Runs `workload`: untraced (`trace == false`) reports the end-to-end
/// metrics, traced reports the per-layer metrics.
pub fn run(workload: Workload, trace: bool, params: &Params) -> Outcome {
    if trace {
        return trace::run(workload, params);
    }
    match workload {
        Workload::Batch => batch::run(params),
        Workload::Stream => stream::run(params),
        Workload::Serve => serve::run_sessions(params),
        Workload::QueryCli => serve::run_one_shot(params),
    }
}

/// Adds the end-to-end metrics every workload reports, from its set-up
/// times, its per-operation latencies (seconds) and the program's heap
/// peak over the measured phase (bytes). The heap peak comes from the
/// counting allocator: unlike the resident set, it does not move with how
/// the system allocator happens to fragment between runs. The resident set
/// is printed beside it.
///
/// Throughputs and tails are printed, not reported as metrics: `batch`
/// and `stream` time 10-20 passes a run, too few for a tail, and on a
/// shared 2-core VM the `serve` tail (the 17 MB `full` copy) and its
/// throughput move by 30-40% between runs.
pub fn end_to_end(out: &mut Outcome, setups: &[f64], latencies: &[f64], peak_bytes: f64) {
    out.metric("setup_s", median(setups), "s");
    out.metric("p50_ms", median(latencies) * 1e3, "ms");
    out.metric("peak_heap_mb", peak_bytes / MIB, "MB");
    out.note("setup_s", median(setups), "s");
    out.note("fail_ratio", out.fail_ratio(), "ratio");
    out.note("peak_rss_mb", peak_rss_mb(), "MB");
    out.param("ops_timed", latencies.len());
}
