//! The LPM / sample-index micro-benchmark behind `BENCH_index.json`.
//!
//! Two questions, answered on one simulated corpus:
//!
//! 1. **Lookup**: how much faster is the frozen stride-8 LPM table
//!    ([`FrozenLpm`]) than the pointer-chasing [`PrefixTrie`] it is compiled
//!    from, on the pipeline's real lookup mix (two longest-prefix lookups
//!    per flow sample)? Both structures are probed with identical inputs and
//!    their answers are cross-checked on every sample first — a fast-but-
//!    wrong table would fail the bench, not win it.
//! 2. **Build**: how does the pipeline's index build
//!    ([`SampleIndex::from_columns`] over the enriched sealed chunks) scale
//!    from one worker to all cores, in samples per second?
//!
//! Regenerate with `scripts/bench_pipeline.sh` or directly:
//!
//! ```text
//! cargo run --release -p rtbh-bench --bin pipeline_bench -- --scale 0.25 --reps 3
//! ```

use std::hint::black_box;
use std::time::Instant;

use rtbh_core::columns::ColumnarFlows;
use rtbh_core::index::{MacResolver, OriginTable, SampleIndex};
use rtbh_net::{FrozenLpm, PrefixTrie};
use rtbh_sim::ScenarioConfig;

/// Best-of-reps timing of one lookup structure over the full sample scan.
#[derive(Debug, Clone)]
pub struct LookupTiming {
    /// Structure probed: `"trie"` or `"frozen"`.
    pub structure: &'static str,
    /// Longest-prefix lookups per repetition (two per flow sample).
    pub lookups: usize,
    /// Best (lowest) wall time of one repetition, in nanoseconds.
    pub best_wall_ns: u64,
    /// Nanoseconds per lookup in the best repetition.
    pub ns_per_lookup: f64,
}

/// Best-of-reps timing of one [`SampleIndex::from_columns`] call.
#[derive(Debug, Clone)]
pub struct BuildTiming {
    /// Worker threads the chunk scan was sharded over.
    pub workers: usize,
    /// Best (lowest) wall time, in nanoseconds.
    pub best_wall_ns: u64,
    /// Flow samples indexed per second in the best repetition.
    pub samples_per_sec: f64,
    /// Speedup over the single-worker build.
    pub speedup_vs_one: f64,
}

/// The machine-readable result of one index micro-benchmark run
/// (the content of `BENCH_index.json`).
#[derive(Debug, Clone)]
pub struct IndexBench {
    /// The scenario that generated the corpus.
    pub scenario: ScenarioConfig,
    /// BGP updates in the corpus.
    pub updates: usize,
    /// Flow samples scanned per repetition.
    pub samples: usize,
    /// Distinct blackholed prefixes in the LPM structures.
    pub prefixes: usize,
    /// Stride-8 tables the frozen LPM compiled to.
    pub frozen_tables: usize,
    /// Timing repetitions (the best run is reported).
    pub reps: usize,
    /// Whether trie and frozen LPM answered identically on every sample.
    pub lookups_identical: bool,
    /// Trie lookup timing.
    pub trie: LookupTiming,
    /// Frozen-LPM lookup timing.
    pub frozen: LookupTiming,
    /// Lookup speedup: trie wall / frozen wall.
    pub lookup_speedup: f64,
    /// Index-build timings per worker count (1, 2, all cores).
    pub builds: Vec<BuildTiming>,
}

/// Simulates `config` and runs the lookup and build micro-benchmarks,
/// `reps` repetitions each, keeping the best wall time.
pub fn bench_index(config: ScenarioConfig, reps: usize) -> IndexBench {
    let reps = reps.max(1);
    let out = rtbh_sim::run(&config);
    let updates = &out.corpus.updates;
    let samples = out.corpus.flows.samples();

    // The same dedup the real index build performs.
    let mut trie = PrefixTrie::new();
    let mut next_id = 0usize;
    for u in updates.blackholes() {
        if trie.get(u.prefix).is_none() {
            trie.insert(u.prefix, next_id);
            next_id += 1;
        }
    }
    let lpm = FrozenLpm::from_trie(&trie);

    // Cross-check before timing: identical answers on the real lookup mix.
    let lookups_identical = samples.iter().all(|s| {
        trie.longest_match(s.dst_ip) == lpm.longest_match(s.dst_ip)
            && trie.longest_match(s.src_ip) == lpm.longest_match(s.src_ip)
    });

    let lookups = samples.len() * 2;
    let time_lookups = |probe: &dyn Fn() -> usize| -> u64 {
        let mut best = u64::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            black_box(probe());
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        best
    };
    let trie_wall = time_lookups(&|| {
        samples
            .iter()
            .filter(|s| {
                trie.longest_match(black_box(s.dst_ip)).is_some()
                    | trie.longest_match(black_box(s.src_ip)).is_some()
            })
            .count()
    });
    let frozen_wall = time_lookups(&|| {
        samples
            .iter()
            .filter(|s| {
                lpm.longest_match(black_box(s.dst_ip)).is_some()
                    | lpm.longest_match(black_box(s.src_ip)).is_some()
            })
            .count()
    });
    let per_lookup = |wall: u64| wall as f64 / lookups.max(1) as f64;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut worker_counts = vec![1, 2, cores];
    worker_counts.sort_unstable();
    worker_counts.dedup();
    // The enrichment pass that writes the prefix-id columns runs once,
    // untimed: the pipeline times it as its own `enrich` stage.
    let enriched = ColumnarFlows::build_enriched(
        updates,
        &out.corpus.flows,
        &MacResolver::build(&out.corpus),
        &OriginTable::build(&out.corpus.routes),
        out.corpus.period.end,
        cores,
    );
    let mut builds = Vec::new();
    let mut one_worker_wall = 0u64;
    for &workers in &worker_counts {
        let mut best = u64::MAX;
        for _ in 0..reps {
            let (lpm, prefixes) = (
                enriched.blackholes.clone(),
                enriched.blackhole_prefixes.clone(),
            );
            let t0 = Instant::now();
            black_box(SampleIndex::from_columns(
                lpm,
                prefixes,
                &enriched.columns,
                workers,
            ));
            best = best.min(t0.elapsed().as_nanos() as u64);
        }
        if workers == 1 {
            one_worker_wall = best;
        }
        builds.push(BuildTiming {
            workers,
            best_wall_ns: best,
            samples_per_sec: samples.len() as f64 / (best.max(1) as f64 / 1e9),
            speedup_vs_one: one_worker_wall as f64 / best.max(1) as f64,
        });
    }

    IndexBench {
        updates: updates.len(),
        samples: samples.len(),
        prefixes: lpm.len(),
        frozen_tables: lpm.table_count(),
        scenario: config,
        reps,
        lookups_identical,
        trie: LookupTiming {
            structure: "trie",
            lookups,
            best_wall_ns: trie_wall,
            ns_per_lookup: per_lookup(trie_wall),
        },
        frozen: LookupTiming {
            structure: "frozen",
            lookups,
            best_wall_ns: frozen_wall,
            ns_per_lookup: per_lookup(frozen_wall),
        },
        lookup_speedup: trie_wall as f64 / frozen_wall.max(1) as f64,
        builds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_index_cross_checks_and_serializes() {
        let bench = bench_index(ScenarioConfig::tiny(), 1);
        assert!(bench.lookups_identical);
        assert!(bench.prefixes > 0);
        assert!(bench.frozen_tables > 0);
        assert_eq!(bench.trie.lookups, bench.samples * 2);
        assert_eq!(bench.builds[0].workers, 1);
        assert!((bench.builds[0].speedup_vs_one - 1.0).abs() < 1e-12);
        // The result must serialize (it is written verbatim to
        // BENCH_index.json).
        rtbh_json::to_string(&bench);
    }
}

rtbh_json::impl_json! {
    serialize struct LookupTiming { structure, lookups, best_wall_ns, ns_per_lookup }
}

rtbh_json::impl_json! {
    serialize struct BuildTiming { workers, best_wall_ns, samples_per_sec, speedup_vs_one }
}

rtbh_json::impl_json! {
    serialize struct IndexBench {
        scenario, updates, samples, prefixes, frozen_tables, reps,
        lookups_identical, trie, frozen, lookup_speedup, builds,
    }
}
