//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, in order: an `env` line (the machine,
//! toolchain, revision and workload parameters), `metric`/`kind` lines
//! with the workload's own metrics by name and unit, and as the last line
//! the result JSON object.

use perfbench::{run, Params, Workload};
use rtbh_json::Json;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload batch|stream|serve|query_cli --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };

    let params = Params::at_scale(seed, seconds);
    let outcome = run(workload, trace, &params);

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    let mut header = vec![
        ("workload".to_string(), workload.name().to_string()),
        ("trace".to_string(), trace.to_string()),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), seconds.to_string()),
        ("nproc".to_string(), nproc.to_string()),
        ("rustc".to_string(), env("PERFBENCH_RUSTC")),
        ("git_rev".to_string(), env("PERFBENCH_GIT_REV")),
        ("attempted".to_string(), outcome.attempted.to_string()),
        ("failed".to_string(), outcome.failed.to_string()),
        ("fail_ratio".to_string(), outcome.fail_ratio().to_string()),
    ];
    header.extend(outcome.params.iter().cloned());
    let header = header.into_iter().map(|(k, v)| (k, Json::Str(v))).collect();
    println!("env {}", Json::Obj(header));
    for note in &outcome.notes {
        println!("{note}");
    }
    for (what, count) in &outcome.failures {
        println!("failure {count} {what}");
    }
    println!("{}", outcome.result_line());
}
