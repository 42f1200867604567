//! End-to-end integration tests for the `rtbh` CLI binary.
//!
//! Invokes the built binary via `CARGO_BIN_EXE_rtbh` and pins the exit-code
//! contract scripts rely on: 0 on success, 2 on usage errors and on
//! corrupt/missing corpora (distinct from 1, a crashed pipeline).

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn rtbh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtbh"))
        .args(args)
        .output()
        .expect("spawn rtbh")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtbh-cli-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["simulate", "--bogus-flag", "out.rtbh"],
        &["simulate"], // no output path
        &["info"],     // no corpus path
        &["analyze"],  // no corpus path
        &["analyze", "--threads", "not-a-number", "x.rtbh"],
    ] {
        let out = rtbh(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "args {args:?} should print usage"
        );
    }
}

#[test]
fn missing_corpus_exits_2() {
    let out = rtbh(&["info", "/nonexistent/definitely-not-here.rtbh"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("failed to load"), "stderr: {stderr}");
}

/// An output path in a missing directory is an input error: every writing
/// command prints `failed to write <path>` and exits 2, never panics.
#[test]
fn unwritable_output_paths_exit_2() {
    let dir = scratch_dir("unwritable");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();
    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");

    let missing = dir.join("missing").join("out");
    let missing = missing.to_str().unwrap();
    for args in [
        vec!["simulate", "--tiny", missing],
        vec!["analyze", corpus_str, "--json", missing],
        vec!["stream", corpus_str, "--json", missing],
        vec!["stream", corpus_str, "--journal", missing],
    ] {
        let out = rtbh(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("failed to write {missing}")),
            "args {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The whole happy path plus corruption, against one simulated corpus:
/// simulate (exit 0) → info (exit 0, deterministic output) → analyze
/// (exit 0) → corrupted / truncated copies (exit 2, per-file diagnostics).
#[test]
fn simulate_info_analyze_and_corruption() {
    let dir = scratch_dir("flow");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();

    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");
    assert!(corpus.exists());
    assert!(
        dir.join("corpus.truth.json").exists(),
        "simulate must write the ground truth next to the corpus"
    );

    // `info` succeeds and its output is stable across invocations.
    let first = rtbh(&["info", corpus_str]);
    assert_eq!(first.status.code(), Some(0), "info failed: {first:?}");
    let text = String::from_utf8(first.stdout).unwrap();
    for needle in ["period:", "sampling:       1:10000", "digest:         0x"] {
        assert!(
            text.contains(needle),
            "info output missing {needle:?}:\n{text}"
        );
    }
    let second = rtbh(&["info", corpus_str]);
    assert_eq!(second.status.code(), Some(0));
    assert_eq!(
        String::from_utf8(second.stdout).unwrap(),
        text,
        "info output must be deterministic"
    );

    // `analyze` runs the full pipeline and reports headline findings.
    let analyzed = rtbh(&["analyze", corpus_str, "--threads", "2"]);
    assert_eq!(
        analyzed.status.code(),
        Some(0),
        "analyze failed: {analyzed:?}"
    );
    assert!(!analyzed.stdout.is_empty(), "analyze must print a report");

    // Corrupt magic → exit 2 with a load diagnostic naming the file.
    let bytes = std::fs::read(&corpus).unwrap();
    let corrupt = dir.join("corrupt.rtbh");
    let mut damaged = bytes.clone();
    damaged[0] = b'X';
    std::fs::write(&corrupt, &damaged).unwrap();
    let out = rtbh(&["info", corrupt.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "corrupt corpus must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("failed to load") && stderr.contains("corrupt.rtbh"),
        "stderr: {stderr}"
    );

    // Truncated container → exit 2 (for both info and analyze).
    let truncated = dir.join("truncated.rtbh");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(
        rtbh(&["info", truncated.to_str().unwrap()]).status.code(),
        Some(2)
    );
    assert_eq!(
        rtbh(&["analyze", truncated.to_str().unwrap()])
            .status
            .code(),
        Some(2)
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `analyze` and `stream` read the same corpus file, so the `== corpus ==`
/// sections they print — sample count before cleaning included — must
/// agree line for line.
#[test]
fn analyze_and_stream_print_the_same_corpus_section() {
    let dir = scratch_dir("corpus-section");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();
    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");

    let corpus_section = |command: &str| -> String {
        let out = rtbh(&[command, corpus_str]);
        assert_eq!(out.status.code(), Some(0), "{command} failed: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        let section: Vec<&str> = text
            .lines()
            .skip_while(|line| *line != "== corpus ==")
            .take_while(|line| !line.is_empty())
            .collect();
        assert!(
            section.len() > 1,
            "{command} printed no corpus section:\n{text}"
        );
        section.join("\n")
    };
    let batch = corpus_section("analyze");
    assert!(batch.contains(" flow samples "), "{batch}");
    assert_eq!(batch, corpus_section("stream"));

    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that stops early (`rtbh info corpus | head -1`) closes stdout
/// under the writer. That is not an error: every printing command exits 0,
/// never panics, and still writes its file outputs.
#[test]
fn closed_stdout_exits_0() {
    let dir = scratch_dir("closed-stdout");
    let corpus = dir.join("corpus.rtbh");
    let corpus_str = corpus.to_str().unwrap();
    let out = rtbh(&["simulate", "--tiny", "--seed", "42", corpus_str]);
    assert_eq!(out.status.code(), Some(0), "simulate failed: {out:?}");

    let json = dir.join("headline.json");
    let json_str = json.to_str().unwrap();
    for args in [
        vec!["info", corpus_str],
        vec!["analyze", corpus_str, "--json", json_str],
        vec!["stream", corpus_str, "--verify"],
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rtbh"))
            .args(&args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn rtbh");
        // Drop the only read end before the child writes anything.
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for rtbh");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "args {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "args {args:?}: {stderr}");
    }
    assert!(json.exists(), "analyze --json must still write its file");

    std::fs::remove_dir_all(&dir).ok();
}
