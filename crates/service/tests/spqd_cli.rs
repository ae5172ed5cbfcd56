//! `spqd`'s flag parsing: a bad value or an unknown flag ends the process
//! with status 2 and a message naming the flag, before any workload loads.

use std::process::Command;

fn spqd(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_spqd"))
        .args(args)
        .output()
        .expect("spqd runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn a_numeric_flag_with_a_bad_value_is_named() {
    for (flag, value) in [("--scale", "abc"), ("--queue", "-1"), ("--seed", "")] {
        let (code, stderr) = spqd(&[flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!(
                "{flag} expects a non-negative integer, got `{value}`"
            )),
            "{flag} {value}: {stderr}"
        );
    }
}

#[test]
fn the_shards_flag_is_unknown() {
    let (code, stderr) = spqd(&["--shards", "2"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--shards`"), "{stderr}");
}
