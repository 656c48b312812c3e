//! The CLI points at `agilepm help` after a usage error, and only then.

use std::process::{Command, Output};

const HINT: &str = "run `agilepm help` for usage";

fn agilepm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agilepm"))
        .args(args)
        .output()
        .expect("agilepm runs")
}

#[test]
fn a_usage_error_prints_the_hint() {
    let out = agilepm(&["bogus"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("unknown command `bogus`"), "{stderr}");
    assert!(stderr.contains(HINT), "{stderr}");
}

#[test]
#[cfg(target_os = "linux")]
fn a_failed_trace_write_does_not_print_the_hint() {
    let out = agilepm(&[
        "run",
        "--hosts",
        "4",
        "--hours",
        "1",
        "--trace-out",
        "/dev/full",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/dev/full"), "{stderr}");
    assert!(!stderr.contains(HINT), "{stderr}");
}
