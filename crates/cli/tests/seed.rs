//! A run's seed survives the report JSON, and a seed the report cannot
//! hold is refused before the run starts.

use std::path::PathBuf;
use std::process::{Command, Output};

use dcsim::SimReport;
use obs::Json;

fn run_with_seed(seed: &str, json: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_agilepm"))
        .args([
            "run", "--hosts", "4", "--vms", "8", "--hours", "1", "--seed", seed,
        ])
        .arg("--json")
        .arg(json)
        .output()
        .expect("agilepm runs")
}

#[test]
fn the_largest_seed_round_trips_through_the_report_json() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("seed-i64-max.json");
    let out = run_with_seed("9223372036854775807", &path);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("report written");
    let report = SimReport::from_json(&Json::parse(&text).expect("valid JSON"))
        .expect("the report it wrote parses");
    assert_eq!(report.seed, i64::MAX as u64);
}

#[test]
fn a_seed_past_i64_max_is_refused_before_the_run() {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("seed-u64-max.json");
    let _ = std::fs::remove_file(&path);
    let out = run_with_seed("18446744073709551615", &path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("i64::MAX"), "{stderr}");
    assert!(!path.exists(), "a refused run wrote a report");
}
