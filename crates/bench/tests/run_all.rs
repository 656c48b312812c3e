//! `run_all --only` selects experiments by exact banner id, and rejects
//! an unknown or empty id before running anything.

use std::process::{Command, Output};

fn run_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("run_all starts")
}

/// The archived `==== ID: title ====` block of `id`, up to the next
/// banner.
fn archived_block(archive: &str, id: &str) -> String {
    let banner = format!("==== {id}: ");
    let start = archive
        .find(&banner)
        .unwrap_or_else(|| panic!("{id} is archived"));
    let end = archive[start + 1..]
        .find("\n==== ")
        .map_or(archive.len(), |i| start + 2 + i);
    archive[start..end].to_string()
}

#[test]
fn only_prints_the_selected_blocks_in_table_order() {
    let archive = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../bench_results.txt"
    ))
    .expect("bench_results.txt is readable");
    // Named out of table order: the output follows the table.
    let out = run_all(&["--only", "F3,T1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let (blocks, runtime) = stdout
        .split_once("==== Runtime: 2 experiments on ")
        .expect("runtime table for two experiments");
    assert_eq!(
        blocks,
        archived_block(&archive, "T1") + &archived_block(&archive, "F3")
    );
    let rows: Vec<&str> = runtime.lines().skip(1).collect();
    assert_eq!(rows.len(), 3, "{runtime}");
    assert!(rows[0].starts_with("T1 ") && rows[1].starts_with("F3 "));
    assert!(rows[2].starts_with("total "));
}

#[test]
fn unknown_or_empty_ids_exit_2_before_running() {
    for list in ["T99", "", "T1,", "t1"] {
        let out = run_all(&["--only", list]);
        assert_eq!(out.status.code(), Some(2), "--only {list:?}");
        assert!(out.stdout.is_empty(), "--only {list:?} ran something");
        let stderr = String::from_utf8(out.stderr).expect("UTF-8 error");
        assert!(stderr.contains("valid ids: T1,F2,F3"), "{stderr}");
    }
    for args in [&["--only"][..], &["T1"], &["--only", "T1", "F3"]] {
        let out = run_all(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
