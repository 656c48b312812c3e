//! EXPERIMENTS.md quotes `bench_results.txt`, the archived output of
//! `run_all`, and DESIGN.md's experiment index names the fleet each
//! experiment runs; these tests keep both from drifting.
//!
//! * Every fenced block under an `## ID — …` heading must appear
//!   verbatim, as consecutive lines, in the `==== ID: … ====` block.
//! * Every table right after a `<!-- bench_results: ID -->` marker must
//!   match a table of that block: doc rows find run rows by their first
//!   cell, doc columns find run columns by header, and every number must
//!   lie strictly within half a unit of its last printed digit (a tie
//!   must be copied in full). Cells are compared after dropping `**`,
//!   `%` and whitespace (so digit grouping too), with `×` read as `x` and
//!   `—` as `-`.
//! * Every DESIGN.md index row whose workload cell names a fleet size
//!   (`N hosts`, `N VMs`, `N racks`, `N blades`) must name what the ID's
//!   block prints; a range `a → b hosts` must be the first and last row
//!   of the block's `hosts` column.
//! * DESIGN.md's "Metrics registry" paragraph must name exactly the
//!   `sim.*` metrics a churn-and-faults day registers.

use std::collections::{BTreeMap, BTreeSet};

use agilepm::prelude::*;

const DOC: &str = include_str!("../EXPERIMENTS.md");
const DESIGN: &str = include_str!("../DESIGN.md");
const RESULTS: &str = include_str!("../bench_results.txt");

/// Experiments whose tables or blocks EXPERIMENTS.md must keep checked.
const REQUIRED: [&str; 7] = ["T5", "F7", "T9", "T13b", "F17", "T26", "T27"];

/// Experiments whose DESIGN.md index row must name a checked fleet size.
const REQUIRED_FLEETS: [&str; 4] = ["F4", "F8", "F15", "T27"];

/// Units a fleet size is counted in.
const FLEET_UNITS: [&str; 4] = ["hosts", "VMs", "racks", "blades"];

/// Each experiment's archived lines, banner excluded.
fn blocks() -> BTreeMap<&'static str, Vec<&'static str>> {
    let mut blocks = BTreeMap::new();
    let mut current: Option<&mut Vec<&str>> = None;
    for line in RESULTS.lines() {
        if let Some(rest) = line.strip_prefix("==== ") {
            let id = rest.split(':').next().unwrap_or_default();
            current = Some(blocks.entry(id).or_default());
        } else if let Some(block) = current.as_mut() {
            block.push(line);
        }
    }
    blocks
}

/// A table as header cells and data rows.
type Table = (Vec<String>, Vec<Vec<String>>);

/// Every table `run_all` printed in `block`: a header line, a rule of
/// dashes, then rows up to the next blank line. Header cells are
/// separated by two or more spaces, row cells by any whitespace.
fn run_tables(block: &[&str]) -> Result<Vec<Table>, String> {
    let mut tables = Vec::new();
    for (i, line) in block.iter().enumerate().skip(1) {
        if line.is_empty() || !line.chars().all(|c| c == '-') {
            continue;
        }
        let header: Vec<String> = block[i - 1]
            .split("  ")
            .map(str::trim)
            .filter(|cell| !cell.is_empty())
            .map(String::from)
            .collect();
        let mut rows = Vec::new();
        for row in block[i + 1..].iter().take_while(|row| !row.is_empty()) {
            let cells: Vec<String> = row.split_whitespace().map(String::from).collect();
            if cells.len() != header.len() {
                return Err(format!("run row {row:?} does not split into {header:?}"));
            }
            rows.push(cells);
        }
        tables.push((header, rows));
    }
    Ok(tables)
}

/// The markdown table starting at `lines[0]`.
fn doc_table(lines: &[&str]) -> Table {
    let cells = |line: &str| -> Vec<String> {
        let line = line.trim().trim_start_matches('|').trim_end_matches('|');
        line.split('|')
            .map(|cell| cell.trim().to_string())
            .collect()
    };
    let mut rows = lines.iter().take_while(|line| line.starts_with('|'));
    let header = rows.next().map(|line| cells(line)).unwrap_or_default();
    (header, rows.skip(1).map(|line| cells(line)).collect())
}

fn normalise(cell: &str) -> String {
    cell.replace("**", "")
        .chars()
        .filter(|c| *c != '%' && !c.is_whitespace())
        .map(|c| match c {
            '×' => 'x',
            '—' | '–' | '−' => '-',
            c => c,
        })
        .collect()
}

#[derive(Debug, PartialEq)]
enum Token {
    /// A decimal number as mantissa and digits after the point.
    Num(i128, u32),
    Text(char),
}

fn tokens(cell: &str) -> Vec<Token> {
    let chars: Vec<char> = normalise(cell).chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let signed = matches!(chars[i], '+' | '-');
        let start = i + usize::from(signed);
        if !chars.get(start).is_some_and(char::is_ascii_digit) {
            out.push(Token::Text(chars[i]));
            i += 1;
            continue;
        }
        let (mut mantissa, mut decimals, mut j, mut point) = (0i128, 0u32, start, false);
        while let Some(&c) = chars.get(j) {
            if let Some(d) = c.to_digit(10) {
                mantissa = mantissa * 10 + i128::from(d);
                decimals += u32::from(point);
            } else if c == '.' && !point && chars.get(j + 1).is_some_and(char::is_ascii_digit) {
                point = true;
            } else {
                break;
            }
            j += 1;
        }
        out.push(Token::Num(
            if chars[i] == '-' { -mantissa } else { mantissa },
            decimals,
        ));
        i = j;
    }
    out
}

/// Whether the doc cell quotes the run cell: the same text, and each
/// number strictly within half a unit of the doc's last digit.
fn quotes(doc: &str, run: &str) -> bool {
    let (doc, run) = (tokens(doc), tokens(run));
    doc.len() == run.len()
        && doc.iter().zip(&run).all(|pair| match pair {
            (&Token::Num(d, k), &Token::Num(r, m)) => {
                let s = k.max(m);
                let (d, r) = (d * 10i128.pow(s - k), r * 10i128.pow(s - m));
                2 * (d - r).abs() < 10i128.pow(s - k)
            }
            (d, r) => d == r,
        })
}

/// Every disagreement between a doc table and the run's tables.
fn check_table(id: &str, doc: &Table, block: &[&str]) -> Vec<String> {
    let key = |h: &str| normalise(h).to_lowercase();
    let tables = match run_tables(block) {
        Ok(tables) => tables,
        Err(e) => return vec![format!("{id}: {e}")],
    };
    let columns = |run: &Table| -> Option<Vec<usize>> {
        doc.0
            .iter()
            .map(|h| run.0.iter().position(|r| key(r) == key(h)))
            .collect()
    };
    let Some((run, columns)) = tables
        .iter()
        .find_map(|run| columns(run).map(|cols| (run, cols)))
    else {
        return vec![format!("{id}: no run table has the columns {:?}", doc.0)];
    };
    if doc.1.is_empty() {
        return vec![format!("{id}: the marked table has no rows")];
    }
    let mut errors = Vec::new();
    for row in &doc.1 {
        let found = run
            .1
            .iter()
            .find(|r| normalise(&r[0]) == normalise(&row[0]));
        let Some(run_row) = found else {
            errors.push(format!("{id}: no run row {:?}", row[0]));
            continue;
        };
        for (cell, &c) in row.iter().zip(&columns) {
            if !quotes(cell, &run_row[c]) {
                errors.push(format!(
                    "{id}: row {:?} column {:?}: doc {cell:?}, run {:?}",
                    row[0], run.0[c], run_row[c]
                ));
            }
        }
    }
    errors
}

#[test]
fn experiments_doc_quotes_bench_results() {
    let blocks = blocks();
    let lines: Vec<&str> = DOC.lines().collect();
    let mut errors = Vec::new();
    let mut checked = Vec::new();
    let mut section: Option<&str> = None;
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if let Some(heading) = line.strip_prefix("## ") {
            section = heading.split_once(" — ").map(|(id, _)| id);
        }
        if let Some(id) = line
            .strip_prefix("<!-- bench_results: ")
            .and_then(|rest| rest.strip_suffix(" -->"))
        {
            checked.push(id);
            let start = i + 1 + lines[i + 1..].iter().take_while(|l| l.is_empty()).count();
            let table = doc_table(&lines[start..]);
            match blocks.get(id) {
                Some(block) => errors.extend(check_table(id, &table, block)),
                None => errors.push(format!("{id}: no such block in bench_results.txt")),
            }
        }
        if line.starts_with("```") {
            let len = lines[i + 1..]
                .iter()
                .position(|l| l.starts_with("```"))
                .expect("fenced block is closed");
            let fenced = &lines[i + 1..i + 1 + len];
            if let Some(id) = section {
                checked.push(id);
                let block = blocks.get(id).map_or(&[][..], Vec::as_slice);
                if !block.windows(fenced.len()).any(|w| w == fenced) {
                    errors.push(format!("{id}: fenced block is not in its run block"));
                }
            }
            i += len + 1;
        }
        i += 1;
    }
    for id in REQUIRED {
        if !checked.contains(&id) {
            errors.push(format!("{id}: nothing in EXPERIMENTS.md is checked"));
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

/// `text` as words, with digit grouping (`24 576`) joined and
/// punctuation trimmed from each word's ends.
fn words(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let joined: String = chars
        .iter()
        .enumerate()
        .filter(|&(i, &c)| {
            let digit = |j: usize| chars.get(j).is_some_and(char::is_ascii_digit);
            !(c == ' ' && i > 0 && digit(i - 1) && digit(i + 1))
        })
        .map(|(_, &c)| c)
        .collect();
    joined
        .split_whitespace()
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric()).to_string())
        .filter(|w| !w.is_empty())
        .collect()
}

/// A fleet size a workload cell names, as `(lo, hi, unit)`: a count
/// when `lo == hi`, else a range `lo → hi`.
type FleetSize = (u64, u64, String);

/// Every fleet size named in `cell`. `→` is punctuation to [`words`],
/// so a range reads `lo hi unit`.
fn fleet_sizes(cell: &str) -> Vec<FleetSize> {
    let w = words(cell);
    let num = |i: usize| w.get(i).and_then(|s| s.parse::<u64>().ok());
    let units = w.iter().enumerate().skip(1);
    let units = units.filter(|(_, u)| FLEET_UNITS.contains(&u.as_str()));
    units
        .filter_map(|(i, unit)| {
            let hi = num(i - 1)?;
            let lo = i.checked_sub(2).and_then(num).unwrap_or(hi);
            Some((lo, hi, unit.clone()))
        })
        .collect()
}

/// Whether run `block` prints `size`: a count as `N unit` in its text,
/// a range as the first and last row of a table's `unit` column.
fn prints(block: &[&str], (lo, hi, unit): &FleetSize) -> bool {
    if lo == hi {
        let w = words(&block.join("\n"));
        return w
            .windows(2)
            .any(|p| p[0] == hi.to_string() && p[1] == *unit);
    }
    let tables = run_tables(block).unwrap_or_default();
    tables.iter().any(|(header, rows)| {
        let Some(c) = header.iter().position(|h| h == unit) else {
            return false;
        };
        let value = |row: Option<&Vec<String>>| row.and_then(|r| r[c].parse::<u64>().ok());
        (value(rows.first()), value(rows.last())) == (Some(*lo), Some(*hi))
    })
}

#[test]
fn design_index_names_the_fleets_the_runs_print() {
    let blocks = blocks();
    let index = DESIGN
        .split_once("## Experiment index")
        .expect("DESIGN.md has an experiment index")
        .1;
    let rows = index.lines().skip_while(|l| !l.starts_with('|')).skip(2);
    let (mut errors, mut checked) = (Vec::new(), Vec::new());
    for row in rows.take_while(|l| l.starts_with('|')) {
        let cells: Vec<&str> = row.trim_matches('|').split('|').map(str::trim).collect();
        let id = cells[0].trim_matches('*');
        let sizes = fleet_sizes(cells[2]);
        if sizes.is_empty() {
            continue;
        }
        checked.push(id.to_string());
        let Some(block) = blocks.get(id) else {
            errors.push(format!("{id}: no such block in bench_results.txt"));
            continue;
        };
        for size in sizes.iter().filter(|s| !prints(block, s)) {
            errors.push(format!("{id}: the run does not print {size:?}"));
        }
    }
    for id in REQUIRED_FLEETS {
        if !checked.iter().any(|c| c == id) {
            errors.push(format!("{id}: its index row names no fleet size"));
        }
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn design_registry_paragraph_names_every_sim_metric_a_run_registers() {
    let paragraph = DESIGN
        .split_once("**Metrics registry**")
        .expect("DESIGN.md describes the metrics registry")
        .1
        .split("\n\n")
        .next()
        .unwrap_or_default();
    let named: BTreeSet<&str> = paragraph
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|name| name.starts_with("sim."))
        .collect();
    let failures = FailureModel::new(0.1, 0.05)
        .with_migration_failures(0.1)
        .with_hangs(0.1, 4.0);
    let day = Experiment::new(Scenario::datacenter_churn(6, 36, 0.5, 14))
        .policy(PowerPolicy::reactive_suspend())
        .failure_model(failures);
    let report = SimulationBuilder::new(day).run_report().unwrap();
    let registered: BTreeSet<&str> = report
        .metrics
        .entries
        .iter()
        .map(|e| e.name.as_str())
        .filter(|name| name.starts_with("sim."))
        .collect();
    let unknown: Vec<_> = named.difference(&registered).collect();
    let unnamed: Vec<_> = registered.difference(&named).collect();
    assert!(
        unknown.is_empty() && unnamed.is_empty(),
        "named but not registered: {unknown:?}; registered but not named: {unnamed:?}"
    );
}

#[test]
fn fleet_sizes_read_counts_ranges_and_grouping() {
    let size = |lo, hi, unit: &str| (lo, hi, unit.to_string());
    let t27 = fleet_sizes("4096 hosts / 24 576 VMs, 24 h");
    assert_eq!(t27, [size(4096, 4096, "hosts"), size(24576, 24576, "VMs")]);
    assert_eq!(fleet_sizes("8 → 16 hosts"), [size(8, 16, "hosts")]);
    assert_eq!(fleet_sizes("5 seeds × 4 policies"), []);
    let f8 = ["hosts  kWh", "---------", "    8    41", "   16    83"];
    assert!(prints(&f8, &size(8, 16, "hosts")));
    assert!(!prints(&f8, &size(8, 32, "hosts")));
    let f4 = ["at 64 hosts / 384 VMs:"];
    assert!(prints(&f4, &size(384, 384, "VMs")));
    assert!(!prints(&f4, &size(256, 256, "VMs")));
}

#[test]
fn quoting_rounds_to_the_doc_precision() {
    assert!(quotes("**0.078 %**", "0.078%"));
    assert!(quotes("1.71 %", "1.7132%"));
    assert!(quotes("21 326", "21326"));
    assert!(quotes("1.86×", "1.86x"));
    assert!(quotes("—", "-"));
    assert!(quotes("0 / 0 / 157", "0/0/157"));
    assert!(quotes("+29.4 %", "+29.4%"));
    assert!(quotes("0", "0.0"));
    // A one-digit edit, a tie rounded either way, a sign, a unit.
    assert!(!quotes("1.72 %", "1.7132%"));
    assert!(!quotes("80.3", "80.25"));
    assert!(!quotes("80.2", "80.25"));
    assert!(!quotes("-29.4 %", "+29.4%"));
    assert!(!quotes("1.86", "1.86x"));
    assert!(!quotes("0 / 1 / 157", "0/0/157"));
}
