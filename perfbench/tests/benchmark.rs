//! The benchmark's own tests: its metric names, its declared metrics
//! against what each workload prints, the span map against what the
//! engine emits, and the correctness gate against a changed report.

use std::collections::BTreeSet;
use std::path::Path;

use obs::Json;
use perfbench::gate::{Gate, References};
use perfbench::workload::{Workload, WORKLOADS};
use perfbench::{end_to_end, layers, traced, Outcome};

/// Small enough for a debug build, large enough for 4 schedulers and
/// every engine phase.
const SMALL_HOSTS: usize = 64;

/// Metric names declared in `BENCHMARK.json` under `key`.
fn declared(key: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// The metric names in an outcome's result line.
fn printed(outcome: &Outcome) -> BTreeSet<String> {
    let json = Json::parse(&outcome.to_json()).expect("result line is JSON");
    json.get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed() {
    let code_names = layers::SPAN_MAP
        .iter()
        .map(|r| r.metric)
        .chain(layers::WORK_COUNTERS);
    for name in code_names
        .map(str::to_string)
        .chain(declared("end_to_end"))
        .chain(declared("per_layer"))
    {
        assert!(well_formed(&name), "metric name {name:?}");
    }
    for w in WORKLOADS {
        assert!(well_formed(w.name), "workload name {:?}", w.name);
    }
}

#[test]
fn small_fleets_pass_the_gate_and_print_every_declared_metric() {
    for w in WORKLOADS {
        let w = w.resized(SMALL_HOSTS);
        let e2e = end_to_end(&w, 7, 0.0);
        assert!(e2e.correct(), "{}: {e2e:?}", w.name);
        assert_eq!(e2e.attempted, perfbench::MIN_DAYS);
        assert_eq!(printed(&e2e), declared("end_to_end"), "{}", w.name);

        let layer = traced(&w, 7);
        assert!(layer.correct(), "{}: {layer:?}", w.name);
        assert_eq!(printed(&layer), declared("per_layer"), "{}", w.name);
    }
}

#[test]
fn span_map_covers_every_emitted_span_path() {
    for w in WORKLOADS {
        let w = w.resized(256);
        for threads in [1, 2] {
            let out = w
                .managed(w.scenario(11))
                .threads(threads)
                .profiling(true)
                .build()
                .and_then(|sim| sim.run())
                .expect("traced day runs");
            let spans = out.spans.expect("profiling returns spans");
            assert!(!spans.spans.is_empty());
            let unmapped = layers::unmapped(&spans);
            assert!(unmapped.is_empty(), "{}: unmapped {unmapped:?}", w.name);
        }
    }
}

#[test]
fn gate_rejects_a_changed_report() {
    let w = Workload::by_name("diurnal-16k")
        .expect("workload")
        .resized(SMALL_HOSTS);
    let scenario = w.scenario(3);
    let references = References::run(&w, &scenario);
    let report = w
        .managed(scenario.clone())
        .run_report()
        .expect("managed day runs");
    let mut gate = Gate::new();
    let digest = gate
        .check(&scenario, &report, &references)
        .expect("day passes");
    assert_eq!(gate.check(&scenario, &report, &references), Ok(digest));

    // One more migration: still a valid report, but not the same day.
    let mut changed = report.clone();
    changed.migrations += 1;
    let err = gate.check(&scenario, &changed, &references).unwrap_err();
    assert!(err.contains("digest"), "{err}");

    // More energy than always-on breaks the policy ladder.
    let mut wasteful = report.clone();
    wasteful.energy_j = references.as_ref().expect("references").always_on.energy_j * 1.01;
    let err = Gate::new()
        .check(&scenario, &wasteful, &references)
        .unwrap_err();
    assert!(err.contains("always-on"), "{err}");

    // A failed reference leg fails every day.
    let err = Gate::new()
        .check(&scenario, &report, &Err("no reference".to_string()))
        .unwrap_err();
    assert_eq!(err, "no reference");
}
