//! Exact-value gate on the deterministic `work.*` op-counters.
//!
//! A pinned 256-host scenario runs under three configurations and every
//! `work.*` counter in each metrics snapshot must match
//! `ci/counters_baseline.json` exactly — no tolerance. The counters are
//! pure functions of the scenario seed (no clocks, no thread
//! interleaving), so any drift is a real behavior change in the planning
//! hot paths — an extra scan, a lost rollback, a double count — and must
//! be reviewed, not absorbed. An intentional change is blessed by
//! re-running with `AGILEPM_BLESS=1` and committing the updated
//! baseline.
//!
//! The indexed run pins both the decision counters and the
//! `work.index.*` maintenance counters, whose drift would mean the index
//! is being refreshed or re-bucketed on a different schedule. The
//! ladder run pins the rung-selection path. The distributed run pins
//! the placement store's commit arbitration under 4 schedulers with
//! stale views and delayed commits. Debug builds check every planner
//! pick against a full-fleet scan without charging any counter, so the
//! baseline holds under both `cargo test` and `cargo test --release`.

use std::path::Path;

use agilepm::core::PowerPolicy;
use agilepm::obs::{Json, MetricValue};
use agilepm::sim::{Experiment, Scenario, SimulationBuilder};
use agilepm::simcore::SimDuration;

/// The pinned scenario: the perf-smoke's mid size, the paper seed, a
/// full simulated day under the default managed policy.
const HOSTS: usize = 256;
const SEED: u64 = 2013;

fn work_counters_for(scenario: Scenario, policy: PowerPolicy) -> Vec<(String, u64)> {
    let report = SimulationBuilder::new(
        Experiment::new(scenario)
            .policy(policy)
            .horizon(SimDuration::from_hours(24)),
    )
    .run_report()
    .expect("pinned run succeeds");
    report
        .metrics
        .entries
        .iter()
        .filter_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name.starts_with("work.") => Some((e.name.clone(), *v)),
            _ => None,
        })
        .collect()
}

fn work_counters() -> Vec<(String, u64)> {
    work_counters_for(
        Scenario::datacenter(HOSTS, HOSTS * 6, SEED),
        PowerPolicy::reactive_suspend(),
    )
}

/// The joint-ladder run pins the rung-selection path: the same pinned
/// size and seed on the C6→S3→S5 ladder scenario under a 12 s wake SLO.
fn ladder_counters() -> Vec<(String, u64)> {
    work_counters_for(
        Scenario::datacenter_ladder(HOSTS, HOSTS * 6, SEED),
        PowerPolicy::joint_ladder(SimDuration::from_secs(12)),
    )
}

/// The distributed run pins the control plane's commit arbitration: the
/// pinned scenario planned by 4 schedulers over 1-round-stale partial
/// views with a 1-round commit latency, so the
/// `work.commit.*` ledger — accepts, per-reason rejections, unowned
/// drops, horizon expiries — is gated exactly alongside the plan
/// counters.
fn distributed_counters() -> Vec<(String, u64)> {
    let report = SimulationBuilder::new(
        Experiment::new(Scenario::datacenter(HOSTS, HOSTS * 6, SEED))
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(24))
            .schedulers(4)
            .view_staleness(1)
            .control_latency(1),
    )
    .run_report()
    .expect("pinned distributed run succeeds");
    report
        .metrics
        .entries
        .iter()
        .filter_map(|e| match &e.value {
            MetricValue::Counter(v) if e.name.starts_with("work.") => Some((e.name.clone(), *v)),
            _ => None,
        })
        .collect()
}

fn render_counters(out: &mut String, key: &str, counters: &[(String, u64)], last: bool) {
    out.push_str(&format!("  \"{key}\": {{\n"));
    for (i, (name, value)) in counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{name}\": {value}{}\n",
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    out.push_str(if last { "  }\n" } else { "  },\n" });
}

fn render_baseline(
    indexed: &[(String, u64)],
    ladder: &[(String, u64)],
    distributed: &[(String, u64)],
) -> String {
    let mut out = format!(
        "{{\n  \"scenario\": \"datacenter-{HOSTS}\",\n  \"seed\": {SEED},\n  \
         \"policy\": \"pm-suspend\",\n"
    );
    render_counters(&mut out, "counters_indexed", indexed, false);
    render_counters(&mut out, "counters_ladder", ladder, false);
    render_counters(&mut out, "counters_distributed", distributed, true);
    out.push_str("}\n");
    out
}

fn assert_counters_match(blessed: &[(String, Json)], counters: &[(String, u64)], key: &str) {
    assert_eq!(
        blessed.len(),
        counters.len(),
        "`{key}` counter set changed: baseline {:?} vs run {:?}",
        blessed.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        counters.iter().map(|(k, _)| k).collect::<Vec<_>>()
    );
    for (name, value) in counters {
        let want = blessed
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_i64())
            .unwrap_or_else(|| panic!("baseline `{key}` is missing `{name}`"));
        assert_eq!(
            *value as i64, want,
            "`{key}.{name}` drifted from the blessed baseline — the planning \
             hot path changed; review, then re-bless with AGILEPM_BLESS=1"
        );
    }
}

#[test]
fn work_counters_match_the_blessed_baseline_exactly() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("ci/counters_baseline.json");
    let indexed = work_counters();
    let ladder = ladder_counters();
    let distributed = distributed_counters();
    assert!(
        indexed
            .iter()
            .any(|(n, v)| n == "work.index.refreshes" && *v > 0),
        "pinned indexed run never maintained the index"
    );
    assert!(
        !ladder.is_empty(),
        "pinned ladder run produced no work.* counters"
    );
    assert!(
        distributed
            .iter()
            .any(|(n, v)| n == "work.commit.rejected" && *v > 0),
        "pinned distributed run never hit a commit conflict"
    );

    if std::env::var_os("AGILEPM_BLESS").is_some() {
        std::fs::write(&path, render_baseline(&indexed, &ladder, &distributed))
            .expect("write baseline");
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}\nbless the baseline with: AGILEPM_BLESS=1 cargo test --test counters_baseline",
            path.display()
        )
    });
    let json = Json::parse(&text).expect("baseline is valid JSON");
    for (key, counters) in [
        ("counters_indexed", &indexed),
        ("counters_ladder", &ladder),
        ("counters_distributed", &distributed),
    ] {
        let blessed = json
            .get(key)
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("baseline has no `{key}` object"));
        assert_counters_match(blessed, counters, key);
    }
}
