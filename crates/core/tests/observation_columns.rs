//! Property tests of the columnar VM observation, on the [`check`]
//! framework: [`VmColumns`] must answer exactly what a plain vector of
//! [`VmObservation`] records answers — row by row, through the
//! scheduler-view splice, and through the ownership filter.

use std::ops::Range;

use agile_core::schedview::{merge_view, owns_action};
use agile_core::{ClusterObservation, HostObservation, ManagementAction, VmColumns, VmObservation};
use check::gen::{boolean, f64_in, usize_in, vec_of, Gen};
use check::{prop_assert, prop_assert_eq};
use cluster::{HostId, VmId};
use simcore::{pool, SimTime};

const MAX_HOSTS: usize = 8;

/// One VM row; a host pick at or past the fleet size means unplaced.
fn rows() -> Gen<(usize, VmObservation)> {
    usize_in(0..=MAX_HOSTS + 2)
        .zip(&f64_in(0.0, 4.0))
        .zip(&boolean())
        .map(|((pick, demand), migrating)| {
            (
                pick,
                VmObservation {
                    host: None,
                    cpu_demand: demand,
                    migrating,
                },
            )
        })
}

/// A fleet size and a fresh/stale record pair per VM, over the same
/// host and VM index spaces.
fn worlds() -> Gen<(usize, Vec<VmObservation>, Vec<VmObservation>)> {
    let place = |hosts: usize, (pick, mut vm): (usize, VmObservation)| {
        vm.host = (pick < hosts).then_some(HostId(pick as u32));
        vm
    };
    usize_in(1..=MAX_HOSTS)
        .zip(&vec_of(&rows().zip(&rows()), 0..=24))
        .map(move |(hosts, pairs)| {
            let (fresh, stale) = pairs
                .into_iter()
                .map(|(f, s)| (place(hosts, f), place(hosts, s)))
                .unzip();
            (hosts, fresh, stale)
        })
}

/// An observation over `hosts` hosts, tagged with `tag` GB committed so
/// fresh and stale host entries are told apart.
fn observation(now: u64, hosts: usize, tag: f64, vms: &[VmObservation]) -> ClusterObservation {
    let host = HostObservation {
        mem_committed: tag,
        ..HostObservation::default()
    };
    ClusterObservation {
        now: SimTime::from_secs(now),
        hosts: vec![host; hosts],
        vms: vms.iter().copied().collect(),
    }
}

/// The record-by-record splice the columnar merge replaces.
fn reference_merge(
    fresh: &[VmObservation],
    stale: &[VmObservation],
    owned: &Range<usize>,
) -> Vec<VmObservation> {
    fresh
        .iter()
        .zip(stale)
        .map(|(f, s)| match f.host {
            Some(h) if !owned.contains(&h.index()) => *s,
            _ => *f,
        })
        .collect()
}

#[test]
fn columns_round_trip_their_rows() {
    check::check(
        "VmColumns rows round-trip",
        &vec_of(&rows(), 0..=32).map(|rows| rows.into_iter().map(|(_, vm)| vm).collect()),
        |rows: &Vec<VmObservation>| {
            let columns: VmColumns = rows.iter().copied().collect();
            prop_assert_eq!(columns.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(columns.get(i), Some(*row));
            }
            prop_assert_eq!(columns.get(rows.len()), None);
            Ok(())
        },
    );
}

#[test]
fn columnar_merge_and_ownership_match_the_record_reference() {
    check::check(
        "columnar merge_view/owns_action match records",
        &worlds(),
        |(hosts, fresh_rows, stale_rows)| {
            let fresh = observation(600, *hosts, 2.0, fresh_rows);
            let stale = observation(300, *hosts, 1.0, stale_rows);
            // One reused view buffer across every partition, as the
            // engine reuses its own.
            let mut view = ClusterObservation::default();
            // Every partition of every scheduler count: first, last and
            // (one scheduler) the whole fleet.
            for schedulers in 1..=*hosts {
                for owned in pool::shard_ranges(*hosts, schedulers) {
                    merge_view(&mut view, &fresh, &stale, &owned);
                    prop_assert_eq!(view.now, fresh.now);
                    for (i, h) in view.hosts.iter().enumerate() {
                        let want = if owned.contains(&i) { 2.0 } else { 1.0 };
                        prop_assert_eq!(h.mem_committed, want);
                    }
                    let reference = reference_merge(fresh_rows, stale_rows, &owned);
                    let rows: Vec<_> = (0..view.vms.len())
                        .filter_map(|i| view.vms.get(i))
                        .collect();
                    prop_assert_eq!(rows, reference);
                    if owned == (0..*hosts) {
                        prop_assert!(view == fresh, "whole partition is not the fresh view");
                    }
                    // Ownership of every VM (and one past the end), judged
                    // from the columns and from the spliced records.
                    for vm in 0..=reference.len() {
                        let action = ManagementAction::Migrate {
                            vm: VmId(vm as u32),
                            to: HostId(0),
                        };
                        let want = reference
                            .get(vm)
                            .and_then(|v| v.host)
                            .is_some_and(|h| owned.contains(&h.index()));
                        prop_assert_eq!(owns_action(&view, &owned, &action), want);
                    }
                    for host in 0..*hosts {
                        let action = ManagementAction::PowerUp {
                            host: HostId(host as u32),
                        };
                        prop_assert_eq!(owns_action(&view, &owned, &action), owned.contains(&host));
                    }
                }
            }
            Ok(())
        },
    );
}
