//! Property tests for the placement map and the cluster's
//! most-free-memory query, on the [`check`] framework: the
//! bidirectional VM→host index is checked against a naive model under
//! arbitrary place/remove/relocate sequences, and
//! [`Cluster::most_free_host`] against a linear scan under arbitrary
//! placement, migration and power sequences.

use std::collections::HashMap;

use check::gen::{boolean, usize_in, vec_of, Gen};
use check::{prop_assert, prop_assert_eq};
use cluster::{AccountingMode, Cluster, HostId, HostSpec, PlacementMap, Resources, VmId, VmSpec};
use power::{HostPowerProfile, PowerState, TransitionKind};
use simcore::{SimDuration, SimTime};

const HOSTS: usize = 4;
const VMS: usize = 8;

/// One raw operation: (opcode, vm pick, host pick).
type RawOp = ((usize, usize), usize);

fn ops() -> Gen<Vec<RawOp>> {
    vec_of(
        &usize_in(0..=2)
            .zip(&usize_in(0..=VMS - 1))
            .zip(&usize_in(0..=HOSTS - 1)),
        0..=64,
    )
}

/// The placement map agrees with a naive `HashMap` model after any
/// operation sequence, and its own invariant check stays green.
#[test]
fn placement_map_matches_naive_model() {
    check::check("PlacementMap == naive model", &ops(), |script| {
        let mut map = PlacementMap::new(HOSTS, VMS);
        let mut model: HashMap<VmId, HostId> = HashMap::new();
        for &((op, vm_raw), host_raw) in script {
            let vm = VmId(vm_raw as u32);
            let host = HostId(host_raw as u32);
            match op {
                0 if !model.contains_key(&vm) => {
                    map.place(vm, host);
                    model.insert(vm, host);
                }
                1 if model.contains_key(&vm) => {
                    let was = map.remove(vm);
                    prop_assert_eq!(Some(was), model.remove(&vm));
                }
                2 if model.contains_key(&vm) => {
                    let was = map.relocate(vm, host);
                    prop_assert_eq!(Some(was), model.insert(vm, host));
                }
                _ => continue, // op not applicable to this VM's state
            }
            prop_assert!(map.check_invariants(), "internal indexes disagree");
            prop_assert_eq!(map.placed_count(), model.len());
            for k in 0..VMS {
                prop_assert_eq!(
                    map.host_of(VmId(k as u32)),
                    model.get(&VmId(k as u32)).copied()
                );
            }
            for h in 0..HOSTS {
                let on_host = map.vms_on(HostId(h as u32));
                let expected = model
                    .iter()
                    .filter(|&(_, &mh)| mh == HostId(h as u32))
                    .count();
                prop_assert_eq!(on_host.len(), expected);
                prop_assert!(on_host.windows(2).all(|w| w[0] < w[1]), "vms_on not sorted");
            }
        }
        Ok(())
    });
}

/// Host memory capacities: repeated sizes so equal free memory — and
/// with it the tie rule — comes up constantly.
const HOST_MEM_GB: [f64; 4] = [32.0, 64.0, 32.0, 64.0];

/// VM memory sizes: powers of two (exact sums, frequent ties) and sizes
/// whose sums round, so running totals, scan re-folds and fold orders
/// can differ in the last bit.
const VM_MEM_GB: [f64; 8] = [8.0, 8.0, 4.0, 16.0, 0.1, 0.7, 2.9, 1.3];

/// Demands each step queries besides every host's exact free memory:
/// zero, a whole host, and more than any host has.
const QUERIES_GB: [f64; 4] = [0.0, 4.0, 64.0, 1e9];

fn free_memory_cluster(mode: AccountingMode) -> Cluster {
    let hosts = HOST_MEM_GB
        .iter()
        .map(|&mem| {
            HostSpec::new(
                Resources::new(16.0, mem),
                HostPowerProfile::prototype_rack(),
            )
        })
        .collect();
    let vms = VM_MEM_GB
        .iter()
        .map(|&mem| VmSpec::new(Resources::new(1.0, mem)))
        .collect();
    let mut cluster = Cluster::new(hosts, vms, SimTime::ZERO);
    cluster.set_accounting_mode(mode);
    cluster
}

/// The linear reference: `max_by` over operational hosts that fit,
/// which keeps the last of equal maxima.
fn scan_most_free_host(cluster: &Cluster, mem_gb: f64) -> Option<HostId> {
    cluster
        .hosts()
        .iter()
        .filter(|h| h.is_operational())
        .map(|h| h.id())
        .filter(|&h| cluster.mem_free_gb(h) >= mem_gb)
        .max_by(|&a, &b| {
            cluster
                .mem_free_gb(a)
                .partial_cmp(&cluster.mem_free_gb(b))
                .expect("memory is finite")
        })
}

/// Queries every fixed demand plus each host's exact free memory, the
/// boundary where a leaf one ulp stale flips the answer.
fn assert_most_free_matches_scan(cluster: &Cluster, step: &str) -> Result<(), String> {
    let exact = cluster.host_ids().map(|h| cluster.mem_free_gb(h));
    for mem in QUERIES_GB.into_iter().chain(exact) {
        prop_assert_eq!(
            cluster.most_free_host(mem),
            scan_most_free_host(cluster, mem),
            "{step}: most_free_host({mem})"
        );
    }
    Ok(())
}

/// Completes or fails `host`'s pending power transition at its due
/// instant, advancing `now` past it.
fn finish_power(cluster: &mut Cluster, host: HostId, fail: bool, now: &mut SimTime) {
    let due = cluster.host(host).expect("in range").power().pending();
    if let Some((_, at)) = due {
        let done = if fail {
            cluster.fail_power_transition(host, at)
        } else {
            cluster.complete_power_transition(host, at)
        };
        done.expect("due transition finishes");
        *now = (*now).max(at);
    }
}

/// One raw free-memory operation: ((opcode, vm pick), host pick).
fn free_memory_ops() -> Gen<Vec<RawOp>> {
    vec_of(
        &usize_in(0..=11)
            .zip(&usize_in(0..=VM_MEM_GB.len() - 1))
            .zip(&usize_in(0..=HOST_MEM_GB.len() - 1)),
        0..=80,
    )
}

/// The most-free-memory tree answers exactly like the linear scan it
/// replaced after every placement, migration and power step, in both
/// accounting modes (with mode flips mid-sequence), and answers `None`
/// once every host is powered down. It runs 1024 cases regardless of
/// `AGILEPM_CHECK_CASES`: a leaf left one ulp stale by an accounting
/// flip first shows around case 400.
#[test]
fn most_free_host_matches_linear_scan() {
    let input = free_memory_ops().zip(&boolean());
    check::check_cases(
        "most_free_host == linear scan",
        1024,
        &input,
        |(script, scan)| {
            let mode = if *scan {
                AccountingMode::Scan
            } else {
                AccountingMode::Incremental
            };
            let mut c = free_memory_cluster(mode);
            let mut now = SimTime::ZERO;
            assert_most_free_matches_scan(&c, "initial")?;
            for (i, &((op, vm_raw), host_raw)) in script.iter().enumerate() {
                let vm = VmId(vm_raw as u32);
                let host = HostId(host_raw as u32);
                now += SimDuration::from_secs(1);
                // Operations that do not apply to the current state return an
                // error without mutating anything; the check still runs.
                // Placement and migration get most of the opcodes: powered-down
                // hosts reject both, so an even mix would rarely migrate.
                match op {
                    0..=2 => {
                        let _ = c.place(vm, host);
                    }
                    3 => {
                        let _ = c.unplace(vm);
                    }
                    4 | 5 => {
                        let _ = c.begin_migration(vm, host, now);
                    }
                    6 | 7 => {
                        if let Some(m) = c.migration_of(vm) {
                            let finished = if op == 6 {
                                c.complete_migration(vm, m.completes_at)
                            } else {
                                c.fail_migration(vm, m.completes_at)
                            };
                            finished.expect("in-flight migration finishes");
                        }
                    }
                    8 => {
                        let kind = match c.host(host).expect("in range").power_state() {
                            PowerState::On if vm_raw % 2 == 0 => TransitionKind::Suspend,
                            PowerState::On => TransitionKind::Shutdown,
                            PowerState::Suspended => TransitionKind::Resume,
                            _ => TransitionKind::Boot,
                        };
                        let _ = c.begin_power_transition(host, kind, now);
                    }
                    9 | 10 => finish_power(&mut c, host, op == 10, &mut now),
                    _ => {
                        let other = match c.accounting_mode() {
                            AccountingMode::Scan => AccountingMode::Incremental,
                            AccountingMode::Incremental => AccountingMode::Scan,
                        };
                        c.set_accounting_mode(other);
                    }
                }
                assert_most_free_matches_scan(&c, &format!("step {i} (op {op})"))?;
            }

            // Power the whole fleet down: settle migrations, retire every
            // VM, finish pending transitions, then suspend each host.
            for k in 0..VM_MEM_GB.len() {
                let vm = VmId(k as u32);
                if let Some(m) = c.migration_of(vm) {
                    c.complete_migration(vm, m.completes_at)
                        .expect("in-flight migration finishes");
                }
                if c.placement().host_of(vm).is_some() {
                    c.unplace(vm).expect("settled VM unplaces");
                }
                assert_most_free_matches_scan(&c, &format!("retiring vm {k}"))?;
            }
            for h in 0..HOST_MEM_GB.len() {
                let host = HostId(h as u32);
                finish_power(&mut c, host, false, &mut now);
                if c.host(host).expect("in range").is_operational() {
                    now += SimDuration::from_secs(1);
                    c.begin_power_transition(host, TransitionKind::Suspend, now)
                        .expect("evacuated host suspends");
                }
                assert_most_free_matches_scan(&c, &format!("suspending host {h}"))?;
            }
            prop_assert_eq!(c.num_operational_hosts(), 0);
            prop_assert_eq!(c.most_free_host(0.0), None, "no operational host");
            Ok(())
        },
    );
}
