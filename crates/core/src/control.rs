//! The control plane every managed run plans through: N scheduler
//! replicas over fixed host partitions, their merged views, the ownership
//! filter, the control-loop latency queue and the commit ledger, behind
//! one type, [`ControlPlane`].
//!
//! Each control round the caller hands [`ControlPlane::plan`] one fresh
//! [`ClusterObservation`]. Every replica plans over the whole fleet from
//! its own view (its partition fresh, the rest of the fleet through a
//! snapshot `staleness` rounds old) and keeps only the actions whose
//! subject it owns: a migration off one of its hosts, a power action on
//! one of them. Each kept action is counted once, under the planning
//! step that produced it; those counts are the run's planner counts.
//! The kept batches wait `latency` rounds. [`ControlPlane::due_round`]
//! hands back the round that has aged, and the caller submits each of
//! its actions to [`ControlPlane::admit`], in scheduler order then plan
//! order, which checks it against ground truth (a [`PlacementFacts`] over
//! the live system) and the round's claims. The caller executes what is
//! admitted. [`ControlPlane::close`] expires what is still queued and
//! yields the plane's deterministic `work.*` counters.
//!
//! Every planned action meets exactly one fate, so the commit ledger
//! closes: `planned == accepted + rejected + dropped_unowned + expired`.
//!
//! A round has two phases. In the fan-out, the replicas plan side by
//! side on the machine's cores (`simcore::pool::for_each_mut`), each
//! splicing its own view, planning into its own span tracer and writing
//! nothing another replica reads. The fold then runs serially in
//! scheduler order: it grafts each replica's spans under the caller's,
//! filters and counts its plan, and queues its batch. A replica's plan is
//! a pure function of its own state and its view, and every
//! order-dependent step is in the fold, so a round is the same on any
//! number of cores. With one scheduler (or one core) the fan-out is a
//! plain loop and starts no thread.
//!
//! A scheduler's view is a pure index-wise splice of the fresh and the
//! stale observation, so it is a deterministic function of
//! `(fresh, stale, partition)`. With one scheduler (the default) the
//! partition is the whole fleet: every action is owned and the view is
//! the fresh observation, whatever the staleness, which is why
//! `schedulers = 1` produces the same report at any staleness.

use std::collections::VecDeque;
use std::ops::Range;

use obs::SpanTracer;
use simcore::pool;

use crate::placement::PlacementStore;
use crate::work::{Count, WorkTable};
use crate::{
    ClusterObservation, ConflictReason, DecisionActions, DecisionRecord, ManagementAction,
    PlacementFacts, PlanError, VirtManager,
};

/// N scheduler replicas of one manager over fixed contiguous host
/// partitions, with stale remote views, a control-loop latency and a
/// conflict-checked commit point (see the module docs for the round).
#[derive(Debug)]
pub struct ControlPlane {
    /// One replica per partition, in partition order.
    schedulers: Vec<Replica>,
    /// Remote partitions are observed through a snapshot this many
    /// control rounds old (0 = fully fresh).
    staleness: usize,
    /// Plans computed at round `t` commit at round `t + latency`.
    latency: usize,
    /// Ring of past observations backing the stale remote view; only
    /// maintained when the views diverge.
    history: VecDeque<ClusterObservation>,
    /// In-flight batches: `pending[k][s]` is scheduler `s`'s kept batch
    /// planned `k` rounds before the front's.
    pending: VecDeque<Vec<Vec<ManagementAction>>>,
    /// The round's claim ledger arbitrating every commit.
    store: PlacementStore,
    /// The commit ledger: the fate of every planned action, in the
    /// `work.commit.*` slots. Every planned action is committed, rejected
    /// at commit, filtered as out-of-partition at plan time, or still in
    /// the latency queue when the run ends, so at the end
    /// `planned == accepted + rejected + dropped_unowned + expired`.
    ledger: WorkTable,
    /// Every kept action, counted by the step that planned it.
    kept: DecisionActions,
    /// Whether a round has been planned yet (the first one runs on the
    /// calling thread; see [`plan`](Self::plan)).
    warm: bool,
}

/// One scheduler replica and everything its share of a round writes, so
/// replicas can plan side by side without sharing a byte.
#[derive(Debug)]
struct Replica {
    /// The planner.
    manager: VirtManager,
    /// The owned host-index range (contiguous, disjoint from and covering
    /// with the other replicas' — `pool::shard_ranges`).
    owned: Range<usize>,
    /// Reusable merge buffer for the replica's view; stays empty unless
    /// views diverge.
    view: ClusterObservation,
    /// The replica's planner spans of the round, grafted into the
    /// caller's tracer once the round is folded; enabled only when the
    /// caller's is.
    tracer: SpanTracer,
    /// The round's plan, before the ownership filter.
    planned: Result<Vec<ManagementAction>, PlanError>,
}

impl ControlPlane {
    /// `schedulers` identical replicas of `manager` (at most one per host)
    /// over fixed contiguous partitions of its fleet's hosts, remote
    /// partitions observed `staleness` rounds late, and plans committing
    /// `latency` rounds after they are computed.
    pub fn new(
        manager: VirtManager,
        (schedulers, staleness, latency): (usize, usize, usize),
    ) -> Self {
        let (num_hosts, num_vms) = manager.fleet_size();
        let partitions = pool::shard_ranges(num_hosts, schedulers);
        // `vec!` moves `manager` into the last replica rather than
        // cloning it: a lone scheduler's fleet-sized state is never
        // copied and freed.
        let managers = vec![manager; partitions.len()];
        let schedulers = partitions
            .into_iter()
            .zip(managers)
            .map(|(owned, manager)| Replica {
                manager,
                owned,
                view: ClusterObservation::default(),
                tracer: SpanTracer::new(),
                planned: Ok(Vec::new()),
            })
            .collect();
        ControlPlane {
            schedulers,
            staleness,
            latency,
            history: VecDeque::new(),
            pending: VecDeque::new(),
            store: PlacementStore::new(num_hosts, num_vms),
            ledger: WorkTable::default(),
            kept: DecisionActions::default(),
            warm: false,
        }
    }

    /// Whether per-scheduler views diverge at all: with one scheduler (or
    /// zero staleness) every view is the fresh observation and the merge
    /// is skipped entirely.
    fn views_diverge(&self) -> bool {
        self.staleness > 0 && self.schedulers.len() > 1
    }

    /// Plans one round in two phases. First every replica plans over its
    /// merged view of `obs`, side by side on the machine's cores
    /// (`pool::for_each_mut`; the plane's first round on the calling
    /// thread), each into its own buffers. Then, serially in scheduler
    /// order, each replica's planner spans are grafted under the caller's
    /// current span of `tracer`, its plan is filtered to the actions it
    /// owns, and the kept batch joins the latency queue. Every
    /// order-dependent step is in the serial phase, so the round is the
    /// same on any number of cores. Returns how many actions were kept.
    ///
    /// # Errors
    ///
    /// [`PlanError::Shape`] if `obs` describes another fleet than the
    /// manager's.
    pub fn plan(
        &mut self,
        obs: &ClusterObservation,
        tracer: &mut SpanTracer,
    ) -> Result<usize, PlanError> {
        let lone = self.schedulers.len() == 1;
        let merge = self.views_diverge() && !self.history.is_empty();
        let stale = self.history.front().filter(|_| merge);
        let trace = tracer.is_enabled();
        let plan = |replica: &mut Replica| {
            if trace {
                replica.tracer.enable();
            }
            let view = match stale {
                Some(stale) => {
                    merge_view(&mut replica.view, obs, stale, &replica.owned);
                    &replica.view
                }
                None => obs,
            };
            replica.planned = replica.manager.plan_traced(view, &mut replica.tracer);
        };
        // A replica's first round sizes every fleet-wide buffer it keeps.
        // Planning that round on the calling thread puts those buffers in
        // the main allocator arena, where a serial plane puts them, and
        // leaves the workers only per-round scratch to allocate.
        if self.warm {
            pool::for_each_mut(&mut self.schedulers, plan);
        } else {
            self.schedulers.iter_mut().for_each(plan);
            self.warm = true;
        }
        let mut batches = Vec::with_capacity(self.schedulers.len());
        let mut total_kept = 0;
        for replica in &mut self.schedulers {
            tracer.absorb(&mut replica.tracer);
            let mut actions = std::mem::replace(&mut replica.planned, Ok(Vec::new()))?;
            let view = if merge { &replica.view } else { obs };
            let mut reasons = replica.manager.last_round_reasons().iter();
            let (ledger, kept, owned) = (&mut self.ledger, &mut self.kept, &replica.owned);
            actions.retain(|action| {
                let reason = *reasons.next().expect("one reason per planned action");
                ledger.add(Count::Planned, 1);
                let owns = lone || owns_action(view, owned, action);
                if owns {
                    kept.count(action, reason);
                } else {
                    ledger.add(Count::DroppedUnowned, 1);
                    ledger.add(Count::MigrationsDropped, migrations(action));
                }
                owns
            });
            total_kept += actions.len();
            batches.push(actions);
        }
        if self.views_diverge() {
            // Snapshot after planning: this round's fresh observation is
            // the youngest entry a future stale view can see. A full ring
            // hands its oldest snapshot back to be refilled in place.
            let mut snapshot = if self.history.len() == self.staleness {
                self.history.pop_front().expect("staleness is positive")
            } else {
                ClusterObservation::default()
            };
            snapshot.clone_from(obs);
            self.history.push_back(snapshot);
        }
        self.pending.push_back(batches);
        Ok(total_kept)
    }

    /// The round whose batches have aged past the control latency, one
    /// batch per scheduler, if any; it opens a fresh claim round for
    /// [`admit`](Self::admit).
    pub fn due_round(&mut self) -> Option<Vec<Vec<ManagementAction>>> {
        if self.pending.len() <= self.latency {
            return None;
        }
        self.store.begin_round();
        self.pending.pop_front()
    }

    /// Checks one action of scheduler `scheduler`'s due batch against
    /// ground truth and the round's claims; an admitted action's claims
    /// are recorded, and the caller must execute it.
    ///
    /// # Errors
    ///
    /// The [`ConflictReason`] that refused the action; the caller must
    /// drop it.
    pub fn admit<F: PlacementFacts>(
        &mut self,
        scheduler: usize,
        action: &ManagementAction,
        facts: &F,
    ) -> Result<(), ConflictReason> {
        let verdict = self
            .store
            .admit(&self.schedulers[scheduler].owned, action, facts);
        count_verdict(&mut self.ledger, action, verdict);
        verdict
    }

    /// Each scheduler's record of its latest round, in scheduler order
    /// (none under the analytic `Oracle` policy, which never plans).
    pub fn decisions(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.schedulers
            .iter()
            .filter_map(|replica| replica.manager.last_decision())
    }

    /// Ends the run: every batch still in the latency queue expires.
    /// Returns the kept actions counted by planning step (the report's
    /// planner counts) and every `work.plan.*`, `work.index.*` and
    /// `work.commit.*` counter: the commit ledger with each replica's
    /// table folded in (counts add, `undo_depth_max` keeps the deepest
    /// replica's value) and `work.commit.schedulers`, the replica count.
    pub fn close(mut self) -> (DecisionActions, Vec<(&'static str, u64)>) {
        for action in self.pending.drain(..).flatten().flatten() {
            count_expired(&mut self.ledger, &action);
        }
        // Every planned action met exactly one fate.
        let c = |count| self.ledger.get(count);
        debug_assert_eq!(
            c(Count::Planned),
            c(Count::Accepted) + c(Count::Rejected) + c(Count::DroppedUnowned) + c(Count::Expired),
            "commit ledger out of balance"
        );
        for replica in &self.schedulers {
            self.ledger.merge(replica.manager.work());
        }
        self.ledger
            .add(Count::Schedulers, self.schedulers.len() as u64);
        (self.kept, self.ledger.entries().collect())
    }
}

/// 1 for a migration, 0 for a power action: the increment of a fate's
/// `work.commit.migrations_*` slice.
fn migrations(action: &ManagementAction) -> u64 {
    u64::from(!action.is_power_action())
}

/// Counts a commit verdict in `ledger`: accepted, or rejected under its
/// [`ConflictReason`].
fn count_verdict(
    ledger: &mut WorkTable,
    action: &ManagementAction,
    verdict: Result<(), ConflictReason>,
) {
    match verdict {
        Ok(()) => ledger.add(Count::Accepted, 1),
        Err(reason) => {
            ledger.add(Count::Rejected, 1);
            ledger.add(Count::MigrationsRejected, migrations(action));
            ledger.add(Count::rejected_by(reason), 1);
        }
    }
}

/// Counts an action still in the latency queue when the run ended.
fn count_expired(ledger: &mut WorkTable, action: &ManagementAction) {
    ledger.add(Count::Expired, 1);
    ledger.add(Count::MigrationsExpired, migrations(action));
}

/// Splices a scheduler's merged view into `into`: fresh entries for the
/// owned host partition (and for VMs whose fresh host is owned, plus
/// unplaced VMs), stale entries for everything else.
///
/// `fresh` and `stale` must describe the same fleet (same host/VM index
/// spaces); the control plane guarantees that by snapshotting the
/// observations it is given.
fn merge_view(
    into: &mut ClusterObservation,
    fresh: &ClusterObservation,
    stale: &ClusterObservation,
    owned: &Range<usize>,
) {
    debug_assert_eq!(fresh.hosts.len(), stale.hosts.len(), "host spaces differ");
    debug_assert_eq!(fresh.vms.len(), stale.vms.len(), "vm spaces differ");
    into.now = fresh.now;
    into.hosts.clear();
    into.hosts.extend(
        fresh
            .hosts
            .iter()
            .zip(&stale.hosts)
            .enumerate()
            .map(|(i, (f, s))| if owned.contains(&i) { *f } else { *s }),
    );
    into.vms.splice(&fresh.vms, &stale.vms, |h| match h {
        Some(h) => owned.contains(&h.index()),
        // Unplaced VMs belong to no partition; everyone sees them fresh.
        None => true,
    });
}

/// Whether `action` falls inside the scheduler's own partition, judged
/// from the scheduler's *view* (its belief): a migration belongs to the
/// owner of the VM's current host, a power action to the owner of the
/// host. The commit-time conflict check re-verifies against ground
/// truth, so a stale belief here costs a rejected commit, never a
/// misrouted action.
fn owns_action(view: &ClusterObservation, owned: &Range<usize>, action: &ManagementAction) -> bool {
    match *action {
        ManagementAction::Migrate { vm, .. } => view
            .vms
            .host()
            .get(vm.index())
            .copied()
            .flatten()
            .is_some_and(|h| owned.contains(&h.index())),
        ManagementAction::PowerUp { host } | ManagementAction::PowerDown { host, .. } => {
            owned.contains(&host.index())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{host_spec, test_world, vm_spec};
    use crate::{HostObservation, ManagerConfig, PowerPolicy, PredictorConfig, VmObservation};
    use check::gen::{boolean, f64_in, usize_in, vec_of, Gen};
    use check::{prop_assert, prop_assert_eq};
    use cluster::{HostId, VmId};
    use power::PowerState;
    use simcore::{SimDuration, SimTime};

    #[test]
    fn replicas_keep_one_copy_of_a_fresh_plan() {
        use PowerState::{On, Suspended};
        // Consolidate hosts 1 and 3, park them once empty, then wake them
        // for a surge: migrations and power actions in both partitions.
        let rounds: [&[(PowerState, &[f64])]; 3] = [
            &[(On, &[1.0]), (On, &[0.5]), (On, &[1.0]), (On, &[0.5])],
            &[(On, &[1.0, 0.5]), (On, &[]), (On, &[1.0, 0.5]), (On, &[])],
            &[
                (On, &[7.0, 6.0]),
                (Suspended, &[]),
                (On, &[7.0, 6.0]),
                (Suspended, &[]),
            ],
        ];
        let config = ManagerConfig::new(PowerPolicy::reactive_suspend())
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO)
            .with_predictor(PredictorConfig::LastValue);
        let (hosts, vms, _) = test_world(SimTime::ZERO, rounds[0]);
        let mut lone = VirtManager::new(config, &hosts, &vms).unwrap();
        // Two schedulers over fresh views; nothing commits before the
        // run ends, so every kept action expires.
        let mut plane = ControlPlane::new(lone.clone(), (2, 0, rounds.len()));
        let mut want = DecisionActions::default();
        for (r, world) in rounds.iter().enumerate() {
            let obs = test_world(SimTime::from_secs(300 * r as u64), world).2;
            let plan = lone.plan(&obs).unwrap();
            for (action, &reason) in plan.iter().zip(lone.last_round_reasons()) {
                want.count(action, reason);
            }
            plane.plan(&obs, &mut SpanTracer::new()).unwrap();
            assert!(plane.due_round().is_none());
        }
        let (kept, work) = plane.close();
        let c = |name: &str| work.iter().find(|(n, _)| *n == name).unwrap().1;
        // Identical replicas plan alike over one fresh view, and the
        // partitions split that plan: the plane keeps it exactly once.
        assert_eq!(kept, want);
        assert!(kept.migrations() > 0 && kept.power_downs > 0 && kept.power_ups > 0);
        let planned = c("work.commit.planned");
        let dropped = c("work.commit.dropped_unowned");
        assert_eq!(dropped, planned / 2);
        assert_eq!(c("work.commit.expired"), planned - dropped);
        assert_eq!(
            kept.migrations(),
            c("work.plan.migrations_planned") - c("work.commit.migrations_dropped")
        );
        assert_eq!(
            kept.power_ups + kept.power_downs,
            planned - dropped - kept.migrations()
        );
        // Counts add across replicas; a maximum keeps the deepest one.
        let lone_work = lone.work();
        assert_eq!(
            c("work.plan.migrations_planned"),
            2 * lone_work.get(Count::MigrationsPlanned)
        );
        assert!(lone_work.get(Count::UndoDepthMax) > 0);
        assert_eq!(
            c("work.plan.undo_depth_max"),
            lone_work.get(Count::UndoDepthMax)
        );
        assert_eq!(c("work.commit.schedulers"), 2);
    }

    const MAX_HOSTS: usize = 8;

    /// A fleet size and a fresh/stale record pair per VM, over the same
    /// host and VM index spaces; a host pick at or past the fleet size
    /// means unplaced.
    fn worlds() -> Gen<(usize, Vec<VmObservation>, Vec<VmObservation>)> {
        let row = usize_in(0..=MAX_HOSTS + 2)
            .zip(&f64_in(0.0, 4.0))
            .zip(&boolean());
        usize_in(1..=MAX_HOSTS)
            .zip(&vec_of(&row.zip(&row), 0..=24))
            .map(|(hosts, pairs)| {
                let place = |((pick, cpu_demand), migrating): ((usize, f64), bool)| VmObservation {
                    host: (pick < hosts).then_some(HostId(pick as u32)),
                    cpu_demand,
                    migrating,
                };
                let (fresh, stale) = pairs.into_iter().map(|(f, s)| (place(f), place(s))).unzip();
                (hosts, fresh, stale)
            })
    }

    /// An observation over `hosts` hosts, tagged with `tag` GB committed
    /// so fresh and stale host entries are told apart.
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

    /// The columnar splice and ownership test answer what the plain
    /// records answer, and the columns read back every row they were
    /// built from.
    #[test]
    fn columnar_merge_and_ownership_match_the_record_reference() {
        check::check(
            "columnar merge_view/owns_action match records",
            &worlds(),
            |(hosts, fresh_rows, stale_rows)| {
                let fresh = observation(600, *hosts, 2.0, fresh_rows);
                let stale = observation(300, *hosts, 1.0, stale_rows);
                // One reused view buffer across every partition, as the
                // control plane reuses its own.
                let mut view = ClusterObservation::default();
                // Every partition of every scheduler count: first, last
                // and (one scheduler) the whole fleet.
                for schedulers in 1..=*hosts {
                    for owned in pool::shard_ranges(*hosts, schedulers) {
                        merge_view(&mut view, &fresh, &stale, &owned);
                        prop_assert_eq!(view.now, fresh.now);
                        for (i, h) in view.hosts.iter().enumerate() {
                            let want = if owned.contains(&i) { 2.0 } else { 1.0 };
                            prop_assert_eq!(h.mem_committed, want);
                        }
                        let reference = reference_merge(fresh_rows, stale_rows, &owned);
                        // The columns hold exactly the spliced rows.
                        prop_assert_eq!(view.vms.len(), reference.len());
                        prop_assert_eq!(view.vms.get(reference.len()), None);
                        let rows: Vec<_> = (0..view.vms.len())
                            .filter_map(|i| view.vms.get(i))
                            .collect();
                        prop_assert_eq!(rows, reference);
                        if owned == (0..*hosts) {
                            prop_assert!(view == fresh, "whole partition is not the fresh view");
                        }
                        // Ownership of every VM (and one past the end),
                        // judged from the columns and from the spliced
                        // records.
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
                            prop_assert_eq!(
                                owns_action(&view, &owned, &action),
                                owned.contains(&host)
                            );
                        }
                    }
                }
                Ok(())
            },
        );
    }

    /// One round of a [`PlaneRun`]: whether each host is on (else
    /// suspended), and each VM's host pick and demand.
    type Round = (Vec<bool>, Vec<(usize, f64)>);

    /// A plane shape `(schedulers, staleness, latency)`, a fleet size and
    /// a run of rounds over that fleet.
    type PlaneRun = ((usize, usize, usize), usize, Vec<Round>);

    /// Plane runs of 2–5 schedulers. A VM's pick at or past the fleet
    /// size, or on a suspended host, leaves it unplaced.
    fn plane_runs() -> Gen<PlaneRun> {
        let shape = usize_in(2..=5)
            .zip(&usize_in(0..=2))
            .zip(&usize_in(0..=1))
            .map(|((schedulers, staleness), latency)| (schedulers, staleness, latency));
        shape
            .zip(&usize_in(2..=MAX_HOSTS).zip(&usize_in(0..=24)))
            .and_then(|(shape, (hosts, vms))| {
                let vm = usize_in(0..=hosts).zip(&f64_in(0.0, 8.0));
                let round = vec_of(&boolean(), hosts..=hosts).zip(&vec_of(&vm, vms..=vms));
                vec_of(&round, 2..=6).map(move |rounds| (shape, hosts, rounds))
            })
    }

    /// One round's observation at `now` of the fleet `plane_runs`
    /// describes: 8 GB per placed VM.
    fn round_observation(now: u64, on: &[bool], vms: &[(usize, f64)]) -> ClusterObservation {
        let mut hosts: Vec<HostObservation> = on
            .iter()
            .map(|&on| HostObservation {
                state: if on {
                    PowerState::On
                } else {
                    PowerState::Suspended
                },
                evacuated: true,
                ..HostObservation::default()
            })
            .collect();
        let vms = vms
            .iter()
            .map(|&(pick, cpu_demand)| {
                let host = on
                    .get(pick)
                    .is_some_and(|&on| on)
                    .then_some(HostId(pick as u32));
                if let Some(h) = host {
                    hosts[h.index()].mem_committed += 8.0;
                    hosts[h.index()].evacuated = false;
                }
                VmObservation {
                    host,
                    cpu_demand,
                    migrating: false,
                }
            })
            .collect();
        ClusterObservation {
            now: SimTime::from_secs(now),
            hosts,
            vms,
        }
    }

    /// Ground truth read off one observation, for admitting a due round.
    struct ObservedFacts<'a>(&'a ClusterObservation);

    impl PlacementFacts for ObservedFacts<'_> {
        fn host_of(&self, vm: VmId) -> Option<HostId> {
            self.0.vms.host()[vm.index()]
        }
        fn is_migrating(&self, vm: VmId) -> bool {
            self.0.vms.migrating()[vm.index()]
        }
        fn vm_mem_gb(&self, _: VmId) -> f64 {
            8.0
        }
        fn mem_committed_gb(&self, host: HostId) -> f64 {
            self.0.hosts[host.index()].mem_committed
        }
        fn mem_capacity_gb(&self, _: HostId) -> f64 {
            64.0
        }
        fn is_operational(&self, host: HostId) -> bool {
            self.0.hosts[host.index()].is_operational()
        }
        fn power_state(&self, host: HostId) -> PowerState {
            self.0.hosts[host.index()].state
        }
        fn has_pending_transition(&self, _: HostId) -> bool {
            false
        }
        fn is_evacuated(&self, host: HostId) -> bool {
            self.0.hosts[host.index()].evacuated
        }
    }

    /// The plane's replicas, planned side by side, do exactly what clones
    /// of its manager do planned one by one on this thread, each over its
    /// own merged view: the same decisions, kept batches, verdicts,
    /// planner counts and `work.*` counters, round after round.
    #[test]
    fn fanned_out_rounds_match_replicas_planned_one_by_one() {
        let config = ManagerConfig::new(PowerPolicy::reactive_suspend())
            .with_spare_hosts(0)
            .with_min_on_time(SimDuration::ZERO)
            .with_predictor(PredictorConfig::LastValue);
        check::check(
            "fanned-out plane rounds match a serial reference",
            &plane_runs(),
            |(shape, hosts, rounds)| {
                let (staleness, latency) = (shape.1, shape.2);
                let num_vms = rounds[0].1.len();
                let inventory = (
                    vec![host_spec(8.0, 64.0); *hosts],
                    vec![vm_spec(8.0, 8.0); num_vms],
                );
                let manager = VirtManager::new(config.clone(), &inventory.0, &inventory.1)
                    .map_err(|e| e.to_string())?;
                let mut plane = ControlPlane::new(manager.clone(), *shape);
                let partitions = pool::shard_ranges(*hosts, shape.0);
                let mut replicas = vec![manager; partitions.len()];
                let (mut history, mut pending) = (VecDeque::new(), VecDeque::new());
                let mut store = PlacementStore::new(*hosts, num_vms);
                let (mut ledger, mut kept) = (WorkTable::default(), DecisionActions::default());
                let mut merged = ClusterObservation::default();
                for (r, (on, vms)) in rounds.iter().enumerate() {
                    let obs = round_observation(300 * r as u64, on, vms);
                    plane
                        .plan(&obs, &mut SpanTracer::enabled())
                        .map_err(|e| e.to_string())?;
                    let mut batches = Vec::new();
                    for (manager, owned) in replicas.iter_mut().zip(&partitions) {
                        let view = match history.front() {
                            Some(stale) => {
                                merge_view(&mut merged, &obs, stale, owned);
                                &merged
                            }
                            None => &obs,
                        };
                        let mut actions = manager.plan(view).map_err(|e| e.to_string())?;
                        let mut reasons = manager.last_round_reasons().iter();
                        actions.retain(|action| {
                            let reason = *reasons.next().expect("one reason per action");
                            ledger.add(Count::Planned, 1);
                            let owns = owns_action(view, owned, action);
                            if owns {
                                kept.count(action, reason);
                            } else {
                                ledger.add(Count::DroppedUnowned, 1);
                                ledger.add(Count::MigrationsDropped, migrations(action));
                            }
                            owns
                        });
                        batches.push(actions);
                    }
                    if staleness > 0 {
                        history.push_back(obs.clone());
                        if history.len() > staleness {
                            history.pop_front();
                        }
                    }
                    pending.push_back(batches);
                    let want: Vec<_> = replicas
                        .iter()
                        .filter_map(VirtManager::last_decision)
                        .collect();
                    prop_assert_eq!(plane.decisions().collect::<Vec<_>>(), want);
                    let due = plane.due_round();
                    let want = (pending.len() > latency).then(|| pending.pop_front().unwrap());
                    prop_assert_eq!(&due, &want);
                    let Some(due) = due else { continue };
                    store.begin_round();
                    for (s, batch) in due.iter().enumerate() {
                        for action in batch {
                            let facts = ObservedFacts(&obs);
                            let verdict = store.admit(&partitions[s], action, &facts);
                            count_verdict(&mut ledger, action, verdict);
                            prop_assert_eq!(plane.admit(s, action, &facts), verdict);
                        }
                    }
                }
                for action in pending.iter().flatten().flatten() {
                    count_expired(&mut ledger, action);
                }
                for manager in &replicas {
                    ledger.merge(manager.work());
                }
                ledger.add(Count::Schedulers, replicas.len() as u64);
                let (plane_kept, plane_work) = plane.close();
                prop_assert_eq!(plane_kept, kept);
                prop_assert_eq!(plane_work, ledger.entries().collect::<Vec<_>>());
                Ok(())
            },
        );
    }
}
