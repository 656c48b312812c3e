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
use crate::{
    ClusterObservation, ConflictReason, DecisionActions, DecisionRecord, IndexWorkCounters,
    ManagementAction, PlacementFacts, PlanError, VirtManager, WorkCounters,
};

/// N scheduler replicas of one manager over fixed contiguous host
/// partitions, with stale remote views, a control-loop latency and a
/// conflict-checked commit point (see the module docs for the round).
#[derive(Debug)]
pub struct ControlPlane {
    /// One planner replica per partition, in partition order.
    schedulers: Vec<VirtManager>,
    /// `partitions[s]` is scheduler `s`'s owned host-index range
    /// (contiguous, disjoint, covering — `pool::shard_ranges`).
    partitions: Vec<Range<usize>>,
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
    /// The fate of every planned action.
    ledger: CommitStats,
    /// Reusable merge buffer for a scheduler's view.
    view_buf: ClusterObservation,
    /// Every kept action, counted by the step that planned it.
    kept: DecisionActions,
}

impl ControlPlane {
    /// `schedulers` identical replicas of `manager` over fixed contiguous
    /// partitions of its fleet's hosts, remote partitions observed
    /// `staleness` rounds late, and plans committing `latency` rounds
    /// after they are computed.
    pub fn new(
        manager: VirtManager,
        (schedulers, staleness, latency): (usize, usize, usize),
    ) -> Self {
        let (num_hosts, num_vms) = manager.fleet_size();
        ControlPlane {
            schedulers: vec![manager; schedulers],
            partitions: pool::shard_ranges(num_hosts, schedulers),
            staleness,
            latency,
            history: VecDeque::new(),
            pending: VecDeque::new(),
            store: PlacementStore::new(num_hosts, num_vms),
            ledger: CommitStats::default(),
            view_buf: ClusterObservation::default(),
            kept: DecisionActions::default(),
        }
    }

    /// Whether per-scheduler views diverge at all: with one scheduler (or
    /// zero staleness) every view is the fresh observation and the merge
    /// is skipped entirely.
    fn views_diverge(&self) -> bool {
        self.staleness > 0 && self.schedulers.len() > 1
    }

    /// Plans one round: each replica plans over its merged view of `obs`,
    /// its plan is filtered to the actions it owns, and the kept batches
    /// join the latency queue. Each planner step records its span under
    /// the caller's current span of `tracer`. Returns how many actions
    /// were kept.
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
        let mut batches = Vec::with_capacity(self.schedulers.len());
        let mut total_kept = 0;
        for (scheduler, owned) in self.schedulers.iter_mut().zip(&self.partitions) {
            if merge {
                let stale = self.history.front().expect("history checked non-empty");
                merge_view(&mut self.view_buf, obs, stale, owned);
            }
            let view = if merge { &self.view_buf } else { obs };
            let mut actions = scheduler.plan_traced(view, tracer)?;
            let mut reasons = scheduler.last_round_reasons().iter();
            let (ledger, kept) = (&mut self.ledger, &mut self.kept);
            actions.retain(|action| {
                let reason = *reasons.next().expect("one reason per planned action");
                ledger.planned += 1;
                let owns = lone || owns_action(view, owned, action);
                if owns {
                    kept.count(action, reason);
                } else {
                    ledger.dropped_unowned += 1;
                    ledger.migrations_dropped += u64::from(!action.is_power_action());
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
        let verdict = self.store.admit(&self.partitions[scheduler], action, facts);
        match verdict {
            Ok(()) => self.ledger.accepted += 1,
            Err(reason) => self.ledger.note_rejected(action, reason),
        }
        verdict
    }

    /// Each scheduler's record of its latest round, in scheduler order
    /// (none under the analytic `Oracle` policy, which never plans).
    pub fn decisions(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.schedulers
            .iter()
            .filter_map(VirtManager::last_decision)
    }

    /// Ends the run: every batch still in the latency queue expires.
    /// Returns the kept actions counted by planning step (the report's
    /// planner counts) and every `work.plan.*`, `work.index.*` and
    /// `work.commit.*` counter, folded across the replicas: counts add,
    /// and `undo_depth_max` keeps the deepest replica's value.
    pub fn close(mut self) -> (DecisionActions, Vec<(String, u64)>) {
        for action in self.pending.drain(..).flatten().flatten() {
            self.ledger.expired += 1;
            self.ledger.migrations_expired += u64::from(!action.is_power_action());
        }
        debug_assert!(self.ledger.is_balanced(), "commit ledger out of balance");
        let mut work = WorkCounters::default();
        let mut index = IndexWorkCounters::default().entries();
        for m in &self.schedulers {
            work.merge(&m.work_counters());
            for (sum, (_, value)) in index.iter_mut().zip(m.index_work_counters().entries()) {
                sum.1 += value;
            }
        }
        let mut entries: Vec<(String, u64)> = [
            ("work.plan.", &work.entries()[..]),
            ("work.index.", &index[..]),
            ("work.commit.", &self.ledger.entries()[..]),
        ]
        .iter()
        .flat_map(|(prefix, list)| {
            list.iter()
                .map(move |(name, value)| (format!("{prefix}{name}"), *value))
        })
        .collect();
        // How many planners produced the ledger; invariants scale bounds
        // that charge one unit of work per planner by it.
        let schedulers = self.schedulers.len() as u64;
        entries.push(("work.commit.schedulers".to_string(), schedulers));
        (self.kept, entries)
    }
}

/// The commit ledger: the fate of every planned action, folded into the
/// metrics snapshot as `work.commit.*`.
///
/// `planned == accepted + rejected + dropped_unowned + expired` holds at
/// the end of every run: every planned action is either committed,
/// rejected at commit, filtered as out-of-partition at plan time, or
/// still in the latency queue when the run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CommitStats {
    /// Actions emitted by any scheduler's planner.
    planned: u64,
    /// Actions admitted and handed to the caller.
    accepted: u64,
    /// Actions refused by the conflict check.
    rejected: u64,
    /// Actions filtered at plan time because their subject lay outside
    /// the planning scheduler's partition (per its own view).
    dropped_unowned: u64,
    /// Actions still in the latency queue when the run ended.
    expired: u64,
    /// The migration-only slices of `rejected`/`dropped_unowned`/
    /// `expired` — these close the planner's migration ledger
    /// (`work.plan.migrations_planned == work.migrations.executed +
    /// work.migrations.aborted + the three below`).
    migrations_rejected: u64,
    /// See `migrations_rejected`.
    migrations_dropped: u64,
    /// See `migrations_rejected`.
    migrations_expired: u64,
    /// Rejections per [`ConflictReason`], in declaration order.
    rejected_by_reason: [u64; 7],
}

impl CommitStats {
    /// All counters as `(name, value)` pairs in a stable order.
    fn entries(&self) -> [(&'static str, u64); 15] {
        let by = self.rejected_by_reason;
        [
            ("planned", self.planned),
            ("accepted", self.accepted),
            ("rejected", self.rejected),
            ("dropped_unowned", self.dropped_unowned),
            ("expired", self.expired),
            ("migrations_rejected", self.migrations_rejected),
            ("migrations_dropped", self.migrations_dropped),
            ("migrations_expired", self.migrations_expired),
            ("rejected_vm_busy", by[0]),
            ("rejected_vm_race", by[1]),
            ("rejected_not_owner", by[2]),
            ("rejected_dest_unavailable", by[3]),
            ("rejected_headroom", by[4]),
            ("rejected_power_clash", by[5]),
            ("rejected_power_stale", by[6]),
        ]
    }

    /// The ledger identity every finished run must satisfy.
    fn is_balanced(&self) -> bool {
        self.planned == self.accepted + self.rejected + self.dropped_unowned + self.expired
    }

    fn note_rejected(&mut self, action: &ManagementAction, reason: ConflictReason) {
        self.rejected += 1;
        self.migrations_rejected += u64::from(!action.is_power_action());
        let slot = match reason {
            ConflictReason::VmBusy => 0,
            ConflictReason::VmRace => 1,
            ConflictReason::NotOwner => 2,
            ConflictReason::DestUnavailable => 3,
            ConflictReason::Headroom => 4,
            ConflictReason::PowerClash => 5,
            ConflictReason::PowerStale => 6,
        };
        self.rejected_by_reason[slot] += 1;
    }
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
    use crate::plan::test_world;
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
        let c = |name: &str| work.iter().find(|(n, _)| n == name).unwrap().1;
        // Identical replicas plan alike over one fresh view, and the
        // partitions split that plan: the plane keeps it exactly once.
        assert_eq!(kept, want);
        assert!(kept.migrations > 0 && kept.power_downs > 0 && kept.power_ups > 0);
        let planned = c("work.commit.planned");
        let dropped = c("work.commit.dropped_unowned");
        assert_eq!(dropped, planned / 2);
        assert_eq!(c("work.commit.expired"), planned - dropped);
        assert_eq!(
            kept.migrations,
            c("work.plan.migrations_planned") - c("work.commit.migrations_dropped")
        );
        assert_eq!(
            kept.power_ups + kept.power_downs,
            planned - dropped - kept.migrations
        );
        // Counts add across replicas; a maximum keeps the deepest one.
        let lone_work = lone.work_counters();
        assert_eq!(
            c("work.plan.migrations_planned"),
            2 * lone_work.migrations_planned
        );
        assert!(lone_work.undo_depth_max > 0);
        assert_eq!(c("work.plan.undo_depth_max"), lone_work.undo_depth_max);
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
}
