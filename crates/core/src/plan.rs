//! Working state for one management round.
//!
//! The manager plans several actions per round; each tentative migration
//! changes the capacity picture for the next decision. `PlanContext`
//! carries that evolving view so the round's actions are mutually
//! consistent (no destination is overcommitted by two moves that were
//! each individually fine).

use cluster::ServiceClass;

use crate::{
    ClusterObservation, IndexWorkCounters, ManagerConfig, PlanMode, UtilizationIndex, WorkCounters,
};

/// Touched-overlay size bound: past this many in-round-moved hosts the
/// overlay is folded back into the buckets, so overlay scans during
/// mass-consolidation waves stay O(bound) instead of growing with every
/// committed drain.
const OVERLAY_FOLD_LIMIT: usize = 128;

/// Mutable planning view of the cluster for one round.
///
/// The manager owns one instance and [`rebuild`](Self::rebuild)s it each
/// round, so the ~13 vectors below keep their allocations across rounds
/// and steady-state planning allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanContext {
    /// Predicted demand per VM, cores.
    pub predicted_vm: Vec<f64>,
    /// Predicted demand per host after tentative moves, cores.
    pub host_pred_cpu: Vec<f64>,
    /// Committed memory per host after tentative moves, GB.
    pub mem_committed: Vec<f64>,
    /// CPU capacity per host, cores.
    pub cpu_capacity: Vec<f64>,
    /// Memory capacity per host, GB.
    pub mem_capacity: Vec<f64>,
    /// Host is `On`.
    pub operational: Vec<bool>,
    /// Host is `Resuming`/`Booting` (capacity arriving soon).
    pub arriving: Vec<bool>,
    /// Host is marked for evacuation (copied from manager state; mutated
    /// by undrain/drain decisions this round).
    pub draining: Vec<bool>,
    /// VM has a live migration in flight (not movable this round).
    pub migrating_vm: Vec<bool>,
    /// Tentative host of each VM (by index), `None` if unplaced.
    pub vm_host: Vec<Option<usize>>,
    /// Memory per VM, GB.
    pub vm_mem: Vec<f64>,
    /// Whether each VM is batch-class (preferred for disruption).
    pub vm_batch: Vec<bool>,
    /// VMs per host under the tentative plan.
    pub vms_by_host: Vec<Vec<usize>>,
    /// VMs tentatively moved onto each host this round. A receiving host
    /// is no drain candidate: its inbound VMs are not movable
    /// (`migrating_vm`), so a trial evacuation would look complete while
    /// the host is filling up.
    pub inbound_moves: Vec<u32>,
    /// Sum of `predicted_vm`, computed once per rebuild (predictions are
    /// immutable within a round, so hot paths read this instead of
    /// re-summing O(VMs)).
    total_predicted_cache: f64,
    /// Deterministic op-counters, accumulated *across* rounds —
    /// [`rebuild`](Self::rebuild) deliberately leaves them untouched.
    pub work: WorkCounters,
    /// Consolidation planner selection (set once at manager
    /// construction; [`rebuild`](Self::rebuild) leaves it untouched).
    pub mode: PlanMode,
    /// Utilization-bucket index for [`PlanMode::Indexed`]. Invalidated
    /// by every rebuild (fresh predictions), revalidated by
    /// [`refresh_index`](Self::refresh_index) once per round.
    pub index: UtilizationIndex,
    /// Index-maintenance op-counters, accumulated across rounds like
    /// [`Self::work`].
    pub index_work: IndexWorkCounters,
}

/// Lexicographic minimum over `(utilization, host index)` — exactly
/// `Iterator::min_by` on utilization over ascending indices (first-wins
/// on ties), but iteration-order independent.
pub(crate) fn lex_min(best: &mut Option<(f64, usize)>, cand: (f64, usize)) {
    let replace = match *best {
        None => true,
        Some((u, h)) => cand.0 < u || (cand.0 == u && cand.1 < h),
    };
    if replace {
        *best = Some(cand);
    }
}

/// Lexicographic maximum over `(utilization, host index)` — exactly
/// `Iterator::max_by` on utilization over ascending indices (last-wins
/// on ties), but iteration-order independent.
pub(crate) fn lex_max(best: &mut Option<(f64, usize)>, cand: (f64, usize)) {
    let replace = match *best {
        None => true,
        Some((u, h)) => cand.0 > u || (cand.0 == u && cand.1 > h),
    };
    if replace {
        *best = Some(cand);
    }
}

impl PlanContext {
    /// Builds a fresh context from an observation, per-VM predictions,
    /// and the manager's persistent drain set.
    #[cfg(test)]
    pub fn new(obs: &ClusterObservation, predicted_vm: Vec<f64>, draining: &[bool]) -> Self {
        let mut ctx = PlanContext::default();
        ctx.rebuild(obs, &predicted_vm, draining);
        ctx
    }

    /// Refills the context in place from this round's observation,
    /// reusing every vector's allocation from the previous round.
    pub fn rebuild(&mut self, obs: &ClusterObservation, predicted_vm: &[f64], draining: &[bool]) {
        let nh = obs.hosts.len();
        assert_eq!(draining.len(), nh, "drain set length mismatch");
        assert_eq!(
            predicted_vm.len(),
            obs.vms.len(),
            "prediction length mismatch"
        );

        self.predicted_vm.clear();
        self.predicted_vm.extend_from_slice(predicted_vm);

        // Keep inner per-host Vec allocations alive across rounds.
        self.vms_by_host.truncate(nh);
        for v in &mut self.vms_by_host {
            v.clear();
        }
        self.vms_by_host.resize_with(nh, Vec::new);

        // VM hosts, per-host VM lists and host predicted demand in one
        // pass over the host column. A host's predicted demand is the sum
        // of its VMs' predictions in ascending VM order (migration tax is
        // transient; plans are made on VM demand).
        self.vm_host.clear();
        self.host_pred_cpu.clear();
        self.host_pred_cpu.resize(nh, 0.0);
        for (i, (&host, &pred)) in obs.vms.host().iter().zip(predicted_vm).enumerate() {
            let h = host.map(|h| h.index());
            if let Some(h) = h {
                self.vms_by_host[h].push(i);
                self.host_pred_cpu[h] += pred;
            }
            self.vm_host.push(h);
        }

        self.mem_committed.clear();
        self.mem_committed
            .extend(obs.hosts.iter().map(|h| h.mem_committed));
        self.cpu_capacity.clear();
        self.cpu_capacity
            .extend(obs.hosts.iter().map(|h| h.cpu_capacity));
        self.mem_capacity.clear();
        self.mem_capacity
            .extend(obs.hosts.iter().map(|h| h.mem_capacity));
        self.operational.clear();
        self.operational
            .extend(obs.hosts.iter().map(|h| h.is_operational()));
        self.arriving.clear();
        self.arriving.extend(
            obs.hosts
                .iter()
                .map(|h| h.is_arriving_or_on() && !h.is_operational()),
        );
        self.draining.clear();
        self.draining.extend_from_slice(draining);
        self.inbound_moves.clear();
        self.inbound_moves.resize(nh, 0);
        self.migrating_vm.clear();
        self.migrating_vm.extend_from_slice(obs.vms.migrating());
        self.vm_mem.clear();
        self.vm_mem.extend_from_slice(obs.vms.mem_gb());
        self.vm_batch.clear();
        self.vm_batch.extend(
            obs.vms
                .service_class()
                .iter()
                .map(|&c| c == ServiceClass::Batch),
        );
        self.total_predicted_cache = self.predicted_vm.iter().sum();
        // Fresh predictions: whatever the bucket index held last round no
        // longer describes the fleet. The per-round refresh revalidates.
        self.index.valid = false;
    }

    /// Rebuilds the utilization-bucket index and capacity aggregates for
    /// this round's predictions (no-op under [`PlanMode::Scan`]).
    ///
    /// Every host is re-scored (one divide and compare) but only hosts
    /// whose *bucket* changed pay list surgery — counted as
    /// `work.index.rebuckets`, which the invariant catalog bounds by
    /// `work.cluster.dirty_marks`: a bucket can only move when some
    /// cluster observation actually changed.
    pub fn refresh_index(&mut self) {
        if self.mode != PlanMode::Indexed {
            return;
        }
        let n = self.num_hosts();
        self.index.ensure_hosts(n);
        self.index.clear_touched();
        // Every member is re-inserted or rescored below, so the
        // raise-only free-memory bounds can be recomputed exactly here.
        self.index.reset_mem_ubs();
        self.index_work.refreshes += 1;
        for h in 0..n {
            let member = self.operational[h];
            let mem_free = self.mem_capacity[h] - self.mem_committed[h];
            match (self.index.is_indexed(h), member) {
                (false, true) => {
                    self.index.insert(h, self.util(h), mem_free);
                    self.index_work.inserts += 1;
                }
                (true, false) => {
                    self.index.remove(h);
                    self.index_work.removes += 1;
                }
                (true, true) => {
                    if self.index.rescore(h, self.util(h), mem_free) {
                        self.index_work.rebuckets += 1;
                    }
                }
                (false, false) => {}
            }
        }
        // Capacity aggregates: fixed-shape pairwise trees whose roots are
        // bitwise equal to the scan path's `pairwise_sum` over the same
        // leaves. Rebuilt per refresh, leaf-updated on trial drain flips.
        let ops = &self.operational;
        let draining = &self.draining;
        let arriving = &self.arriving;
        let cap = &self.cpu_capacity;
        self.index
            .active_tree
            .rebuild(n, |h| if ops[h] && !draining[h] { cap[h] } else { 0.0 });
        self.index
            .arriving_tree
            .rebuild(n, |h| if arriving[h] { cap[h] } else { 0.0 });
        self.work.fold_elements += 2 * n as u64;
        let mut max_cap = 0.0f64;
        let mut min_pos_cap = f64::INFINITY;
        for &c in cap {
            max_cap = max_cap.max(c);
            if c > 0.0 {
                min_pos_cap = min_pos_cap.min(c);
            }
        }
        self.index.max_host_cap = max_cap;
        self.index.min_host_cap = if min_pos_cap.is_finite() {
            min_pos_cap
        } else {
            0.0
        };
        self.index.valid = true;
        debug_assert_eq!(
            self.index.check_membership(
                &self.operational,
                &(0..n).map(|h| self.util(h)).collect::<Vec<_>>(),
                &(0..n)
                    .map(|h| self.mem_capacity[h] - self.mem_committed[h])
                    .collect::<Vec<_>>(),
            ),
            Ok(())
        );
    }

    /// Whether indexed queries may be served this round (mode is
    /// `Indexed` and the per-round refresh has run since the last
    /// rebuild). Callers outside that window — e.g. a failsafe round,
    /// where the refresh is skipped entirely — fall back to the scan
    /// paths, which return the identical answer.
    pub fn index_valid(&self) -> bool {
        self.mode == PlanMode::Indexed && self.index.valid
    }

    /// Marks `host`'s bucket stale after an in-round utilization change
    /// (a tentative move or its undo). No-op when the index is not live.
    ///
    /// Folds the overlay back into the buckets past its size bound so
    /// overlay scans stay O(bound) during mass-consolidation waves.
    fn touch_host(&mut self, host: usize) {
        if !self.index_valid() {
            return;
        }
        self.index.touch(host);
        if self.index.overlay_len() > OVERLAY_FOLD_LIMIT {
            self.fold_overlay();
        }
    }

    /// Re-buckets every touched host at its current utilization and
    /// clears the overlay.
    fn fold_overlay(&mut self) {
        for i in 0..self.index.overlay_len() {
            let h = self.index.touched_hosts()[i] as usize;
            let mem_free = self.mem_capacity[h] - self.mem_committed[h];
            if self.index.is_indexed(h) && self.index.rescore(h, self.util(h), mem_free) {
                self.index_work.overlay_folds += 1;
            }
        }
        self.index.clear_touched();
    }

    /// Flips `draining[host]` for a consolidation trial (or its
    /// rollback), keeping the active-capacity aggregate current when the
    /// index is live. The flip itself is exactly the plain assignment
    /// the scan path performs.
    pub fn set_draining_trial(&mut self, host: usize, draining: bool) {
        self.draining[host] = draining;
        if self.index_valid() {
            let leaf = if self.operational[host] && !draining {
                self.cpu_capacity[host]
            } else {
                0.0
            };
            self.index.active_tree.set(host, leaf);
        }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.cpu_capacity.len()
    }

    /// Predicted utilization of `host` under the tentative plan.
    pub fn util(&self, host: usize) -> f64 {
        if self.cpu_capacity[host] > 0.0 {
            self.host_pred_cpu[host] / self.cpu_capacity[host]
        } else {
            0.0
        }
    }

    /// Whether `host` can accept `vm` under the plan: operational, not
    /// draining, memory fits, and predicted utilization stays at or below
    /// the config's target.
    pub fn can_accept(&self, host: usize, vm: usize, cfg: &ManagerConfig) -> bool {
        if !self.operational[host] || self.draining[host] {
            return false;
        }
        if self.vm_host[vm] == Some(host) {
            return false;
        }
        if self.mem_committed[host] + self.vm_mem[vm] > self.mem_capacity[host] + 1e-9 {
            return false;
        }
        let new_cpu = self.host_pred_cpu[host] + self.predicted_vm[vm];
        new_cpu <= cfg.target_utilization() * self.cpu_capacity[host] + 1e-9
    }

    /// Tentatively moves `vm` to `to`, updating demand and memory views.
    ///
    /// Memory stays committed on the source as well — mirroring the real
    /// cluster, which reserves memory on both endpoints while the
    /// migration is in flight — so subsequent decisions this round remain
    /// conservative.
    ///
    /// # Panics
    ///
    /// Panics if the VM is unplaced or already at `to`.
    pub fn move_vm(&mut self, vm: usize, to: usize) {
        let from = self.vm_host[vm].expect("moving unplaced VM");
        assert_ne!(from, to, "moving VM to its own host");
        self.host_pred_cpu[from] -= self.predicted_vm[vm];
        self.host_pred_cpu[to] += self.predicted_vm[vm];
        self.mem_committed[to] += self.vm_mem[vm];
        self.vms_by_host[from].retain(|&v| v != vm);
        self.vms_by_host[to].push(vm);
        self.vm_host[vm] = Some(to);
        self.inbound_moves[to] += 1;
        // One move per VM per round.
        self.migrating_vm[vm] = true;
        // Both endpoints' utilizations changed; their stored buckets are
        // stale until the overlay folds or the next refresh.
        self.touch_host(from);
        self.touch_host(to);
    }

    /// Marks both endpoints of an undone move stale (the undo restores
    /// their utilizations bitwise, but not necessarily to the bucketed
    /// values if earlier committed moves touched the same hosts).
    pub fn note_undone_move(&mut self, from: usize, to: usize) {
        self.touch_host(from);
        self.touch_host(to);
    }

    /// Movable VMs on `host` (placed there and not migrating).
    pub fn movable_vms(&self, host: usize) -> Vec<usize> {
        self.vms_by_host[host]
            .iter()
            .copied()
            .filter(|&v| !self.migrating_vm[v])
            .collect()
    }

    /// Movable VMs on `host`, ordered for disruption: batch VMs first,
    /// then by descending predicted demand within each class. Used
    /// wherever the manager must pick victims to migrate.
    pub fn disruption_candidates(&self, host: usize) -> Vec<usize> {
        let mut vms = self.movable_vms(host);
        vms.sort_by(|&a, &b| {
            // Batch (true) sorts before interactive (false)...
            self.vm_batch[b]
                .cmp(&self.vm_batch[a])
                // ...then larger predicted demand first.
                .then(
                    self.predicted_vm[b]
                        .partial_cmp(&self.predicted_vm[a])
                        .expect("prediction is finite"),
                )
        });
        vms
    }

    /// Total predicted VM demand, cores.
    pub fn total_predicted(&self) -> f64 {
        debug_assert_eq!(
            self.total_predicted_cache.to_bits(),
            self.predicted_vm.iter().sum::<f64>().to_bits(),
            "stale total-prediction cache"
        );
        self.total_predicted_cache
    }

    /// Chooses the feasible destination for `vm` with the *lowest*
    /// resulting utilization (load-balancing placement, used by DRM).
    ///
    /// Takes `&mut self` only to count the re-scoring work; the scan
    /// itself never mutates the plan. With a live index the answer comes
    /// from an ascending bucket walk instead of the full sweep — the
    /// tie-break (first-wins: lowest index among equal minima) is
    /// preserved exactly, so both paths return the same host.
    pub fn least_loaded_destination(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        if self.index_valid() {
            return self.least_loaded_destination_indexed(vm, cfg);
        }
        self.work.hosts_rescored += self.num_hosts() as u64;
        (0..self.num_hosts())
            .filter(|&h| self.can_accept(h, vm, cfg))
            .min_by(|&a, &b| {
                self.util(a)
                    .partial_cmp(&self.util(b))
                    .expect("utilization is finite")
            })
    }

    /// Chooses the feasible destination for `vm` with the *highest*
    /// resulting utilization (best-fit-decreasing packing, used by
    /// consolidation).
    ///
    /// Takes `&mut self` only to count the re-scoring work; the scan
    /// itself never mutates the plan. With a live index the answer comes
    /// from a descending bucket walk instead of the full sweep — the
    /// tie-break (last-wins: highest index among equal maxima, matching
    /// `Iterator::max_by`) is preserved exactly.
    pub fn tightest_destination(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        if self.index_valid() {
            return self.tightest_destination_indexed(vm, cfg);
        }
        self.work.hosts_rescored += self.num_hosts() as u64;
        (0..self.num_hosts())
            .filter(|&h| self.can_accept(h, vm, cfg))
            .max_by(|&a, &b| {
                self.util(a)
                    .partial_cmp(&self.util(b))
                    .expect("utilization is finite")
            })
    }

    /// Indexed twin of [`least_loaded_destination`]: the touched overlay
    /// is scanned in full, then buckets ascend until the first one
    /// holding a feasible untouched host — which must contain the
    /// untouched minimum, because every host in a later bucket has
    /// strictly larger utilization. The two lexicographic minima merge
    /// into the global first-wins answer.
    ///
    /// [`least_loaded_destination`]: Self::least_loaded_destination
    fn least_loaded_destination_indexed(
        &mut self,
        vm: usize,
        cfg: &ManagerConfig,
    ) -> Option<usize> {
        let mut examined = 0u64;
        let mut best: Option<(f64, usize)> = None;
        for &h in self.index.touched_hosts() {
            let h = h as usize;
            examined += 1;
            if self.can_accept(h, vm, cfg) {
                lex_min(&mut best, (self.util(h), h));
            }
        }
        // CPU-feasibility ceiling — the mirror image of the descending
        // walk's start bound: `can_accept` demands
        // `util ≤ target − vm_pred / cap (+1e-9/cap)`, and
        // `vm_pred / max_cap` underestimates every host's own deduction,
        // so a bucket whose floor exceeds `target − vm_pred/max_cap
        // (+slop)` holds only hosts that reject the VM on CPU grounds.
        // Without this stop a pick with *no* feasible destination
        // ascends through the entire packed fleet, paying one
        // `can_accept` per host — the dominant cost at 64k hosts.
        let slop = if self.index.min_host_cap > 0.0 {
            1e-9 / self.index.min_host_cap
        } else {
            0.0
        };
        let vm_util = if self.index.max_host_cap > 0.0 {
            self.predicted_vm[vm] / self.index.max_host_cap
        } else {
            0.0
        };
        let stop = UtilizationIndex::bucket_of(cfg.target_utilization() - vm_util + slop);
        'walk: for b in 0..=stop {
            // Memory prune: `can_accept` needs `vm_mem ≤ free + 1e-9`,
            // and the bound dominates every untouched member's free
            // memory, so a bucket below the VM's demand holds no
            // feasible destination. At steady state this skips the dense
            // packed-to-memory buckets without examining a single host.
            if self.vm_mem[vm] > self.index.bucket_mem_ub(b) + 1e-9 {
                continue;
            }
            let mut found = false;
            for &h in self.index.bucket_hosts(b) {
                let h = h as usize;
                if self.index.is_touched(h) {
                    continue;
                }
                examined += 1;
                if self.can_accept(h, vm, cfg) {
                    let u = self.util(h);
                    lex_min(&mut best, (u, h));
                    found = true;
                    // A feasible host sitting exactly on the bucket floor
                    // is unbeatable: later in-bucket hosts have util ≥
                    // the floor and a larger index, later buckets are
                    // strictly higher, and the overlay already merged.
                    if u.to_bits() == UtilizationIndex::bucket_floor(b).to_bits() {
                        break 'walk;
                    }
                }
            }
            if found {
                break 'walk;
            }
        }
        self.work.hosts_rescored += examined;
        best.map(|(_, h)| h)
    }

    /// Indexed twin of [`tightest_destination`]: overlay scan plus a
    /// descending bucket walk. The walk starts at the highest bucket any
    /// *feasible* host can occupy for **this** VM: `can_accept` demands
    /// `host_pred + vm_pred ≤ target × capacity (+1e-9)`, i.e.
    /// `util ≤ target − vm_pred / capacity (+slop)`, so every bucket
    /// above `target − vm_pred / max_capacity` holds only hosts that
    /// would reject the VM on CPU grounds. At steady state the fleet's
    /// packed hosts cluster *just below target* — exactly the dense
    /// buckets this VM-specific bound skips — which is what keeps the
    /// per-pick examination count sublinear instead of degenerating to a
    /// scan of the packed cluster.
    ///
    /// [`tightest_destination`]: Self::tightest_destination
    fn tightest_destination_indexed(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        let mut examined = 0u64;
        let mut best: Option<(f64, usize)> = None;
        for &h in self.index.touched_hosts() {
            let h = h as usize;
            examined += 1;
            if self.can_accept(h, vm, cfg) {
                lex_max(&mut best, (self.util(h), h));
            }
        }
        // The `1e-9` core slop translates to at most `1e-9 / min_cap` in
        // utilization; widening the start bucket by that much keeps the
        // prune conservative for any capacity scale. `vm_pred / max_cap`
        // underestimates every host's own `vm_pred / cap` deduction, so
        // the threshold stays an upper bound for heterogeneous fleets.
        let slop = if self.index.min_host_cap > 0.0 {
            1e-9 / self.index.min_host_cap
        } else {
            0.0
        };
        let vm_util = if self.index.max_host_cap > 0.0 {
            self.predicted_vm[vm] / self.index.max_host_cap
        } else {
            0.0
        };
        let start = UtilizationIndex::bucket_of(cfg.target_utilization() - vm_util + slop);
        'walk: for b in (0..=start).rev() {
            // Memory prune — same bound as the ascending walk: no
            // untouched member of a bucket below the VM's memory demand
            // can accept it.
            if self.vm_mem[vm] > self.index.bucket_mem_ub(b) + 1e-9 {
                continue;
            }
            let mut found = false;
            for &h in self.index.bucket_hosts(b) {
                let h = h as usize;
                if self.index.is_touched(h) {
                    continue;
                }
                examined += 1;
                if self.can_accept(h, vm, cfg) {
                    lex_max(&mut best, (self.util(h), h));
                    found = true;
                }
            }
            if found {
                break 'walk;
            }
        }
        self.work.hosts_rescored += examined;
        best.map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HostObservation, PowerPolicy, VmObservation};
    use cluster::HostId;
    use power::PowerState;
    use simcore::SimTime;

    fn obs2() -> ClusterObservation {
        let host = |id: u32, state: PowerState, mem_committed: f64| HostObservation {
            id: HostId(id),
            state,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 32.0,
            mem_committed,
            cpu_demand: 0.0,
            evacuated: mem_committed == 0.0,
            failed_transitions: 0,
            ladder: Default::default(),
        };
        let vm = |h: u32, demand: f64| VmObservation {
            host: Some(HostId(h)),
            cpu_demand: demand,
            cpu_cap: 4.0,
            mem_gb: 8.0,
            migrating: false,
            service_class: Default::default(),
        };
        ClusterObservation {
            now: SimTime::ZERO,
            hosts: vec![host(0, PowerState::On, 16.0), host(1, PowerState::On, 0.0)],
            vms: [vm(0, 3.0), vm(0, 2.0)].into_iter().collect(),
        }
    }

    fn cfg() -> ManagerConfig {
        ManagerConfig::new(PowerPolicy::reactive_suspend())
    }

    #[test]
    fn builds_host_views_from_vms() {
        let ctx = PlanContext::new(&obs2(), vec![3.0, 2.0], &[false, false]);
        assert_eq!(ctx.host_pred_cpu[0], 5.0);
        assert_eq!(ctx.host_pred_cpu[1], 0.0);
        assert_eq!(ctx.util(0), 5.0 / 8.0);
        assert_eq!(ctx.vms_by_host[0], vec![0, 1]);
        assert_eq!(ctx.total_predicted(), 5.0);
    }

    #[test]
    fn move_updates_both_sides() {
        let mut ctx = PlanContext::new(&obs2(), vec![3.0, 2.0], &[false, false]);
        ctx.move_vm(0, 1);
        assert_eq!(ctx.host_pred_cpu[0], 2.0);
        assert_eq!(ctx.host_pred_cpu[1], 3.0);
        // Memory reserved on destination, retained on source.
        assert_eq!(ctx.mem_committed[1], 8.0);
        assert_eq!(ctx.mem_committed[0], 16.0);
        assert_eq!(ctx.vm_host[0], Some(1));
        assert!(ctx.migrating_vm[0]);
        assert_eq!(ctx.movable_vms(0), vec![1]);
    }

    #[test]
    fn can_accept_honours_target_and_memory() {
        let mut ctx = PlanContext::new(&obs2(), vec![3.0, 2.0], &[false, false]);
        let cfg = cfg(); // target 0.75 -> 6.0 cores on an 8-core host
        assert!(ctx.can_accept(1, 0, &cfg));
        // Fill host 1's CPU near target.
        ctx.host_pred_cpu[1] = 5.0;
        assert!(!ctx.can_accept(1, 0, &cfg)); // 5 + 3 > 6
        ctx.host_pred_cpu[1] = 0.0;
        ctx.mem_committed[1] = 30.0;
        assert!(!ctx.can_accept(1, 0, &cfg)); // 30 + 8 > 32
    }

    #[test]
    fn draining_and_non_operational_hosts_rejected() {
        let mut obs = obs2();
        obs.hosts[1].state = PowerState::Suspended;
        let ctx = PlanContext::new(&obs, vec![3.0, 2.0], &[false, false]);
        assert!(!ctx.can_accept(1, 0, &cfg()));

        let ctx2 = PlanContext::new(&obs2(), vec![3.0, 2.0], &[false, true]);
        assert!(!ctx2.can_accept(1, 0, &cfg()));
    }

    #[test]
    fn destination_selection_prefers_right_ends() {
        let mut obs = obs2();
        obs.hosts.push(HostObservation {
            id: HostId(2),
            state: PowerState::On,
            pending: None,
            cpu_capacity: 8.0,
            mem_capacity: 32.0,
            mem_committed: 0.0,
            cpu_demand: 0.0,
            evacuated: true,
            failed_transitions: 0,
            ladder: Default::default(),
        });
        let mut ctx = PlanContext::new(&obs, vec![1.0, 1.0], &[false, false, false]);
        ctx.host_pred_cpu[1] = 3.0; // host1 busier than host2
        let cfg = cfg();
        assert_eq!(ctx.least_loaded_destination(0, &cfg), Some(2));
        assert_eq!(ctx.tightest_destination(0, &cfg), Some(1));
    }
}
