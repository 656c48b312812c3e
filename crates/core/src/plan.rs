//! Working state for one management round.
//!
//! The manager plans several actions per round; each tentative migration
//! changes the capacity picture for the next decision. `PlanContext`
//! carries that evolving view so the round's actions are mutually
//! consistent (no destination is overcommitted by two moves that were
//! each individually fine).

use cluster::{HostId, HostSpec, ServiceClass, VmSpec};
use power::breakeven::{LadderSummary, LowPowerMode};
use power::PowerState;

use crate::predict::Predictors;
use crate::{ClusterObservation, IndexWorkCounters, ManagerConfig, UtilizationIndex, WorkCounters};

/// Mutable planning view of the cluster for one round.
///
/// The manager builds one instance from its inventory
/// ([`new`](Self::new)), which fills the static vectors and fleet
/// constants once and sizes everything else. Each round
/// [`rebuild`](Self::rebuild) refills the per-round vectors in place, in
/// one ascending pass over the VM columns that also steps the
/// predictors, so they keep their allocations and steady-state planning
/// allocates nothing. Each host's VM list is carried across rounds: the
/// rebuild takes off the previous round's tentative moves and patches
/// only the VMs whose observed host changed.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanContext {
    /// Predicted demand per VM, cores.
    pub predicted_vm: Vec<f64>,
    /// Predicted demand per host after tentative moves, cores.
    pub host_pred_cpu: Vec<f64>,
    /// Committed memory per host after tentative moves, GB.
    pub mem_committed: Vec<f64>,
    /// CPU capacity per host, cores (inventory).
    pub cpu_capacity: Vec<f64>,
    /// Memory capacity per host, GB (inventory).
    pub mem_capacity: Vec<f64>,
    /// Largest host CPU capacity, cores (inventory).
    pub max_host_cap: f64,
    /// Smallest strictly-positive host CPU capacity (0.0 when none), used
    /// to bound the `1e-9` feasibility slop in utilization terms when
    /// pruning descending destination walks (inventory).
    pub min_host_cap: f64,
    /// Each host's power-state ladder (inventory).
    pub ladders: Vec<LadderSummary>,
    /// Whether any host has a C6-class rung, which makes package idle
    /// the fleet's warm state (inventory).
    pub has_c6: bool,
    /// Host is `On`.
    pub operational: Vec<bool>,
    /// Host is `Resuming`/`Booting` (capacity arriving soon).
    pub arriving: Vec<bool>,
    /// Host is marked for evacuation (copied from manager state; mutated
    /// by undrain/drain decisions this round).
    pub draining: Vec<bool>,
    /// VM has a live migration in flight (not movable this round).
    pub migrating_vm: Vec<bool>,
    /// Tentative host of each VM (by index), `None` if unplaced. Carried
    /// across rounds with `vms_by_host`: it names the list each VM is on.
    pub vm_host: Vec<Option<HostId>>,
    /// CPU cap per VM, cores (inventory): bounds each prediction.
    pub vm_cpu_cap: Vec<f64>,
    /// Memory per VM, GB (inventory).
    pub vm_mem: Vec<f64>,
    /// Whether each VM is batch-class, preferred for disruption
    /// (inventory).
    pub vm_batch: Vec<bool>,
    /// VM ids per host under the tentative plan. A rebuild leaves each
    /// list ascending; a tentative move appends the VM to its new
    /// host's list. Carried across rounds (see
    /// [`rebuild`](Self::rebuild)).
    pub vms_by_host: Vec<Vec<u32>>,
    /// VMs tentatively moved onto each host this round, which are the
    /// last entries of its `vms_by_host` list. A receiving host is no
    /// drain candidate: its inbound VMs are not movable (`migrating_vm`),
    /// so a trial evacuation would look complete while the host is
    /// filling up.
    pub inbound_moves: Vec<u32>,
    /// Sum of `predicted_vm`, folded by the rebuild pass (predictions are
    /// immutable within a round, so hot paths read this instead of
    /// re-summing O(VMs)).
    total_predicted_cache: f64,
    /// This round's total measured VM demand, cores, folded by the
    /// rebuild pass in ascending VM order (bitwise
    /// [`ClusterObservation::total_vm_demand`]).
    pub observed_demand: f64,
    /// Deterministic op-counters, accumulated *across* rounds —
    /// [`rebuild`](Self::rebuild) deliberately leaves them untouched.
    pub work: WorkCounters,
    /// Utilization-bucket index every pick walks. Invalidated by every
    /// rebuild (fresh predictions), revalidated by
    /// [`refresh_index`](Self::refresh_index) once per round, before the
    /// first pick.
    pub index: UtilizationIndex,
    /// Index-maintenance op-counters, accumulated across rounds like
    /// [`Self::work`].
    pub index_work: IndexWorkCounters,
}

/// A test host of `cpu` cores and `mem` GB on the stock rack profile
/// (S3 and S5 rungs, no C6).
#[cfg(test)]
pub(crate) fn host_spec(cpu: f64, mem: f64) -> HostSpec {
    HostSpec::new(
        cluster::Resources::new(cpu, mem),
        power::HostPowerProfile::prototype_rack(),
    )
}

/// A test VM capped at `cap` cores with a `mem` GB footprint.
#[cfg(test)]
pub(crate) fn vm_spec(cap: f64, mem: f64) -> VmSpec {
    VmSpec::new(cluster::Resources::new(cap, mem))
}

/// A test fleet at `now`: host `h` is an 8-core, 64 GB host in state
/// `hosts[h].0` carrying one 8-core-capped, 8 GB VM per demand in
/// `hosts[h].1`. Returns the inventory and the round's observation.
#[cfg(test)]
pub(crate) fn test_world(
    now: simcore::SimTime,
    hosts: &[(PowerState, &[f64])],
) -> (Vec<HostSpec>, Vec<VmSpec>, ClusterObservation) {
    use crate::{HostObservation, VmObservation};
    let mut host_obs = Vec::new();
    let mut vms = Vec::new();
    for (h, &(state, demands)) in hosts.iter().enumerate() {
        host_obs.push(HostObservation {
            state,
            mem_committed: demands.len() as f64 * 8.0,
            evacuated: demands.is_empty(),
            ..HostObservation::default()
        });
        vms.extend(demands.iter().map(|&d| VmObservation {
            host: Some(cluster::HostId(h as u32)),
            cpu_demand: d,
            migrating: false,
        }));
    }
    let obs = ClusterObservation {
        now,
        hosts: host_obs,
        vms: vms.into_iter().collect(),
    };
    let host_specs = vec![host_spec(8.0, 64.0); hosts.len()];
    (host_specs, vec![vm_spec(8.0, 8.0); obs.vms.len()], obs)
}

/// The [`test_world`] inventory (as an unbuilt context) and observation
/// of an all-`On` fleet where host `h` carries `host_demands[h]`.
#[cfg(test)]
pub(crate) fn all_on_world(host_demands: &[&[f64]]) -> (PlanContext, ClusterObservation) {
    let on: Vec<_> = host_demands.iter().map(|&d| (PowerState::On, d)).collect();
    let (hosts, vms, obs) = test_world(simcore::SimTime::ZERO, &on);
    (PlanContext::new(&hosts, &vms), obs)
}

/// Moves `vm` from host `from`'s ascending list to host `to`'s (`None` =
/// on no list), keeping both ascending.
fn patch_placement(lists: &mut [Vec<u32>], vm: u32, from: Option<HostId>, to: Option<HostId>) {
    if let Some(h) = from {
        let list = &mut lists[h.index()];
        let pos = list
            .binary_search(&vm)
            .expect("placed VM missing from its host's list");
        list.remove(pos);
    }
    if let Some(h) = to {
        let list = &mut lists[h.index()];
        let pos = list
            .binary_search(&vm)
            .expect_err("VM listed on its new host twice");
        list.insert(pos, vm);
    }
}

/// Each host's VMs in ascending VM order, built from the host column
/// alone: the reference the carried lists must equal.
fn vms_by_host_from_scratch(num_hosts: usize, vm_hosts: &[Option<HostId>]) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); num_hosts];
    for (i, h) in vm_hosts.iter().enumerate() {
        if let Some(h) = h {
            lists[h.index()].push(i as u32);
        }
    }
    lists
}

/// Utilization of a host carrying `pred` cores of predicted demand on
/// `cap` cores (0 for a zero-capacity host).
fn util_of(pred: f64, cap: f64) -> f64 {
    if cap > 0.0 {
        pred / cap
    } else {
        0.0
    }
}

impl PlanContext {
    /// A context for the fleet `hosts` × `vms`: the inventory vectors and
    /// fleet constants are filled here, once, and the per-host and per-VM
    /// round vectors sized (every VM on no host's list); the rest fill at
    /// the first [`rebuild`](Self::rebuild).
    pub fn new(hosts: &[HostSpec], vms: &[VmSpec]) -> Self {
        let cpu_capacity: Vec<f64> = hosts.iter().map(|h| h.capacity().cpu_cores).collect();
        let positive = cpu_capacity.iter().copied().filter(|&c| c > 0.0);
        let ladders: Vec<_> = hosts
            .iter()
            .map(|h| LadderSummary::of(h.profile()))
            .collect();
        PlanContext {
            has_c6: ladders
                .iter()
                .any(|l| l.rung(LowPowerMode::PackageIdle).is_some()),
            ladders,
            mem_capacity: hosts.iter().map(|h| h.capacity().mem_gb).collect(),
            max_host_cap: cpu_capacity.iter().copied().fold(0.0, f64::max),
            min_host_cap: positive.reduce(f64::min).unwrap_or(0.0),
            host_pred_cpu: vec![0.0; hosts.len()],
            vms_by_host: vec![Vec::new(); hosts.len()],
            predicted_vm: vec![0.0; vms.len()],
            vm_host: vec![None; vms.len()],
            inbound_moves: vec![0; hosts.len()],
            cpu_capacity,
            vm_cpu_cap: vms.iter().map(VmSpec::cpu_cap_cores).collect(),
            vm_mem: vms.iter().map(VmSpec::mem_gb).collect(),
            vm_batch: vms
                .iter()
                .map(|v| v.service_class() == ServiceClass::Batch)
                .collect(),
            ..PlanContext::default()
        }
    }

    /// This context rebuilt for one round and its index refreshed, as a
    /// round's picks find it, each VM predicted at its demand (a fresh
    /// last-value predictor).
    #[cfg(test)]
    pub fn with_round(mut self, obs: &ClusterObservation, draining: &[bool]) -> Self {
        let mut predictors = Predictors::new(crate::PredictorConfig::LastValue, obs.vms.len());
        self.rebuild(obs, &mut predictors, draining);
        self.refresh_index();
        self
    }

    /// Refills the per-round vectors in place from this round's
    /// observation, reusing every vector's allocation from the previous
    /// round. The inventory vectors are left as built.
    ///
    /// The host lists and `vm_host` are carried from the previous round.
    /// Its tentative moves come off first: each host's moved-in VMs are
    /// the last `inbound_moves` entries of its list (a VM moves at most
    /// once a round, and moves only ever append), and a moved VM already
    /// left its source list, so cutting those entries and marking their
    /// VMs listed nowhere leaves each list ascending and each VM's
    /// `vm_host` naming the list it is on. Then one ascending pass over
    /// the VM columns feeds each VM's demand to `predictors` and writes
    /// its prediction (clamped to the VM's cap), adds it to its host's
    /// predicted demand and the total, folds the measured total, and
    /// moves the VM between lists, by sorted remove and insert, only
    /// where its observed host differs from `vm_host`. Every sum folds
    /// in ascending VM order from the start value the summed form uses,
    /// so each is bitwise the from-scratch fold; a debug build checks
    /// the lists against a from-scratch build.
    pub fn rebuild(
        &mut self,
        obs: &ClusterObservation,
        predictors: &mut Predictors,
        draining: &[bool],
    ) {
        let nh = self.num_hosts();
        assert_eq!(obs.hosts.len(), nh, "host count differs from the inventory");
        assert_eq!(draining.len(), nh, "drain set length mismatch");
        assert_eq!(
            obs.vms.len(),
            self.num_vms(),
            "VM count differs from the inventory"
        );

        for (list, inbound) in self.vms_by_host.iter_mut().zip(&mut self.inbound_moves) {
            if *inbound > 0 {
                let kept = list.len() - *inbound as usize;
                for &vm in &list[kept..] {
                    self.vm_host[vm as usize] = None;
                }
                list.truncate(kept);
                *inbound = 0;
            }
        }
        let (hosts, demand) = (obs.vms.host(), obs.vms.cpu_demand());
        self.host_pred_cpu.fill(0.0);
        // `-0.0` is the neutral element `Iterator::sum` starts from.
        let (mut total_predicted, mut observed) = (-0.0f64, -0.0f64);
        predictors.step(demand, |i, p| {
            let pred = p.clamp(0.0, self.vm_cpu_cap[i]);
            self.predicted_vm[i] = pred;
            total_predicted += pred;
            observed += demand[i];
            let host = hosts[i];
            if host != self.vm_host[i] {
                patch_placement(&mut self.vms_by_host, i as u32, self.vm_host[i], host);
                self.vm_host[i] = host;
            }
            // A host's predicted demand is the sum of its VMs' predictions
            // in ascending VM order (migration tax is transient; plans are
            // made on VM demand).
            if let Some(h) = host {
                self.host_pred_cpu[h.index()] += pred;
            }
        });
        self.total_predicted_cache = total_predicted;
        self.observed_demand = observed;
        debug_assert_eq!(observed.to_bits(), obs.total_vm_demand().to_bits());
        debug_assert_eq!(
            self.vms_by_host,
            vms_by_host_from_scratch(nh, hosts),
            "carried host lists differ from a from-scratch build"
        );

        self.mem_committed.clear();
        self.mem_committed
            .extend(obs.hosts.iter().map(|h| h.mem_committed));
        self.operational.clear();
        self.operational
            .extend(obs.hosts.iter().map(|h| h.is_operational()));
        self.arriving.clear();
        self.arriving.extend(
            obs.hosts
                .iter()
                .map(|h| matches!(h.state, PowerState::Resuming | PowerState::Booting)),
        );
        self.draining.clear();
        self.draining.extend_from_slice(draining);
        self.migrating_vm.clear();
        self.migrating_vm.extend_from_slice(obs.vms.migrating());
        // Fresh predictions: whatever the bucket index held last round no
        // longer describes the fleet. The per-round refresh revalidates.
        self.index.valid = false;
    }

    /// Rebuilds the utilization-bucket index and capacity aggregates for
    /// this round's predictions.
    ///
    /// The index is refilled in one ascending host pass (one divide and
    /// one push per operational host; see [`UtilizationIndex::refresh`]).
    /// Hosts whose bucket changed since the index last filed them are
    /// counted as `work.index.rebuckets`, which the invariant catalog
    /// bounds by `work.cluster.dirty_marks`: a bucket can only move when
    /// some cluster observation actually changed.
    pub fn refresh_index(&mut self) {
        let n = self.num_hosts();
        self.index.ensure_hosts(n);
        let (ops, pred, cap) = (&self.operational, &self.host_pred_cpu, &self.cpu_capacity);
        let (mem_cap, mem_committed) = (&self.mem_capacity, &self.mem_committed);
        self.index.refresh(&mut self.index_work, |h| {
            ops[h].then(|| (util_of(pred[h], cap[h]), mem_cap[h] - mem_committed[h]))
        });
        // Capacity aggregates: fixed-shape pairwise trees whose roots are
        // bitwise equal to the scan path's `pairwise_sum` over the same
        // leaves. Rebuilt per refresh, leaf-updated on trial drain flips.
        let ops = &self.operational;
        let draining = &self.draining;
        let arriving = &self.arriving;
        self.index
            .active_tree
            .rebuild(n, |h| if ops[h] && !draining[h] { cap[h] } else { 0.0 });
        self.index
            .arriving_tree
            .rebuild(n, |h| if arriving[h] { cap[h] } else { 0.0 });
        self.work.fold_elements += 2 * n as u64;
        self.index.valid = true;
        debug_assert_eq!(self.check_index(), Ok(()));
    }

    /// Audits the index against the plan's live utilizations and free
    /// memory ([`UtilizationIndex::check_membership`]).
    pub(crate) fn check_index(&self) -> Result<(), String> {
        let n = self.num_hosts();
        self.index.check_membership(
            &self.operational,
            &(0..n).map(|h| self.util(h)).collect::<Vec<_>>(),
            &(0..n).map(|h| self.mem_free(h)).collect::<Vec<_>>(),
        )
    }

    /// Re-files `host` in the index after an in-round change to its
    /// utilization or memory (a tentative move or its undo), counting a
    /// bucket change as `work.index.move_rebuckets`. No-op before the
    /// round's refresh and for hosts outside the index.
    pub(crate) fn refile(&mut self, host: usize) {
        if self.index.valid
            && self.index.is_indexed(host)
            && self
                .index
                .rescore(host, self.util(host), self.mem_free(host))
        {
            self.index_work.move_rebuckets += 1;
        }
    }

    /// Flips `draining[host]` for a consolidation trial (or its
    /// rollback), keeping the active-capacity aggregate current once the
    /// round's refresh has built it.
    pub fn set_draining_trial(&mut self, host: usize, draining: bool) {
        self.draining[host] = draining;
        if self.index.valid {
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

    /// Number of VMs.
    pub fn num_vms(&self) -> usize {
        self.vm_mem.len()
    }

    /// Predicted utilization of `host` under the tentative plan.
    pub fn util(&self, host: usize) -> f64 {
        util_of(self.host_pred_cpu[host], self.cpu_capacity[host])
    }

    /// Uncommitted memory of `host` under the tentative plan, GB.
    pub fn mem_free(&self, host: usize) -> f64 {
        self.mem_capacity[host] - self.mem_committed[host]
    }

    /// Whether `host` can accept `vm` under the plan: operational, not
    /// draining, memory fits, and predicted utilization stays at or below
    /// the config's target.
    pub fn can_accept(&self, host: usize, vm: usize, cfg: &ManagerConfig) -> bool {
        if !self.operational[host] || self.draining[host] {
            return false;
        }
        if self.vm_host[vm] == Some(HostId(host as u32)) {
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
        let from = self.vm_host[vm].expect("moving unplaced VM").index();
        assert_ne!(from, to, "moving VM to its own host");
        debug_assert!(!self.migrating_vm[vm], "VM {vm} moved twice in a round");
        self.host_pred_cpu[from] -= self.predicted_vm[vm];
        self.host_pred_cpu[to] += self.predicted_vm[vm];
        self.mem_committed[to] += self.vm_mem[vm];
        self.vms_by_host[from].retain(|&v| v as usize != vm);
        self.vms_by_host[to].push(vm as u32);
        self.vm_host[vm] = Some(HostId(to as u32));
        self.inbound_moves[to] += 1;
        // One move per VM per round.
        self.migrating_vm[vm] = true;
        // Both endpoints' utilizations changed (and the destination's
        // free memory): re-file them so the index stays exact.
        self.refile(from);
        self.refile(to);
    }

    /// Movable VMs on `host` (placed there and not migrating).
    pub fn movable_vms(&self, host: usize) -> Vec<usize> {
        self.vms_by_host[host]
            .iter()
            .map(|&v| v as usize)
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
    /// Takes `&mut self` only to count the re-scoring work; the pick
    /// itself never mutates the plan. The answer comes from an ascending
    /// bucket walk; debug builds check it against
    /// [`scan_least_loaded_destination`](Self::scan_least_loaded_destination)
    /// on every pick.
    pub fn least_loaded_destination(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        debug_assert!(self.index.valid, "destination pick before refresh_index");
        let pick = self.least_loaded_destination_indexed(vm, cfg);
        debug_assert_eq!(
            pick,
            self.scan_least_loaded_destination(vm, cfg),
            "indexed least-loaded destination for VM {vm} differs from the scan"
        );
        pick
    }

    /// Chooses the feasible destination for `vm` with the *highest*
    /// resulting utilization (best-fit-decreasing packing, used by
    /// consolidation).
    ///
    /// Takes `&mut self` only to count the re-scoring work; the pick
    /// itself never mutates the plan. The answer comes from a descending
    /// bucket walk; debug builds check it against
    /// [`scan_tightest_destination`](Self::scan_tightest_destination) on
    /// every pick.
    pub fn tightest_destination(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        debug_assert!(self.index.valid, "destination pick before refresh_index");
        let pick = self.tightest_destination_indexed(vm, cfg);
        debug_assert_eq!(
            pick,
            self.scan_tightest_destination(vm, cfg),
            "indexed tightest destination for VM {vm} differs from the scan"
        );
        pick
    }

    /// Scan twin of [`least_loaded_destination`]: every feasible host,
    /// first-wins among equal minima (`Iterator::min_by`). Charges no
    /// counter.
    ///
    /// [`least_loaded_destination`]: Self::least_loaded_destination
    pub(crate) fn scan_least_loaded_destination(
        &self,
        vm: usize,
        cfg: &ManagerConfig,
    ) -> Option<usize> {
        (0..self.num_hosts())
            .filter(|&h| self.can_accept(h, vm, cfg))
            .min_by(|&a, &b| {
                self.util(a)
                    .partial_cmp(&self.util(b))
                    .expect("utilization is finite")
            })
    }

    /// Scan twin of [`tightest_destination`]: every feasible host,
    /// last-wins among equal maxima (`Iterator::max_by`). Charges no
    /// counter.
    ///
    /// [`tightest_destination`]: Self::tightest_destination
    pub(crate) fn scan_tightest_destination(
        &self,
        vm: usize,
        cfg: &ManagerConfig,
    ) -> Option<usize> {
        (0..self.num_hosts())
            .filter(|&h| self.can_accept(h, vm, cfg))
            .max_by(|&a, &b| {
                self.util(a)
                    .partial_cmp(&self.util(b))
                    .expect("utilization is finite")
            })
    }

    /// The highest bucket a host feasible for `vm` on CPU grounds can
    /// occupy. `can_accept` demands `host_pred + vm_pred ≤ target ×
    /// capacity (+1e-9)`, i.e. `util ≤ target − vm_pred / capacity
    /// (+slop)`. `vm_pred / max_cap` underestimates every host's own
    /// `vm_pred / cap` deduction, and the `1e-9` core slop translates to
    /// at most `1e-9 / min_cap` in utilization, so every bucket above
    /// `target − vm_pred / max_cap + 1e-9 / min_cap` holds only hosts
    /// that would reject the VM, for any capacity mix.
    fn cpu_ceiling_bucket(&self, vm: usize, cfg: &ManagerConfig) -> usize {
        let slop = if self.min_host_cap > 0.0 {
            1e-9 / self.min_host_cap
        } else {
            0.0
        };
        let vm_util = if self.max_host_cap > 0.0 {
            self.predicted_vm[vm] / self.max_host_cap
        } else {
            0.0
        };
        UtilizationIndex::bucket_of(cfg.target_utilization() - vm_util + slop)
    }

    /// Whether no member of bucket `b` has the memory to take `vm`:
    /// `can_accept` needs `vm_mem ≤ free + 1e-9`, and the bucket's
    /// maximum is exactly its freest member's free memory. At steady
    /// state this skips the dense packed-to-memory buckets without
    /// examining a single host.
    fn bucket_lacks_memory(&self, b: usize, vm: usize) -> bool {
        self.vm_mem[vm] > self.index.bucket_mem_max(b) + 1e-9
    }

    /// The indexed body of [`least_loaded_destination`]: buckets ascend
    /// up to the CPU ceiling until the first one holding a feasible host
    /// — which must contain the minimum, because every host in a later
    /// bucket has strictly larger utilization. Without the ceiling a
    /// pick with *no* feasible destination would ascend through the
    /// entire packed fleet, paying one `can_accept` per host.
    ///
    /// [`least_loaded_destination`]: Self::least_loaded_destination
    fn least_loaded_destination_indexed(
        &mut self,
        vm: usize,
        cfg: &ManagerConfig,
    ) -> Option<usize> {
        let mut examined = 0u64;
        let mut best: Option<(f64, usize)> = None;
        for b in 0..=self.cpu_ceiling_bucket(vm, cfg) {
            if self.bucket_lacks_memory(b, vm) {
                continue;
            }
            for &h in self.index.bucket_hosts(b) {
                let h = h as usize;
                examined += 1;
                if self.can_accept(h, vm, cfg) {
                    let u = self.util(h);
                    // Strict `<`: members ascend by index, so the first
                    // of equal minima wins, as in the scan's `min_by`.
                    if best.is_none_or(|(bu, _)| u < bu) {
                        best = Some((u, h));
                    }
                    // A feasible host sitting exactly on the bucket floor
                    // is unbeatable: later in-bucket hosts have util ≥
                    // the floor and a larger index, later buckets are
                    // strictly higher.
                    if u.to_bits() == UtilizationIndex::bucket_floor(b).to_bits() {
                        break;
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        self.work.hosts_rescored += examined;
        best.map(|(_, h)| h)
    }

    /// The indexed body of [`tightest_destination`]: buckets descend from
    /// the CPU ceiling — the highest bucket any host feasible for
    /// **this** VM can occupy — until the first one holding a feasible
    /// host, which must contain the maximum. At steady state the fleet's
    /// packed hosts cluster *just below target* — exactly the dense
    /// buckets this VM-specific bound skips — which is what keeps the
    /// per-pick examination count sublinear instead of degenerating to a
    /// scan of the packed cluster.
    ///
    /// [`tightest_destination`]: Self::tightest_destination
    fn tightest_destination_indexed(&mut self, vm: usize, cfg: &ManagerConfig) -> Option<usize> {
        let mut examined = 0u64;
        let mut best: Option<(f64, usize)> = None;
        for b in (0..=self.cpu_ceiling_bucket(vm, cfg)).rev() {
            if self.bucket_lacks_memory(b, vm) {
                continue;
            }
            for &h in self.index.bucket_hosts(b) {
                let h = h as usize;
                examined += 1;
                if self.can_accept(h, vm, cfg) {
                    let u = self.util(h);
                    // `>=`: members ascend by index, so the last of equal
                    // maxima wins, as in the scan's `max_by`.
                    if best.is_none_or(|(bu, _)| u >= bu) {
                        best = Some((u, h));
                    }
                }
            }
            if best.is_some() {
                break;
            }
        }
        self.work.hosts_rescored += examined;
        best.map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PowerPolicy;

    /// Two `On` 8-core, 64 GB hosts; host 0 carries two 8 GB VMs
    /// predicted at 3 and 2 cores.
    fn world2() -> (PlanContext, ClusterObservation) {
        all_on_world(&[&[3.0, 2.0], &[]])
    }

    fn cfg() -> ManagerConfig {
        ManagerConfig::new(PowerPolicy::reactive_suspend())
    }

    #[test]
    fn builds_host_views_from_vms() {
        let (inv, o) = world2();
        let ctx = inv.with_round(&o, &[false, false]);
        assert_eq!(ctx.host_pred_cpu[0], 5.0);
        assert_eq!(ctx.host_pred_cpu[1], 0.0);
        assert_eq!(ctx.util(0), 5.0 / 8.0);
        assert_eq!(ctx.vms_by_host[0], vec![0, 1]);
        assert_eq!(ctx.total_predicted(), 5.0);
    }

    #[test]
    fn only_resuming_and_booting_hosts_are_arriving() {
        let states = [
            PowerState::On,
            PowerState::Resuming,
            PowerState::Booting,
            PowerState::Suspended,
            PowerState::Suspending,
        ];
        let world: Vec<_> = states.iter().map(|&s| (s, &[][..])).collect();
        let (hosts, vms, o) = test_world(simcore::SimTime::ZERO, &world);
        let ctx = PlanContext::new(&hosts, &vms).with_round(&o, &[false; 5]);
        assert_eq!(ctx.arriving, [false, true, true, false, false]);
        assert_eq!(ctx.operational, [true, false, false, false, false]);
    }

    #[test]
    fn move_updates_both_sides() {
        let (inv, o) = world2();
        let mut ctx = inv.with_round(&o, &[false, false]);
        ctx.move_vm(0, 1);
        assert_eq!(ctx.host_pred_cpu[0], 2.0);
        assert_eq!(ctx.host_pred_cpu[1], 3.0);
        // Memory reserved on destination, retained on source.
        assert_eq!(ctx.mem_committed[1], 8.0);
        assert_eq!(ctx.mem_committed[0], 16.0);
        assert_eq!(ctx.vm_host[0], Some(HostId(1)));
        assert!(ctx.migrating_vm[0]);
        assert_eq!(ctx.movable_vms(0), vec![1]);
    }

    #[test]
    fn can_accept_honours_target_and_memory() {
        let (inv, o) = world2();
        let mut ctx = inv.with_round(&o, &[false, false]);
        let cfg = cfg(); // target 0.75 -> 6.0 cores on an 8-core host
        assert!(ctx.can_accept(1, 0, &cfg));
        // Fill host 1's CPU near target.
        ctx.host_pred_cpu[1] = 5.0;
        assert!(!ctx.can_accept(1, 0, &cfg)); // 5 + 3 > 6
        ctx.host_pred_cpu[1] = 0.0;
        ctx.mem_committed[1] = 60.0;
        assert!(!ctx.can_accept(1, 0, &cfg)); // 60 + 8 > 64
    }

    #[test]
    fn draining_and_non_operational_hosts_rejected() {
        let (inv, mut o) = world2();
        let ctx = inv.clone().with_round(&o, &[false, true]);
        assert!(!ctx.can_accept(1, 0, &cfg()));
        o.hosts[1].state = PowerState::Suspended;
        let ctx = inv.with_round(&o, &[false, false]);
        assert!(!ctx.can_accept(1, 0, &cfg()));
    }

    #[test]
    fn destination_selection_prefers_right_ends() {
        let (inv, o) = all_on_world(&[&[1.0, 1.0], &[], &[]]);
        let mut ctx = inv.with_round(&o, &[false, false, false]);
        ctx.host_pred_cpu[1] = 3.0; // host1 busier than host2
        ctx.refresh_index();
        let cfg = cfg();
        assert_eq!(ctx.least_loaded_destination(0, &cfg), Some(2));
        assert_eq!(ctx.tightest_destination(0, &cfg), Some(1));
    }
}
