//! Indexed candidate planning: utilization-bucketed host indices and
//! fixed-shape capacity aggregates.
//!
//! The consolidation planner repeatedly asks order statistics of the
//! fleet — "least-loaded qualifying drain candidate", "tightest feasible
//! migration destination" — and the scan path answers each query with an
//! O(hosts) sweep. [`UtilizationIndex`] answers the same queries from
//! utilization buckets maintained once per round, so steady-state rounds
//! examine only the few buckets near the decision thresholds.
//!
//! # The bit-identity contract
//!
//! Indexed planning ([`PlanMode::Indexed`]) must produce `SimReport`s
//! bit-identical to the scan planner ([`PlanMode::Scan`]) — the
//! differential suite enforces it. That contract pins three design
//! choices:
//!
//! * **Monotone quantization.** A host's bucket is
//!   `floor(util × 1024)` (clamped), so every host in bucket `b` has
//!   strictly smaller utilization than every host in any bucket
//!   `b' > b`. The winner of a minimum (maximum) query therefore lives
//!   in the first non-empty qualifying bucket of an ascending
//!   (descending) walk, and equal utilizations always share a bucket —
//!   cross-bucket ordering can never reorder a tie.
//! * **Lexicographic tie-breaks.** The scan paths use
//!   `Iterator::min_by` (first-wins: lowest index among equal minima)
//!   and `Iterator::max_by` (last-wins: highest index among equal
//!   maxima). Both are exactly the lexicographic min/max of
//!   `(utilization, host index)`, which is iteration-order independent —
//!   so bucket walks and the touched-host overlay can be merged without
//!   replaying the scan's exact visit order.
//! * **Fixed-shape aggregates.** The drain-candidate capacity gate sums
//!   active and arriving capacity. A running sum updated incrementally
//!   would round differently from the scan's fold, so both modes use the
//!   same fixed-shape pairwise reduction: [`pairwise_sum`] recomputed
//!   from scratch (scan) and [`SumTree`] with O(log n) leaf updates
//!   (indexed) produce bitwise-equal roots by construction — every tree
//!   node is a pure function of its leaves.
//!
//! Only the ordering key (predicted utilization) is indexed. All
//! qualification predicates — operational, draining, hysteresis,
//! quarantine, capacity gates, `can_accept` — are evaluated live per
//! examined host, so the index can never serve a stale answer for
//! anything but the ordering itself, and in-round moves are handled by
//! marking the endpoints *touched*: touched hosts are skipped during
//! bucket walks and re-examined linearly from the overlay instead.

use obs::Json;

/// Consolidation planner selection (scan sweep vs bucket index), the
/// planning analogue of `cluster::AccountingMode`.
///
/// Both modes produce bit-identical `SimReport`s; `Indexed` (the
/// default, and the only production planner) replaces the per-decision
/// O(hosts) sweeps with bucket walks so candidate work per round is
/// sublinear in fleet size at steady state. `Scan` is the reference the
/// differential tests select by name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Full-fleet linear sweeps per decision (the reference semantics).
    Scan,
    /// Utilization-bucketed host indices refreshed once per round.
    #[default]
    Indexed,
}

impl PlanMode {
    /// Stable lowercase label (artifact and CLI naming).
    pub fn label(&self) -> &'static str {
        match self {
            PlanMode::Scan => "scan",
            PlanMode::Indexed => "indexed",
        }
    }
}

/// Buckets per unit of utilization: fine enough that steady-state walks
/// examine few hosts, coarse enough that bucket churn stays cheap.
///
/// A destination walk must examine every untouched member of the bucket
/// it stops in (the lexicographic tie-break needs all of them), so the
/// per-pick cost floor is the population of one bucket around the
/// packed-fleet utilization — at 64k hosts and 1/128 granularity that
/// was hundreds of hosts per pick. Kept a power of two so every bucket
/// floor `b / BUCKETS_PER_UNIT` is exactly representable, which the
/// ascending walk's floor-exit compares bit-for-bit.
const BUCKETS_PER_UNIT: f64 = 1024.0;

/// Highest bucket index; utilizations at or above
/// `MAX_BUCKET / BUCKETS_PER_UNIT` (2.0) all land here. The clamp keeps
/// the walk correct: the top bucket's utilizations still dominate every
/// lower bucket's, and ties within it are resolved by the full
/// within-bucket comparison like everywhere else.
const MAX_BUCKET: usize = 2048;

/// Sentinel for "host is not in any bucket".
const NOT_INDEXED: u32 = u32::MAX;

// The fixed-shape pairwise-summation pair lives in `simcore` (the
// cluster's cached power/capacity totals use it too); re-exported here
// because the planner's aggregates are its original and primary client.
pub use simcore::{pairwise_sum, SumTree};

/// Utilization-bucketed host index with a touched-host overlay, plus the
/// capacity aggregates the drain gate needs ([`SumTree`]s for active and
/// arriving capacity).
///
/// Hosts are bucketed by quantized utilization
/// (`floor(util × 1024)`, clamped); each bucket keeps its hosts sorted
/// ascending so within-bucket iteration is in index order. Membership is
/// the caller's notion of "operational": every operational host is in
/// exactly one bucket, non-operational hosts are in none —
/// [`check_membership`](Self::check_membership) verifies exactly that,
/// and the model-check suite drives arbitrary
/// insert/remove/rescore/touch sequences against a recomputed-from-
/// scratch oracle.
///
/// The index stores only the ordering key. Callers evaluate every
/// qualification predicate live per examined host and handle in-round
/// utilization changes by [`touch`](Self::touch)ing the affected hosts:
/// a touched host's stored bucket is ignored (walks skip it) and the
/// caller re-examines the overlay linearly instead.
#[derive(Debug, Clone, Default)]
pub struct UtilizationIndex {
    /// `buckets[b]` = hosts with quantized utilization `b`, ascending.
    buckets: Vec<Vec<u32>>,
    /// Bucket of each host, `NOT_INDEXED` when absent.
    host_bucket: Vec<u32>,
    /// Overlay membership flag per host.
    touched_flag: Vec<bool>,
    /// Overlay insertion list (order is irrelevant to callers — queries
    /// over the overlay are lexicographic min/max, which are
    /// order-independent).
    touched: Vec<u32>,
    /// Per-bucket upper bound on the free memory (GB) of any *untouched*
    /// member host. Conservatively maintained: raised whenever a host is
    /// inserted or rescored into a bucket, reset to exact values only at
    /// the per-round refresh ([`reset_mem_ubs`](Self::reset_mem_ubs)
    /// followed by a full re-insert/rescore pass). A stale-high bound is
    /// harmless — a walk merely examines a bucket it could have skipped —
    /// while the raise-only discipline guarantees the bound never drops
    /// below a resident host's free memory, so skipping a bucket whose
    /// bound cannot fit a VM is lossless. Touched hosts are exempt: they
    /// live in the overlay, which every walk scans in full.
    bucket_mem_ub: Vec<f64>,
    /// Active capacity aggregate (leaf = capacity if operational and not
    /// draining, else 0.0). Maintained by the planning context.
    pub(crate) active_tree: SumTree,
    /// Arriving capacity aggregate (leaf = capacity if arriving).
    pub(crate) arriving_tree: SumTree,
    /// Largest single-host capacity, recomputed per refresh (constant
    /// within a round: capacities never change mid-round).
    pub(crate) max_host_cap: f64,
    /// Smallest strictly-positive host capacity (0.0 when none), used to
    /// bound the `1e-9` feasibility slop in utilization terms when
    /// pruning descending destination walks.
    pub(crate) min_host_cap: f64,
    /// Whether the bucket contents describe the current round. Set by
    /// the per-round refresh, cleared when the planning context is
    /// rebuilt on fresh predictions.
    pub(crate) valid: bool,
}

impl UtilizationIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a utilization value quantizes to.
    pub fn bucket_of(util: f64) -> usize {
        ((util * BUCKETS_PER_UNIT).floor() as isize).clamp(0, MAX_BUCKET as isize) as usize
    }

    /// Number of bucket slots (fixed).
    pub fn num_buckets() -> usize {
        MAX_BUCKET + 1
    }

    /// The smallest utilization that quantizes into bucket `b` — the
    /// bucket's closed lower boundary. A host whose utilization is
    /// bitwise equal to this floor cannot be beaten by anything later in
    /// an ascending first-wins walk of the same bucket (later hosts have
    /// utilization ≥ the floor and a larger index), which lets dense
    /// boundary buckets — thousands of idle hosts at exactly 0.0 —
    /// terminate in one examination.
    pub fn bucket_floor(b: usize) -> f64 {
        b as f64 / BUCKETS_PER_UNIT
    }

    /// Sizes the per-host tables for `num_hosts`, preserving bucket
    /// contents for hosts that remain in range (allocations are reused
    /// across rounds).
    pub fn ensure_hosts(&mut self, num_hosts: usize) {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); Self::num_buckets()];
            self.bucket_mem_ub = vec![0.0; Self::num_buckets()];
        }
        if self.host_bucket.len() != num_hosts {
            for b in &mut self.buckets {
                b.clear();
            }
            self.bucket_mem_ub.fill(0.0);
            self.host_bucket.clear();
            self.host_bucket.resize(num_hosts, NOT_INDEXED);
            self.touched_flag.clear();
            self.touched_flag.resize(num_hosts, false);
            self.touched.clear();
        }
    }

    /// Resets every bucket's free-memory upper bound to zero, ahead of a
    /// refresh pass that re-inserts or rescores every member (each such
    /// call raises its bucket's bound back to the member's live free
    /// memory). Without the periodic reset the raise-only bounds would
    /// ratchet upward forever and stop pruning anything.
    pub fn reset_mem_ubs(&mut self) {
        self.bucket_mem_ub.fill(0.0);
    }

    /// Upper bound on the free memory of any untouched host in bucket
    /// `b`. A walk may skip the bucket entirely when the VM's memory
    /// demand exceeds this bound (plus the feasibility slop) — no
    /// resident host can accept it.
    pub fn bucket_mem_ub(&self, b: usize) -> f64 {
        self.bucket_mem_ub[b]
    }

    /// Whether `host` currently sits in a bucket.
    pub fn is_indexed(&self, host: usize) -> bool {
        self.host_bucket[host] != NOT_INDEXED
    }

    /// The bucket `host` currently sits in, if any.
    pub fn bucket_of_host(&self, host: usize) -> Option<usize> {
        match self.host_bucket[host] {
            NOT_INDEXED => None,
            b => Some(b as usize),
        }
    }

    /// Hosts in bucket `b`, ascending by index.
    pub fn bucket_hosts(&self, b: usize) -> &[u32] {
        &self.buckets[b]
    }

    /// Inserts `host` with utilization `util`.
    ///
    /// # Panics
    ///
    /// Panics if the host is already indexed.
    pub fn insert(&mut self, host: usize, util: f64, mem_free: f64) {
        assert!(!self.is_indexed(host), "host {host} already indexed");
        let b = Self::bucket_of(util);
        let list = &mut self.buckets[b];
        let pos = list.partition_point(|&h| (h as usize) < host);
        list.insert(pos, host as u32);
        self.host_bucket[host] = b as u32;
        if mem_free > self.bucket_mem_ub[b] {
            self.bucket_mem_ub[b] = mem_free;
        }
    }

    /// Removes `host` from its bucket.
    ///
    /// # Panics
    ///
    /// Panics if the host is not indexed.
    pub fn remove(&mut self, host: usize) {
        let b = self.host_bucket[host];
        assert!(b != NOT_INDEXED, "host {host} not indexed");
        let list = &mut self.buckets[b as usize];
        let pos = list
            .binary_search(&(host as u32))
            .expect("indexed host missing from its bucket");
        list.remove(pos);
        self.host_bucket[host] = NOT_INDEXED;
    }

    /// Moves `host` to the bucket for `util` if it changed; returns
    /// whether a move happened. The destination bucket's free-memory
    /// bound is raised to cover `mem_free` even when the bucket is
    /// unchanged — an overlay fold can hand back a host whose free
    /// memory grew (a rolled-back migration released its reservation).
    ///
    /// # Panics
    ///
    /// Panics if the host is not indexed.
    pub fn rescore(&mut self, host: usize, util: f64, mem_free: f64) -> bool {
        let b = self.host_bucket[host];
        assert!(b != NOT_INDEXED, "host {host} not indexed");
        let target = Self::bucket_of(util) as u32;
        if target == b {
            if mem_free > self.bucket_mem_ub[b as usize] {
                self.bucket_mem_ub[b as usize] = mem_free;
            }
            return false;
        }
        self.remove(host);
        self.insert(host, util, mem_free);
        true
    }

    /// Marks `host` touched (its in-round utilization diverged from its
    /// bucket); returns whether it was newly touched.
    pub fn touch(&mut self, host: usize) -> bool {
        if self.touched_flag[host] {
            return false;
        }
        self.touched_flag[host] = true;
        self.touched.push(host as u32);
        true
    }

    /// Whether `host` is in the touched overlay.
    pub fn is_touched(&self, host: usize) -> bool {
        self.touched_flag[host]
    }

    /// The touched overlay, in insertion order.
    pub fn touched_hosts(&self) -> &[u32] {
        &self.touched
    }

    /// Number of touched hosts.
    pub fn overlay_len(&self) -> usize {
        self.touched.len()
    }

    /// Clears the touched overlay.
    pub fn clear_touched(&mut self) {
        for &h in &self.touched {
            self.touched_flag[h as usize] = false;
        }
        self.touched.clear();
    }

    /// Verifies the membership invariant against ground truth: every
    /// host with `member[h]` true sits in exactly one bucket — the
    /// bucket of `utils[h]` unless the host is touched — every
    /// non-member is in no bucket, every bucket list is strictly
    /// ascending, and no untouched member's free memory (`mem_free[h]`)
    /// exceeds its bucket's free-memory upper bound (which would let a
    /// walk skip a feasible destination). Returns a description of the
    /// first violation.
    pub fn check_membership(
        &self,
        member: &[bool],
        utils: &[f64],
        mem_free: &[f64],
    ) -> Result<(), String> {
        let mut seen = vec![0u32; member.len()];
        for (b, list) in self.buckets.iter().enumerate() {
            for pair in list.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("bucket {b} is not strictly ascending: {list:?}"));
                }
            }
            for &h in list {
                let h = h as usize;
                if h >= member.len() {
                    return Err(format!("bucket {b} holds out-of-range host {h}"));
                }
                seen[h] += 1;
                if self.host_bucket[h] != b as u32 {
                    return Err(format!(
                        "host {h} is in bucket {b} but host_bucket says {}",
                        self.host_bucket[h]
                    ));
                }
                if !self.touched_flag[h] && Self::bucket_of(utils[h]) != b {
                    return Err(format!(
                        "untouched host {h} (util {}) sits in bucket {b}, expected {}",
                        utils[h],
                        Self::bucket_of(utils[h])
                    ));
                }
                if !self.touched_flag[h] && mem_free[h] > self.bucket_mem_ub[b] {
                    return Err(format!(
                        "untouched host {h} has {} GB free but bucket {b}'s bound is {} — \
                         a memory-pruned walk could skip a feasible destination",
                        mem_free[h], self.bucket_mem_ub[b]
                    ));
                }
            }
        }
        for (h, &m) in member.iter().enumerate() {
            let count = seen[h];
            if m && count != 1 {
                return Err(format!("member host {h} is in {count} buckets, expected 1"));
            }
            if !m && count != 0 {
                return Err(format!("non-member host {h} is in {count} buckets"));
            }
        }
        Ok(())
    }
}

/// Deterministic op-counters for the index maintenance work, the
/// `work.index.*` siblings of [`crate::WorkCounters`].
///
/// Like the plan counters these are pure functions of the scenario seed
/// and count logical work on the coordinating side. They are
/// mode-variant by design — a `Scan` run leaves them at zero — and the
/// invariant catalog pins `rebuckets <= work.cluster.dirty_marks`: a
/// host may only change bucket when some cluster observation actually
/// changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexWorkCounters {
    /// Per-round index refresh passes.
    pub refreshes: u64,
    /// Hosts moved between buckets by a refresh (utilization drift).
    pub rebuckets: u64,
    /// Hosts newly inserted (initial build, hosts turning operational).
    pub inserts: u64,
    /// Hosts removed (hosts leaving the operational set).
    pub removes: u64,
    /// Hosts re-bucketed by in-round overlay compaction (the overlay
    /// exceeded its size bound mid-round and was folded back).
    pub overlay_folds: u64,
}

impl IndexWorkCounters {
    /// `(name suffix, value)` pairs in stable order, for folding into a
    /// metrics registry under a `work.index.` prefix.
    pub fn entries(&self) -> [(&'static str, u64); 5] {
        [
            ("refreshes", self.refreshes),
            ("rebuckets", self.rebuckets),
            ("inserts", self.inserts),
            ("removes", self.removes),
            ("overlay_folds", self.overlay_folds),
        ]
    }

    /// JSON object rendering (for bench artifacts).
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.entries()
                .iter()
                .map(|&(k, v)| (k.to_string(), Json::Int(v as i64)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_matches_tree_after_updates() {
        for n in [0usize, 1, 2, 3, 5, 8, 13, 100] {
            let leaf = |i: usize| (i as f64) * 0.1 + 0.003;
            let mut tree = SumTree::new();
            tree.rebuild(n, leaf);
            assert_eq!(tree.root().to_bits(), pairwise_sum(n, leaf).to_bits());
            // Update a few leaves and re-check bitwise equality against
            // a from-scratch pairwise sum of the new values.
            if n > 0 {
                let mut vals: Vec<f64> = (0..n).map(leaf).collect();
                for step in 0..n.min(7) {
                    let i = (step * 3) % n;
                    vals[i] = 1.0 / (step as f64 + 3.0);
                    tree.set(i, vals[i]);
                    assert_eq!(
                        tree.root().to_bits(),
                        pairwise_sum(n, |j| vals[j]).to_bits(),
                        "n={n} step={step}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_quantization_is_monotone_and_clamped() {
        assert_eq!(UtilizationIndex::bucket_of(0.0), 0);
        assert_eq!(UtilizationIndex::bucket_of(0.5), 512);
        assert!(UtilizationIndex::bucket_of(0.49) < UtilizationIndex::bucket_of(0.51));
        assert_eq!(UtilizationIndex::bucket_of(1e9), MAX_BUCKET);
        assert_eq!(UtilizationIndex::bucket_of(-0.5), 0);
        // Equal utils share a bucket (ties stay intra-bucket).
        assert_eq!(
            UtilizationIndex::bucket_of(0.333),
            UtilizationIndex::bucket_of(0.333)
        );
    }

    #[test]
    fn insert_remove_rescore_keep_membership() {
        let mut idx = UtilizationIndex::new();
        idx.ensure_hosts(4);
        let mut utils = [0.1, 0.5, 0.5, 0.9];
        let mem = [4.0, 8.0, 2.0, 0.0];
        let member = [true, true, true, false];
        for h in 0..3 {
            idx.insert(h, utils[h], mem[h]);
        }
        idx.check_membership(&member, &utils, &mem).unwrap();
        // Hosts 1 and 2 share a bucket, ascending; the bucket's memory
        // bound covers the freer of the two.
        assert_eq!(idx.bucket_hosts(UtilizationIndex::bucket_of(0.5)), &[1, 2]);
        assert_eq!(idx.bucket_mem_ub(UtilizationIndex::bucket_of(0.5)), 8.0);
        utils[1] = 0.2;
        assert!(idx.rescore(1, utils[1], mem[1]));
        assert!(!idx.rescore(1, utils[1], mem[1]));
        idx.check_membership(&member, &utils, &mem).unwrap();
        idx.remove(2);
        assert!(idx
            .check_membership(&member, &utils, &mem)
            .unwrap_err()
            .contains("member host 2"));
    }

    #[test]
    fn mem_bound_raises_only_and_resets_exactly() {
        let mut idx = UtilizationIndex::new();
        idx.ensure_hosts(2);
        let utils = [0.4, 0.4];
        idx.insert(0, utils[0], 6.0);
        idx.insert(1, utils[1], 2.0);
        let b = UtilizationIndex::bucket_of(0.4);
        assert_eq!(idx.bucket_mem_ub(b), 6.0);
        // Same-bucket rescore with more free memory raises the bound…
        assert!(!idx.rescore(1, utils[1], 9.0));
        assert_eq!(idx.bucket_mem_ub(b), 9.0);
        // …a lower value never lowers it (raise-only between resets)…
        assert!(!idx.rescore(1, utils[1], 1.0));
        assert_eq!(idx.bucket_mem_ub(b), 9.0);
        // …and an under-bound ground truth is caught by the audit.
        assert!(idx
            .check_membership(&[true, true], &utils, &[6.0, 10.0])
            .unwrap_err()
            .contains("memory-pruned"));
        // The refresh pattern — reset, then rescore every member —
        // restores the exact per-bucket maximum.
        idx.reset_mem_ubs();
        assert!(!idx.rescore(0, utils[0], 6.0));
        assert!(!idx.rescore(1, utils[1], 2.0));
        assert_eq!(idx.bucket_mem_ub(b), 6.0);
        idx.check_membership(&[true, true], &utils, &[6.0, 2.0])
            .unwrap();
    }

    #[test]
    fn touched_hosts_are_exempt_from_bucket_accuracy() {
        let mut idx = UtilizationIndex::new();
        idx.ensure_hosts(2);
        let mut utils = [0.1, 0.8];
        let mem = [4.0, 4.0];
        idx.insert(0, utils[0], mem[0]);
        idx.insert(1, utils[1], mem[1]);
        utils[0] = 0.7; // drifted in-round
        assert!(idx.check_membership(&[true, true], &utils, &mem).is_err());
        assert!(idx.touch(0));
        assert!(!idx.touch(0));
        idx.check_membership(&[true, true], &utils, &mem).unwrap();
        idx.clear_touched();
        assert!(!idx.is_touched(0));
    }

    #[test]
    fn index_counter_entries_cover_every_field_once() {
        let w = IndexWorkCounters {
            refreshes: 1,
            rebuckets: 2,
            inserts: 3,
            removes: 4,
            overlay_folds: 5,
        };
        let mut values: Vec<u64> = w.entries().iter().map(|&(_, v)| v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3, 4, 5]);
        assert_eq!(w.to_json().get("rebuckets").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn plan_mode_labels() {
        assert_eq!(PlanMode::default(), PlanMode::Indexed);
        assert_eq!(PlanMode::Scan.label(), "scan");
        assert_eq!(PlanMode::Indexed.label(), "indexed");
    }
}
