//! Indexed candidate planning: utilization-bucketed host indices and
//! fixed-shape capacity aggregates.
//!
//! The consolidation planner repeatedly asks order statistics of the
//! fleet — "least-loaded qualifying drain candidate", "tightest feasible
//! migration destination" — which a naive planner answers with an
//! O(hosts) sweep per query. [`UtilizationIndex`] answers the same
//! queries from utilization buckets maintained once per round, so
//! steady-state rounds examine only the few buckets near the decision
//! thresholds.
//!
//! # The bit-identity contract
//!
//! Each indexed pick equals its scan twin, checked on every pick in
//! debug: `PlanContext::{least_loaded_destination,
//! tightest_destination}` and `consolidate::pick_candidate` each
//! `debug_assert_eq!` their answer against a private `scan_*` sweep of
//! the whole fleet (the scans charge no `work.*` counter, so debug and
//! release builds count the same). That contract pins three design
//! choices:
//!
//! * **Monotone quantization.** A host's bucket is
//!   `floor(util × 1024)` (clamped), so every host in bucket `b` has
//!   strictly smaller utilization than every host in any bucket
//!   `b' > b`. The winner of a minimum (maximum) query therefore lives
//!   in the first non-empty qualifying bucket of an ascending
//!   (descending) walk, and equal utilizations always share a bucket —
//!   cross-bucket ordering can never reorder a tie.
//! * **Index-order tie-breaks.** The scan twins use `Iterator::min_by`
//!   (first-wins: lowest index among equal minima) and
//!   `Iterator::max_by` (last-wins: highest index among equal maxima).
//!   Each bucket lists its hosts in ascending index order and a walk
//!   takes its answer from a single bucket, so a strict `<` (first
//!   wins) or a `>=` (last wins) within that bucket reproduces the
//!   scan's choice among equal utilizations.
//! * **Fixed-shape aggregates.** The drain-candidate capacity gate sums
//!   active and arriving capacity. A running sum updated incrementally
//!   would round differently from the scan's fold, so both paths use the
//!   same fixed-shape pairwise reduction:
//!   [`pairwise_sum`](simcore::pairwise_sum) recomputed from scratch
//!   (the scan twin) and [`SumTree`] with O(log n) leaf updates (the
//!   index) produce bitwise-equal roots by construction — every tree
//!   node is a pure function of its leaves.
//!
//! The index is exact at all times: every member sits in the bucket of
//! its current utilization, and every bucket knows the exact maximum free
//! memory of its members. A tentative move (or its undo) re-files both
//! endpoints in place, so a walk never re-examines moved hosts apart from
//! the buckets, and a destination walk skips in O(1) every bucket in
//! which no member has room for the VM. Only the ordering key and the
//! memory maximum are indexed; every qualification predicate —
//! operational, draining, hysteresis, quarantine, capacity gates,
//! `can_accept` — is evaluated live per examined host.

/// Has no effect: the utilization-bucket index is the only planner (each
/// pick is checked against a full-fleet scan in debug builds instead).
/// Kept only because the frozen `perfbench` benchmark still names
/// `PlanMode::Indexed`; ROADMAP item 2's benchmark change removes that
/// call and then this enum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PlanMode {
    /// Utilization-bucketed host indices refreshed once per round.
    #[default]
    Indexed,
}

/// Buckets per unit of utilization: fine enough that steady-state walks
/// examine few hosts, coarse enough that bucket churn stays cheap.
///
/// A destination walk must examine every member of the bucket it stops
/// in (the index-order tie-break needs all of them), so the
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

use simcore::SumTree;

use crate::work::{Count, WorkTable};

/// Utilization-bucketed host index with an exact free-memory maximum per
/// bucket, plus the capacity aggregates the drain gate needs
/// ([`SumTree`]s for active and arriving capacity).
///
/// Hosts are bucketed by quantized utilization
/// (`floor(util × 1024)`, clamped); each bucket keeps its hosts sorted
/// ascending so within-bucket iteration is in index order. Membership is
/// the caller's notion of "operational": every operational host is in
/// exactly one bucket, non-operational hosts are in none. Each member is
/// filed with its utilization and free memory, and each bucket holds the
/// exact maximum of its members' filed free memory. Hosts join and
/// leave at the per-round [`refresh`](Self::refresh); in-round changes
/// re-file a member with [`rescore`](Self::rescore).
/// [`check_membership`](Self::check_membership) verifies all of it
/// against ground truth, and this module's model check drives arbitrary
/// rescore/refresh sequences against a recomputed-from-scratch model.
#[derive(Debug, Clone, Default)]
pub(crate) struct UtilizationIndex {
    /// `buckets[b]` = hosts with quantized utilization `b`, ascending.
    buckets: Vec<Vec<u32>>,
    /// Bucket of each host, `NOT_INDEXED` when absent.
    host_bucket: Vec<u32>,
    /// Free memory (GB) each member was last filed with; meaningless for
    /// non-members.
    host_mem: Vec<f64>,
    /// Exact maximum of `host_mem` over each bucket's members
    /// (`-inf` for an empty bucket). Raised in O(1) when a member is filed
    /// above it; recomputed from the bucket's members only when the
    /// member holding it shrinks or leaves. A walk skips a bucket whose
    /// maximum cannot fit the VM, so the bound must never sit below a
    /// member's free memory — and, being exact, it never sits above all
    /// of them either, so no skippable bucket is ever examined.
    bucket_mem_max: Vec<f64>,
    /// Active capacity aggregate (leaf = capacity if operational and not
    /// draining, else 0.0). Maintained by the planning context.
    pub(crate) active_tree: SumTree,
    /// Arriving capacity aggregate (leaf = capacity if arriving).
    pub(crate) arriving_tree: SumTree,
    /// Whether the bucket contents describe the current round. Set by
    /// the per-round refresh, cleared when the planning context is
    /// rebuilt on fresh predictions.
    pub(crate) valid: bool,
}

impl UtilizationIndex {
    /// The bucket a utilization value quantizes to.
    pub(crate) fn bucket_of(util: f64) -> usize {
        ((util * BUCKETS_PER_UNIT).floor() as isize).clamp(0, MAX_BUCKET as isize) as usize
    }

    /// Number of bucket slots (fixed).
    fn num_buckets() -> usize {
        MAX_BUCKET + 1
    }

    /// The smallest utilization that quantizes into bucket `b` — the
    /// bucket's closed lower boundary. A host whose utilization is
    /// bitwise equal to this floor cannot be beaten by anything later in
    /// an ascending first-wins walk of the same bucket (later hosts have
    /// utilization ≥ the floor and a larger index), which lets dense
    /// boundary buckets — thousands of idle hosts at exactly 0.0 —
    /// terminate in one examination.
    pub(crate) fn bucket_floor(b: usize) -> f64 {
        b as f64 / BUCKETS_PER_UNIT
    }

    /// Sizes the per-host tables for `num_hosts`, preserving bucket
    /// contents for hosts that remain in range (allocations are reused
    /// across rounds).
    pub(crate) fn ensure_hosts(&mut self, num_hosts: usize) {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); Self::num_buckets()];
            self.bucket_mem_max = vec![f64::NEG_INFINITY; Self::num_buckets()];
        }
        if self.host_bucket.len() != num_hosts {
            for b in &mut self.buckets {
                b.clear();
            }
            self.bucket_mem_max.fill(f64::NEG_INFINITY);
            self.host_bucket.clear();
            self.host_bucket.resize(num_hosts, NOT_INDEXED);
            self.host_mem.clear();
            self.host_mem.resize(num_hosts, 0.0);
        }
    }

    /// The exact maximum free memory (GB) of any member of bucket `b`
    /// (`-inf` when the bucket is empty). A walk may skip the bucket
    /// entirely when the VM's memory demand exceeds it (plus the
    /// feasibility slop) — no member can accept the VM.
    pub(crate) fn bucket_mem_max(&self, b: usize) -> f64 {
        self.bucket_mem_max[b]
    }

    /// Whether `host` currently sits in a bucket.
    pub(crate) fn is_indexed(&self, host: usize) -> bool {
        self.host_bucket[host] != NOT_INDEXED
    }

    /// The bucket `host` currently sits in, if any.
    fn bucket_of_host(&self, host: usize) -> Option<usize> {
        match self.host_bucket[host] {
            NOT_INDEXED => None,
            b => Some(b as usize),
        }
    }

    /// Hosts in bucket `b`, ascending by index.
    pub(crate) fn bucket_hosts(&self, b: usize) -> &[u32] {
        &self.buckets[b]
    }

    /// Re-files `host` at utilization `util` with `mem_free` GB free;
    /// returns whether it changed bucket. Both buckets' memory maxima
    /// stay exact.
    ///
    /// # Panics
    ///
    /// Panics if the host is not indexed.
    pub(crate) fn rescore(&mut self, host: usize, util: f64, mem_free: f64) -> bool {
        let from = self
            .bucket_of_host(host)
            .unwrap_or_else(|| panic!("host {host} not indexed"));
        let to = Self::bucket_of(util);
        if from != to {
            self.unlink(host);
            self.link(host, to);
        }
        let old_mem = self.host_mem[host];
        let held_max = old_mem == self.bucket_mem_max[from];
        self.file_mem(host, to, mem_free);
        // The old maximum's holder shrank (same bucket) or left (other
        // bucket): only then can the bucket's maximum fall.
        if held_max && (from != to || mem_free < old_mem) {
            self.recompute_mem_max(from);
        }
        from != to
    }

    /// Refills the index in one ascending host pass: `filing(h)` is
    /// `Some((util, mem_free))` for a member and `None` for a non-member.
    ///
    /// Every bucket is emptied and each member pushed onto its bucket in
    /// host order, so the lists come out ascending without a search or a
    /// shift. Comparing each host's previous bucket with its new one
    /// counts inserts, removals and bucket changes into `work`. The
    /// memory maxima start at `-inf` and each member raises its bucket's
    /// once, so they are exact when the pass ends.
    pub(crate) fn refresh(
        &mut self,
        work: &mut WorkTable,
        mut filing: impl FnMut(usize) -> Option<(f64, f64)>,
    ) {
        work.add(Count::IndexRefreshes, 1);
        for list in &mut self.buckets {
            list.clear();
        }
        self.bucket_mem_max.fill(f64::NEG_INFINITY);
        for h in 0..self.host_bucket.len() {
            let previous = self.host_bucket[h];
            let Some((util, mem_free)) = filing(h) else {
                if previous != NOT_INDEXED {
                    work.add(Count::Removes, 1);
                }
                self.host_bucket[h] = NOT_INDEXED;
                continue;
            };
            let b = Self::bucket_of(util);
            if previous == NOT_INDEXED {
                work.add(Count::Inserts, 1);
            } else if previous != b as u32 {
                work.add(Count::Rebuckets, 1);
            }
            self.buckets[b].push(h as u32);
            self.host_bucket[h] = b as u32;
            self.file_mem(h, b, mem_free);
        }
    }

    /// Adds `host` to bucket `b`'s sorted list.
    fn link(&mut self, host: usize, b: usize) {
        let list = &mut self.buckets[b];
        let pos = list.partition_point(|&h| (h as usize) < host);
        list.insert(pos, host as u32);
        self.host_bucket[host] = b as u32;
    }

    /// Takes `host` out of its bucket's list.
    fn unlink(&mut self, host: usize) {
        let b = self.host_bucket[host];
        assert!(b != NOT_INDEXED, "host {host} not indexed");
        let list = &mut self.buckets[b as usize];
        let pos = list
            .binary_search(&(host as u32))
            .expect("indexed host missing from its bucket");
        list.remove(pos);
        self.host_bucket[host] = NOT_INDEXED;
    }

    /// Files `host`'s free memory and raises bucket `b`'s maximum to it.
    fn file_mem(&mut self, host: usize, b: usize, mem_free: f64) {
        self.host_mem[host] = mem_free;
        if mem_free > self.bucket_mem_max[b] {
            self.bucket_mem_max[b] = mem_free;
        }
    }

    /// Recomputes bucket `b`'s memory maximum from its members.
    fn recompute_mem_max(&mut self, b: usize) {
        let host_mem = &self.host_mem;
        self.bucket_mem_max[b] = self.buckets[b]
            .iter()
            .map(|&h| host_mem[h as usize])
            .fold(f64::NEG_INFINITY, f64::max);
    }

    /// Verifies the index against ground truth: every host with
    /// `member[h]` true sits in exactly one bucket — the bucket of
    /// `utils[h]` — filed with `mem_free[h]`; every non-member is in no
    /// bucket; every bucket list is strictly ascending; and every
    /// bucket's memory maximum equals the largest `mem_free` among its
    /// members (a lower one would let a walk skip a feasible destination,
    /// a higher one would make it examine a bucket it could skip).
    /// Returns a description of the first violation.
    pub(crate) fn check_membership(
        &self,
        member: &[bool],
        utils: &[f64],
        mem_free: &[f64],
    ) -> Result<(), String> {
        let mut seen = vec![0u32; member.len()];
        for (b, list) in self.buckets.iter().enumerate() {
            if list.is_empty() && self.bucket_mem_max[b] == f64::NEG_INFINITY {
                continue;
            }
            for pair in list.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(format!("bucket {b} is not strictly ascending: {list:?}"));
                }
            }
            let mut max = f64::NEG_INFINITY;
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
                if Self::bucket_of(utils[h]) != b {
                    return Err(format!(
                        "host {h} (util {}) sits in bucket {b}, expected {}",
                        utils[h],
                        Self::bucket_of(utils[h])
                    ));
                }
                if self.host_mem[h] != mem_free[h] {
                    return Err(format!(
                        "host {h} is filed with {} GB free but has {} GB",
                        self.host_mem[h], mem_free[h]
                    ));
                }
                max = max.max(mem_free[h]);
            }
            if self.bucket_mem_max[b] != max {
                return Err(format!(
                    "bucket {b}'s memory maximum is {} GB but its freest member has {max} GB",
                    self.bucket_mem_max[b]
                ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use check::gen;
    use simcore::pairwise_sum;

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

    /// An index filed from `member`/`utils`/`mem` by one refresh pass.
    fn filed(member: &[bool], utils: &[f64], mem: &[f64]) -> UtilizationIndex {
        let mut idx = UtilizationIndex::default();
        idx.ensure_hosts(member.len());
        idx.refresh(&mut WorkTable::default(), |h| {
            member[h].then_some((utils[h], mem[h]))
        });
        idx
    }

    #[test]
    fn rescore_keeps_membership_and_maxima_exact() {
        let mut utils = [0.1, 0.5, 0.5, 0.9];
        let mem = [4.0, 8.0, 2.0, 0.0];
        let member = [true, true, true, false];
        let mut idx = filed(&member, &utils, &mem);
        idx.check_membership(&member, &utils, &mem).unwrap();
        // Hosts 1 and 2 share a bucket, ascending; the bucket's memory
        // maximum is the freer of the two, and an empty bucket has none.
        let b = UtilizationIndex::bucket_of(0.5);
        assert_eq!(idx.bucket_hosts(b), &[1, 2]);
        assert_eq!(idx.bucket_mem_max(b), 8.0);
        assert_eq!(
            idx.bucket_mem_max(UtilizationIndex::bucket_of(0.9)),
            f64::NEG_INFINITY
        );
        utils[1] = 0.2;
        assert!(idx.rescore(1, utils[1], mem[1]));
        assert!(!idx.rescore(1, utils[1], mem[1]));
        // The holder left: the maximum falls to the remaining member.
        assert_eq!(idx.bucket_mem_max(b), 2.0);
        idx.check_membership(&member, &utils, &mem).unwrap();
        assert!(idx
            .check_membership(&[true; 4], &utils, &mem)
            .unwrap_err()
            .contains("member host 3"));
    }

    #[test]
    fn mem_max_tracks_its_holder_exactly() {
        let mut utils = [0.4, 0.4, 0.4];
        let b = UtilizationIndex::bucket_of(0.4);
        let mut mem = [6.0, 2.0, 6.0];
        let mut idx = filed(&[true; 3], &utils, &mem);
        assert_eq!(idx.bucket_mem_max(b), 6.0);
        // A same-bucket rescore with more free memory raises it…
        mem[1] = 9.0;
        assert!(!idx.rescore(1, utils[1], mem[1]));
        assert_eq!(idx.bucket_mem_max(b), 9.0);
        // …the holder shrinking lowers it to the next-freest member…
        mem[1] = 1.0;
        assert!(!idx.rescore(1, utils[1], mem[1]));
        assert_eq!(idx.bucket_mem_max(b), 6.0);
        // …a tied holder shrinking leaves its twin's value in place…
        mem[0] = 3.0;
        assert!(!idx.rescore(0, utils[0], mem[0]));
        assert_eq!(idx.bucket_mem_max(b), 6.0);
        // …and a non-holder shrinking changes nothing.
        mem[0] = 0.5;
        assert!(!idx.rescore(0, utils[0], mem[0]));
        assert_eq!(idx.bucket_mem_max(b), 6.0);
        idx.check_membership(&[true; 3], &utils, &mem).unwrap();
        // The last holder leaving exposes the remaining maximum.
        utils[2] = 0.8;
        assert!(idx.rescore(2, utils[2], mem[2]));
        assert_eq!(idx.bucket_mem_max(b), 1.0);
        idx.check_membership(&[true; 3], &utils, &mem).unwrap();
    }

    #[test]
    fn audit_rejects_a_stale_memory_maximum_either_way() {
        let utils = [0.4, 0.4];
        let idx = filed(&[true, true], &utils, &[6.0, 2.0]);
        // Ground truth freer than filed: the maximum is too low, and a
        // memory-pruned walk could skip a feasible destination.
        let err = idx
            .check_membership(&[true, true], &utils, &[6.0, 10.0])
            .unwrap_err();
        assert!(err.contains("filed with 2 GB free"), "{err}");
        // Ground truth tighter than filed: too high, a wasted examination.
        let err = idx
            .check_membership(&[true, true], &utils, &[5.0, 2.0])
            .unwrap_err();
        assert!(err.contains("filed with 6 GB free"), "{err}");
        // A host filed in the wrong bucket is caught too.
        let err = idx
            .check_membership(&[true, true], &[0.7, 0.4], &[6.0, 2.0])
            .unwrap_err();
        assert!(err.contains("sits in bucket"), "{err}");
    }

    #[test]
    fn refresh_refiles_every_host_and_rebuilds_exact_maxima() {
        let mut idx = UtilizationIndex::default();
        idx.ensure_hosts(4);
        let mut work = WorkTable::default();
        let counts = |work: &WorkTable, counts: &[Count]| -> Vec<u64> {
            counts.iter().map(|&c| work.get(c)).collect()
        };
        let mut member = [true, true, true, false];
        let mut utils = [0.1, 0.5, 0.5, 0.9];
        let mut mem = [4.0, 8.0, 2.0, 0.0];
        let filing = |m: &[bool; 4], u: &[f64; 4], f: &[f64; 4]| {
            let (m, u, f) = (*m, *u, *f);
            move |h: usize| m[h].then_some((u[h], f[h]))
        };
        idx.refresh(&mut work, filing(&member, &utils, &mem));
        idx.check_membership(&member, &utils, &mem).unwrap();
        assert_eq!(
            counts(&work, &[Count::IndexRefreshes, Count::Inserts]),
            [1, 3]
        );
        // Host 1 (the bucket's holder) shrinks in place, host 2 moves,
        // host 0 leaves and host 3 joins: one pass makes it all exact.
        mem[1] = 1.0;
        utils[2] = 0.7;
        member[0] = false;
        member[3] = true;
        idx.refresh(&mut work, filing(&member, &utils, &mem));
        idx.check_membership(&member, &utils, &mem).unwrap();
        assert_eq!(idx.bucket_mem_max(UtilizationIndex::bucket_of(0.5)), 1.0);
        assert_eq!(
            counts(
                &work,
                &[
                    Count::IndexRefreshes,
                    Count::Inserts,
                    Count::Removes,
                    Count::Rebuckets
                ]
            ),
            [2, 4, 1, 1]
        );
        // A host moved to another bucket in-round and refreshed back at
        // its old utilization changed bucket since it was last filed.
        assert!(idx.rescore(1, 0.9, mem[1]));
        idx.refresh(&mut work, filing(&member, &utils, &mem));
        idx.check_membership(&member, &utils, &mem).unwrap();
        assert_eq!(
            counts(&work, &[Count::IndexRefreshes, Count::Rebuckets]),
            [3, 2]
        );
    }

    /// One scripted index operation of the model check.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Op {
        /// Re-file a member at a new utilization and free memory (an
        /// in-round move or its undo); no-op for a non-member.
        Rescore,
        /// Give the host the new utilization and free memory, then refresh
        /// the whole index from the model (the per-round refresh pass).
        Refresh,
        /// As `Refresh`, but the host also joins or leaves (a host turning
        /// operational, or powering down / entering quarantine).
        Flip,
    }

    /// Utilization arrives as a multiple of 5% so counterexamples shrink to
    /// readable integers and hosts often share a bucket; values above 100%
    /// exercise the over-committed (util > 1) clamp range. Free memory
    /// arrives in 4 GB steps so bucket maxima often tie.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Step {
        op: Op,
        host: usize,
        util_pct5: u64,
        mem_gb4: u64,
    }

    fn steps(num_hosts: usize) -> gen::Gen<Vec<Step>> {
        let step = gen::one_of(vec![Op::Rescore, Op::Refresh, Op::Flip])
            .zip(&gen::usize_in(0..=num_hosts - 1))
            .zip(&gen::u64_in(0..=50))
            .zip(&gen::u64_in(0..=8))
            .map(|(((op, host), util_pct5), mem_gb4)| Step {
                op,
                host,
                util_pct5,
                mem_gb4,
            });
        gen::vec_of(&step, 0..=120)
    }

    /// The naive model: membership, utilization and free memory per host,
    /// the bucket the index last filed each host in, and the refresh counts.
    struct Model {
        member: Vec<bool>,
        utils: Vec<f64>,
        mem: Vec<f64>,
        filed: Vec<Option<usize>>,
        work: WorkTable,
    }

    impl Model {
        /// Counts one refresh: every host's new bucket against the one it
        /// was last filed in.
        fn refresh(&mut self) {
            self.work.add(Count::IndexRefreshes, 1);
            for h in 0..self.member.len() {
                let now = self.member[h].then(|| UtilizationIndex::bucket_of(self.utils[h]));
                match (self.filed[h], now) {
                    (None, Some(_)) => self.work.add(Count::Inserts, 1),
                    (Some(_), None) => self.work.add(Count::Removes, 1),
                    (Some(a), Some(b)) if a != b => self.work.add(Count::Rebuckets, 1),
                    _ => {}
                }
                self.filed[h] = now;
            }
        }

        /// Audits `index` against the model: the index's own membership
        /// check, then every bucket's maximum against one recomputed here.
        fn audit(&self, index: &UtilizationIndex) -> Result<(), String> {
            index.check_membership(&self.member, &self.utils, &self.mem)?;
            let mut max = vec![f64::NEG_INFINITY; UtilizationIndex::num_buckets()];
            for h in (0..self.member.len()).filter(|&h| self.member[h]) {
                let b = UtilizationIndex::bucket_of(self.utils[h]);
                max[b] = max[b].max(self.mem[h]);
            }
            for (b, &m) in max.iter().enumerate() {
                if index.bucket_mem_max(b) != m {
                    return Err(format!(
                        "bucket {b}'s memory maximum is {} but the model's is {m}",
                        index.bucket_mem_max(b)
                    ));
                }
            }
            Ok(())
        }
    }

    /// Replays `script` against the index and the model, auditing after
    /// every step; returns the model's final state.
    fn replay(
        index: &mut UtilizationIndex,
        num_hosts: usize,
        script: &[Step],
    ) -> Result<Model, String> {
        index.ensure_hosts(num_hosts);
        let mut model = Model {
            member: vec![false; num_hosts],
            utils: vec![0.0; num_hosts],
            mem: vec![0.0; num_hosts],
            filed: vec![None; num_hosts],
            work: WorkTable::default(),
        };
        let mut work = WorkTable::default();
        for (i, s) in script.iter().enumerate() {
            let (h, util, mem) = (s.host, s.util_pct5 as f64 * 0.05, s.mem_gb4 as f64 * 4.0);
            if s.op == Op::Rescore && !model.member[h] {
                continue;
            }
            (model.utils[h], model.mem[h]) = (util, mem);
            match s.op {
                Op::Rescore => {
                    index.rescore(h, util, mem);
                    model.filed[h] = Some(UtilizationIndex::bucket_of(util));
                }
                Op::Refresh | Op::Flip => {
                    if s.op == Op::Flip {
                        model.member[h] = !model.member[h];
                    }
                    let m = &model;
                    index.refresh(&mut work, |h| m.member[h].then(|| (m.utils[h], m.mem[h])));
                    model.refresh();
                }
            }
            model
                .audit(index)
                .map_err(|e| format!("after step {i} ({s:?}): {e}"))?;
            if work != model.work {
                return Err(format!(
                    "after step {i} ({s:?}): index counted {work:?}, the model {:?}",
                    model.work
                ));
            }
        }
        Ok(model)
    }

    /// Model check of the index: arbitrary update sequences (in-place
    /// re-scores, as in-round tentative moves make, and whole-fleet
    /// refreshes in which hosts join or leave, as placements, drains and
    /// quarantines make between rounds) are applied both to an index and
    /// to a naive membership/utilization/free-memory model. After
    /// **every** step the index must be exact:
    ///
    /// * every member host sits in exactly one bucket — the one its
    ///   current utilization quantizes to — and every non-member in none;
    /// * every bucket's free-memory maximum equals the largest free memory
    ///   of the model's members in that bucket (`-inf` when it has none).
    ///   Too low would let a walk's memory prune skip a feasible
    ///   destination; too high would make it examine a bucket it could
    ///   skip.
    ///
    /// Utilizations and free memory are drawn from coarse grids, so hosts
    /// often share a bucket and tie on memory — the cases where a bucket's
    /// maximum changes hands. At the end a fresh index rebuilt from the
    /// model's final state must agree bucket-for-bucket.
    ///
    /// The model also keeps the bucket the index last filed each host in
    /// (by a refresh or an in-round re-score) and counts, per refresh, the
    /// hosts that join, leave or change bucket against it. After every
    /// step the index's `work.index.*` counts must equal the model's —
    /// the figures the counter baseline pins. So a host re-scored into
    /// another bucket in-round and refreshed back counts as a bucket
    /// change.
    #[test]
    fn index_stays_exact_after_every_step_of_arbitrary_update_sequences() {
        let input = gen::usize_in(1..=24).and_then(|n| steps(n).map(move |s| (n, s)));
        check::check("bucket index == naive model", &input, |(n, script)| {
            let mut index = UtilizationIndex::default();
            let model = replay(&mut index, *n, script).map_err(|e| format!("{n} hosts: {e}"))?;
            let mut fresh = UtilizationIndex::default();
            fresh.ensure_hosts(*n);
            fresh.refresh(&mut WorkTable::default(), |h| {
                model.member[h].then(|| (model.utils[h], model.mem[h]))
            });
            for b in 0..UtilizationIndex::num_buckets() {
                check::prop_assert_eq!(
                    index.bucket_hosts(b),
                    fresh.bucket_hosts(b),
                    "bucket {b} diverged from the from-scratch rebuild"
                );
                check::prop_assert_eq!(
                    index.bucket_mem_max(b),
                    fresh.bucket_mem_max(b),
                    "bucket {b}'s memory maximum diverged from the from-scratch rebuild"
                );
            }
            Ok(())
        });
    }

    /// The fixed-shape capacity aggregate: a [`SumTree`] under arbitrary
    /// point updates stays bitwise equal to [`pairwise_sum`] recomputed
    /// from scratch — the equality that lets the drain gate read the
    /// scan's exact floating-point totals.
    #[test]
    fn sum_tree_stays_bitwise_equal_to_pairwise_recomputation() {
        let input = gen::usize_in(0..=33).and_then(|n| {
            let update = gen::usize_in(0..=n.max(1) - 1).zip(&gen::u64_in(0..=1_000_000));
            gen::vec_of(&update, 0..=60).map(move |ups| (n, ups))
        });
        check::check("SumTree == pairwise_sum", &input, |(n, updates)| {
            let mut leaves = vec![0.0f64; *n];
            let mut tree = SumTree::new();
            tree.rebuild(*n, |i| leaves[i]);
            for &(i, raw) in updates {
                if *n == 0 {
                    break;
                }
                // Values with awkward mantissas so any re-association of
                // the reduction order shows up as a bit difference.
                let v = raw as f64 / 3.0 + (raw as f64).sqrt();
                leaves[i] = v;
                tree.set(i, v);
            }
            let reference = pairwise_sum(*n, |i| leaves[i]);
            check::prop_assert_eq!(
                tree.root().to_bits(),
                reference.to_bits(),
                "tree root {} != pairwise reference {}",
                tree.root(),
                reference
            );
            for (i, leaf) in leaves.iter().enumerate().take(*n) {
                check::prop_assert_eq!(tree.leaf(i).to_bits(), leaf.to_bits());
            }
            Ok(())
        });
    }
}
