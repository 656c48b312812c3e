//! Model-check of the planner's utilization-bucket index: arbitrary
//! update sequences (in-place re-scores, as in-round tentative moves
//! make, and whole-fleet refreshes in which hosts join or leave, as
//! placements, drains and quarantines make between rounds) are applied
//! both to a [`UtilizationIndex`] and to a naive
//! membership/utilization/free-memory model. After **every** step the
//! index must be exact:
//!
//! * every member host sits in exactly one bucket — the one its current
//!   utilization quantizes to — and every non-member in none;
//! * every bucket's free-memory maximum equals the largest free memory
//!   of the model's members in that bucket (`-inf` when it has none).
//!   Too low would let a walk's memory prune skip a feasible
//!   destination; too high would make it examine a bucket it could skip.
//!
//! Utilizations and free memory are drawn from coarse grids, so hosts
//! often share a bucket and tie on memory — the cases where a bucket's
//! maximum changes hands. At the end a fresh index rebuilt from the
//! model's final state must agree bucket-for-bucket.
//!
//! A second property pins the fixed-shape capacity aggregate: a
//! [`SumTree`] under arbitrary point updates must stay bitwise equal to
//! [`pairwise_sum`] recomputed from scratch — that equality is what lets
//! the indexed planner reuse scan's exact floating-point totals.

use agile_core::{IndexWorkCounters, UtilizationIndex};
use check::gen;
use simcore::{pairwise_sum, SumTree};

/// One scripted index operation.
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

/// The naive model: membership, utilization and free memory per host.
struct Model {
    member: Vec<bool>,
    utils: Vec<f64>,
    mem: Vec<f64>,
}

impl Model {
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
    };
    let mut work = IndexWorkCounters::default();
    for (i, s) in script.iter().enumerate() {
        let (h, util, mem) = (s.host, s.util_pct5 as f64 * 0.05, s.mem_gb4 as f64 * 4.0);
        if s.op == Op::Rescore && !model.member[h] {
            continue;
        }
        (model.utils[h], model.mem[h]) = (util, mem);
        match s.op {
            Op::Rescore => {
                index.rescore(h, util, mem);
            }
            Op::Refresh | Op::Flip => {
                if s.op == Op::Flip {
                    model.member[h] = !model.member[h];
                }
                let m = &model;
                index.refresh(&mut work, |h| m.member[h].then(|| (m.utils[h], m.mem[h])));
            }
        }
        model
            .audit(index)
            .map_err(|e| format!("after step {i} ({s:?}): {e}"))?;
    }
    Ok(model)
}

#[test]
fn index_stays_exact_after_every_step_of_arbitrary_update_sequences() {
    let input = gen::usize_in(1..=24).and_then(|n| steps(n).map(move |s| (n, s)));
    check::check("bucket index == naive model", &input, |(n, script)| {
        let mut index = UtilizationIndex::new();
        let model = replay(&mut index, *n, script).map_err(|e| format!("{n} hosts: {e}"))?;
        // A from-scratch index over the model's final state must agree
        // bucket-for-bucket.
        let mut fresh = UtilizationIndex::new();
        fresh.ensure_hosts(*n);
        fresh.refresh(&mut IndexWorkCounters::default(), |h| {
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
            // Values with awkward mantissas so any re-association of the
            // reduction order shows up as a bit difference.
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
