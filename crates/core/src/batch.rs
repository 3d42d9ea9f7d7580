//! Fused batch execution: many small Match1 jobs as **one** sweep.
//!
//! A service handling thousands of small-list match requests pays the
//! per-job pipeline overhead (pass setup, parallel-chunk scheduling,
//! buffer touches) once *per job* — at a few dozen nodes per list that
//! overhead dominates the actual coin tossing. This module coalesces
//! jobs into a single concatenated arena: every job's nodes are laid
//! out at an offset, the cyclic-successor array maps each job's tail
//! back to *its own* head, and one relabel sweep relabels
//! the whole concatenation. The finisher then runs per job on its label
//! slice.
//!
//! **Bit identity.** A job's labels start as its *local* addresses
//! (`labels[off + v] = v`), its successors never leave `[off, off+n)`,
//! and the coin-tossing widths depend only on the bound cascade — so a
//! fused job's labels evolve exactly as they would solo, provided every
//! job in the batch shares the cascade parameters. That is the
//! [`BatchKey`]: initial width class `⌈log₂ n⌉`, convergence round
//! count, and coin variant. (Width class alone is not enough: `n = 9`
//! converges in 0 rounds while `n = 16` needs 1, though both have width
//! 4.) The `fused_batch_matches_solo_runs` test pins the identity
//! against per-job [`Runner`](crate::runner::Runner) runs.

use crate::labels::{convergence_rounds, relabel_rounds};
use crate::match1::Match1Output;
use crate::matching::Matching;
use crate::obs::NoopObserver;
use crate::workspace::Workspace;
use crate::CoinVariant;
use parmatch_bits::{cascade_bound, ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;

/// Grouping key under which Match1 jobs fuse bit-identically: jobs with
/// equal keys share every width of the coin-tossing cascade and the
/// round count, so one fused sweep reproduces each solo run exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    width: u32,
    rounds: u32,
    variant: CoinVariant,
}

impl BatchKey {
    /// The key for a Match1 job on a list of `n` nodes, or `None` when
    /// the job is not batchable (`n < 2` — no pointers to match).
    pub fn of(n: usize, variant: CoinVariant) -> Option<BatchKey> {
        if n < 2 {
            return None;
        }
        Some(BatchKey {
            width: ilog2_ceil(n as Word).max(1),
            rounds: convergence_rounds(n as Word),
            variant,
        })
    }

    /// Relabel rounds every job with this key runs.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Offsets of a fused batch: job `j`'s nodes occupy
/// `offsets[j] .. offsets[j+1]` of the concatenated arena.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    key: BatchKey,
    offsets: Vec<usize>,
}

impl BatchPlan {
    /// Plan a fused run over `lists`. Returns `None` when the batch is
    /// empty, any list is too small to batch, or the lists do not all
    /// share one [`BatchKey`] — callers group by key first.
    pub fn new(lists: &[&LinkedList], variant: CoinVariant) -> Option<BatchPlan> {
        let key = BatchKey::of(lists.first()?.len(), variant)?;
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for list in lists {
            if BatchKey::of(list.len(), variant)? != key {
                return None;
            }
            acc += list.len();
            offsets.push(acc);
        }
        // NodeId arithmetic must not wrap in the concatenated arena.
        u32::try_from(acc).ok()?;
        Some(BatchPlan { key, offsets })
    }

    /// The shared batch key.
    pub fn key(&self) -> BatchKey {
        self.key
    }

    /// Number of jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total nodes across all jobs (the concatenated arena size).
    pub fn total_nodes(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Job boundary offsets (`jobs() + 1` entries, starting at 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// Run Match1 on every job of a fused batch with **one** relabel sweep
/// over the concatenated arena, finishing each job on its label slice.
/// Outputs are bit-identical to per-job [`Runner`](crate::Runner) Match1
/// runs (matching, round count, and final bound alike). Per-node scratch
/// lives in `ws`, so a steady-state rerun of equal total size allocates
/// only the returned outputs and `O(jobs)` bookkeeping.
///
/// # Panics
///
/// Panics if `lists` does not match the `plan` (wrong job count or
/// sizes).
pub fn match1_batch_in(
    lists: &[&LinkedList],
    plan: &BatchPlan,
    ws: &mut Workspace,
) -> Vec<Match1Output> {
    assert_eq!(lists.len(), plan.jobs(), "plan/job count mismatch");
    ws.prepare_batch_next_cyc(lists, plan.offsets());
    ws.prepare_batch_local_labels(plan.offsets());

    // One fused sweep over the concatenation. Any representative of the
    // width class yields the same per-round widths; use the first job's
    // size, exactly what its solo run would start from.
    {
        let Workspace {
            next_cyc,
            labels_a,
            labels_b,
            ..
        } = &mut *ws;
        let next_cyc: &[NodeId] = next_cyc;
        relabel_rounds(
            &|u: NodeId| next_cyc[u as usize],
            labels_a,
            labels_b,
            lists[0].len() as Word,
            plan.key.rounds,
            plan.key.variant,
            &mut NoopObserver,
        );
    }

    // Batched finish: one parallel pass whose items are whole *jobs*,
    // not nodes. Each job finishes with a single sequential traversal in
    // list order: the previous node's label *is* the predecessor label
    // the local-minima test needs, so the cut decision, the sublist-walk
    // marks (even offsets, resetting after each cut), and the
    // matched-node bits all fall out of one pointer chase — no pred
    // inversion, no separate cut/walk/scatter passes. Every per-node
    // decision reads exactly the inputs the per-job
    // `finish::from_labels_core` passes would (walk marks are
    // node-disjoint, and a cut node never receives one), so the marks —
    // and the matching — are bit-identical to a solo run, while a batch
    // of B small jobs costs a handful of parallel dispatches instead of
    // B × (passes per job).
    let total = plan.total_nodes();
    let rounds = plan.key.rounds;
    let Workspace {
        labels_a,
        cut,
        matched,
        ..
    } = &mut *ws;
    cut.resize(total, false);
    matched.resize_with(total, || std::sync::atomic::AtomicBool::new(false));
    let labels: &[Word] = labels_a;

    struct JobWindow<'a> {
        list: &'a LinkedList,
        labels: &'a [Word],
        cut: &'a mut [bool],
        matched: &'a mut [std::sync::atomic::AtomicBool],
    }

    let mut windows = Vec::with_capacity(lists.len());
    {
        let (mut cr, mut dr) = (&mut cut[..total], &mut matched[..total]);
        for (j, list) in lists.iter().enumerate() {
            let (off, end) = (plan.offsets[j], plan.offsets[j + 1]);
            assert_eq!(end - off, list.len(), "plan/list size mismatch at {j}");
            let n = end - off;
            let (c, ct) = cr.split_at_mut(n);
            let (d, dt) = dr.split_at_mut(n);
            (cr, dr) = (ct, dt);
            windows.push(JobWindow {
                list,
                labels: &labels[off..end],
                cut: c,
                matched: d,
            });
        }
    }
    windows
        .into_par_iter()
        .map(|w| {
            let JobWindow {
                list,
                labels,
                cut,
                matched,
            } = w;
            let n = list.len();
            let next: &[NodeId] = list.next_array();
            for a in matched.iter_mut() {
                *a.get_mut() = false;
            }
            let mut final_mask = vec![false; n];
            // The fused cut + walk traversal. `offset` is the position
            // within the current sublist; a cut node ends its sublist
            // unmarked and the next node starts a fresh one.
            let mut prev_label: Option<Word> = None;
            let mut offset = 0usize;
            let mut v = list.head() as usize;
            loop {
                let lv = labels[v];
                let w = next[v];
                let c = if w == NIL {
                    false
                } else {
                    let left_higher = match prev_label {
                        None => true,
                        Some(pl) => pl > lv,
                    };
                    left_higher && labels[w as usize] > lv
                };
                cut[v] = c;
                if c {
                    offset = 0;
                } else if w != NIL {
                    if offset.is_multiple_of(2) {
                        final_mask[v] = true;
                        *matched[v].get_mut() = true;
                        *matched[w as usize].get_mut() = true;
                    }
                    offset += 1;
                }
                if w == NIL {
                    break;
                }
                prev_label = Some(lv);
                v = w as usize;
            }
            // Fix-up: re-add a deleted pointer both of whose endpoints
            // stayed free (cut nodes carry no walk mark, so this only
            // ever turns marks on).
            for v in 0..n {
                if cut[v]
                    && next[v] != NIL
                    && !*matched[v].get_mut()
                    && !*matched[next[v] as usize].get_mut()
                {
                    final_mask[v] = true;
                }
            }
            Match1Output {
                matching: Matching::from_mask_unchecked(list, final_mask),
                rounds,
                final_bound: cascade_bound(n as Word, rounds),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, Runner};
    use crate::verify;
    use parmatch_list::{random_list, sequential_list};

    /// The solo run a fused job must reproduce.
    fn solo_run(list: &LinkedList, variant: CoinVariant) -> Match1Output {
        Runner::new(Algorithm::Match1)
            .variant(variant)
            .run(list)
            .as_match1()
            .cloned()
            .expect("Match1 outcome")
    }

    #[test]
    fn key_splits_width_class_by_rounds() {
        // n = 9 and n = 16 share width 4 but differ in round count —
        // fusing them would change n = 16's labels, so the key must
        // separate them.
        let k9 = BatchKey::of(9, CoinVariant::Msb).unwrap();
        let k16 = BatchKey::of(16, CoinVariant::Msb).unwrap();
        assert_eq!(k9.width, k16.width);
        assert_ne!(k9, k16);
        assert!(BatchKey::of(0, CoinVariant::Msb).is_none());
        assert!(BatchKey::of(1, CoinVariant::Msb).is_none());
        assert_ne!(
            BatchKey::of(64, CoinVariant::Msb),
            BatchKey::of(64, CoinVariant::Lsb)
        );
    }

    #[test]
    fn plan_rejects_mixed_keys_and_tiny_lists() {
        let a = random_list(40, 1);
        let b = random_list(200, 2); // different width class
        let tiny = sequential_list(1);
        assert!(BatchPlan::new(&[], CoinVariant::Msb).is_none());
        assert!(BatchPlan::new(&[&a, &b], CoinVariant::Msb).is_none());
        assert!(BatchPlan::new(&[&a, &tiny], CoinVariant::Msb).is_none());
        let plan = BatchPlan::new(&[&a, &a], CoinVariant::Msb).unwrap();
        assert_eq!(plan.jobs(), 2);
        assert_eq!(plan.total_nodes(), 80);
        assert_eq!(plan.offsets(), &[0, 40, 80]);
    }

    #[test]
    fn fused_batch_matches_solo_runs() {
        // Mixed sizes within one width class (33..=64 all share
        // width 6 / 2 rounds), reused workspace, vs solo runs.
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            let lists: Vec<_> = (0..17u64)
                .map(|s| random_list(33 + (s as usize * 13) % 32, s))
                .collect();
            let refs: Vec<&LinkedList> = lists.iter().collect();
            let plan = BatchPlan::new(&refs, variant).expect("one width class");
            let mut ws = Workspace::new();
            let outs = match1_batch_in(&refs, &plan, &mut ws);
            assert_eq!(outs.len(), lists.len());
            for (list, out) in lists.iter().zip(&outs) {
                let solo = solo_run(list, variant);
                assert_eq!(out.matching, solo.matching, "n={}", list.len());
                assert_eq!(out.rounds, solo.rounds);
                assert_eq!(out.final_bound, solo.final_bound);
                verify::assert_maximal_matching(list, &out.matching);
            }
        }
    }

    #[test]
    fn batch_of_one_matches_solo() {
        let list = random_list(100, 9);
        let plan = BatchPlan::new(&[&list], CoinVariant::Msb).unwrap();
        let out = match1_batch_in(&[&list], &plan, &mut Workspace::new());
        let solo = solo_run(&list, CoinVariant::Msb);
        assert_eq!(out[0].matching, solo.matching);
    }

    #[test]
    fn zero_round_class_fuses_too() {
        // n ∈ {8, 9} share width ≤ 4 with 0 convergence rounds? n=8:
        // cascade 8 → 7 shrinks, so rounds ≥ 1; n=9 has rounds 0 — use
        // same-size batches instead for the degenerate-round case.
        let lists: Vec<_> = (0..5u64).map(|s| random_list(9, s)).collect();
        let refs: Vec<&LinkedList> = lists.iter().collect();
        let plan = BatchPlan::new(&refs, CoinVariant::Msb).expect("same size, same key");
        assert_eq!(plan.key().rounds(), 0);
        let outs = match1_batch_in(&refs, &plan, &mut Workspace::new());
        for (list, out) in lists.iter().zip(&outs) {
            let solo = solo_run(list, CoinVariant::Msb);
            assert_eq!(out.matching, solo.matching);
            assert_eq!(out.final_bound, solo.final_bound);
        }
    }

    #[test]
    fn workspace_reuse_across_batches() {
        let mut ws = Workspace::new();
        for seed in 0..4u64 {
            let lists: Vec<_> = (0..8u64).map(|s| random_list(48, seed * 100 + s)).collect();
            let refs: Vec<&LinkedList> = lists.iter().collect();
            let plan = BatchPlan::new(&refs, CoinVariant::Msb).unwrap();
            let reused = match1_batch_in(&refs, &plan, &mut ws);
            let fresh = match1_batch_in(&refs, &plan, &mut Workspace::new());
            for (a, b) in reused.iter().zip(&fresh) {
                assert_eq!(a.matching, b.matching, "seed {seed}");
            }
        }
    }
}
