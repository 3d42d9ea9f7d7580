//! A reusable buffer arena for the native match pipeline.
//!
//! Pass one to [`Runner::workspace`](crate::Runner::workspace) (or to
//! [`match1_batch_in`](crate::match1_batch_in)). After the first call on
//! a given list size, every per-node array (labels,
//! successor/predecessor caches, cut masks, walkdown colors, greedy
//! buckets, grid storage) lives here and is resized (a no-op when the
//! size is unchanged) and refilled in parallel, so a rerun allocates no
//! per-node scratch.
//!
//! A rerun is not allocation-free. It allocates its outputs, and the
//! rayon shim adds bookkeeping bounded by the thread count: a few small
//! allocations per part of each parallel pass, and a second copy of
//! every output built by its ordered `collect` (per-part vectors, then
//! their concatenation). A `Runner` run therefore allocates about twice
//! its returned `Matching` (plus twice the `PointerSets` for Match2);
//! a fused batch writes its masks in place and allocates them once. The
//! counting-allocator test `tests/alloc_steady_state.rs` asserts that
//! the bytes beyond those copies do not grow with `n`.
//!
//! The crate forbids `unsafe`, so buffers that are written by parallel
//! *scatters* (predecessor inversion, walk marks, bucket placement) are
//! atomics written with `Relaxed` ordering: every target slot has a
//! unique writer within a pass (or the write is idempotent), so the
//! results are deterministic and bit-identical to a sequential run.

use parmatch_bits::Word;
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};

use crate::table::TupleTable;
use crate::walkdown::{GridStorage, UNCOLORED};
use crate::CoinVariant;

/// Elements per parallel chunk for plain per-node passes: large enough
/// to amortize scheduling, small enough to keep a chunk's working set
/// in L1/L2.
pub(crate) const CHUNK: usize = 1 << 13;

/// Reusable buffers for the native Match1–Match4 pipelines.
///
/// # Examples
///
/// ```
/// use parmatch_core::prelude::*;
/// use parmatch_list::random_list;
///
/// let list = random_list(10_000, 1);
/// let mut ws = Workspace::new();
/// let a = Runner::new(Algorithm::Match1).workspace(&mut ws).run(&list);
/// let b = Runner::new(Algorithm::Match1).workspace(&mut ws).run(&list); // reuses buffers
/// assert_eq!(a.matching(), b.matching());
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// Cached cyclic-successor array (branch-free `suc`).
    pub(crate) next_cyc: Vec<NodeId>,
    /// Scatter target for predecessor inversion.
    pub(crate) pred_atomic: Vec<AtomicU32>,
    /// Plain predecessor array (copied out of `pred_atomic`).
    pub(crate) pred: Vec<NodeId>,
    /// Label double buffer A (holds the result after relabel rounds).
    pub(crate) labels_a: Vec<Word>,
    /// Label double buffer B.
    pub(crate) labels_b: Vec<Word>,
    /// Match3 jump-pointer double buffer A.
    pub(crate) nxt_a: Vec<NodeId>,
    /// Match3 jump-pointer double buffer B.
    pub(crate) nxt_b: Vec<NodeId>,
    /// Local-minima cut mask.
    pub(crate) cut: Vec<bool>,
    /// Walk marks (pointer tails taken by the sublist walk).
    pub(crate) mask: Vec<AtomicBool>,
    /// Matched-node mask for the fix-up pass.
    pub(crate) matched: Vec<AtomicBool>,
    /// Greedy sweep DONE array.
    pub(crate) done: Vec<AtomicBool>,
    /// Greedy sweep matched-tail marks.
    pub(crate) greedy_mask: Vec<AtomicBool>,
    /// Bucket scatter target (pointer tails grouped by set).
    pub(crate) bucket_nodes: Vec<AtomicU32>,
    /// Per-chunk × per-set histogram / cursor matrix for bucketing.
    pub(crate) hist: Vec<usize>,
    /// Exclusive start offsets of each set's bucket (+ final total).
    pub(crate) set_starts: Vec<usize>,
    /// Walkdown color array.
    pub(crate) colors: Vec<AtomicU8>,
    /// WalkDown2 per-column `(index, count)` pipeline state.
    pub(crate) walk_state: Vec<(usize, Word)>,
    /// Raw per-tail set array (Match4 partition, then its color classes).
    pub(crate) sets: Vec<Word>,
    /// Grid build scratch: `(sort key, node)` pairs in column order.
    pub(crate) grid_pairs: Vec<(Word, NodeId)>,
    /// Grid build scratch: row-of scatter target.
    pub(crate) row_scatter: Vec<AtomicU32>,
    /// Storage loaned to [`crate::walkdown::Grid`] and taken back.
    pub(crate) grid_store: GridStorage,
    /// Cached Match3 lookup table, keyed by its build parameters.
    pub(crate) table_cache: Option<((u32, u32, CoinVariant, u32), TupleTable)>,
}

/// Size `v` to `n` slots, all `false` (reused allocations are cleared in
/// parallel; `get_mut` needs no atomic ordering under `&mut`).
pub(crate) fn reset_bools(v: &mut Vec<AtomicBool>, n: usize) {
    v.resize_with(n, || AtomicBool::new(false));
    v.par_iter_mut().for_each(|a| *a.get_mut() = false);
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fill `next_cyc` for `list`.
    pub(crate) fn prepare_next_cyc(&mut self, list: &LinkedList) {
        let n = list.len();
        self.next_cyc.resize(n, NIL);
        self.next_cyc
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = list.next_cyclic((base + i) as NodeId);
                }
            });
    }

    /// Fill `pred` for `list` via a parallel atomic scatter
    /// (`pred[next[u]] := u`, unique writers).
    pub(crate) fn prepare_pred(&mut self, list: &LinkedList) {
        let n = list.len();
        self.pred_atomic.resize_with(n, || AtomicU32::new(NIL));
        self.pred_atomic
            .par_iter_mut()
            .for_each(|a| *a.get_mut() = NIL);
        let next = list.next_array();
        let pa = &self.pred_atomic;
        (0..n).into_par_iter().with_min_len(CHUNK).for_each(|u| {
            let v = next[u];
            if v != NIL {
                pa[v as usize].store(u as NodeId, Ordering::Relaxed);
            }
        });
        self.pred.resize(n, NIL);
        let pa = &self.pred_atomic;
        self.pred
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = pa[base + i].load(Ordering::Relaxed);
                }
            });
    }

    /// Initialize `labels_a` with node addresses (and size `labels_b`).
    pub(crate) fn prepare_address_labels(&mut self, n: usize) {
        self.labels_a.resize(n, 0);
        self.labels_b.resize(n, 0);
        self.labels_a
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = (base + i) as Word;
                }
            });
    }

    /// Fill `next_cyc` for a fused batch: job `j`'s nodes occupy
    /// `offsets[j] .. offsets[j+1]` and its successors are translated
    /// into that window, so the concatenation is a disjoint union of the
    /// jobs' cyclic orders (no pointer crosses a job boundary).
    pub(crate) fn prepare_batch_next_cyc(&mut self, lists: &[&LinkedList], offsets: &[usize]) {
        let total = *offsets.last().expect("offsets never empty");
        self.next_cyc.resize(total, NIL);
        let mut rest: &mut [NodeId] = &mut self.next_cyc;
        let mut slices = Vec::with_capacity(lists.len());
        for (j, list) in lists.iter().enumerate() {
            let (head, tail) = rest.split_at_mut(offsets[j + 1] - offsets[j]);
            slices.push((offsets[j], *list, head));
            rest = tail;
        }
        slices.into_par_iter().for_each(|(off, list, slot)| {
            for (v, s) in slot.iter_mut().enumerate() {
                *s = off as NodeId + list.next_cyclic(v as NodeId);
            }
        });
    }

    /// Initialize `labels_a` with each job's **local** addresses
    /// (`labels[off + v] = v`), so every fused job starts from exactly
    /// the label state its solo run would (and size `labels_b`).
    pub(crate) fn prepare_batch_local_labels(&mut self, offsets: &[usize]) {
        let total = *offsets.last().expect("offsets never empty");
        self.labels_a.resize(total, 0);
        self.labels_b.resize(total, 0);
        let mut rest: &mut [Word] = &mut self.labels_a;
        let mut slices = Vec::with_capacity(offsets.len() - 1);
        for j in 0..offsets.len() - 1 {
            let (head, tail) = rest.split_at_mut(offsets[j + 1] - offsets[j]);
            slices.push(head);
            rest = tail;
        }
        slices.into_par_iter().for_each(|slot| {
            for (v, s) in slot.iter_mut().enumerate() {
                *s = v as Word;
            }
        });
    }

    /// Clear every per-node buffer while keeping its allocation (and the
    /// grid storage and Match3 table cache intact). The service layer
    /// calls this when returning an arena to the pool after a job
    /// panicked mid-phase: the next checkout sees empty buffers, and
    /// every `prepare_*` pass resizes-and-refills anyway, so a scrubbed
    /// arena behaves exactly like a fresh one at steady-state cost.
    pub fn scrub(&mut self) {
        self.next_cyc.clear();
        self.pred_atomic.clear();
        self.pred.clear();
        self.labels_a.clear();
        self.labels_b.clear();
        self.nxt_a.clear();
        self.nxt_b.clear();
        self.cut.clear();
        self.mask.clear();
        self.matched.clear();
        self.done.clear();
        self.greedy_mask.clear();
        self.bucket_nodes.clear();
        self.hist.clear();
        self.set_starts.clear();
        self.colors.clear();
        self.walk_state.clear();
        self.sets.clear();
        self.grid_pairs.clear();
        self.row_scatter.clear();
    }

    /// Reset the walkdown colors to [`UNCOLORED`].
    pub(crate) fn reset_colors(&mut self, n: usize) {
        self.colors.resize_with(n, || AtomicU8::new(UNCOLORED));
        self.colors
            .par_iter_mut()
            .for_each(|a| *a.get_mut() = UNCOLORED);
    }

    /// Make sure `table_cache` holds the Match3 tuple table for the
    /// given parameters, building it on a miss. Steady-state reruns with
    /// the same parameters hit the cache and skip the (expensive)
    /// enumeration entirely.
    pub(crate) fn table_ensure(
        &mut self,
        width: u32,
        window: u32,
        variant: CoinVariant,
        max_bits: u32,
    ) -> Result<(), crate::table::TableError> {
        let key = (width, window, variant, max_bits);
        if !matches!(&self.table_cache, Some((k, _)) if *k == key) {
            let table = TupleTable::build(width, window, variant, max_bits)?;
            self.table_cache = Some((key, table));
        }
        Ok(())
    }
}
