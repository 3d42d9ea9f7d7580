//! Algorithm Match4 (rayon-native form) — the paper's main result.
//!
//! ```text
//! Step 1. partition pointers into log^(i) n matching sets        (iterated f)
//! Step 2. view the array as x = log^(i) n rows × y = n/x columns;
//!         each processor counting-sorts its own column by set number
//! Step 3. WalkDown1: 3-color the inter-row pointers               (Lemma 6)
//! Step 4. WalkDown2: 3-color the intra-row pointers, pipelined    (Lemma 7)
//! Step 5. finish the 3-set partition into a maximal matching
//! ```
//!
//! Total time `O(n·log i/p + log^(i) n + log i)` (Theorem 2); optimal
//! with up to `p = n/log^(i) n` processors for any constant `i`
//! (Theorem 1). The native form does not run the `3x − 1` lockstep
//! passes over the `y` columns: Lemmas 6–7 give every pointer's round
//! in closed form, so steps 2–4 become a counting sort into rows, a
//! bucketing of the pointers by round and one sweep of the rounds in
//! order (see [`crate::walkdown`] for the lockstep, kept as the
//! reference). The step-count form lives in
//! [`pram_impl`](crate::pram_impl).
//!
//! Step 1 here iterates `f` directly (`O(i·n/p)`, the Lemma 3 form);
//! the `log i` refinement comes from the Match3 table technique and is
//! available by pre-partitioning with [`crate::table`] — the experiment
//! drivers exercise both.

use crate::finish::{bucket_by_key, greedy_by_sets, greedy_core};
use crate::labels::relabel_rounds;
use crate::matching::Matching;
use crate::obs::Observer;
use crate::partition::{PointerSets, NO_POINTER};
use crate::walkdown::{color_pointers, pick_color, Grid, UNCOLORED};
use crate::workspace::{par_fill, Workspace, CHUNK};
use crate::CoinVariant;
use parmatch_bits::{ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};

/// Result of a Match4 run, with the grid's vital signs.
#[derive(Debug, Clone)]
pub struct Match4Output {
    /// The maximal matching.
    pub matching: Matching,
    /// Rows `x` of the two-dimensional view (= the set-number bound,
    /// `≈ log^(i) n`).
    pub rows: usize,
    /// Columns `y` (= the virtual processor count `n/x` of Theorem 1).
    pub cols: usize,
    /// Distinct matching sets produced by step 1.
    pub distinct_sets: usize,
    /// Lockstep rounds of WalkDown1 + WalkDown2 (`3x − 1`).
    pub walk_rounds: usize,
}

/// `round_of` value of the list tail, which has no pointer to color.
const NO_ROUND: u16 = u16::MAX;

/// Pointers per parallel part of one round's sweep. A round holds
/// about `n/x` pointers (WalkDown2's rounds far fewer), so the plain
/// [`CHUNK`] would leave most rounds on one thread.
const SWEEP_MIN: usize = CHUNK / 4;

/// Algorithm Match4 with `i ≥ 1` applications of `f` for the step-1
/// partition, in the buffers of `ws`: relabel rounds, the round
/// schedule of both walks, their colors and the greedy sweep.
/// [`Runner`](crate::Runner) with
/// [`Algorithm::Match4`](crate::Algorithm::Match4) is the public door;
/// it rejects `i == 0` before calling this.
///
/// Steps 2–4 run as one round schedule rather than the lockstep of
/// [`crate::walkdown`]. A counting sort of each column's byte keys
/// (the label; `x − 1` at the tail) gives every node its row; pointer
/// `<v, w>` gets round `row(v)` when inter-row (WalkDown1 handles row
/// `r` in round `r`, Lemma 6) and `x + key(v) + row(v)` when
/// intra-row (WalkDown2 marks row `r` at step `A[r] + r`, Lemma 7).
/// The pointers are bucketed by round and the rounds swept in order,
/// each in parallel. Within one round no two pointers share a node or
/// a neighbouring pointer (Lemma 6; Corollary 2 plus adjacent pointers
/// lying in different sets), so every color — and the matching — is
/// bit-identical to the lockstep's.
///
/// An enabled observer receives a `match4` span: the step-1 `relabel`
/// subtree, a `partition` span with the distinct-set census audited
/// against the cascade bound, a `grid` span (rows `x`, columns `y`,
/// the model's per-column sort work), the `walkdown1`/`walkdown2`
/// spans with their rounds audited against Lemmas 6–7 (`x` and
/// `2x − 1`), the `sweep` subtree, the combined walk rounds audited
/// against `3x − 1`, and total work units audited against Theorem 1's
/// `c·n` form. The counters are the paper's lockstep cost model, not
/// the schedule's own passes.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    i: u32,
    variant: CoinVariant,
    ws: &mut Workspace,
    obs: &mut O,
) -> Match4Output {
    debug_assert!(i >= 1, "Runner rejects levels == 0");
    let n = list.len();
    if n < 2 {
        return Match4Output {
            matching: Matching::empty(n),
            rows: 0,
            cols: 0,
            distinct_sets: 0,
            walk_rounds: 0,
        };
    }
    ws.prepare_next_cyc(list);
    ws.prepare_pred(list);
    ws.reset_colors(n);
    let Workspace {
        next_cyc,
        pred,
        labels_a,
        labels_b,
        row_of,
        round_of,
        colors,
        done,
        greedy_mask,
        bucket_nodes,
        hist,
        set_starts,
        ..
    } = ws;

    // Step 1: the matching partition; pointer <v, suc v>'s set is the
    // byte label of its tail.
    let next_cyc: &[NodeId] = next_cyc;
    obs.enter("match4");
    obs.counter("n", n as u64);
    let bound = relabel_rounds(
        &|u: NodeId| next_cyc[u as usize],
        &|u: NodeId| Word::from(u),
        n,
        labels_a,
        labels_b,
        n as Word,
        i,
        variant,
        obs,
    );
    let labels: &[u8] = labels_a;
    let has_pointer = |v: usize| list.next_raw(v as NodeId) != NIL;

    // Distinct sets of the step-1 partition (diagnostic), via per-chunk
    // bitmasks in the histogram scratch — labels are bytes, 256 bits.
    let nchunks = n.div_ceil(CHUNK);
    hist.clear();
    hist.resize(nchunks * 4, 0);
    hist.par_chunks_mut(4).enumerate().for_each(|(ci, row)| {
        let lo = ci * CHUNK;
        for (v, &k) in (lo..).zip(&labels[lo..(lo + CHUNK).min(n)]) {
            if has_pointer(v) {
                row[usize::from(k >> 6)] |= 1 << (k & 63);
            }
        }
    });
    let mut seen = [0usize; 4];
    for row in hist.chunks(4) {
        for (q, &word) in row.iter().enumerate() {
            seen[q] |= word;
        }
    }
    let distinct_sets: usize = seen.iter().map(|w| w.count_ones() as usize).sum();
    if O::ENABLED {
        obs.enter("partition");
        obs.bounded("distinct_sets", distinct_sets as u64, bound);
        obs.exit();
    }

    // Step 2: the x × y view. Column c owns slots [c·x, (c+1)·x); a
    // stable counting sort of its keys gives each node its row (ties by
    // ascending node id, the order of the reference grid's sort).
    let x = bound as usize;
    assert!(
        (1..=256).contains(&x),
        "byte labels bound the rows by 256, got {x}"
    ); // so a row fits a byte and a round a u16
    let cols = n.div_ceil(x);
    let key = |v: usize| {
        if has_pointer(v) {
            usize::from(labels[v])
        } else {
            x - 1
        }
    };
    row_of.resize(n, 0);
    let col_block = x * (CHUNK / x).max(1);
    row_of
        .par_chunks_mut(col_block)
        .enumerate()
        .for_each(|(bi, block)| {
            let mut cursor = [0u16; 256];
            for (cj, col) in block.chunks_mut(x).enumerate() {
                let base = bi * col_block + cj * x;
                cursor[..x].fill(0);
                for v in base..base + col.len() {
                    cursor[key(v)] += 1;
                }
                let mut acc = 0u16;
                for slot in &mut cursor[..x] {
                    let c = *slot;
                    *slot = acc;
                    acc += c;
                }
                for (k, row) in col.iter_mut().enumerate() {
                    let c = &mut cursor[key(base + k)];
                    *row = *c as u8;
                    *c += 1;
                }
            }
        });
    if O::ENABLED {
        obs.enter("grid");
        obs.counter("rows", x as u64);
        obs.counter("cols", cols as u64);
        // per-column comparison sort of x keys, y columns in parallel
        obs.counter(
            "sort_work",
            n as u64 * u64::from(ilog2_ceil(x as Word).max(1)),
        );
        obs.exit();
    }

    // Steps 3–4 as one schedule: each pointer's lockstep round, then
    // the pointers bucketed by round (3x − 1 ≤ 386 rounds, since
    // Lemma 1 bounds x by 2·64 + 1).
    let rows: &[u8] = row_of;
    round_of.resize(n, 0);
    par_fill(round_of, |v| {
        let head = list.next_raw(v as NodeId);
        if head == NIL {
            return NO_ROUND;
        }
        let r = rows[v];
        if rows[head as usize] != r {
            u16::from(r)
        } else {
            (x + usize::from(labels[v]) + usize::from(r)) as u16
        }
    });
    let walk_rounds = 3 * x - 1;
    bucket_by_key(
        round_of,
        walk_rounds,
        &|&r: &u16| (r != NO_ROUND).then_some(usize::from(r)),
        bucket_nodes,
        hist,
        set_starts,
    );
    let pred: &[AtomicU32] = pred;
    let colors: &[AtomicU8] = colors;
    let nodes: &[AtomicU32] = bucket_nodes;
    let sweep = |round: usize| {
        nodes[set_starts[round]..set_starts[round + 1]]
            .par_iter()
            .with_min_len(SWEEP_MIN)
            .for_each(|slot| {
                let v = slot.load(Ordering::Relaxed);
                let color = pick_color(list, pred, colors, v, list.next_raw(v));
                colors[v as usize].store(color, Ordering::Relaxed);
            });
    };
    // WalkDown1 (Lemma 6): rounds 0..x, the inter-row pointers.
    for round in 0..x {
        sweep(round);
    }
    if O::ENABLED {
        obs.enter("walkdown1");
        obs.bounded("rounds", x as u64, x as u64);
        obs.counter("lockstep_work", (x * cols) as u64);
        if O::AUDITS {
            obs.counter("colored", count_colored(colors));
        }
        obs.exit();
    }
    // WalkDown2 (Lemma 7): rounds x..3x−1, the intra-row pointers.
    for round in x..walk_rounds {
        sweep(round);
    }
    if O::ENABLED {
        let steps = (2 * x - 1) as u64;
        obs.enter("walkdown2");
        obs.bounded("steps", steps, steps);
        obs.counter("lockstep_work", steps * cols as u64);
        if O::AUDITS {
            obs.counter("colored", count_colored(colors));
        }
        obs.exit();
    }
    // Lemmas 6–7: together the walks 3-color every pointer properly.
    debug_assert!(crate::verify::coloring_is_proper_by(
        list,
        |v| colors[v].load(Ordering::Relaxed),
        3
    ));

    // Step 5: the 3 color classes are matching sets; sweep them greedily.
    let matching = greedy_core(
        list,
        colors,
        &|c: &AtomicU8| match c.load(Ordering::Relaxed) {
            UNCOLORED => None,
            c => Some(usize::from(c)),
        },
        3,
        done,
        greedy_mask,
        bucket_nodes,
        hist,
        set_starts,
        obs,
    );
    if O::ENABLED {
        obs.bounded("walk_rounds", walk_rounds as u64, 3 * x as u64 - 1);
        // relabel i·n; set projection, census and color-class projection
        // n each; grid build 5n + the per-column sorts; walk lockstep
        // work (3x − 1)·y; greedy histogram + final mask n each, plus
        // placement and sweep over the bucketed pointers.
        let lx = u64::from(ilog2_ceil(x as Word).max(1));
        let bucketed = *set_starts.last().unwrap_or(&0) as u64;
        let wu = n as u64 * (u64::from(i) + 10 + lx) + (walk_rounds * cols) as u64 + 2 * bucketed;
        obs.bounded("work_units", wu, (u64::from(i) + 16 + lx) * n as u64 + 256);
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    Match4Output {
        matching,
        rows: x,
        cols,
        distinct_sets,
        walk_rounds,
    }
}

/// Pointers colored so far (the walks' audit counter).
fn count_colored(colors: &[AtomicU8]) -> u64 {
    colors
        .iter()
        .filter(|a| a.load(Ordering::Relaxed) != UNCOLORED)
        .count() as u64
}

/// Steps 2–5 of Match4 on an externally supplied partition (this is how
/// the table-based `O(log i)` partition of Match3 plugs in).
pub fn match4_from_partition(list: &LinkedList, ps: &PointerSets) -> Match4Output {
    let x = ps.bound() as usize;
    let grid = Grid::new(list, ps, x);
    let (colors, walk_rounds) = color_pointers(list, &grid);
    debug_assert!(crate::verify::coloring_is_proper(list, &colors, 3));

    // Step 5: the 3 color classes are matching sets; sweep them greedily
    // (equivalently Match1 steps 3–4 on the 3-bounded labels).
    let color_sets = PointerSets::from_raw(
        colors
            .par_iter()
            .enumerate()
            .map(|(_v, &c)| {
                debug_assert!(c < 3 || c == UNCOLORED);
                if c == UNCOLORED {
                    NO_POINTER
                } else {
                    Word::from(c)
                }
            })
            .collect(),
        3,
        ps.rounds(),
    );
    let matching = greedy_by_sets(list, &color_sets, None);
    Match4Output {
        matching,
        rows: grid.rows(),
        cols: grid.cols(),
        distinct_sets: ps.distinct_sets(),
        walk_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NoopObserver;
    use crate::partition::pointer_sets;
    use crate::verify;
    use crate::walkdown::walkdown2_schedule;
    use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list, strided_list};

    fn match4_with(list: &LinkedList, i: u32, variant: CoinVariant) -> Match4Output {
        run(list, i, variant, &mut Workspace::new(), &mut NoopObserver)
    }

    fn match4(list: &LinkedList, i: u32) -> Match4Output {
        match4_with(list, i, CoinVariant::Msb)
    }

    #[test]
    fn maximal_for_each_i() {
        let list = random_list(1 << 13, 2);
        for i in 1..=5 {
            let out = match4(&list, i);
            verify::assert_maximal_matching(&list, &out.matching);
            assert_eq!(out.walk_rounds, 3 * out.rows - 1);
            assert_eq!(out.cols, list.len().div_ceil(out.rows));
        }
    }

    #[test]
    fn rows_shrink_with_i() {
        let list = random_list(1 << 16, 3);
        let r1 = match4(&list, 1).rows; // ~2 log n
        let r2 = match4(&list, 2).rows; // ~2 log log n
        let r3 = match4(&list, 3).rows;
        assert!(r1 > r2, "r1={r1} r2={r2}");
        assert!(r2 >= r3, "r2={r2} r3={r3}");
        assert_eq!(r1, 2 * 16 + 1);
    }

    #[test]
    fn both_variants() {
        let list = random_list(6000, 8);
        for v in [CoinVariant::Msb, CoinVariant::Lsb] {
            let out = match4_with(&list, 2, v);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn structured_layouts() {
        for list in [
            sequential_list(3000),
            reversed_list(2048),
            blocked_list(4097, 32, 5),
        ] {
            let out = match4(&list, 2);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match4(&sequential_list(n), 2);
            assert!(out.matching.is_empty());
        }
        for n in [2usize, 3, 4, 5] {
            let list = random_list(n, 9);
            let out = match4(&list, 1);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn deterministic() {
        let list = random_list(10_000, 17);
        assert_eq!(match4(&list, 2).matching, match4(&list, 2).matching);
    }

    #[test]
    fn schedule_rounds_match_the_lockstep() {
        // Every pointer's schedule round is the lockstep round in which
        // the reference grid processes it: row r of WalkDown1 is round
        // r, and WalkDown2 step k (replayed per column by
        // `walkdown2_schedule`) is round x + k.
        let lists = [
            random_list(5000, 4),
            random_list(97, 5),
            sequential_list(3000),
            reversed_list(2048),
            blocked_list(4097, 32, 6),
            strided_list(3001, 7),
            random_list(2, 8),
        ];
        for list in &lists {
            for i in 1..=5 {
                for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                    let mut ws = Workspace::new();
                    let out = run(list, i, variant, &mut ws, &mut NoopObserver);
                    let ps = pointer_sets(list, i, variant);
                    let x = ps.bound() as usize;
                    assert_eq!(out.rows, x);
                    let grid = Grid::new(list, &ps, x);
                    let mut want = vec![NO_ROUND; list.len()];
                    for c in 0..grid.cols() {
                        // The lockstep runs 2x − 1 steps on every column,
                        // the ragged last one too: pad it with the
                        // largest key, which leaves its own rows' steps
                        // as they are.
                        let mut keys = grid.column_keys(c).to_vec();
                        keys.resize(x, x as u64 - 1);
                        let steps = walkdown2_schedule(&keys);
                        for (r, &v) in grid.column_elems(c).iter().enumerate() {
                            let Some(w) = list.next(v) else { continue };
                            want[v as usize] = if grid.is_intra_row(v, w) {
                                (x as u64 + steps[r]) as u16
                            } else {
                                r as u16
                            };
                        }
                    }
                    assert_eq!(ws.round_of, want, "n={} i={i} {variant:?}", list.len());
                }
            }
        }
    }

    #[test]
    fn matches_quality_of_match2() {
        // Both are maximal; sizes must both be in [P/3, P/2] — check the
        // band rather than equality.
        let list = random_list(50_000, 1);
        let m4 = match4(&list, 2).matching.len();
        let p = list.pointer_count();
        assert!(m4 * 3 >= p && m4 * 2 <= p + 1, "m4={m4} p={p}");
    }
}
