//! Algorithm Match3 (rayon-native form) — the Han/Beame table-lookup
//! algorithm.
//!
//! ```text
//! Step 1. label[v] := address of v
//! Step 2. k rounds of label[v] := f(<label[v], label[suc(v)]>)
//!         ("number crunching": labels shrink to ≤ log^(k) n bits)
//! Step 3. for t := 1 .. j:   (j ≈ log G(n))
//!             label[v] := label[v] ‖ label[NEXT[v]];  NEXT[v] := NEXT[NEXT[v]]
//!         (pointer-jumping concatenation: label[v] becomes the window
//!          of 2^j consecutive crunched labels)
//! Step 4. label[v] := T[label[v]]     (one probe: a constant)
//! Step 5–6. steps 3–4 of Match1
//! ```
//!
//! Time `O(n·log G(n)/p + log G(n))` (Lemma 5). Not optimal, but the
//! fastest known; the table `T` and its size/constructibility trade-off
//! live in [`crate::table`].

use crate::finish::from_labels_core;
use crate::labels::relabel_rounds;
use crate::matching::Matching;
use crate::obs::Observer;
use crate::table::TableError;
use crate::workspace::{Workspace, CHUNK};
use crate::CoinVariant;
use parmatch_bits::{g_of, ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId};
use rayon::prelude::*;

/// Tuning of Match3.
#[derive(Debug, Clone, Copy)]
pub struct Match3Config {
    /// Crunch rounds `k` of step 2. The paper notes `k > 4` lets the
    /// table be built with < n processors; computationally `k = 3`
    /// already collapses any 64-bit `n` to 4-bit labels.
    pub crunch_rounds: u32,
    /// Jump rounds `j` of step 3 (`None`: choose the largest `j ≤
    /// ⌈log₂ G(n)⌉` whose table fits `max_table_bits`).
    pub jump_rounds: Option<u32>,
    /// Cap on the table's index width in bits.
    pub max_table_bits: u32,
    /// Coin-tossing variant.
    pub variant: CoinVariant,
}

impl Default for Match3Config {
    fn default() -> Self {
        Self {
            crunch_rounds: 3,
            jump_rounds: None,
            max_table_bits: 22,
            variant: CoinVariant::Msb,
        }
    }
}

/// Failure modes of Match3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Match3Error {
    /// The requested table exceeds the configured size cap; crunch more
    /// (larger `k`) or jump less.
    Table(TableError),
    /// `crunch_rounds` was zero.
    NoCrunch,
}

impl std::fmt::Display for Match3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Match3Error::Table(e) => write!(f, "lookup table: {e}"),
            Match3Error::NoCrunch => write!(f, "crunch_rounds must be ≥ 1"),
        }
    }
}

impl std::error::Error for Match3Error {}

impl From<TableError> for Match3Error {
    fn from(e: TableError) -> Self {
        Match3Error::Table(e)
    }
}

/// Result of a Match3 run.
#[derive(Debug, Clone)]
pub struct Match3Output {
    /// The maximal matching.
    pub matching: Matching,
    /// Crunch rounds used (`k`).
    pub crunch_rounds: u32,
    /// Jump rounds used (`j`); the window length is `2^j`.
    pub jump_rounds: u32,
    /// Index width of the lookup table in bits.
    pub table_bits: u32,
    /// Exclusive bound on post-lookup labels (the "constant not related
    /// to n").
    pub final_bound: Word,
}

/// Algorithm Match3 in the buffers of `ws`: crunch rounds,
/// double-buffered pointer jumping, and a **cached lookup table** — a
/// steady-state rerun with the same configuration skips the table
/// enumeration entirely. [`Runner`](crate::Runner) with
/// [`Algorithm::Match3`](crate::Algorithm::Match3) is the public door.
///
/// An enabled observer receives a `match3` span: the crunch `relabel`
/// subtree, a `jump` span (rounds, final window width), a `probe` span
/// (table index width and value bound), the `finish` subtree, and the
/// total work units audited against Lemma 5's `O(n·log G(n))` form. An
/// error return (table too large) may leave the `match3` span open;
/// [`crate::obs::Recorder`] closes it on finish.
pub(crate) fn run<O: Observer>(
    list: &LinkedList,
    config: Match3Config,
    ws: &mut Workspace,
    obs: &mut O,
) -> Result<Match3Output, Match3Error> {
    if config.crunch_rounds == 0 {
        return Err(Match3Error::NoCrunch);
    }
    let n = list.len();
    if n < 2 {
        return Ok(Match3Output {
            matching: Matching::empty(n),
            crunch_rounds: config.crunch_rounds,
            jump_rounds: 0,
            table_bits: 0,
            final_bound: 0,
        });
    }

    ws.prepare_next_cyc(list);
    ws.prepare_pred(list);
    ws.prepare_address_labels(n);

    // Step 2: crunch.
    obs.enter("match3");
    obs.counter("n", n as u64);
    let crunch_bound = {
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
            n as Word,
            config.crunch_rounds,
            config.variant,
            obs,
        )
    };
    let w = ilog2_ceil(crunch_bound).max(1);

    // Pick j: ≈ log G(n), capped so the table index (w·2^j bits) fits.
    let j = match config.jump_rounds {
        Some(j) => j,
        None => {
            let want = ilog2_ceil(Word::from(g_of(n as Word).max(1))).max(1);
            let mut j = want;
            while j > 1 && w * (1 << j) > config.max_table_bits {
                j -= 1;
            }
            j
        }
    };
    let m = 1u32 << j; // window length
    ws.table_ensure(w, m, config.variant, config.max_table_bits)?;

    let Workspace {
        next_cyc,
        pred,
        labels_a,
        labels_b,
        nxt_a,
        nxt_b,
        cut,
        mask,
        matched,
        table_cache,
        ..
    } = ws;
    let table = &table_cache.as_ref().expect("table just ensured").1;

    // Step 3: pointer-jumping concatenation along the *cyclic* order (so
    // windows near the tail wrap to the head, keeping the label sequence
    // adjacent-distinct — see crate::table).
    nxt_a.clone_from(next_cyc);
    nxt_b.resize(n, 0);
    let mut width = w;
    for _ in 0..j {
        {
            let la: &[Word] = labels_a;
            let nx: &[NodeId] = nxt_a;
            labels_b
                .par_chunks_mut(CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * CHUNK;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        let v = base + i;
                        *slot = (la[v] << width) | la[nx[v] as usize];
                    }
                });
        }
        {
            let nx: &[NodeId] = nxt_a;
            nxt_b
                .par_chunks_mut(CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let base = ci * CHUNK;
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = nx[nx[base + i] as usize];
                    }
                });
        }
        std::mem::swap(labels_a, labels_b);
        std::mem::swap(nxt_a, nxt_b);
        width *= 2;
    }
    if O::ENABLED {
        obs.enter("jump");
        obs.counter("rounds", u64::from(j));
        obs.counter("window", u64::from(m));
        obs.counter("window_bits", u64::from(width));
        obs.exit();
    }

    // Step 4: one probe each.
    {
        let la: &[Word] = labels_a;
        labels_b
            .par_chunks_mut(CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let base = ci * CHUNK;
                for (i, slot) in chunk.iter_mut().enumerate() {
                    *slot = table.probe(la[base + i]);
                }
            });
    }
    std::mem::swap(labels_a, labels_b);
    if O::ENABLED {
        obs.enter("probe");
        obs.counter("probes", n as u64);
        obs.counter("table_bits", u64::from(w * m));
        obs.counter("value_bound", table.value_bound());
        obs.exit();
    }

    // Steps 5–6: Match1 steps 3–4.
    let matching = from_labels_core(
        list,
        labels_a,
        pred,
        cut,
        mask,
        matched,
        table.value_bound(),
        obs,
    );
    if O::ENABLED {
        // crunch·n, two passes per jump round (concat + pointer jump),
        // one probe pass, the finisher's four passes.
        let wu = n as u64 * (u64::from(config.crunch_rounds) + 2 * u64::from(j) + 5);
        obs.bounded(
            "work_units",
            wu,
            (u64::from(config.crunch_rounds) + 2 * u64::from(j) + 5) * n as u64 + 64,
        );
        obs.counter("work_per_node_x100", wu * 100 / n as u64);
    }
    obs.exit();
    Ok(Match3Output {
        matching,
        crunch_rounds: config.crunch_rounds,
        jump_rounds: j,
        table_bits: w * m,
        final_bound: table.value_bound(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NoopObserver;
    use crate::verify;
    use parmatch_list::{random_list, reversed_list, sequential_list};

    fn match3(list: &LinkedList, config: Match3Config) -> Result<Match3Output, Match3Error> {
        run(list, config, &mut Workspace::new(), &mut NoopObserver)
    }

    #[test]
    fn maximal_with_default_config() {
        for seed in 0..6 {
            let list = random_list(1 << 13, seed);
            let out = match3(&list, Match3Config::default()).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert!(out.final_bound <= 16, "bound {}", out.final_bound);
        }
    }

    #[test]
    fn post_lookup_labels_are_adjacent_distinct() {
        // The invariant Match3 step 5 relies on, checked through the
        // public surface: the matching is maximal for every layout.
        for list in [
            sequential_list(5000),
            reversed_list(5000),
            random_list(5000, 3),
        ] {
            let out = match3(&list, Match3Config::default()).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn explicit_jump_rounds() {
        let list = random_list(4096, 7);
        for j in 1..=2 {
            let cfg = Match3Config {
                jump_rounds: Some(j),
                ..Match3Config::default()
            };
            let out = match3(&list, cfg).unwrap();
            assert_eq!(out.jump_rounds, j);
            verify::assert_maximal_matching(&list, &out.matching);
        }
    }

    #[test]
    fn lsb_variant() {
        let list = random_list(3000, 1);
        let cfg = Match3Config {
            variant: CoinVariant::Lsb,
            ..Match3Config::default()
        };
        let out = match3(&list, cfg).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
    }

    #[test]
    fn insufficient_crunch_overflows_table() {
        // One crunch round on a big list leaves wide labels; a 4-window
        // table cannot fit.
        let list = random_list(1 << 16, 2);
        let cfg = Match3Config {
            crunch_rounds: 1,
            jump_rounds: Some(2),
            max_table_bits: 16,
            ..Match3Config::default()
        };
        let err = match3(&list, cfg).unwrap_err();
        assert!(
            matches!(err, Match3Error::Table(TableError::TooLarge { .. })),
            "{err}"
        );
    }

    #[test]
    fn zero_crunch_rejected() {
        let list = sequential_list(16);
        let cfg = Match3Config {
            crunch_rounds: 0,
            ..Match3Config::default()
        };
        assert_eq!(match3(&list, cfg).unwrap_err(), Match3Error::NoCrunch);
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match3(&sequential_list(n), Match3Config::default()).unwrap();
            assert!(out.matching.is_empty());
        }
        let list = sequential_list(2);
        let out = match3(&list, Match3Config::default()).unwrap();
        assert_eq!(out.matching.len(), 1);
    }

    #[test]
    fn error_display() {
        assert!(Match3Error::NoCrunch.to_string().contains("crunch"));
        let e = Match3Error::from(TableError::Degenerate);
        assert!(e.to_string().contains("table"));
    }
}
