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
use crate::workspace::{par_fill, Workspace};
use crate::CoinVariant;
use parmatch_bits::{g_of, ilog2_ceil, Word};
use parmatch_list::{LinkedList, NodeId};

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
    /// `jump_rounds` was so large that the window length `2^j` or the
    /// table index width `w·2^j` overflows 32 bits.
    JumpRounds {
        /// The requested jump rounds `j`.
        jump_rounds: u32,
    },
}

impl std::fmt::Display for Match3Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Match3Error::Table(e) => write!(f, "lookup table: {e}"),
            Match3Error::NoCrunch => write!(f, "crunch_rounds must be ≥ 1"),
            Match3Error::JumpRounds { jump_rounds } => write!(
                f,
                "jump_rounds = {jump_rounds}: a window of 2^{jump_rounds} labels \
                 overflows a 32-bit table index"
            ),
        }
    }
}

impl std::error::Error for Match3Error {}

impl From<TableError> for Match3Error {
    fn from(e: TableError) -> Self {
        Match3Error::Table(e)
    }
}

/// Jump rounds `j` and window length `m = 2^j` for crunched labels of
/// `w` bits on an `n`-node list: the configured `j`, or else the
/// largest `j ≤ ⌈log₂ G(n)⌉` whose table index (`w·2^j` bits) fits
/// `max_table_bits`. On success `w·m` fits a `u32`; a configured `j`
/// for which `2^j` or `w·2^j` overflows is [`Match3Error::JumpRounds`].
pub(crate) fn jump_plan(
    config: &Match3Config,
    n: usize,
    w: u32,
) -> Result<(u32, u32), Match3Error> {
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
    1u32.checked_shl(j)
        .filter(|&m| w.checked_mul(m).is_some())
        .map(|m| (j, m))
        .ok_or(Match3Error::JumpRounds { jump_rounds: j })
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
            &|u: NodeId| Word::from(u),
            n,
            labels_a,
            labels_b,
            n as Word,
            config.crunch_rounds,
            config.variant,
            obs,
        )
    };
    let w = ilog2_ceil(crunch_bound).max(1);

    let (j, m) = jump_plan(&config, n, w)?;
    let window_bits = w * m;
    // The table rejects index widths of 32 bits or more, so once it is
    // built every window fits the u32 buffers below.
    ws.table_ensure(w, m, config.variant, config.max_table_bits)?;

    let Workspace {
        next_cyc,
        pred,
        labels_a,
        win_a,
        win_b,
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
    // adjacent-distinct — see crate::table). Round 1 reads the byte
    // labels and the successor array; later rounds read the previous
    // round's windows and jump pointers.
    win_a.resize(n, 0);
    win_b.resize(n, 0);
    nxt_a.resize(n, 0);
    nxt_b.resize(n, 0);
    let mut width = w;
    for t in 0..j {
        let nx: &[NodeId] = if t == 0 { next_cyc } else { nxt_a };
        if t == 0 {
            let la: &[u8] = labels_a;
            par_fill(win_b, |v| {
                (u32::from(la[v]) << width) | u32::from(la[nx[v] as usize])
            });
        } else {
            let wa: &[u32] = win_a;
            par_fill(win_b, |v| (wa[v] << width) | wa[nx[v] as usize]);
        }
        par_fill(nxt_b, |v| nx[nx[v] as usize]);
        std::mem::swap(win_a, win_b);
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

    // Step 4: one probe each, written back as byte labels.
    {
        let wa: &[u32] = win_a;
        par_fill(labels_a, |v| {
            u8::try_from(table.probe(Word::from(wa[v]))).expect("table values fit a byte")
        });
    }
    if O::ENABLED {
        obs.enter("probe");
        obs.counter("probes", n as u64);
        obs.counter("table_bits", u64::from(window_bits));
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
        table_bits: window_bits,
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

    /// Match3 by its definition, with no table: crunch with chained
    /// `LabelSeq::relabel`, fold each node's cyclic window of `2^j`
    /// crunched labels, then Match1 steps 3–4 on the folded labels.
    fn match3_by_definition(
        list: &LinkedList,
        crunch: u32,
        j: u32,
        variant: CoinVariant,
    ) -> Matching {
        use crate::labels::LabelSeq;
        use crate::table::fold_value;
        let mut l = LabelSeq::initial(list, variant);
        for _ in 0..crunch {
            l = l.relabel(list);
        }
        let w = l.width_bits();
        let folded: Vec<Word> = (0..list.len() as NodeId)
            .map(|v| {
                let mut window = Vec::with_capacity(1 << j);
                let mut u = v;
                for _ in 0..1u32 << j {
                    window.push(l.labels()[u as usize]);
                    u = list.next_cyclic(u);
                }
                fold_value(&window, w, variant)
            })
            .collect();
        crate::finish::from_labels(list, &folded)
    }

    #[test]
    fn widest_table_budget_matches_definition() {
        // max_table_bits = 31 is the widest budget a u32 window can
        // index. The default crunch leaves 4-bit labels; one crunch
        // round on 2^10 nodes leaves 5-bit labels, so four-label windows
        // are 20 bits wide.
        let list = random_list(1 << 10, 5);
        for (crunch, jump, bits) in [(3, None, 16), (1, Some(2), 20)] {
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                let cfg = Match3Config {
                    crunch_rounds: crunch,
                    jump_rounds: jump,
                    max_table_bits: 31,
                    variant,
                };
                let out = match3(&list, cfg).unwrap();
                assert_eq!(out.table_bits, bits, "crunch {crunch}");
                let want = match3_by_definition(&list, crunch, out.jump_rounds, variant);
                assert_eq!(out.matching, want, "crunch {crunch} {variant:?}");
                verify::assert_maximal_matching(&list, &out.matching);
            }
        }
    }

    #[test]
    fn error_display() {
        assert!(Match3Error::NoCrunch.to_string().contains("crunch"));
        let e = Match3Error::from(TableError::Degenerate);
        assert!(e.to_string().contains("table"));
    }
}
