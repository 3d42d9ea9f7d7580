//! Match3 on the simulated PRAM — with the appendix's per-processor
//! table copies, so the whole program is EREW-legal.
//!
//! * step 2: `k` crunch rounds (`k·⌈n/p⌉` steps);
//! * table replication: the lookup table `T` is loaded once (host
//!   preprocessing, exactly the paper's stance that table setup is a
//!   preprocessing stage) and then **broadcast into `p` copies** on the
//!   machine ([`broadcast_copies`]) — the appendix's
//!   `O(p·table)` space / `O(table·p/p + log p)` time EREW requirement;
//! * step 3: `j` pointer-jumping concatenation rounds over the *cyclic*
//!   successor (double-buffered labels and successors; the `2^j`-step
//!   shift of a cyclic permutation stays injective, so successor-side
//!   reads stay exclusive);
//! * step 4: every processor probes **its own** table copy — exclusive
//!   by construction;
//! * steps 5–6: the shared [`cut_and_walk_finish`].
//!
//! Step shape: `(k + j + c)·⌈n/p⌉ + O(table·p/p + log p)` — Lemma 5's
//! `O(n·log G(n)/p + log G(n))` with the table-replication term the
//! appendix accounts for separately.

use super::{
    broadcast_copies, cut_and_walk_finish, dense_for, init_labels, load_list, mask_from_region,
    relabel_k_rounds, LabelBuffers,
};
use crate::match3::{Match3Config, Match3Error};
use crate::matching::Matching;
use crate::table::TupleTable;
use parmatch_bits::{g_of, ilog2_ceil};
use parmatch_list::LinkedList;
use parmatch_pram::{ExecMode, Machine, Model, PramError, Stats, Word};

/// Result of [`match3_pram`].
#[derive(Debug, Clone)]
pub struct Match3Pram {
    /// The maximal matching (extracted host-side).
    pub matching: Matching,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Steps spent replicating the table to the `p` processors.
    pub broadcast_steps: u64,
    /// Jump rounds used (`j ≈ log G(n)`).
    pub jump_rounds: u32,
    /// Entries per table copy.
    pub table_len: usize,
}

/// Errors from [`match3_pram`]: algorithmic configuration errors or
/// machine-model violations.
#[derive(Debug)]
pub enum Match3PramError {
    /// Table/config problem (see [`Match3Error`]).
    Config(Match3Error),
    /// PRAM legality violation (checked mode).
    Machine(PramError),
}

impl std::fmt::Display for Match3PramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Match3PramError::Config(e) => write!(f, "config: {e}"),
            Match3PramError::Machine(e) => write!(f, "machine: {e}"),
        }
    }
}

impl std::error::Error for Match3PramError {}

impl From<Match3Error> for Match3PramError {
    fn from(e: Match3Error) -> Self {
        Match3PramError::Config(e)
    }
}

impl From<PramError> for Match3PramError {
    fn from(e: PramError) -> Self {
        Match3PramError::Machine(e)
    }
}

/// Run Match3 on a fresh EREW machine with `p` virtual processors.
pub fn match3_pram(
    list: &LinkedList,
    p: usize,
    config: Match3Config,
    mode: ExecMode,
) -> Result<Match3Pram, Match3PramError> {
    if config.crunch_rounds == 0 {
        return Err(Match3Error::NoCrunch.into());
    }
    let n = list.len();
    if n < 2 {
        return Ok(Match3Pram {
            matching: Matching::empty(n),
            stats: Stats::default(),
            broadcast_steps: 0,
            jump_rounds: 0,
            table_len: 0,
        });
    }
    let p = p.max(1);
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Erew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Erew, 0),
    };
    let lr = load_list(&mut m, list);
    let mut buf = LabelBuffers::alloc(&mut m, n);

    // Step 2: crunch.
    init_labels(&mut m, &lr, &buf, p)?;
    let bound = relabel_k_rounds(
        &mut m,
        &lr,
        &mut buf,
        config.crunch_rounds,
        n as Word,
        config.variant,
        p,
    )?;
    let w = ilog2_ceil(bound).max(1);

    // Pick j as in the native implementation.
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
    let m_args = 1u32 << j;
    let table = TupleTable::build(w, m_args, config.variant, config.max_table_bits)
        .map_err(Match3Error::Table)?;

    // Load T once (host preprocessing), then broadcast p copies.
    let t_len = table.len();
    let t_src = m.alloc(t_len);
    let t_data: Vec<Word> = (0..t_len as Word).map(|c| table.probe(c)).collect();
    m.load_region(t_src, &t_data);
    let t_copies = m.alloc(p * t_len);
    let before = m.stats().steps;
    broadcast_copies(&mut m, t_src, t_copies, p, p)?;
    let broadcast_steps = m.stats().steps - before;

    // Step 3: jumping concatenation, double-buffered (labels + cyclic
    // successors), widths host-tracked. Like the labels, the successor
    // array exists in two copies: a node's own handler reads copy `a`;
    // the handler of the node that jumps *onto* it reads copy `b` —
    // exclusive because each round's successor map (a 2^t-shift of a
    // cycle) is injective.
    let (mut la, mut lb) = buf.front();
    let (mut la2, mut lb2) = (m.alloc(n), m.alloc(n));
    let (mut nx_a, mut nx_b) = (m.alloc(n), m.alloc(n));
    let (mut nx_a2, mut nx_b2) = (m.alloc(n), m.alloc(n));
    // seed the jump successor arrays from next_cyc (one sweep)
    {
        let (na, nb) = (nx_a, nx_b);
        dense_for(&mut m, n, p, &[na, nb], move |ctx, v| {
            let s = ctx.get(lr.next_cyc, v);
            ctx.put(0, s);
            ctx.put(1, s);
        })?;
    }
    let mut width = w;
    for _ in 0..j {
        let (sa, sb, da, db) = (la, lb, la2, lb2);
        let (sna, snb, dna, dnb) = (nx_a, nx_b, nx_a2, nx_b2);
        dense_for(&mut m, n, p, &[da, db, dna, dnb], move |ctx, v| {
            let own = ctx.get(sa, v);
            let s = ctx.get(sna, v) as usize;
            let nb = ctx.get(sb, s);
            let cat = (own << width) | nb;
            ctx.put(0, cat);
            ctx.put(1, cat);
            let s2 = ctx.get(snb, s); // second hop via copy b: exclusive
            ctx.put(2, s2);
            ctx.put(3, s2);
        })?;
        std::mem::swap(&mut la, &mut la2);
        std::mem::swap(&mut lb, &mut lb2);
        std::mem::swap(&mut nx_a, &mut nx_a2);
        std::mem::swap(&mut nx_b, &mut nx_b2);
        width *= 2;
    }

    // Step 4: probe own table copy (processor q owns copy q).
    let (sa, da, db) = (la, la2, lb2);
    dense_for(&mut m, n, p, &[da, db], move |ctx, v| {
        let q = ctx.pid();
        let code = ctx.get(sa, v) as usize;
        let val = ctx.get(t_copies, q * t_len + code);
        ctx.put(0, val);
        ctx.put(1, val);
    })?;

    // Steps 5–6 with the post-lookup constant bound.
    let mask = cut_and_walk_finish(
        &mut m,
        &lr,
        list.head() as usize,
        da,
        db,
        table.value_bound(),
        p,
    )?;

    let matching = Matching::from_mask(list, mask_from_region(&m, mask));
    Ok(Match3Pram {
        matching,
        stats: *m.stats(),
        broadcast_steps,
        jump_rounds: j,
        table_len: t_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use crate::CoinVariant;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn maximal_and_erew_legal() {
        for seed in 0..3 {
            let list = random_list(700, seed);
            let out = match3_pram(&list, 16, Match3Config::default(), ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert!(out.table_len > 0);
        }
    }

    #[test]
    fn matches_native_match3() {
        // Same crunch/jump/table pipeline ⇒ identical final labels ⇒
        // identical matchings.
        let list = random_list(900, 5);
        let cfg = Match3Config::default();
        let native = crate::Runner::new(crate::Algorithm::Match3)
            .config(cfg)
            .run(&list);
        let native = native.as_match3().expect("Match3 outcome");
        let pram = match3_pram(&list, 32, cfg, ExecMode::Checked).unwrap();
        assert_eq!(pram.matching, native.matching);
        assert_eq!(pram.jump_rounds, native.jump_rounds);
    }

    #[test]
    fn broadcast_cost_scales_with_table_and_p() {
        let list = random_list(512, 1);
        let a = match3_pram(&list, 4, Match3Config::default(), ExecMode::Fast).unwrap();
        let b = match3_pram(&list, 64, Match3Config::default(), ExecMode::Fast).unwrap();
        // per-processor broadcast work is table_len, so steps are flat-ish
        // in p while total replicated words grow 16×
        assert!(
            b.broadcast_steps < 4 * a.broadcast_steps.max(1) + 64,
            "a={} b={}",
            a.broadcast_steps,
            b.broadcast_steps
        );
    }

    #[test]
    fn lsb_variant_and_explicit_j() {
        let list = random_list(600, 9);
        let cfg = Match3Config {
            variant: CoinVariant::Lsb,
            jump_rounds: Some(1),
            ..Match3Config::default()
        };
        let out = match3_pram(&list, 8, cfg, ExecMode::Checked).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        assert_eq!(out.jump_rounds, 1);
    }

    #[test]
    fn config_errors_propagate() {
        let list = sequential_list(64);
        let cfg = Match3Config {
            crunch_rounds: 0,
            ..Match3Config::default()
        };
        let err = match3_pram(&list, 4, cfg, ExecMode::Checked).unwrap_err();
        assert!(matches!(
            err,
            Match3PramError::Config(Match3Error::NoCrunch)
        ));
        assert!(err.to_string().contains("crunch"));
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out = match3_pram(
                &sequential_list(n),
                4,
                Match3Config::default(),
                ExecMode::Checked,
            )
            .unwrap();
            assert!(out.matching.is_empty());
        }
    }
}
