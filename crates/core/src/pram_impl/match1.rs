//! Match1 on the simulated PRAM.
//!
//! Exact realization of Algorithm Match1 with `p` virtual processors:
//!
//! * steps 1–2: label init + `G(n)+O(1)` relabel rounds to the constant
//!   fixed point, each `⌈n/p⌉` simulated steps;
//! * steps 3–4: the shared [`cut_and_walk_finish`] — predecessor
//!   computation, local-minimum cut, bounded sublist walks, boundary
//!   fix-up.
//!
//! Total: `(G(n) + 2·bound + O(1)) · ⌈n/p⌉` steps — the
//! `O(n·G(n)/p + G(n))` of Lemma 3 with the constant spelled out.
//!
//! EREW-exclusivity notes: relabel rounds keep two label copies (a
//! node's own handler reads copy A; its predecessor's handler reads
//! copy B) and double-buffer across rounds so substeps of one logical
//! parallel step never observe that step's own writes; the finisher
//! adds a third copy for the cut's pred-side reads and duplicates the
//! mask for the fix-up. All checked by running the test suite in
//! [`ExecMode::Checked`].

use super::{
    cut_and_walk_finish, init_labels, load_list, mask_from_region, relabel_k_rounds, LabelBuffers,
};
use crate::matching::Matching;
use crate::CoinVariant;
use parmatch_bits::ilog2_ceil;
use parmatch_list::LinkedList;
use parmatch_pram::{ExecMode, Machine, Model, PramError, Stats, Word};

/// Result of [`match1_pram`].
#[derive(Debug, Clone)]
pub struct Match1Pram {
    /// The maximal matching (extracted host-side).
    pub matching: Matching,
    /// Exact simulated step/work counts.
    pub stats: Stats,
    /// Relabel rounds executed (`≈ G(n)`).
    pub relabel_rounds: u32,
    /// Final label bound (the constant the cascade converges to).
    pub final_bound: Word,
}

/// Run Match1 on a fresh EREW machine with `p` virtual processors.
pub fn match1_pram(
    list: &LinkedList,
    p: usize,
    variant: CoinVariant,
    mode: ExecMode,
) -> Result<Match1Pram, PramError> {
    let n = list.len();
    if n < 2 {
        return Ok(Match1Pram {
            matching: Matching::empty(n),
            stats: Stats::default(),
            relabel_rounds: 0,
            final_bound: 0,
        });
    }
    let mut m = match mode {
        ExecMode::Checked => Machine::new(Model::Erew, 0),
        ExecMode::Fast => Machine::new_fast(Model::Erew, 0),
    };
    let lr = load_list(&mut m, list);
    let mut buf = LabelBuffers::alloc(&mut m, n);

    // Steps 1–2: labels to the fixed point. The bound cascade is
    // host-tracked, identical to LabelSeq::relabel_to_convergence.
    init_labels(&mut m, &lr, &buf, p)?;
    let mut bound = n as Word;
    let mut rounds = 0u32;
    loop {
        let width = ilog2_ceil(bound).max(1);
        let next = 2 * Word::from(width) + 1;
        if next >= bound {
            break;
        }
        bound = relabel_k_rounds(&mut m, &lr, &mut buf, 1, bound, variant, p)?;
        rounds += 1;
    }
    let (label_a, label_b) = buf.front();

    // Steps 3–4.
    let mask = cut_and_walk_finish(
        &mut m,
        &lr,
        list.head() as usize,
        label_a,
        label_b,
        bound,
        p,
    )?;

    let matching = Matching::from_mask(list, mask_from_region(&m, mask));
    Ok(Match1Pram {
        matching,
        stats: *m.stats(),
        relabel_rounds: rounds,
        final_bound: bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn maximal_and_erew_legal() {
        for seed in 0..4 {
            let list = random_list(800, seed);
            let out = match1_pram(&list, 32, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &out.matching);
            assert!(out.final_bound <= 9);
        }
    }

    #[test]
    fn matches_native_result_quality() {
        let list = random_list(1500, 7);
        let pram = match1_pram(&list, 64, CoinVariant::Msb, ExecMode::Checked).unwrap();
        let native = crate::Runner::new(crate::Algorithm::Match1).run(&list);
        // Identical algorithms ⇒ identical matchings.
        assert_eq!(&pram.matching, native.matching());
    }

    #[test]
    fn step_count_scales_inversely_with_p() {
        let list = random_list(2000, 3);
        let s1 = match1_pram(&list, 1, CoinVariant::Msb, ExecMode::Fast)
            .unwrap()
            .stats
            .steps;
        let s64 = match1_pram(&list, 64, CoinVariant::Msb, ExecMode::Fast)
            .unwrap()
            .stats
            .steps;
        assert!(s1 > 30 * s64, "s1={s1} s64={s64}");
    }

    #[test]
    fn work_is_roughly_linear_at_low_p() {
        let list = random_list(4000, 5);
        let out = match1_pram(&list, 4, CoinVariant::Msb, ExecMode::Fast).unwrap();
        // work = p·steps ≈ (G + 2·bound + O(1)) · n
        let per_node = out.stats.work as f64 / 4000.0;
        assert!(per_node < 40.0, "work/n = {per_node}");
    }

    #[test]
    fn sequential_layout() {
        let list = sequential_list(600);
        let out = match1_pram(&list, 16, CoinVariant::Lsb, ExecMode::Checked).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
    }

    #[test]
    fn tiny_lists() {
        for n in [0usize, 1] {
            let out =
                match1_pram(&sequential_list(n), 4, CoinVariant::Msb, ExecMode::Checked).unwrap();
            assert!(out.matching.is_empty());
            assert_eq!(out.stats.steps, 0);
        }
    }
}
