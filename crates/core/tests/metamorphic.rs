//! Metamorphic properties: the matching output is invariant — as a set
//! of matched pointer pairs, modulo the relabeling induced by the
//! transformation — under value-preserving transformations of the
//! input.
//!
//! Three transformation families:
//!
//! * **list reversal**: `next' = pred`, `head' = tail`. A pointer
//!   `<pred(v), v>` of the original becomes `<v, pred(v)>` of the
//!   reversal, so a matching of the reversed list pulls back along
//!   `pred` to a pointer set of the original — and pointer-structure
//!   isomorphism preserves both the matching property and maximality.
//! * **storage permutation** `π` (including the bit-reversal
//!   permutation from [`parmatch_bits::BitReversalTable`], the paper's
//!   appendix machinery): node `v` relocates to `π(v)` with
//!   `next'[π(v)] = π(next[v])`. Matchings pull back via
//!   `mask[v] = mask'[π(v)]`.
//! * **constant address shift**, in the aligned form that preserves the
//!   coin tosses *exactly*: adding `c ≡ 0 (mod 2^k)` to labels `< 2^k`
//!   changes no XOR and no differing-bit value (`a + c = c | a`), so
//!   after any `k ≥ 1` rounds the label arrays are bit-identical and
//!   the finisher output is unchanged. (An arbitrary shift does *not*
//!   commute with `f` — carries rewrite low bits — which is why the
//!   relation is stated for aligned shifts; `shift_breaks_alignment`
//!   pins a counterexample so nobody "generalizes" this later.)
//!
//! Every relation is checked on [`Runner`] outputs, each pinned to the
//! reference oracle of its algorithm (see `oracle/mod.rs`).
//!
//! [`Runner`]: parmatch_core::Runner

mod oracle;

use parmatch_bits::BitReversalTable;
use parmatch_core::finish::from_labels;
use parmatch_core::prelude::*;
use parmatch_core::{f_pair, LabelSeq};
use parmatch_list::{random_list, LinkedList, NodeId, NIL};
use proptest::prelude::*;

/// The reversed list: `next' = pred`, rooted at the old tail.
fn reversed(list: &LinkedList) -> LinkedList {
    LinkedList::from_parts(list.pred_array(), list.tail().expect("n >= 2"))
}

/// Pull a matching of `reversed(list)` back to the original: the
/// reversed pointer `<v, pred(v)>` is the original `<pred(v), v>`.
fn pull_back_reversal(list: &LinkedList, rev: &Matching) -> Matching {
    let pred = list.pred_array();
    let mut mask = vec![false; list.len()];
    for (v, &m) in rev.mask().iter().enumerate() {
        if m {
            mask[pred[v] as usize] = true;
        }
    }
    Matching::from_mask(list, mask)
}

/// The list with storage permuted by `pi`: node `v` relocates to
/// `pi[v]`.
fn permuted(list: &LinkedList, pi: &[NodeId]) -> LinkedList {
    let n = list.len();
    let mut next = vec![NIL; n];
    for v in 0..n as NodeId {
        let t = list.next_raw(v);
        next[pi[v as usize] as usize] = if t == NIL { NIL } else { pi[t as usize] };
    }
    LinkedList::from_parts(next, pi[list.head() as usize])
}

/// Pull a matching of `permuted(list, pi)` back to the original.
fn pull_back_permutation(list: &LinkedList, perm: &Matching, pi: &[NodeId]) -> Matching {
    let mask = (0..list.len())
        .map(|v| perm.mask()[pi[v] as usize])
        .collect();
    Matching::from_mask(list, mask)
}

/// Deterministic Fisher–Yates permutation of `0..n` from a seed.
fn shuffle(n: usize, seed: u64) -> Vec<NodeId> {
    let mut p: Vec<NodeId> = (0..n as NodeId).collect();
    let mut s = seed | 1;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        p.swap(i, (s % (i as u64 + 1)) as usize);
    }
    p
}

/// All four matchers on `list` through one reused workspace, each
/// asserted identical to its reference oracle, as a labeled vec.
fn all_matchings(list: &LinkedList) -> Vec<(&'static str, Matching)> {
    let mut ws = Workspace::new();
    let cfg = Match3Config {
        jump_rounds: Some(1),
        ..Match3Config::default()
    };
    let v = CoinVariant::Msb;
    let want = [
        oracle::match1(list, v).matching,
        oracle::match2(list, 2, v),
        oracle::match3(list, cfg),
        oracle::match4(list, 2, v).matching,
    ];
    Algorithm::ALL
        .into_iter()
        .zip(want)
        .map(|(algo, want)| {
            let m = Runner::new(algo)
                .config(cfg)
                .workspace(&mut ws)
                .run(list)
                .into_matching();
            assert_eq!(m, want, "{algo} vs oracle");
            (algo.name(), m)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Reversal: matchings of the reversed list pull back to maximal
    /// matchings of the original, for every matcher.
    #[test]
    fn matching_invariant_under_reversal(n in 2usize..400, seed in any::<u64>()) {
        let list = random_list(n, seed);
        let rev = reversed(&list);
        for (name, m) in all_matchings(&rev) {
            let pulled = pull_back_reversal(&list, &m);
            prop_assert!(verify::is_matching(&list, &pulled), "{name}");
            prop_assert!(verify::is_maximal(&list, &pulled), "{name}");
            prop_assert_eq!(pulled.len(), m.len(), "{}", name);
        }
    }

    /// Random storage permutation: matchings of the relocated list pull
    /// back to maximal matchings of the original.
    #[test]
    fn matching_invariant_under_storage_permutation(
        n in 2usize..400,
        seed in any::<u64>(),
        pseed in any::<u64>(),
    ) {
        let list = random_list(n, seed);
        let pi = shuffle(n, pseed);
        let perm = permuted(&list, &pi);
        for (name, m) in all_matchings(&perm) {
            let pulled = pull_back_permutation(&list, &m, &pi);
            prop_assert!(verify::is_matching(&list, &pulled), "{name}");
            prop_assert!(verify::is_maximal(&list, &pulled), "{name}");
            prop_assert_eq!(pulled.len(), m.len(), "{}", name);
        }
    }

    /// The bit-reversal permutation (power-of-two sizes, via the
    /// appendix's `BitReversalTable`) is a storage permutation like any
    /// other: pullback preserves maximal matchings.
    #[test]
    fn matching_invariant_under_bit_reversal(e in 1u32..9, seed in any::<u64>()) {
        let n = 1usize << e;
        let table = BitReversalTable::new(8);
        let pi: Vec<NodeId> =
            (0..n as NodeId).map(|v| table.reverse(u64::from(v), e) as NodeId).collect();
        let list = random_list(n, seed);
        let perm = permuted(&list, &pi);
        for (name, m) in all_matchings(&perm) {
            let pulled = pull_back_permutation(&list, &m, &pi);
            prop_assert!(verify::is_maximal(&list, &pulled), "{name}");
        }
    }

    /// Aligned constant shift: adding `c ≡ 0 (mod 2^k)` to all initial
    /// labels (addresses `< 2^k`) leaves every label array after
    /// `k ≥ 1` rounds bit-identical, hence the finisher output too —
    /// through `relabel_k` (the matchers' relabel kernel).
    #[test]
    fn aligned_shift_is_exactly_invariant(
        n in 2usize..400,
        seed in any::<u64>(),
        mult in 1u64..9,
        rounds in 1u32..6,
    ) {
        let list = random_list(n, seed);
        let align = (n as u64).next_power_of_two();
        let c = mult * align;
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            let base = LabelSeq::initial(&list, variant).relabel_k(&list, rounds);
            let shifted = LabelSeq::from_labels(
                (0..n as u64).map(|v| v + c).collect(),
                c + n as u64,
                variant,
            )
            .relabel_k(&list, rounds);
            prop_assert_eq!(base.labels(), shifted.labels(), "{:?}", variant);
            prop_assert_eq!(
                from_labels(&list, base.labels()),
                from_labels(&list, shifted.labels())
            );
        }
    }
}

#[test]
fn shift_breaks_alignment() {
    // The relation above is sharp: an unaligned shift changes the coin
    // tosses (carries rewrite low bits). a=1,b=2 differ in bits {0,1};
    // a+1=2,b+1=3 differ only in bit 0.
    assert_ne!(
        f_pair(1, 2, CoinVariant::Msb),
        f_pair(2, 3, CoinVariant::Msb)
    );
}

#[test]
fn pullbacks_are_involutive_on_reversal() {
    // Reversing twice is the identity layout; the double pullback must
    // reproduce the direct matching exactly.
    let list = random_list(500, 9);
    let twice = reversed(&reversed(&list));
    assert_eq!(twice.next_array(), list.next_array());
    assert_eq!(twice.head(), list.head());
}
