//! Property-based tests: every algorithm, every layout family, every
//! variant — output is always a maximal matching; partitions are always
//! valid; [`Runner`](parmatch_core::Runner) agrees with the reference
//! oracles (see `oracle/mod.rs`) and with the PRAM implementations.
//!
//! Two depth tiers: cheap native-only properties run at 256 cases;
//! properties that drive the simulated PRAM (or build Match3 jump
//! tables) under the debug-profile conflict checker stay at 48.

mod oracle;

use parmatch_core::pram_impl::{
    match1_pram, match2_pram, match3_pram, match4_pram, rank_pram, wyllie_pram,
};
use parmatch_core::prelude::*;
use parmatch_core::{f_pair, pointer_sets, LabelSeq};
use parmatch_list::{blocked_list, random_list, LinkedList, NodeId};

/// One Runner run with a fresh workspace and default knobs apart from
/// the coin variant and `k` (Match2 rounds, Match4 levels).
fn run(algo: Algorithm, list: &LinkedList, k: u32, variant: CoinVariant) -> Matching {
    Runner::new(algo)
        .variant(variant)
        .rounds(k)
        .levels(k)
        .run(list)
        .into_matching()
}

/// The same run through a caller-owned workspace.
fn run_in(algo: Algorithm, list: &LinkedList, ws: &mut Workspace) -> Matching {
    Runner::new(algo).workspace(ws).run(list).into_matching()
}

use parmatch_pram::ExecMode;
use proptest::prelude::*;

prop_compose! {
    /// Arbitrary list: a random permutation order derived from a seed.
    fn list_strategy()(n in 2usize..1200, seed in any::<u64>()) -> LinkedList {
        random_list(n, seed)
    }
}

proptest! {
    // Cheap tier: pure word-level and native-algorithm properties.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The defining matching-partition property of f on arbitrary words.
    #[test]
    fn f_property_arbitrary_words(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assume!(a != b && b != c);
        for v in [CoinVariant::Msb, CoinVariant::Lsb] {
            prop_assert_ne!(f_pair(a, b, v), f_pair(b, c, v));
        }
    }

    /// Labels stay adjacent-distinct and within bound through any number
    /// of rounds, on any list, and the production relabel kernel equals
    /// the chained reference rounds.
    #[test]
    fn labels_invariant(list in list_strategy(), rounds in 1u32..8) {
        let l = LabelSeq::initial(&list, CoinVariant::Msb).relabel_k(&list, rounds);
        prop_assert!(l.adjacent_distinct(&list));
        prop_assert!(l.max_label() < l.bound());
        prop_assert_eq!(l, oracle::chained(&list, CoinVariant::Msb, rounds));
    }

    /// Lemma 1 on arbitrary lists: one round gives ≤ 2⌈log n⌉ + 1 sets.
    #[test]
    fn lemma1_bound(list in list_strategy()) {
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        let bound = 2 * parmatch_bits::ilog2_ceil(list.len() as u64) as usize + 1;
        prop_assert!(ps.distinct_sets() <= bound);
        prop_assert!(verify::partition_is_valid(&list, &ps));
    }

    /// Blocked layouts (the partially sorted family) work everywhere.
    #[test]
    fn blocked_layout(n in 2usize..800, block in 1usize..64, seed in any::<u64>()) {
        let list = blocked_list(n, block, seed);
        let m = run(Algorithm::Match4, &list, 2, CoinVariant::Msb);
        verify::assert_maximal_matching(&list, &m);
    }

    /// Matching size always sits in the maximal band [P/3, ⌈P/2⌉].
    #[test]
    fn size_band(list in list_strategy()) {
        let p = list.pointer_count();
        for algo in [Algorithm::Match1, Algorithm::Match2, Algorithm::Match4] {
            let m = run(algo, &list, 2, CoinVariant::Msb);
            prop_assert!(3 * m.len() >= p, "too small: {} of {p}", m.len());
            prop_assert!(2 * m.len() <= p + 1, "too large: {} of {p}", m.len());
        }
    }

    /// Runner through a reused workspace is bit-identical to the
    /// reference oracles on arbitrary lists — including a workspace
    /// warmed up on a *different* list.
    #[test]
    fn workspace_drivers_bit_identical(list in list_strategy(), warm in list_strategy()) {
        let mut ws = Workspace::new();
        // warm the arena on an unrelated size so stale state would show
        let _ = run_in(Algorithm::Match4, &warm, &mut ws);
        let v = CoinVariant::Msb;
        prop_assert_eq!(run_in(Algorithm::Match1, &list, &mut ws), oracle::match1(&list, v).matching);
        prop_assert_eq!(run_in(Algorithm::Match2, &list, &mut ws), oracle::match2(&list, 2, v));
        prop_assert_eq!(run_in(Algorithm::Match4, &list, &mut ws), oracle::match4(&list, 2, v).matching);
    }

    /// Relabeling a list is permutation-equivariant in the trivial
    /// sense: the matching depends only on the layout, not on any
    /// global state (two identical runs agree).
    #[test]
    fn reproducible(n in 2usize..500, seed in any::<u64>()) {
        let a = random_list(n, seed);
        let b = random_list(n, seed);
        for algo in [Algorithm::Match1, Algorithm::Match4] {
            prop_assert_eq!(run(algo, &a, 2, CoinVariant::Msb), run(algo, &b, 2, CoinVariant::Msb));
        }
    }
}

proptest! {
    // Slow tier: properties that run the simulated PRAM under the
    // checked-mode conflict detector, or build Match3's default jump
    // table, per case.
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All four native algorithms produce maximal matchings on anything,
    /// bit-identical to the reference oracles. (Stays in the slow tier:
    /// the default Match3 config builds its full jump table per case.)
    #[test]
    fn all_algorithms_maximal(list in list_strategy(), variant_lsb in any::<bool>()) {
        let variant = if variant_lsb { CoinVariant::Lsb } else { CoinVariant::Msb };
        let m1 = run(Algorithm::Match1, &list, 2, variant);
        verify::assert_maximal_matching(&list, &m1);
        prop_assert_eq!(m1, oracle::match1(&list, variant).matching);
        let m2 = run(Algorithm::Match2, &list, 2, variant);
        verify::assert_maximal_matching(&list, &m2);
        prop_assert_eq!(m2, oracle::match2(&list, 2, variant));
        let m3 = run(Algorithm::Match3, &list, 2, variant);
        verify::assert_maximal_matching(&list, &m3);
        let m4 = run(Algorithm::Match4, &list, 2, variant);
        verify::assert_maximal_matching(&list, &m4);
        prop_assert_eq!(m4, oracle::match4(&list, 2, variant).matching);
    }

    /// Runner Match3 with a reused workspace (and its cached lookup
    /// table) equals a fresh run on arbitrary lists. (Slow tier: builds
    /// the default jump table per case on a cache miss.)
    #[test]
    fn workspace_match3_bit_identical(list in list_strategy()) {
        let mut ws = Workspace::new();
        let fresh = Runner::new(Algorithm::Match3).run(&list);
        let a = Runner::new(Algorithm::Match3).workspace(&mut ws).run(&list);
        let b = Runner::new(Algorithm::Match3).workspace(&mut ws).run(&list); // table-cache hit
        prop_assert_eq!(fresh.matching(), a.matching());
        prop_assert_eq!(a.matching(), b.matching());
        prop_assert_eq!(fresh.as_match3().unwrap().final_bound, a.as_match3().unwrap().final_bound);
    }

    /// PRAM Match1 equals native Match1 exactly (same algorithm, same
    /// deterministic tie-breaking), and is EREW-legal.
    #[test]
    fn pram_match1_equals_native(list in list_strategy(), p in 1usize..128) {
        let pram = match1_pram(&list, p, CoinVariant::Msb, ExecMode::Checked).unwrap();
        let native = run(Algorithm::Match1, &list, 2, CoinVariant::Msb);
        prop_assert_eq!(pram.matching, native);
    }

    /// PRAM Match2 is maximal and EREW-legal for any processor count —
    /// and *identical* to the native result: within a matching set the
    /// greedy decisions are independent, so processing order is moot.
    #[test]
    fn pram_match2_equals_native(list in list_strategy(), p in 1usize..128) {
        let out = match2_pram(&list, p, 2, CoinVariant::Msb, ExecMode::Checked).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        let native = run(Algorithm::Match2, &list, 2, CoinVariant::Msb);
        prop_assert_eq!(out.matching, native);
    }

    /// PRAM Match4 is maximal and CREW-legal for any i and row padding —
    /// and identical to the native result (same grid, same schedule,
    /// same deterministic color picks).
    #[test]
    fn pram_match4_maximal(list in list_strategy(), i in 1u32..4, pad in 0usize..40) {
        let out = match4_pram(&list, i, None, CoinVariant::Msb, ExecMode::Checked).unwrap();
        verify::assert_maximal_matching(&list, &out.matching);
        let native = run(Algorithm::Match4, &list, i, CoinVariant::Msb);
        prop_assert_eq!(&out.matching, &native);
        if pad > 0 {
            let rows = out.rows + pad;
            if rows <= list.len() {
                let padded =
                    match4_pram(&list, i, Some(rows), CoinVariant::Msb, ExecMode::Checked)
                        .unwrap();
                verify::assert_maximal_matching(&list, &padded.matching);
            }
        }
    }

    /// PRAM Match3 equals native Match3 exactly (same deterministic
    /// pipeline) and is EREW-legal, for any processor count. Uses the
    /// lean (j = 1, 2^8-entry) table so the per-case broadcast stays
    /// cheap under the debug-profile conflict checker; the full default
    /// table is exercised by the unit tests and E13.
    #[test]
    fn pram_match3_equals_native(list in list_strategy(), p in 1usize..32) {
        let cfg = Match3Config { jump_rounds: Some(1), ..Match3Config::default() };
        let native = Runner::new(Algorithm::Match3).config(cfg).run(&list);
        let pram = match3_pram(&list, p, cfg, ExecMode::Checked).unwrap();
        prop_assert_eq!(&pram.matching, native.matching());
    }

    /// PRAM Wyllie matches the sequential ranks and is CREW-legal.
    #[test]
    fn pram_wyllie_ranks(list in list_strategy(), p in 1usize..64) {
        let out = wyllie_pram(&list, p, ExecMode::Checked).unwrap();
        prop_assert_eq!(out.ranks, list.ranks_seq());
    }

    /// The full on-machine contraction ranking matches the sequential
    /// ranks and is CREW-legal, for any list and partition parameter.
    #[test]
    fn pram_rank_matches_ground_truth(n in 2usize..600, seed in any::<u64>(), i in 1u32..3) {
        let list = random_list(n, seed);
        let out = rank_pram(&list, i, ExecMode::Checked).unwrap();
        prop_assert_eq!(out.ranks, list.ranks_seq());
    }
}

#[test]
fn exhaustive_tiny_lists() {
    // every permutation of up to 6 nodes, every algorithm
    fn permutations(n: usize) -> Vec<Vec<NodeId>> {
        if n == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for rest in permutations(n - 1) {
            for pos in 0..=rest.len() {
                let mut p = rest.clone();
                p.insert(pos, (n - 1) as NodeId);
                out.push(p);
            }
        }
        out
    }
    for n in 2..=6 {
        for perm in permutations(n) {
            let list = LinkedList::from_order(&perm);
            for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
                for algo in [Algorithm::Match1, Algorithm::Match2, Algorithm::Match4] {
                    verify::assert_maximal_matching(&list, &run(algo, &list, 1, variant));
                }
            }
            let pram = match4_pram(&list, 1, None, CoinVariant::Msb, ExecMode::Checked).unwrap();
            verify::assert_maximal_matching(&list, &pram.matching);
        }
    }
}
