//! Differential tests for the native parallel pipeline: every
//! [`Runner`] run — fresh workspace or reused — must be
//! **bit-identical** to the reference oracles (see `oracle/mod.rs`) at
//! every thread count, and a reused [`Workspace`] must never leak state
//! between runs.
//!
//! Thread counts are driven through [`rayon::ThreadPoolBuilder`] — the
//! shim's pool honors `install`, so each block below re-runs the whole
//! pipeline on pools of 1, 2 and 8 workers and compares raw outputs.

mod oracle;

use parmatch_core::finish::from_labels;
use parmatch_core::prelude::*;
use parmatch_core::{LabelSeq, Match4Output};
use parmatch_list::{blocked_list, random_list, reversed_list, sequential_list, LinkedList};

const THREADS: [usize; 3] = [1, 2, 8];

fn on_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

fn layouts() -> Vec<LinkedList> {
    vec![
        random_list(5000, 11),
        random_list(4097, 12),
        sequential_list(3000),
        reversed_list(2048),
        blocked_list(3001, 64, 13),
        random_list(2, 14),
        random_list(3, 15),
    ]
}

/// Runner Match1, fresh and through one reused workspace, equals the
/// reference oracle — matching, round count and final bound — at every
/// thread count.
#[test]
fn match1_bit_identical_across_threads() {
    for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
        let lists = layouts();
        let expected: Vec<_> = lists.iter().map(|l| oracle::match1(l, variant)).collect();
        for &threads in &THREADS {
            on_pool(threads, || {
                let mut ws = Workspace::new();
                for (list, want) in lists.iter().zip(&expected) {
                    let runner = || Runner::new(Algorithm::Match1).variant(variant);
                    let fresh = runner().run(list);
                    let reused = runner().workspace(&mut ws).run(list);
                    let got = reused.as_match1().unwrap();
                    assert_eq!(fresh.matching(), &got.matching, "ws reuse differs");
                    assert_eq!(got.matching, want.matching, "threads={threads}");
                    assert_eq!(got.rounds, want.rounds);
                    assert_eq!(got.final_bound, want.final_bound);
                }
            });
        }
    }
}

/// Match2 likewise, over several round counts.
#[test]
fn match2_bit_identical_across_threads() {
    let lists = layouts();
    let rounds = [1u32, 2, 3];
    let expected: Vec<Vec<Matching>> = lists
        .iter()
        .map(|l| {
            rounds
                .iter()
                .map(|&r| oracle::match2(l, r, CoinVariant::Msb))
                .collect()
        })
        .collect();
    for &threads in &THREADS {
        on_pool(threads, || {
            let mut ws = Workspace::new();
            for (list, want) in lists.iter().zip(&expected) {
                for (&r, want) in rounds.iter().zip(want) {
                    let runner = || Runner::new(Algorithm::Match2).rounds(r);
                    let fresh = runner().run(list);
                    let reused = runner().workspace(&mut ws).run(list);
                    assert_eq!(fresh.matching(), reused.matching(), "ws reuse differs");
                    assert_eq!(reused.matching(), want, "threads={threads} rounds={r}");
                }
            }
        });
    }
}

/// Match3 likewise — the cached table must not change results when hit.
#[test]
fn match3_bit_identical_across_threads() {
    let cfg = Match3Config::default();
    let lists = layouts();
    let expected: Vec<Matching> = lists.iter().map(|l| oracle::match3(l, cfg)).collect();
    for &threads in &THREADS {
        on_pool(threads, || {
            let mut ws = Workspace::new();
            for (list, want) in lists.iter().zip(&expected) {
                let runner = || Runner::new(Algorithm::Match3).config(cfg);
                let fresh = runner().run(list);
                // the second reused run hits the table cache
                let reused = runner().workspace(&mut ws).run(list);
                let cached = runner().workspace(&mut ws).run(list);
                assert_eq!(fresh.matching(), reused.matching(), "ws reuse differs");
                assert_eq!(reused.matching(), cached.matching(), "table cache differs");
                assert_eq!(
                    fresh.as_match3().unwrap().final_bound,
                    reused.as_match3().unwrap().final_bound
                );
                assert_eq!(reused.matching(), want, "threads={threads}");
            }
        });
    }
}

/// Match4 likewise, over i ∈ {1, 2, 3}; diagnostics must agree too.
#[test]
fn match4_bit_identical_across_threads() {
    let lists = layouts();
    let levels = [1u32, 2, 3];
    let expected: Vec<Vec<Match4Output>> = lists
        .iter()
        .map(|l| {
            levels
                .iter()
                .map(|&i| oracle::match4(l, i, CoinVariant::Msb))
                .collect()
        })
        .collect();
    for &threads in &THREADS {
        on_pool(threads, || {
            let mut ws = Workspace::new();
            for (list, want) in lists.iter().zip(&expected) {
                for (&i, want) in levels.iter().zip(want) {
                    let runner = || Runner::new(Algorithm::Match4).levels(i);
                    let fresh = runner().run(list);
                    let reused = runner().workspace(&mut ws).run(list);
                    let got = reused.as_match4().unwrap();
                    assert_eq!(fresh.matching(), &got.matching, "ws reuse differs");
                    assert_eq!(got.matching, want.matching, "threads={threads} i={i}");
                    assert_eq!(got.rows, want.rows);
                    assert_eq!(got.cols, want.cols);
                    assert_eq!(got.distinct_sets, want.distinct_sets);
                    assert_eq!(got.walk_rounds, want.walk_rounds);
                }
            }
        });
    }
}

/// The production relabel kernel (through `relabel_to_convergence`) is
/// identical across thread counts, label for label, and equal to the
/// one-round-at-a-time reference chain.
#[test]
fn relabel_convergence_identical_across_threads() {
    for list in [random_list(6000, 21), blocked_list(2500, 16, 22)] {
        let want = oracle::converged(&list, CoinVariant::Msb);
        for &threads in &THREADS {
            let got = on_pool(threads, || {
                LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list)
            });
            assert_eq!(got, want, "thread count {threads} diverged");
        }
    }
}

/// The finisher (cut + walk + fix-up) produces identical matchings from
/// identical labels at every thread count — the walkdown/finish half of
/// the pipeline isolated from relabeling.
#[test]
fn finish_from_labels_identical_across_threads() {
    let list = random_list(4000, 31);
    let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
    let mut reference: Option<Matching> = None;
    for &threads in &THREADS {
        let m = on_pool(threads, || from_labels(&list, labels.labels()));
        match &reference {
            None => reference = Some(m),
            Some(r) => assert_eq!(*r, m, "thread count {threads} diverged"),
        }
    }
}

/// One workspace shared across *different* algorithms and sizes (the
/// benchmark loop's usage pattern) never contaminates results.
#[test]
fn interleaved_workspace_reuse_is_clean() {
    let mut ws = Workspace::new();
    let sizes = [4000usize, 100, 2500, 2, 900];
    for (k, &n) in sizes.iter().enumerate() {
        let list = random_list(n, 40 + k as u64);
        let mut reused = |algo| {
            Runner::new(algo)
                .workspace(&mut ws)
                .run(&list)
                .into_matching()
        };
        assert_eq!(
            reused(Algorithm::Match1),
            oracle::match1(&list, CoinVariant::Msb).matching
        );
        assert_eq!(
            reused(Algorithm::Match2),
            oracle::match2(&list, 2, CoinVariant::Msb)
        );
        assert_eq!(
            reused(Algorithm::Match3),
            oracle::match3(&list, Match3Config::default())
        );
        assert_eq!(
            reused(Algorithm::Match4),
            oracle::match4(&list, 2, CoinVariant::Msb).matching
        );
    }
}
