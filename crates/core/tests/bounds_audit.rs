//! Bound-audit suite: every counter the observability layer records
//! with a paper bound must satisfy it, across a log-spaced size grid
//! and all four matchers — and the audited runs must be bit-identical
//! to plain [`Runner`] runs and to the reference oracles (see
//! `oracle/mod.rs`).
//!
//! The paper claims audited here:
//!
//! * Lemma 1: one `f` round partitions pointers into `≤ 2⌈log₂ n⌉`
//!   matching sets (the first-round distinct-label census);
//! * Lemma 2: every later round's census obeys the `2⌈log₂ b⌉` cascade;
//! * Match1 step 2: `G(n) + O(1)` (≤ `log* n + O(1)`) relabel rounds;
//! * Match1 steps 3–4: sublists cut at local minima have `≤ 2·bound − 1`
//!   nodes, and the walks cover each node exactly once;
//! * Lemmas 6–7 / Corollary 1: WalkDown1 takes `x` lockstep rounds and
//!   WalkDown2 `2x − 1` steps;
//! * Theorems 1–2 (work-optimality): total work is `c·n` with a small
//!   constant `c`, asserted per matcher below and recorded as
//!   `work_per_node_x100`.

mod oracle;

use parmatch_bits::{g_of, ilog2_ceil, log_star};
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};

/// Log-spaced size grid (powers of 4).
const GRID: [u64; 7] = [16, 64, 256, 1024, 4096, 16384, 65536];

/// One Runner run with a [`Recorder`] attached.
fn audited(runner: Runner, list: &LinkedList, ws: &mut Workspace) -> (MatchOutcome, Recording) {
    let mut r = Recorder::new();
    let out = runner.workspace(ws).observer(&mut r).run(list);
    (out, r.finish())
}

fn assert_all_pass(rec: &Recording, what: &str) {
    for a in rec.audits() {
        assert!(
            a.pass,
            "{what}: {} = {} exceeds bound {}",
            a.path, a.value, a.bound
        );
    }
}

#[test]
fn match1_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 7);
        let (out, rec) = audited(Runner::new(Algorithm::Match1), &list, &mut ws);
        let out = out.as_match1().unwrap().clone();
        assert_all_pass(&rec, "match1");

        // Lemma 1: the first census is audited against exactly 2⌈log₂ n⌉.
        let first = rec
            .audits()
            .into_iter()
            .find(|a| a.path.ends_with("distinct_labels"))
            .expect("census recorded");
        assert!(first.path.contains("round"));
        assert_eq!(first.bound, 2 * u64::from(ilog2_ceil(n)), "n={n}");

        // Match1 step 2: G(n) + O(1) ≤ log* n + O(1) rounds.
        assert!(u64::from(out.rounds) <= u64::from(g_of(n)) + 2, "n={n}");
        assert!(u64::from(out.rounds) <= u64::from(log_star(n)) + 3, "n={n}");

        // Steps 3–4 walk every node exactly once.
        assert_eq!(rec.find("walk_nodes"), Some(n), "n={n}");

        // c·n work with c ≤ 12.
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 12 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match2_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 21);
        let (out, rec) = audited(Runner::new(Algorithm::Match2), &list, &mut ws);
        let out = out.as_match2().unwrap().clone();
        assert_all_pass(&rec, "match2");
        let census = rec
            .audits()
            .into_iter()
            .find(|a| a.path.ends_with("distinct_labels"))
            .expect("census recorded");
        assert_eq!(census.bound, 2 * u64::from(ilog2_ceil(n)));
        assert!(out.partition.distinct_sets() as u64 <= out.partition.bound());
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 8 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match3_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 5);
        let (out, rec) = audited(Runner::new(Algorithm::Match3), &list, &mut ws);
        let out = out.as_match3().unwrap().clone();
        assert_all_pass(&rec, "match3");
        assert!(out.jump_rounds >= 1);
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 12 * n, "n={n}: work {wu}");
    }
}

#[test]
fn match4_bounds_hold_on_grid() {
    let mut ws = Workspace::new();
    for &n in &GRID {
        let list = random_list(n as usize, n ^ 13);
        let (out, rec) = audited(Runner::new(Algorithm::Match4), &list, &mut ws);
        let out = out.as_match4().unwrap().clone();
        assert_all_pass(&rec, "match4");

        // Lemmas 6–7: the walk rounds audit is present and tight.
        assert_eq!(out.walk_rounds, 3 * out.rows - 1);
        assert!(rec
            .audits()
            .iter()
            .any(|a| a.path.ends_with("walk_rounds") && a.value == a.bound));

        // c·n work with c ≤ 26 (the sort and walkdown terms dominate).
        let wu = rec.find("work_units").expect("work recorded");
        assert!(wu <= 26 * n, "n={n}: work {wu}");
    }
}

#[test]
fn audited_runs_are_bit_identical_to_plain() {
    // Enabling a real observer must not change one output bit relative
    // to the uninstrumented NoopObserver runs of the same bodies, and
    // both must equal the reference oracles.
    let mut ws_a = Workspace::new();
    let mut ws_b = Workspace::new();
    for &n in &[97u64, 1024, 6000] {
        let list = random_list(n as usize, n);
        for variant in [CoinVariant::Msb, CoinVariant::Lsb] {
            for algo in Algorithm::ALL {
                let runner = || Runner::new(algo).variant(variant);
                let plain = runner().workspace(&mut ws_a).run(&list);
                let (obs, _) = audited(runner(), &list, &mut ws_b);
                assert_eq!(plain.matching(), obs.matching(), "{algo} n={n}");
                match (&plain, &obs) {
                    (MatchOutcome::Match1(a), MatchOutcome::Match1(b)) => {
                        assert_eq!(a.final_bound, b.final_bound);
                    }
                    (MatchOutcome::Match4(a), MatchOutcome::Match4(b)) => {
                        assert_eq!(a.distinct_sets, b.distinct_sets);
                        assert_eq!(a.walk_rounds, b.walk_rounds);
                    }
                    _ => {}
                }
                let cfg = Match3Config {
                    variant,
                    ..Match3Config::default()
                };
                let want = match algo {
                    Algorithm::Match1 => oracle::match1(&list, variant).matching,
                    Algorithm::Match2 => oracle::match2(&list, 2, variant),
                    Algorithm::Match3 => oracle::match3(&list, cfg),
                    Algorithm::Match4 => oracle::match4(&list, 2, variant).matching,
                };
                assert_eq!(obs.matching(), &want, "{algo} n={n} vs oracle");
            }
        }
    }
}

#[test]
fn recordings_are_deterministic_across_runs() {
    let list = random_list(3000, 42);
    let render = |ws: &mut Workspace| {
        audited(Runner::new(Algorithm::Match4), &list, ws)
            .1
            .render()
    };
    let mut ws = Workspace::new();
    let a = render(&mut ws);
    let b = render(&mut ws);
    assert_eq!(a, b);
    assert!(!a.contains("VIOLATED"), "{a}");
}
