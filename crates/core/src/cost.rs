//! The paper's analytic step-count predictions, plus exact native work
//! predictors reconciled with the [`crate::obs`] measurements.
//!
//! Two families live here:
//!
//! * **simulator-step forms** ([`match1_predicted`] …): the leading-order
//!   `O(·)` step counts of Lemmas 3–5 / Theorem 2 as functions of
//!   `(n, p)`. The experiment harness compares *measured* simulator step
//!   counts against these in shape only — constant factors are
//!   implementation artifacts the paper does not fix.
//! * **native work forms** ([`match1_native_work`] …): exact
//!   sequential-work predictions for the rayon-native pipelines,
//!   in the same units the observability layer's `work_units` counter
//!   measures (one unit = one node visited by one pass). These are
//!   derived independently from the bound cascade
//!   ([`parmatch_bits::cascade_bound`] / [`parmatch_bits::cascade_rounds`])
//!   and pinned **equal** to the measured counters by the
//!   `native_predictors_match_observed_work` test — the reconciliation
//!   between `cost` and `obs` that keeps neither side drifting.

use parmatch_bits::{cascade_bound, cascade_rounds, g_of, ilog2_ceil, iterated_log_ceil, log_g};

/// `⌈n/p⌉` — the per-round cost of a parallel loop over `n` items with
/// `p` processors.
#[inline]
pub fn rounds_per_sweep(n: u64, p: u64) -> u64 {
    n.div_ceil(p.max(1))
}

/// Match1 (Lemma 3): `O(n·G(n)/p + G(n))`.
pub fn match1_predicted(n: u64, p: u64) -> u64 {
    let g = u64::from(g_of(n));
    g * rounds_per_sweep(n, p) + g
}

/// Match2 (Lemma 4): `O(n/p + log n)`.
pub fn match2_predicted(n: u64, p: u64) -> u64 {
    rounds_per_sweep(n, p) + u64::from(ilog2_ceil(n))
}

/// Match3 (Lemma 5): `O(n·log G(n)/p + log G(n))`.
pub fn match3_predicted(n: u64, p: u64) -> u64 {
    let lg = u64::from(log_g(n));
    lg * rounds_per_sweep(n, p) + lg
}

/// Match4 (Theorem 2) in its Lemma 3 partition form:
/// `O(i·n/p + log^(i) n)` — with the table partition the `i` factor
/// becomes `log i`.
pub fn match4_predicted(n: u64, p: u64, i: u32) -> u64 {
    u64::from(i) * rounds_per_sweep(n, p) + iterated_log_ceil(n, i)
}

/// The processor count up to which Theorem 1 promises optimality:
/// `p = n / log^(i) n`.
pub fn match4_optimal_procs(n: u64, i: u32) -> u64 {
    (n / iterated_log_ceil(n, i).max(1)).max(1)
}

/// The processor count up to which Match2 stays optimal (Lemma 4):
/// `p = n / log n`.
pub fn match2_optimal_procs(n: u64) -> u64 {
    (n / u64::from(ilog2_ceil(n)).max(1)).max(1)
}

/// Work-efficiency of a measured run: `p·T_p / n` (a maximal matching
/// takes `T_1 = Θ(n)` sequentially, so values `O(1)` mean optimal).
pub fn work_efficiency(n: u64, p: u64, steps: u64) -> f64 {
    (p as f64 * steps as f64) / n.max(1) as f64
}

/// Exact work units of the native Match1 pipeline ([`Runner`](crate::Runner) with
/// [`Algorithm::Match1`](crate::Algorithm::Match1)) on an `n`-node
/// list: `n` per relabel round (the round count is the data-independent
/// [`cascade_rounds`]) plus the finisher's four passes. Zero for lists
/// without pointers.
pub fn match1_native_work(n: u64) -> u64 {
    if n < 2 {
        return 0;
    }
    n * u64::from(cascade_rounds(n)) + 4 * n
}

/// Exact work units of the native Match2 pipeline ([`Runner`](crate::Runner) with
/// [`Algorithm::Match2`](crate::Algorithm::Match2)) with `rounds`
/// partition rounds on a single-tail list: `n` per round, set
/// projection `n`, counting sort `2·(n−1)` over the `n − 1` real
/// pointers (histogram + placement), sweep `n − 1`, final mask `n` —
/// which regroups to `n·(rounds + 3) + 2·(n − 1)`.
pub fn match2_native_work(n: u64, rounds: u32) -> u64 {
    if n < 2 {
        return 0;
    }
    n * (u64::from(rounds) + 3) + 2 * (n - 1)
}

/// Exact work units of the native Match3 pipeline ([`Runner`](crate::Runner) with
/// [`Algorithm::Match3`](crate::Algorithm::Match3)): `n` per crunch
/// round, two passes per pointer-jump round (concatenate + jump), one
/// probe pass, the finisher's four passes.
pub fn match3_native_work(n: u64, crunch_rounds: u32, jump_rounds: u32) -> u64 {
    if n < 2 {
        return 0;
    }
    n * (u64::from(crunch_rounds) + 2 * u64::from(jump_rounds) + 5)
}

/// Exact work units of the native Match4 pipeline ([`Runner`](crate::Runner) with
/// [`Algorithm::Match4`](crate::Algorithm::Match4)) with `i`
/// partition rounds on a single-tail list. With `x = ` [`cascade_bound`]
/// `(n, i)` rows and `y = ⌈n/x⌉` columns: `i·n` relabel, `10n` of
/// linear passes (set projection, census, the grid's five passes, the
/// color-class projection, greedy histogram and final mask),
/// `n·⌈log₂ x⌉` per-column sorting, `(3x − 1)·y` walkdown lockstep
/// work, and `2·(n − 1)` greedy placement + sweep.
pub fn match4_native_work(n: u64, i: u32) -> u64 {
    if n < 2 {
        return 0;
    }
    let x = cascade_bound(n, i);
    let lx = u64::from(ilog2_ceil(x).max(1));
    let y = n.div_ceil(x);
    n * (u64::from(i) + 10 + lx) + (3 * x - 1) * y + 2 * (n - 1)
}

/// The `c` of the native pipelines' `c·n` work, rounded up: the paper's
/// Theorem 1 constant for this implementation at the given `n`
/// (diagnostic; the bound audits use the exact forms above).
pub fn native_work_constant(work_units: u64, n: u64) -> u64 {
    work_units.div_ceil(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_rounds() {
        assert_eq!(rounds_per_sweep(100, 10), 10);
        assert_eq!(rounds_per_sweep(101, 10), 11);
        assert_eq!(rounds_per_sweep(5, 100), 1);
        assert_eq!(rounds_per_sweep(5, 0), 5);
    }

    #[test]
    fn predictions_scale_down_with_p() {
        let n = 1 << 20;
        for f in [
            match1_predicted as fn(u64, u64) -> u64,
            match2_predicted,
            match3_predicted,
        ] {
            assert!(f(n, 1) > f(n, 64));
            assert!(f(n, 64) >= f(n, n));
        }
        assert!(match4_predicted(n, 1, 2) > match4_predicted(n, 1 << 10, 2));
    }

    #[test]
    fn match4_beats_match2_at_high_p() {
        // Past p = n/log n Match2's additive log n dominates while
        // Match4's additive log^(i) n stays tiny.
        let n: u64 = 1 << 20;
        let p = n / 2; // far beyond n/log n
        assert!(match4_predicted(n, p, 3) < match2_predicted(n, p));
    }

    #[test]
    fn optimal_proc_bounds_ordered() {
        let n: u64 = 1 << 20;
        assert!(match4_optimal_procs(n, 2) > match2_optimal_procs(n));
        assert!(match4_optimal_procs(n, 3) >= match4_optimal_procs(n, 2));
    }

    #[test]
    fn efficiency_constant_at_optimal_p() {
        let n: u64 = 1 << 18;
        let p = match2_optimal_procs(n);
        let t = match2_predicted(n, p);
        assert!(work_efficiency(n, p, t) < 4.0);
    }

    #[test]
    fn native_predictors_match_observed_work() {
        // The reconciliation test of the cost/obs disconnect: the
        // predictors above derive work from the bound cascade alone; the
        // matchers assemble their `work_units` counter from what they
        // actually executed. The two must agree exactly.
        use crate::obs::{Recorder, Recording};
        use crate::runner::{Algorithm, MatchOutcome, Runner};
        use crate::Workspace;
        use parmatch_list::{random_list, LinkedList};

        let mut ws = Workspace::new();
        let mut observed = |algo: Algorithm, list: &LinkedList| -> (MatchOutcome, Recording) {
            let mut rec = Recorder::new();
            let out = Runner::new(algo)
                .workspace(&mut ws)
                .observer(&mut rec)
                .run(list);
            (out, rec.finish())
        };
        for n in [2u64, 97, 1024, 5000] {
            let list = random_list(n as usize, 11);
            let work = |rec: &Recording| rec.find("work_units").unwrap_or(0);

            let (_, rec) = observed(Algorithm::Match1, &list);
            assert_eq!(work(&rec), match1_native_work(n), "match1 n={n}");

            let (_, rec) = observed(Algorithm::Match2, &list);
            assert_eq!(work(&rec), match2_native_work(n, 2), "match2 n={n}");

            let (out, rec) = observed(Algorithm::Match3, &list);
            let out = out.as_match3().expect("Match3 outcome");
            assert_eq!(
                work(&rec),
                match3_native_work(n, out.crunch_rounds, out.jump_rounds),
                "match3 n={n}"
            );

            let (_, rec) = observed(Algorithm::Match4, &list);
            assert_eq!(work(&rec), match4_native_work(n, 2), "match4 n={n}");
            assert!(native_work_constant(match4_native_work(n, 2), n) <= 26);
        }
        assert_eq!(match1_native_work(1), 0);
        assert_eq!(match4_native_work(0, 2), 0);
    }
}
