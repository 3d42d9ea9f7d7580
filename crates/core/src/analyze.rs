//! Structural diagnostics for the algorithms' intermediate claims.
//!
//! Match1's correctness comment — *"After step 3 the linked list is cut
//! into many sublists each of them has constant number of nodes"* — and
//! the balance of the matching sets are *measurable* statements; the
//! experiments report them through this module rather than taking them
//! on faith.

use crate::finish::local_min_cuts;
use crate::labels::LabelSeq;
use crate::matching::Matching;
use crate::partition::{PointerSets, NO_POINTER};
use parmatch_bits::Word;
use parmatch_list::{cut::sublist_lengths, LinkedList};

/// Histogram of sublist lengths after Match1's step-3 cut for the given
/// labels: `hist[len]` = number of sublists with `len` nodes (index 0
/// unused).
pub fn sublist_length_histogram(list: &LinkedList, labels: &LabelSeq) -> Vec<usize> {
    let cut = local_min_cuts(list, labels.labels());
    let lens = sublist_lengths(list, &cut);
    let max = lens.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for l in lens {
        hist[l] += 1;
    }
    hist
}

/// Longest sublist after the cut — Match1's "constant" claim states
/// this is at most `2·bound − 1` once labels have converged (a cut-free
/// run is unimodal: strictly rising then strictly falling over at most
/// `bound` distinct values each way).
pub fn max_sublist_len(list: &LinkedList, labels: &LabelSeq) -> usize {
    sublist_length_histogram(list, labels)
        .len()
        .saturating_sub(1)
}

/// Matching-set balance: `(smallest, largest, mean)` nonempty set sizes
/// of a partition — how evenly the deterministic coin tossing spreads
/// the pointers (relevant to Match2's sweep and Match4's column loads).
pub fn set_balance(ps: &PointerSets) -> (usize, usize, f64) {
    let sizes: Vec<usize> = ps.histogram().into_iter().filter(|&c| c > 0).collect();
    if sizes.is_empty() {
        return (0, 0, 0.0);
    }
    let min = *sizes.iter().min().unwrap();
    let max = *sizes.iter().max().unwrap();
    let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
    (min, max, mean)
}

/// Fraction of pointers matched — for a maximal matching on a path this
/// lies in `[1/3, 1/2]`; how close to 1/2 measures greedy quality.
pub fn matched_fraction(list: &LinkedList, m: &Matching) -> f64 {
    if list.pointer_count() == 0 {
        return 0.0;
    }
    m.len() as f64 / list.pointer_count() as f64
}

/// Run-length profile of a label sequence along the list: lengths of
/// maximal monotone runs (ascending or descending). The cut happens at
/// run minima, so this is the raw material of the sublist bound.
pub fn monotone_run_lengths(list: &LinkedList, labels: &[Word]) -> Vec<usize> {
    let order = list.order();
    if order.len() < 2 {
        return vec![order.len()];
    }
    let mut runs = Vec::new();
    let mut run_len = 1usize;
    let mut rising: Option<bool> = None;
    for w in order.windows(2) {
        let (a, b) = (labels[w[0] as usize], labels[w[1] as usize]);
        let dir = b > a;
        match rising {
            Some(r) if r == dir => run_len += 1,
            None => {
                rising = Some(dir);
                run_len += 1;
            }
            _ => {
                runs.push(run_len);
                run_len = 2; // the turning node belongs to both runs
                rising = Some(dir);
            }
        }
    }
    runs.push(run_len);
    runs
}

/// Number of pointers whose set number equals each of `0..bound` (dense
/// version of the histogram including empty sets) — used by the
/// experiment tables directly.
pub fn dense_set_sizes(ps: &PointerSets) -> Vec<usize> {
    let mut hist = vec![0usize; ps.bound() as usize];
    for &s in ps.as_slice() {
        if s != NO_POINTER {
            hist[s as usize] += 1;
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::pointer_sets;
    use crate::CoinVariant;
    use parmatch_list::{random_list, sequential_list};

    #[test]
    fn sublists_are_constant_after_convergence() {
        // THE claim behind Match1 step 4: with converged labels
        // (bound ≤ 9) no sublist exceeds 2·bound − 1 = 17 nodes.
        for seed in 0..6 {
            let list = random_list(20_000, seed);
            let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
            let max = max_sublist_len(&list, &labels);
            assert!(
                max < 2 * labels.bound() as usize,
                "seed {seed}: max sublist {max} vs bound {}",
                labels.bound()
            );
        }
    }

    #[test]
    fn histogram_counts_all_nodes() {
        let list = random_list(5000, 3);
        let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_k(&list, 3);
        let hist = sublist_length_histogram(&list, &labels);
        let total: usize = hist.iter().enumerate().map(|(len, &c)| len * c).sum();
        assert_eq!(total, 5000);
    }

    #[test]
    fn runs_bounded_by_label_range() {
        let list = random_list(10_000, 7);
        let labels = LabelSeq::initial(&list, CoinVariant::Msb).relabel_to_convergence(&list);
        let runs = monotone_run_lengths(&list, labels.labels());
        let max_run = runs.iter().copied().max().unwrap();
        // a strictly monotone run visits distinct labels
        assert!(max_run <= labels.bound() as usize, "run {max_run}");
        // runs tile the list with single-node overlaps at the turns
        let nodes: usize = runs.iter().sum::<usize>() - (runs.len() - 1);
        assert_eq!(nodes, 10_000);
    }

    #[test]
    fn set_balance_reports() {
        let list = random_list(10_000, 1);
        let ps = pointer_sets(&list, 1, CoinVariant::Msb);
        let (min, max, mean) = set_balance(&ps);
        assert!(min > 0);
        assert!(max >= min);
        assert!(mean >= min as f64 && mean <= max as f64);
        let dense = dense_set_sizes(&ps);
        assert_eq!(dense.iter().sum::<usize>(), list.pointer_count());
    }

    #[test]
    fn matched_fraction_band() {
        let list = random_list(4000, 9);
        let m = crate::Runner::new(crate::Algorithm::Match4)
            .run(&list)
            .into_matching();
        let f = matched_fraction(&list, &m);
        assert!((1.0 / 3.0..=0.5001).contains(&f), "fraction {f}");
        assert_eq!(
            matched_fraction(&sequential_list(1), &Matching::empty(1)),
            0.0
        );
    }

    #[test]
    fn tiny_lists() {
        let list = sequential_list(1);
        assert_eq!(monotone_run_lengths(&list, &[0]), vec![1]);
    }
}
