//! Checkers for every structural claim the algorithms make.
//!
//! These are the acceptance criteria of the whole reproduction: each
//! algorithm's output is validated as (1) a matching, (2) maximal, and
//! each partition/coloring as adjacent-distinct. All checkers are
//! independent of the algorithms (straightforward sequential/parallel
//! scans) so a bug in an algorithm cannot hide in its own verifier.

use crate::matching::Matching;
use crate::partition::{PointerSets, NO_POINTER};
use parmatch_list::{LinkedList, NodeId, NIL};
use rayon::prelude::*;

/// No two matched pointers share a node.
///
/// Matched pointers `<u, suc u>` and `<v, suc v>` (u ≠ v) share a node
/// iff `suc(u) = v` or `suc(v) = u`, so it suffices that no matched
/// pointer's head is another matched pointer's tail.
pub fn is_matching(list: &LinkedList, m: &Matching) -> bool {
    (0..list.len() as NodeId).into_par_iter().all(|v| {
        if !m.contains_tail(v) {
            return true;
        }
        let head = list.next_raw(v);
        head != NIL && !m.contains_tail(head)
    })
}

/// Every unmatched pointer shares a node with a matched pointer
/// (equivalently: adding any pointer breaks the matching property).
pub fn is_maximal(list: &LinkedList, m: &Matching) -> bool {
    let pred = list.pred_array();
    (0..list.len() as NodeId).into_par_iter().all(|v| {
        let head = list.next_raw(v);
        if head == NIL || m.contains_tail(v) {
            return true; // no pointer, or already matched
        }
        // neighbors of <v, head>: <pred(v), v> and <head, suc(head)>
        let left_matched = pred[v as usize] != NIL && m.contains_tail(pred[v as usize]);
        let right_matched = list.next_raw(head) != NIL && m.contains_tail(head);
        left_matched || right_matched
    })
}

/// A maximal matching on a path of `P` pointers has between `⌈P/3⌉`
/// and `⌈P/2⌉` pointers; check the lower bound (the paper's "at least
/// one of any three consecutive pointers is in the matching").
pub fn covers_third(list: &LinkedList, m: &Matching) -> bool {
    3 * m.len() >= list.pointer_count()
}

/// The partition assigns adjacent pointers different sets (each set is a
/// matching) and a set number to every real pointer.
pub fn partition_is_valid(list: &LinkedList, ps: &PointerSets) -> bool {
    (0..list.len() as NodeId).into_par_iter().all(|v| {
        let head = list.next_raw(v);
        if head == NIL {
            return ps.set_of(v) == NO_POINTER;
        }
        let s = ps.set_of(v);
        if s == NO_POINTER || s >= ps.bound() {
            return false;
        }
        // successor pointer <head, suc(head)>, if any, must differ
        match list.next_raw(head) {
            NIL => true,
            _ => ps.set_of(head) != s,
        }
    })
}

/// A per-tail color array (`colors[v]` = color of pointer `<v, suc v>`)
/// is a proper coloring: every real pointer colored `< palette`, and
/// adjacent pointers differ.
pub fn coloring_is_proper(list: &LinkedList, colors: &[u8], palette: u8) -> bool {
    assert_eq!(colors.len(), list.len(), "color array length mismatch");
    coloring_is_proper_by(list, |v| colors[v], palette)
}

/// [`coloring_is_proper`] reading the color of pointer `<v, suc v>`
/// through `color(v)`, so colors held in atomics are checked in place.
pub(crate) fn coloring_is_proper_by(
    list: &LinkedList,
    color: impl Fn(usize) -> u8 + Send + Sync,
    palette: u8,
) -> bool {
    (0..list.len() as NodeId).into_par_iter().all(|v| {
        let head = list.next_raw(v);
        if head == NIL {
            return true;
        }
        let c = color(v as usize);
        if c >= palette {
            return false;
        }
        match list.next_raw(head) {
            NIL => true,
            _ => color(head as usize) != c,
        }
    })
}

/// Full acceptance check used across the test suites: matching, maximal,
/// and the 1/3 coverage bound.
pub fn assert_maximal_matching(list: &LinkedList, m: &Matching) {
    assert!(is_matching(list, m), "output is not a matching");
    assert!(is_maximal(list, m), "matching is not maximal");
    assert!(covers_third(list, m), "matching smaller than P/3");
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::LinkedList;

    fn chain(n: usize) -> LinkedList {
        LinkedList::from_order(&(0..n as NodeId).collect::<Vec<_>>())
    }

    #[test]
    fn alternating_is_maximal() {
        let l = chain(7); // pointers 0..6
        let mask = vec![true, false, true, false, true, false, false];
        let m = Matching::from_mask(&l, mask);
        assert!(is_matching(&l, &m));
        assert!(is_maximal(&l, &m));
        assert!(covers_third(&l, &m));
    }

    #[test]
    fn adjacent_pair_is_not_matching() {
        let l = chain(4);
        let m = Matching::from_mask(&l, vec![true, true, false, false]);
        assert!(!is_matching(&l, &m));
    }

    #[test]
    fn gap_of_two_breaks_maximality() {
        let l = chain(6); // pointers at tails 0..4
                          // match only <0,1>: pointers <2,3>,<3,4>,<4,5> — <3,4> has no
                          // matched neighbor
        let m = Matching::from_mask(&l, vec![true, false, false, false, false, false]);
        assert!(is_matching(&l, &m));
        assert!(!is_maximal(&l, &m));
    }

    #[test]
    fn empty_matching_on_tiny_lists() {
        let l = chain(1);
        let m = Matching::empty(1);
        assert!(is_matching(&l, &m));
        assert!(is_maximal(&l, &m)); // no pointers: vacuously maximal
        assert!(covers_third(&l, &m));
        let l2 = chain(2);
        let m2 = Matching::empty(2);
        assert!(is_matching(&l2, &m2));
        assert!(!is_maximal(&l2, &m2)); // pointer <0,1> could be added
    }

    #[test]
    fn every_third_is_exactly_maximal() {
        // pointers 0..8; match 0,3,6,8 — each unmatched pointer adjacent
        let l = chain(10);
        let mut mask = vec![false; 10];
        for v in [0usize, 3, 6, 8] {
            mask[v] = true;
        }
        let m = Matching::from_mask(&l, mask.clone());
        assert!(is_matching(&l, &m));
        assert!(is_maximal(&l, &m));
        // remove the middle one: pointers 3,4 both unmatched with
        // unmatched neighbors 2? pointer 2 has neighbor 1 (unmatched)
        mask[3] = false;
        let m2 = Matching::from_mask(&l, mask);
        assert!(!is_maximal(&l, &m2));
    }

    #[test]
    fn proper_coloring_checks() {
        let l = chain(5); // pointers 0..3
        assert!(coloring_is_proper(&l, &[0, 1, 0, 2, 9], 3)); // tail color ignored
        assert!(!coloring_is_proper(&l, &[0, 0, 1, 2, 0], 3)); // adjacent equal
        assert!(!coloring_is_proper(&l, &[0, 1, 3, 2, 0], 3)); // out of palette
    }
}
