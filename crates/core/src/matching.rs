//! Matching representation.

use crate::workspace::par_fill;
use parmatch_list::{LinkedList, NodeId, Pointer, NIL};
use rayon::prelude::*;

/// A set of list pointers, stored as a membership mask over pointer
/// tails: pointer `<v, suc(v)>` is identified by its tail `v`.
///
/// Nothing in the representation enforces the matching property — that
/// is what [`crate::verify`] is for — but every constructor in this
/// crate produces genuine matchings and the debug-assertions check it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    /// `in_matching[v]` ⇔ pointer `<v, suc(v)>` is matched.
    in_matching: Vec<bool>,
}

impl Matching {
    /// An empty matching over a list of `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self {
            in_matching: vec![false; n],
        }
    }

    /// Build from a membership mask over pointer tails.
    ///
    /// # Panics
    ///
    /// Panics if the mask marks a node with no outgoing pointer.
    pub fn from_mask(list: &LinkedList, mask: Vec<bool>) -> Self {
        assert_eq!(mask.len(), list.len(), "mask length mismatch");
        for (v, &m) in mask.iter().enumerate() {
            assert!(
                !m || list.next_raw(v as NodeId) != NIL,
                "node {v} has no outgoing pointer but is marked matched"
            );
        }
        Self { in_matching: mask }
    }

    /// [`Self::from_mask`] without the per-node validation pass, for
    /// in-crate callers whose construction already guarantees every mark
    /// sits on a real pointer (debug builds still check).
    pub(crate) fn from_mask_unchecked(list: &LinkedList, mask: Vec<bool>) -> Self {
        debug_assert_eq!(mask.len(), list.len(), "mask length mismatch");
        debug_assert!(mask
            .iter()
            .enumerate()
            .all(|(v, &m)| !m || list.next_raw(v as NodeId) != NIL));
        let _ = list;
        Self { in_matching: mask }
    }

    /// Build the mask in place, `mask[v] := marked(v)` in parallel
    /// chunks, with [`Self::from_mask`]'s check inside the same pass.
    ///
    /// # Panics
    ///
    /// Panics if `marked` marks a node with no outgoing pointer.
    pub(crate) fn from_marks<F>(list: &LinkedList, marked: F) -> Self
    where
        F: Fn(usize) -> bool + Sync,
    {
        let mut mask = vec![false; list.len()];
        par_fill(&mut mask, |v| {
            let m = marked(v);
            assert!(
                !m || list.next_raw(v as NodeId) != NIL,
                "node {v} has no outgoing pointer but is marked matched"
            );
            m
        });
        Self::from_mask_unchecked(list, mask)
    }

    /// Is pointer `<v, suc(v)>` matched?
    #[inline]
    pub fn contains_tail(&self, v: NodeId) -> bool {
        self.in_matching[v as usize]
    }

    /// Membership mask over pointer tails.
    #[inline]
    pub fn mask(&self) -> &[bool] {
        &self.in_matching
    }

    /// Number of matched pointers.
    pub fn len(&self) -> usize {
        self.in_matching.par_iter().filter(|&&b| b).count()
    }

    /// True iff no pointer is matched.
    pub fn is_empty(&self) -> bool {
        !self.in_matching.par_iter().any(|&b| b)
    }

    /// The matched pointers as explicit `<tail, head>` pairs.
    pub fn pointers(&self, list: &LinkedList) -> Vec<Pointer> {
        self.in_matching
            .par_iter()
            .enumerate()
            .filter_map(|(v, &m)| {
                if !m {
                    return None;
                }
                let head = list.next_raw(v as NodeId);
                debug_assert_ne!(head, NIL);
                Some(Pointer {
                    tail: v as NodeId,
                    head,
                })
            })
            .collect()
    }

    /// Per-node "is an endpoint of a matched pointer" mask — the `DONE`
    /// array of Match2 step 3.
    pub fn matched_nodes(&self, list: &LinkedList) -> Vec<bool> {
        let mut done = vec![false; list.len()];
        for (v, &m) in self.in_matching.iter().enumerate() {
            if m {
                done[v] = true;
                done[list.next_raw(v as NodeId) as usize] = true;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmatch_list::LinkedList;

    fn chain5() -> LinkedList {
        LinkedList::from_order(&[0, 1, 2, 3, 4])
    }

    #[test]
    fn empty_matching() {
        let m = Matching::empty(5);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert!(!m.contains_tail(0));
    }

    #[test]
    fn from_mask_and_queries() {
        let l = chain5();
        let m = Matching::from_mask(&l, vec![true, false, true, false, false]);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
        assert!(m.contains_tail(0) && m.contains_tail(2));
        let ptrs = {
            let mut p = m.pointers(&l);
            p.sort();
            p
        };
        assert_eq!(ptrs.len(), 2);
        assert_eq!((ptrs[0].tail, ptrs[0].head), (0, 1));
        assert_eq!((ptrs[1].tail, ptrs[1].head), (2, 3));
    }

    #[test]
    fn matched_nodes_covers_both_endpoints() {
        let l = chain5();
        let m = Matching::from_mask(&l, vec![false, true, false, false, false]);
        assert_eq!(m.matched_nodes(&l), vec![false, true, true, false, false]);
    }

    #[test]
    fn from_marks_equals_from_mask() {
        let l = chain5();
        let mask = vec![true, false, true, false, false];
        let m = Matching::from_marks(&l, |v| mask[v]);
        assert_eq!(m, Matching::from_mask(&l, mask));
    }

    #[test]
    #[should_panic(expected = "no outgoing pointer")]
    fn from_marks_keeps_the_pointer_check() {
        Matching::from_marks(&chain5(), |v| v == 4);
    }

    #[test]
    #[should_panic(expected = "no outgoing pointer")]
    fn tail_cannot_be_matched() {
        let l = chain5();
        Matching::from_mask(&l, vec![false, false, false, false, true]);
    }
}
