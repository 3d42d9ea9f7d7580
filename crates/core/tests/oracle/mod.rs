//! Reference oracles the differential suites pin [`Runner`] against.
//!
//! Each one rebuilds an algorithm's output from the crate's reference
//! paths rather than its production kernels: the allocation-per-round
//! [`LabelSeq::relabel`] chain, the reference finishers
//! [`from_labels`] and [`greedy_by_sets`], the
//! [`match4_from_partition`] composition over the public WalkDown
//! entry, and the PRAM simulation of Match3.
//!
//! [`Runner`]: parmatch_core::Runner

#![allow(dead_code)] // each suite uses the oracles it needs

use parmatch_core::finish::{from_labels, greedy_by_sets};
use parmatch_core::pram_impl::match3_pram;
use parmatch_core::{
    match4_from_partition, CoinVariant, LabelSeq, Match1Output, Match3Config, Match4Output,
    Matching, PointerSets,
};
use parmatch_list::LinkedList;
use parmatch_pram::ExecMode;

/// `rounds` chained reference relabel rounds from the address labelling.
pub fn chained(list: &LinkedList, variant: CoinVariant, rounds: u32) -> LabelSeq {
    (0..rounds).fold(LabelSeq::initial(list, variant), |l, _| l.relabel(list))
}

/// Reference relabel rounds, one at a time, until the bound stops
/// shrinking.
pub fn converged(list: &LinkedList, variant: CoinVariant) -> LabelSeq {
    let mut l = LabelSeq::initial(list, variant);
    while !l.converged() {
        l = l.relabel(list);
    }
    l
}

/// Match1: converged labels, then the reference cut-and-walk.
pub fn match1(list: &LinkedList, variant: CoinVariant) -> Match1Output {
    let l = converged(list, variant);
    Match1Output {
        matching: from_labels(list, l.labels()),
        rounds: l.rounds(),
        final_bound: l.bound(),
    }
}

/// Match2: the chained partition, then the reference greedy set sweep.
pub fn match2(list: &LinkedList, rounds: u32, variant: CoinVariant) -> Matching {
    let ps = PointerSets::from_labels(list, &chained(list, variant, rounds));
    greedy_by_sets(list, &ps, None)
}

/// Match3: the step-faithful PRAM simulation of the same pipeline.
pub fn match3(list: &LinkedList, config: Match3Config) -> Matching {
    match3_pram(list, 16, config, ExecMode::Fast)
        .expect("oracle Match3 config fits")
        .matching
}

/// Match4: the chained partition, then the reference grid, WalkDown and
/// greedy sweep (`match4_from_partition`). Lists with fewer than 2
/// nodes have no grid; compare only their matching.
pub fn match4(list: &LinkedList, levels: u32, variant: CoinVariant) -> Match4Output {
    let ps = PointerSets::from_labels(list, &chained(list, variant, levels));
    match4_from_partition(list, &ps)
}
