//! Regression suite for workspace-arena reuse after failed runs.
//!
//! A pooled service arena is checked out by many jobs in sequence; a job
//! that panics mid-phase (observer-driven cancellation, fault-tripped
//! assertion) must leave the arena fully reusable — in particular
//! Match4's row, round and color buffers, which a panic mid-walk leaves
//! half rewritten, and which the next run must refill rather than
//! trust.

use parmatch_core::prelude::*;
use parmatch_list::random_list;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An enabled observer that panics when a span with the given label is
/// entered — the same shape the service layer's cancellation probe uses.
struct TripWire {
    trip: &'static str,
}

impl Observer for TripWire {
    const ENABLED: bool = true;

    fn enter(&mut self, label: &str) {
        assert!(label != self.trip, "tripped at {label}");
    }

    fn exit(&mut self) {}
    fn counter(&mut self, _: &str, _: u64) {}
    fn bounded(&mut self, _: &str, _: u64, _: u64) {}
}

fn run_tripped(
    algo: Algorithm,
    trip: &'static str,
    list: &parmatch_list::LinkedList,
    ws: &mut Workspace,
) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut probe = TripWire { trip };
        Runner::new(algo)
            .workspace(ws)
            .observer(&mut probe)
            .run(list)
    }));
    assert!(result.is_err(), "TripWire({trip}) should have panicked");
}

#[test]
fn arena_survives_midphase_panics_in_every_algorithm() {
    let list = random_list(4096, 11);
    let mut ws = Workspace::new();
    // Trip each algorithm at a phase deep enough that buffers are midway
    // through being rewritten, then require a clean run in the same
    // arena to be bit-identical to a fresh-workspace run.
    let cases = [
        (Algorithm::Match1, "finish"),
        (Algorithm::Match2, "sweep"),
        (Algorithm::Match3, "relabel"),
        (Algorithm::Match4, "walkdown1"),
        (Algorithm::Match4, "walkdown2"),
        (Algorithm::Match4, "sweep"),
    ];
    for (algo, trip) in cases {
        run_tripped(algo, trip, &list, &mut ws);
        let reused = Runner::new(algo).workspace(&mut ws).run(&list);
        let fresh = Runner::new(algo).run(&list);
        assert_eq!(
            reused.matching(),
            fresh.matching(),
            "{algo} after panic at {trip}"
        );
        verify::assert_maximal_matching(&list, reused.matching());
    }
}

#[test]
fn alternating_failing_and_succeeding_checkouts() {
    // The service pool's worst case: the same arena alternates between
    // jobs that die mid-walkdown and jobs that must still be exact.
    let mut ws = Workspace::new();
    for round in 0..6u64 {
        let list = random_list(1000 + 517 * round as usize, round);
        run_tripped(Algorithm::Match4, "walkdown1", &list, &mut ws);
        let reused = Runner::new(Algorithm::Match4).workspace(&mut ws).run(&list);
        let fresh = Runner::new(Algorithm::Match4).run(&list);
        assert_eq!(reused.matching(), fresh.matching(), "round {round}");
    }
}

#[test]
fn scrubbed_arena_behaves_like_fresh() {
    let mut ws = Workspace::new();
    let list = random_list(3000, 5);
    // Poison the arena, scrub it (what the pool does on check-in after a
    // failure), and require fresh-workspace behavior from then on.
    run_tripped(Algorithm::Match4, "walkdown2", &list, &mut ws);
    ws.scrub();
    for algo in Algorithm::ALL {
        let scrubbed = Runner::new(algo).workspace(&mut ws).run(&list);
        let fresh = Runner::new(algo).run(&list);
        assert_eq!(scrubbed.matching(), fresh.matching(), "{algo}");
    }
}

#[test]
fn grid_storage_is_returned_not_reallocated() {
    // After a mid-walkdown panic Match4's buffers stay in the workspace,
    // half rewritten: a follow-up run of the same size must refill them
    // and reproduce the baseline exactly, however many poisoned rounds
    // came before.
    let list = random_list(2048, 3);
    let mut ws = Workspace::new();
    let baseline = Runner::new(Algorithm::Match4).workspace(&mut ws).run(&list);
    for _ in 0..8 {
        run_tripped(Algorithm::Match4, "walkdown1", &list, &mut ws);
        let again = Runner::new(Algorithm::Match4).workspace(&mut ws).run(&list);
        assert_eq!(again.matching(), baseline.matching());
    }
}
