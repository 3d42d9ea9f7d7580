//! The workspace allocation contract, asserted with a counting global
//! allocator.
//!
//! A steady-state run — same list size, same reused [`Workspace`] —
//! keeps every per-node scratch buffer in the workspace. What it still
//! allocates is its output plus bookkeeping whose size is bounded by
//! the thread count, not by `n`:
//!
//! * the rayon shim's parallel dispatch: each parallel pass splits into
//!   at most one part per thread, and each part costs a few small
//!   allocations (tens of allocations per run on one thread, hundreds
//!   on eight);
//! * the shim's ordered `collect`, which gathers per-part vectors and
//!   then concatenates them, so an output built by `collect` is
//!   allocated twice. A [`Runner`] run collects its `Matching` mask
//!   (and Match2 its `PointerSets`), hence allocates about twice its
//!   outputs; `match1_batch_in` writes each job's mask in place, so a
//!   batch allocates its outputs once.
//!
//! The test runs every algorithm, and a fused batch, on pools of 1, 2
//! and 8 threads, at `n = 2^12` and `n = 2^16`. It asserts that the
//! bytes allocated beyond those output copies grow by less than half a
//! byte per added node. Any per-node buffer allocated per run costs at
//! least one byte per node and fails the check.

use parmatch_core::batch::{match1_batch_in, BatchPlan};
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that counts allocations and allocated bytes
/// (reallocations count their new size).
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes and allocations made while `f` runs.
fn measure<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    let (b0, c0) = (BYTES.load(Ordering::SeqCst), COUNT.load(Ordering::SeqCst));
    let r = f();
    let (b1, c1) = (BYTES.load(Ordering::SeqCst), COUNT.load(Ordering::SeqCst));
    (r, b1 - b0, c1 - c0)
}

/// One steady-state measurement: bytes allocated beyond the expected
/// output copies, and the allocation count.
struct Excess {
    bytes: isize,
    allocs: usize,
}

/// Heap bytes of a returned outcome: the matching's mask, plus the
/// partition Match2 hands back.
fn output_bytes(out: &MatchOutcome) -> usize {
    let n = out.matching().mask().len();
    match out {
        MatchOutcome::Match2(o) => n + std::mem::size_of_val(o.partition.as_slice()),
        _ => n,
    }
}

/// A Runner run of `algo` on an `n`-node list, measured after a warm-up
/// run has sized every workspace buffer (and the Match3 table cache).
fn runner_excess(algo: Algorithm, n: usize) -> Excess {
    let list = random_list(n, 7);
    let mut ws = Workspace::new();
    Runner::new(algo).workspace(&mut ws).run(&list);
    let (out, bytes, allocs) = measure(|| Runner::new(algo).workspace(&mut ws).run(&list));
    Excess {
        bytes: bytes as isize - 2 * output_bytes(&out) as isize,
        allocs,
    }
}

/// A fused batch of four equal-size Match1 jobs, `n` nodes in total.
fn batch_excess(n: usize) -> Excess {
    let lists: Vec<LinkedList> = (0..4).map(|s| random_list(n / 4, s)).collect();
    let refs: Vec<&LinkedList> = lists.iter().collect();
    let plan = BatchPlan::new(&refs, CoinVariant::Msb).expect("equal sizes share a key");
    let mut ws = Workspace::new();
    match1_batch_in(&refs, &plan, &mut ws);
    let (outs, bytes, allocs) = measure(|| match1_batch_in(&refs, &plan, &mut ws));
    let out: usize = outs.iter().map(|o| o.matching.mask().len()).sum();
    Excess {
        bytes: bytes as isize - out as isize,
        allocs,
    }
}

/// One test function, so no other test of this binary allocates while
/// a measurement runs.
#[test]
fn steady_state_allocation_does_not_grow_with_n() {
    const SMALL: usize = 1 << 12;
    const LARGE: usize = 1 << 16;
    let budget = ((LARGE - SMALL) / 2) as isize;
    let mut failures = Vec::new();
    for threads in [1, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut cases: Vec<(&str, Excess, Excess)> = Algorithm::ALL
                .into_iter()
                .map(|a| (a.name(), runner_excess(a, SMALL), runner_excess(a, LARGE)))
                .collect();
            cases.push(("match1_batch_in", batch_excess(SMALL), batch_excess(LARGE)));
            for (name, small, large) in cases {
                if large.bytes - small.bytes >= budget {
                    failures.push(format!(
                        "{name} on {threads} threads: {} B in {} allocations at 2^12, \
                         {} B in {} allocations at 2^16",
                        small.bytes, small.allocs, large.bytes, large.allocs
                    ));
                }
            }
        });
    }
    assert!(
        failures.is_empty(),
        "allocation beyond the outputs grows with n:\n{}",
        failures.join("\n")
    );
}
