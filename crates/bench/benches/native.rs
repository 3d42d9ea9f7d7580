//! E16 companion: the workspace-backed native pipeline vs the
//! fresh-allocation drivers, and steady-state reuse across thread pool
//! sizes — the criterion view of `experiments -- native`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parmatch_bench::SEED;
use parmatch_core::{Algorithm, CoinVariant, Runner, Workspace};
use parmatch_list::random_list;
use std::hint::black_box;

/// Fresh allocations per call vs one reused arena: the cost of the
/// per-node scratch a reused workspace keeps is the delta between each
/// `fresh`/`reused` pair.
fn bench_workspace_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_workspace");
    g.sample_size(15);
    for e in [16u32, 19] {
        let n = 1usize << e;
        let list = random_list(n, SEED);
        g.throughput(Throughput::Elements(n as u64));
        let tag = format!("2^{e}");
        g.bench_with_input(BenchmarkId::new("match1_fresh", &tag), &list, |b, l| {
            b.iter(|| {
                black_box(
                    Runner::new(Algorithm::Match1)
                        .variant(CoinVariant::Msb)
                        .run(l),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("match1_reused", &tag), &list, |b, l| {
            let mut ws = Workspace::new();
            b.iter(|| {
                black_box(
                    Runner::new(Algorithm::Match1)
                        .variant(CoinVariant::Msb)
                        .workspace(&mut ws)
                        .run(l),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("match3_fresh", &tag), &list, |b, l| {
            b.iter(|| black_box(Runner::new(Algorithm::Match3).run(l)))
        });
        g.bench_with_input(BenchmarkId::new("match3_reused", &tag), &list, |b, l| {
            // the reused arena also keeps the lookup table cached
            let mut ws = Workspace::new();
            b.iter(|| black_box(Runner::new(Algorithm::Match3).workspace(&mut ws).run(l)))
        });
        g.bench_with_input(BenchmarkId::new("match4_fresh", &tag), &list, |b, l| {
            b.iter(|| black_box(Runner::new(Algorithm::Match4).levels(2).run(l)))
        });
        g.bench_with_input(BenchmarkId::new("match4_reused", &tag), &list, |b, l| {
            let mut ws = Workspace::new();
            b.iter(|| {
                black_box(
                    Runner::new(Algorithm::Match4)
                        .levels(2)
                        .workspace(&mut ws)
                        .run(l),
                )
            })
        });
    }
    g.finish();
}

/// The same reused pipeline across pool sizes (wall-clock scaling is
/// bounded by the machine's hardware threads; outputs are identical).
fn bench_thread_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_threads");
    g.sample_size(10);
    let n = 1usize << 19;
    let list = random_list(n, SEED);
    g.throughput(Throughput::Elements(n as u64));
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        g.bench_with_input(BenchmarkId::new("match4_reused", threads), &list, |b, l| {
            let mut ws = Workspace::new();
            b.iter(|| {
                pool.install(|| {
                    black_box(
                        Runner::new(Algorithm::Match4)
                            .levels(2)
                            .workspace(&mut ws)
                            .run(l),
                    )
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_workspace_reuse, bench_thread_scaling);
criterion_main!(benches);
