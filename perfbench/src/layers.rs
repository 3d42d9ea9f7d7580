//! The traced run: tracing overhead on the named workload, then one
//! probe per layer, each timed by spans this crate records around its
//! calls into that layer's public functions.
//!
//! The library runs with no observer: an enabled core `Observer` would
//! switch the matchers to their unfused per-round census path and time
//! a different program. Every traced run reports every per-layer
//! metric, whatever the workload, so per-layer tables line up across
//! workloads; only `trace.overhead_frac` belongs to the named workload.

use crate::giant::{Giant, RUN_SPANS};
use crate::pram_checked::{Pram, PROGS};
use crate::report::{Checks, Metric, Outcome};
use crate::service_mix::{self, JobRef, Mix, MixPool, Segment};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{digest, Params, Workload};
use parmatch_baselines::seq_matching;
use parmatch_core::batch::{match1_batch_in, BatchKey, BatchPlan};
use parmatch_core::cost;
use parmatch_core::prelude::*;
use parmatch_list::{from_text, random_list, to_text, LinkedList};
use parmatch_pram::ExecMode;
use parmatch_service::{MatchService, ServiceConfig};
use std::hint::black_box;
use std::time::Duration;

const ALGS: [&str; 4] = ["match1", "match2", "match3", "match4"];
const COLD_SPANS: [&str; 4] = [
    "workspace.cold.match1",
    "workspace.cold.match2",
    "workspace.cold.match3",
    "workspace.cold.match4",
];
const ONE_THREAD_SPANS: [&str; 4] = [
    "pool.threads1.match1",
    "pool.threads1.match2",
    "pool.threads1.match3",
    "pool.threads1.match4",
];
const MID_SPANS: [&str; 4] = [
    "core.runner.mid.match1",
    "core.runner.mid.match2",
    "core.runner.mid.match3",
    "core.runner.mid.match4",
];
/// Exact counts that flag an algorithmic change.
const COUNTS: [&str; 5] = [
    "core.match1.rounds",
    "core.match2.sets",
    "core.match3.jump_rounds",
    "core.match4.walk_rounds",
    "core.match4.distinct_sets",
];
/// Spans the overhead phase keeps: later traced rounds are still timed,
/// but their spans are dropped, so a service replay's span file stays
/// tens of MB.
const OVERHEAD_SPAN_BUDGET: usize = 200_000;

/// Run the traced run of `w`. Returns the per-layer metrics and the
/// tracer holding every span, for the span file.
pub fn run(w: Workload, p: &Params) -> (Outcome, Tracer) {
    let mut checks = Checks::default();
    let mut tr = Tracer::on();
    let mut m = Vec::new();
    let overhead = match w {
        Workload::Giant => giant_overhead(p, &mut tr, &mut checks),
        Workload::ServiceMix => service_overhead(p, &mut tr, &mut checks),
        Workload::PramChecked => pram_overhead(p, &mut tr, &mut checks),
    };
    probe_giant(p, &mut tr, &mut checks, &mut m);
    let pool = MixPool::build(p);
    let fused_ns_per_job = probe_batch(p, &pool, &mut tr, &mut checks, &mut m);
    probe_service(p, &pool, fused_ns_per_job, &mut tr, &mut checks, &mut m);
    probe_pram(p, &mut tr, &mut checks, &mut m);
    m.push(Metric::new(
        "trace.overhead_frac",
        "fraction",
        overhead.0,
        overhead.1,
    ));
    let outcome = Outcome {
        checks,
        metrics: m,
        detail: Vec::new(),
    };
    (outcome, tr)
}

/// Alternate untraced and traced rounds for `p.seconds`; `round`
/// returns the time of one operation. The overhead is the traced median
/// over the untraced one, minus 1, with the number of traced rounds.
fn alternate(
    p: &Params,
    tr: &mut Tracer,
    mut round: impl FnMut(usize, &mut Tracer) -> f64,
) -> (f64, usize) {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    crate::for_duration(
        Duration::from_secs_f64(p.seconds),
        2 * p.scale.min_rounds,
        |r| {
            let traced = r % 2 == 1;
            tr.set_on(traced);
            let mark = tr.mark();
            let t = round(r, tr);
            if tr.mark() > OVERHEAD_SPAN_BUDGET {
                tr.truncate(mark);
            }
            if traced {
                on.push(t)
            } else {
                off.push(t)
            }
        },
    );
    tr.set_on(true);
    (median(&on) / median(&off) - 1.0, on.len())
}

fn giant_overhead(p: &Params, tr: &mut Tracer, checks: &mut Checks) -> (f64, usize) {
    let (mut g, _) = Giant::setup(p, checks);
    alternate(p, tr, |r, tr| g.rotation(r as u64, tr, checks, false).wall)
}

fn service_overhead(p: &Params, tr: &mut Tracer, checks: &mut Checks) -> (f64, usize) {
    let (svc, pool, _) = service_mix::setup(p, checks);
    let mut mix = Mix::new(p.seed);
    let o = alternate(p, tr, |r, tr| {
        let seg = service_mix::segment(
            &svc,
            &pool,
            &mut mix,
            p.scale.segment,
            r as u64,
            tr,
            checks,
            false,
        );
        seg.wall / seg.jobs.max(1) as f64
    });
    svc.shutdown();
    o
}

fn pram_overhead(p: &Params, tr: &mut Tracer, checks: &mut Checks) -> (f64, usize) {
    let (mut pram, _) = Pram::setup(p);
    alternate(p, tr, |r, tr| {
        pram.rotation(ExecMode::Checked, r as u64, tr, checks, false)
            .wall
    })
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn run_alg(alg: Algorithm, list: &LinkedList, ws: &mut Workspace) -> MatchOutcome {
    black_box(Runner::new(alg).workspace(ws).run(black_box(list)))
}

/// `list`, `core.workspace`, `core.runner`, the rayon pool and
/// `baselines`, on the `giant` list.
fn probe_giant(p: &Params, tr: &mut Tracer, checks: &mut Checks, m: &mut Vec<Metric>) {
    let reps = p.scale.probe_reps.max(1);
    let mark = tr.mark();
    let list = tr.span("list.random_list", 0, || {
        random_list(1 << p.scale.giant_log2, p.seed)
    });
    let text = tr.span("list.to_text", 0, || to_text(&list));
    let parsed = tr.span("list.from_text", 0, || from_text(&text));
    checks.check(parsed.as_ref() == Ok(&list), || {
        "list: from_text(to_text(list)) differs from list".into()
    });
    drop((text, parsed));
    m.push(Metric::new(
        "list.gen_ms",
        "ms",
        ms(tr.total_ns(mark, "list.random_list")),
        1,
    ));
    m.push(Metric::new(
        "list.parse_ms",
        "ms",
        ms(tr.total_ns(mark, "list.from_text")),
        1,
    ));

    // First run of each algorithm into a fresh workspace, then warm runs
    // into one shared workspace (its first rotation is the warm-up).
    let mut refs = [0u64; 4];
    let mut counts = [0u64; 5];
    for (k, alg) in Algorithm::ALL.into_iter().enumerate() {
        let mut fresh = Workspace::new();
        let out = tr.span(COLD_SPANS[k], 0, || run_alg(alg, &list, &mut fresh));
        let mm = out.matching();
        checks.check(
            verify::is_matching(&list, mm) && verify::is_maximal(&list, mm),
            || format!("runner: {alg} output is not a maximal matching"),
        );
        refs[k] = digest(mm);
        match &out {
            MatchOutcome::Match1(o) => counts[0] = u64::from(o.rounds),
            MatchOutcome::Match2(o) => counts[1] = o.partition.distinct_sets() as u64,
            MatchOutcome::Match3(o) => counts[2] = u64::from(o.jump_rounds),
            MatchOutcome::Match4(o) => {
                counts[3] = o.walk_rounds as u64;
                counts[4] = o.distinct_sets as u64;
            }
        }
    }
    let mut ws = Workspace::new();
    let warm_mark = tr.mark();
    for rep in 0..=reps {
        // rotation 0 only warms the shared workspace
        tr.set_on(rep > 0);
        for (k, alg) in Algorithm::ALL.into_iter().enumerate() {
            let out = tr.span(RUN_SPANS[k], rep as u64, || run_alg(alg, &list, &mut ws));
            checks.check(digest(out.matching()) == refs[k], || {
                format!("runner: warm {alg} run differs from the first")
            });
        }
    }
    tr.set_on(true);
    for rep in 0..reps {
        for (k, alg) in Algorithm::ALL.into_iter().enumerate() {
            let out = tr.span(ONE_THREAD_SPANS[k], rep as u64, || {
                black_box(
                    Runner::new(alg)
                        .threads(1)
                        .workspace(&mut ws)
                        .run(black_box(&list)),
                )
            });
            checks.check(digest(out.matching()) == refs[k], || {
                format!("pool: threads(1) {alg} run differs")
            });
        }
    }
    let seq_mark = tr.mark();
    for rep in 0..reps {
        let s = tr.span("baselines.seq_matching", rep as u64, || {
            black_box(seq_matching(black_box(&list)))
        });
        if rep == 0 {
            checks.check(
                verify::is_matching(&list, &s) && verify::is_maximal(&list, &s),
                || "baselines: seq_matching output is not a maximal matching".into(),
            );
        }
    }
    let seq = median(&tr.durations_ns(seq_mark, "baselines.seq_matching"));

    let n = list.len() as u64;
    let work = [
        cost::match1_native_work(n),
        cost::match2_native_work(n, 2),
        cost::match3_native_work(n, Match3Config::default().crunch_rounds, counts[2] as u32),
        cost::match4_native_work(n, 2),
    ];
    let nproc = std::thread::available_parallelism().map_or(1, |c| c.get()) as f64;
    let cold: Vec<f64> = (0..4).map(|k| tr.total_ns(mark, COLD_SPANS[k])).collect();
    let warm: Vec<f64> = (0..4)
        .map(|k| median(&tr.durations_ns(warm_mark, RUN_SPANS[k])))
        .collect();
    let one: Vec<f64> = (0..4)
        .map(|k| median(&tr.durations_ns(warm_mark, ONE_THREAD_SPANS[k])))
        .collect();
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("workspace.cold_ms.{a}"),
            "ms",
            ms(cold[k]),
            1,
        ));
    }
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("workspace.cold_over_warm.{a}"),
            "ratio",
            cold[k] / warm[k],
            reps,
        ));
    }
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("runner.{a}.ns_per_work"),
            "ns/work",
            warm[k] / work[k] as f64,
            reps,
        ));
    }
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("runner.{a}.work_units"),
            "count",
            work[k] as f64,
            1,
        ));
    }
    for (name, v) in COUNTS.iter().zip(counts) {
        m.push(Metric::new(*name, "count", v as f64, 1));
    }
    probe_mid(p, tr, checks, m);
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("pool.scaling_eff.{a}"),
            "ratio",
            one[k] / (nproc * warm[k]),
            reps,
        ));
    }
    m.push(Metric::new("baselines.seq_ms", "ms", ms(seq), reps));
    for (k, a) in ALGS.iter().enumerate() {
        m.push(Metric::new(
            format!("runner.{a}.speedup_vs_seq"),
            "ratio",
            seq / warm[k],
            reps,
        ));
    }
}

/// Solo `Runner` runs on one mid-size list, the size of the service's
/// mid jobs.
fn probe_mid(p: &Params, tr: &mut Tracer, checks: &mut Checks, m: &mut Vec<Metric>) {
    let reps = 20 * p.scale.probe_reps.max(1);
    let list = random_list(p.scale.mid_n, p.seed ^ 0x0417_0000_0000_0003);
    let mut ws = Workspace::new();
    let refs = Algorithm::ALL.map(|alg| digest(run_alg(alg, &list, &mut ws).matching()));
    let mark = tr.mark();
    for rep in 0..reps {
        for (k, alg) in Algorithm::ALL.into_iter().enumerate() {
            let out = tr.span(MID_SPANS[k], rep as u64, || run_alg(alg, &list, &mut ws));
            if rep == 0 {
                checks.check(digest(out.matching()) == refs[k], || {
                    format!("runner: mid {alg} run differs")
                });
            }
        }
    }
    for (k, a) in ALGS.iter().enumerate() {
        let us = median(&tr.durations_ns(mark, MID_SPANS[k])) / 1e3;
        m.push(Metric::new(format!("runner.mid.{a}_us"), "us", us, reps));
    }
}

/// `core.batch`: the service's small lists fused 32 at a time by
/// `match1_batch_in`, against the same lists one at a time through
/// `Runner`. Returns the fused kernel time per job, ns.
fn probe_batch(
    p: &Params,
    pool: &MixPool,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Vec<Metric>,
) -> f64 {
    let reps = p.scale.probe_reps.max(1);
    let batch = ServiceConfig::default().max_batch;
    let mut by_key: Vec<(BatchKey, Vec<usize>)> = Vec::new();
    for (i, l) in pool.small.iter().enumerate() {
        let key = BatchKey::of(l.len(), CoinVariant::Msb).expect("small jobs have pointers");
        match by_key.iter_mut().find(|(k, _)| *k == key) {
            Some((_, ids)) => ids.push(i),
            None => by_key.push((key, vec![i])),
        }
    }
    let chunks: Vec<Vec<usize>> = by_key
        .iter()
        .flat_map(|(_, ids)| ids.chunks(batch).map(<[usize]>::to_vec))
        .collect();
    let plans: Vec<(Vec<&LinkedList>, BatchPlan)> = chunks
        .iter()
        .map(|ids| {
            let lists: Vec<&LinkedList> = ids.iter().map(|&i| &pool.small[i]).collect();
            let plan = BatchPlan::new(&lists, CoinVariant::Msb).expect("chunk shares one BatchKey");
            (lists, plan)
        })
        .collect();
    let nodes: usize = pool.small.iter().map(LinkedList::len).sum();
    let mut ws = Workspace::new();
    let mark = tr.mark();
    for rep in 0..=reps {
        tr.set_on(rep > 0);
        for (c, (lists, plan)) in plans.iter().enumerate() {
            let outs = tr.span("core.batch.match1_batch_in", rep as u64, || {
                black_box(match1_batch_in(black_box(lists), plan, &mut ws))
            });
            for (j, out) in outs.iter().enumerate() {
                let job = JobRef::Small(chunks[c][j]);
                checks.check(digest(&out.matching) == pool.reference(job), || {
                    "batch: fused output differs from the solo run".into()
                });
            }
        }
        for (i, l) in pool.small.iter().enumerate() {
            let out = tr.span("core.runner.small.match1", rep as u64, || {
                run_alg(Algorithm::Match1, l, &mut ws)
            });
            if rep == 1 {
                checks.check(
                    digest(out.matching()) == pool.reference(JobRef::Small(i)),
                    || "batch: solo output differs".into(),
                );
            }
        }
    }
    tr.set_on(true);
    let fused = tr.total_ns(mark, "core.batch.match1_batch_in");
    let solo = tr.total_ns(mark, "core.runner.small.match1");
    let per_node = |total: f64| total / (reps * nodes) as f64;
    m.push(Metric::new(
        "batch.fused_ns_per_node",
        "ns/node",
        per_node(fused),
        reps,
    ));
    m.push(Metric::new(
        "batch.solo_ns_per_node",
        "ns/node",
        per_node(solo),
        reps,
    ));
    m.push(Metric::new(
        "batch.fuse_speedup",
        "ratio",
        solo / fused,
        reps,
    ));
    fused / (reps * pool.small.len()) as f64
}

/// `service`: the mix replayed through a fresh service, and a
/// small-jobs-only replay for the per-job overhead over the fused
/// kernel.
fn probe_service(
    p: &Params,
    pool: &MixPool,
    fused_ns_per_job: f64,
    tr: &mut Tracer,
    checks: &mut Checks,
    m: &mut Vec<Metric>,
) {
    let svc = MatchService::start(ServiceConfig::default());
    let mut warm = Mix::new(p.seed.wrapping_add(1));
    tr.set_on(false);
    service_mix::segment(
        &svc,
        pool,
        &mut warm,
        p.scale.segment / 4,
        0,
        tr,
        checks,
        false,
    );
    tr.set_on(true);
    let mark = tr.mark();
    let mut mix = Mix::new(p.seed);
    let segs: Vec<Segment> = (0..3)
        .map(|r| service_mix::segment(&svc, pool, &mut mix, p.scale.segment, r, tr, checks, false))
        .collect();
    let only_mark = tr.mark();
    let mut small_only = Mix::small_only(p.seed);
    let only = service_mix::segment(
        &svc,
        pool,
        &mut small_only,
        p.scale.segment,
        3,
        tr,
        checks,
        false,
    );
    svc.shutdown();

    let jobs: usize = segs.iter().map(|s| s.jobs).sum();
    let wall: f64 = segs.iter().map(|s| s.wall).sum();
    let busy: u64 = segs.iter().map(|s| s.busy).sum();
    let small: Vec<f64> = segs
        .iter()
        .flat_map(|s| s.small_lat.iter().copied())
        .collect();
    let mid: Vec<f64> = segs
        .iter()
        .flat_map(|s| s.mid_lat.iter().copied())
        .collect();
    let batched: usize = segs.iter().map(|s| s.small_batched).sum();
    let submits = tr.durations_ns(mark, "service.submit");
    let recv_wait = tr.total_ns(mark, "service.recv") - tr.total_ns(only_mark, "service.recv");
    let (only_wall, only_jobs) = (only.wall, only.jobs);
    m.push(Metric::new(
        "service.submit_ns_p50",
        "ns",
        median(&submits),
        submits.len(),
    ));
    m.push(Metric::new(
        "service.busy_retries_per_job",
        "retries/job",
        busy as f64 / jobs as f64,
        jobs,
    ));
    m.push(Metric::new(
        "service.recv_wait_frac",
        "fraction",
        recv_wait / 1e9 / wall,
        jobs,
    ));
    m.push(Metric::new(
        "service.batched_frac",
        "fraction",
        batched as f64 / small.len() as f64,
        small.len(),
    ));
    m.push(Metric::new(
        "service.overhead_us_per_job",
        "us",
        (only_wall / only_jobs as f64 - fused_ns_per_job / 1e9) * 1e6,
        only_jobs,
    ));
    m.push(Metric::new(
        "service.small_p99_us",
        "us",
        quantile(&small, 0.99) * 1e6,
        small.len(),
    ));
    m.push(Metric::new(
        "service.mid_p90_us",
        "us",
        quantile(&mid, 0.9) * 1e6,
        mid.len(),
    ));
    m.push(Metric::new(
        "service.mid_p99_us",
        "us",
        quantile(&mid, 0.99) * 1e6,
        mid.len(),
    ));
}

/// `pram`: one checked rotation for the counters and time per unit of
/// work, one fast-mode rotation for the price of checking.
fn probe_pram(p: &Params, tr: &mut Tracer, checks: &mut Checks, m: &mut Vec<Metric>) {
    let (mut pram, _) = Pram::setup(p);
    let checked = pram.rotation(ExecMode::Checked, 0, tr, checks, false);
    let fast = pram.rotation(ExecMode::Fast, 1, tr, checks, false);
    for (k, prog) in PROGS.iter().enumerate() {
        let s = checked.stats[k];
        for (counter, v) in [
            ("steps", s.steps),
            ("work", s.work),
            ("reads", s.reads),
            ("writes", s.writes),
        ] {
            m.push(Metric::new(
                format!("pram.{prog}.{counter}"),
                "count",
                v as f64,
                1,
            ));
        }
        m.push(Metric::new(
            format!("pram.{prog}.ns_per_work"),
            "ns/work",
            checked.times[k] * 1e9 / s.work as f64,
            1,
        ));
    }
    let (c, f): (f64, f64) = (checked.times.iter().sum(), fast.times.iter().sum());
    m.push(Metric::new("pram.checked_over_fast", "ratio", c / f, 1));
}
