//! `giant`: Match1–Match4 in turn on one list whose arrays together
//! overflow L2.
//!
//! One caller, closed loop. One `random_list(2^18, seed)` and one reused
//! [`Workspace`]; each rotation runs [`Runner`] for Match1, Match2,
//! Match3 and Match4 with default knobs on the default rayon pool. The
//! 1 MiB per-node arrays together overflow L2, so relabel gathers, the
//! finishers, WalkDown and the Match3 lookup set the time, yet stay in
//! L3: at 2^21 nodes, where they spill to memory, the speed followed the
//! memory traffic of other tenants and moved by more than the benchmark's
//! bound between sets of runs half an hour apart. Interleaving the four
//! algorithms within a rotation spreads host noise over all of them
//! instead of letting it land on one.

use crate::host::cpu_seconds;
use crate::report::{end_to_end, Checks, Metric, Outcome};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{corrupted, digest, for_duration, setup_repeated, Params};
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Span names of the four `Runner::run` calls, in [`Algorithm::ALL`]
/// order.
pub const RUN_SPANS: [&str; 4] = [
    "core.runner.match1",
    "core.runner.match2",
    "core.runner.match3",
    "core.runner.match4",
];

/// The workload's state after set-up.
#[derive(Debug)]
pub struct Giant {
    /// The input list.
    pub list: LinkedList,
    ws: Workspace,
    refs: [u64; 4],
}

/// Timings of one rotation, seconds.
#[derive(Debug, Clone, Copy)]
pub struct Rotation {
    /// `Runner::run` wall time per algorithm.
    pub times: [f64; 4],
    /// `Runner::run` CPU time per algorithm, over all threads.
    pub cpu: [f64; 4],
    /// Wall time of the whole rotation.
    pub wall: f64,
}

impl Giant {
    /// Generate the list and warm the workspace with one run of every
    /// algorithm. Returns the state and the set-up CPU time, which
    /// excludes the maximality checks made afterwards.
    pub fn setup(p: &Params, checks: &mut Checks) -> (Giant, f64) {
        let start = cpu_seconds();
        let list = random_list(1 << p.scale.giant_log2, p.seed);
        let mut ws = Workspace::new();
        let outs: Vec<MatchOutcome> = Algorithm::ALL
            .iter()
            .map(|&a| Runner::new(a).workspace(&mut ws).run(&list))
            .collect();
        let secs = cpu_seconds() - start;
        let mut refs = [0; 4];
        for (k, out) in outs.iter().enumerate() {
            let m = out.matching();
            checks.check(
                verify::is_matching(&list, m) && verify::is_maximal(&list, m),
                || {
                    format!(
                        "giant: {} output is not a maximal matching",
                        Algorithm::ALL[k]
                    )
                },
            );
            refs[k] = digest(m);
        }
        (Giant { list, ws, refs }, secs)
    }

    /// One rotation, `req` its index. Every output's digest must equal
    /// the set-up run's, checked after the rotation's clock stops.
    pub fn rotation(
        &mut self,
        req: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
        corrupt: bool,
    ) -> Rotation {
        let (mut times, mut cpu) = ([0.0; 4], [0.0; 4]);
        let start = Instant::now();
        tr.enter("giant.rotation", req);
        let outs = Algorithm::ALL.map(|alg| {
            let k = alg as usize;
            let c = cpu_seconds();
            tr.enter(RUN_SPANS[k], req);
            let t = Instant::now();
            let out = Runner::new(alg)
                .workspace(&mut self.ws)
                .run(black_box(&self.list));
            times[k] = t.elapsed().as_secs_f64();
            tr.exit();
            cpu[k] = cpu_seconds() - c;
            black_box(out)
        });
        tr.exit();
        let wall = start.elapsed().as_secs_f64();
        for (k, out) in outs.iter().enumerate() {
            let got = match corrupt && k == 0 {
                true => digest(&corrupted(&self.list, out.matching())),
                false => digest(out.matching()),
            };
            checks.check(got == self.refs[k], || {
                format!(
                    "giant: rotation {req} {} differs from the first run",
                    Algorithm::ALL[k]
                )
            });
        }
        Rotation { times, cpu, wall }
    }
}

/// The untraced run.
pub fn run(p: &Params) -> Outcome {
    let mut checks = Checks::default();
    let (mut g, setups) = setup_repeated(&p.scale, || Giant::setup(p, &mut checks), drop);
    let mut tr = Tracer::off();
    let mut rots = Vec::new();
    for_duration(
        Duration::from_secs_f64(p.seconds),
        p.scale.min_rounds,
        |r| rots.push(g.rotation(r as u64, &mut tr, &mut checks, p.corrupt && r == 0)),
    );
    let n = g.list.len() as f64;
    let rounds = rots.len();
    let walls: Vec<f64> = rots.iter().map(|r| r.wall).collect();
    let per_alg = |k: usize, f: fn(&Rotation) -> [f64; 4]| -> Vec<f64> {
        rots.iter().map(|r| f(r)[k]).collect()
    };
    let mut detail: Vec<Metric> = Algorithm::ALL
        .iter()
        .map(|&a| {
            let t = median(&per_alg(a as usize, |r| r.times));
            Metric::new(format!("{a}_mnodes_s"), "Mnodes/s", n / t / 1e6, rounds)
        })
        .collect();
    let mix = 4.0 * n * rounds as f64 / walls.iter().sum::<f64>() / 1e6;
    detail.push(Metric::new("mix_mnodes_s", "Mnodes/s", mix, rounds));
    detail.push(Metric::new(
        "rotation_p50_us",
        "us",
        median(&walls) * 1e6,
        rounds,
    ));
    // The gated throughput weighs the four algorithms equally, whatever
    // their cost, and is built from each one's median run, so bursts
    // that hit a minority of the runs do not move it. The gated request
    // is a whole rotation (the tracer's request), so every algorithm's
    // run is part of it.
    let cpu_mnodes: Vec<f64> = (0..4)
        .map(|k| n / median(&per_alg(k, |r| r.cpu)) / 1e6)
        .collect();
    let rotation_cpu: Vec<f64> = rots.iter().map(|r| r.cpu.iter().sum()).collect();
    Outcome {
        metrics: end_to_end(
            &setups,
            (geomean(&cpu_mnodes), rounds),
            (median(&rotation_cpu) * 1e6, rounds),
        ),
        detail,
        checks,
    }
}
