//! `pram_checked`: the checked PRAM simulator on the paper's programs.
//!
//! One caller, closed loop. On `random_list(2^14, seed)` each rotation
//! runs `match1_pram` (p = n / log n), `match4_pram` (i = 2) and
//! `rank_pram` (i = 2), all in [`ExecMode::Checked`], on a one-thread
//! pool. The simulator bypasses the native pipeline and the service: a
//! native-layer change should read as no change here, and a change to
//! `parmatch-pram` or `pram_impl` shows only here.
//!
//! One thread, because on a 2-vCPU host a second one buys the simulator
//! no wall time but costs half again as much CPU time, and how much of
//! that it spends depends on how much of the second CPU the host leaves
//! it.
//! On one thread the CPU time the gated metrics use is the simulator's
//! own work. The list is small enough for the simulator's memory to stay
//! in cache: at 2^18 nodes (about 280 MiB) its speed followed the memory
//! traffic of other tenants and moved by a quarter between runs.

use crate::host::cpu_seconds;
use crate::report::{end_to_end, Checks, Metric, Outcome};
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{corrupted, digest, for_duration, setup_repeated, Params};
use parmatch_core::pram_impl::{match1_pram, match4_pram, rank_pram};
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};
use parmatch_pram::{ExecMode, Stats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Program names, in rotation order.
pub const PROGS: [&str; 3] = ["match1", "match4", "rank"];
/// Span names of the three program calls.
pub const PROG_SPANS: [&str; 3] = ["pram.match1_pram", "pram.match4_pram", "pram.rank_pram"];

/// The workload's state after set-up.
#[derive(Debug)]
pub struct Pram {
    /// The input list.
    pub list: LinkedList,
    procs: usize,
    one_thread: rayon::ThreadPool,
    match1_ref: u64,
    match4_ref: u64,
    ranks: Vec<u64>,
    stats_ref: [Option<[Stats; 3]>; 2],
}

/// One rotation's timings (s) and counters.
#[derive(Debug, Clone, Copy)]
pub struct PramRotation {
    /// Wall time per program.
    pub times: [f64; 3],
    /// CPU time per program, over all threads.
    pub cpu: [f64; 3],
    /// Simulator counters per program.
    pub stats: [Stats; 3],
    /// Wall time of the rotation.
    pub wall: f64,
}

fn mode_index(mode: ExecMode) -> usize {
    match mode {
        ExecMode::Checked => 0,
        ExecMode::Fast => 1,
    }
}

impl Pram {
    /// Generate the list and the native references: `Runner` Match1
    /// and Match4 (MSB coins, 2 levels) and the sequential ranks.
    /// Returns the state and the set-up CPU time.
    pub fn setup(p: &Params) -> (Pram, f64) {
        let start = cpu_seconds();
        let list = random_list(1 << p.scale.pram_log2, p.seed);
        let n = list.len();
        let procs = (n / (n.ilog2() as usize).max(1)).max(1);
        let mut ws = Workspace::new();
        let match1_ref = digest(
            Runner::new(Algorithm::Match1)
                .workspace(&mut ws)
                .run(&list)
                .matching(),
        );
        let match4_ref = digest(
            Runner::new(Algorithm::Match4)
                .variant(CoinVariant::Msb)
                .levels(2)
                .workspace(&mut ws)
                .run(&list)
                .matching(),
        );
        let ranks = list.ranks_seq();
        let secs = cpu_seconds() - start;
        let pram = Pram {
            list,
            procs,
            one_thread: rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .expect("a one-thread pool"),
            match1_ref,
            match4_ref,
            ranks,
            stats_ref: [None, None],
        };
        (pram, secs)
    }

    /// One rotation in `mode`. Matchings must be bit-identical to the
    /// native runs, ranks equal to the sequential walk, and counters
    /// equal to the first rotation's in that mode.
    pub fn rotation(
        &mut self,
        mode: ExecMode,
        req: u64,
        tr: &mut Tracer,
        checks: &mut Checks,
        corrupt: bool,
    ) -> PramRotation {
        let list = &self.list;
        let (mut times, mut cpu) = ([0.0; 3], [0.0; 3]);
        let start = Instant::now();
        tr.enter("pram.rotation", req);
        let mut timed = |k: usize, tr: &mut Tracer| {
            let c = cpu_seconds();
            tr.enter(PROG_SPANS[k], req);
            let t = Instant::now();
            let r = self.one_thread.install(|| match k {
                0 => match1_pram(black_box(list), self.procs, CoinVariant::Msb, mode)
                    .map(|o| (o.stats, Some(o.matching), None)),
                1 => match4_pram(black_box(list), 2, None, CoinVariant::Msb, mode)
                    .map(|o| (o.stats, Some(o.matching), None)),
                _ => rank_pram(black_box(list), 2, mode).map(|o| (o.stats, None, Some(o.ranks))),
            });
            times[k] = t.elapsed().as_secs_f64();
            tr.exit();
            cpu[k] = cpu_seconds() - c;
            r
        };
        let outs = [timed(0, tr), timed(1, tr), timed(2, tr)];
        tr.exit();
        let wall = start.elapsed().as_secs_f64();

        let mut stats = [Stats::default(); 3];
        for (k, out) in outs.into_iter().enumerate() {
            let ok = match out {
                Ok((s, matching, ranks)) => {
                    stats[k] = s;
                    match (matching, ranks) {
                        (Some(m), _) => {
                            let m = if corrupt && k == 0 {
                                corrupted(list, &m)
                            } else {
                                m
                            };
                            digest(&m) == [self.match1_ref, self.match4_ref][k]
                        }
                        (None, Some(r)) => r == self.ranks,
                        (None, None) => false,
                    }
                }
                Err(_) => false,
            };
            checks.check(ok, || {
                format!(
                    "pram_checked: rotation {req} {} output is wrong or failed",
                    PROGS[k]
                )
            });
        }
        let first = self.stats_ref[mode_index(mode)].get_or_insert(stats);
        checks.check(*first == stats, || {
            format!("pram_checked: rotation {req} counters differ from the first rotation")
        });
        PramRotation {
            times,
            cpu,
            stats,
            wall,
        }
    }
}

/// The untraced run.
pub fn run(p: &Params) -> Outcome {
    let mut checks = Checks::default();
    let (mut pram, setups) = setup_repeated(&p.scale, || Pram::setup(p), drop);
    let mut tr = Tracer::off();
    let mut rots = Vec::new();
    for_duration(
        Duration::from_secs_f64(p.seconds),
        p.scale.min_rounds,
        |r| {
            rots.push(pram.rotation(
                ExecMode::Checked,
                r as u64,
                &mut tr,
                &mut checks,
                p.corrupt && r == 0,
            ));
        },
    );
    let work: u64 = rots
        .iter()
        .flat_map(|r| r.stats.iter().map(|s| s.work))
        .sum();
    let prog_time: f64 = rots.iter().flat_map(|r| r.times).sum();
    let walls: Vec<f64> = rots.iter().map(|r| r.wall).collect();
    // The gated throughput weighs the three programs equally and is
    // built from each one's median call, so bursts that hit a minority
    // of the calls do not move it. The gated request is a whole rotation
    // (the tracer's request), so every program is part of it.
    let n = pram.list.len() as f64;
    let cpu_mnodes: Vec<f64> = (0..3)
        .map(|k| n / median(&rots.iter().map(|r| r.cpu[k]).collect::<Vec<_>>()) / 1e6)
        .collect();
    let rotation_cpu: Vec<f64> = rots.iter().map(|r| r.cpu.iter().sum()).collect();
    Outcome {
        metrics: end_to_end(
            &setups,
            (geomean(&cpu_mnodes), rots.len()),
            (median(&rotation_cpu) * 1e6, rots.len()),
        ),
        detail: vec![
            Metric::new(
                "pram_mwork_s",
                "Mwork/s",
                work as f64 / prog_time / 1e6,
                rots.len(),
            ),
            Metric::new("rotation_p50_us", "us", median(&walls) * 1e6, rots.len()),
        ],
        checks,
    }
}
