//! `service_mix`: a closed-loop replay of a synthetic job mix that
//! follows `parmatch serve --jobs` exactly.
//!
//! One generator thread submits each job; on [`SubmitError::Busy`] it
//! receives one result and retries with the spec handed back. The
//! service runs with [`ServiceConfig::default`]. The mix is 95% small
//! Match1 jobs of 33–128 nodes — two `BatchKey` width classes, so they
//! fuse through `match1_batch_in` — and 5% solo 4096-node jobs that
//! cycle through Match2, Match3 and Match4. No recorded job file backs
//! these shares or sizes; `README.md` beside this crate names where each
//! comes from. Jobs are issued in timed segments; a segment ends once
//! every result is in, and the results are checked before the next
//! segment starts, while nothing is in flight.

use crate::host::cpu_seconds;
use crate::report::{end_to_end, Checks, Metric, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{corrupted, digest, for_duration, setup_repeated, Params};
use parmatch_core::prelude::*;
use parmatch_list::{random_list, LinkedList};
use parmatch_service::{JobId, JobResult, JobSpec, MatchService, ServiceConfig, SubmitError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Node counts of the small jobs (inclusive).
pub const SMALL_NODES: (usize, usize) = (33, 128);
/// Percent of jobs that are mid-size.
pub const MID_PERCENT: u64 = 5;
/// The algorithms mid-size jobs cycle through.
pub const MID_ALGS: [Algorithm; 3] = [Algorithm::Match2, Algorithm::Match3, Algorithm::Match4];

/// One job of the mix: an index into the small or the mid inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobRef {
    /// Small Match1 job.
    Small(usize),
    /// Mid-size solo job.
    Mid(usize),
}

/// The distinct job inputs and the digest of each one's solo
/// `Runner` run.
#[derive(Debug)]
pub struct MixPool {
    /// Small job lists.
    pub small: Vec<LinkedList>,
    small_ref: Vec<u64>,
    /// Mid job lists with their algorithm.
    pub mid: Vec<(Algorithm, LinkedList)>,
    mid_ref: Vec<u64>,
}

impl MixPool {
    /// Generate the inputs from the seed and run each one solo.
    pub fn build(p: &Params) -> MixPool {
        let mut rng = SmallRng::seed_from_u64(p.seed ^ 0x5e12_71ce_0000_0001);
        let small: Vec<LinkedList> = (0..p.scale.small_pool)
            .map(|_| {
                let n = rng.gen_range(SMALL_NODES.0..SMALL_NODES.1 + 1);
                random_list(n, rng.next_u64())
            })
            .collect();
        let mid: Vec<(Algorithm, LinkedList)> = (0..p.scale.mid_pool)
            .map(|i| (MID_ALGS[i % 3], random_list(p.scale.mid_n, rng.next_u64())))
            .collect();
        let mut ws = Workspace::new();
        let small_ref = small
            .iter()
            .map(|l| {
                digest(
                    Runner::new(Algorithm::Match1)
                        .workspace(&mut ws)
                        .run(l)
                        .matching(),
                )
            })
            .collect();
        let mid_ref = mid
            .iter()
            .map(|(a, l)| digest(Runner::new(*a).workspace(&mut ws).run(l).matching()))
            .collect();
        MixPool {
            small,
            small_ref,
            mid,
            mid_ref,
        }
    }

    /// The spec `serve --jobs` would build for this job.
    pub fn spec(&self, job: JobRef) -> JobSpec {
        match job {
            JobRef::Small(i) => JobSpec::new(Algorithm::Match1, self.small[i].clone()),
            JobRef::Mid(i) => JobSpec::new(self.mid[i].0, self.mid[i].1.clone()),
        }
    }

    /// The job's input list.
    pub fn list(&self, job: JobRef) -> &LinkedList {
        match job {
            JobRef::Small(i) => &self.small[i],
            JobRef::Mid(i) => &self.mid[i].1,
        }
    }

    /// Digest of the job's solo `Runner` run.
    pub fn reference(&self, job: JobRef) -> u64 {
        match job {
            JobRef::Small(i) => self.small_ref[i],
            JobRef::Mid(i) => self.mid_ref[i],
        }
    }
}

/// The seeded job sequence.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: SmallRng,
    mid_turn: usize,
    small_only: bool,
}

impl Mix {
    /// The mix for `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: SmallRng::seed_from_u64(seed ^ 0x0b5e_55ed_0000_0002),
            mid_turn: 0,
            small_only: false,
        }
    }

    /// The same sequence with every mid job left out (a layer probe).
    pub fn small_only(seed: u64) -> Mix {
        Mix {
            small_only: true,
            ..Mix::new(seed)
        }
    }

    /// The next job.
    pub fn next(&mut self, pool: &MixPool) -> JobRef {
        let r = self.rng.next_u64();
        if !self.small_only && r % 100 < MID_PERCENT {
            self.mid_turn += 1;
            JobRef::Mid((self.mid_turn - 1) % pool.mid.len())
        } else {
            JobRef::Small((r >> 8) as usize % pool.small.len())
        }
    }
}

/// What one segment measured.
#[derive(Debug, Default)]
pub struct Segment {
    /// Wall time from the first submit to the last result, s.
    pub wall: f64,
    /// CPU time of the process over the same span, all threads, s.
    pub cpu: f64,
    /// Jobs issued.
    pub jobs: usize,
    /// Nodes over every completed job.
    pub nodes: u64,
    /// Small-job latencies, s.
    pub small_lat: Vec<f64>,
    /// Mid-job latencies, s.
    pub mid_lat: Vec<f64>,
    /// Small jobs that ran fused.
    pub small_batched: usize,
    /// `Busy` rejections.
    pub busy: u64,
}

fn job_num(id: JobId) -> u64 {
    id.to_string()
        .trim_start_matches("job#")
        .parse()
        .unwrap_or(u64::MAX)
}

fn recv_one(svc: &MatchService, tr: &mut Tracer, got: &mut Vec<(JobResult, Instant)>) -> bool {
    tr.enter("service.recv", 0);
    let r = svc.recv();
    let at = Instant::now();
    let req = match (&r, tr.is_on()) {
        (Some(r), true) => Some(job_num(r.id)),
        _ => None,
    };
    tr.exit_req(req);
    match r {
        Some(r) => {
            got.push((r, at));
            true
        }
        None => false,
    }
}

/// Replay `jobs` jobs of `mix`, then check every result: each accepted
/// `JobId` gets exactly one result, equal to the solo run's digest.
#[allow(clippy::too_many_arguments)]
pub fn segment(
    svc: &MatchService,
    pool: &MixPool,
    mix: &mut Mix,
    jobs: usize,
    req: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
    corrupt: bool,
) -> Segment {
    let mut issued: Vec<(JobId, JobRef, Instant)> = Vec::with_capacity(jobs);
    let mut got: Vec<(JobResult, Instant)> = Vec::with_capacity(jobs);
    let mut busy = 0;
    let mut closed = false;
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    tr.enter("service.segment", req);
    for _ in 0..jobs {
        let job = mix.next(pool);
        let mut spec = pool.spec(job);
        let first = Instant::now();
        let id = loop {
            tr.enter("service.submit", 0);
            let r = svc.submit(spec);
            let req = match (&r, tr.is_on()) {
                (Ok(id), true) => Some(job_num(*id)),
                _ => None,
            };
            tr.exit_req(req);
            match r {
                Ok(id) => break Some(id),
                Err(SubmitError::Busy(back)) => {
                    busy += 1;
                    spec = back;
                    if !recv_one(svc, tr, &mut got) {
                        break None;
                    }
                }
                Err(SubmitError::Closed(_)) => break None,
            }
        };
        match id {
            Some(id) => issued.push((id, job, first)),
            None => {
                closed = true;
                break;
            }
        }
    }
    while got.len() < issued.len() && recv_one(svc, tr, &mut got) {}
    tr.exit();
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_start;

    checks.check(!closed, || {
        "service_mix: the service stopped mid-replay".into()
    });
    let index: HashMap<JobId, usize> = issued.iter().enumerate().map(|(i, e)| (e.0, i)).collect();
    let mut results = vec![0u32; issued.len()];
    let mut correct = vec![false; issued.len()];
    let mut seg = Segment {
        wall,
        cpu,
        jobs: issued.len(),
        busy,
        ..Segment::default()
    };
    for (k, (res, at)) in got.iter().enumerate() {
        let Some(&i) = index.get(&res.id) else {
            checks.check(false, || {
                format!("service_mix: result for unknown {}", res.id)
            });
            continue;
        };
        let (_, job, first) = issued[i];
        results[i] += 1;
        let list = pool.list(job);
        correct[i] = match res.output.as_ref().ok().and_then(|o| o.matching()) {
            Some(m) if corrupt && k == 0 => digest(&corrupted(list, m)) == pool.reference(job),
            Some(m) => digest(m) == pool.reference(job),
            None => false,
        };
        let lat = at.duration_since(first).as_secs_f64();
        seg.nodes += list.len() as u64;
        match job {
            JobRef::Small(_) => {
                seg.small_lat.push(lat);
                seg.small_batched += usize::from(res.batched);
            }
            JobRef::Mid(_) => seg.mid_lat.push(lat),
        }
    }
    for (i, (id, ..)) in issued.iter().enumerate() {
        checks.check(results[i] == 1 && correct[i], || {
            format!(
                "service_mix: {id} got {} result(s), correct: {}",
                results[i], correct[i]
            )
        });
    }
    seg
}

/// A started service with its inputs, warmed by one checked segment.
/// Returns the state and the set-up CPU time, which excludes that
/// segment's checks.
pub fn setup(p: &Params, checks: &mut Checks) -> (MatchService, MixPool, f64) {
    let start = cpu_seconds();
    let svc = MatchService::start(ServiceConfig::default());
    let pool = MixPool::build(p);
    let before_warm = cpu_seconds() - start;
    let mut warm = Mix::new(p.seed.wrapping_add(1));
    let seg = segment(
        &svc,
        &pool,
        &mut warm,
        p.scale.segment / 4,
        0,
        &mut Tracer::off(),
        checks,
        false,
    );
    (svc, pool, before_warm + seg.cpu)
}

/// The untraced run.
pub fn run(p: &Params) -> Outcome {
    let mut checks = Checks::default();
    let ((svc, pool), setups) = setup_repeated(
        &p.scale,
        || {
            let (svc, pool, secs) = setup(p, &mut checks);
            ((svc, pool), secs)
        },
        |(svc, _): (MatchService, MixPool)| {
            svc.shutdown();
        },
    );
    let mut mix = Mix::new(p.seed);
    let mut tr = Tracer::off();
    let mut segs = Vec::new();
    for_duration(
        Duration::from_secs_f64(p.seconds),
        p.scale.min_rounds,
        |r| {
            let corrupt = p.corrupt && r == 0;
            segs.push(segment(
                &svc,
                &pool,
                &mut mix,
                p.scale.segment,
                r as u64,
                &mut tr,
                &mut checks,
                corrupt,
            ));
        },
    );
    let report = svc.shutdown();
    checks.check(report.pending.is_empty(), || {
        format!(
            "service_mix: {} results left undelivered",
            report.pending.len()
        )
    });
    summarize(&segs, setups, checks)
}

/// The gated figures and the latency percentiles are medians over
/// segments of each segment's figure, so a burst of host noise moves one
/// segment, not the run; `jobs_s` is total jobs over total time.
fn summarize(segs: &[Segment], setups: Vec<f64>, checks: Checks) -> Outcome {
    let wall: f64 = segs.iter().map(|s| s.wall).sum();
    let jobs: usize = segs.iter().map(|s| s.jobs).sum();
    let small_n: usize = segs.iter().map(|s| s.small_lat.len()).sum();
    let mid_n: usize = segs.iter().map(|s| s.mid_lat.len()).sum();
    let per_segment = |lat: fn(&Segment) -> &Vec<f64>, q: f64| {
        let qs: Vec<f64> = segs
            .iter()
            .map(|s| quantile(lat(s), q))
            .filter(|v| v.is_finite())
            .collect();
        median(&qs) * 1e6
    };
    let seg_mnodes: Vec<f64> = segs.iter().map(|s| s.nodes as f64 / s.wall / 1e6).collect();
    let cpu_mnodes: Vec<f64> = segs.iter().map(|s| s.nodes as f64 / s.cpu / 1e6).collect();
    let job_cpu: Vec<f64> = segs.iter().map(|s| s.cpu / s.jobs as f64).collect();
    let small_p50 = per_segment(|s| &s.small_lat, 0.5);
    let small_p90 = per_segment(|s| &s.small_lat, 0.9);
    Outcome {
        metrics: end_to_end(
            &setups,
            (median(&cpu_mnodes), segs.len()),
            (median(&job_cpu) * 1e6, segs.len()),
        ),
        detail: vec![
            Metric::new("mnodes_s", "Mnodes/s", median(&seg_mnodes), segs.len()),
            Metric::new("jobs_s", "jobs/s", jobs as f64 / wall, jobs),
            Metric::new("small_p50_us", "us", small_p50, small_n),
            Metric::new("small_p90_us", "us", small_p90, small_n),
            Metric::new("mid_p50_us", "us", per_segment(|s| &s.mid_lat, 0.5), mid_n),
        ],
        checks,
    }
}
