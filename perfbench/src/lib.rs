//! The repository benchmark for `parmatch`.
//!
//! Three closed-loop workloads drive the library through its public
//! entry points only:
//!
//! * [`giant`] — Match1–Match4 through [`Runner`](parmatch_core::Runner)
//!   on one list whose arrays together overflow L2;
//! * [`service_mix`] — a `parmatch serve --jobs` replay of a synthetic
//!   mix of small fused Match1 jobs and solo 4096-node jobs through
//!   [`MatchService`](parmatch_service::MatchService);
//! * [`pram_checked`] — the checked PRAM simulator on the paper's
//!   programs.
//!
//! Every output is checked outside the timed regions ([`report::Checks`]).
//! A traced run ([`layers`]) records spans around each call into a layer
//! from this crate ([`trace`]); the library runs with no observer, so the
//! timed program is the production one. `README.md` beside this crate
//! records why each workload exists and which end-to-end metric each
//! layer metric should move.

pub mod giant;
pub mod host;
pub mod layers;
pub mod pram_checked;
pub mod report;
pub mod service_mix;
pub mod spec;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// Input sizes and repetition counts of one benchmark run. The
/// benchmark command always uses [`Scale::full`]; the smoke test shrinks
/// every input with [`Scale::smoke`] so the same code paths run in
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `log2` of the `giant` list length.
    pub giant_log2: u32,
    /// `log2` of the `pram_checked` list length.
    pub pram_log2: u32,
    /// Nodes of a mid-size service job.
    pub mid_n: usize,
    /// Distinct small job inputs the service replay draws from.
    pub small_pool: usize,
    /// Distinct mid job inputs (a multiple of 3: one per Match2/3/4 turn).
    pub mid_pool: usize,
    /// Jobs per timed service segment; results are checked between
    /// segments, while no job is in flight.
    pub segment: usize,
    /// Fewest set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// CPU seconds the set-up repetitions add up to at least, so a quick
    /// set-up is repeated more often and its median steadies.
    pub setup_secs: f64,
    /// Repetitions behind each median of the traced layer probes.
    pub probe_reps: usize,
    /// Fewest timed rotations (or segments) a run makes, however short
    /// `--seconds` is.
    pub min_rounds: usize,
}

impl Scale {
    /// The sizes the benchmark command runs.
    pub const fn full() -> Scale {
        Scale {
            giant_log2: 18,
            pram_log2: 14,
            mid_n: 4096,
            small_pool: 1024,
            mid_pool: 48,
            segment: 16384,
            setup_reps: 5,
            setup_secs: 3.0,
            probe_reps: 3,
            min_rounds: 3,
        }
    }

    /// Tiny inputs with the same structure, for the smoke test.
    pub const fn smoke() -> Scale {
        Scale {
            giant_log2: 12,
            pram_log2: 10,
            mid_n: 300,
            small_pool: 64,
            mid_pool: 6,
            segment: 256,
            setup_reps: 1,
            setup_secs: 0.0,
            probe_reps: 1,
            min_rounds: 2,
        }
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Flip one bit of one output before it is checked, to prove the
    /// checks catch a wrong result (smoke test only).
    pub corrupt: bool,
}

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Match1–Match4 on one 2^18-node list.
    Giant,
    /// `serve --jobs` replay of the small/mid job mix.
    ServiceMix,
    /// Checked PRAM simulation of Match1, Match4 and ranking.
    PramChecked,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Giant, Workload::ServiceMix, Workload::PramChecked];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Giant => "giant",
            Workload::ServiceMix => "service_mix",
            Workload::PramChecked => "pram_checked",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run `w` once: untraced, with every end-to-end metric, or traced,
/// with every per-layer metric and the recorded spans. `failed_frac`
/// joins the report's workload figures either way.
pub fn run(w: Workload, p: &Params, traced: bool) -> (report::Outcome, trace::Tracer) {
    let (mut outcome, tracer) = if traced {
        layers::run(w, p)
    } else {
        let outcome = match w {
            Workload::Giant => giant::run(p),
            Workload::ServiceMix => service_mix::run(p),
            Workload::PramChecked => pram_checked::run(p),
        };
        (outcome, trace::Tracer::off())
    };
    let checks = &outcome.checks;
    let failed = report::Metric::new(
        "failed_frac",
        "fraction",
        checks.failed_frac(),
        checks.attempted as usize,
    );
    outcome.detail.push(failed);
    (outcome, tracer)
}

/// Set up at least `scale.setup_reps` times, and until the set-ups
/// add up to `scale.setup_secs`, and keep the last state; the median of
/// the returned times is `setup_s`. Each earlier state goes to `retire`
/// before the next set-up starts, so set-ups never overlap in memory.
pub fn setup_repeated<T>(
    scale: &Scale,
    mut setup: impl FnMut() -> (T, f64),
    mut retire: impl FnMut(T),
) -> (T, Vec<f64>) {
    let (mut state, first) = setup();
    let mut times = vec![first];
    while times.len() < scale.setup_reps || times.iter().sum::<f64>() < scale.setup_secs {
        retire(state);
        let (next, secs) = setup();
        state = next;
        times.push(secs);
    }
    (state, times)
}

/// Run `body` until `budget` has elapsed and at least `min` rounds ran,
/// passing the round index.
pub fn for_duration(budget: Duration, min: usize, mut body: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut round = 0;
    while round < min || start.elapsed() < budget {
        body(round);
        round += 1;
    }
    round
}

/// FNV-1a digest of a matching's membership mask: what the checks
/// compare against the digest of a reference run.
pub fn digest(m: &parmatch_core::Matching) -> u64 {
    m.mask().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `m` with its first matched pointer removed: a wrong output for the
/// checks to catch.
pub fn corrupted(
    list: &parmatch_list::LinkedList,
    m: &parmatch_core::Matching,
) -> parmatch_core::Matching {
    let mut mask = m.mask().to_vec();
    if let Some(v) = mask.iter().position(|&b| b) {
        mask[v] = false;
    }
    parmatch_core::Matching::from_mask(list, mask)
}
