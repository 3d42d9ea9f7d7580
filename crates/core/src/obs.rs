//! Zero-overhead-when-disabled instrumentation with paper-bound auditing.
//!
//! Every matcher body is generic over an [`Observer`], attached through
//! [`Runner::observer`](crate::Runner::observer). The default
//! [`NoopObserver`] has [`Observer::ENABLED`]` = false` and empty
//! `#[inline(always)]` methods, so every instrumentation site —
//! including the `if O::ENABLED` guards around per-round censuses —
//! compiles away: no branch, no byte, no bit of output changes (the
//! differential suites enforce the latter).
//!
//! An enabled observer such as [`Recorder`] receives a *span tree* of
//! algorithm phases (`relabel` → per-`round` children, `finish`,
//! `sweep`, `walkdown1`, …) carrying counters — coin-tossing rounds,
//! distinct-label censuses, scatter writes, walk lengths, bytes
//! touched. Counters that the paper bounds in closed form (Lemma 1's
//! `2⌈log₂ n⌉` sets, Lemma 2's `log^(k)` cascade, Match1's
//! `G(n) + O(1)` rounds, the `c·n` work of Theorems 1–2) are recorded
//! with that bound attached via [`Observer::bounded`], and the finished
//! [`Recording`] turns each pair into an [`Audit`] verdict. The
//! `experiments -- bounds` driver and the `cli trace` subcommand render
//! these trees; `BENCH_bounds.json` archives them.
//!
//! The PRAM simulator keeps its own [`parmatch_pram::Trace`] /
//! [`parmatch_pram::Stats`]; [`record_pram_trace`] bridges a captured
//! trace into the same span vocabulary so native and simulated runs are
//! audited side by side.

/// Sink for instrumentation events emitted by the matchers.
///
/// Implementations fall in two classes: [`NoopObserver`]
/// (`ENABLED = false`, everything compiles out) and real recorders
/// (`ENABLED = true`), for which the matchers additionally compute
/// per-round censuses and span counters. Enabled observers
/// must never influence outputs — the matchers only *read* state when
/// feeding one.
pub trait Observer {
    /// Whether instrumentation sites should do work at all. Matchers
    /// guard every observation — and any extra bookkeeping needed to
    /// produce one — behind `if Self::ENABLED`, so a `false` here
    /// compiles every site away.
    const ENABLED: bool;

    /// Open a child span named `label` under the current span.
    fn enter(&mut self, label: &str);

    /// Close the innermost open span.
    fn exit(&mut self);

    /// Record a plain counter on the innermost open span.
    fn counter(&mut self, name: &str, value: u64);

    /// Record a counter together with the paper's predicted bound for
    /// it; the pair becomes an [`Audit`] verdict (`value <= bound`).
    fn bounded(&mut self, name: &str, value: u64, bound: u64);
}

/// The do-nothing observer: `ENABLED = false`, every method an empty
/// `#[inline(always)]` body — what [`Runner`](crate::Runner) passes
/// when no observer is attached.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn enter(&mut self, _label: &str) {}

    #[inline(always)]
    fn exit(&mut self) {}

    #[inline(always)]
    fn counter(&mut self, _name: &str, _value: u64) {}

    #[inline(always)]
    fn bounded(&mut self, _name: &str, _value: u64, _bound: u64) {}
}

/// One counter observation attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsCounter {
    /// Counter name (e.g. `"distinct_labels"`).
    pub name: String,
    /// Measured value.
    pub value: u64,
    /// The paper's predicted bound, when one applies.
    pub bound: Option<u64>,
}

/// A node of the recorded span tree: a named phase with its counters
/// and child phases.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Span {
    /// Phase label (e.g. `"relabel"`, `"round"`, `"finish"`).
    pub label: String,
    /// Counters recorded while this span was innermost.
    pub counters: Vec<ObsCounter>,
    /// Nested phases, in the order they were entered.
    pub children: Vec<Span>,
}

impl Span {
    fn named(label: &str) -> Self {
        Span {
            label: label.to_owned(),
            counters: Vec::new(),
            children: Vec::new(),
        }
    }
}

/// An enabled [`Observer`] that records the span tree for later
/// auditing and rendering. Create one, pass it to [`Runner::observer`](crate::Runner::observer),
/// then call [`Recorder::finish`].
#[derive(Debug, Default)]
pub struct Recorder {
    root: Span,
    stack: Vec<Span>,
}

impl Recorder {
    /// A fresh recorder with an empty (unnamed) root span.
    pub fn new() -> Self {
        Self::default()
    }

    /// Close any spans left open (matchers with early error returns may
    /// leave some) and return the finished [`Recording`].
    pub fn finish(mut self) -> Recording {
        while !self.stack.is_empty() {
            self.exit();
        }
        Recording { root: self.root }
    }

    /// Graft a finished [`Recording`]'s top-level spans (and root
    /// counters) into the current innermost span. The service layer uses
    /// this to assemble per-job recordings — produced independently on
    /// worker threads — under a service-level root span:
    ///
    /// ```
    /// use parmatch_core::obs::{Observer, Recorder};
    ///
    /// let mut job = Recorder::new();
    /// job.enter("match1");
    /// job.counter("n", 64);
    /// job.exit();
    ///
    /// let mut svc = Recorder::new();
    /// svc.enter("service");
    /// svc.enter("job#0");
    /// svc.adopt(job.finish());
    /// svc.exit();
    /// svc.exit();
    /// let rec = svc.finish();
    /// assert_eq!(rec.spans()[0].children[0].children[0].label, "match1");
    /// ```
    pub fn adopt(&mut self, recording: Recording) {
        let here = self.innermost();
        here.counters.extend(recording.root.counters);
        here.children.extend(recording.root.children);
    }

    fn innermost(&mut self) -> &mut Span {
        self.stack.last_mut().unwrap_or(&mut self.root)
    }
}

impl Observer for Recorder {
    const ENABLED: bool = true;

    fn enter(&mut self, label: &str) {
        self.stack.push(Span::named(label));
    }

    fn exit(&mut self) {
        if let Some(done) = self.stack.pop() {
            self.innermost().children.push(done);
        }
    }

    fn counter(&mut self, name: &str, value: u64) {
        self.innermost().counters.push(ObsCounter {
            name: name.to_owned(),
            value,
            bound: None,
        });
    }

    fn bounded(&mut self, name: &str, value: u64, bound: u64) {
        self.innermost().counters.push(ObsCounter {
            name: name.to_owned(),
            value,
            bound: Some(bound),
        });
    }
}

/// Verdict for one bounded counter: did the measurement respect the
/// paper's prediction?
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// Slash-joined span path plus counter name, e.g.
    /// `"match1/relabel/round#2/distinct_labels"`. Same-label sibling
    /// spans are disambiguated with a `#k` occurrence index.
    pub path: String,
    /// Measured value.
    pub value: u64,
    /// Predicted bound.
    pub bound: u64,
    /// `value <= bound`.
    pub pass: bool,
}

/// A finished span tree, ready for auditing, rendering, and export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    root: Span,
}

impl Recording {
    /// Top-level spans (children of the unnamed root).
    pub fn spans(&self) -> &[Span] {
        &self.root.children
    }

    /// Every bounded counter in the tree as an [`Audit`] verdict, in
    /// depth-first order.
    pub fn audits(&self) -> Vec<Audit> {
        fn walk(span: &Span, prefix: &str, out: &mut Vec<Audit>) {
            for c in &span.counters {
                if let Some(bound) = c.bound {
                    out.push(Audit {
                        path: format!("{prefix}{}", c.name),
                        value: c.value,
                        bound,
                        pass: c.value <= bound,
                    });
                }
            }
            let mut seen: Vec<(&str, usize)> = Vec::new();
            for child in &span.children {
                let dup = span
                    .children
                    .iter()
                    .filter(|s| s.label == child.label)
                    .count()
                    > 1;
                let path = if dup {
                    let k = match seen.iter_mut().find(|(l, _)| *l == child.label) {
                        Some(entry) => {
                            entry.1 += 1;
                            entry.1
                        }
                        None => {
                            seen.push((&child.label, 0));
                            0
                        }
                    };
                    format!("{prefix}{}#{k}/", child.label)
                } else {
                    format!("{prefix}{}/", child.label)
                };
                walk(child, &path, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }

    /// Whether every bounded counter respected its bound.
    pub fn all_bounds_hold(&self) -> bool {
        self.audits().iter().all(|a| a.pass)
    }

    /// Sum of all counters named `name` anywhere in the tree.
    pub fn counter_total(&self, name: &str) -> u64 {
        fn walk(span: &Span, name: &str) -> u64 {
            span.counters
                .iter()
                .filter(|c| c.name == name)
                .map(|c| c.value)
                .sum::<u64>()
                + span.children.iter().map(|s| walk(s, name)).sum::<u64>()
        }
        walk(&self.root, name)
    }

    /// First counter named `name` in depth-first order, if any.
    pub fn find(&self, name: &str) -> Option<u64> {
        fn walk(span: &Span, name: &str) -> Option<u64> {
            span.counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
                .or_else(|| span.children.iter().find_map(|s| walk(s, name)))
        }
        walk(&self.root, name)
    }

    /// Deterministic indented rendering of the span tree — phase labels,
    /// counters, and bound margins, no timings — so output is
    /// byte-stable across runs and thread counts.
    pub fn render(&self) -> String {
        fn walk(span: &Span, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!("{pad}{}\n", span.label));
            for c in &span.counters {
                match c.bound {
                    Some(b) if c.value <= b => out.push_str(&format!(
                        "{pad}  {} = {} <= {} [ok, margin {}]\n",
                        c.name,
                        c.value,
                        b,
                        b - c.value
                    )),
                    Some(b) => out.push_str(&format!(
                        "{pad}  {} = {} <= {} VIOLATED (excess {})\n",
                        c.name,
                        c.value,
                        b,
                        c.value - b
                    )),
                    None => out.push_str(&format!("{pad}  {} = {}\n", c.name, c.value)),
                }
            }
            for child in &span.children {
                walk(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        for span in &self.root.children {
            walk(span, 0, &mut out);
        }
        for c in &self.root.counters {
            out.push_str(&format!("{} = {}\n", c.name, c.value));
        }
        out
    }

    /// The span tree as a JSON value (nested objects), for
    /// `BENCH_bounds.json`.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.replace('\\', "\\\\").replace('"', "\\\"")
        }
        fn walk(span: &Span, out: &mut String) {
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"counters\":[",
                esc(&span.label)
            ));
            for (k, c) in span.counters.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                match c.bound {
                    Some(b) => out.push_str(&format!(
                        "{{\"name\":\"{}\",\"value\":{},\"bound\":{}}}",
                        esc(&c.name),
                        c.value,
                        b
                    )),
                    None => out.push_str(&format!(
                        "{{\"name\":\"{}\",\"value\":{}}}",
                        esc(&c.name),
                        c.value
                    )),
                }
            }
            out.push_str("],\"children\":[");
            for (k, child) in span.children.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                walk(child, out);
            }
            out.push_str("]}");
        }
        let mut out = String::new();
        walk(&self.root, &mut out);
        out
    }
}

/// Bridge a captured PRAM [`parmatch_pram::Trace`] (and optionally the
/// machine's [`parmatch_pram::Stats`]) into the observer vocabulary:
/// a `"pram"` span with run totals, one child span per traced phase.
///
/// Traces are captured with
/// `parmatch_pram::fault::arm_with_trace(FaultPlan::empty())` before a
/// `*_pram` run and drained with `parmatch_pram::fault::take_probes()`.
pub fn record_pram_trace<O: Observer>(
    obs: &mut O,
    trace: &parmatch_pram::Trace,
    stats: Option<&parmatch_pram::Stats>,
) {
    if !O::ENABLED {
        return;
    }
    obs.enter("pram");
    obs.counter("steps", trace.len() as u64);
    obs.counter("work", trace.work_in(0..trace.len()));
    obs.counter("failed_steps", trace.failed_steps());
    obs.counter("retries", trace.retries());
    if let Some(s) = stats {
        obs.counter("machine_steps", s.steps);
        obs.counter("machine_work", s.work);
        obs.counter("reads", s.reads);
        obs.counter("writes", s.writes);
    }
    for (label, steps, work) in trace.phase_summaries() {
        obs.enter(&label);
        obs.counter("steps", steps);
        obs.counter("work", work);
        obs.exit();
    }
    obs.exit();
}

/// Bytes moved by `rounds` relabel rounds over `n` nodes: each
/// round reads the current labels (8n), gathers successor labels (8n),
/// reads the successor pointers (4n), and writes the new labels (8n).
pub(crate) fn relabel_bytes(n: usize, rounds: u32) -> u64 {
    28 * n as u64 * u64::from(rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_builds_nested_spans() {
        let mut r = Recorder::new();
        r.enter("a");
        r.counter("x", 3);
        r.enter("b");
        r.bounded("y", 5, 7);
        r.exit();
        r.exit();
        let rec = r.finish();
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].label, "a");
        assert_eq!(rec.spans()[0].children[0].label, "b");
        assert_eq!(rec.find("y"), Some(5));
        assert_eq!(rec.counter_total("x"), 3);
        assert!(rec.all_bounds_hold());
    }

    #[test]
    fn audits_flag_violations_and_disambiguate_siblings() {
        let mut r = Recorder::new();
        r.enter("relabel");
        for (k, v) in [(0u64, 4u64), (1, 9)].iter() {
            r.enter("round");
            r.bounded("distinct", *v, 8);
            r.counter("k", *k);
            r.exit();
        }
        r.exit();
        let rec = r.finish();
        let audits = rec.audits();
        assert_eq!(audits.len(), 2);
        assert_eq!(audits[0].path, "relabel/round#0/distinct");
        assert!(audits[0].pass);
        assert_eq!(audits[1].path, "relabel/round#1/distinct");
        assert!(!audits[1].pass);
        assert!(!rec.all_bounds_hold());
        assert!(rec.render().contains("VIOLATED"));
    }

    #[test]
    fn unbalanced_spans_are_closed_by_finish() {
        let mut r = Recorder::new();
        r.enter("outer");
        r.enter("inner");
        r.counter("c", 1);
        let rec = r.finish();
        assert_eq!(rec.spans()[0].children[0].label, "inner");
        assert_eq!(rec.find("c"), Some(1));
    }

    #[test]
    fn render_and_json_are_deterministic() {
        let build = || {
            let mut r = Recorder::new();
            r.enter("m");
            r.bounded("w", 10, 12);
            r.exit();
            r.finish()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.render(), b.render());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"bound\":12"));
        assert!(a.render().contains("[ok, margin 2]"));
    }

    #[test]
    fn adopt_grafts_recordings_with_audits_intact() {
        let mut job_a = Recorder::new();
        job_a.enter("match1");
        job_a.bounded("rounds", 3, 5);
        job_a.exit();
        let mut job_b = Recorder::new();
        job_b.enter("match2");
        job_b.bounded("distinct_sets", 9, 8); // violation survives the graft
        job_b.exit();

        let mut svc = Recorder::new();
        svc.enter("service");
        for (k, job) in [job_a, job_b].into_iter().enumerate() {
            svc.enter(&format!("job#{k}"));
            svc.adopt(job.finish());
            svc.exit();
        }
        svc.exit();
        let rec = svc.finish();
        assert_eq!(rec.spans()[0].children.len(), 2);
        let audits = rec.audits();
        assert_eq!(audits.len(), 2);
        assert_eq!(audits[0].path, "service/job#0/match1/rounds");
        assert!(audits[0].pass);
        assert_eq!(audits[1].path, "service/job#1/match2/distinct_sets");
        assert!(!audits[1].pass);
        assert!(!rec.all_bounds_hold());
        assert_eq!(rec.counter_total("rounds"), 3);
    }

    #[test]
    fn noop_observer_is_inert() {
        let mut o = NoopObserver;
        o.enter("x");
        o.bounded("y", 99, 1);
        o.exit();
        const { assert!(!NoopObserver::ENABLED) };
    }
}
