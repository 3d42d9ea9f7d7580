//! Metrics, output checks, and the result formats: the human report,
//! the one-line JSON result, and the result file `compare.py` reads.

use crate::host::Stamp;
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            samples,
        }
    }
}

/// Output checks made outside the timed regions.
#[derive(Debug, Default)]
pub struct Checks {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed or were wrong.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked output; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
        ok
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The output checks.
    pub checks: Checks,
    /// The metrics of the JSON result: every `end_to_end` metric of an
    /// untraced run, every `per_layer` metric of a traced one.
    pub metrics: Vec<Metric>,
    /// Workload-specific end-to-end figures shown in the human report
    /// only (they do not exist on every workload).
    pub detail: Vec<Metric>,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
/// order: the median set-up CPU time, the process high-water mark, the
/// workload's nodes matched per CPU-second, and the median CPU time of
/// one request (see [`host::cpu_seconds`](crate::host::cpu_seconds)).
pub fn end_to_end(
    setups: &[f64],
    (mnodes_cpu_s, throughput_samples): (f64, usize),
    (req_cpu_us, request_samples): (f64, usize),
) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", crate::stats::median(setups), setups.len()),
        Metric::new("peak_rss_mib", "MiB", crate::host::peak_rss_mib(), 1),
        Metric::new(
            "mnodes_cpu_s",
            "Mnodes/cpu-s",
            mnodes_cpu_s,
            throughput_samples,
        ),
        Metric::new("req_cpu_us", "us", req_cpu_us, request_samples),
    ]
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The last line of standard output.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.checks.failed == 0 && o.checks.attempted > 0,
        o.checks.attempted.max(1),
        o.checks.failed,
        metrics_json(&o.metrics, false)
    )
}

/// The result file: the stamp, the run, and every metric with its
/// sample count.
pub fn result_file(stamp: &Stamp, workload: &str, seed: u64, traced: bool, o: &Outcome) -> String {
    let stamp_json: Vec<String> = stamp
        .fields()
        .into_iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(&v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"host\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"detail\": {}}}\n",
        json_str(workload),
        u8::from(traced),
        stamp_json.join(", "),
        o.checks.attempted,
        o.checks.failed,
        metrics_json(&o.metrics, true),
        metrics_json(&o.detail, true)
    )
}

/// Human-readable report lines: the stamp, then every metric with its
/// unit and sample count.
pub fn report_lines(
    stamp: &Stamp,
    workload: &str,
    seed: u64,
    traced: bool,
    o: &Outcome,
) -> Vec<String> {
    let mut lines = Vec::new();
    let fields: Vec<String> = stamp
        .fields()
        .into_iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    lines.push(format!(
        "# workload={workload} seed={seed} trace={} {}",
        u8::from(traced),
        fields.join(" ")
    ));
    for m in o.metrics.iter().chain(&o.detail) {
        lines.push(format!(
            "{:<36} {:>16} {:<10} (n={})",
            m.name,
            format!("{:.6}", m.value),
            m.unit,
            m.samples
        ));
    }
    lines.push(format!(
        "checks: {} attempted, {} failed (failed_frac {})",
        o.checks.attempted,
        o.checks.failed,
        o.checks.failed_frac()
    ));
    for f in &o.checks.failures {
        lines.push(format!("check failed: {f}"));
    }
    lines
}
