//! Smoke test: every workload at toy sizes, through the same code the
//! benchmark command runs.

use parmatch_perfbench::report::{result_line, Outcome};
use parmatch_perfbench::{run, spec, Params, Scale, Workload};

fn params(corrupt: bool) -> Params {
    Params {
        seed: 3,
        seconds: 0.05,
        scale: Scale::smoke(),
        corrupt,
    }
}

fn names(o: &Outcome) -> Vec<(String, &'static str)> {
    o.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

/// The workload-specific end-to-end figures of the human report.
fn detail_names(w: Workload) -> Vec<&'static str> {
    let mut v = match w {
        Workload::Giant => vec![
            "match1_mnodes_s",
            "match2_mnodes_s",
            "match3_mnodes_s",
            "match4_mnodes_s",
            "mix_mnodes_s",
            "rotation_p50_us",
        ],
        Workload::ServiceMix => vec![
            "mnodes_s",
            "jobs_s",
            "small_p50_us",
            "small_p90_us",
            "mid_p50_us",
        ],
        Workload::PramChecked => vec!["pram_mwork_s", "rotation_p50_us"],
    };
    v.push("failed_frac");
    v
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for w in Workload::ALL {
        let (o, _) = run(w, &params(false), false);
        assert_eq!(o.checks.failed, 0, "{}: {:?}", w.name(), o.checks.failures);
        let want: Vec<(String, &str)> = spec::END_TO_END
            .iter()
            .map(|e| (e.0.to_string(), e.1))
            .collect();
        assert_eq!(names(&o), want, "{}", w.name());
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
            assert!(m.samples >= 1);
        }
        let detail: Vec<&str> = o.detail.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(detail, detail_names(w), "{}", w.name());
        assert!(result_line(&o).starts_with("{\"correct\": true, "));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    for w in Workload::ALL {
        let (o, tracer) = run(w, &params(false), true);
        assert_eq!(o.checks.failed, 0, "{}: {:?}", w.name(), o.checks.failures);
        let want: Vec<(String, &str)> = spec::per_layer()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        assert_eq!(names(&o), want, "{}", w.name());
        assert!(
            o.metrics.iter().all(|m| m.value.is_finite()),
            "{}",
            w.name()
        );
        assert!(tracer
            .spans()
            .iter()
            .any(|s| s.name == "core.runner.match3"));
        assert!(tracer.spans().iter().any(|s| s.name == "service.submit"));
    }
}

#[test]
fn corrupted_outputs_are_caught() {
    for w in Workload::ALL {
        let (o, _) = run(w, &params(true), false);
        assert!(
            o.checks.failed >= 1,
            "{}: a corrupted output passed",
            w.name()
        );
        assert!(result_line(&o).starts_with("{\"correct\": false, "));
    }
}

#[test]
fn benchmark_json_is_the_rendered_spec() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        spec::benchmark_json(),
        "regenerate with `perfbench spec`"
    );
}
