//! The benchmark's definition: its workloads and metrics, rendered as
//! `BENCHMARK.json` (`perfbench spec`). The smoke test pins the checked-in
//! file to this rendering and every run's output to these names.

use crate::report::json_str;

/// The command the benchmark runs, from the root of a checkout.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--quiet",
    "--release",
    "--offline",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u32 = 30;

/// Workload names with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "giant",
        "Match1-4 via Runner on one 2^18-node list, 1 MiB arrays that together overflow L2: relabel gathers, finishers, WalkDown and Match3 lookups set the time",
    ),
    (
        "service_mix",
        "synthetic job mix, not observed traffic, replayed like serve --jobs: 95% small fused Match1 jobs (E18 sizes), 5% solo 4096-node Match2/3/4 jobs; drives queue, arenas, fusion",
    ),
    (
        "pram_checked",
        "checked PRAM simulation of match1_pram, match4_pram and rank_pram on 2^14 cache-resident nodes, one thread; bypasses the native pipeline and the service",
    ),
];

/// An end-to-end metric: name, unit, better direction, bound.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// Metrics every untraced run reports, on every workload.
pub const END_TO_END: [EndToEnd; 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.2),
    ("mnodes_cpu_s", "Mnodes/cpu-s", "higher", 0.25),
    ("req_cpu_us", "us", "lower", 0.25),
];

/// A per-layer metric: name, unit, better direction.
pub type PerLayer = (String, &'static str, &'static str);

/// Metrics every traced run reports, on every workload.
pub fn per_layer() -> Vec<PerLayer> {
    let algs = ["match1", "match2", "match3", "match4"];
    let mut v: Vec<PerLayer> = Vec::new();
    let mut add =
        |name: String, unit: &'static str, better: &'static str| v.push((name, unit, better));
    add("list.gen_ms".into(), "ms", "lower");
    add("list.parse_ms".into(), "ms", "lower");
    for a in algs {
        add(format!("workspace.cold_ms.{a}"), "ms", "lower");
    }
    for a in algs {
        add(format!("workspace.cold_over_warm.{a}"), "ratio", "lower");
    }
    for a in algs {
        add(format!("runner.{a}.ns_per_work"), "ns/work", "lower");
    }
    for a in algs {
        add(format!("runner.{a}.work_units"), "count", "lower");
    }
    add("core.match1.rounds".into(), "count", "lower");
    add("core.match2.sets".into(), "count", "lower");
    add("core.match3.jump_rounds".into(), "count", "lower");
    add("core.match4.walk_rounds".into(), "count", "lower");
    add("core.match4.distinct_sets".into(), "count", "lower");
    for a in algs {
        add(format!("runner.mid.{a}_us"), "us", "lower");
    }
    for a in algs {
        add(format!("pool.scaling_eff.{a}"), "ratio", "higher");
    }
    add("baselines.seq_ms".into(), "ms", "lower");
    for a in algs {
        add(format!("runner.{a}.speedup_vs_seq"), "ratio", "higher");
    }
    add("batch.fused_ns_per_node".into(), "ns/node", "lower");
    add("batch.solo_ns_per_node".into(), "ns/node", "lower");
    add("batch.fuse_speedup".into(), "ratio", "higher");
    add("service.submit_ns_p50".into(), "ns", "lower");
    add(
        "service.busy_retries_per_job".into(),
        "retries/job",
        "lower",
    );
    add("service.recv_wait_frac".into(), "fraction", "lower");
    add("service.batched_frac".into(), "fraction", "higher");
    add("service.overhead_us_per_job".into(), "us", "lower");
    add("service.small_p99_us".into(), "us", "lower");
    add("service.mid_p90_us".into(), "us", "lower");
    add("service.mid_p99_us".into(), "us", "lower");
    for prog in ["match1", "match4", "rank"] {
        for counter in ["steps", "work", "reads", "writes"] {
            add(format!("pram.{prog}.{counter}"), "count", "lower");
        }
        add(format!("pram.{prog}.ns_per_work"), "ns/work", "lower");
    }
    add("pram.checked_over_fast".into(), "ratio", "lower");
    add("trace.overhead_frac".into(), "fraction", "lower");
    v
}

/// `BENCHMARK.json`, as checked in at the repository root.
pub fn benchmark_json() -> String {
    let command: Vec<String> = COMMAND.iter().map(|s| json_str(s)).collect();
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(n),
                json_str(why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(n, u, b, bound)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {bound}}}",
                json_str(n),
                json_str(u),
                json_str(b)
            )
        })
        .collect();
    let layers: Vec<String> = per_layer()
        .iter()
        .map(|(n, u, b)| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(n),
                json_str(u),
                json_str(b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.join(", "),
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
