//! The benchmark command.
//!
//! ```text
//! perfbench --workload <giant|service_mix|pram_checked> --seed N --seconds S --trace 0|1 [--out DIR]
//! perfbench spec        # print BENCHMARK.json
//! ```
//!
//! The last line of standard output is the JSON result; the lines
//! before it are the human report (host stamp, every metric with unit
//! and sample count, the checks). The result file, with every sample
//! count, goes to `DIR/results/` (default `.bench_out`), and a traced
//! run's spans to `DIR/traces/`. Exits 1 when any output check fails,
//! 2 on bad arguments.

use parmatch_perfbench::report::{report_lines, result_file, result_line};
use parmatch_perfbench::{host, spec, Params, Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <giant|service_mix|pram_checked> --seed N --seconds S --trace 0|1 [--out DIR]");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        scale: Scale::full(),
        corrupt: false,
    };
    let name = args.workload.name();
    let (outcome, tracer) = parmatch_perfbench::run(args.workload, &params, args.trace);
    if args.trace {
        let path = args
            .out
            .join("traces")
            .join(format!("{name}-seed{}.jsonl", args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let stamp = host::Stamp::probe(Path::new("."));
    let results = args.out.join("results");
    let file = results.join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(&results).and_then(|()| {
        std::fs::write(
            &file,
            result_file(&stamp, name, args.seed, args.trace, &outcome),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    for line in report_lines(&stamp, name, args.seed, args.trace, &outcome) {
        println!("{line}");
    }
    println!("{}", result_line(&outcome));
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
