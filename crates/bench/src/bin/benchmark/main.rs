//! The repo benchmark: four build → save → load → serve workloads, the
//! end-to-end metrics a user of the system sees, and — in a separate traced
//! run — per-layer attribution recorded from outside the program.
//!
//! ```text
//! benchmark --workload <name> | --all  [--seed N] [--seconds S] [--trace [0|1]]
//!           [--out FILE] [--smoke | --city]
//! benchmark --compare A B
//! benchmark --manifest
//! ```
//!
//! See `README.md` next to this file for what each workload is for, and
//! `BENCHMARK.json` at the repo root for the contract the driver checks.

mod compare;
mod drive;
mod inputs;
mod json;
mod layers;
mod oracle;
mod rng;
mod run;
mod spec;
mod stats;
mod trace;

use json::Json;
use run::{Options, Report};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  benchmark --workload <name> | --all  [--seed N] [--seconds S] [--trace [0|1]]
            [--out FILE] [--smoke | --city]
  benchmark --compare A B
  benchmark --manifest

workloads: lifecycle_census, join_neighborhoods, within_neighborhoods, serve_mixed_ingest
--trace 1 produces the per-layer metrics and writes .bench_out/trace.<workload>.json;
end-to-end metrics come from a run without it. --out appends one JSON line per run.";

struct Cli {
    workloads: Vec<&'static spec::Workload>,
    trace: bool,
    out: Option<PathBuf>,
    options: Options,
}

enum Command {
    Run(Cli),
    Compare(PathBuf, PathBuf),
    Manifest,
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut workloads = Vec::new();
    let mut trace = false;
    let mut out = None;
    let mut options = Options {
        scale: &spec::QUARTER,
        seed: inputs::RECORDED_SEED,
        seconds: spec::RUN_SECONDS,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<&String, String> {
        *i += 1;
        args.get(*i).ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--manifest" => return Ok(Command::Manifest),
            "--compare" => {
                let a = value(&mut i, "--compare")?.into();
                let b = value(&mut i, "--compare")?.into();
                return Ok(Command::Compare(a, b));
            }
            "--workload" => {
                let name = value(&mut i, "--workload")?;
                workloads.push(spec::workload(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--all" => workloads = spec::WORKLOADS.iter().collect(),
            "--seed" => {
                let seed = value(&mut i, "--seed")?;
                options.seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
            }
            "--seconds" => {
                let seconds = value(&mut i, "--seconds")?;
                options.seconds = match seconds.parse() {
                    Ok(s) if (1..=60).contains(&s) => s,
                    _ => return Err(format!("--seconds takes 1 to 60, got {seconds:?}")),
                };
            }
            "--trace" => {
                // A bare `--trace` means 1; the driver passes 0 or 1.
                trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--out" => out = Some(value(&mut i, "--out")?.into()),
            "--smoke" => options.scale = &spec::SMOKE,
            "--city" => options.scale = &spec::CITY,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".to_string());
    }
    Ok(Command::Run(Cli {
        workloads,
        trace,
        out,
        options,
    }))
}

fn metrics_object<'a>(metrics: impl Iterator<Item = &'a run::Measured>) -> Json {
    Json::obj(metrics.map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding exactly the declared metrics.
fn result_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failures.len() as f64)),
        ("metrics", metrics_object(report.metrics.iter())),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured; written with every result.
fn environment(cli: &Cli) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cli.options.seed as f64)),
        ("seconds", Json::Num(cli.options.seconds as f64)),
        ("scale", Json::str(cli.options.scale.name)),
        (
            "save_snapshot_flush_policy",
            Json::str(
                "std::fs::write to a temp file in the target directory, then rename; \
                 no fsync of the file or its directory",
            ),
        ),
        (
            "disk_note",
            Json::str(
                "snapshot files are written and read back at once, so save_s / load_s are \
                 page-cache numbers of this sandbox, not a device's",
            ),
        ),
    ])
}

fn print_report(report: &Report, traced: bool) {
    println!(
        "== {} ({}) ==",
        report.workload.name,
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    for m in report.metrics.iter().chain(&report.extra) {
        println!("{:<44} {:>20} {}", m.name, format!("{}", m.value), m.unit);
    }
    println!(
        "{:<44} {:>20} ratio   ({} of {} operations failed)",
        "failed_share",
        format!(
            "{}",
            report.failures.len() as f64 / report.attempted.max(1) as f64
        ),
        report.failures.len(),
        report.attempted
    );
    for failure in report.failures.iter().take(20) {
        println!("FAILED: {failure}");
    }
    if report.failures.len() > 20 {
        println!("FAILED: … and {} more", report.failures.len() - 20);
    }
}

fn run(cli: &Cli) -> Result<bool, String> {
    let mut all_correct = true;
    for workload in &cli.workloads {
        let report = if cli.trace {
            layers::run(workload, &cli.options)?
        } else {
            run::run(workload, &cli.options)?
        };
        print_report(&report, cli.trace);
        all_correct &= report.correct();
        let line = result_line(&report);
        if let Some(path) = &cli.out {
            let record = Json::obj([
                ("workload", Json::str(report.workload.name)),
                ("trace", Json::Bool(cli.trace)),
                ("correct", Json::Bool(report.correct())),
                ("attempted", Json::Num(report.attempted as f64)),
                ("failed", Json::Num(report.failures.len() as f64)),
                (
                    "metrics",
                    metrics_object(report.metrics.iter().chain(&report.extra)),
                ),
                ("environment", environment(cli)),
                ("details", report.details.clone()),
            ]);
            use std::io::Write;
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| writeln!(f, "{}", record.render()))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        // Last, so that it is the last line of a single-workload run.
        println!("{}", line.render());
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(message) => {
            eprintln!("{message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Command::Manifest) => {
            print!("{}", spec::manifest().render_pretty());
            Ok(true)
        }
        Ok(Command::Compare(a, b)) => compare::compare(&a, &b),
        Ok(Command::Run(cli)) => run(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let Ok(Command::Run(cli)) = parse(&args(
            "--workload join_neighborhoods --seed 7 --seconds 10 --trace 0",
        )) else {
            panic!("must parse")
        };
        assert_eq!(cli.workloads[0].name, "join_neighborhoods");
        assert_eq!(
            (cli.options.seed, cli.options.seconds, cli.trace),
            (7, 10, false)
        );
        assert_eq!(cli.options.scale.name, "quarter");
        let Ok(Command::Run(cli)) = parse(&args("--all --trace --smoke --out r.json")) else {
            panic!("must parse")
        };
        assert_eq!(cli.workloads.len(), spec::WORKLOADS.len());
        assert!(cli.trace && cli.options.scale.name == "smoke" && cli.out.is_some());
        let Ok(Command::Run(cli)) = parse(&args("--trace 1 --workload lifecycle_census")) else {
            panic!("must parse")
        };
        assert!(cli.trace);
        for bad in [
            "",
            "--workload nope",
            "--all --seconds 0",
            "--all --seed x",
            "--frob",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(matches!(
            parse(&args("--compare a b")),
            Ok(Command::Compare(..))
        ));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            workload: &spec::WORKLOADS[0],
            metrics: vec![run::Measured {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            }],
            // Extras are for the table and the result file only.
            extra: vec![run::Measured {
                name: "query_ms_p99",
                value: 9.5,
                unit: "ms",
            }],
            attempted: 1000,
            failures: vec![],
            details: Json::Null,
        };
        assert_eq!(
            result_line(&report).render(),
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
    }
}
