//! `--compare A B`: did B regress against A?
//!
//! Both files hold one JSON line per run (`--out` appends them). For every
//! end-to-end metric of every workload the tool prints both medians, the
//! ratio with its base, the bound of `BENCHMARK.json`, and a verdict:
//! `regressed` when B's median is worse than A's by more than the bound,
//! `unresolved` when either side's run-to-run spread (interquartile
//! distance ÷ median) is wider than the bound — then the medians cannot
//! tell — and `ok` otherwise.

use crate::json::Json;
use crate::spec::{self, Better, EndToEnd};
use crate::stats::spread;
use dbsa::query::median;
use std::path::Path;

/// Values of one metric on one workload, one per untraced run in the file.
fn values(runs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn read_runs(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(n, line)| {
            Json::parse(line).map_err(|e| format!("{} line {}: {e}", path.display(), n + 1))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > metric.bound || spread(b) > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, median(a), median(b)) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Prints the table; `Ok(false)` when any pair regressed.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (read_runs(a)?, read_runs(b)?);
    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>17} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B/A (base A)",
        "bound",
        "spread A",
        "spread B"
    );
    let mut regressed = false;
    for workload in spec::WORKLOADS {
        let p99 = workload.reports_p99.then_some(&spec::QUERY_MS_P99);
        for metric in spec::END_TO_END.iter().chain(p99) {
            let va = values(&runs_a, workload.name, metric.name);
            let vb = values(&runs_b, workload.name, metric.name);
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<22} {:<18} no untraced runs on one side",
                    workload.name, metric.name
                );
                continue;
            }
            let verdict = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<22} {:<18} {:>14.6} {:>14.6} {:>8.4} of {:<5} {:>5.0}% {:>7.2}% {:>7.2}%  {} (n = {} vs {})",
                workload.name,
                metric.name,
                ma,
                mb,
                mb / ma,
                metric.unit,
                metric.bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                verdict.as_str(),
                va.len(),
                vb.len(),
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "query_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "throughput_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(judge(&LATENCY, &steady, &[1.05, 1.06, 1.04]), Verdict::Ok);
        assert_eq!(
            judge(&LATENCY, &steady, &[1.15, 1.16, 1.14]),
            Verdict::Regressed
        );
        assert_eq!(judge(&LATENCY, &steady, &[0.50, 0.51, 0.49]), Verdict::Ok);
        // Higher is better: a drop regresses, a rise does not.
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&RATE, &[100.0, 101.0, 99.0], &[130.0, 131.0, 129.0]),
            Verdict::Ok
        );
        // A spread wider than the bound on either side cannot be judged.
        assert_eq!(
            judge(&LATENCY, &steady, &[0.8, 1.0, 1.3, 1.6]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LATENCY, &[0.8, 1.0, 1.3, 1.6], &steady),
            Verdict::Unresolved
        );
        // A single run has no spread; the medians decide.
        assert_eq!(judge(&LATENCY, &[1.0], &[1.2]), Verdict::Regressed);
    }

    #[test]
    fn values_come_from_untraced_runs_of_the_workload() {
        let run = |workload: &str, trace: bool, v: f64| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(trace)),
                (
                    "metrics",
                    Json::obj([("query_ms_p50", Json::obj([("value", Json::Num(v))]))]),
                ),
            ])
        };
        let runs = [
            run("join_neighborhoods", false, 1.0),
            run("join_neighborhoods", true, 9.0),
            run("within_neighborhoods", false, 5.0),
            run("join_neighborhoods", false, 2.0),
        ];
        assert_eq!(
            values(&runs, "join_neighborhoods", "query_ms_p50"),
            [1.0, 2.0]
        );
        assert!(values(&runs, "join_neighborhoods", "setup_s").is_empty());
    }
}
