//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics over repeated rounds;
//! `--trace 1` replays the workload's stream down the layer ladder and
//! reports per-layer metrics. Either way the answers are checked, a
//! readable report goes to standard error, and the last line of standard
//! output is one JSON object. Any failed check exits with code 1. See
//! `README.md` for the workloads and the metrics.

mod drive;
mod ladder;
mod ledger;
mod os;
mod rounds;
mod serve;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::{find, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Latency samples behind the reported quantiles.
    pub samples: u64,
    /// Failed checks, each led by the check's name.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn problem(&mut self, p: String) {
        if self.problems.len() < 16 {
            self.problems.push(p);
        }
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} value {value:?} is invalid");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(opts)
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve::child_main(&args[1..]),
        Some("lanes") => return rounds::lanes_child(&args[1..]),
        _ => {}
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<_> = if opts.workload == "all" {
        WORKLOADS.iter().collect()
    } else {
        match find(&opts.workload) {
            Some(w) => vec![w],
            None => {
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "perfbench: unknown workload {:?} (one of {names:?} or all)",
                    opts.workload
                );
                return ExitCode::from(2);
            }
        }
    };
    let prefixed = selected.len() > 1;
    let mut total = Outcome::default();
    for w in selected {
        eprintln!(
            "{} (seed {}, {}, {} cpus)",
            w.name,
            opts.seed,
            if opts.trace {
                "traced ladder"
            } else {
                "untraced rounds"
            },
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        let outcome = if opts.trace {
            ladder::run(w, opts.seed)
        } else {
            rounds::run(w, opts.seed, opts.seconds)
        };
        let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        for m in &outcome.metrics {
            eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  {:<30} {:>16.4}   ({} of {} requests failed; {} latency samples)",
            "error_rate", error_rate, outcome.failed, outcome.attempted, outcome.samples
        );
        for p in &outcome.problems {
            eprintln!("  CHECK FAILED {p}");
        }
        total.attempted += outcome.attempted;
        total.failed += outcome.failed;
        total.problems.extend(outcome.problems);
        total
            .metrics
            .extend(outcome.metrics.into_iter().map(|m| Metric {
                name: if prefixed {
                    format!("{}.{}", w.name, m.name)
                } else {
                    m.name
                },
                ..m
            }));
    }
    let correct = total.problems.is_empty();
    let metrics: Vec<String> = total
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.attempted.max(1),
        total.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
