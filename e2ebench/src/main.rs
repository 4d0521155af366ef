//! End-to-end benchmark of the Chortle mapping flow and the mapping daemon.
//!
//! One run measures one workload for a fixed number of seconds and prints,
//! as the last line of standard output, one JSON object:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics of a separate traced run.
//! Before that line, one `row` line per distinct input gives its name, K,
//! LUTs, depth and best and median wall time. See `README.md` for the
//! workloads, the metrics and the self-agreement mode.
//!
//! ```text
//! e2ebench --workload cli_datapath --seed 1 --seconds 36 --trace 0
//! e2ebench agree --runs 10
//! ```

#![forbid(unsafe_code)]

mod agree;
mod check;
mod flow;
mod inputs;
mod layers;
mod load;
mod serve;
mod stats;

use std::process::ExitCode;

/// The seed a run uses when `--seed` is absent.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a claim made on other seeds.
pub const HELD_OUT_SEED: u64 = 90_210;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `run_flow` at K = 4 on wide ripple ALUs plus `count` and `des_like`.
    CliDatapath,
    /// `run_flow` over the seeded twelve-circuit suite at K = 2..=5.
    CliControl,
    /// A closed loop of one client against an in-process daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CliDatapath,
        Workload::CliControl,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliDatapath => "cli_datapath",
            Workload::CliControl => "cli_control",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The arguments of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Circuits or requests attempted.
    pub attempted: u64,
    /// Attempts that failed: errors, rejections, non-deterministic
    /// outputs and outputs that fail the independent check.
    pub failed: u64,
    /// Problems found, printed to standard error.
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a failed attempt with the reason.
    pub fn fail(&mut self, count: u64, problem: String) {
        self.failed += count;
        self.problems.push(problem);
    }

    /// The result line.
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no infinities; a non-finite value only arises
                // from failed attempts, which already make `correct` false.
                let value = if m.value.is_finite() { m.value } else { 1e12 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <cli_datapath|cli_control|serve_mixed> [--seed N] [--seconds S] [--trace 0|1]\n       \
         e2ebench agree [--runs N] [--seconds S] [--seed-base N] [--workload W]...\n\
         seeds: {DEFAULT_SEED} by default; {HELD_OUT_SEED} is held out from tuning"
    )
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 36.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        return agree::main(&args[1..]);
    }
    let run = match parse_run_args(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run.workload {
        Workload::CliDatapath | Workload::CliControl => flow::run(&run),
        Workload::ServeMixed => serve::run(&run),
    };
    for problem in &outcome.problems {
        eprintln!("e2ebench: FAIL: {problem}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
