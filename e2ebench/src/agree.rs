//! Self-agreement mode: two sets of runs of the same build, run `r` of
//! each set on seed `seed_base + r`, compared against the bounds in
//! `BENCHMARK.json`.
//!
//! For every workload and end-to-end metric it prints each set's median
//! and quartiles, the spread (interquartile distance over the median, as
//! Python's `statistics.quantiles(values, n=4)` gives the quartiles), and
//! whether the sets agree: each spread within the metric's bound and the
//! second median no worse than the first by more than the bound.
//! `luts_total` and `depth_total` must also repeat exactly between the
//! two runs of each seed.

use std::process::{Command, ExitCode};

use chortle_telemetry::json::{self, Value};

use crate::stats::{median, quartiles};
use crate::Workload;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One run's result line.
struct RunResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

impl RunResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

struct Options {
    runs: u64,
    seconds: Option<String>,
    seed_base: u64,
    workloads: Vec<Workload>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        runs: 10,
        seconds: None,
        seed_base: crate::DEFAULT_SEED,
        workloads: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--runs" => opts.runs = number()?.max(2),
            "--seconds" => opts.seconds = Some(value.clone()),
            "--seed-base" => opts.seed_base = number()?,
            "--workload" => opts.workloads.push(
                Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?,
            ),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

/// Reads the end-to-end metrics and `run_seconds` of `BENCHMARK.json` in
/// the current directory.
fn read_benchmark() -> Result<(Vec<Declared>, String), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_u64)
        .ok_or("BENCHMARK.json has no run_seconds")?
        .to_string();
    let declared = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed end_to_end entry in BENCHMARK.json")?;
    Ok((declared, seconds))
}

/// Runs this executable once and parses its result line.
fn run_once(workload: Workload, seed: u64, seconds: &str) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed])
        .args(["--seconds", seconds, "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("bad result line {last:?}: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    eprintln!("agree: {} seed {seed}: {last}", workload.name());
    Ok(RunResult {
        correct: out.status.success() && doc.get("correct") == Some(&Value::Bool(true)),
        metrics,
    })
}

/// Quartile spread of `values` as a share of their median.
fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    (m, q1, q3, (q3 - q1) / m)
}

/// Runs the self-agreement check; exits 1 when the sets disagree.
pub fn main(args: &[String]) -> ExitCode {
    let result = parse_options(args).and_then(|opts| {
        let (declared, default_seconds) = read_benchmark()?;
        let seconds = opts.seconds.clone().unwrap_or(default_seconds);
        let mut agree = true;
        for &workload in &opts.workloads {
            let mut sets: [Vec<RunResult>; 2] = [Vec::new(), Vec::new()];
            for set in &mut sets {
                for r in 0..opts.runs {
                    set.push(run_once(workload, opts.seed_base + r, &seconds)?);
                }
            }
            agree &= report(workload, &declared, &sets);
        }
        Ok(agree)
    });
    match result {
        Ok(true) => {
            println!("agree: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("agree: FAIL");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("e2ebench agree: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints one workload's table; returns whether the two sets agree.
fn report(workload: Workload, declared: &[Declared], sets: &[Vec<RunResult>; 2]) -> bool {
    let mut agree = true;
    let correct = sets.iter().flatten().all(|r| r.correct);
    println!(
        "agree: {} ({} runs per set, all correct: {correct})",
        workload.name(),
        sets[0].len()
    );
    agree &= correct;
    println!("  metric               set  median        q1            q3            spread   bound   ok  margin");
    for m in declared {
        let mut medians = [0.0; 2];
        for (s, set) in sets.iter().enumerate() {
            let values: Vec<f64> = set.iter().filter_map(|r| r.get(&m.name)).collect();
            if values.len() != set.len() {
                println!("  {:<20} {s}    missing from some runs", m.name);
                agree = false;
                continue;
            }
            let (med, q1, q3, sp) = spread(&values);
            medians[s] = med;
            let ok = sp <= m.bound;
            agree &= ok;
            println!(
                "  {:<20} {s}    {med:<13.6} {q1:<13.6} {q3:<13.6} {sp:<8.4} {:<7} {:<3} {}",
                m.name,
                m.bound,
                if ok { "yes" } else { "NO" },
                if sp < m.bound / 3.0 { "yes" } else { "no" },
            );
        }
        let worse = if m.lower_is_better {
            (medians[1] - medians[0]) / medians[0]
        } else {
            (medians[0] - medians[1]) / medians[0]
        };
        let ok = worse <= m.bound;
        agree &= ok;
        println!(
            "  {:<20} drift of set 1 vs set 0: {:+.4} (bound {}) {}",
            m.name,
            worse,
            m.bound,
            if ok { "ok" } else { "EXCEEDED" }
        );
    }
    for name in ["luts_total", "depth_total"] {
        let same = sets[0]
            .iter()
            .zip(&sets[1])
            .all(|(a, b)| a.get(name).is_some() && a.get(name) == b.get(name));
        println!(
            "  {name} identical per seed across sets: {}",
            if same { "yes" } else { "NO" }
        );
        agree &= same;
    }
    agree
}
