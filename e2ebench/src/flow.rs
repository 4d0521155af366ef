//! The offline workloads: `chortle_cli::run_flow`, the flow `chortle-map`
//! runs, on two threads as two concurrent `chortle-map` runs would.

use std::hint::black_box;
use std::sync::Mutex;

use chortle_cli::{run_flow, FlowOptions, MapOptions, Telemetry};

use crate::check::{self, Produced};
use crate::inputs::{self, Input};
use crate::layers::{self, Layers};
use crate::load::{self, Attempt};
use crate::stats::{median, peak_rss_mb, Latencies};
use crate::{Metric, Outcome, RunArgs, Workload};

/// The options `chortle-map -k K` runs with when given no other flag:
/// optimize and verify on, `--jobs 0`, the default cache.
pub fn cli_options(k: usize) -> FlowOptions {
    FlowOptions {
        map: MapOptions::builder(k)
            .jobs(0)
            .build()
            .expect("workload K values are valid"),
        ..FlowOptions::default()
    }
}

fn generate(workload: Workload, seed: u64) -> Vec<Input> {
    match workload {
        Workload::CliDatapath => inputs::datapath(seed),
        _ => inputs::control_suite(seed),
    }
}

/// One set-up: each worker generates the inputs and runs the flow once
/// on the smallest of them, both at once, so that lazy set-up (the
/// mapper's worker pool) is done before timing.
fn setup(run: &RunArgs) -> Vec<Input> {
    let prepare = || {
        let inputs = generate(run.workload, run.seed);
        let smallest = inputs
            .iter()
            .min_by_key(|i| i.blif.len())
            .expect("every workload has inputs");
        // A failure here shows again, and is counted, in the measured loop.
        let _ = black_box(run_flow(&smallest.blif, &cli_options(smallest.k)));
        inputs
    };
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..load::WORKERS).map(|_| s.spawn(prepare)).collect();
        let mut prepared = workers
            .into_iter()
            .map(|w| w.join().expect("set-up ends cleanly"));
        prepared.next_back().expect("at least one worker")
    })
}

/// One untraced attempt: `run_flow` on the input's BLIF text.
fn flow_attempt(input: &Input, options: &FlowOptions) -> Attempt {
    Attempt::timed(|| {
        run_flow(black_box(&input.blif), options)
            .map(|r| Produced {
                luts: r.luts,
                depth: r.depth,
                output: r.output_blif,
            })
            .map_err(|e| e.to_string())
    })
}

/// Runs one offline workload and reports its end-to-end metrics, or with
/// `--trace 1` its per-layer metrics.
pub fn run(run: &RunArgs) -> Outcome {
    let (inputs, mut setup_times) = load::set_ups(|| setup(run), drop);
    let options: Vec<FlowOptions> = inputs.iter().map(|i| cli_options(i.k)).collect();
    let order: Vec<usize> = (0..inputs.len()).collect();
    let untraced = |seconds: f64| {
        load::run(
            load::WORKERS,
            &order,
            inputs.len(),
            seconds,
            |_| (),
            |(), _, i| flow_attempt(&inputs[i], &options[i]),
        )
    };
    let mut outcome = Outcome::default();
    if run.trace {
        // Untraced quarters before and after the traced half, so that
        // drift over the run does not pass for tracing overhead.
        let before = untraced(run.seconds / 4.0);
        let (phase, mut layers) = traced(&order, &inputs, &options, run.seconds / 2.0);
        let after = untraced(run.seconds / 4.0);
        layers.overhead_frac = layers::overhead(&phase.records, &[&before.records, &after.records]);
        let records = load::merge(vec![before.records, phase.records, after.records]);
        check::finish(run.workload.name(), &inputs, &records, &mut outcome);
        outcome.metrics = layers.metrics();
        return outcome;
    }
    let phase = untraced(run.seconds);
    setup_times.extend(load::set_ups(|| setup(run), drop).1);
    let records = phase.records;
    let (luts, depth) = check::finish(run.workload.name(), &inputs, &records, &mut outcome);
    outcome.metrics = end_to_end(
        &outcome,
        median(&setup_times),
        phase.elapsed,
        &phase.latencies,
        luts,
        depth,
    );
    outcome
}

/// The end-to-end metrics every workload reports.
pub fn end_to_end(
    outcome: &Outcome,
    setup_s: f64,
    elapsed: f64,
    latencies: &Latencies,
    luts: usize,
    depth: usize,
) -> Vec<Metric> {
    let ok = outcome.attempted.saturating_sub(outcome.failed) as f64;
    let tail = latencies.tail();
    println!(
        "tail\tp{:.2}\tsamples={}\twindows={}\tbeyond={}",
        tail.percentile,
        tail.samples,
        tail.windows,
        crate::stats::TAIL_BEYOND
    );
    vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("throughput_per_s", ok / elapsed, "1/s"),
        Metric::new("latency_p50_ms", latencies.p50(), "ms"),
        Metric::new("latency_tail_ms", tail.ms, "ms"),
        Metric::new("luts_total", luts as f64, "count"),
        Metric::new("depth_total", depth as f64, "count"),
        Metric::new("ok_frac", ok / outcome.attempted.max(1) as f64, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The traced phase: the same `run_flow` calls, each with an enabled
/// telemetry handle of its own. The layer times are the flow's own spans,
/// read from that handle's report; counts are taken on an input's first
/// attempt only, and the optimizer's from one call per distinct input.
fn traced(
    order: &[usize],
    inputs: &[Input],
    options: &[FlowOptions],
    seconds: f64,
) -> (load::Phase, Layers) {
    let layers = Mutex::new(Layers::default());
    let seen = Mutex::new(vec![false; inputs.len()]);
    let phase = load::run(
        load::WORKERS,
        order,
        inputs.len(),
        seconds,
        |_| (),
        |(), _, i| {
            let mut options = options[i].clone();
            options.map.telemetry = Telemetry::enabled();
            let attempt = flow_attempt(&inputs[i], &options);
            let report = options.map.telemetry.snapshot();
            let counter = |name: &str| report.counter(name).unwrap_or(0);
            let mut traced = Layers {
                requests: 1,
                wall_s: attempt.ms / 1e3,
                parse_bytes: inputs[i].blif.len() as f64,
                ..Layers::default()
            };
            traced.add_flow_stages(|name| report.stage(name).map_or(0.0, |s| s.seconds));
            let first = !std::mem::replace(&mut seen.lock().expect("no worker panicked")[i], true);
            if first {
                traced.add_map_counts(counter);
                traced.cache_hits += counter("cache.hits");
                traced.cache_lookups += counter("cache.hits") + counter("cache.misses");
                if let Ok(produced) = &attempt.result {
                    traced.output_bytes += produced.output.len() as u64;
                }
            }
            layers.lock().expect("no worker panicked").add(&traced);
            attempt
        },
    );
    let mut layers = layers.into_inner().expect("no worker panicked");
    layers::add_optimizer_counts(inputs, &mut layers);
    (phase, layers)
}
