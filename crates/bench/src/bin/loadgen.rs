//! `loadgen` — std-only load generator for the `chortle-serve` daemon.
//!
//! ```text
//! cargo run --release -p chortle-bench --bin loadgen [-- OUTPUT.json]
//! ```
//!
//! Starts an in-process server on an ephemeral loopback port and drives
//! it with concurrent clients over real TCP (protocol v2), measuring
//! what the offline `perf` harness cannot: request throughput, latency
//! percentiles, batching, hundreds-of-connections fan-out, and graceful
//! overload behavior.
//!
//! Seven phases, all asserting byte-identical netlists throughout:
//!
//! 1. **cold** — the warm cache is flushed before every pass, so each
//!    pass pays the full subset-DP cost for every distinct tree shape.
//! 2. **warm** — the same passes without flushing: requests replay DP
//!    solutions cached by earlier requests (including the cold phase),
//!    which is the speedup a resident daemon exists to provide. On a
//!    multi-core host warm throughput must exceed cold (asserted).
//! 3. **concurrent** — the warm workload with more clients than cores:
//!    several requests in flight at once, their wavefront chunks
//!    interleaving on the mapper's process-wide work-stealing pool
//!    (requests are sent with `jobs: 0` = host parallelism).
//! 4. **batch** — the warm workload again, but shipped as v2
//!    `map_batch` frames: many requests per round trip, one response
//!    line per frame, entries resolved independently.
//! 5. **design** — sequential designs (`.latch`, `.subckt`, multiple
//!    `.model` blocks) shipped as v2 `op: "map_design"` frames: the
//!    server cuts each at its register boundaries and maps the clouds
//!    on the shared pool (DESIGN.md §17). Every response is asserted
//!    byte-identical to a seed pass, and the echoed `run_ns` values
//!    join the bucket-for-bucket `op: "stats"` histogram check.
//! 6. **fanout** — hundreds of connections arriving open-loop: every
//!    client writes its request before anyone reads a response, so the
//!    arrival rate is set by the generator, not by completions. Sheds
//!    (if any) are retried per their `retry_after_ms` hints; zero loss
//!    is asserted.
//! 7. **overload** — a one-worker, capacity-1-queue server fed a
//!    pipelined burst of 24 requests. The old daemon's global
//!    `queue_full` cliff answered ~1 and refused the rest for good;
//!    with v2 shed hints the generator backs off and retries, and the
//!    phase reports `completion_rate` — the fraction of the burst that
//!    eventually completed (gated HigherIsBetter by `bench-diff`).
//!
//! Requests are sent with `optimize: false` against pre-optimized
//! networks — the MIS-style script is not cached (it runs before the
//! forest is even built), so leaving it in would bury the cache effect
//! under identical optimization time in both phases. The suite is padded
//! with wide ripple ALUs whose per-bit cones share a handful of shapes:
//! the datapath-regular workload the warm cache targets.
//!
//! Latencies go into the same log-bucketed
//! [`chortle_telemetry::Histogram`] the server uses for its
//! `serve.run_ns`/`serve.queue_ns` sections, so the percentiles in
//! `BENCH_serve.json` and the ones derivable from `op: "stats"` share
//! one bucketing scheme. The harness also rebuilds the server's
//! run-time histogram from the `run_ns` echoed in every response and
//! asserts it matches the live `op: "stats"` report bucket-for-bucket.
//!
//! Every request in every phase carries a distinct `trace_id`, and the
//! harness asserts the server echoes it back verbatim — the
//! correlation contract of DESIGN.md §18, exercised across thousands
//! of frames. The overload phase additionally snapshots the daemon's
//! sliding-window `op: "metrics"` view mid-burst and after the drain;
//! both snapshots land in `BENCH_serve.json` and the roll-up invariant
//! (window totals never exceed cumulative) is asserted live.
//!
//! The JSON report (default `results/BENCH_serve.json`) embeds the
//! server's final aggregate `chortle-telemetry/v1.7` report.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use chortle_bench::{optimized_suite, pipelined_design};
use chortle_circuits::alu;
use chortle_logic_opt::optimize;
use chortle_netlist::write_blif;
use chortle_server::{
    proto, stats, BatchReply, Client, FlushReply, MapReply, MapRequest, Mapped, MetricsReply,
    MetricsSnapshot, ProtocolVersion, Response, ServeOptions, Server, ShutdownReply, StatsReply,
};
use chortle_telemetry::{json, Histogram};

/// Passes over the workload per phase (cold flushes before each pass).
const PASSES: usize = 3;
/// Requests per `map_batch` frame in the batch phase.
const BATCH_CHUNK: usize = 8;
/// Concurrent connections in the open-loop fan-out phase.
const FANOUT_CONNECTIONS: usize = 200;
/// Requests pipelined into the overload server's 1-slot queue.
const OVERLOAD_BURST: usize = 24;
/// Retry rounds before the overload phase gives up on its stragglers.
const OVERLOAD_MAX_ROUNDS: usize = 100;

/// One timed phase: client-side latencies (log-bucketed nanoseconds,
/// same [`Histogram`] the server reports), wall time and the map
/// requests completed.
struct Phase {
    latency: Histogram,
    wall_s: f64,
    /// Map requests completed: one per latency sample, except in the
    /// batch phase, whose samples time whole frames.
    requests: usize,
}

impl Phase {
    /// A phase that took one latency sample per request and started at
    /// `start`.
    fn per_request(latency: Histogram, start: Instant) -> Self {
        Phase {
            requests: latency.count() as usize,
            latency,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    #[allow(clippy::cast_precision_loss)]
    fn throughput(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }

    /// Nearest-rank percentile in milliseconds — the lower bound of the
    /// sample's bucket, so the number is a pure function of the bucket
    /// counts and reproducible from the embedded histogram.
    #[allow(clippy::cast_precision_loss)]
    fn percentile_ms(&self, p: f64) -> f64 {
        self.latency.quantile(p / 100.0) as f64 / 1e6
    }
}

fn request(blif: &str, k: usize) -> MapRequest {
    MapRequest {
        blif: blif.to_owned(),
        k,
        // 0 = host parallelism: each request's wavefront chunks go into
        // the mapper's process-wide pool, where concurrent requests
        // interleave (the wire default since chortle-serve gained the
        // shared scheduler).
        jobs: 0,
        optimize: false,
        // Two-tier warm cache (functional in front of structural) —
        // the widest reuse the daemon offers, and byte-identical to
        // every other cache mode by construction.
        cache: chortle::CacheMode::Fn,
        ..MapRequest::default()
    }
}

fn expect_mapped(reply: MapReply, what: &str) -> Mapped {
    match reply {
        MapReply::Mapped(mapped) => mapped,
        other => panic!("{what}: expected Mapped, got {other:?}"),
    }
}

/// Runs `PASSES` passes of the workload across `clients` concurrent
/// connections; `flush_between` turns the warm phase into the cold one.
/// Returns the phase plus a histogram of the server-echoed `run_ns`
/// values (merged from the per-thread partials — merge order cannot
/// change the buckets).
fn run_phase(
    addr: &str,
    workload: &[(String, usize, String)],
    expected: &[String],
    clients: usize,
    flush_between: bool,
) -> (Phase, Histogram) {
    let start = Instant::now();
    let mut latency = Histogram::new();
    let mut run_hist = Histogram::new();
    for pass in 0..PASSES {
        if flush_between {
            let mut admin = Client::connect(addr).expect("connect for flush");
            match admin.flush("loadgen-flush").expect("flush roundtrip") {
                FlushReply::Flushed { .. } => {}
                other => panic!("expected Flushed, got {other:?}"),
            }
        }
        // Deal the workload round-robin to the client threads.
        let results: Vec<(Histogram, Histogram)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect client");
                        let mut lat = Histogram::new();
                        let mut run = Histogram::new();
                        for (i, (name, k, blif)) in workload.iter().enumerate() {
                            if i % clients != c {
                                continue;
                            }
                            let mut req = request(blif, *k);
                            req.trace_id = format!("t-{name}-p{pass}");
                            let t = Instant::now();
                            let reply = client
                                .map(&format!("{name}-p{pass}"), &req)
                                .expect("map roundtrip");
                            lat.record_duration(t.elapsed());
                            let mapped = expect_mapped(reply, name);
                            assert_eq!(
                                mapped.trace_id, req.trace_id,
                                "{name}: trace_id not echoed"
                            );
                            run.record(mapped.run_ns);
                            assert_eq!(mapped.netlist, expected[i], "{name}: netlist diverged");
                        }
                        (lat, run)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        for (lat, run) in &results {
            latency.merge(lat);
            run_hist.merge(run);
        }
    }
    (Phase::per_request(latency, start), run_hist)
}

/// The batch phase: the whole workload shipped as `map_batch` frames of
/// [`BATCH_CHUNK`] requests, one pass per `PASSES`, two client threads.
/// The latency histogram times whole frames; throughput still counts
/// individual requests. Returns (phase, frames sent, echoed run_ns).
fn run_batch_phase(
    addr: &str,
    workload: &[(String, usize, String)],
    expected: &[String],
) -> (Phase, usize, Histogram) {
    let start = Instant::now();
    let mut latency = Histogram::new();
    let mut run_hist = Histogram::new();
    let mut requests_sent = 0usize;
    let mut frames = 0usize;
    let indices: Vec<usize> = (0..workload.len()).collect();
    for pass in 0..PASSES {
        let results: Vec<(Histogram, Histogram, usize, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let indices = &indices;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect batch client");
                        let mut lat = Histogram::new();
                        let mut run = Histogram::new();
                        let mut sent = 0usize;
                        let mut frames = 0usize;
                        let mine: Vec<usize> =
                            indices.iter().copied().filter(|i| i % 2 == c).collect();
                        for chunk in mine.chunks(BATCH_CHUNK) {
                            let reqs: Vec<MapRequest> = chunk
                                .iter()
                                .map(|&i| {
                                    let (_, k, blif) = &workload[i];
                                    let mut req = request(blif, *k);
                                    req.trace_id = format!("t-batch{i}-p{pass}");
                                    req
                                })
                                .collect();
                            let t = Instant::now();
                            let reply = client
                                .map_batch(&format!("batch-c{c}-p{pass}-{frames}"), &reqs)
                                .expect("batch roundtrip");
                            lat.record_duration(t.elapsed());
                            frames += 1;
                            let results = match reply {
                                BatchReply::Results(results) => results,
                                other => panic!("expected Results, got {other:?}"),
                            };
                            assert_eq!(results.len(), chunk.len(), "one result per entry");
                            for (&i, entry) in chunk.iter().zip(results) {
                                let name = &workload[i].0;
                                let mapped = expect_mapped(entry, name);
                                assert_eq!(
                                    mapped.trace_id,
                                    format!("t-batch{i}-p{pass}"),
                                    "{name}: per-entry trace_id not echoed"
                                );
                                run.record(mapped.run_ns);
                                assert_eq!(
                                    mapped.netlist, expected[i],
                                    "{name}: batched netlist diverged"
                                );
                                sent += 1;
                            }
                        }
                        (lat, run, sent, frames)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch client"))
                .collect()
        });
        for (lat, run, sent, sent_frames) in &results {
            latency.merge(lat);
            run_hist.merge(run);
            requests_sent += sent;
            frames += sent_frames;
        }
    }
    assert_eq!(requests_sent, workload.len() * PASSES);
    let phase = Phase {
        requests: requests_sent,
        ..Phase::per_request(latency, start)
    };
    (phase, frames, run_hist)
}

/// The open-loop fan-out phase: `FANOUT_CONNECTIONS` clients connect,
/// every request is written before any response is read (arrivals are
/// generator-paced, not completion-paced), then responses are collected
/// and sheds retried per their hints. Returns
/// (phase, sheds retried, echoed run_ns).
fn run_fanout_phase(addr: &str, blif: &str, k: usize, expected: &str) -> (Phase, usize, Histogram) {
    let start = Instant::now();
    let mut run_hist = Histogram::new();
    let mut clients: Vec<(usize, Client)> = (0..FANOUT_CONNECTIONS)
        .map(|i| (i, Client::connect(addr).expect("connect fanout client")))
        .collect();
    let mut retried = 0usize;
    let mut latency = Histogram::new();
    let mut round = 0usize;
    while !clients.is_empty() {
        assert!(round < 50, "fanout retries did not converge");
        // Open loop: every arrival hits the server before any read.
        for (i, client) in &mut clients {
            let mut req = request(blif, k);
            req.trace_id = format!("t-fan{i}");
            let frame = proto::render_map_request(ProtocolVersion::V2, &format!("fan{i}"), &req);
            client.send_line(&frame).expect("write fanout request");
        }
        let mut next = Vec::new();
        let mut max_wait_ms = 0u64;
        for (i, mut client) in clients {
            let response = client.recv_response().expect("fanout response");
            match response {
                Response::MapOk {
                    netlist,
                    run_ns,
                    trace_id,
                    ..
                } => {
                    assert_eq!(netlist, expected, "fan{i}: netlist diverged");
                    assert_eq!(trace_id, format!("t-fan{i}"), "fan{i}: trace_id not echoed");
                    run_hist.record(run_ns);
                    latency.record_duration(start.elapsed());
                }
                Response::Rejected { rejection, .. } => {
                    let wait = rejection
                        .retry_after_ms
                        .expect("v2 sheds carry retry hints");
                    max_wait_ms = max_wait_ms.max(wait);
                    retried += 1;
                    next.push((i, client));
                }
                other => panic!("fan{i}: unexpected response {other:?}"),
            }
        }
        clients = next;
        round += 1;
        if !clients.is_empty() {
            std::thread::sleep(Duration::from_millis(max_wait_ms.clamp(1, 1_000)));
        }
    }
    let phase = Phase::per_request(latency, start);
    assert_eq!(
        phase.requests, FANOUT_CONNECTIONS,
        "zero loss: every connection's request completes"
    );
    (phase, retried, run_hist)
}

/// Outcome of the overload phase.
struct Overload {
    completed: usize,
    shed_initial: usize,
    retry_rounds: usize,
    wall_s: f64,
    /// `op: "metrics"` right after the first shed-heavy round.
    metrics_midburst: MetricsSnapshot,
    /// `op: "metrics"` after the burst drained.
    metrics_drained: MetricsSnapshot,
}

impl Overload {
    #[allow(clippy::cast_precision_loss)]
    fn completion_rate(&self) -> f64 {
        self.completed as f64 / OVERLOAD_BURST as f64
    }
}

/// The overload phase: a dedicated one-worker, one-slot-queue server
/// fed a pipelined burst of [`OVERLOAD_BURST`] requests on a single v2
/// connection. Sheds are retried per their `retry_after_ms` hints
/// (capped at 1s per round), so what used to be a refusal cliff becomes
/// eventual completion. Every pipelined frame must be answered every
/// round — zero loss.
fn run_overload_phase(blif: &str, k: usize, expected: &str) -> Overload {
    let server = Server::bind(&ServeOptions::builder().workers(1).queue_depth(1).build())
        .expect("bind overload server");
    let addr = server.local_addr().expect("bound address").to_string();
    let run = std::thread::spawn(move || server.run());

    let start = Instant::now();
    let mut client = Client::connect(&addr).expect("connect overload client");
    let mut admin = Client::connect(&addr).expect("connect overload admin");
    let metrics = |admin: &mut Client, what: &str| match admin.metrics(what).expect("metrics") {
        MetricsReply::Metrics(m) => m,
        other => panic!("{what}: expected Metrics, got {other:?}"),
    };
    let req = request(blif, k);
    let mut pending: Vec<usize> = (0..OVERLOAD_BURST).collect();
    let mut completed = 0usize;
    let mut shed_initial = 0usize;
    let mut rounds = 0usize;
    let mut metrics_midburst = MetricsSnapshot::default();
    while !pending.is_empty() && rounds < OVERLOAD_MAX_ROUNDS {
        for i in &pending {
            let mut req = req.clone();
            // Cache off: every admitted request costs the full pipeline,
            // so the one worker stays busy while the burst piles up.
            req.cache = chortle::CacheMode::Off;
            req.trace_id = format!("t-burst{i}");
            let frame = proto::render_map_request(ProtocolVersion::V2, &format!("burst{i}"), &req);
            client.send_line(&frame).expect("write burst request");
        }
        let mut next = Vec::new();
        let mut max_wait_ms = 0u64;
        for &i in &pending {
            let response = client.recv_response().expect("burst response");
            match response {
                Response::MapOk {
                    id,
                    netlist,
                    trace_id,
                    ..
                } => {
                    assert_eq!(netlist, expected, "{id}: netlist diverged");
                    // Pipelined responses complete out of send order, so
                    // the correlation check keys on the response's id.
                    assert_eq!(trace_id, format!("t-{id}"), "{id}: trace_id not echoed");
                    completed += 1;
                }
                Response::Rejected { rejection, .. } => {
                    assert!(
                        rejection.reason == "queue_full" || rejection.reason == "over_quota",
                        "only load sheds expected, got {rejection:?}"
                    );
                    let wait = rejection
                        .retry_after_ms
                        .expect("v2 sheds carry retry hints");
                    max_wait_ms = max_wait_ms.max(wait);
                    if rounds == 0 {
                        shed_initial += 1;
                    }
                    next.push(i);
                }
                other => panic!("burst{i}: unexpected response {other:?}"),
            }
        }
        // One answer per pipelined frame, every round — never silence.
        pending = next;
        rounds += 1;
        if rounds == 1 {
            // The shed-heavy moment: the window must already account
            // for the first round's rejections.
            metrics_midburst = metrics(&mut admin, "overload-metrics-mid");
            assert!(
                metrics_midburst.window_shed > 0,
                "mid-burst window sees the first round's sheds: {metrics_midburst:?}"
            );
        }
        if !pending.is_empty() {
            std::thread::sleep(Duration::from_millis(max_wait_ms.clamp(1, 1_000)));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // After the drain: windowed totals roll up to (never exceed) the
    // cumulative ones, and the cumulative side accounts for the whole
    // burst.
    let metrics_drained = metrics(&mut admin, "overload-metrics-drained");
    assert!(
        metrics_drained.window_completed <= metrics_drained.cumulative_completed
            && metrics_drained.window_shed <= metrics_drained.cumulative_shed,
        "window is a suffix of cumulative history: {metrics_drained:?}"
    );
    assert_eq!(
        metrics_drained.cumulative_completed, completed as u64,
        "cumulative completions match the client-side tally"
    );

    let mut closer = Client::connect(&addr).expect("connect overload shutdown");
    match closer
        .shutdown("overload-done")
        .expect("shutdown roundtrip")
    {
        ShutdownReply::Draining => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    let _ = run.join().expect("overload server exits");
    Overload {
        completed,
        shed_initial,
        retry_rounds: rounds,
        wall_s,
        metrics_midburst,
        metrics_drained,
    }
}

/// Renders an `op: "metrics"` snapshot as a `BENCH_serve.json` object.
fn metrics_object(m: &MetricsSnapshot) -> String {
    format!(
        "{{ \"window_s\": {}, \"seconds\": {}, \"qps\": {:.3}, \"shed_rate\": {:.4}, \
         \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \
         \"window\": {{ \"accepted\": {}, \"completed\": {}, \"shed\": {} }}, \
         \"cumulative\": {{ \"accepted\": {}, \"completed\": {}, \"shed\": {} }} }}",
        m.window_s,
        m.seconds,
        m.qps,
        m.shed_rate,
        m.p50_ns as f64 / 1e6,
        m.p95_ns as f64 / 1e6,
        m.p99_ns as f64 / 1e6,
        m.window_accepted,
        m.window_completed,
        m.window_shed,
        m.cumulative_accepted,
        m.cumulative_completed,
        m.cumulative_shed,
    )
}

/// A hierarchical sequential fixture for the design phase: two models,
/// one `.subckt` instantiation, one register boundary.
const HIER_DESIGN: &str = "\
.model hier
.inputs a b c
.outputs z w
.latch d q re clk 0
.subckt and2 p=a q=b r=d
.names q c z
11 1
.names a w
1 1
.end
.model and2
.inputs p q
.outputs r
.names p q r
11 1
.end
";

/// The design phase: `PASSES` passes of the sequential workload as
/// `map_design` frames on one connection, each response asserted
/// byte-identical to the seed pass. Returns the phase plus the echoed
/// `run_ns` histogram.
fn run_design_phase(
    addr: &str,
    designs: &[(String, String)],
    expected: &[String],
) -> (Phase, Histogram) {
    let start = Instant::now();
    let mut latency = Histogram::new();
    let mut run_hist = Histogram::new();
    for pass in 0..PASSES {
        let mut client = Client::connect(addr).expect("connect design client");
        for (i, (name, blif)) in designs.iter().enumerate() {
            let mut req = request(blif, 4);
            req.trace_id = format!("t-{name}-d{pass}");
            let t = Instant::now();
            let reply = client
                .map_design(&format!("{name}-d{pass}"), &req)
                .expect("map_design roundtrip");
            latency.record_duration(t.elapsed());
            let mapped = expect_mapped(reply, name);
            assert_eq!(mapped.trace_id, req.trace_id, "{name}: trace_id not echoed");
            run_hist.record(mapped.run_ns);
            assert_eq!(
                mapped.netlist, expected[i],
                "{name}: design netlist diverged"
            );
        }
    }
    (Phase::per_request(latency, start), run_hist)
}

/// Pulls the named counter out of a serialized telemetry report.
fn report_counter(report_json: &str, name: &str) -> u64 {
    let report = json::parse(report_json).expect("design report parses");
    let counters = report
        .get("counters")
        .and_then(json::Value::as_array)
        .expect("report has a counters section");
    counters
        .iter()
        .find(|c| c.get("name").and_then(json::Value::as_str) == Some(name))
        .and_then(|c| c.get("value").and_then(json::Value::as_u64))
        .unwrap_or_else(|| panic!("report is missing counter {name:?}"))
}

/// Pulls the named histogram out of a serialized telemetry report.
fn report_histogram(report_json: &str, name: &str) -> Histogram {
    let report = json::parse(report_json).expect("stats report parses");
    let hists = report
        .get("histograms")
        .and_then(json::Value::as_array)
        .expect("report has a histograms section");
    let entry = hists
        .iter()
        .find(|h| h.get("name").and_then(json::Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("report is missing histogram {name:?}"));
    Histogram::from_value(entry).expect("histogram entry parses")
}

#[allow(clippy::too_many_lines)]
fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "results/BENCH_serve.json".to_owned());
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let clients = cores.clamp(2, 4);

    // Workload: the pre-optimized table suite at k=4 plus two wide
    // ripple ALUs (k=4 and k=5 — distinct warm-cache segments).
    let mut workload: Vec<(String, usize, String)> = optimized_suite()
        .into_iter()
        .map(|(name, net, _)| {
            let blif = write_blif(&net, &name);
            (name, 4, blif)
        })
        .collect();
    for (bits, k) in [(192usize, 4usize), (192, 5)] {
        let (net, _) = optimize(&alu(bits)).expect("alu is acyclic");
        workload.push((format!("alu{bits}k{k}"), k, write_blif(&net, "alu")));
    }
    eprintln!(
        "loadgen: {} circuits, {clients} clients on {cores} core(s), {PASSES} passes/phase",
        workload.len()
    );

    // Queue sized for the fan-out phase: 200 open-loop arrivals of one
    // request each must fit the global queue (the per-client quota of 8
    // is never the binding constraint there).
    let server = Server::bind(&ServeOptions::builder().queue_depth(256).build())
        .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let run = std::thread::spawn(move || server.run());

    // Ground truth once per circuit, through the same server (its own
    // responses must be self-consistent across phases and cache states).
    let mut seed = Client::connect(&addr).expect("connect seed client");
    let mut server_run = Histogram::new();
    let expected: Vec<String> = workload
        .iter()
        .map(|(name, k, blif)| {
            let mut req = request(blif, *k);
            req.trace_id = format!("t-seed-{name}");
            let mapped = expect_mapped(
                seed.map(&format!("seed-{name}"), &req)
                    .expect("seed roundtrip"),
                name,
            );
            assert_eq!(mapped.trace_id, req.trace_id, "{name}: trace_id not echoed");
            server_run.record(mapped.run_ns);
            mapped.netlist
        })
        .collect();

    let (cold, cold_run) = run_phase(&addr, &workload, &expected, clients, true);
    eprintln!(
        "loadgen: cold  {:>4} requests in {:.3}s  ({:.1} req/s, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms)",
        cold.requests,
        cold.wall_s,
        cold.throughput(),
        cold.percentile_ms(50.0),
        cold.percentile_ms(95.0),
        cold.percentile_ms(99.0),
    );
    let (warm, warm_run) = run_phase(&addr, &workload, &expected, clients, false);
    eprintln!(
        "loadgen: warm  {:>4} requests in {:.3}s  ({:.1} req/s, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms)",
        warm.requests,
        warm.wall_s,
        warm.throughput(),
        warm.percentile_ms(50.0),
        warm.percentile_ms(95.0),
        warm.percentile_ms(99.0),
    );
    let speedup = warm.throughput() / cold.throughput();
    eprintln!("loadgen: warm-cache throughput speedup {speedup:.2}x");

    // The live per-tier view right after the warm passes: the stats
    // "cache" object, with the rates computed client-side from the raw
    // counters.
    let mut warm_stats = Client::connect(&addr).expect("connect for warm stats");
    let warm_cache = match warm_stats
        .stats("loadgen-warm-stats")
        .expect("stats roundtrip")
    {
        StatsReply::Stats { warm, .. } => warm,
        other => panic!("expected Stats, got {other:?}"),
    };
    eprintln!(
        "loadgen: warm cache {} shapes ({:.1}% structural hit), {} fn classes ({:.1}% fn hit)",
        warm_cache.shapes,
        warm_cache.hit_rate() * 100.0,
        warm_cache.fn_entries,
        warm_cache.fn_hit_rate() * 100.0
    );
    assert!(
        warm_cache.fn_hits > 0,
        "the fn-mode passes must hit the functional tier"
    );
    if cores > 1 {
        assert!(
            speedup >= 1.0,
            "warm serving must beat cold on a multi-core host (got {speedup:.2}x)"
        );
    } else if speedup < 1.0 {
        eprintln!("loadgen: WARNING: warm < cold on a 1-core host ({speedup:.2}x)");
    }

    // Concurrent-clients phase: the warm workload again, but with more
    // clients than cores, so several requests are in flight at once and
    // their wavefront chunks interleave on the mapper's shared pool.
    // Cross-request parallelism shows up as this phase's throughput not
    // collapsing below the warm phase's (and exceeding it when the host
    // has cores to spare).
    let concurrency = (cores * 2).clamp(4, 8);
    let (concurrent, concurrent_run) = run_phase(&addr, &workload, &expected, concurrency, false);
    eprintln!(
        "loadgen: conc  {:>4} requests in {:.3}s  ({:.1} req/s, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms, {concurrency} clients)",
        concurrent.requests,
        concurrent.wall_s,
        concurrent.throughput(),
        concurrent.percentile_ms(50.0),
        concurrent.percentile_ms(95.0),
        concurrent.percentile_ms(99.0),
    );
    let concurrent_scaling = concurrent.throughput() / warm.throughput();
    eprintln!(
        "loadgen: concurrent scaling {concurrent_scaling:.2}x over warm ({concurrency} vs {clients} clients)"
    );

    // Batch phase: one response line per BATCH_CHUNK requests. The
    // small-frame protocol overhead (render, syscall, parse per
    // request) amortizes across the frame.
    let (batch, batch_frames, batch_run) = run_batch_phase(&addr, &workload, &expected);
    eprintln!(
        "loadgen: batch {:>4} requests in {:.3}s  ({:.1} req/s, {batch_frames} frames of <= {BATCH_CHUNK})",
        batch.requests,
        batch.wall_s,
        batch.throughput(),
    );
    let batch_scaling = batch.throughput() / warm.throughput();

    // Design phase: sequential designs through op:"map_design". The
    // pipelines' latch-bounded clouds are the server's coarse work axis;
    // the hierarchical fixture exercises `.subckt` flattening on the
    // wire. Seed responses are the ground truth the passes must match
    // byte for byte.
    let designs: Vec<(String, String)> = vec![
        ("hier".to_owned(), HIER_DESIGN.to_owned()),
        ("pipe4x16".to_owned(), pipelined_design("pipe4x16", 4, 16)),
        ("pipe8x24".to_owned(), pipelined_design("pipe8x24", 8, 24)),
    ];
    let mut design_seed = Client::connect(&addr).expect("connect design seed");
    let mut design_clouds = 0u64;
    let design_expected: Vec<String> = designs
        .iter()
        .map(|(name, blif)| {
            let mapped = expect_mapped(
                design_seed
                    .map_design(&format!("seed-{name}"), &request(blif, 4))
                    .expect("design seed roundtrip"),
                name,
            );
            server_run.record(mapped.run_ns);
            design_clouds += report_counter(&mapped.report_json, chortle::stats::DESIGN_CLOUDS);
            mapped.netlist
        })
        .collect();
    let (design, design_run) = run_design_phase(&addr, &designs, &design_expected);
    eprintln!(
        "loadgen: design {:>3} requests in {:.3}s  ({:.1} req/s, {} designs, {design_clouds} clouds, p50 {:.2}ms p95 {:.2}ms)",
        design.requests,
        design.wall_s,
        design.throughput(),
        designs.len(),
        design.percentile_ms(50.0),
        design.percentile_ms(95.0),
    );
    assert!(
        design_clouds >= designs.len() as u64,
        "every design cuts into at least one cloud"
    );

    // Fan-out phase: hundreds of connections, open-loop arrivals. The
    // smallest circuit keeps this a connection-scaling measurement, not
    // a mapping benchmark.
    let (fan_name, fan_k, fan_blif) = &workload[0];
    let (fanout, fanout_retried, fanout_run) =
        run_fanout_phase(&addr, fan_blif, *fan_k, &expected[0]);
    eprintln!(
        "loadgen: fanout {FANOUT_CONNECTIONS} connections ({fan_name}) in {:.3}s  ({:.1} req/s, {fanout_retried} retried)",
        fanout.wall_s,
        fanout.throughput(),
    );

    // The introspection contract: the run-time histogram the live
    // `op: "stats"` report carries must equal, bucket for bucket, the
    // one rebuilt from the `run_ns` echoed in every map response —
    // both sides bucket with the same exact integer scheme.
    server_run.merge(&cold_run);
    server_run.merge(&warm_run);
    server_run.merge(&concurrent_run);
    server_run.merge(&batch_run);
    server_run.merge(&design_run);
    server_run.merge(&fanout_run);
    let mut stats_client = Client::connect(&addr).expect("connect for stats");
    match stats_client
        .stats("loadgen-stats")
        .expect("stats roundtrip")
    {
        StatsReply::Stats {
            report_json,
            queue_high_water,
            ..
        } => {
            let live = report_histogram(&report_json, stats::HIST_RUN_NS);
            assert_eq!(
                live, server_run,
                "op:\"stats\" run_ns histogram diverged from the echoed run_ns values"
            );
            eprintln!(
                "loadgen: stats histogram verified ({} samples, queue high water {queue_high_water})",
                live.count()
            );
        }
        other => panic!("expected Stats, got {other:?}"),
    }

    let mut shutdown = Client::connect(&addr).expect("connect for shutdown");
    match shutdown
        .shutdown("loadgen-done")
        .expect("shutdown roundtrip")
    {
        ShutdownReply::Draining => {}
        other => panic!("expected Draining, got {other:?}"),
    }
    let summary = run.join().expect("server exits cleanly");
    chortle_telemetry::schema::validate_report(&summary.report.to_json())
        .expect("final server report validates");
    assert!(
        summary.report.counter(stats::BATCH_FRAMES).unwrap_or(0) >= batch_frames as u64,
        "the batch phase's frames are counted"
    );

    // Overload: one worker, one queue slot, a pipelined burst, retried
    // on the server's own hints until it drains.
    let (_, big_k, big_blif) = &workload[workload.len() - 1];
    let big_expected = &expected[expected.len() - 1];
    let overload = run_overload_phase(big_blif, *big_k, big_expected);
    eprintln!(
        "loadgen: overload  {OVERLOAD_BURST} pipelined -> {} completed over {} rounds \
         ({} shed first round, completion rate {:.2}, {:.3}s), 0 dropped",
        overload.completed,
        overload.retry_rounds,
        overload.shed_initial,
        overload.completion_rate(),
        overload.wall_s,
    );
    assert!(
        overload.shed_initial > 0,
        "the burst must overflow the 1-slot queue"
    );
    assert!(
        overload.completed * 24 >= OVERLOAD_BURST * 20,
        "retrying on hints must complete >= 20/24 of the burst (got {}/{OVERLOAD_BURST})",
        overload.completed
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"host\": {{ \"cores\": {cores}, \"clients\": {clients} }},"
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{ \"circuits\": {}, \"passes\": {PASSES}, \"optimize\": false }},",
        workload.len()
    );
    for (name, phase) in [
        ("cold", &cold),
        ("warm", &warm),
        ("concurrent", &concurrent),
        ("batch", &batch),
        ("design", &design),
        ("fanout", &fanout),
    ] {
        let _ = write!(
            json,
            "  \"{name}\": {{ \"requests\": {}, \"wall_s\": {:.6}, \"throughput_rps\": {:.3}, \
             \"p50_ms\": {:.4}, \"p95_ms\": {:.4}, \"p99_ms\": {:.4}, \"latency_ns\": ",
            phase.requests,
            phase.wall_s,
            phase.throughput(),
            phase.percentile_ms(50.0),
            phase.percentile_ms(95.0),
            phase.percentile_ms(99.0),
        );
        // The full latency histogram, in the same log-bucketed layout
        // the server's op:"stats" report uses — the percentiles above
        // are derivable from it.
        phase.latency.write_json(&mut json);
        let _ = writeln!(json, " }},");
    }
    let _ = writeln!(json, "  \"warm_speedup\": {speedup:.3},");
    // Snapshot of the two warm-cache tiers right after the warm phase
    // (the counts keep growing in later phases; this is the warm
    // steady state). Both `hit_rate` leaves are bench-diff-gated as
    // higher-is-better.
    let _ = writeln!(
        json,
        "  \"warm_cache\": {{ \"structural\": {{ \"shapes\": {}, \"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.3} }}, \"fn\": {{ \"classes\": {}, \"hits\": {}, \"misses\": {}, \
         \"hit_rate\": {:.3} }} }},",
        warm_cache.shapes,
        warm_cache.hits,
        warm_cache.misses,
        warm_cache.hit_rate(),
        warm_cache.fn_entries,
        warm_cache.fn_hits,
        warm_cache.fn_misses,
        warm_cache.fn_hit_rate()
    );
    let _ = writeln!(
        json,
        "  \"concurrent_scaling\": {{ \"clients\": {concurrency}, \"vs_warm\": {concurrent_scaling:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"batch_scaling\": {{ \"chunk\": {BATCH_CHUNK}, \"frames\": {batch_frames}, \"vs_warm\": {batch_scaling:.3} }},"
    );
    let _ = writeln!(
        json,
        "  \"design_detail\": {{ \"designs\": {}, \"clouds\": {design_clouds} }},",
        designs.len()
    );
    let _ = writeln!(
        json,
        "  \"fanout_detail\": {{ \"connections\": {FANOUT_CONNECTIONS}, \"retried\": {fanout_retried} }},"
    );
    let _ = writeln!(
        json,
        "  \"overload\": {{ \"burst\": {OVERLOAD_BURST}, \"completed\": {}, \
         \"shed_initial\": {}, \"retry_rounds\": {}, \"completion_rate\": {:.4}, \
         \"wall_s\": {:.6}, \"dropped\": 0 }},",
        overload.completed,
        overload.shed_initial,
        overload.retry_rounds,
        overload.completion_rate(),
        overload.wall_s,
    );
    // The overload daemon's own sliding-window view, mid-burst (shed
    // rate at its peak) and after the drain — the op:"metrics" numbers
    // a dashboard would have shown during the incident.
    let _ = writeln!(
        json,
        "  \"overload_metrics\": {{ \"midburst\": {}, \"drained\": {} }},",
        metrics_object(&overload.metrics_midburst),
        metrics_object(&overload.metrics_drained),
    );
    let _ = writeln!(json, "  \"server_report\": {}", summary.report.to_json());
    let _ = writeln!(json, "}}");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("loadgen: report -> {out_path}");
    print!("{json}");
}
