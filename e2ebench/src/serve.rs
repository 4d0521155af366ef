//! The daemon workload: an in-process `chortle_server::Server` on
//! loopback, driven by a closed-loop `Client` that waits for each reply
//! before sending the next request.

use std::hint::black_box;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use chortle_cli::{run_design_flow, run_flow};
use chortle_netlist::{write_blif, SplitMix64};
use chortle_server::{Client, MapReply, MapRequest, ServeOptions, Server, StatsReply};
use chortle_telemetry::hist::Histogram;
use chortle_telemetry::json::{self, Value};

use crate::check::{self, Produced, Record};
use crate::inputs::{self, Input};
use crate::layers::{self, Layers};
use crate::load::{self, Attempt, WORKERS};
use crate::stats::median;
use crate::{flow, Outcome, RunArgs};

/// Client connections of the closed loop. One: each request already
/// spreads over both cores (`jobs: 0`, and design clouds on the pool),
/// and with two clients on the two cores a request's latency measured
/// whatever else the host ran. Under a second process holding one core
/// busy, the two-client p95 rose by 54% and the one-client p95 by 1%;
/// interleaved runs on seeds 21–27 spread 0.21 (two clients) and 0.105
/// (one) at that tail.
pub const CLIENTS: usize = 1;

/// Distinct circuits whose served bytes are compared with an offline
/// `run_flow`; every design is compared too.
const OFFLINE_SAMPLE: usize = 4;

/// A daemon running on its own thread.
struct Daemon {
    addr: String,
    thread: JoinHandle<chortle_server::ServerSummary>,
}

impl Daemon {
    fn start() -> Daemon {
        let server = Server::bind(&ServeOptions::builder().workers(WORKERS).build())
            .expect("bind a loopback port");
        let addr = server.local_addr().expect("bound address").to_string();
        Daemon {
            addr,
            thread: std::thread::spawn(move || server.run()),
        }
    }

    /// Asks the daemon to drain and waits for its thread to end.
    fn stop(self) {
        let mut client = Client::connect(&self.addr).expect("connect for shutdown");
        client
            .shutdown("e2ebench-stop")
            .expect("shutdown round trip");
        self.thread.join().expect("daemon thread ends cleanly");
    }
}

/// The request `chortle-serve --connect` sends by default: v2, K = 4,
/// `optimize: true`, `cache: shared`, `jobs: 0`.
fn request(input: &Input) -> MapRequest {
    MapRequest {
        blif: input.blif.clone(),
        k: input.k,
        design: input.is_design(),
        ..MapRequest::default()
    }
}

/// One set-up: generates the pool on one thread while another binds a
/// daemon and sends it one warm-up request.
fn setup(run: &RunArgs) -> (Vec<Input>, Daemon) {
    std::thread::scope(|s| {
        let pool = s.spawn(|| inputs::serve_pool(run.seed));
        let daemon = Daemon::start();
        let warmup = MapRequest {
            blif: write_blif(&chortle_circuits::count(8), "warmup"),
            ..MapRequest::default()
        };
        let mut client = Client::connect(&daemon.addr).expect("connect for warm-up");
        // A failure here shows again, and is counted, in the measured loop.
        let _ = black_box(client.map("warmup", &warmup));
        (pool.join().expect("pool generation ends cleanly"), daemon)
    })
}

/// One traced reply, kept as received; its report is parsed after the
/// measured phase so that parsing does not load the client loop.
struct TracedReply {
    idx: usize,
    ms: f64,
    run_ns: u64,
    report_json: String,
    netlist_bytes: usize,
}

/// What the traced phases keep: every reply, and the warm cache's
/// structural hits and misses, read before each flush resets them.
#[derive(Default)]
struct Traced {
    replies: Vec<TracedReply>,
    warm_hits: u64,
    warm_misses: u64,
}

impl Traced {
    /// Adds the warm cache's tallies since its last flush.
    fn add_warm(&mut self, client: &mut Client) {
        if let Ok(StatsReply::Stats { warm, .. }) = client.stats("e2ebench-warm") {
            self.warm_hits += warm.hits;
            self.warm_misses += warm.misses;
        }
    }
}

/// One closed-loop phase of [`CLIENTS`] clients, one connection each,
/// walking `cycle`. The client that takes the first frame of a cycle
/// flushes the warm cache before sending it (not timed), so every cycle
/// starts cold. Replies and warm-cache tallies are kept in `traced` when
/// given.
fn measure(
    addr: &str,
    requests: &[MapRequest],
    cycle: &[usize],
    seconds: f64,
    traced: Option<&Mutex<Traced>>,
) -> load::Phase {
    let connect = |w: usize| {
        let client = Client::connect(addr).expect("connect a load client");
        (client, w, 0usize)
    };
    let phase = load::run(
        CLIENTS,
        cycle,
        requests.len(),
        seconds,
        connect,
        |(client, w, sent), pos, idx| {
            let id = format!("c{w}-{sent}");
            *sent += 1;
            if pos % cycle.len() == 0 {
                if let (Some(traced), true) = (traced, pos > 0) {
                    traced.lock().expect("no client panicked").add_warm(client);
                }
                // A failed flush leaves the connection broken; the request
                // below then fails and is counted.
                let _ = client.flush(&format!("{id}-flush"));
            }
            let req = &requests[idx];
            let start = Instant::now();
            let reply = if req.design {
                client.map_design(&id, req)
            } else {
                client.map(&id, req)
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let fatal = reply.is_err();
            let result = match reply {
                Ok(MapReply::Mapped(m)) => {
                    if let Some(traced) = traced {
                        traced
                            .lock()
                            .expect("no client panicked")
                            .replies
                            .push(TracedReply {
                                idx,
                                ms,
                                run_ns: m.run_ns,
                                report_json: m.report_json,
                                netlist_bytes: m.netlist.len(),
                            });
                    }
                    Ok(Produced {
                        luts: m.luts,
                        depth: m.depth,
                        output: m.netlist,
                    })
                }
                Ok(MapReply::Rejected(r)) => Err(format!("rejected: {} ({})", r.reason, r.detail)),
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(format!("connection failed: {e}")),
            };
            Attempt { result, ms, fatal }
        },
    );
    if let Some(traced) = traced {
        let mut client = Client::connect(addr).expect("connect for stats");
        traced
            .lock()
            .expect("clients are done")
            .add_warm(&mut client);
    }
    phase
}

/// Reads one stage's seconds or one counter out of an embedded report.
struct ReportView(Value);

impl ReportView {
    fn parse(report_json: &str) -> ReportView {
        ReportView(json::parse(report_json).unwrap_or(Value::Null))
    }

    fn find(&self, section: &str, name: &str) -> Option<&Value> {
        self.0
            .get(section)?
            .as_array()?
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(name))
    }

    fn stage(&self, name: &str) -> f64 {
        self.find("stages", name)
            .and_then(|e| e.get("seconds")?.as_f64())
            .unwrap_or(0.0)
    }

    fn counter(&self, name: &str) -> u64 {
        self.find("counters", name)
            .and_then(|e| e.get("value")?.as_u64())
            .unwrap_or(0)
    }
}

/// Adds one reply to the per-layer totals: the client's latency, the
/// echoed `run_ns`, and the stage times and counters of the request's
/// embedded telemetry report.
///
/// A design frame maps its clouds on the work-stealing pool, so its
/// report's stage times add up over threads and do not split its wall
/// time; it counts only towards the `chortle.design_*` metrics and stays
/// out of the layer times and shares.
fn trace_reply(layers: &mut Layers, input: &Input, reply: &TracedReply, first: bool) {
    let report = ReportView::parse(&reply.report_json);
    let (ms, run_s) = (reply.ms, reply.run_ns as f64 / 1e9);
    if input.is_design() {
        layers.design_requests += 1;
        layers.design_run_s += run_s;
        if first {
            layers.design_clouds += report.counter("design.clouds");
        }
        return;
    }
    layers.requests += 1;
    layers.wall_s += ms / 1e3;
    layers.run_s += run_s;
    layers.server_s += ms / 1e3 - run_s;
    layers.parse_bytes += input.blif.len() as f64;
    layers.add_flow_stages(|s| report.stage(s));
    if first {
        layers.add_map_counts(|c| report.counter(c));
        layers.output_bytes += reply.netlist_bytes as u64;
    }
}

/// The daemon's admission-queue wait histogram, from `op:"stats"`.
fn queue_waits(addr: &str) -> Histogram {
    let mut client = Client::connect(addr).expect("connect for stats");
    match client.stats("e2ebench-stats") {
        Ok(StatsReply::Stats { report_json, .. }) => ReportView::parse(&report_json)
            .find("histograms", "serve.queue_ns")
            .and_then(|h| Histogram::from_value(h).ok())
            .unwrap_or_default(),
        _ => Histogram::new(),
    }
}

/// Runs the daemon workload and reports its end-to-end metrics, or with
/// `--trace 1` its per-layer metrics.
pub fn run(run: &RunArgs) -> Outcome {
    let stop = |(_, daemon): (Vec<Input>, Daemon)| daemon.stop();
    let ((inputs, daemon), mut setup_times) = load::set_ups(|| setup(run), stop);
    let requests: Vec<MapRequest> = inputs.iter().map(request).collect();
    let cycle = inputs::serve_cycle(run.seed);
    let mut outcome = Outcome::default();
    if run.trace {
        let (records, layers) = traced(&daemon.addr, &requests, &cycle, &inputs, run.seconds);
        daemon.stop();
        check::finish(run.workload.name(), &inputs, &records, &mut outcome);
        compare_offline(run.seed, &inputs, &records, &mut outcome);
        outcome.metrics = layers.metrics();
        return outcome;
    }
    let phase = measure(&daemon.addr, &requests, &cycle, run.seconds, None);
    daemon.stop();
    let (last, after) = load::set_ups(|| setup(run), stop);
    stop(last);
    setup_times.extend(after);
    let records = phase.records;
    let (luts, depth) = check::finish(run.workload.name(), &inputs, &records, &mut outcome);
    compare_offline(run.seed, &inputs, &records, &mut outcome);
    outcome.metrics = flow::end_to_end(
        &outcome,
        median(&setup_times),
        phase.elapsed,
        &phase.latencies,
        luts,
        depth,
    );
    outcome
}

/// The traced run, in four equal quarters: untraced, traced, traced,
/// untraced, so that drift over the run does not pass for tracing
/// overhead.
fn traced(
    addr: &str,
    requests: &[MapRequest],
    cycle: &[usize],
    inputs: &[Input],
    seconds: f64,
) -> (Vec<Record>, Layers) {
    let quarter = seconds / 4.0;
    let kept = Mutex::new(Traced::default());
    let before = measure(addr, requests, cycle, quarter, None);
    let queue_before = queue_waits(addr);
    let first = measure(addr, requests, cycle, quarter, Some(&kept));
    let second = measure(addr, requests, cycle, quarter, Some(&kept));
    let queue_after = queue_waits(addr);
    let after = measure(addr, requests, cycle, quarter, None);

    let kept = kept.into_inner().expect("clients are done");
    let mut layers = Layers {
        cache_hits: kept.warm_hits,
        cache_lookups: kept.warm_hits + kept.warm_misses,
        ..Layers::default()
    };
    let mut seen = vec![false; inputs.len()];
    for reply in kept.replies {
        trace_reply(&mut layers, &inputs[reply.idx], &reply, !seen[reply.idx]);
        seen[reply.idx] = true;
    }
    let traced = load::merge(vec![first.records, second.records]);
    layers.shed = traced.iter().map(|r| r.failures).sum();
    layers.queue_wait_ms = queue_after.diff(&queue_before).mean() / 1e6;
    layers.overhead_frac = layers::overhead(&traced, &[&before.records, &after.records]);
    layers::add_optimizer_counts(inputs, &mut layers);
    (
        load::merge(vec![before.records, traced, after.records]),
        layers,
    )
}

/// Requires the served bytes of a seeded sample of circuits, and of every
/// design, to equal an offline run of the same flow with the same options.
fn compare_offline(seed: u64, inputs: &[Input], records: &[Record], outcome: &mut Outcome) {
    let mut circuits: Vec<usize> = (0..inputs::SERVE_CIRCUITS).collect();
    SplitMix64::new(seed ^ 0x0FF1_14E5).shuffle(&mut circuits);
    let designs = inputs::SERVE_CIRCUITS..inputs.len();
    for idx in circuits.into_iter().take(OFFLINE_SAMPLE).chain(designs) {
        let (input, record) = (&inputs[idx], &records[idx]);
        let Some(served) = &record.first else {
            continue;
        };
        let options = flow::cli_options(input.k);
        let offline = if input.is_design() {
            run_design_flow(&input.blif, &options).map(|d| d.netlist)
        } else {
            run_flow(&input.blif, &options).map(|r| r.output_blif)
        };
        match offline {
            Ok(bytes) if bytes == served.output => {}
            Ok(_) => outcome.fail(
                record.attempts - record.failures,
                format!("{}: served bytes differ from offline run_flow", input.name),
            ),
            Err(e) => outcome.fail(
                record.attempts - record.failures,
                format!("{}: offline run_flow failed: {e}", input.name),
            ),
        }
    }
}
