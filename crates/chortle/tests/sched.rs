//! Properties of the adaptive chunked work-stealing scheduler: every
//! point of the `jobs × chunk × cache` grid produces a circuit, report,
//! counter tally, and trace identity bit-identical to the sequential
//! mapper's; the pooled path is actually exercised (not vacuously
//! skipped) on wide wavefronts; and cancellation mid-chunk never leaves
//! a `begin` without a closing event.

use chortle::{
    map_network, stats, CacheMode, CancelToken, ChunkPolicy, MapError, MapOptions, Telemetry,
};
use chortle::{TraceKind, TraceScope};
use chortle_netlist::{Network, NodeOp, Signal, SplitMix64};
use chortle_telemetry::validate_chrome_trace;

const HUGE_CHUNK: usize = 1 << 30;

fn random_network(seed: u64, inputs: usize, gates: usize, max_arity: usize) -> Network {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut signals: Vec<Signal> = (0..inputs)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    for g in 0..gates {
        let arity = rng.next_range(2, max_arity + 1);
        let mut fanins: Vec<Signal> = Vec::new();
        let mut used = std::collections::HashSet::new();
        let mut guard = 0;
        while fanins.len() < arity && guard < 60 {
            guard += 1;
            let s = signals[rng.choose_index(&signals)];
            if used.insert(s.node()) {
                fanins.push(if rng.next_bool(1, 3) { !s } else { s });
            }
        }
        if fanins.len() < 2 {
            continue;
        }
        let op = if g % 2 == 0 { NodeOp::And } else { NodeOp::Or };
        signals.push(Signal::new(net.add_gate(op, fanins)));
    }
    for o in 0..rng.next_range(1, 4) {
        let s = signals[rng.choose_index(&signals)];
        net.add_output(format!("o{o}"), if rng.next_bool(1, 4) { !s } else { s });
    }
    net
}

/// Many independent cones of fanin-`f` gates. Every cone is its own
/// maximal fanout-free tree with no cross-cone depth dependency, so the
/// whole forest levelizes into a single wide wavefront — the shape the
/// pooled scheduler exists for.
fn wide_network(cones: usize, f: usize) -> Network {
    let mut net = Network::new();
    for c in 0..cones {
        let inputs: Vec<Signal> = (0..f)
            .map(|i| Signal::new(net.add_input(format!("c{c}i{i}"))))
            .collect();
        let mids: Vec<Signal> = (0..f)
            .map(|m| {
                let op = if (c + m) % 2 == 0 {
                    NodeOp::And
                } else {
                    NodeOp::Or
                };
                let fanins = inputs
                    .iter()
                    .map(|&s| {
                        if (m + s.node().index()) % 3 == 0 {
                            !s
                        } else {
                            s
                        }
                    })
                    .collect();
                Signal::new(net.add_gate(op, fanins))
            })
            .collect();
        let root = net.add_gate(NodeOp::Or, mids);
        net.add_output(format!("c{c}z"), root.into());
    }
    net
}

fn chunk_grid() -> [ChunkPolicy; 3] {
    [
        ChunkPolicy::Fixed(1),
        ChunkPolicy::Auto,
        ChunkPolicy::Fixed(HUGE_CHUNK),
    ]
}

/// Maps with tracing enabled and returns everything identity-relevant:
/// the mapping, the work-tally counters (schedule echoes projected
/// away), and the trace identity.
fn map_traced(
    net: &Network,
    k: usize,
    jobs: usize,
    chunk: ChunkPolicy,
    cache: CacheMode,
) -> (
    chortle::Mapping,
    Vec<(String, u64)>,
    Vec<chortle_telemetry::IdentityEvent>,
) {
    let telemetry = Telemetry::traced();
    let options = MapOptions::builder(k)
        .jobs(jobs)
        .chunk(chunk)
        .expect("valid chunk")
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    let mapping = map_network(net, &options).expect("maps");
    // `cache.*`, `sched.*`, and `trace.*` are schedule/configuration
    // echoes (raw trace volume includes the per-chunk `Sched` spans);
    // every other counter is a work tally and must match exactly. The
    // trace comparison below uses `identity()`, which projects the
    // `Sched` scope away.
    let counters = telemetry
        .snapshot()
        .counters
        .iter()
        .filter(|c| {
            !c.name.starts_with("cache.")
                && !c.name.starts_with("sched.")
                && !c.name.starts_with("trace.")
        })
        .map(|c| (c.name.clone(), c.value))
        .collect();
    let identity = telemetry.trace_snapshot().identity();
    (mapping, counters, identity)
}

#[test]
fn every_grid_point_is_bit_identical_to_sequential() {
    // The acceptance grid from the issue: jobs ∈ {1,2,4} × chunk ∈
    // {1, auto, huge} × cache ∈ {off, tree, shared}, compared on the
    // circuit, the report, the counter tallies, and the trace identity.
    let mut rng = SplitMix64::new(0x5ced_0001);
    for round in 0..4 {
        let net = random_network(rng.next_u64(), 8, 26, 6);
        let k = rng.next_range(2, 7);
        let (reference, ref_counters, ref_identity) =
            map_traced(&net, k, 1, ChunkPolicy::Auto, CacheMode::Off);
        for jobs in [1, 2, 4] {
            for chunk in chunk_grid() {
                for cache in [CacheMode::Off, CacheMode::Tree, CacheMode::Shared] {
                    let (mapping, counters, identity) = map_traced(&net, k, jobs, chunk, cache);
                    let ctx =
                        format!("round={round} k={k} jobs={jobs} chunk={chunk:?} cache={cache:?}");
                    assert_eq!(
                        reference.circuit, mapping.circuit,
                        "circuit diverged ({ctx})"
                    );
                    assert_eq!(reference.report, mapping.report, "report diverged ({ctx})");
                    assert_eq!(ref_counters, counters, "counters diverged ({ctx})");
                    assert_eq!(ref_identity, identity, "trace identity diverged ({ctx})");
                }
            }
        }
    }
}

#[test]
fn wide_wavefronts_are_bit_identical_through_the_pooled_path() {
    // Same grid on a single-wave forest wide enough to clear the inline
    // work threshold, so the pooled scheduler (and stealing) actually
    // runs for jobs ≥ 2 instead of falling through.
    let net = wide_network(16, 6);
    let (reference, ref_counters, ref_identity) =
        map_traced(&net, 5, 1, ChunkPolicy::Auto, CacheMode::Off);
    for jobs in [2, 4] {
        for chunk in chunk_grid() {
            for cache in [CacheMode::Off, CacheMode::Tree, CacheMode::Shared] {
                let (mapping, counters, identity) = map_traced(&net, 5, jobs, chunk, cache);
                let ctx = format!("jobs={jobs} chunk={chunk:?} cache={cache:?}");
                assert_eq!(
                    reference.circuit, mapping.circuit,
                    "circuit diverged ({ctx})"
                );
                assert_eq!(reference.report, mapping.report, "report diverged ({ctx})");
                assert_eq!(ref_counters, counters, "counters diverged ({ctx})");
                assert_eq!(ref_identity, identity, "trace identity diverged ({ctx})");
            }
        }
    }
}

#[test]
fn pooled_path_is_actually_exercised_on_wide_wavefronts() {
    // Guard against the threshold silently swallowing all parallelism:
    // a wide single-wave forest at jobs=4 with one-tree chunks must go
    // through the pool, and the `sched.*` echoes must say so.
    let net = wide_network(16, 6);
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(5)
        .jobs(4)
        .chunk(ChunkPolicy::Fixed(1))
        .expect("valid chunk")
        .cache(CacheMode::Off)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    let counter = |name| {
        report
            .counter(name)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    assert!(
        counter(stats::SCHED_POOLED_WAVES) >= 1,
        "wide wave fell through to inline"
    );
    assert!(counter(stats::SCHED_CHUNKS) >= 2, "wave was not chunked");
    // One chunk per tree on a 16-tree wave.
    assert_eq!(counter(stats::SCHED_CHUNKS), 16);
}

#[test]
fn huge_chunks_fall_through_to_inline() {
    // A chunk wider than any wave degenerates to one chunk per wave,
    // which the scheduler must run inline (threads cannot help a single
    // chunk) — and the inline-fallback echo must account for every wave.
    let net = wide_network(16, 6);
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(5)
        .jobs(4)
        .chunk(ChunkPolicy::Fixed(HUGE_CHUNK))
        .expect("valid chunk")
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    assert_eq!(report.counter(stats::SCHED_POOLED_WAVES), Some(0));
    assert!(report.counter(stats::SCHED_INLINE_WAVES).unwrap_or(0) >= 1);
    assert_eq!(report.counter(stats::SCHED_STEALS), Some(0));
}

#[test]
fn jobs_cap_bounds_executors_even_with_stealing() {
    // Placement only seeds jobs-1 deques, but every pool worker can see
    // every deque: without the per-wave executor budget, stealing would
    // let the whole pool pile onto a --jobs 2 run. The wavefront
    // occupancy records one entry per distinct executor, so it must
    // never exceed the requested jobs — one-tree chunks maximize the
    // opportunities to over-recruit.
    let net = wide_network(16, 6);
    for jobs in [2, 3] {
        let telemetry = Telemetry::enabled();
        let options = MapOptions::builder(5)
            .jobs(jobs)
            .chunk(ChunkPolicy::Fixed(1))
            .expect("valid chunk")
            .cache(CacheMode::Off)
            .telemetry(telemetry.clone())
            .build()
            .expect("valid options");
        map_network(&net, &options).expect("maps");
        let report = telemetry.snapshot();
        assert!(
            report.counter(stats::SCHED_POOLED_WAVES).unwrap_or(0) >= 1,
            "wide wave fell through to inline (jobs={jobs})"
        );
        for wave in &report.wavefronts {
            assert!(
                wave.workers <= jobs,
                "wavefront {} ran on {} executors with --jobs {jobs}",
                wave.index,
                wave.workers
            );
        }
    }
}

#[test]
fn jobs_one_never_touches_the_pool() {
    let net = wide_network(8, 6);
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .jobs(1)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    // One executor runs every wavefront inline on the calling thread:
    // nothing is chunked, pooled or stolen.
    assert!(!report.wavefronts.is_empty());
    assert_eq!(report.counter(stats::SCHED_POOLED_WAVES), Some(0));
    assert_eq!(report.counter(stats::SCHED_CHUNKS), Some(0));
    assert_eq!(report.counter(stats::SCHED_STEALS), Some(0));
    assert_eq!(
        report.counter(stats::SCHED_INLINE_WAVES),
        Some(report.wavefronts.len() as u64)
    );
}

#[test]
fn zero_chunk_is_rejected() {
    match MapOptions::builder(4).chunk(ChunkPolicy::Fixed(0)) {
        Err(MapError::InvalidChunk) => {}
        other => panic!("expected InvalidChunk, got {other:?}"),
    }
}

/// Groups span events by (scope, index, worker) and asserts every
/// `Begin` is closed by an `End` or an explicit `Cancelled`.
fn assert_spans_closed(trace: &chortle::Trace, context: &str) {
    use std::collections::HashMap;
    let mut open: HashMap<(TraceScope, u64, u32), i64> = HashMap::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::Begin => *open.entry((e.scope, e.index, e.worker)).or_insert(0) += 1,
            TraceKind::End | TraceKind::Cancelled => {
                *open.entry((e.scope, e.index, e.worker)).or_insert(0) -= 1
            }
            TraceKind::Instant => {}
        }
    }
    for (key, balance) in open {
        assert_eq!(balance, 0, "unbalanced span {key:?} ({context})");
    }
}

#[test]
fn cancellation_mid_chunk_leaves_no_partial_spans() {
    // Cancellation is polled at tree boundaries inside each chunk; race
    // the canceller against pooled execution with one-tree chunks (the
    // most chunk boundaries a schedule can have) and demand a balanced
    // trace however the race lands.
    let mut cancelled_runs = 0;
    for round in 0..16 {
        let net = if round % 2 == 0 {
            wide_network(12, 6)
        } else {
            random_network(0x5ced_0002 + round as u64, 10, 40, 6)
        };
        let jobs = [2, 4][round % 2];
        let cache = [CacheMode::Off, CacheMode::Tree, CacheMode::Shared][round % 3];
        let telemetry = Telemetry::traced();
        let token = CancelToken::armed();
        let options = MapOptions::builder(5)
            .jobs(jobs)
            .chunk(ChunkPolicy::Fixed(1))
            .expect("valid chunk")
            .cache(cache)
            .telemetry(telemetry.clone())
            .cancel(token.clone())
            .build()
            .expect("valid options");
        let canceller = if round % 4 == 0 {
            token.cancel();
            None
        } else {
            let delay = std::time::Duration::from_micros(40 * (round as u64 % 9));
            Some(std::thread::spawn(move || {
                std::thread::sleep(delay);
                token.cancel();
            }))
        };
        let result = map_network(&net, &options);
        if let Some(h) = canceller {
            h.join().expect("canceller thread");
        }
        match result {
            Ok(_) => {}
            Err(MapError::Cancelled) => cancelled_runs += 1,
            Err(e) => panic!("unexpected error: {e:?}"),
        }
        let trace = telemetry.trace_snapshot();
        assert_spans_closed(
            &trace,
            &format!("round={round} jobs={jobs} cache={cache:?}"),
        );
        validate_chrome_trace(&trace.to_chrome_json())
            .unwrap_or_else(|e| panic!("chrome trace invalid (round={round}): {e}"));
    }
    assert!(cancelled_runs > 0, "no run was actually cancelled");
}
