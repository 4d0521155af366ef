//! The closed loop every workload runs: a few threads, each starting its
//! next attempt only when its previous one has completed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::check::{Produced, Record};
use crate::stats::Latencies;

/// The host's two cores: the offline workloads' worker threads, the
/// daemon's workers, and the threads a set-up runs on.
pub const WORKERS: usize = 2;

/// Set-ups timed before the measured loop, and again after it. A run
/// reports the median of all of them: the host's speed swings by up to
/// 40% over a few seconds, and set-ups on both sides of the loop sample it
/// at two times rather than one.
pub const SETUP_REPEATS: usize = 30;

/// Runs `set_up` [`SETUP_REPEATS`] times, timing each, and hands every
/// result but the last to `discard`, untimed. Returns the last result and
/// the times in seconds.
pub fn set_ups<T>(mut set_up: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = last.take() {
            discard(previous);
        }
        let start = Instant::now();
        last = Some(set_up());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// What one attempt returns.
pub struct Attempt {
    /// What the program produced, or why it failed.
    pub result: Result<Produced, String>,
    /// Wall time of the attempt.
    pub ms: f64,
    /// The worker cannot go on: its connection is gone. The failure is
    /// recorded and the worker stops rather than hiding it behind a
    /// reconnect.
    pub fatal: bool,
}

impl Attempt {
    /// Times `f`, which returns the attempt's result.
    pub fn timed(f: impl FnOnce() -> Result<Produced, String>) -> Attempt {
        let start = Instant::now();
        let result = f();
        Attempt {
            result,
            ms: start.elapsed().as_secs_f64() * 1e3,
            fatal: false,
        }
    }
}

/// One phase of the loop: per-input records and the elapsed time.
pub struct Phase {
    /// One record per input.
    pub records: Vec<Record>,
    /// Every attempt's wall time, in completion order.
    pub latencies: Latencies,
    /// Seconds from the start to the last completed attempt.
    pub elapsed: f64,
}

/// Runs the loop on `workers` threads for `seconds`. The workers walk
/// `order` (indices into the inputs) cyclically through one shared
/// cursor: each takes the next position when it is free, and calls
/// `attempt` on its own state, made by `init(w)`, with the position and
/// the input index at it.
pub fn run<S>(
    workers: usize,
    order: &[usize],
    inputs: usize,
    seconds: f64,
    init: impl Fn(usize) -> S + Sync,
    attempt: impl Fn(&mut S, usize, usize) -> Attempt + Sync,
) -> Phase {
    let records = (0..inputs).map(|_| Record::default()).collect::<Vec<_>>();
    let done = Mutex::new((records, Latencies::default()));
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..workers {
            let (done, init, attempt, cursor) = (&done, &init, &attempt, &cursor);
            s.spawn(move || {
                let mut state = init(w);
                while Instant::now() < deadline {
                    let pos = cursor.fetch_add(1, Ordering::Relaxed);
                    let idx = order[pos % order.len()];
                    let a = attempt(&mut state, pos, idx);
                    let mut done = done.lock().expect("no worker panicked");
                    if done.0[idx].record(a.result, a.ms) {
                        done.1.record(a.ms);
                    } else {
                        done.1.record_failure();
                    }
                    if a.fatal {
                        break;
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (records, latencies) = done.into_inner().expect("no worker panicked");
    Phase {
        records,
        latencies,
        elapsed,
    }
}

/// Folds the records of several phases over the same inputs into one
/// record per input, requiring every phase to produce the same outputs.
pub fn merge(phases: Vec<Vec<Record>>) -> Vec<Record> {
    let mut phases = phases.into_iter();
    let mut merged = phases.next().unwrap_or_default();
    for phase in phases {
        for (into, from) in merged.iter_mut().zip(phase) {
            into.merge(from);
        }
    }
    merged
}
