//! `chortle-server` — a resident technology-mapping service around the
//! [`chortle`] mapper.
//!
//! The library behind the `chortle-serve` binary (and the
//! `chortle-map serve` subcommand). It serves the newline-delimited
//! JSON protocols `chortle-serve/v1` and `chortle-serve/v2` ([`proto`])
//! over localhost TCP ([`Server`]) or stdin/stdout ([`serve_stdio`]),
//! with:
//!
//! - an **event-driven serving core**: one poll loop owns every
//!   connection with non-blocking sockets and explicit read/write
//!   buffers — pipelined frames on one connection and hundreds of
//!   concurrent connections cost buffers, not threads, and ready
//!   responses for the same client coalesce into a single write;
//! - **per-client fair admission** replacing the old global queue
//!   cliff: each client gets its own FIFO served round-robin with a
//!   per-client quota of queued + in-flight requests, a v2 `priority`
//!   field (0–9) preferred across clients, and graceful load-shedding
//!   whose v2 rejections carry `retry_after_ms` and
//!   `client_queue_depth` hints;
//! - **protocol v2** on top of the frozen v1: `op: "hello"` version
//!   negotiation, `op: "map_batch"` frames mapping many netlists per
//!   round trip, `op: "map_design"` for sequential designs
//!   (`.latch`/`.subckt`, mapped as register-bounded combinational
//!   clouds — DESIGN.md §17), and structured shed hints — v1 frames
//!   keep parsing and are answered byte-identically to the v1 daemon;
//! - **per-request deadlines** (`deadline_ms`) enforced cooperatively
//!   at tree boundaries inside the mapper, answering
//!   `rejected: deadline_exceeded` with partial work discarded;
//! - a process-wide **warm DP cache** ([`chortle::WarmCache`]) shared
//!   across requests in every caching mode (all but `cache: "off"`;
//!   `"tree"` is an alias of `"shared"`), observable through the
//!   `cache_generation` response field and resettable with a `flush`
//!   request;
//! - **graceful shutdown**: a `shutdown` request stops admission,
//!   drains in-flight work, and yields a final aggregate telemetry
//!   report (`serve.*` counters plus the `serve.queue_ns`,
//!   `serve.run_ns`, and `serve.admission.client_depth` histograms,
//!   schema `chortle-telemetry/v1.7`);
//! - **live introspection**: `op: "stats"` answers uptime, per-op
//!   request counters, queue depth and high-water mark, and the latency
//!   histograms without disturbing the workers; `op: "trace"` dumps a
//!   bounded ring of recently completed request traces
//!   (`--trace-capacity` sizes it);
//! - a **live observability plane** (DESIGN.md §18): structured JSONL
//!   logging via [`chortle_telemetry::log`] (`--log-level`,
//!   `--log-file`, off by default so output stays byte-identical), an
//!   optional v2 `trace_id` echoed end to end (response frame,
//!   `op: "trace"` ring entry, per-request log events), a
//!   sliding-window metrics aggregator surfaced as v2 `op: "metrics"`
//!   (windowed qps, shed rate, cache hit rates, p50/p95/p99), and a
//!   Prometheus text exposition on `--metrics-addr` validated by
//!   `report-check --prom`.
//!
//! Responses are byte-identical to the offline `chortle-map` CLI for
//! the same `(BLIF, k, jobs, cache, objective, optimize)` — the server
//! is a faster way to run the same mapper, not a different mapper.
//! That holds for every path: v1 `map`, v2 `map`, each entry of a v2
//! `map_batch`, and `map_design` against `chortle-map --design`.
//!
//! Everything is `std`-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
pub mod args;
pub mod client;
mod conn;
mod event_loop;
mod metrics;
pub mod proto;
mod server;
mod service;

pub use args::{print_serve_help, ServeArgs, SERVE_FLAGS};
pub use client::{
    parse_response, BatchReply, Client, FlushReply, HelloReply, MapReply, Mapped, MetricsReply,
    Rejection, Response, ShutdownReply, StatsReply, TraceReply,
};
pub use proto::{
    BatchItem, BatchRequest, MapPayload, MapRequest, MetricsSnapshot, Op, ProtocolVersion,
    RejectReason, Request, RequestTrace, ServerLimits, ShedHint, MAX_PRIORITY, PROTOCOLS,
    PROTOCOL_V1, PROTOCOL_V2,
};
pub use server::{
    run_daemon, serve_stdio, stats, ServeOptions, ServeOptionsBuilder, Server, ServerHandle,
    ServerSummary,
};
