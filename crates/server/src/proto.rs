//! The `chortle-serve` wire protocol, versions 1 and 2.
//!
//! One request per line, one response per line, both JSON objects —
//! newline-delimited so clients can speak it with a buffered reader and
//! no framing layer. Parsing reuses the hand-rolled RFC 8259 parser of
//! `chortle_telemetry::json`; serialization is hand-written in the same
//! style (`write_string` for escaping), so the whole protocol stays
//! std-only.
//!
//! ## Versioning
//!
//! Every frame carries a `proto` tag. The server accepts both
//! `chortle-serve/v1` and `chortle-serve/v2` on the same connection,
//! decides per frame, and always answers in the shape of the version
//! the request spoke — a v1 client sees exactly the v1 responses it
//! always saw, byte for byte. A client can discover what the server
//! speaks with the v2 `op: "hello"` handshake instead of guessing.
//!
//! ## v1 grammar (unchanged; see DESIGN.md §12)
//!
//! Request keys: `proto` (required), `id` (optional string, echoed
//! verbatim), `op` (`"map"` default, `"flush"`, `"stats"`, `"trace"`,
//! `"shutdown"`); for `op: "map"` also `blif` (required), `k` (default
//! 4), `jobs` (default 0 = host parallelism), `cache`
//! (`"shared"`/`"tree"`/`"off"`/`"fn"`), `objective` (`"area"`/`"depth"`),
//! `optimize` (default true) and `deadline_ms`. Unknown keys, unknown
//! enum values, and admin requests carrying map-only keys are rejected
//! — a versioned protocol fails loudly instead of guessing.
//!
//! ## v2 additions (see DESIGN.md §15)
//!
//! - `op: "hello"` — version negotiation: the response lists the
//!   protocol versions the server accepts plus its admission limits
//!   (`quota`, `queue`, `batch_limit`).
//! - `op: "map_batch"` — many netlists in one frame: a `requests`
//!   array of per-netlist objects (same knobs as a v1 `map`, plus
//!   `priority`); the response is a single frame with a `results`
//!   array in request order, so parse/serialize cost is amortized per
//!   frame instead of per request.
//! - `op: "map_design"` — map a *sequential design* (DESIGN.md §17):
//!   the inline BLIF may carry `.latch` lines and `.subckt` hierarchy;
//!   the server flattens it, cuts it at register boundaries, maps every
//!   combinational cloud, and answers with the assembled sequential LUT
//!   netlist. Same knobs and response shape as `map` (the response
//!   echoes `op: "map_design"`).
//! - `priority` (0 = default .. 9 = most urgent) on `map`, on
//!   `map_batch` frames (a default for their entries), and on batch
//!   entries.
//! - Structured rejections: v2 `status: "rejected"` frames caused by
//!   load-shedding additionally carry `retry_after_ms` (when the
//!   client should retry) and `client_queue_depth` (how much of its
//!   quota the client was using), so overload is a *hint*, not a
//!   dead-end.
//! - `trace_id` (optional) on `map`/`map_design` frames, on
//!   `map_batch` frames (a default for their entries), and on batch
//!   entries: an opaque client-chosen correlation string the server
//!   echoes in the success payload, stamps into its `op: "trace"`
//!   ring entries, and attaches to the request's structured log
//!   events — one id joins the wire, the ring, and the log stream.
//!   Never rendered when empty, so pre-trace_id frames stay
//!   byte-identical.
//! - `op: "metrics"`: the sliding-window metrics snapshot — windowed
//!   qps, shed rate, cache hit rates, and latency quantiles over the
//!   last N seconds, next to their cumulative counterparts (see
//!   DESIGN.md §18).

use chortle::{CacheMode, Objective, WarmStats};
use chortle_telemetry::json::{self, write_string, Value};

/// The version-1 protocol tag.
pub const PROTOCOL_V1: &str = "chortle-serve/v1";
/// The version-2 protocol tag.
pub const PROTOCOL_V2: &str = "chortle-serve/v2";
/// Every protocol version this build accepts, oldest first.
pub const PROTOCOLS: &[&str] = &[PROTOCOL_V1, PROTOCOL_V2];

/// The highest request priority (`priority` is `0..=MAX_PRIORITY`).
pub const MAX_PRIORITY: u8 = 9;

/// Which protocol version a frame spoke. Responses always mirror the
/// request's version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolVersion {
    /// `chortle-serve/v1`: single-request frames only.
    V1,
    /// `chortle-serve/v2`: hello, batching, priorities, shed hints.
    V2,
}

impl ProtocolVersion {
    /// The wire spelling of the version tag.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolVersion::V1 => PROTOCOL_V1,
            ProtocolVersion::V2 => PROTOCOL_V2,
        }
    }
}

/// A parsed request: the echoed `id`, the version it spoke, and the
/// operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response
    /// (empty when absent).
    pub id: String,
    /// Which protocol version the frame spoke (responses mirror it).
    pub version: ProtocolVersion,
    /// The requested operation.
    pub op: Op,
}

/// The operations of the protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Version negotiation (v2): list the versions and limits.
    Hello,
    /// Map one inline BLIF network into K-input LUTs.
    Map(MapRequest),
    /// Map many netlists in one frame (v2).
    MapBatch(BatchRequest),
    /// Discard the warm cross-request DP cache and bump its generation.
    Flush,
    /// Return the aggregate server telemetry report so far.
    Stats,
    /// Return the sliding-window metrics snapshot (v2).
    Metrics,
    /// Return the ring buffer of recently completed request traces.
    Trace,
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

/// One completed request as remembered by the server's bounded trace
/// ring — the payload of an `op: "trace"` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// The request's correlation id, echoed as the client sent it.
    pub id: String,
    /// How the request ended: `"ok"` or a [`RejectReason`] spelling.
    pub outcome: String,
    /// Nanoseconds spent queued between admission and a worker
    /// picking the job up.
    pub queue_ns: u64,
    /// Nanoseconds the worker spent executing the request.
    pub run_ns: u64,
    /// Mapped LUT count (0 for rejected or admin outcomes).
    pub luts: usize,
    /// Mapped circuit depth (0 for rejected or admin outcomes).
    pub depth: usize,
    /// The client's `trace_id`, echoed for cross-surface correlation
    /// (empty when the request carried none; elided on the wire then).
    pub trace_id: String,
}

/// The payload of a `map` request (also one entry of a `map_batch`).
#[derive(Clone, Debug, PartialEq)]
pub struct MapRequest {
    /// The network to map, as inline BLIF text.
    pub blif: String,
    /// LUT input count (the mapper validates the 2..=8 range).
    pub k: usize,
    /// Mapper worker threads (0 = host parallelism). Identical output
    /// for every value — parallelism is a latency knob only.
    pub jobs: usize,
    /// DP memoization mode; `Shared` (the default) additionally taps the
    /// server's warm cross-request cache.
    pub cache: CacheMode,
    /// Mapping objective.
    pub objective: Objective,
    /// Run the MIS-style optimization script before mapping (default
    /// true — matching the offline CLI's default flow).
    pub optimize: bool,
    /// Per-request deadline in milliseconds from admission. `None` means
    /// unbounded.
    pub deadline_ms: Option<u64>,
    /// Dispatch priority, `0` (default) to [`MAX_PRIORITY`] (most
    /// urgent). v2 only on the wire; v1 frames always parse as 0.
    pub priority: u8,
    /// Treat `blif` as a sequential design and run the cloud-cutting
    /// pipeline (`op: "map_design"`, v2 only — never a JSON key; the
    /// op name carries it). Batch entries are always plain maps.
    pub design: bool,
    /// Opaque correlation id echoed across the response payload, the
    /// server's `op: "trace"` ring, and its structured log events.
    /// Empty means absent — never rendered then. v2 only on the wire;
    /// v1 frames always parse as empty.
    pub trace_id: String,
}

impl Default for MapRequest {
    fn default() -> Self {
        MapRequest {
            blif: String::new(),
            k: 4,
            jobs: 0,
            cache: CacheMode::Shared,
            objective: Objective::Area,
            optimize: true,
            deadline_ms: None,
            priority: 0,
            design: false,
            trace_id: String::new(),
        }
    }
}

/// The payload of a v2 `map_batch` request.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchRequest {
    /// The netlists to map, answered in this order in one frame.
    pub requests: Vec<MapRequest>,
}

/// Typed rejection reasons — the `reason` field of a
/// `status: "rejected"` response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The global admission queue was at capacity; retry later (v2
    /// rejections carry a `retry_after_ms` hint).
    QueueFull,
    /// The connection already had its full per-client quota of requests
    /// queued or in flight (v2 only; v1 responses spell this
    /// `queue_full` because v1 predates per-client admission).
    OverQuota,
    /// The request's `deadline_ms` expired before mapping finished
    /// (partial work discarded).
    DeadlineExceeded,
    /// The request was malformed: bad JSON, bad protocol fields, or
    /// BLIF that does not parse.
    BadRequest,
    /// The server is shutting down and no longer admits work.
    ShuttingDown,
    /// The mapper failed internally (never expected; the detail says
    /// how).
    Internal,
}

impl RejectReason {
    /// The wire spelling of the reason.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::OverQuota => "over_quota",
            RejectReason::DeadlineExceeded => "deadline_exceeded",
            RejectReason::BadRequest => "bad_request",
            RejectReason::ShuttingDown => "shutting_down",
            RejectReason::Internal => "internal",
        }
    }
}

/// The load-shedding hint attached to v2 admission rejections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShedHint {
    /// When the client should retry, in milliseconds — derived from the
    /// current backlog and the server's moving average service time.
    pub retry_after_ms: u64,
    /// How many of the client's own requests were queued or in flight
    /// when the shed happened.
    pub client_queue_depth: usize,
}

/// The mapped-request payload every successful `map` response (and
/// every successful `map_batch` entry) carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MapPayload {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT levels on the longest path.
    pub depth: usize,
    /// Warm-cache generation that served the request.
    pub cache_generation: u64,
    /// Server-measured execution time in nanoseconds — the exact value
    /// the server buckets into its `serve.run_ns` histogram.
    pub run_ns: u64,
    /// The mapped netlist (BLIF, model `mapped`), byte-identical to the
    /// offline CLI's stdout for the same request parameters.
    pub netlist: String,
    /// The embedded per-request telemetry report (serialized JSON).
    pub report_json: String,
    /// The request's `trace_id`, echoed verbatim (empty when the
    /// request carried none; elided on the wire then).
    pub trace_id: String,
}

/// One entry of a `map_batch` response, in request order.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchItem {
    /// This netlist mapped successfully.
    Mapped(MapPayload),
    /// This netlist was rejected (shed at admission, deadline, …).
    Rejected {
        /// The typed reason.
        reason: RejectReason,
        /// Human-readable detail.
        detail: String,
        /// The shed hint, when admission (not the request itself) was
        /// the cause.
        hint: Option<ShedHint>,
    },
}

/// The server limits a `hello` response advertises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerLimits {
    /// Per-client quota of queued + in-flight requests.
    pub quota: usize,
    /// Global admission queue capacity.
    pub queue_depth: usize,
    /// Maximum netlists per `map_batch` frame.
    pub batch_limit: usize,
}

/// A protocol-level parse failure: the rejection detail plus whatever
/// `id` and version could still be recovered for the response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Best-effort recovered correlation id (empty if the line was not
    /// even JSON).
    pub id: String,
    /// Best-effort recovered protocol version (defaults to v1 so error
    /// responses are parseable by the oldest clients).
    pub version: ProtocolVersion,
    /// Human-readable description of the first deviation.
    pub detail: String,
}

/// Keys valid on every v1 frame; anything else is rejected.
const V1_KEYS: &[&str] = &[
    "proto",
    "id",
    "op",
    "blif",
    "k",
    "jobs",
    "cache",
    "objective",
    "optimize",
    "deadline_ms",
];

/// Keys valid on every v2 frame: the v1 set plus batching/priority.
const V2_KEYS: &[&str] = &[
    "proto",
    "id",
    "op",
    "blif",
    "k",
    "jobs",
    "cache",
    "objective",
    "optimize",
    "deadline_ms",
    "priority",
    "requests",
    "trace_id",
];

/// Keys that only make sense on `op: "map"` (v1 and v2).
const MAP_KEYS: &[&str] = &[
    "blif",
    "k",
    "jobs",
    "cache",
    "objective",
    "optimize",
    "deadline_ms",
];

/// Parses one request line, accepting both protocol versions.
///
/// # Errors
///
/// Returns a [`ProtoError`] (maps to `rejected: bad_request`) on
/// malformed JSON, a wrong or missing protocol tag, unknown keys or
/// ops, wrong value kinds, or admin ops carrying map-only keys.
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let fail = |id: &str, version: ProtocolVersion, detail: String| ProtoError {
        id: id.to_owned(),
        version,
        detail,
    };
    use ProtocolVersion::{V1, V2};
    let value = json::parse(line).map_err(|e| fail("", V1, format!("invalid JSON: {e}")))?;
    let members = value
        .as_object()
        .ok_or_else(|| fail("", V1, "request must be a JSON object".into()))?;
    // Recover the id first so even rejections correlate.
    let id = match value.get("id") {
        None => String::new(),
        Some(v) => v
            .as_str()
            .ok_or_else(|| fail("", V1, "\"id\" must be a string".into()))?
            .to_owned(),
    };
    let proto = value
        .get("proto")
        .ok_or_else(|| {
            fail(
                &id,
                V1,
                format!("missing \"proto\" (expected one of {PROTOCOLS:?})"),
            )
        })?
        .as_str()
        .ok_or_else(|| fail(&id, V1, "\"proto\" must be a string".into()))?;
    let version = match proto {
        PROTOCOL_V1 => V1,
        PROTOCOL_V2 => V2,
        other => {
            return Err(fail(
                &id,
                V1,
                format!("unsupported protocol {other:?} (this server speaks {PROTOCOLS:?})"),
            ))
        }
    };
    let known: &[&str] = match version {
        V1 => V1_KEYS,
        V2 => V2_KEYS,
    };
    for (key, _) in members {
        if !known.contains(&key.as_str()) {
            return Err(fail(&id, version, format!("unknown key {key:?}")));
        }
    }
    let op = match value.get("op") {
        None => "map",
        Some(v) => v
            .as_str()
            .ok_or_else(|| fail(&id, version, "\"op\" must be a string".into()))?,
    };
    if !matches!(op, "map" | "map_design") {
        if let Some((key, _)) = members.iter().find(|(k, _)| MAP_KEYS.contains(&k.as_str())) {
            return Err(fail(
                &id,
                version,
                format!("key {key:?} is only valid for op \"map\", not {op:?}"),
            ));
        }
    }
    if op != "map_batch" && members.iter().any(|(k, _)| k == "requests") {
        return Err(fail(
            &id,
            version,
            format!("key \"requests\" is only valid for op \"map_batch\", not {op:?}"),
        ));
    }
    if !matches!(op, "map" | "map_design" | "map_batch")
        && members.iter().any(|(k, _)| k == "priority")
    {
        return Err(fail(
            &id,
            version,
            format!("key \"priority\" is only valid for op \"map\" or \"map_batch\", not {op:?}"),
        ));
    }
    if !matches!(op, "map" | "map_design" | "map_batch")
        && members.iter().any(|(k, _)| k == "trace_id")
    {
        return Err(fail(
            &id,
            version,
            format!("key \"trace_id\" is only valid for op \"map\" or \"map_batch\", not {op:?}"),
        ));
    }
    if version == V1 && matches!(op, "hello" | "map_batch" | "map_design" | "metrics") {
        return Err(fail(
            &id,
            version,
            format!("op {op:?} requires {PROTOCOL_V2:?} (this frame spoke {PROTOCOL_V1:?})"),
        ));
    }
    let op = match op {
        "map" => Op::Map(parse_map_fields(&value, &id, version)?),
        "map_design" => {
            let mut req = parse_map_fields(&value, &id, version)?;
            req.design = true;
            Op::Map(req)
        }
        "map_batch" => Op::MapBatch(parse_batch(&value, &id)?),
        "hello" => Op::Hello,
        "flush" => Op::Flush,
        "stats" => Op::Stats,
        "metrics" => Op::Metrics,
        "trace" => Op::Trace,
        "shutdown" => Op::Shutdown,
        other => {
            let expected = match version {
                V1 => "map, flush, stats, trace or shutdown",
                V2 => "hello, map, map_batch, map_design, flush, stats, metrics, trace or shutdown",
            };
            return Err(fail(
                &id,
                version,
                format!("unknown op {other:?} (expected {expected})"),
            ));
        }
    };
    Ok(Request { id, version, op })
}

/// Parses the map knobs out of `value` — a top-level `map` frame or one
/// entry of a v2 `requests` array (the grammar is identical).
fn parse_map_fields(
    value: &Value,
    id: &str,
    version: ProtocolVersion,
) -> Result<MapRequest, ProtoError> {
    let fail = |detail: String| ProtoError {
        id: id.to_owned(),
        version,
        detail,
    };
    let blif = value
        .get("blif")
        .ok_or_else(|| fail("op \"map\" requires a \"blif\" string".into()))?
        .as_str()
        .ok_or_else(|| fail("\"blif\" must be a string".into()))?
        .to_owned();
    let k = opt_u64(value, "k", id, version)?.map_or(4, |v| v as usize);
    let jobs = opt_u64(value, "jobs", id, version)?.map_or(0, |v| v as usize);
    let cache = match value.get("cache") {
        None => CacheMode::Shared,
        Some(v) => v.as_str().and_then(CacheMode::parse).ok_or_else(|| {
            fail(format!(
                "\"cache\" must be \"off\", \"tree\", \"shared\" or \"fn\", found {}",
                describe(v)
            ))
        })?,
    };
    let objective = match value.get("objective") {
        None => Objective::Area,
        Some(v) => match v.as_str() {
            Some("area") => Objective::Area,
            Some("depth") => Objective::Depth,
            _ => {
                return Err(fail(format!(
                    "\"objective\" must be \"area\" or \"depth\", found {}",
                    describe(v)
                )))
            }
        },
    };
    let optimize = match value.get("optimize") {
        None => true,
        Some(Value::Bool(b)) => *b,
        Some(v) => {
            return Err(fail(format!(
                "\"optimize\" must be a boolean, found {}",
                v.kind()
            )))
        }
    };
    let deadline_ms = opt_u64(value, "deadline_ms", id, version)?;
    let priority = parse_priority(value, id, version)?.unwrap_or(0);
    let trace_id = parse_trace_id(value, id, version)?.unwrap_or_default();
    Ok(MapRequest {
        blif,
        k,
        jobs,
        cache,
        objective,
        optimize,
        deadline_ms,
        priority,
        design: false,
        trace_id,
    })
}

fn parse_trace_id(
    value: &Value,
    id: &str,
    version: ProtocolVersion,
) -> Result<Option<String>, ProtoError> {
    match value.get("trace_id") {
        None => Ok(None),
        Some(v) => match v.as_str() {
            Some(s) => Ok(Some(s.to_owned())),
            None => Err(ProtoError {
                id: id.to_owned(),
                version,
                detail: format!("\"trace_id\" must be a string, found {}", v.kind()),
            }),
        },
    }
}

/// Parses a v2 `map_batch` frame: a non-empty `requests` array whose
/// entries use the map-request grammar (minus `proto`/`id`/`op`), with
/// the frame-level `priority` as each entry's default.
fn parse_batch(value: &Value, id: &str) -> Result<BatchRequest, ProtoError> {
    let version = ProtocolVersion::V2;
    let fail = |detail: String| ProtoError {
        id: id.to_owned(),
        version,
        detail,
    };
    let frame_priority = parse_priority(value, id, version)?;
    let frame_trace_id = parse_trace_id(value, id, version)?;
    let entries = value
        .get("requests")
        .ok_or_else(|| fail("op \"map_batch\" requires a \"requests\" array".into()))?
        .as_array()
        .ok_or_else(|| fail("\"requests\" must be an array".into()))?;
    if entries.is_empty() {
        return Err(fail("\"requests\" must not be empty".into()));
    }
    let mut requests = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let members = entry
            .as_object()
            .ok_or_else(|| fail(format!("requests[{i}] must be an object")))?;
        for (key, _) in members {
            if !MAP_KEYS.contains(&key.as_str()) && key != "priority" && key != "trace_id" {
                return Err(fail(format!("requests[{i}] has unknown key {key:?}")));
            }
        }
        let mut req = parse_map_fields(entry, id, version)
            .map_err(|e| fail(format!("requests[{i}]: {}", e.detail)))?;
        if entry.get("priority").is_none() {
            req.priority = frame_priority.unwrap_or(0);
        }
        if entry.get("trace_id").is_none() {
            req.trace_id = frame_trace_id.clone().unwrap_or_default();
        }
        requests.push(req);
    }
    Ok(BatchRequest { requests })
}

fn parse_priority(
    value: &Value,
    id: &str,
    version: ProtocolVersion,
) -> Result<Option<u8>, ProtoError> {
    match opt_u64(value, "priority", id, version)? {
        None => Ok(None),
        Some(p) if p <= u64::from(MAX_PRIORITY) => Ok(Some(p as u8)),
        Some(p) => Err(ProtoError {
            id: id.to_owned(),
            version,
            detail: format!("\"priority\" must be 0..={MAX_PRIORITY}, found {p}"),
        }),
    }
}

fn opt_u64(
    value: &Value,
    key: &str,
    id: &str,
    version: ProtocolVersion,
) -> Result<Option<u64>, ProtoError> {
    match value.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| ProtoError {
            id: id.to_owned(),
            version,
            detail: format!("{key:?} must be a non-negative integer, found {}", v.kind()),
        }),
    }
}

/// Renders an enum-valued field for error messages: the string content
/// when it is a string, the kind otherwise.
fn describe(v: &Value) -> String {
    match v.as_str() {
        Some(s) => format!("{s:?}"),
        None => v.kind().to_owned(),
    }
}

fn request_header(out: &mut String, version: ProtocolVersion, id: &str) {
    out.push_str("{\"proto\":");
    write_string(out, version.as_str());
    out.push_str(",\"id\":");
    write_string(out, id);
}

/// Writes the map knobs of `req` (everything but `blif`) — shared by
/// single-request frames and batch entries. Every knob is spelled out
/// explicitly, so request lines are self-describing rather than relying
/// on server defaults. `priority` is a v2-only key.
fn write_map_knobs(out: &mut String, req: &MapRequest, version: ProtocolVersion) {
    use std::fmt::Write as _;
    let cache = req.cache.as_str();
    let objective = match req.objective {
        Objective::Area => "area",
        Objective::Depth => "depth",
    };
    let _ = write!(
        out,
        ",\"k\":{},\"jobs\":{},\"cache\":\"{cache}\",\"objective\":\"{objective}\",\"optimize\":{}",
        req.k, req.jobs, req.optimize
    );
    if let Some(ms) = req.deadline_ms {
        let _ = write!(out, ",\"deadline_ms\":{ms}");
    }
    if version == ProtocolVersion::V2 {
        let _ = write!(out, ",\"priority\":{}", req.priority);
        if !req.trace_id.is_empty() {
            out.push_str(",\"trace_id\":");
            write_string(out, &req.trace_id);
        }
    }
}

/// Renders a `map` request line (the client side of the protocol).
/// A request with `design: true` renders as `op: "map_design"` — a
/// v2-only op; sent over v1 the server answers with a typed rejection.
pub fn render_map_request(version: ProtocolVersion, id: &str, req: &MapRequest) -> String {
    let mut out = String::with_capacity(req.blif.len() + 176);
    request_header(&mut out, version, id);
    if req.design {
        out.push_str(",\"op\":\"map_design\",\"blif\":");
    } else {
        out.push_str(",\"op\":\"map\",\"blif\":");
    }
    write_string(&mut out, &req.blif);
    write_map_knobs(&mut out, req, version);
    out.push('}');
    out
}

/// Renders a v2 `map_batch` request line: every entry spelled out with
/// its own knobs (including its priority), in answer order.
pub fn render_batch_request(id: &str, requests: &[MapRequest]) -> String {
    let blif_len: usize = requests.iter().map(|r| r.blif.len() + 128).sum();
    let mut out = String::with_capacity(blif_len + 96);
    request_header(&mut out, ProtocolVersion::V2, id);
    out.push_str(",\"op\":\"map_batch\",\"requests\":[");
    for (i, req) in requests.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"blif\":");
        write_string(&mut out, &req.blif);
        write_map_knobs(&mut out, req, ProtocolVersion::V2);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Renders an admin request line (`hello`, `flush`, `stats`, `trace` or
/// `shutdown`). `hello` requires v2.
pub fn render_admin_request(version: ProtocolVersion, id: &str, op: &Op) -> String {
    let name = match op {
        Op::Hello => "hello",
        Op::Flush => "flush",
        Op::Stats => "stats",
        Op::Metrics => "metrics",
        Op::Trace => "trace",
        Op::Shutdown => "shutdown",
        Op::Map(_) | Op::MapBatch(_) => {
            unreachable!("map requests use render_map_request / render_batch_request")
        }
    };
    let mut out = String::new();
    request_header(&mut out, version, id);
    out.push_str(&format!(",\"op\":\"{name}\"}}"));
    out
}

fn response_header(out: &mut String, version: ProtocolVersion, id: &str, status: &str) {
    out.push_str("{\"proto\":");
    write_string(out, version.as_str());
    out.push_str(",\"id\":");
    write_string(out, id);
    out.push_str(",\"status\":");
    write_string(out, status);
}

/// Writes the body of one successful map payload (everything after
/// `"op":…` / inside a batch entry).
fn write_map_payload(out: &mut String, payload: &MapPayload) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "\"luts\":{},\"depth\":{},\"cache_generation\":{},\"run_ns\":{}",
        payload.luts, payload.depth, payload.cache_generation, payload.run_ns
    );
    if !payload.trace_id.is_empty() {
        out.push_str(",\"trace_id\":");
        write_string(out, &payload.trace_id);
    }
    out.push_str(",\"netlist\":");
    write_string(out, &payload.netlist);
    out.push_str(",\"report\":");
    out.push_str(&payload.report_json);
}

/// Renders the success response of a `map` request, in the shape of the
/// version the request spoke.
pub fn render_map_ok(version: ProtocolVersion, id: &str, payload: &MapPayload) -> String {
    let mut out = String::with_capacity(payload.netlist.len() + payload.report_json.len() + 144);
    response_header(&mut out, version, id, "ok");
    out.push_str(",\"op\":\"map\",");
    write_map_payload(&mut out, payload);
    out.push('}');
    out
}

/// Renders the success response of a v2 `map_design` request — the map
/// payload shape with the op echoed as `map_design`; `netlist` carries
/// the assembled sequential LUT BLIF instead of a combinational one.
pub fn render_map_design_ok(id: &str, payload: &MapPayload) -> String {
    let mut out = String::with_capacity(payload.netlist.len() + payload.report_json.len() + 152);
    response_header(&mut out, ProtocolVersion::V2, id, "ok");
    out.push_str(",\"op\":\"map_design\",");
    write_map_payload(&mut out, payload);
    out.push('}');
    out
}

/// Renders the single-frame response of a v2 `map_batch` request:
/// `results` in request order, each entry either a map payload or a
/// structured rejection.
pub fn render_batch_ok(id: &str, results: &[BatchItem]) -> String {
    let body: usize = results
        .iter()
        .map(|r| match r {
            BatchItem::Mapped(p) => p.netlist.len() + p.report_json.len() + 128,
            BatchItem::Rejected { detail, .. } => detail.len() + 96,
        })
        .sum();
    let mut out = String::with_capacity(body + 96);
    response_header(&mut out, ProtocolVersion::V2, id, "ok");
    out.push_str(",\"op\":\"map_batch\",\"results\":[");
    for (i, item) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match item {
            BatchItem::Mapped(payload) => {
                out.push_str("{\"status\":\"ok\",");
                write_map_payload(&mut out, payload);
                out.push('}');
            }
            BatchItem::Rejected {
                reason,
                detail,
                hint,
            } => {
                out.push_str("{\"status\":\"rejected\",\"reason\":");
                write_string(&mut out, reason.as_str());
                out.push_str(",\"detail\":");
                write_string(&mut out, detail);
                write_hint(&mut out, hint.as_ref());
                out.push('}');
            }
        }
    }
    out.push_str("]}");
    out
}

/// Renders the success response of a v2 `hello` request: the accepted
/// protocol versions (oldest first) and the server's admission limits.
pub fn render_hello_ok(id: &str, limits: &ServerLimits) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    response_header(&mut out, ProtocolVersion::V2, id, "ok");
    out.push_str(",\"op\":\"hello\",\"versions\":[");
    for (i, proto) in PROTOCOLS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(&mut out, proto);
    }
    let _ = write!(
        out,
        "],\"quota\":{},\"queue\":{},\"batch_limit\":{}}}",
        limits.quota, limits.queue_depth, limits.batch_limit
    );
    out
}

/// Renders the success response of a `flush` request.
pub fn render_flush_ok(version: ProtocolVersion, id: &str, cache_generation: u64) -> String {
    let mut out = String::new();
    response_header(&mut out, version, id, "ok");
    out.push_str(&format!(
        ",\"op\":\"flush\",\"cache_generation\":{cache_generation}}}"
    ));
    out
}

/// The live gauge values a `stats` response carries alongside the
/// warm-cache tallies and the aggregate report.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsGauges {
    /// Current shared-cache generation (bumped by `op:"flush"`).
    pub cache_generation: u64,
    /// Whole seconds since the daemon started serving.
    pub uptime_s: u64,
    /// Requests queued (admitted, not yet running) right now.
    pub queue_depth: usize,
    /// Highest queue depth observed since startup.
    pub queue_high_water: usize,
    /// Completed-request traces evicted from the bounded `op:"trace"`
    /// ring since startup (v2 responses only; the v1 stats shape is
    /// frozen).
    pub trace_dropped: u64,
}

/// Renders the success response of a `stats` request: the live gauges
/// (uptime, queue depth and its high-water mark, cache generation),
/// the per-tier warm-cache tallies (`cache`: entry counts plus lookup
/// hits/misses for the structural and functional tiers — hit rates are
/// the obvious ratios, computed client-side via
/// [`chortle::WarmStats::hit_rate`] and
/// [`chortle::WarmStats::fn_hit_rate`]), and the aggregate server
/// report (which carries the per-op request counters and the
/// `serve.queue_ns`/`serve.run_ns` latency histograms).
pub fn render_stats_ok(
    version: ProtocolVersion,
    id: &str,
    gauges: &StatsGauges,
    warm: &WarmStats,
    report_json: &str,
) -> String {
    let StatsGauges {
        cache_generation,
        uptime_s,
        queue_depth,
        queue_high_water,
        trace_dropped,
    } = *gauges;
    let mut out = String::with_capacity(report_json.len() + 240);
    response_header(&mut out, version, id, "ok");
    out.push_str(&format!(
        ",\"op\":\"stats\",\"cache_generation\":{cache_generation},\"uptime_s\":{uptime_s}\
         ,\"queue_depth\":{queue_depth},\"queue_high_water\":{queue_high_water}",
    ));
    // v2 surfaces the trace-ring drop count; the v1 stats shape is
    // byte-frozen and never grows keys.
    if version == ProtocolVersion::V2 {
        out.push_str(&format!(",\"trace_dropped\":{trace_dropped}"));
    }
    out.push_str(&format!(
        ",\"cache\":{{\"shapes\":{},\"fn_entries\":{},\"hits\":{},\"misses\":{}\
         ,\"fn_hits\":{},\"fn_misses\":{}}},\"report\":",
        warm.shapes, warm.fn_entries, warm.hits, warm.misses, warm.fn_hits, warm.fn_misses
    ));
    out.push_str(report_json);
    out.push('}');
    out
}

/// The sliding-window metrics snapshot a v2 `op: "metrics"` response
/// carries — rates and latency quantiles over the last
/// [`window_s`](MetricsSnapshot::window_s) seconds, next to the
/// cumulative totals they roll up from, so a consumer can check the
/// window arithmetic against `op: "stats"`. The body is the schema
/// v1.7 *windowed-metrics fragment*
/// ([`chortle_telemetry::schema::validate_metrics_fragment`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Window length the aggregator retains, in seconds.
    pub window_s: u64,
    /// Seconds of data actually inside the window (≤ `window_s`;
    /// smaller right after startup).
    pub seconds: u64,
    /// Completed requests per second over the window.
    pub qps: f64,
    /// Shed admissions over total admission attempts in the window
    /// (`0..=1`).
    pub shed_rate: f64,
    /// Structural-tier warm-cache hit rate over the window (`0..=1`).
    pub cache_hit_rate: f64,
    /// Functional-tier warm-cache hit rate over the window (`0..=1`).
    pub fn_cache_hit_rate: f64,
    /// Median request execution time in the window, nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile execution time in the window, nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile execution time in the window, nanoseconds.
    pub p99_ns: u64,
    /// Requests admitted inside the window.
    pub window_accepted: u64,
    /// Requests completed inside the window.
    pub window_completed: u64,
    /// Requests shed at admission inside the window.
    pub window_shed: u64,
    /// Requests admitted since startup.
    pub cumulative_accepted: u64,
    /// Requests completed since startup.
    pub cumulative_completed: u64,
    /// Requests shed at admission since startup.
    pub cumulative_shed: u64,
}

/// Renders the success response of a v2 `metrics` request: the
/// windowed-metrics fragment of [`MetricsSnapshot`], verbatim.
pub fn render_metrics_ok(id: &str, m: &MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(320);
    response_header(&mut out, ProtocolVersion::V2, id, "ok");
    let _ = write!(
        out,
        ",\"op\":\"metrics\",\"window_s\":{},\"seconds\":{}",
        m.window_s, m.seconds
    );
    for (key, value) in [
        ("qps", m.qps),
        ("shed_rate", m.shed_rate),
        ("cache_hit_rate", m.cache_hit_rate),
        ("fn_cache_hit_rate", m.fn_cache_hit_rate),
    ] {
        let _ = write!(out, ",\"{key}\":");
        json::write_f64(&mut out, value);
    }
    let _ = write!(
        out,
        ",\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}\
         ,\"window\":{{\"accepted\":{},\"completed\":{},\"shed\":{}}}\
         ,\"cumulative\":{{\"accepted\":{},\"completed\":{},\"shed\":{}}}}}",
        m.p50_ns,
        m.p95_ns,
        m.p99_ns,
        m.window_accepted,
        m.window_completed,
        m.window_shed,
        m.cumulative_accepted,
        m.cumulative_completed,
        m.cumulative_shed
    );
    out
}

/// Renders the success response of a `trace` request: the configured
/// ring capacity and the remembered request traces, oldest first.
pub fn render_trace_ok(
    version: ProtocolVersion,
    id: &str,
    capacity: usize,
    entries: &[RequestTrace],
) -> String {
    let mut out = String::with_capacity(96 + entries.len() * 96);
    response_header(&mut out, version, id, "ok");
    out.push_str(&format!(
        ",\"op\":\"trace\",\"capacity\":{capacity},\"requests\":["
    ));
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        write_string(&mut out, &e.id);
        out.push_str(",\"outcome\":");
        write_string(&mut out, &e.outcome);
        if !e.trace_id.is_empty() {
            out.push_str(",\"trace_id\":");
            write_string(&mut out, &e.trace_id);
        }
        out.push_str(&format!(
            ",\"queue_ns\":{},\"run_ns\":{},\"luts\":{},\"depth\":{}}}",
            e.queue_ns, e.run_ns, e.luts, e.depth
        ));
    }
    out.push_str("]}");
    out
}

/// Renders the success response of a `shutdown` request (sent before the
/// drain starts).
pub fn render_shutdown_ok(version: ProtocolVersion, id: &str) -> String {
    let mut out = String::new();
    response_header(&mut out, version, id, "ok");
    out.push_str(",\"op\":\"shutdown\"}");
    out
}

fn write_hint(out: &mut String, hint: Option<&ShedHint>) {
    use std::fmt::Write as _;
    if let Some(hint) = hint {
        let _ = write!(
            out,
            ",\"retry_after_ms\":{},\"client_queue_depth\":{}",
            hint.retry_after_ms, hint.client_queue_depth
        );
    }
}

/// Renders a typed rejection in the shape of the version the request
/// spoke. v1 frames keep their historical shape exactly: no hint keys,
/// and [`RejectReason::OverQuota`] downgraded to the `queue_full`
/// spelling v1 clients already understand.
pub fn render_rejected(
    version: ProtocolVersion,
    id: &str,
    reason: RejectReason,
    detail: &str,
    hint: Option<&ShedHint>,
) -> String {
    let reason = match (version, reason) {
        (ProtocolVersion::V1, RejectReason::OverQuota) => RejectReason::QueueFull,
        (_, reason) => reason,
    };
    let mut out = String::new();
    response_header(&mut out, version, id, "rejected");
    out.push_str(",\"reason\":");
    write_string(&mut out, reason.as_str());
    out.push_str(",\"detail\":");
    write_string(&mut out, detail);
    if version == ProtocolVersion::V2 {
        write_hint(&mut out, hint);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProtocolVersion::{V1, V2};

    fn map_line(proto: &str, extra: &str) -> String {
        format!(r#"{{"proto":"{proto}","id":"r1","blif":".model m\n.end\n"{extra}}}"#)
    }

    #[test]
    fn parses_map_defaults_in_both_versions() {
        for (proto, version) in [(PROTOCOL_V1, V1), (PROTOCOL_V2, V2)] {
            let req = parse_request(&map_line(proto, "")).expect("parses");
            assert_eq!(req.id, "r1");
            assert_eq!(req.version, version);
            let Op::Map(m) = req.op else {
                panic!("expected map")
            };
            assert_eq!(m.k, 4);
            // 0 = host parallelism, resolved by the mapper; identical
            // output either way, so the default can chase throughput.
            assert_eq!(m.jobs, 0);
            assert_eq!(m.cache, chortle::CacheMode::Shared);
            assert_eq!(m.objective, chortle::Objective::Area);
            assert!(m.optimize);
            assert_eq!(m.deadline_ms, None);
            assert_eq!(m.priority, 0);
        }
    }

    #[test]
    fn parses_every_map_knob() {
        let req = parse_request(&map_line(
            PROTOCOL_V1,
            r#","k":5,"jobs":3,"cache":"off","objective":"depth","optimize":false,"deadline_ms":250"#,
        ))
        .expect("parses");
        let Op::Map(m) = req.op else {
            panic!("expected map")
        };
        assert_eq!(
            (m.k, m.jobs, m.cache, m.objective, m.optimize, m.deadline_ms),
            (
                5,
                3,
                chortle::CacheMode::Off,
                chortle::Objective::Depth,
                false,
                Some(250)
            )
        );
        let req = parse_request(&map_line(PROTOCOL_V2, r#","priority":7"#)).expect("parses");
        let Op::Map(m) = req.op else {
            panic!("expected map")
        };
        assert_eq!(m.priority, 7);
    }

    #[test]
    fn parses_admin_ops_in_both_versions() {
        for (proto, version) in [(PROTOCOL_V1, V1), (PROTOCOL_V2, V2)] {
            for (name, op) in [
                ("flush", Op::Flush),
                ("stats", Op::Stats),
                ("trace", Op::Trace),
                ("shutdown", Op::Shutdown),
            ] {
                let line = format!(r#"{{"proto":"{proto}","op":"{name}"}}"#);
                let req = parse_request(&line).expect("parses");
                assert_eq!(req.op, op);
                assert_eq!(req.version, version);
                assert_eq!(req.id, "");
            }
        }
        let line = format!(r#"{{"proto":"{PROTOCOL_V2}","op":"hello","id":"h"}}"#);
        let req = parse_request(&line).expect("parses");
        assert_eq!(req.op, Op::Hello);
        assert_eq!(req.version, V2);
    }

    #[test]
    fn parses_map_design_as_a_flagged_map() {
        let line = format!(
            r#"{{"proto":"{PROTOCOL_V2}","id":"d1","op":"map_design","blif":".model m\n.end\n","k":5}}"#
        );
        let req = parse_request(&line).expect("parses");
        assert_eq!(req.version, V2);
        let Op::Map(m) = req.op else {
            panic!("expected map")
        };
        assert!(m.design);
        assert_eq!(m.k, 5);
        // Plain maps and batch entries never carry the flag.
        let req = parse_request(&map_line(PROTOCOL_V2, "")).expect("parses");
        let Op::Map(m) = req.op else {
            panic!("expected map")
        };
        assert!(!m.design);
    }

    #[test]
    fn map_design_requires_v2() {
        let line = format!(
            r#"{{"proto":"{PROTOCOL_V1}","id":"d","op":"map_design","blif":".model m\n.end\n"}}"#
        );
        let err = parse_request(&line).unwrap_err();
        assert!(err.detail.contains("requires"), "{}", err.detail);
        assert_eq!(err.version, V1);
        // The v2 unknown-op message advertises the new op.
        let line = format!(r#"{{"proto":"{PROTOCOL_V2}","op":"fold"}}"#);
        let err = parse_request(&line).unwrap_err();
        assert!(err.detail.contains("map_design"), "{}", err.detail);
    }

    /// Golden map_design frames, pinned like the other v2 shapes.
    #[test]
    fn golden_map_design_frames_round_trip() {
        let req = MapRequest {
            blif: ".model m\n.end\n".into(),
            design: true,
            ..MapRequest::default()
        };
        let line = render_map_request(V2, "sd", &req);
        assert_eq!(
            line,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"sd\",\"op\":\"map_design\",\
             \"blif\":\".model m\\n.end\\n\",\"k\":4,\"jobs\":0,\"cache\":\"shared\",\
             \"objective\":\"area\",\"optimize\":true,\"priority\":0}"
        );
        let parsed = parse_request(&line).expect("round trips");
        assert_eq!(parsed.op, Op::Map(req));

        let payload = MapPayload {
            luts: 4,
            depth: 2,
            cache_generation: 1,
            run_ns: 9_000,
            netlist: ".model mapped\n.latch a b re clk 0\n.end\n".into(),
            report_json: "{\"a\":1}".into(),
            trace_id: String::new(),
        };
        let ok = render_map_design_ok("sd", &payload);
        assert_eq!(
            ok,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"sd\",\"status\":\"ok\",\
             \"op\":\"map_design\",\"luts\":4,\"depth\":2,\"cache_generation\":1,\
             \"run_ns\":9000,\"netlist\":\".model mapped\\n.latch a b re clk 0\\n.end\\n\",\
             \"report\":{\"a\":1}}"
        );
    }

    #[test]
    fn parses_map_batch_with_priority_defaults() {
        let line = format!(
            r#"{{"proto":"{PROTOCOL_V2}","id":"b","op":"map_batch","priority":3,"requests":[
                {{"blif":".model a\n.end\n"}},
                {{"blif":".model b\n.end\n","k":5,"priority":9}}
            ]}}"#
        )
        .replace('\n', "")
        .replace("                ", "");
        let req = parse_request(&line).expect("parses");
        let Op::MapBatch(batch) = req.op else {
            panic!("expected map_batch")
        };
        assert_eq!(batch.requests.len(), 2);
        // Entry 0 inherits the frame priority; entry 1 overrides it.
        assert_eq!(batch.requests[0].priority, 3);
        assert_eq!(batch.requests[1].priority, 9);
        assert_eq!(batch.requests[1].k, 5);
    }

    #[test]
    fn rejects_protocol_violations_with_recovered_id() {
        for (line, needle, id) in [
            ("not json", "invalid JSON", ""),
            ("[1,2]", "must be a JSON object", ""),
            (r#"{"id":"x","blif":""}"#, "missing \"proto\"", "x"),
            (
                r#"{"proto":"chortle-serve/v9","id":"x","blif":""}"#,
                "unsupported protocol",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","zap":1}"#,
                "unknown key",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"fold"}"#,
                "unknown op",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x"}"#,
                "requires a \"blif\"",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"flush","blif":""}"#,
                "only valid for op \"map\"",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"stats","jobs":2}"#,
                "only valid for op \"map\"",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"trace","deadline_ms":5}"#,
                "only valid for op \"map\"",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","blif":"","k":-1}"#,
                "non-negative integer",
                "x",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","blif":"","cache":"ram"}"#,
                "\"cache\" must be",
                "x",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.detail.contains(needle), "{line}: {}", err.detail);
            assert_eq!(err.id, id, "{line}");
        }
    }

    #[test]
    fn v2_ops_and_keys_are_rejected_on_v1_frames() {
        for (line, needle) in [
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"hello"}"#,
                "requires \"chortle-serve/v2\"",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"map_batch"}"#,
                "unknown key", // "requests" missing, but op itself needs none; rejected below
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","blif":"","priority":1}"#,
                "unknown key \"priority\"",
            ),
            (
                r#"{"proto":"chortle-serve/v1","id":"x","op":"map_batch","requests":[]}"#,
                "unknown key \"requests\"",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.version, V1, "{line}");
            // The second case has no unknown keys; it fails on the op.
            if line.contains("\"op\":\"map_batch\"}") {
                assert!(err.detail.contains("requires"), "{line}: {}", err.detail);
            } else {
                assert!(err.detail.contains(needle), "{line}: {}", err.detail);
            }
        }
    }

    #[test]
    fn rejects_malformed_v2_batches() {
        let frame = |body: &str| format!(r#"{{"proto":"{PROTOCOL_V2}","id":"b",{body}}}"#);
        for (body, needle) in [
            (r#""op":"map_batch""#, "requires a \"requests\" array"),
            (r#""op":"map_batch","requests":[]"#, "must not be empty"),
            (
                r#""op":"map_batch","requests":[{"k":4}]"#,
                "requests[0]: op \"map\" requires a \"blif\"",
            ),
            (
                r#""op":"map_batch","requests":[{"blif":"","id":"inner"}]"#,
                "requests[0] has unknown key \"id\"",
            ),
            (
                r#""op":"map_batch","requests":[{"blif":"","priority":99}]"#,
                "\"priority\" must be 0..=9",
            ),
            (
                r#""op":"map","requests":[{"blif":""}],"blif":"""#,
                "only valid for op \"map_batch\"",
            ),
            (r#""op":"hello","priority":2"#, "\"priority\""),
        ] {
            let err = parse_request(&frame(body)).unwrap_err();
            assert!(err.detail.contains(needle), "{body}: {}", err.detail);
        }
    }

    /// Golden v1 frames: the renderer must keep producing exactly these
    /// bytes — v1 clients parse positionally-fragile hand-rolled JSON,
    /// so the v1 wire image is frozen.
    #[test]
    fn golden_v1_frames_round_trip() {
        let req = MapRequest {
            blif: ".model m\n.end\n".into(),
            k: 5,
            jobs: 2,
            cache: chortle::CacheMode::Tree,
            objective: chortle::Objective::Depth,
            optimize: false,
            deadline_ms: Some(125),
            priority: 0,
            design: false,
            trace_id: String::new(),
        };
        let line = render_map_request(V1, "rt", &req);
        assert_eq!(
            line,
            "{\"proto\":\"chortle-serve/v1\",\"id\":\"rt\",\"op\":\"map\",\
             \"blif\":\".model m\\n.end\\n\",\"k\":5,\"jobs\":2,\"cache\":\"tree\",\
             \"objective\":\"depth\",\"optimize\":false,\"deadline_ms\":125}"
        );
        let parsed = parse_request(&line).expect("round trips");
        assert_eq!(parsed.id, "rt");
        assert_eq!(parsed.version, V1);
        assert_eq!(parsed.op, Op::Map(req));

        let rejected = render_rejected(V1, "d", RejectReason::QueueFull, "queue is full", None);
        assert_eq!(
            rejected,
            "{\"proto\":\"chortle-serve/v1\",\"id\":\"d\",\"status\":\"rejected\",\
             \"reason\":\"queue_full\",\"detail\":\"queue is full\"}"
        );
        // v1 never grows hint keys, and over_quota is downgraded to the
        // spelling v1 clients know.
        let hint = ShedHint {
            retry_after_ms: 9,
            client_queue_depth: 4,
        };
        let rejected = render_rejected(V1, "d", RejectReason::OverQuota, "over quota", Some(&hint));
        assert!(!rejected.contains("retry_after_ms"), "{rejected}");
        assert!(rejected.contains("\"reason\":\"queue_full\""), "{rejected}");

        for op in [Op::Flush, Op::Stats, Op::Trace, Op::Shutdown] {
            let line = render_admin_request(V1, "a1", &op);
            let parsed = parse_request(&line).expect("round trips");
            assert_eq!((parsed.id.as_str(), parsed.op), ("a1", op));
            assert_eq!(parsed.version, V1);
        }
    }

    /// Golden v2 frames: pinned the same way so v2 cannot drift either.
    #[test]
    fn golden_v2_frames_round_trip() {
        let mut req = MapRequest {
            blif: ".model m\n.end\n".into(),
            priority: 7,
            ..MapRequest::default()
        };
        req.deadline_ms = Some(50);
        let line = render_map_request(V2, "rt", &req);
        assert_eq!(
            line,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"rt\",\"op\":\"map\",\
             \"blif\":\".model m\\n.end\\n\",\"k\":4,\"jobs\":0,\"cache\":\"shared\",\
             \"objective\":\"area\",\"optimize\":true,\"deadline_ms\":50,\"priority\":7}"
        );
        let parsed = parse_request(&line).expect("round trips");
        assert_eq!(parsed.version, V2);
        assert_eq!(parsed.op, Op::Map(req.clone()));

        let batch = render_batch_request("b1", std::slice::from_ref(&req));
        assert_eq!(
            batch,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"b1\",\"op\":\"map_batch\",\
             \"requests\":[{\"blif\":\".model m\\n.end\\n\",\"k\":4,\"jobs\":0,\
             \"cache\":\"shared\",\"objective\":\"area\",\"optimize\":true,\
             \"deadline_ms\":50,\"priority\":7}]}"
        );
        let parsed = parse_request(&batch).expect("round trips");
        assert_eq!(
            parsed.op,
            Op::MapBatch(BatchRequest {
                requests: vec![req]
            })
        );

        let hint = ShedHint {
            retry_after_ms: 12,
            client_queue_depth: 8,
        };
        let rejected = render_rejected(V2, "d", RejectReason::OverQuota, "try later", Some(&hint));
        assert_eq!(
            rejected,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"d\",\"status\":\"rejected\",\
             \"reason\":\"over_quota\",\"detail\":\"try later\",\
             \"retry_after_ms\":12,\"client_queue_depth\":8}"
        );

        let hello = render_hello_ok(
            "h",
            &ServerLimits {
                quota: 8,
                queue_depth: 64,
                batch_limit: 64,
            },
        );
        assert_eq!(
            hello,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"h\",\"status\":\"ok\",\"op\":\"hello\",\
             \"versions\":[\"chortle-serve/v1\",\"chortle-serve/v2\"],\
             \"quota\":8,\"queue\":64,\"batch_limit\":64}"
        );

        let line = render_admin_request(V2, "h", &Op::Hello);
        let parsed = parse_request(&line).expect("round trips");
        assert_eq!(parsed.op, Op::Hello);
    }

    /// Golden trace_id frames: rendered only when non-empty (so every
    /// pre-trace_id golden above is untouched), echoed verbatim in the
    /// payload and the trace-ring entries.
    #[test]
    fn golden_trace_id_frames_round_trip() {
        let req = MapRequest {
            blif: ".model m\n.end\n".into(),
            trace_id: "t-42".into(),
            ..MapRequest::default()
        };
        let line = render_map_request(V2, "rt", &req);
        assert_eq!(
            line,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"rt\",\"op\":\"map\",\
             \"blif\":\".model m\\n.end\\n\",\"k\":4,\"jobs\":0,\"cache\":\"shared\",\
             \"objective\":\"area\",\"optimize\":true,\"priority\":0,\"trace_id\":\"t-42\"}"
        );
        let parsed = parse_request(&line).expect("round trips");
        assert_eq!(parsed.op, Op::Map(req.clone()));

        // v1 predates trace_id: the key is unknown there.
        let v1 =
            format!(r#"{{"proto":"{PROTOCOL_V1}","id":"rt","op":"map","blif":"","trace_id":"t"}}"#);
        let err = parse_request(&v1).unwrap_err();
        assert!(err.detail.contains("trace_id"), "{}", err.detail);
        // Admin ops refuse it like priority.
        let admin = format!(r#"{{"proto":"{PROTOCOL_V2}","op":"stats","trace_id":"t"}}"#);
        let err = parse_request(&admin).unwrap_err();
        assert!(err.detail.contains("only valid"), "{}", err.detail);

        // Batch frames default their entries, entries override.
        let batch = format!(
            r#"{{"proto":"{PROTOCOL_V2}","id":"b","op":"map_batch","trace_id":"t-b","requests":[{{"blif":""}},{{"blif":"","trace_id":"t-own"}}]}}"#
        );
        let parsed = parse_request(&batch).expect("parses");
        let Op::MapBatch(batch) = parsed.op else {
            panic!("expected map_batch")
        };
        assert_eq!(batch.requests[0].trace_id, "t-b");
        assert_eq!(batch.requests[1].trace_id, "t-own");

        let payload = MapPayload {
            luts: 1,
            depth: 1,
            cache_generation: 0,
            run_ns: 5_000,
            netlist: ".model mapped\n.end\n".into(),
            report_json: "{\"a\":1}".into(),
            trace_id: "t-42".into(),
        };
        let ok = render_map_ok(V2, "rt", &payload);
        assert_eq!(
            ok,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"rt\",\"status\":\"ok\",\
             \"op\":\"map\",\"luts\":1,\"depth\":1,\"cache_generation\":0,\
             \"run_ns\":5000,\"trace_id\":\"t-42\",\
             \"netlist\":\".model mapped\\n.end\\n\",\"report\":{\"a\":1}}"
        );

        let ring = [RequestTrace {
            id: "rt".into(),
            outcome: "ok".into(),
            queue_ns: 10,
            run_ns: 20,
            luts: 1,
            depth: 1,
            trace_id: "t-42".into(),
        }];
        let trace = render_trace_ok(V2, "e", 8, &ring);
        assert_eq!(
            trace,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"e\",\"status\":\"ok\",\
             \"op\":\"trace\",\"capacity\":8,\"requests\":[{\"id\":\"rt\",\
             \"outcome\":\"ok\",\"trace_id\":\"t-42\",\"queue_ns\":10,\
             \"run_ns\":20,\"luts\":1,\"depth\":1}]}"
        );
    }

    /// Golden metrics frames: the v2-only windowed snapshot, validated
    /// against the schema v1.7 windowed-metrics fragment.
    #[test]
    fn golden_metrics_frames_round_trip() {
        let line = render_admin_request(V2, "m", &Op::Metrics);
        assert_eq!(
            line,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"m\",\"op\":\"metrics\"}"
        );
        let parsed = parse_request(&line).expect("parses");
        assert_eq!(parsed.op, Op::Metrics);

        let v1 = format!(r#"{{"proto":"{PROTOCOL_V1}","op":"metrics"}}"#);
        let err = parse_request(&v1).unwrap_err();
        assert!(err.detail.contains("requires"), "{}", err.detail);

        let snap = MetricsSnapshot {
            window_s: 60,
            seconds: 2,
            qps: 3.0,
            shed_rate: 0.25,
            cache_hit_rate: 0.5,
            fn_cache_hit_rate: 0.0,
            p50_ns: 725,
            p95_ns: 1024,
            p99_ns: 1024,
            window_accepted: 6,
            window_completed: 6,
            window_shed: 2,
            cumulative_accepted: 6,
            cumulative_completed: 6,
            cumulative_shed: 2,
        };
        let ok = render_metrics_ok("m", &snap);
        assert_eq!(
            ok,
            "{\"proto\":\"chortle-serve/v2\",\"id\":\"m\",\"status\":\"ok\",\
             \"op\":\"metrics\",\"window_s\":60,\"seconds\":2,\"qps\":3,\
             \"shed_rate\":0.25,\"cache_hit_rate\":0.5,\"fn_cache_hit_rate\":0,\
             \"p50_ns\":725,\"p95_ns\":1024,\"p99_ns\":1024,\
             \"window\":{\"accepted\":6,\"completed\":6,\"shed\":2},\
             \"cumulative\":{\"accepted\":6,\"completed\":6,\"shed\":2}}"
        );
        let value = chortle_telemetry::json::parse(&ok).expect("reparses");
        // Strip the response envelope; the rest is the fragment.
        let fragment: Vec<(String, Value)> = value
            .as_object()
            .unwrap()
            .iter()
            .filter(|(k, _)| !matches!(k.as_str(), "proto" | "id" | "status" | "op"))
            .cloned()
            .collect();
        chortle_telemetry::schema::validate_metrics_fragment(&Value::Object(fragment))
            .expect("fragment validates");
    }

    /// The v1 stats shape is frozen: no trace_dropped key.
    #[test]
    fn v1_stats_shape_has_no_trace_dropped() {
        let line = render_stats_ok(
            V1,
            "s",
            &StatsGauges {
                trace_dropped: 9,
                ..StatsGauges::default()
            },
            &WarmStats::default(),
            "{}",
        );
        assert!(!line.contains("trace_dropped"), "{line}");
        let v2 = render_stats_ok(
            V2,
            "s",
            &StatsGauges {
                trace_dropped: 9,
                ..StatsGauges::default()
            },
            &WarmStats::default(),
            "{}",
        );
        assert!(v2.contains("\"trace_dropped\":9"), "{v2}");
    }

    #[test]
    fn responses_are_one_line_and_reparse() {
        let ring = [RequestTrace {
            id: "m1".into(),
            outcome: "ok".into(),
            queue_ns: 1200,
            run_ns: 34000,
            luts: 5,
            depth: 2,
            trace_id: String::new(),
        }];
        let payload = MapPayload {
            luts: 3,
            depth: 2,
            cache_generation: 7,
            run_ns: 41_000,
            netlist: ".model mapped\n.end\n".into(),
            report_json: "{\"schema\":\"x\"}".into(),
            trace_id: String::new(),
        };
        let cases = [
            render_map_ok(V1, "a", &payload),
            render_flush_ok(V1, "b", 8),
            render_stats_ok(
                V2,
                "",
                &StatsGauges {
                    cache_generation: 0,
                    uptime_s: 12,
                    queue_depth: 1,
                    queue_high_water: 3,
                    trace_dropped: 2,
                },
                &WarmStats {
                    shapes: 5,
                    fn_entries: 2,
                    hits: 10,
                    misses: 4,
                    fn_hits: 3,
                    fn_misses: 1,
                },
                "{\"schema\":\"x\"}",
            ),
            render_shutdown_ok(V1, "c"),
            render_rejected(V1, "d", RejectReason::QueueFull, "queue is full", None),
            render_trace_ok(V2, "e", 128, &ring),
            render_batch_ok(
                "f",
                &[
                    BatchItem::Mapped(payload.clone()),
                    BatchItem::Rejected {
                        reason: RejectReason::OverQuota,
                        detail: "quota".into(),
                        hint: Some(ShedHint {
                            retry_after_ms: 4,
                            client_queue_depth: 2,
                        }),
                    },
                ],
            ),
        ];
        for line in &cases {
            assert!(!line.contains('\n'), "{line}");
            let value = chortle_telemetry::json::parse(line).expect("reparses");
            let proto = value.get("proto").and_then(Value::as_str).unwrap();
            assert!(PROTOCOLS.contains(&proto), "{line}");
        }
        // Netlist newlines survive the JSON round trip.
        let map = chortle_telemetry::json::parse(&cases[0]).unwrap();
        assert_eq!(
            map.get("netlist").and_then(Value::as_str),
            Some(".model mapped\n.end\n")
        );
        assert_eq!(map.get("cache_generation").and_then(Value::as_u64), Some(7));
        assert_eq!(map.get("run_ns").and_then(Value::as_u64), Some(41_000));
        let stats = chortle_telemetry::json::parse(&cases[2]).unwrap();
        assert_eq!(stats.get("uptime_s").and_then(Value::as_u64), Some(12));
        assert_eq!(stats.get("trace_dropped").and_then(Value::as_u64), Some(2));
        assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(1));
        assert_eq!(
            stats.get("queue_high_water").and_then(Value::as_u64),
            Some(3)
        );
        let tiers = stats.get("cache").expect("stats carries a cache object");
        assert_eq!(tiers.get("shapes").and_then(Value::as_u64), Some(5));
        assert_eq!(tiers.get("fn_entries").and_then(Value::as_u64), Some(2));
        assert_eq!(tiers.get("hits").and_then(Value::as_u64), Some(10));
        assert_eq!(tiers.get("misses").and_then(Value::as_u64), Some(4));
        assert_eq!(tiers.get("fn_hits").and_then(Value::as_u64), Some(3));
        assert_eq!(tiers.get("fn_misses").and_then(Value::as_u64), Some(1));
        let rej = chortle_telemetry::json::parse(&cases[4]).unwrap();
        assert_eq!(
            rej.get("reason").and_then(Value::as_str),
            Some("queue_full")
        );
        let trace = chortle_telemetry::json::parse(&cases[5]).unwrap();
        assert_eq!(trace.get("capacity").and_then(Value::as_u64), Some(128));
        let reqs = trace.get("requests").and_then(Value::as_array).unwrap();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].get("outcome").and_then(Value::as_str), Some("ok"));
        assert_eq!(reqs[0].get("queue_ns").and_then(Value::as_u64), Some(1200));
        let batch = chortle_telemetry::json::parse(&cases[6]).unwrap();
        let results = batch.get("results").and_then(Value::as_array).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(
            results[1].get("retry_after_ms").and_then(Value::as_u64),
            Some(4)
        );
    }
}
