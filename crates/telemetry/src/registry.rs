//! The metric registry: every stage, counter, and histogram name the
//! pipeline reports, declared once with its [`Kind`] (and [`Unit`], for
//! histograms) and one line of help text that states its contracts.
//! The emitting crates re-export their group (`chortle::stats` is
//! [`mapper`], `chortle_logic_opt::stats` [`opt`], `chortle_cli::stats`
//! [`flow`], `chortle_server::stats` [`serve`]); the closed namespaces of
//! [`crate::schema::validate_report`], the HELP lines of [`crate::prom`]
//! and the units of [`crate::Report::to_text`] derive from [`METRICS`].
//! Adding a metric is one line here plus the code that emits it. Nothing
//! on a hot path reads the table.

/// What a registered name measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A stage span: wall seconds and a call count.
    Stage,
    /// A monotone counter.
    Counter,
    /// A log-bucketed histogram whose samples are in the given unit.
    Histogram(Unit),
}

/// The unit of a histogram's samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Wall time, in nanoseconds.
    Nanoseconds,
    /// A plain count; the help text says of what.
    Count,
}

impl Unit {
    /// The unit's name, as the Prometheus HELP line spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Nanoseconds => "nanoseconds",
            Unit::Count => "count",
        }
    }
}

/// One registered metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// The telemetry name (e.g. `dp.divisions`).
    pub name: &'static str,
    /// What the name measures.
    pub kind: Kind,
    /// One line of help text.
    pub help: &'static str,
}

/// The closed counter namespaces: a counter whose name starts with one
/// of these must be registered as a counter, or
/// [`crate::schema::validate_report`] rejects the report. `serve.` was
/// closed in schema v1.2, `trace.` in v1.3, `cache.` in v1.5 (with the
/// functional tier), `design.` and `blif.` in v1.6, `log.` in v1.7 —
/// each is a cross-surface contract (CLI, daemon, loadgen, dashboards)
/// that must not grow undocumented names. Every other namespace is open.
pub const CLOSED_NAMESPACES: &[&str] = &["serve.", "trace.", "cache.", "design.", "blif.", "log."];

/// The registered metric called `name`, if any.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// The closed namespace `name` falls under, if any.
pub fn closed_namespace(name: &str) -> Option<&'static str> {
    CLOSED_NAMESPACES
        .iter()
        .copied()
        .find(|ns| name.starts_with(ns))
}

const STAGE: Kind = Kind::Stage;
const COUNTER: Kind = Kind::Counter;
const NS: Kind = Kind::Histogram(Unit::Nanoseconds);
const COUNT: Kind = Kind::Histogram(Unit::Count);

/// Declares each group as a module of name constants, documented by
/// their help text, and collects every line into [`METRICS`].
macro_rules! registry {
    ($(
        $(#[$group_doc:meta])*
        mod $group:ident {
            $($constant:ident = $name:literal, $kind:expr, $help:literal;)*
        }
    )*) => {
        $(
            $(#[$group_doc])*
            pub mod $group {
                $(#[doc = $help] pub const $constant: &str = $name;)*
            }
        )*
        /// Every registered metric, group by group in declaration order.
        pub const METRICS: &[Metric] = &[
            $($(Metric { name: $group::$constant, kind: $kind, help: $help },)*)*
        ];
    };
}

registry! {
    /// The mapper's names (`chortle::stats`; DESIGN.md §10). Every
    /// counter except the `sched.*` schedule echoes is a pure function of
    /// the input network and the options: identical totals for any `jobs`.
    mod mapper {
        STAGE_NORMALIZE = "map.normalize", STAGE, "Network normalization (Network::simplified).";
        STAGE_FOREST = "map.forest", STAGE, "Fanout-free forest construction.";
        STAGE_SPLIT = "map.split", STAGE, "Wide-node pre-splitting.";
        STAGE_CANON = "map.canon", STAGE, "Canonical reordering and renumbering of every tree; runs in every cache mode so the produced circuit never depends on the cache setting.";
        STAGE_DP = "map.dp", STAGE, "The subset-DP mapping of every tree, wavefront by wavefront, on up to jobs executors.";
        STAGE_FNMETA = "map.fnmeta", STAGE, "Functional-tier key material: packed truth tables, their NPN canonical forms (memoized per distinct table) and blind skeleton fingerprints. Runs only under CacheMode::Fn.";
        STAGE_EMIT = "map.emit", STAGE, "LUT-circuit reconstruction and emission.";
        STAGE_PACK = "map.pack", STAGE, "The opt-in don't-care packing post-pass plus its per-circuit equivalence verification (--pack dc only).";
        PACK_DROPPED_INPUTS = "pack.dropped_inputs", COUNTER, "LUT inputs dropped by the don't-care packing post-pass. Emitted only under PackMode::Dc.";
        PACK_REMOVED_LUTS = "pack.removed_luts", COUNTER, "LUTs removed by the packing post-pass: constants, buffers collapsed into their source, and exact duplicates merged. Emitted only under PackMode::Dc.";
        DP_DIVISIONS = "dp.divisions", COUNTER, "Utilization divisions enumerated by the DP kernels (paper Section 3.1.2).";
        DP_GROUP_BLOCKS = "dp.group_blocks", COUNTER, "Intermediate-node blocks examined by the submask walks (paper Section 3.1.3).";
        DP_PRUNED_WALKS = "dp.pruned_walks", COUNTER, "Submask walks skipped by the nd_feasible prune.";
        DP_TREE_NODES = "dp.tree_nodes", COUNTER, "Tree nodes pushed through a DP kernel.";
        DP_SCRATCH_HITS = "dp.scratch_hits", COUNTER, "Nodes served from the tree-local scratch high-water capacity (tree-local, not the physical arena, so the count is jobs-independent).";
        DP_SCRATCH_GROWS = "dp.scratch_grows", COUNTER, "Nodes that raised the tree-local scratch high-water mark.";
        MAP_NODES_SPLIT = "map.nodes_split", COUNTER, "Wide tree nodes halved before mapping.";
        MAP_TREES = "map.trees", COUNTER, "Fanout-free trees in the mapped forest.";
        CACHE_HITS = "cache.hits", COUNTER, "Trees whose DP solution replays a cache key seen earlier in tree order. Derived from the forest, not from lock traffic, so identical for every jobs value. Emitted only when caching is on (CacheMode::Off emits no cache.* counters).";
        CACHE_MISSES = "cache.misses", COUNTER, "Distinct cache keys in the forest: the trees that pay for a full subset-DP run. cache.hits + cache.misses == map.trees outside CacheMode::Fn.";
        CACHE_SHARDS = "cache.shards", COUNTER, "Shards of the DP-result cache: a configuration echo, 16 per mapping call whenever caching is on (every caching mode uses the one sharded store), so identical for every jobs value; a design run adds one echo per cloud.";
        CACHE_REPLAYED_LUTS = "cache.replayed_luts", COUNTER, "LUTs emitted from replayed (cache-hit) solutions.";
        CACHE_FN_HITS = "cache.fn_hits", COUNTER, "Trees served by the functional tier: a structural miss whose (NPN class, blind skeleton, depths) key was seen earlier in tree order. Derived like cache.hits; emitted only under CacheMode::Fn, where cache.hits + cache.fn_hits + cache.misses == map.trees.";
        CACHE_FN_MISSES = "cache.fn_misses", COUNTER, "Functional-tier-eligible trees (at most 6 leaves) that missed both tiers and paid for a full solve; never more than cache.misses. Emitted only under CacheMode::Fn.";
        CACHE_FN_REPLAYED_LUTS = "cache.fn_replayed_luts", COUNTER, "LUTs emitted from functional-tier replays. Emitted only under CacheMode::Fn.";
        SCHED_CHUNKS = "sched.chunks", COUNTER, "Chunks submitted to the work-stealing pool (inline wavefronts contribute none). Deterministic given the options and the host, but like every sched.* counter a schedule echo, excluded from the any-jobs-identical counter contract.";
        SCHED_STEALS = "sched.steals", COUNTER, "Chunks taken from a deque other than their owner's: the work-stealing traffic. A schedule echo, nondeterministic by nature.";
        SCHED_INLINE_WAVES = "sched.inline_waves", COUNTER, "Wavefronts that fell through to the inline path on the calling thread (too little estimated work, or a single chunk or executor; every wavefront at jobs = 1). A schedule echo.";
        SCHED_POOLED_WAVES = "sched.pooled_waves", COUNTER, "Wavefronts executed on the process-wide chunk pool. A schedule echo.";
        HIST_TREE_NS = "map.tree_ns", NS, "Per-tree mapping wall time. Bucketing is exact and merging is associative, but wall time itself varies run to run.";
        HIST_TREE_WORK = "dp.tree_work", COUNT, "Per-tree DP work in utilization divisions: a deterministic distribution, bit-identical for every jobs value and cache mode.";
        DESIGN_CLOUDS = "design.clouds", COUNTER, "Combinational clouds cut from a sequential design and mapped by map_design. Deterministic: a function of the design, not the schedule.";
        DESIGN_LATCHES = "design.latches", COUNTER, "Latches in the flattened sequential design.";
        DESIGN_PASSTHROUGHS = "design.passthroughs", COUNTER, "Sinks (primary outputs or latch data inputs) driven directly by an input or a constant, bypassing mapping.";
        DESIGN_CLOUD_LUTS = "design.cloud_luts", COUNTER, "LUTs across all mapped clouds of the design.";
        HIST_CLOUD_WORK = "design.cloud_work", COUNT, "Per-cloud gate count: a deterministic size distribution, bit-identical for every jobs value and cache mode (clouds are numbered in sink order).";
        BLIF_LOGICAL_LINES = "blif.logical_lines", COUNTER, "Logical (continuation-joined, comment-stripped) lines the streaming BLIF reader consumed.";
        BLIF_MODELS = "blif.models", COUNTER, ".model blocks in the parsed file.";
        BLIF_SUBCKTS = "blif.subckts", COUNTER, ".subckt instantiations expanded during flattening.";
        BLIF_LATCHES = "blif.latches", COUNTER, ".latch directives across all models.";
        BLIF_EXDC_BLOCKS = "blif.exdc_blocks", COUNTER, ".exdc blocks skipped by the reader.";
    }

    /// The MIS-style optimization script's names (`chortle_logic_opt::stats`).
    mod opt {
        STAGE_ELIMINATE = "opt.eliminate", STAGE, "Node elimination (MIS eliminate).";
        STAGE_MINIMIZE = "opt.minimize", STAGE, "Cheap per-node SOP minimization (both passes).";
        STAGE_EXACT = "opt.exact", STAGE, "Exact two-level minimization (when enabled).";
        STAGE_HEURISTIC = "opt.heuristic", STAGE, "Espresso-style heuristic minimization (when enabled).";
        STAGE_KERNELS = "opt.kernels", STAGE, "Greedy kernel extraction.";
        STAGE_CUBES = "opt.cubes", STAGE, "Greedy cube extraction.";
        STAGE_FACTOR = "opt.factor", STAGE, "Factoring the SOP network back into an AND/OR network.";
        ELIMINATED = "opt.eliminated", COUNTER, "Nodes eliminated by inlining.";
        EXTRACTED = "opt.extracted", COUNTER, "Kernels plus cubes extracted as new nodes.";
        LITERALS_SAVED = "opt.literals_saved", COUNTER, "SOP literals removed by the whole script.";
    }

    /// The flow-level stages (`chortle_cli::stats`), which the daemon's
    /// per-request pipeline shares so its reports read the same.
    mod flow {
        STAGE_PARSE = "flow.parse", STAGE, "BLIF parsing.";
        STAGE_OPTIMIZE = "flow.optimize", STAGE, "The MIS-style optimization script (when enabled).";
        STAGE_MAP = "flow.map", STAGE, "Technology mapping.";
        STAGE_VERIFY = "flow.verify", STAGE, "Functional equivalence verification (when enabled).";
        STAGE_RENDER = "flow.render", STAGE, "Serializing the mapped circuit.";
    }

    /// The daemon's aggregate names (`chortle_server::stats`); its
    /// counters are the closed `serve.*` namespace.
    mod serve {
        CONNECTIONS = "serve.connections", COUNTER, "TCP connections accepted (absent in --stdio mode).";
        ACCEPTED = "serve.accepted", COUNTER, "Map requests admitted to the queue (batch entries count individually).";
        COMPLETED = "serve.completed", COUNTER, "Map requests completed successfully.";
        REJECTED_QUEUE_FULL = "serve.rejected_queue_full", COUNTER, "Map requests shed at admission: the whole family (global queue_full plus per-client over_quota), keeping the pre-v1.4 meaning of refused for load.";
        REJECTED_DEADLINE = "serve.rejected_deadline", COUNTER, "Map requests whose deadline expired (queued or mid-map).";
        REJECTED_BAD_REQUEST = "serve.rejected_bad_request", COUNTER, "Malformed requests (protocol or BLIF).";
        REJECTED_SHUTDOWN = "serve.rejected_shutdown", COUNTER, "Map requests refused during shutdown.";
        DRAINED = "serve.drained", COUNTER, "Admitted requests completed after shutdown began: the graceful-drain guarantee, made visible.";
        FLUSHES = "serve.flushes", COUNTER, "Warm-cache flush requests served.";
        STATS_REQUESTS = "serve.stats_requests", COUNTER, "stats introspection requests served.";
        TRACE_REQUESTS = "serve.trace_requests", COUNTER, "trace introspection requests served.";
        HELLO_REQUESTS = "serve.hello_requests", COUNTER, "hello version-negotiation requests served (v2).";
        BATCH_FRAMES = "serve.batch_frames", COUNTER, "map_batch frames received (v2).";
        BATCH_REQUESTS = "serve.batch_requests", COUNTER, "Individual requests carried inside map_batch frames.";
        COALESCED_FRAMES = "serve.coalesced_frames", COUNTER, "Response frames that shared a write with frames already buffered for the same connection.";
        ADMISSION_ADMITTED = "serve.admission.admitted", COUNTER, "Offers admitted by the fair admission queue.";
        ADMISSION_SHED_OVER_QUOTA = "serve.admission.shed_over_quota", COUNTER, "Offers shed because the client's quota was in use.";
        ADMISSION_SHED_QUEUE_FULL = "serve.admission.shed_queue_full", COUNTER, "Offers shed because the global queue was at capacity.";
        ADMISSION_HINTED = "serve.admission.hinted", COUNTER, "v2 rejections that carried a retry_after_ms hint.";
        METRICS_REQUESTS = "serve.metrics_requests", COUNTER, "Windowed metrics introspection requests served (v2).";
        STAGE_REQUEST = "serve.request", STAGE, "Wall time of each worker-executed request (queue wait excluded).";
        HIST_QUEUE_NS = "serve.queue_ns", NS, "Time each admitted job waited in the queue before a worker picked it up.";
        HIST_RUN_NS = "serve.run_ns", NS, "Time each job spent executing on its worker: the same values echoed per response as run_ns, so clients can rebuild this histogram bucket-for-bucket.";
        HIST_CLIENT_DEPTH = "serve.admission.client_depth", COUNT, "The admitting client's queued plus in-flight requests at each successful admission.";
    }

    /// The observation echoes a tracing handle adds to its own report
    /// (schedule-dependent, exempt from the any-`jobs` identity).
    mod trace {
        EVENTS = "trace.events", COUNTER, "Trace events the handle captured.";
        DROPPED = "trace.dropped", COUNTER, "Trace events dropped because the handle's store was full.";
    }

    /// The logging-volume echoes the structured logger mirrors into its
    /// counter sink (see `crate::log::set_counter_sink`); exempt from the
    /// any-`jobs` identity like `trace.*`.
    mod log {
        EVENTS = "log.events", COUNTER, "Structured log events emitted.";
        ERRORS = "log.errors", COUNTER, "Error-level log events emitted.";
        WARNINGS = "log.warnings", COUNTER, "Warn-level log events emitted.";
        RING_EVICTED = "log.ring_evicted", COUNTER, "Rendered log lines evicted from the bounded in-process ring.";
    }
}
