//! Top-level mapping API: network in, LUT circuit out.
//!
//! [`map_network`] normalizes the network, builds and canonicalizes the
//! fanout-free forest, maps it through the one forest driver
//! ([`crate::parallel`], wavefront by wavefront for any `jobs`), and
//! emits the LUT circuit.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use std::collections::{HashMap, HashSet};

use chortle_netlist::{
    check_equivalence, LutCircuit, LutError, LutSource, Network, NodeId, NodeOp,
};
use chortle_telemetry::{Histogram, Telemetry, TraceScope};

use crate::cache::{CacheKey, CacheMode, FnKey, WarmCache, SHARED_CACHE_SHARDS};
use crate::cancel::CancelToken;
use crate::cover::emit_forest;
use crate::dp::{DpCounters, Objective, ShapeSolution};
use crate::pack::PackMode;
use crate::sched::ChunkPolicy;
use crate::tree::{Fingerprint, FingerprintScratch, Forest, Tree};

/// Names the mapper reports into its [`Telemetry`] sink: the metric
/// registry's [`chortle_telemetry::registry::mapper`] group (whose help
/// text states each metric's contract; see `DESIGN.md` §10), plus the
/// trace-event names, which are not metrics.
pub mod stats {
    pub use chortle_telemetry::registry::mapper::*;

    /// Trace span: one tree's DP mapping (`Tree` scope, index = tree
    /// order; begin arg = tree node count, end arg = the tree's LUT
    /// cost). Emitted in identical sequences for every `jobs` — only the
    /// worker id and timestamps differ between `jobs` settings.
    pub const TRACE_TREE: &str = "map.tree";
    /// Trace instant: the tree is the *first* occurrence of its cache
    /// key in tree order — it pays for a full subset-DP solve (arg =
    /// LUT cost). Derived from the forest, like [`CACHE_HITS`], so the
    /// classification is identical for every `jobs` and cache mode.
    pub const TRACE_SOLVE: &str = "dp.solve";
    /// Trace instant: the tree replays a key seen earlier in tree order
    /// (arg = LUT cost). See [`TRACE_SOLVE`].
    pub const TRACE_REPLAY: &str = "dp.replay";
    /// Trace span: one executor running one chunk of one wavefront
    /// (`Sched` scope, index = wavefront; end arg = trees claimed).
    /// Schedule-dependent by nature — excluded from the deterministic
    /// trace identity.
    pub const TRACE_WORKER: &str = "sched.worker";
}

/// Flushes a scratch arena's accumulated kernel counters into a
/// telemetry sink, resetting them. Safe to call with a disabled sink
/// (each add is then a no-op).
pub(crate) fn flush_dp_counters(telemetry: &Telemetry, counters: &mut DpCounters) {
    let c = counters.take();
    telemetry.add_counter(stats::DP_DIVISIONS, c.divisions);
    telemetry.add_counter(stats::DP_GROUP_BLOCKS, c.group_blocks);
    telemetry.add_counter(stats::DP_PRUNED_WALKS, c.pruned_walks);
    telemetry.add_counter(stats::DP_TREE_NODES, c.tree_nodes);
    telemetry.add_counter(stats::DP_SCRATCH_HITS, c.scratch_hits);
    telemetry.add_counter(stats::DP_SCRATCH_GROWS, c.scratch_grows);
}

/// Configuration of the Chortle mapper.
///
/// Construct through [`MapOptions::builder`]; the struct is
/// `#[non_exhaustive]`, so fields are readable everywhere but new options
/// can be added without breaking downstream crates.
///
/// # Examples
///
/// ```
/// use chortle::{CacheMode, MapOptions};
///
/// let opts = MapOptions::builder(4).build()?;
/// assert_eq!(opts.k, 4);
/// assert_eq!(opts.cache, CacheMode::Shared);
///
/// // The fallible builder covers every knob, including telemetry:
/// let opts = MapOptions::builder(4)
///     .split_threshold(8)?
///     .jobs(2)
///     .cache(CacheMode::Off)
///     .telemetry(chortle::Telemetry::enabled())
///     .build()?;
/// assert_eq!(opts.jobs, 2);
/// # Ok::<(), chortle::MapError>(())
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct MapOptions {
    /// Number of inputs of the target lookup tables (the paper evaluates
    /// K = 2..5).
    pub k: usize,
    /// Fanin bound above which nodes are pre-split into two halves before
    /// the exhaustive decomposition search (the paper uses 10).
    pub split_threshold: usize,
    /// What to minimize: LUT count (the paper's objective, with a depth
    /// tie-break) or LUT depth (with an area tie-break).
    pub objective: Objective,
    /// Executors a forest wavefront may recruit (1 = the calling thread
    /// only, never the pool). Trees are scheduled in dependency
    /// wavefronts on the process-wide chunk pool; every value produces
    /// the identical circuit. The builder resolves 0 to the host's
    /// available parallelism, capped — see [`resolve_jobs`].
    pub jobs: usize,
    /// How the wavefront scheduler groups trees into chunks
    /// ([`ChunkPolicy::Auto`] by default). Every policy produces the
    /// identical circuit, counters, and trace identity — the knob only
    /// trades scheduling overhead against load balance.
    pub chunk: ChunkPolicy,
    /// Observability sink the mapper reports stages, counters, and
    /// wavefront occupancy into. Disabled by default (zero overhead);
    /// see [`Telemetry::enabled`] and the [`stats`] name catalogue.
    pub telemetry: Telemetry,
    /// Cross-tree memoization of DP results ([`CacheMode::Shared`] by
    /// default). Every mode produces the identical circuit — see the
    /// bit-identity contract on [`CacheMode`].
    pub cache: CacheMode,
    /// Cooperative cancellation, polled at every tree boundary. The
    /// default token is inert; a fired token makes
    /// [`map_network`] return [`MapError::Cancelled`] with all partial
    /// work discarded.
    pub cancel: CancelToken,
    /// A process-lifetime [`WarmCache`] consulted (and populated) under
    /// every caching mode, so repeated runs over recurring shapes skip
    /// the subset DP entirely. `None` (the default) keeps caches scoped
    /// to a single run.
    pub warm_cache: Option<WarmCache>,
    /// The opt-in don't-care packing post-pass ([`PackMode::Off`] by
    /// default). [`PackMode::Dc`] shrinks and merges emitted LUTs using
    /// satisfiability don't-cares at LUT boundaries, then verifies the
    /// packed circuit against the source network — see [`PackMode`].
    pub pack: PackMode,
}

impl MapOptions {
    /// Starts a fallible builder over every mapper knob.
    ///
    /// Validation happens as each knob is set (`split_threshold`) or at
    /// [`MapOptionsBuilder::build`] (`k`), so an invalid combination is a
    /// typed [`MapError`] instead of a panic.
    pub fn builder(k: usize) -> MapOptionsBuilder {
        MapOptionsBuilder {
            opts: MapOptions {
                k,
                split_threshold: 10,
                objective: Objective::Area,
                jobs: 1,
                chunk: ChunkPolicy::Auto,
                telemetry: Telemetry::disabled(),
                cache: CacheMode::Shared,
                cancel: CancelToken::default(),
                warm_cache: None,
                pack: PackMode::Off,
            },
        }
    }
}

/// Resolves a user-facing `jobs` request: 0 means "use the host's
/// available parallelism", capped at the scheduler pool's size (16) so
/// auto-sizing never outruns the chunk hand-off cost. An explicit
/// nonzero request is honored verbatim — the scheduler's inline
/// fall-through still protects wavefronts too small to pay for it.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        crate::sched::pool_size()
    } else {
        jobs
    }
}

/// Fallible builder for [`MapOptions`] — see [`MapOptions::builder`].
#[derive(Clone, Debug)]
#[must_use = "call .build() to obtain the options"]
pub struct MapOptionsBuilder {
    opts: MapOptions,
}

impl MapOptionsBuilder {
    /// Sets the node-splitting threshold.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidSplitThreshold`] if `threshold` is
    /// outside `2..=16`.
    pub fn split_threshold(mut self, threshold: usize) -> Result<Self, MapError> {
        if !(2..=16).contains(&threshold) {
            return Err(MapError::InvalidSplitThreshold { threshold });
        }
        self.opts.split_threshold = threshold;
        Ok(self)
    }

    /// Sets the mapping objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.opts.objective = objective;
        self
    }

    /// Sets the worker-thread count (0 = host parallelism, 1 = the
    /// calling thread only).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.opts.jobs = resolve_jobs(jobs);
        self
    }

    /// Sets the wavefront scheduler's chunking policy (the default is
    /// [`ChunkPolicy::Auto`]). Every policy produces the identical
    /// circuit, counters, and trace identity.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidChunk`] for
    /// [`ChunkPolicy::Fixed`]`(0)` — a chunk must hold at least one
    /// tree.
    pub fn chunk(mut self, chunk: ChunkPolicy) -> Result<Self, MapError> {
        if chunk == ChunkPolicy::Fixed(0) {
            return Err(MapError::InvalidChunk);
        }
        self.opts.chunk = chunk;
        Ok(self)
    }

    /// Attaches a telemetry sink.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.opts.telemetry = telemetry;
        self
    }

    /// Selects how DP results are memoized across trees (the default is
    /// [`CacheMode::Shared`]). Every mode produces the identical circuit;
    /// the knob only trades memory for repeated kernel work.
    pub fn cache(mut self, cache: CacheMode) -> Self {
        self.opts.cache = cache;
        self
    }

    /// Attaches a cancellation token; see [`MapOptions::cancel`].
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.opts.cancel = cancel;
        self
    }

    /// Attaches a process-lifetime warm cache; see
    /// [`MapOptions::warm_cache`]. Ignored under [`CacheMode::Off`].
    pub fn warm_cache(mut self, warm: WarmCache) -> Self {
        self.opts.warm_cache = Some(warm);
        self
    }

    /// Selects the don't-care packing post-pass (the default is
    /// [`PackMode::Off`]); see [`MapOptions::pack`].
    pub fn pack(mut self, pack: PackMode) -> Self {
        self.opts.pack = pack;
        self
    }

    /// Validates the remaining invariants and returns the options.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidK`] if the `k` passed to
    /// [`MapOptions::builder`] is outside `2..=8`.
    pub fn build(self) -> Result<MapOptions, MapError> {
        if !(2..=8).contains(&self.opts.k) {
            return Err(MapError::InvalidK { k: self.opts.k });
        }
        Ok(self.opts)
    }
}

/// Errors returned by [`map_network`] and the fallible
/// [`MapOptions`] constructors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MapError {
    /// Circuit construction failed — indicates an internal inconsistency
    /// between the DP cost model and the reconstruction.
    Circuit(LutError),
    /// A tree node's fanin exceeds what the `u32` subset DP can
    /// enumerate. [`map_network`] pre-splits wide nodes, so this only
    /// reaches callers driving the DP directly with splitting disabled.
    FaninTooWide {
        /// The offending node's fanin.
        fanin: usize,
        /// The largest supported fanin ([`crate::dp::MAX_DP_FANIN`]).
        limit: usize,
    },
    /// The requested LUT input count is unsupported.
    InvalidK {
        /// The rejected value.
        k: usize,
    },
    /// The requested node-splitting threshold is outside `2..=16`.
    InvalidSplitThreshold {
        /// The rejected value.
        threshold: usize,
    },
    /// A fixed chunk size of 0 was requested — a scheduler chunk must
    /// hold at least one tree (use [`ChunkPolicy::Auto`] for adaptive
    /// sizing).
    InvalidChunk,
    /// The run's [`CancelToken`](crate::CancelToken) fired (explicit
    /// cancellation or an expired deadline) before mapping finished.
    /// All partial work was discarded.
    Cancelled,
    /// A scheduler pool worker panicked while mapping a chunk. The
    /// wavefront's partial results were discarded and the worker
    /// survived; this indicates an internal bug, not bad input.
    WorkerPanicked,
    /// The don't-care packing post-pass produced a circuit that failed
    /// equivalence verification against the source network. The packed
    /// circuit was discarded; this indicates an internal bug in the
    /// pack pass, never bad input.
    PackVerification {
        /// Name of the first mismatching output.
        output: String,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Circuit(e) => write!(f, "lookup-table circuit construction failed: {e}"),
            MapError::FaninTooWide { fanin, limit } => write!(
                f,
                "tree node fanin {fanin} exceeds the subset-DP limit of {limit}; \
                 split wide nodes first"
            ),
            MapError::InvalidK { k } => {
                write!(f, "unsupported LUT input count K = {k} (must be 2..=8)")
            }
            MapError::InvalidSplitThreshold { threshold } => {
                write!(
                    f,
                    "split threshold {threshold} out of range (must be 2..=16)"
                )
            }
            MapError::InvalidChunk => {
                write!(f, "chunk size must be at least 1 tree (or \"auto\")")
            }
            MapError::Cancelled => {
                write!(f, "mapping cancelled before completion")
            }
            MapError::WorkerPanicked => {
                write!(
                    f,
                    "a scheduler worker panicked while mapping; partial results discarded"
                )
            }
            MapError::PackVerification { output } => {
                write!(
                    f,
                    "don't-care packing broke output {output:?}; packed circuit discarded"
                )
            }
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LutError> for MapError {
    fn from(e: LutError) -> Self {
        MapError::Circuit(e)
    }
}

/// Statistics of one mapping run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapReport {
    /// Lookup tables in the produced circuit (the paper's cost function).
    pub luts: usize,
    /// Fanout-free trees in the forest.
    pub trees: usize,
    /// Total tree nodes mapped (after splitting).
    pub tree_nodes: usize,
    /// Largest node fanin seen after splitting.
    pub max_fanin: usize,
}

/// A mapped design: the LUT circuit plus mapping statistics.
#[derive(Clone, Debug)]
pub struct Mapping {
    /// The produced circuit of K-input lookup tables. Its
    /// [`LutSource::Input`] references use the *original* network's
    /// primary-input ids, so it verifies directly against the network
    /// passed to [`map_network`].
    pub circuit: LutCircuit,
    /// Mapping statistics.
    pub report: MapReport,
}

/// Maps a Boolean network into a circuit of K-input lookup tables using
/// the Chortle algorithm.
///
/// The network is first normalized ([`Network::simplified`]): constants
/// fold, buffers collapse, dead gates disappear. It is then divided into a
/// forest of maximal fanout-free trees; nodes wider than
/// [`MapOptions::split_threshold`] are split; and each tree is mapped
/// optimally by the utilization-division dynamic program.
///
/// # Errors
///
/// Returns [`MapError`] if circuit construction fails (an internal
/// inconsistency — the cost model and the reconstruction disagree).
///
/// # Examples
///
/// ```
/// use chortle::{map_network, MapOptions};
/// use chortle_netlist::{check_equivalence, Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// let z = net.add_gate(NodeOp::Or, vec![g1.into(), c.into()]);
/// net.add_output("z", z.into());
///
/// let mapped = map_network(&net, &MapOptions::builder(3).build()?)?;
/// assert_eq!(mapped.report.luts, 1); // the whole cone fits a 3-LUT
/// check_equivalence(&net, &mapped.circuit).expect("functionally equivalent");
/// # Ok::<(), chortle::MapError>(())
/// ```
pub fn map_network(network: &Network, options: &MapOptions) -> Result<Mapping, MapError> {
    let mapping = map_network_unechoed(network, options)?;
    echo_cache_shards(options);
    Ok(mapping)
}

/// Echoes the DP-result store's shard count (`cache.shards`) into the
/// telemetry sink when caching is on: a configuration echo, reported
/// once per top-level run however many networks the run maps.
pub(crate) fn echo_cache_shards(options: &MapOptions) {
    if options.cache.is_enabled() {
        let telemetry = &options.telemetry;
        telemetry.add_counter(stats::CACHE_SHARDS, SHARED_CACHE_SHARDS as u64);
    }
}

/// [`map_network`] without the [`echo_cache_shards`] echo, for runs that
/// map several networks and echo once themselves.
pub(crate) fn map_network_unechoed(
    network: &Network,
    options: &MapOptions,
) -> Result<Mapping, MapError> {
    if options.cancel.is_cancelled() {
        return Err(MapError::Cancelled);
    }
    let telemetry = &options.telemetry;
    let normal = {
        let _s = telemetry.span(stats::STAGE_NORMALIZE);
        network.simplified()
    };
    let mut forest = {
        let _s = telemetry.span(stats::STAGE_FOREST);
        Forest::of(&normal)
    };
    // Never split a node that already fits the subset search and the LUT.
    let threshold = options.split_threshold.max(options.k);
    let splits = {
        let _s = telemetry.span(stats::STAGE_SPLIT);
        forest.split_wide_nodes(threshold)
    };
    telemetry.add_counter(stats::MAP_NODES_SPLIT, splits as u64);
    telemetry.add_counter(stats::MAP_TREES, forest.trees.len() as u64);

    // Canonicalize unconditionally — not just when caching — so the
    // emitted circuit is a function of the input and the options alone,
    // never of the cache mode (the bit-identity contract of `CacheMode`).
    let shapes = {
        let _s = telemetry.span(stats::STAGE_CANON);
        Arc::new(forest.canonicalize())
    };

    // Functional-tier key material: depths-independent, so it is
    // computed once here (sequentially, with the NPN canonicalization
    // memoized per distinct packed table) and the per-tree `FnKey` is
    // assembled at DP time from this plus the depth hash the structural
    // key already carries. Empty outside `CacheMode::Fn`.
    let fn_metas: Arc<Vec<Option<FnMeta>>> = if options.cache.uses_fn() {
        let _s = telemetry.span(stats::STAGE_FNMETA);
        Arc::new(compute_fn_metas(&forest.trees))
    } else {
        Arc::new(Vec::new())
    };

    let mut report = MapReport {
        trees: forest.trees.len(),
        ..MapReport::default()
    };
    let mapped = {
        let _s = telemetry.span(stats::STAGE_DP);
        crate::parallel::map_forest_wavefront(&normal, forest.trees, &shapes, &fn_metas, options)?
    };
    // Kernel tallies are summed here, once per tree in tree order —
    // cached replays contribute the tally of the shape they share, and a
    // racing duplicate computation contributes nothing extra — so the
    // dp.* totals are identical to the uncached mapper for any schedule.
    let mut predicted: u64 = 0;
    let mut kernel_tally = DpCounters::default();
    for m in &mapped {
        report.tree_nodes += m.tree.nodes.len();
        report.max_fanin = report.max_fanin.max(m.tree.max_fanin());
        predicted += u64::from(m.sol.dp.tree_cost(&m.tree));
        kernel_tally.add(&m.sol.tally);
    }
    flush_dp_counters(telemetry, &mut kernel_tally);
    report_cache_counters(telemetry, options, &mapped);
    record_tree_work(telemetry, &mapped);
    trace_classification(telemetry, &normal, &shapes, &mapped);

    // Primary inputs survive normalization in order; translate the
    // normal-form ids back to the caller's network ids.
    debug_assert_eq!(normal.num_inputs(), network.num_inputs());
    let mut orig_input = vec![NodeId::from_index(0); normal.len()];
    for (norm_id, orig_id) in normal.inputs().iter().zip(network.inputs()) {
        orig_input[norm_id.index()] = *orig_id;
    }
    let input_source = |id: NodeId| LutSource::Input(orig_input[id.index()]);

    let mut circuit: LutCircuit = {
        let _s = telemetry.span(stats::STAGE_EMIT);
        emit_forest(&normal, &mapped, &input_source, options.k)?
    };
    report.luts = circuit.num_luts();
    debug_assert_eq!(
        report.luts as u64, predicted,
        "DP predicted cost must match the emitted circuit"
    );
    if options.pack == PackMode::Dc {
        let _s = telemetry.span(stats::STAGE_PACK);
        let (packed, pstats) = crate::pack::pack_circuit(&circuit)?;
        // Every packed circuit is verified against the source network
        // before it replaces the exact one — the pass is allowed to be
        // clever precisely because it is never trusted.
        check_equivalence(network, &packed)
            .map_err(|e| MapError::PackVerification { output: e.output })?;
        debug_assert!(packed.num_luts() <= report.luts, "packing never adds LUTs");
        telemetry.add_counter(stats::PACK_DROPPED_INPUTS, pstats.dropped_inputs);
        telemetry.add_counter(stats::PACK_REMOVED_LUTS, pstats.removed_luts);
        report.luts = packed.num_luts();
        circuit = packed;
    }
    Ok(Mapping { circuit, report })
}

/// The depths-independent part of a functional-tier key: leaf-slot
/// count, NPN canonical form of the packed truth table, and the blind
/// skeleton fingerprint. `None` for trees wider than
/// `chortle_mis::MAX_CANON_VARS` leaves, which only the structural tier
/// serves.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FnMeta {
    /// Leaf-slot count (≤ 6).
    pub vars: u8,
    /// NPN canonical form of the tree's packed truth table.
    pub canon: u64,
    /// [`Tree::blind_fingerprint`] of the canonicalized tree.
    pub blind: Fingerprint,
}

impl FnMeta {
    /// Assembles the full functional key by adding the depth hash the
    /// structural key already computed.
    pub(crate) fn key(&self, structural: &CacheKey) -> FnKey {
        FnKey {
            vars: self.vars,
            canon: self.canon,
            blind: self.blind,
            depths: structural.depths,
        }
    }
}

/// Computes every tree's [`FnMeta`]. NPN canonicalization goes through
/// the process-wide memo ([`chortle_mis::canonical_npn_u64_cached`]) —
/// real forests repeat a handful of small functions constantly, and the
/// 6-variable canonical search (720 permutations × a 64-step Gray walk)
/// is far too expensive to rerun per tree, or even per request in the
/// daemon.
fn compute_fn_metas(trees: &[Tree]) -> Vec<Option<FnMeta>> {
    let mut scratch = FingerprintScratch::default();
    trees
        .iter()
        .map(|tree| {
            let (table, vars) = tree.packed_truth_table()?;
            Some(FnMeta {
                vars: vars as u8,
                canon: chortle_mis::canonical_npn_u64_cached(table, vars),
                blind: tree.blind_fingerprint_with(&mut scratch),
            })
        })
        .collect()
}

/// One mapped tree: the concrete (canonicalized) tree, the DP solution it
/// shares with every other tree of the same cache key, and that key (when
/// caching was on). This is what flows from the mapping drivers into
/// cover emission — reconstruction reads decisions from `sol.dp` and leaf
/// identities from `tree`.
pub(crate) struct MappedTree {
    /// The canonicalized tree.
    pub tree: Tree,
    /// The (possibly shared) DP solution for the tree's shape and leaf
    /// depths.
    pub sol: Arc<ShapeSolution>,
    /// The tree's cache key; `None` under [`CacheMode::Off`].
    pub key: Option<CacheKey>,
    /// The tree's functional-tier key; `None` outside
    /// [`CacheMode::Fn`] and for trees wider than 6 leaves.
    pub fn_key: Option<FnKey>,
}

/// Derives the deterministic `cache.*` counters from the per-tree key
/// sequence, in tree order: a tree is a *hit* when an earlier tree has
/// the same key. Deliberately not counted at the cache data structure —
/// which worker wins a racy insert is schedule-dependent, while this
/// definition is a pure function of the forest.
fn report_cache_counters(telemetry: &Telemetry, options: &MapOptions, mapped: &[MappedTree]) {
    if !telemetry.is_enabled() || !options.cache.is_enabled() {
        return;
    }
    let mut seen: HashSet<CacheKey> = HashSet::with_capacity(mapped.len());
    let mut seen_fn: HashSet<FnKey> = HashSet::new();
    let (mut hits, mut misses, mut replayed) = (0u64, 0u64, 0u64);
    let (mut fn_hits, mut fn_misses, mut fn_replayed) = (0u64, 0u64, 0u64);
    for m in mapped {
        let key = m.key.expect("caching modes key every tree");
        // Attribution is structural-first: a tree both tiers could
        // serve counts as a structural hit, so `cache.hits` is
        // unchanged from `CacheMode::Shared` and `cache.fn_hits` is
        // exactly the *additional* reuse the functional tier unlocks.
        // (The runtime lookup order is functional-first, which is
        // equivalent work-wise: either tier's hit skips the solve.)
        if seen.contains(&key) {
            hits += 1;
            replayed += u64::from(m.sol.dp.tree_cost(&m.tree));
        } else if m.fn_key.is_some_and(|fk| seen_fn.contains(&fk)) {
            fn_hits += 1;
            fn_replayed += u64::from(m.sol.dp.tree_cost(&m.tree));
        } else {
            misses += 1;
            if m.fn_key.is_some() {
                fn_misses += 1;
            }
        }
        seen.insert(key);
        if let Some(fk) = m.fn_key {
            seen_fn.insert(fk);
        }
    }
    {
        // Per-run cache-tier attribution for operators tailing the
        // structured log — the same numbers the counters accumulate,
        // visible per request instead of only in aggregate.
        use chortle_telemetry::log::{self, FieldValue, Level};
        if log::enabled(Level::Debug) {
            log::event(
                Level::Debug,
                "map.cache",
                "cache tier attribution",
                &[
                    ("mode", FieldValue::Str(options.cache.as_str())),
                    ("hits", FieldValue::U64(hits)),
                    ("misses", FieldValue::U64(misses)),
                    ("fn_hits", FieldValue::U64(fn_hits)),
                    ("fn_misses", FieldValue::U64(fn_misses)),
                    ("replayed_luts", FieldValue::U64(replayed)),
                ],
            );
        }
    }
    telemetry.add_counter(stats::CACHE_HITS, hits);
    telemetry.add_counter(stats::CACHE_MISSES, misses);
    telemetry.add_counter(stats::CACHE_REPLAYED_LUTS, replayed);
    if options.cache.uses_fn() {
        telemetry.add_counter(stats::CACHE_FN_HITS, fn_hits);
        telemetry.add_counter(stats::CACHE_FN_MISSES, fn_misses);
        telemetry.add_counter(stats::CACHE_FN_REPLAYED_LUTS, fn_replayed);
    }
}

/// Records the deterministic per-tree work histogram
/// ([`stats::HIST_TREE_WORK`]): one sample per tree, in tree order, of
/// the utilization divisions its solution cost. Replayed trees carry
/// the tally of the shape they share, so the distribution is identical
/// for every `jobs` value and every cache mode.
fn record_tree_work(telemetry: &Telemetry, mapped: &[MappedTree]) {
    if !telemetry.is_enabled() {
        return;
    }
    let mut work = Histogram::new();
    for m in mapped {
        work.record(m.sol.tally.divisions);
    }
    if !work.is_empty() {
        telemetry.merge_histogram(stats::HIST_TREE_WORK, &work);
    }
}

/// Emits the solve-vs-replay classification instants
/// ([`stats::TRACE_SOLVE`] / [`stats::TRACE_REPLAY`]) for a tracing
/// sink. Classification uses the same deterministic first-occurrence
/// definition as [`report_cache_counters`], but recomputes the keys
/// here so [`CacheMode::Off`] runs classify identically to caching runs
/// — the trace identity is a pure function of the forest.
fn trace_classification(
    telemetry: &Telemetry,
    normal: &Network,
    shapes: &[Fingerprint],
    mapped: &[MappedTree],
) {
    if !telemetry.is_tracing() {
        return;
    }
    let mut buf = telemetry.trace_buffer(0);
    let mut depth_of: HashMap<NodeId, u32> = HashMap::new();
    let mut seen: HashSet<CacheKey> = HashSet::with_capacity(mapped.len());
    for (ti, m) in mapped.iter().enumerate() {
        let key = m.key.unwrap_or_else(|| {
            CacheKey::of(&m.tree, shapes[ti], &|id| {
                leaf_arrival(normal, &depth_of, id)
            })
        });
        let name = if seen.insert(key) {
            stats::TRACE_SOLVE
        } else {
            stats::TRACE_REPLAY
        };
        buf.instant(
            TraceScope::Tree,
            ti as u64,
            name,
            u64::from(m.sol.dp.tree_cost(&m.tree)),
        );
        depth_of.insert(m.tree.root, m.sol.dp.tree_depth(&m.tree));
    }
    telemetry.trace_flush(&mut buf);
}

/// Arrival depth of a tree leaf: primary inputs and constants arrive at
/// 0; gate leaves are other trees' roots and arrive at their mapped
/// depth, which must already be recorded in `depth_of`.
fn leaf_arrival(normal: &Network, depth_of: &HashMap<NodeId, u32>, id: NodeId) -> u32 {
    match normal.node(id).op() {
        NodeOp::Input | NodeOp::Const(_) => 0,
        NodeOp::And | NodeOp::Or => *depth_of
            .get(&id)
            .expect("tree leaves are mapped before the tree that reads them"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::{check_equivalence, NodeOp, Signal};

    fn verify(net: &Network, k: usize) -> Mapping {
        let opts = MapOptions::builder(k).build().expect("valid K");
        let mapped = map_network(net, &opts).expect("maps");
        check_equivalence(net, &mapped.circuit).expect("equivalent");
        assert!(mapped.circuit.luts().iter().all(|l| l.utilization() <= k));
        mapped
    }

    #[test]
    fn maps_figure1_style_network_for_all_k() {
        // A two-output network with shared logic and inversions.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let e = net.add_input("e");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::Or, vec![g1.into(), Signal::inverted(c)]);
        let g3 = net.add_gate(NodeOp::And, vec![c.into(), d.into(), e.into()]);
        let g4 = net.add_gate(NodeOp::Or, vec![g2.into(), g3.into()]);
        let g5 = net.add_gate(NodeOp::And, vec![g2.into(), Signal::inverted(g3)]);
        net.add_output("y", g4.into());
        net.add_output("z", g5.into());
        for k in 2..=6 {
            verify(&net, k);
        }
    }

    #[test]
    fn output_driven_by_input_and_const() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let one = net.add_const(true);
        net.add_output("w", Signal::inverted(a));
        net.add_output("k", one.into());
        let mapped = verify(&net, 4);
        assert_eq!(mapped.report.luts, 0);
    }

    #[test]
    fn fanout_trees_reference_each_other() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let shared = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let x = net.add_gate(NodeOp::Or, vec![shared.into(), c.into()]);
        let y = net.add_gate(NodeOp::And, vec![Signal::inverted(shared), c.into()]);
        net.add_output("x", x.into());
        net.add_output("y", y.into());
        let mapped = verify(&net, 3);
        // Three trees (shared, x, y) but shared fits one LUT each.
        assert_eq!(mapped.report.trees, 3);
        assert_eq!(mapped.report.luts, 3);
    }

    #[test]
    fn wide_gates_split_and_map() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..14).map(|i| net.add_input(format!("i{i}"))).collect();
        let g = net.add_gate(
            NodeOp::And,
            inputs.iter().map(|&i| Signal::new(i)).collect(),
        );
        net.add_output("z", g.into());
        for k in [2, 4, 5] {
            let mapped = verify(&net, k);
            let expect = (14 - 1_usize).div_ceil(k - 1);
            assert_eq!(mapped.report.luts, expect, "k={k}");
        }
    }

    #[test]
    fn deep_unbalanced_network() {
        // A long chain with side inputs exercises absorption repeatedly.
        let mut net = Network::new();
        let mut cur: Signal = net.add_input("i0").into();
        for i in 1..12 {
            let side = net.add_input(format!("i{i}"));
            let op = if i % 2 == 0 { NodeOp::And } else { NodeOp::Or };
            let g = net.add_gate(op, vec![cur, side.into()]);
            cur = if i % 3 == 0 {
                Signal::inverted(g)
            } else {
                g.into()
            };
        }
        net.add_output("z", cur);
        for k in 2..=6 {
            let mapped = verify(&net, k);
            // A 12-leaf chain needs about ceil(11/(k-1)) LUTs.
            assert!(mapped.report.luts <= 11_usize.div_ceil(k - 1) + 1);
        }
    }

    #[test]
    fn duplicate_leaf_signals_use_separate_slots() {
        // a feeds the tree twice through different gates: Chortle counts
        // two leaves (no reconvergence analysis), as in the paper.
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let g2 = net.add_gate(NodeOp::And, vec![Signal::inverted(a), Signal::inverted(b)]);
        let z = net.add_gate(NodeOp::Or, vec![g1.into(), g2.into()]);
        net.add_output("z", z.into());
        let mapped = verify(&net, 2);
        // XNOR over 4 tree leaves with K=2 needs 3 LUTs for Chortle.
        assert_eq!(mapped.report.luts, 3);
    }

    #[test]
    fn lut_count_monotone_in_k() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..9).map(|i| net.add_input(format!("i{i}"))).collect();
        let g1 = net.add_gate(
            NodeOp::And,
            inputs[0..4].iter().map(|&i| i.into()).collect(),
        );
        let g2 = net.add_gate(NodeOp::Or, inputs[4..9].iter().map(|&i| i.into()).collect());
        let z = net.add_gate(NodeOp::And, vec![g1.into(), Signal::inverted(g2)]);
        net.add_output("z", z.into());
        let mut last = usize::MAX;
        for k in 2..=8 {
            let mapped = verify(&net, k);
            assert!(mapped.report.luts <= last, "k={k}");
            last = mapped.report.luts;
        }
        assert_eq!(last, 2); // 9 leaves cannot fit one 8-LUT
    }
}
