//! Cross-tree structural memoization of DP results.
//!
//! The subset DP of `dp.rs` is a pure function of a tree's *canonical
//! shape* plus the arrival depths of its leaves — never of leaf
//! identities — so two trees with the same [`CacheKey`] share their
//! entire [`ShapeSolution`]. Real forests repeat shapes constantly
//! (chains, balanced pairs, the halves produced by wide-node splitting),
//! and this module lets the mapper pay for each shape once.
//!
//! There is one store: [`SharedCache`], an N-way sharded map behind
//! [`std::sync::Mutex`] shards, shared by every chunk of a run (or by
//! every run attached to a [`WarmCache`]); hash-partitioning keeps
//! workers from serializing on one lock. The functional tier of
//! [`CacheMode::Fn`] is the same store over [`FnKey`]s.
//!
//! Insertion is first-writer-wins: two workers racing on the same key
//! have computed bit-identical solutions (the DP is deterministic), so
//! whichever lands is correct and the loser's `Arc` is dropped. That, and
//! the fact that replays are verbatim (the forest is canonicalized before
//! mapping), is why every cache mode produces the same circuit as
//! `CacheMode::Off` for every `jobs` value.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use chortle_netlist::{mix64, NodeId};

use crate::dp::{Objective, ShapeSolution};
use crate::tree::{Fingerprint, Tree, TreeChild};

/// How the mapper memoizes DP results across trees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// No memoization: every tree runs the full subset DP (the pre-cache
    /// behavior).
    Off,
    /// An alias of [`CacheMode::Shared`], kept because the v1 wire
    /// format and existing callers name it: it behaves exactly like
    /// `Shared`, warm cache included.
    Tree,
    /// One sharded cache shared across the whole run (the default): a
    /// shape mapped by any worker is a hit for all of them.
    #[default]
    Shared,
    /// [`CacheMode::Shared`] plus a *functional* tier in front of it:
    /// small subtrees (≤ 6 leaves) additionally key their solution on
    /// the NPN class of their truth table and their blind skeleton, so
    /// trees that differ only in gate operations or edge polarities —
    /// structural misses — still reuse each other's DP results.
    /// Lookup order is functional → structural → solve.
    Fn,
}

impl CacheMode {
    /// The modes in the order their names are listed to users.
    const ALL: [CacheMode; 4] = [
        CacheMode::Off,
        CacheMode::Tree,
        CacheMode::Shared,
        CacheMode::Fn,
    ];

    /// The mode's name on the command line and on the wire: `off`,
    /// `tree`, `shared` or `fn`.
    pub const fn as_str(self) -> &'static str {
        match self {
            CacheMode::Off => "off",
            CacheMode::Tree => "tree",
            CacheMode::Shared => "shared",
            CacheMode::Fn => "fn",
        }
    }

    /// Parses a name produced by [`CacheMode::as_str`]; `None` for any
    /// other string (callers word their own error).
    pub fn parse(name: &str) -> Option<CacheMode> {
        CacheMode::ALL.into_iter().find(|m| m.as_str() == name)
    }

    /// Whether this mode caches at all (every mode but `Off` uses the
    /// sharded structural store).
    pub(crate) fn is_enabled(self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// Whether this mode adds the functional (NPN) tier.
    pub(crate) fn uses_fn(self) -> bool {
        matches!(self, CacheMode::Fn)
    }
}

/// The memoization key: canonical shape fingerprint plus a hash of the
/// leaf arrival-depth sequence.
///
/// The depth component matters because `minmap` costs carry wire depths:
/// under the area objective depths break ties, under the depth objective
/// they lead — two trees of identical shape whose leaves arrive at
/// different depths can legitimately choose different decompositions.
/// Both components are 128 bits, so a key collision (which would replay
/// the wrong solution) needs a 2⁻¹²⁸ hash accident.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`Tree::fingerprint`] of the canonicalized tree.
    pub shape: Fingerprint,
    /// Hash of the leaf depths in canonical traversal order.
    pub depths: Fingerprint,
}

impl CacheKey {
    /// Builds the key for a canonicalized `tree` under `leaf_depth`.
    pub(crate) fn of(
        tree: &Tree,
        shape: Fingerprint,
        leaf_depth: &dyn Fn(NodeId) -> u32,
    ) -> CacheKey {
        let mut hi = 0x0D15_EA5E_0000_0001u64;
        let mut lo = 0x0D15_EA5E_0000_0002u64;
        for node in &tree.nodes {
            for child in &node.children {
                if let TreeChild::Leaf(sig) = child {
                    let d = u64::from(leaf_depth(sig.node()));
                    hi = mix64(hi ^ d);
                    lo = mix64(lo.wrapping_add(d) ^ hi);
                }
            }
        }
        CacheKey {
            shape,
            depths: Fingerprint { hi, lo },
        }
    }
}

/// The functional-tier memoization key: the NPN class of the subtree's
/// packed truth table, its blind skeleton fingerprint, and the leaf
/// arrival-depth hash.
///
/// Only trees of ≤ 6 leaves get one (`Tree::packed_truth_table`). The
/// blind component pins the exact skeleton — the DP is a pure function
/// of the skeleton plus depths and reads neither gate operations nor
/// edge polarities, so two trees with equal blind fingerprints and
/// equal depth sequences have *bit-identical* `ShapeSolution`s and the
/// cached solution replays verbatim at cover emission (which takes
/// operations and polarities from the member tree itself). The NPN
/// class scopes sharing to functionally-equivalent trees and is what
/// the tier is segmented on observationally; the N/P/N transform that
/// witnesses the equivalence is recomputable via
/// `chortle_mis::canonical_npn_with_transform`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FnKey {
    /// Leaf-slot count of the subtree (≤ 6).
    pub vars: u8,
    /// NPN canonical form of the packed truth table.
    pub canon: u64,
    /// [`Tree::blind_fingerprint`] of the canonicalized tree.
    pub blind: Fingerprint,
    /// Hash of the leaf depths in canonical traversal order (shared
    /// with [`CacheKey::depths`]).
    pub depths: Fingerprint,
}

/// Hash-partitioning for the sharded stores: which shard owns a key.
pub(crate) trait ShardKey: std::hash::Hash + Eq {
    /// A well-mixed 64-bit digest of the key.
    fn shard_hash(&self) -> u64;
}

impl ShardKey for CacheKey {
    fn shard_hash(&self) -> u64 {
        self.shape.lo ^ self.depths.lo.rotate_left(17)
    }
}

impl ShardKey for FnKey {
    fn shard_hash(&self) -> u64 {
        mix64(self.canon ^ u64::from(self.vars))
            ^ self.blind.lo.rotate_left(11)
            ^ self.depths.lo.rotate_left(29)
    }
}

/// Shard count of [`SharedStore`]. Sixteen shards keep lock contention
/// negligible for any plausible worker count while the per-shard maps
/// stay dense; reported as the `cache.shards` telemetry counter.
pub(crate) const SHARED_CACHE_SHARDS: usize = 16;

/// A wavefront-shared, hash-partitioned solution store with relaxed
/// lookup tallies (read back by [`WarmCache::stats`] for the daemon's
/// per-tier hit rates).
pub(crate) struct SharedStore<K> {
    shards: Vec<Mutex<HashMap<K, Arc<ShapeSolution>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The structural store (every caching mode).
pub(crate) type SharedCache = SharedStore<CacheKey>;

/// The functional-tier shared store ([`CacheMode::Fn`]).
pub(crate) type SharedFnCache = SharedStore<FnKey>;

impl<K: ShardKey> SharedStore<K> {
    pub(crate) fn new() -> Self {
        SharedStore {
            shards: (0..SHARED_CACHE_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Which shard owns a key. Key digests are already avalanche-mixed,
    /// so the low bits partition uniformly.
    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Arc<ShapeSolution>>> {
        &self.shards[(key.shard_hash() as usize) % self.shards.len()]
    }

    pub(crate) fn get(&self, key: &K) -> Option<Arc<ShapeSolution>> {
        let found = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .cloned();
        // Observational tallies only (relaxed; never part of the
        // deterministic per-run counters, which are derived in tree
        // order by the mapping driver).
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// First-writer-wins insert: returns the `Arc` that ended up in the
    /// cache (the existing one on a race, since all writers computed
    /// identical solutions).
    pub(crate) fn insert(&self, key: K, sol: Arc<ShapeSolution>) -> Arc<ShapeSolution> {
        self.shard(&key)
            .lock()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert(sol)
            .clone()
    }

    /// Cached solutions across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Lifetime lookup hits (relaxed tally).
    pub(crate) fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime lookup misses (relaxed tally).
    pub(crate) fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// A process-lifetime DP cache reused *across* mapping runs.
///
/// A [`CacheKey`] fingerprints a tree's canonical shape and leaf depths
/// but deliberately not the options it was mapped under, so solutions
/// mapped with different `k` or [`Objective`] must never share a store.
/// The warm cache therefore keeps one [`SharedCache`] *segment per
/// `(k, objective)` pair*; a mapping run attached to the handle (via
/// `MapOptionsBuilder::warm_cache`) checks its segment out and both
/// reads and populates it, so the next run with the same options starts
/// warm. `split_threshold` needs no segment: trees are split *before*
/// canonicalization, so an identical canonical shape is an identical DP
/// problem regardless of how it was produced.
///
/// Every caching mode consults the handle (only [`CacheMode::Off`]
/// ignores it), and every mode still produces the bit-identical circuit
/// (replays are verbatim and first-writer-wins keeps racing duplicates
/// harmless, exactly as within one run).
///
/// Clones share the underlying store. [`WarmCache::flush`] empties every
/// segment and bumps a monotonically increasing *generation*, which
/// long-lived servers echo to clients so cache-sensitive benchmarks can
/// tell a warm answer from a cold one.
#[derive(Clone, Default)]
pub struct WarmCache {
    inner: Arc<WarmInner>,
}

#[derive(Default)]
struct WarmInner {
    segments: Mutex<HashMap<(usize, Objective), Arc<SharedCache>>>,
    fn_segments: Mutex<HashMap<(usize, Objective), Arc<SharedFnCache>>>,
    generation: AtomicU64,
}

/// Per-tier entry counts and lookup tallies of a [`WarmCache`],
/// aggregated across its `(k, objective)` segments since the last
/// flush. Lookup tallies are relaxed observational counters bumped at
/// the warm lookup sites; they are *not* the deterministic per-run
/// `cache.*` report counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Structural-tier entries (canonical shape × depth profile).
    pub shapes: usize,
    /// Functional-tier entries (NPN class × blind skeleton × depths).
    pub fn_entries: usize,
    /// Structural-tier lookup hits.
    pub hits: u64,
    /// Structural-tier lookup misses.
    pub misses: u64,
    /// Functional-tier lookup hits.
    pub fn_hits: u64,
    /// Functional-tier lookup misses.
    pub fn_misses: u64,
}

impl WarmStats {
    /// Structural hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Functional hit rate in [0, 1]; 0 when no lookups happened.
    pub fn fn_hit_rate(&self) -> f64 {
        let total = self.fn_hits + self.fn_misses;
        if total == 0 {
            0.0
        } else {
            self.fn_hits as f64 / total as f64
        }
    }
}

impl WarmCache {
    /// An empty cache at generation 0.
    pub fn new() -> Self {
        WarmCache::default()
    }

    /// The structural segment for one `(k, objective)` configuration,
    /// created empty on first use.
    pub(crate) fn segment(&self, k: usize, objective: Objective) -> Arc<SharedCache> {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .entry((k, objective))
            .or_insert_with(|| Arc::new(SharedCache::new()))
            .clone()
    }

    /// The functional-tier segment for one `(k, objective)`
    /// configuration, created empty on first use. Segmented identically
    /// to the structural tier: an `FnKey` fingerprints neither `k` nor
    /// the objective, and solutions under different options must never
    /// mix.
    pub(crate) fn fn_segment(&self, k: usize, objective: Objective) -> Arc<SharedFnCache> {
        self.inner
            .fn_segments
            .lock()
            .expect("warm cache poisoned")
            .entry((k, objective))
            .or_insert_with(|| Arc::new(SharedFnCache::new()))
            .clone()
    }

    /// Discards every cached solution in both tiers and returns the new
    /// generation.
    ///
    /// In-flight runs holding a segment finish against the old store
    /// (their results stay correct — the store never changes answers,
    /// only availability); runs attached afterwards start cold.
    pub fn flush(&self) -> u64 {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .clear();
        self.inner
            .fn_segments
            .lock()
            .expect("warm cache poisoned")
            .clear();
        self.inner.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The current generation: 0 at creation, +1 per [`WarmCache::flush`].
    pub fn generation(&self) -> u64 {
        self.inner.generation.load(Ordering::Acquire)
    }

    /// Total cached *structural* shape solutions across all segments
    /// (an observability figure; racy under concurrent inserts). The
    /// functional tier's entries are reported separately by
    /// [`WarmCache::stats`].
    pub fn shapes(&self) -> usize {
        self.inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .values()
            .map(|s| s.len())
            .sum()
    }

    /// Per-tier entry counts and hit rates, aggregated across segments.
    pub fn stats(&self) -> WarmStats {
        let mut stats = WarmStats::default();
        for s in self
            .inner
            .segments
            .lock()
            .expect("warm cache poisoned")
            .values()
        {
            stats.shapes += s.len();
            stats.hits += s.hit_count();
            stats.misses += s.miss_count();
        }
        for s in self
            .inner
            .fn_segments
            .lock()
            .expect("warm cache poisoned")
            .values()
        {
            stats.fn_entries += s.len();
            stats.fn_hits += s.hit_count();
            stats.fn_misses += s.miss_count();
        }
        stats
    }
}

impl fmt::Debug for WarmCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("WarmCache")
            .field("generation", &self.generation())
            .field("shapes", &stats.shapes)
            .field("fn_entries", &stats.fn_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{DpCounters, DpScratch};

    fn dummy_solution(tree: &Tree, k: usize) -> Arc<ShapeSolution> {
        let mut scratch = DpScratch::new();
        Arc::new(
            crate::dp::map_tree_solution(tree, k, crate::dp::Objective::Area, &|_| 0, &mut scratch)
                .expect("narrow fanin"),
        )
    }

    fn two_input_tree() -> Tree {
        use chortle_netlist::{Network, NodeOp};
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        net.add_output("z", g.into());
        crate::tree::Forest::of(&net).trees.remove(0)
    }

    #[test]
    fn first_writer_wins_in_both_stores() {
        let mut tree = two_input_tree();
        let shape = tree.canonicalize();
        let key = CacheKey::of(&tree, shape, &|_| 0);
        let a = dummy_solution(&tree, 4);
        let b = dummy_solution(&tree, 4);

        let shared = SharedCache::new();
        let kept = shared.insert(key, a.clone());
        assert!(Arc::ptr_eq(&kept, &a));
        let kept = shared.insert(key, b.clone());
        assert!(Arc::ptr_eq(&kept, &a), "first writer must win");
        assert!(Arc::ptr_eq(&shared.get(&key).unwrap(), &a));

        let fn_key = fn_key_of(&tree, key.depths);
        let functional = SharedFnCache::new();
        functional.insert(fn_key, a.clone());
        let kept = functional.insert(fn_key, b);
        assert!(Arc::ptr_eq(&kept, &a), "first writer must win");
    }

    #[test]
    fn mode_names_round_trip() {
        for mode in CacheMode::ALL {
            assert_eq!(CacheMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(CacheMode::parse("ram"), None);
        assert_eq!(CacheMode::parse("Shared"), None);
    }

    #[test]
    fn depth_sequence_distinguishes_keys() {
        let mut tree = two_input_tree();
        let shape = tree.canonicalize();
        let flat = CacheKey::of(&tree, shape, &|_| 0);
        let deep = CacheKey::of(&tree, shape, &|_| 3);
        assert_eq!(flat.shape, deep.shape);
        assert_ne!(flat, deep);
        // Same depths, same key — the hash is a pure function.
        assert_eq!(flat, CacheKey::of(&tree, shape, &|_| 0));
    }

    #[test]
    fn warm_cache_segments_by_k_and_objective() {
        let warm = WarmCache::new();
        let mut tree = two_input_tree();
        let shape = tree.canonicalize();
        let key = CacheKey::of(&tree, shape, &|_| 0);

        warm.segment(4, Objective::Area)
            .insert(key, dummy_solution(&tree, 4));
        assert_eq!(warm.shapes(), 1);
        // Different k or objective sees a different (empty) segment …
        assert!(warm.segment(5, Objective::Area).get(&key).is_none());
        assert!(warm.segment(4, Objective::Depth).get(&key).is_none());
        // … while the same configuration (via a clone of the handle) hits.
        assert!(warm.clone().segment(4, Objective::Area).get(&key).is_some());

        assert_eq!(warm.generation(), 0);
        assert_eq!(warm.flush(), 1);
        assert_eq!(warm.generation(), 1);
        assert_eq!(warm.shapes(), 0);
        assert!(warm.segment(4, Objective::Area).get(&key).is_none());
    }

    fn fn_key_of(tree: &Tree, depths: Fingerprint) -> FnKey {
        let (table, vars) = tree.packed_truth_table().expect("small tree");
        FnKey {
            vars: vars as u8,
            canon: chortle_mis::canonical_npn_u64(table, vars),
            blind: tree.blind_fingerprint(),
            depths,
        }
    }

    #[test]
    fn fn_keys_unite_npn_variants_and_separate_skeletons() {
        use chortle_netlist::{Network, NodeOp};
        let mut tree = two_input_tree();
        let shape = tree.canonicalize();
        let key = CacheKey::of(&tree, shape, &|_| 0);
        // The OR variant: structural miss, functional hit.
        let mut or_net = Network::new();
        let a = or_net.add_input("a");
        let b = or_net.add_input("b");
        let g = or_net.add_gate(NodeOp::Or, vec![a.into(), b.into()]);
        or_net.add_output("z", g.into());
        let mut or_tree = crate::tree::Forest::of(&or_net).trees.remove(0);
        let or_shape = or_tree.canonicalize();
        let or_key = CacheKey::of(&or_tree, or_shape, &|_| 0);
        assert_ne!(key, or_key, "AND and OR are structural misses");
        assert_eq!(
            fn_key_of(&tree, key.depths),
            fn_key_of(&or_tree, or_key.depths),
            "AND and OR share one functional key"
        );
        // A different depth profile separates functional keys too.
        let deep = CacheKey::of(&tree, shape, &|_| 3);
        assert_ne!(fn_key_of(&tree, key.depths), fn_key_of(&tree, deep.depths));
    }

    #[test]
    fn warm_cache_reports_per_tier_stats() {
        let warm = WarmCache::new();
        let mut tree = two_input_tree();
        let shape = tree.canonicalize();
        let key = CacheKey::of(&tree, shape, &|_| 0);
        let fnk = fn_key_of(&tree, key.depths);
        let sol = dummy_solution(&tree, 4);

        let seg = warm.segment(4, Objective::Area);
        let fseg = warm.fn_segment(4, Objective::Area);
        assert!(seg.get(&key).is_none()); // one structural miss
        seg.insert(key, sol.clone());
        assert!(seg.get(&key).is_some()); // one structural hit
        assert!(fseg.get(&fnk).is_none()); // one functional miss
        fseg.insert(fnk, sol);
        assert!(fseg.get(&fnk).is_some()); // one functional hit

        let stats = warm.stats();
        assert_eq!(stats.shapes, 1);
        assert_eq!(stats.fn_entries, 1);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.fn_hits, stats.fn_misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(stats.fn_hit_rate(), 0.5);
        assert_eq!(warm.shapes(), 1, "shapes() stays structural-only");

        // Flush empties both tiers and resets the tallies.
        warm.flush();
        let stats = warm.stats();
        assert_eq!(stats, WarmStats::default());
    }

    #[test]
    fn tallies_ride_inside_the_solution() {
        let tree = two_input_tree();
        let mut scratch = DpScratch::new();
        scratch.counting = true;
        let sol = crate::dp::map_tree_solution(
            &tree,
            4,
            crate::dp::Objective::Area,
            &|_| 0,
            &mut scratch,
        )
        .expect("maps");
        assert!(sol.tally.divisions > 0);
        assert_eq!(sol.tally.tree_nodes, 1);
        // The solution keeps the tally; the scratch aggregate is only
        // written by the `map_tree_with` wrapper.
        assert_eq!(scratch.counters.take(), DpCounters::default());
    }
}
