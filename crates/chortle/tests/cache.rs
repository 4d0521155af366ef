//! Contracts of the cross-tree DP-result cache: canonical fingerprints
//! capture structural isomorphism exactly, and no cache mode — at any
//! worker count — may change a single bit of the mapped circuit or any
//! work tally. Random cases come from the in-repo [`SplitMix64`]
//! generator, so the suite runs fully offline.

use chortle::{
    map_network, stats, CacheMode, ChunkPolicy, Forest, MapOptions, Telemetry, Tree, TreeChild,
};
use chortle_netlist::{Network, NodeId, NodeOp, Signal, SplitMix64};

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

/// Builds a single random fanout-free tree.
fn random_tree(seed: u64, leaves: usize, max_arity: usize) -> Tree {
    let mut rng = SplitMix64::new(seed);
    let mut net = Network::new();
    let mut pool: Vec<Signal> = (0..leaves)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    while pool.len() > 1 {
        let take = rng.next_range(2, (max_arity + 1).min(pool.len() + 1));
        let mut fanins = Vec::with_capacity(take);
        for _ in 0..take {
            let idx = rng.choose_index(&pool);
            let mut s = pool.swap_remove(idx);
            if rng.next_bool(1, 4) {
                s = !s;
            }
            fanins.push(s);
        }
        let op = if rng.next_bool(1, 2) {
            NodeOp::And
        } else {
            NodeOp::Or
        };
        pool.push(Signal::new(net.add_gate(op, fanins)));
    }
    net.add_output("z", pool[0]);
    Forest::of(&net).trees.remove(0)
}

/// An isomorphic copy: every node's children reversed (a permutation the
/// fingerprint must not see) and every leaf renamed to a fresh signal
/// (identities the fingerprint must not see), polarities kept.
fn permuted_renamed(tree: &Tree) -> Tree {
    let mut copy = tree.clone();
    for node in &mut copy.nodes {
        node.children.reverse();
        for c in &mut node.children {
            if let TreeChild::Leaf(sig) = c {
                let renamed = NodeId::from_index(sig.node().index() + 4096);
                *c = TreeChild::Leaf(if sig.is_inverted() {
                    Signal::inverted(renamed)
                } else {
                    Signal::new(renamed)
                });
            }
        }
    }
    copy
}

#[test]
fn fingerprints_match_exactly_the_isomorphic_pairs() {
    let mut rng = SplitMix64::new(0xcace_0001);
    for round in 0..64 {
        let seed = rng.next_u64();
        let tree = random_tree(seed, 4 + (seed % 9) as usize, 5);
        let iso = permuted_renamed(&tree);
        assert_eq!(
            tree.fingerprint(),
            iso.fingerprint(),
            "permutation/renaming changed the fingerprint (round={round})"
        );

        // Canonicalizing both must produce bit-identical shapes — that is
        // the property DP-result replay relies on.
        let (mut a, mut b) = (tree.clone(), iso.clone());
        a.canonicalize();
        b.canonicalize();
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.op, nb.op, "ops diverged (round={round})");
            let ka: Vec<_> = na.children.iter().map(child_kind).collect();
            let kb: Vec<_> = nb.children.iter().map(child_kind).collect();
            assert_eq!(ka, kb, "shapes diverged (round={round})");
        }

        // Any structural mutation must (with overwhelming probability)
        // change the fingerprint: flip one leaf's polarity.
        let mut mutated = tree.clone();
        'outer: for node in &mut mutated.nodes {
            for c in &mut node.children {
                if let TreeChild::Leaf(sig) = c {
                    *c = TreeChild::Leaf(!*sig);
                    break 'outer;
                }
            }
        }
        assert_ne!(
            tree.fingerprint(),
            mutated.fingerprint(),
            "polarity flip kept the fingerprint (round={round})"
        );
    }
}

/// A child's shape-relevant content: `(is_leaf, node index or 0, edge
/// polarity)` — everything except leaf identity.
fn child_kind(c: &TreeChild) -> (bool, usize, bool) {
    match *c {
        TreeChild::Node { index, inverted } => (false, index, inverted),
        TreeChild::Leaf(sig) => (true, 0, sig.is_inverted()),
    }
}

/// Maps `net` under the given cache mode and worker count, returning the
/// mapping plus the telemetry counters that tally *work* (the
/// configuration echo `cache.shards` and the `cache.*` hit statistics
/// exist only when caching is on, so they are excluded from the
/// cross-mode comparison).
fn map_with(
    net: &Network,
    k: usize,
    jobs: usize,
    cache: CacheMode,
) -> (chortle::Mapping, Vec<(String, u64)>) {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(k)
        .jobs(jobs)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    let mapping = map_network(net, &options).expect("maps");
    let counters = telemetry
        .snapshot()
        .counters
        .iter()
        .filter(|c| !c.name.starts_with("cache.") && !c.name.starts_with("sched."))
        .map(|c| (c.name.clone(), c.value))
        .collect();
    (mapping, counters)
}

#[test]
fn every_cache_mode_is_bit_identical_at_every_worker_count() {
    let mut rng = SplitMix64::new(0xcace_0002);
    for round in 0..6 {
        let net = random_network(rng.next_u64(), 8, 24, 5);
        for k in 2..=6 {
            let (reference, ref_counters) = map_with(&net, k, 1, CacheMode::Off);
            for jobs in [1, 2, 8] {
                for cache in [
                    CacheMode::Off,
                    CacheMode::Tree,
                    CacheMode::Shared,
                    CacheMode::Fn,
                ] {
                    let (mapping, counters) = map_with(&net, k, jobs, cache);
                    assert_eq!(
                        reference.circuit, mapping.circuit,
                        "circuit diverged (round={round} k={k} jobs={jobs} {cache:?})"
                    );
                    assert_eq!(
                        reference.report, mapping.report,
                        "report diverged (round={round} k={k} jobs={jobs} {cache:?})"
                    );
                    assert_eq!(
                        ref_counters, counters,
                        "work tallies diverged (round={round} k={k} jobs={jobs} {cache:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn cache_counters_add_up() {
    // On a forest with repeated shapes, hits + misses == trees, misses ==
    // distinct (shape, depth) keys, and every hit replays whole LUTs.
    let net = random_network(0xcace_0003, 8, 30, 4);
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    let hits = report.counter(stats::CACHE_HITS).expect("hits reported");
    let misses = report
        .counter(stats::CACHE_MISSES)
        .expect("misses reported");
    let trees = report.counter(stats::MAP_TREES).unwrap();
    assert_eq!(hits + misses, trees);
    assert!(misses >= 1, "at least one shape must be computed");
    if hits > 0 {
        assert!(report.counter(stats::CACHE_REPLAYED_LUTS).unwrap() >= hits);
    }

    // Mode Off reports no cache counters at all.
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .cache(CacheMode::Off)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let report = telemetry.snapshot();
    for counter in [
        stats::CACHE_HITS,
        stats::CACHE_MISSES,
        stats::CACHE_SHARDS,
        stats::CACHE_REPLAYED_LUTS,
        stats::CACHE_FN_HITS,
        stats::CACHE_FN_MISSES,
        stats::CACHE_FN_REPLAYED_LUTS,
    ] {
        assert!(
            report.counter(counter).is_none(),
            "{counter} with cache off"
        );
    }
}

/// Runs `net` under `cache` and returns the full counter snapshot.
fn counters_under(net: &Network, cache: CacheMode, jobs: usize) -> chortle::MapStats {
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .cache(cache)
        .jobs(jobs)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    map_network(net, &options).expect("maps");
    telemetry.snapshot()
}

#[test]
fn fn_tier_counters_add_up_and_only_add_reuse() {
    // Polarity variants of shared shapes make the functional tier win
    // where the structural one cannot.
    let mut rng = SplitMix64::new(0xcace_0004);
    let mut fn_hit_seen = false;
    for round in 0..8 {
        let net = random_network(rng.next_u64(), 8, 40, 4);
        for jobs in [1, 4] {
            let shared = counters_under(&net, CacheMode::Shared, jobs);
            let fnr = counters_under(&net, CacheMode::Fn, jobs);
            let trees = fnr.counter(stats::MAP_TREES).unwrap();
            let hits = fnr.counter(stats::CACHE_HITS).unwrap();
            let misses = fnr.counter(stats::CACHE_MISSES).unwrap();
            let fn_hits = fnr.counter(stats::CACHE_FN_HITS).unwrap();
            let fn_misses = fnr.counter(stats::CACHE_FN_MISSES).unwrap();
            // Attribution is structural-first: cache.hits is identical
            // to the Shared-mode value, and fn_hits is the *additional*
            // reuse the functional tier found.
            assert_eq!(
                hits,
                shared.counter(stats::CACHE_HITS).unwrap(),
                "structural hits changed under Fn (round={round} jobs={jobs})"
            );
            assert_eq!(
                hits + fn_hits + misses,
                trees,
                "counter contract broken (round={round} jobs={jobs})"
            );
            // fn_misses counts fn-eligible trees that fully solved.
            assert!(fn_misses <= misses, "(round={round} jobs={jobs})");
            if fn_hits > 0 {
                fn_hit_seen = true;
                assert!(fnr.counter(stats::CACHE_FN_REPLAYED_LUTS).unwrap() >= fn_hits);
            }
        }
    }
    assert!(
        fn_hit_seen,
        "the functional tier never beat the structural one across 8 random forests"
    );
}

#[test]
fn shared_mode_reports_no_fn_counters() {
    let net = random_network(0xcace_0005, 8, 30, 4);
    for cache in [CacheMode::Tree, CacheMode::Shared] {
        let report = counters_under(&net, cache, 1);
        for counter in [
            stats::CACHE_FN_HITS,
            stats::CACHE_FN_MISSES,
            stats::CACHE_FN_REPLAYED_LUTS,
        ] {
            assert!(
                report.counter(counter).is_none(),
                "{counter} reported under {cache:?}"
            );
        }
    }
}

#[test]
fn tree_mode_reports_exactly_what_shared_mode_reports() {
    // `tree` is an alias of `shared`: same circuit, same report, and
    // the same value on every counter, `cache.*` included. One chunk per
    // wavefront keeps the `sched.*` schedule echoes deterministic, so
    // they can be compared too.
    // An ALU's repeated bit slices make cache hits certain; the random
    // network adds an irregular forest.
    let nets = [
        chortle_circuits::alu(8),
        random_network(0xcace_0007, 8, 40, 4),
    ];
    let mut hits_seen = false;
    for (round, net) in nets.iter().enumerate() {
        for jobs in [1, 4] {
            let run = |cache| {
                let telemetry = Telemetry::enabled();
                let options = MapOptions::builder(4)
                    .cache(cache)
                    .jobs(jobs)
                    .chunk(ChunkPolicy::Fixed(1 << 30))
                    .expect("valid chunk")
                    .telemetry(telemetry.clone())
                    .build()
                    .expect("valid options");
                let mapping = map_network(net, &options).expect("maps");
                (mapping, telemetry.snapshot())
            };
            let (tree, tree_stats) = run(CacheMode::Tree);
            let (shared, shared_stats) = run(CacheMode::Shared);
            let context = format!("round={round} jobs={jobs}");
            assert_eq!(tree.circuit, shared.circuit, "{context}");
            assert_eq!(tree.report, shared.report, "{context}");
            assert_eq!(tree_stats.counters, shared_stats.counters, "{context}");
            hits_seen |= shared_stats.counter(stats::CACHE_HITS).unwrap_or(0) > 0;
        }
    }
    assert!(hits_seen, "no network exercised a cache hit");
}

#[test]
fn warm_cache_segments_both_tiers() {
    use chortle::WarmCache;
    let net = random_network(0xcace_0006, 8, 40, 4);
    let warm = WarmCache::new();
    let options = MapOptions::builder(4)
        .cache(CacheMode::Fn)
        .warm_cache(warm.clone())
        .build()
        .unwrap();
    map_network(&net, &options).expect("maps");
    let after_first = warm.stats();
    assert!(after_first.shapes > 0, "structural tier stayed empty");
    assert!(after_first.fn_entries > 0, "functional tier stayed empty");
    assert_eq!(after_first.fn_entries, warm.stats().fn_entries);

    // A warm re-run of the same network hits on every tree: the second
    // run's misses add nothing.
    map_network(&net, &options).expect("maps again");
    let after_second = warm.stats();
    assert_eq!(after_second.shapes, after_first.shapes);
    assert_eq!(after_second.fn_entries, after_first.fn_entries);
    assert!(after_second.hits + after_second.fn_hits > after_first.hits + after_first.fn_hits);
    assert!(after_second.hit_rate() > 0.0);

    warm.flush();
    let flushed = warm.stats();
    assert_eq!(flushed.shapes, 0);
    assert_eq!(flushed.fn_entries, 0);
}

#[test]
fn dc_packing_is_equivalent_and_never_adds_luts() {
    use chortle::PackMode;
    use chortle_netlist::check_equivalence;
    let mut rng = SplitMix64::new(0xcace_0007);
    for round in 0..8 {
        let net = random_network(rng.next_u64(), 7, 24, 4);
        for k in [3, 4, 5] {
            let plain = map_network(&net, &MapOptions::builder(k).build().unwrap()).unwrap();
            let packed = map_network(
                &net,
                &MapOptions::builder(k).pack(PackMode::Dc).build().unwrap(),
            )
            .unwrap();
            assert!(
                packed.report.luts <= plain.report.luts,
                "packing added LUTs (round={round} k={k})"
            );
            assert_eq!(packed.report.luts, packed.circuit.num_luts());
            check_equivalence(&net, &packed.circuit)
                .unwrap_or_else(|e| panic!("round={round} k={k}: {e:?}"));
        }
    }
}
