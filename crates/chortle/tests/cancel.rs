//! Integration tests for cooperative cancellation and the process-wide
//! warm cache — the two hooks `chortle-serve` builds on.

use chortle::{map_network, CacheMode, CancelToken, MapError, MapOptions, WarmCache};
use chortle_netlist::{Network, NodeOp, Signal};

/// A forest with enough trees that per-tree cancellation polls run many
/// times under any driver.
fn layered_network(width: usize) -> Network {
    let mut net = Network::new();
    let inputs: Vec<Signal> = (0..width * 2)
        .map(|i| Signal::new(net.add_input(format!("i{i}"))))
        .collect();
    for (c, pair) in inputs.chunks(2).enumerate() {
        let g1 = Signal::new(net.add_gate(NodeOp::And, vec![pair[0], pair[1]]));
        let g2 = Signal::new(net.add_gate(NodeOp::Or, vec![g1, pair[0]]));
        // g1 fans out (g2 and the output), so each column is two trees.
        net.add_output(format!("y{c}"), g2);
        net.add_output(format!("s{c}"), g1);
    }
    net
}

#[test]
fn fired_token_cancels_both_drivers() {
    let net = layered_network(16);
    for jobs in [1, 4] {
        let token = CancelToken::armed();
        token.cancel();
        let opts = MapOptions::builder(4)
            .jobs(jobs)
            .cancel(token)
            .build()
            .unwrap();
        assert_eq!(
            map_network(&net, &opts).unwrap_err(),
            MapError::Cancelled,
            "jobs={jobs}"
        );
    }
}

#[test]
fn expired_deadline_cancels() {
    let net = layered_network(16);
    let token = CancelToken::with_timeout(std::time::Duration::ZERO);
    let opts = MapOptions::builder(4).cancel(token).build().unwrap();
    assert_eq!(map_network(&net, &opts).unwrap_err(), MapError::Cancelled);
}

#[test]
fn inert_and_unexpired_tokens_do_not_perturb_mapping() {
    let net = layered_network(8);
    let baseline = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();
    for token in [
        CancelToken::default(),
        CancelToken::armed(),
        CancelToken::with_timeout(std::time::Duration::from_secs(3600)),
    ] {
        let opts = MapOptions::builder(4).cancel(token).build().unwrap();
        let mapped = map_network(&net, &opts).unwrap();
        assert_eq!(mapped.circuit, baseline.circuit);
    }
}

#[test]
fn warm_cache_is_reused_across_runs_without_changing_the_circuit() {
    let net = layered_network(16);
    let baseline = map_network(&net, &MapOptions::builder(4).build().unwrap()).unwrap();

    let warm = WarmCache::new();
    for jobs in [1, 4] {
        let opts = MapOptions::builder(4)
            .jobs(jobs)
            .warm_cache(warm.clone())
            .build()
            .unwrap();
        // Cold first run populates; warm second run replays. Both must be
        // byte-identical to the un-warmed mapping.
        let cold = map_network(&net, &opts).unwrap();
        let shapes_after_cold = warm.shapes();
        assert!(shapes_after_cold > 0, "jobs={jobs}: warm cache populated");
        let rewarm = map_network(&net, &opts).unwrap();
        assert_eq!(
            warm.shapes(),
            shapes_after_cold,
            "jobs={jobs}: warm run added no new shapes"
        );
        assert_eq!(cold.circuit, baseline.circuit, "jobs={jobs}");
        assert_eq!(rewarm.circuit, baseline.circuit, "jobs={jobs}");
    }
}

#[test]
fn warm_cache_segments_do_not_leak_across_options() {
    let net = layered_network(4);
    let warm = WarmCache::new();
    let at = |k: usize| {
        MapOptions::builder(k)
            .warm_cache(warm.clone())
            .build()
            .unwrap()
    };
    let k4 = map_network(&net, &at(4)).unwrap();
    let seg4 = warm.shapes();
    let k5 = map_network(&net, &at(5)).unwrap();
    assert!(warm.shapes() > seg4, "k=5 fills its own segment");
    // Each matches its own un-warmed baseline.
    for (k, mapped) in [(4, &k4), (5, &k5)] {
        let base = map_network(&net, &MapOptions::builder(k).build().unwrap()).unwrap();
        assert_eq!(base.circuit, mapped.circuit, "k={k}");
    }
}

#[test]
fn warm_cache_is_inert_outside_shared_mode() {
    let net = layered_network(4);
    let opts = |mode, warm: &WarmCache| {
        MapOptions::builder(4)
            .cache(mode)
            .warm_cache(warm.clone())
            .build()
            .unwrap()
    };
    let warm = WarmCache::new();
    map_network(&net, &opts(CacheMode::Off, &warm)).unwrap();
    assert_eq!(warm.shapes(), 0, "Off must not touch the warm cache");
    // `tree` is an alias of `shared`, so it is shared mode: it fills
    // the warm cache exactly as `shared` does.
    map_network(&net, &opts(CacheMode::Tree, &warm)).unwrap();
    let shared = WarmCache::new();
    map_network(&net, &opts(CacheMode::Shared, &shared)).unwrap();
    assert!(warm.shapes() > 0, "Tree must use the warm cache");
    assert_eq!(warm.stats(), shared.stats(), "Tree and Shared diverged");
}
