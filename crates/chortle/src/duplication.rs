//! Logic duplication at fanout nodes — the paper's future-work item
//! "optimizations that may result from the duplication of logic at fanout
//! nodes" (Section 5).
//!
//! Forest creation cuts the network at every fanout point, which forces a
//! LUT boundary there. Replicating a small fanout gate once per consumer
//! removes the boundary: each copy has fanout one and can be absorbed into
//! its consumer's tree. Duplication trades logic copies for boundaries,
//! so it only sometimes pays; [`map_network_best`] maps both ways and
//! keeps the cheaper circuit.

use chortle_netlist::{Network, NodeOp, Signal};

use crate::map::{echo_cache_shards, map_network_unechoed, MapError, MapOptions, Mapping};

/// Returns a functionally identical network in which every gate with
/// fanout greater than one and fanin at most `max_fanin` is replicated
/// once per use, making each copy fanout-free.
///
/// Gates driving primary outputs keep one shared instance for the output
/// itself; each gate consumer still receives a private copy. The network
/// should be in mapper normal form (see [`Network::simplified`]).
///
/// # Examples
///
/// ```
/// use chortle::duplicate_fanout_gates;
/// use chortle_netlist::{check_networks, Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// let shared = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// let x = net.add_gate(NodeOp::Or, vec![shared.into(), c.into()]);
/// let y = net.add_gate(NodeOp::And, vec![shared.into(), c.into()]);
/// net.add_output("x", x.into());
/// net.add_output("y", y.into());
///
/// let dup = duplicate_fanout_gates(&net, 3);
/// check_networks(&net, &dup).expect("same functions");
/// // `shared` was copied into both consumers; its now-dead original
/// // instance disappears with the next normalization.
/// assert_eq!(dup.simplified().num_gates(), 4);
/// ```
pub fn duplicate_fanout_gates(network: &Network, max_fanin: usize) -> Network {
    let fanouts = network.fanout_counts();
    let mut out = Network::new();
    // For each original node: the shared replacement signal (used for
    // outputs and as the fanin base of copies).
    let mut shared: Vec<Option<Signal>> = vec![None; network.len()];
    // Whether a node is eligible for per-use replication.
    let replicate: Vec<bool> = network
        .nodes()
        .map(|(id, node)| {
            node.op().is_gate() && fanouts[id.index()] > 1 && node.fanin_count() <= max_fanin
        })
        .collect();

    for (id, node) in network.nodes() {
        let sig = match node.op() {
            NodeOp::Input => Signal::new(out.add_input(node.name().unwrap_or_default().to_owned())),
            NodeOp::Const(v) => Signal::new(out.add_const(v)),
            op @ (NodeOp::And | NodeOp::Or) => {
                let fanins: Vec<Signal> = node
                    .fanins()
                    .iter()
                    .map(|s| {
                        let base = if replicate[s.node().index()] {
                            // Private copy of the replicated child.
                            emit_copy(network, s.node(), &shared, &mut out)
                        } else {
                            shared[s.node().index()].expect("topological order")
                        };
                        base.with_inversion(base.is_inverted() ^ s.is_inverted())
                    })
                    .collect();
                Signal::new(out.add_gate(op, fanins))
            }
        };
        shared[id.index()] = Some(sig);
    }
    for o in network.outputs() {
        let base = shared[o.signal.node().index()].expect("live node");
        out.add_output(
            o.name.clone(),
            base.with_inversion(base.is_inverted() ^ o.signal.is_inverted()),
        );
    }
    // Unreferenced shared instances of replicated gates become dead and
    // are swept by the next `simplified()` (the mappers call it anyway).
    out
}

/// Emits a fresh copy of gate `id` into `out`, reusing the shared
/// replacements for its fanins.
fn emit_copy(
    network: &Network,
    id: chortle_netlist::NodeId,
    shared: &[Option<Signal>],
    out: &mut Network,
) -> Signal {
    let node = network.node(id);
    let fanins: Vec<Signal> = node
        .fanins()
        .iter()
        .map(|s| {
            let base = shared[s.node().index()].expect("topological order");
            base.with_inversion(base.is_inverted() ^ s.is_inverted())
        })
        .collect();
    Signal::new(out.add_gate(node.op(), fanins))
}

/// Maps `network` both with and without fanout duplication and returns
/// the mapping with fewer LUTs (ties favour no duplication, matching the
/// paper's finding that duplication rarely pays).
///
/// # Errors
///
/// Propagates [`MapError`] from either mapping attempt.
///
/// # Examples
///
/// ```
/// use chortle::{map_network_best, MapOptions};
/// use chortle_netlist::{Network, NodeOp};
///
/// let mut net = Network::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let c = net.add_input("c");
/// let shared = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
/// let x = net.add_gate(NodeOp::Or, vec![shared.into(), c.into()]);
/// let y = net.add_gate(NodeOp::And, vec![shared.into(), c.into()]);
/// net.add_output("x", x.into());
/// net.add_output("y", y.into());
///
/// // Plain mapping needs 3 LUTs at K=3 (the fanout boundary); with
/// // duplication both cones fit one LUT each.
/// let best = map_network_best(&net, &MapOptions::builder(3).build()?)?;
/// assert_eq!(best.report.luts, 2);
/// # Ok::<(), chortle::MapError>(())
/// ```
pub fn map_network_best(network: &Network, options: &MapOptions) -> Result<Mapping, MapError> {
    let plain = map_network_unechoed(network, options)?;
    let duplicated_net = duplicate_fanout_gates(&network.simplified(), options.k.max(4));
    let duplicated = map_network_unechoed(&duplicated_net, options)?;
    echo_cache_shards(options);
    if duplicated.report.luts < plain.report.luts {
        Ok(duplicated)
    } else {
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_network;
    use chortle_netlist::{check_equivalence, check_networks};

    fn shared_cone() -> Network {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let shared = net.add_gate(NodeOp::And, vec![a.into(), b.into()]);
        let x = net.add_gate(NodeOp::Or, vec![shared.into(), c.into()]);
        let y = net.add_gate(NodeOp::And, vec![Signal::inverted(shared), d.into()]);
        net.add_output("x", x.into());
        net.add_output("y", y.into());
        net
    }

    #[test]
    fn duplication_preserves_functions() {
        let net = shared_cone();
        let dup = duplicate_fanout_gates(&net, 4);
        dup.validate().expect("valid");
        check_networks(&net, &dup).expect("equivalent");
    }

    #[test]
    fn duplication_removes_fanout_boundaries() {
        let net = shared_cone();
        // Plain: shared is a tree root -> 3 LUTs at K=3.
        let plain = map_network(&net, &MapOptions::builder(3).build().unwrap()).expect("maps");
        assert_eq!(plain.report.luts, 3);
        // Duplicated: both cones absorb their private copy -> 2 LUTs.
        let best = map_network_best(&net, &MapOptions::builder(3).build().unwrap()).expect("maps");
        assert_eq!(best.report.luts, 2);
        check_equivalence(&net, &best.circuit).expect("equivalent");
    }

    #[test]
    fn wide_gates_are_not_replicated() {
        let mut net = Network::new();
        let inputs: Vec<_> = (0..6).map(|i| net.add_input(format!("i{i}"))).collect();
        let wide = net.add_gate(NodeOp::And, inputs.iter().map(|&i| i.into()).collect());
        let x = net.add_gate(NodeOp::Or, vec![wide.into(), inputs[0].into()]);
        let y = net.add_gate(NodeOp::And, vec![wide.into(), inputs[1].into()]);
        net.add_output("x", x.into());
        net.add_output("y", y.into());
        let dup = duplicate_fanout_gates(&net, 3);
        // fanin 6 > 3: not replicated, structure unchanged.
        assert_eq!(dup.num_gates(), net.num_gates());
        check_networks(&net, &dup).expect("equivalent");
    }

    #[test]
    fn best_never_loses_to_plain() {
        for seed in 0..20u64 {
            let net = random(seed);
            let plain = map_network(&net, &MapOptions::builder(4).build().unwrap()).expect("maps");
            let best =
                map_network_best(&net, &MapOptions::builder(4).build().unwrap()).expect("maps");
            assert!(best.report.luts <= plain.report.luts, "seed={seed}");
            check_equivalence(&net, &best.circuit).expect("equivalent");
        }
    }

    fn random(seed: u64) -> Network {
        use chortle_netlist::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let mut net = Network::new();
        let mut signals: Vec<Signal> = (0..6)
            .map(|i| Signal::new(net.add_input(format!("i{i}"))))
            .collect();
        for g in 0..10 {
            let arity = rng.next_range(2, 4);
            let mut fanins: Vec<Signal> = Vec::new();
            let mut used = std::collections::HashSet::new();
            let mut guard = 0;
            while fanins.len() < arity && guard < 40 {
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
        for o in 0..2 {
            let s = signals[rng.choose_index(&signals)];
            net.add_output(format!("o{o}"), s);
        }
        net
    }
}
