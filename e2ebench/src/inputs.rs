//! Seeded input generation. The mapper only ever sees the BLIF text; the
//! generator's unoptimized network is kept for the independent check.

use std::sync::Arc;

use chortle_circuits::{alu, control, count, des_like, random_logic, suite};
use chortle_netlist::{write_blif, Network, NodeId, NodeOp, Signal, SplitMix64};

/// What an input's mapped output is checked against.
#[derive(Clone, Debug)]
pub enum Source {
    /// A combinational circuit: the generator's network, before any
    /// optimization.
    Comb(Arc<Network>),
    /// A sequential design, checked against its own source BLIF.
    Design,
}

/// One distinct input of a workload: a circuit at one K.
#[derive(Clone, Debug)]
pub struct Input {
    /// Circuit name, unique within the workload together with `k`.
    pub name: String,
    /// LUT input count.
    pub k: usize,
    /// The BLIF text handed to the program.
    pub blif: String,
    /// The reference for the independent check.
    pub source: Source,
}

impl Input {
    /// Whether this input is a sequential design (`op:"map_design"`).
    pub fn is_design(&self) -> bool {
        matches!(self.source, Source::Design)
    }
}

/// A generator stream for one purpose, so that adding a draw for one
/// purpose does not shift the draws of another.
fn rng(seed: u64, purpose: u64) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SplitMix64::new(mix.next_u64())
}

/// The same network presented differently: gates in a seeded topological
/// order, each gate's fanins in a seeded order, unnamed gates renamed by
/// their new position. Inputs and outputs keep their names and order, so
/// the function and the interface are those of `network`.
///
/// The seed changes the text the program reads, not the circuit, so the
/// quality totals of a workload move with the program and not with the
/// seed: a change that costs 1% more LUTs shows as 1% on every seed.
pub fn presented(network: &Network, rng: &mut SplitMix64) -> Network {
    // Kahn's algorithm, taking a random node among the ready ones.
    let n = network.len();
    let mut pending: Vec<usize> = network.nodes().map(|(_, v)| v.fanins().len()).collect();
    let mut users = vec![Vec::new(); n];
    for (id, node) in network.nodes() {
        for fanin in node.fanins() {
            users[fanin.node().index()].push(id.index());
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| pending[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while !ready.is_empty() {
        let next = ready.swap_remove(rng.choose_index(&ready));
        order.push(next);
        for &user in &users[next] {
            pending[user] -= 1;
            if pending[user] == 0 {
                ready.push(user);
            }
        }
    }

    let mut out = Network::new();
    let mut placed: Vec<Option<NodeId>> = vec![None; n];
    for &input in network.inputs() {
        let name = network.node(input).name().unwrap_or_default();
        placed[input.index()] = Some(out.add_input(name));
    }
    let to = |placed: &[Option<NodeId>], s: Signal| {
        let node = placed[s.node().index()].expect("fanins are placed first");
        Signal::new(node).with_inversion(s.is_inverted())
    };
    for old in order {
        let node = network.node(NodeId::from_index(old));
        let new = match node.op() {
            NodeOp::Input => continue,
            NodeOp::Const(value) => out.add_const(value),
            op => {
                let mut fanins: Vec<Signal> =
                    node.fanins().iter().map(|&s| to(&placed, s)).collect();
                rng.shuffle(&mut fanins);
                match node.name() {
                    Some(name) => out.add_named_gate(op, fanins, name),
                    None => out.add_gate(op, fanins),
                }
            }
        };
        placed[old] = Some(new);
    }
    for o in network.outputs() {
        out.add_output(o.name.clone(), to(&placed, o.signal));
    }
    out
}

/// A combinational input: `network` presented by `rng`, checked against
/// `network` itself.
fn comb(name: String, k: usize, network: Arc<Network>, rng: &mut SplitMix64) -> Input {
    Input {
        blif: write_blif(&presented(&network, rng), &name),
        name,
        k,
        source: Source::Comb(network),
    }
}

/// `cli_datapath`: ripple ALUs of 64, 96 and 128 bits, a 32-bit `count`
/// chain and a three-round `des_like` block of width 32, all at K = 4,
/// presented by `seed`.
pub fn datapath(seed: u64) -> Vec<Input> {
    let mut rng = rng(seed, 1);
    let circuits = [
        ("alu64", alu(64)),
        ("alu96", alu(96)),
        ("alu128", alu(128)),
        ("count32", count(32)),
        ("des32x3", des_like(0xDE5, 32, 3)),
    ];
    circuits
        .into_iter()
        .map(|(name, network)| comb(name.to_owned(), 4, Arc::new(network), &mut rng))
        .collect()
}

/// `cli_control`: the twelve-circuit suite of the paper's Tables 1–4
/// (`chortle_circuits::suite`) at K = 2, 3, 4 and 5, each circuit at each
/// K presented by `seed`.
pub fn control_suite(seed: u64) -> Vec<Input> {
    let mut rng = rng(seed, 2);
    let mut inputs = Vec::new();
    for b in suite() {
        let network = Arc::new(b.network);
        for k in 2..=5 {
            inputs.push(comb(b.name.to_owned(), k, Arc::clone(&network), &mut rng));
        }
    }
    inputs
}

/// Distinct combinational circuits in the daemon's pool.
pub const SERVE_CIRCUITS: usize = 32;
/// Sequential designs in the daemon's pool.
pub const SERVE_DESIGNS: usize = 4;

/// `serve_mixed`: 32 control and random-logic circuits of four fixed
/// shapes (those of the suite's `apex6`, `k2`, `frg2` and `pair`, each
/// generator seeded by the circuit's index), presented by `seed`, plus
/// four register pipelines, all at K = 4.
pub fn serve_pool(seed: u64) -> Vec<Input> {
    let mut rng = rng(seed, 3);
    let mut inputs = Vec::new();
    for i in 0..SERVE_CIRCUITS {
        let s = 0x5E_0000 + i as u64;
        let (name, network) = match i % 4 {
            0 => ("ctl_a", control(s, 96, 72, 260, (2, 5), (2, 6))),
            1 => ("ctl_b", control(s, 44, 44, 180, (3, 6), (2, 6))),
            2 => ("rnd_a", random_logic(s, 96, 420, 70, 4)),
            _ => ("rnd_b", random_logic(s, 120, 520, 90, 4)),
        };
        inputs.push(comb(format!("{name}{i}"), 4, Arc::new(network), &mut rng));
    }
    for i in 0..SERVE_DESIGNS {
        let width = 32 + 4 * (i % 3);
        let name = format!("pipe{i}x{width}");
        inputs.push(Input {
            blif: chortle_bench::pipelined_design(&name, 6, width),
            name,
            k: 4,
            source: Source::Design,
        });
    }
    inputs
}

/// One cycle of the daemon's request sequence, as indices into
/// [`serve_pool`]: every input twice, in a seeded order. The load flushes
/// the warm cache at the start of every cycle, so each input's first
/// frame in a cycle is a miss and its second a hit.
pub fn serve_cycle(seed: u64) -> Vec<usize> {
    let mut cycle: Vec<usize> = (0..SERVE_CIRCUITS + SERVE_DESIGNS)
        .flat_map(|i| [i, i])
        .collect();
    rng(seed, 4).shuffle(&mut cycle);
    cycle
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::check_networks;

    #[test]
    fn presented_keeps_function_and_interface() {
        let network = des_like(0xDE5, 8, 2);
        let a = presented(&network, &mut SplitMix64::new(1));
        let b = presented(&network, &mut SplitMix64::new(2));
        check_networks(&network, &a).expect("same function");
        check_networks(&network, &b).expect("same function");
        assert_eq!(a.num_inputs(), network.num_inputs());
        assert_eq!(a.outputs().len(), network.outputs().len());
        assert_ne!(write_blif(&a, "m"), write_blif(&b, "m"));
    }

    #[test]
    fn serve_cycle_sends_every_input_twice() {
        let mut cycle = serve_cycle(7);
        cycle.sort_unstable();
        let want: Vec<usize> = (0..SERVE_CIRCUITS + SERVE_DESIGNS)
            .flat_map(|i| [i, i])
            .collect();
        assert_eq!(cycle, want);
    }
}
