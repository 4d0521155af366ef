//! The multi-level SOP network manipulated by the optimization script.
//!
//! A [`SopNetwork`] is a set of named primary inputs plus internal nodes,
//! each carrying a sum-of-products over a *global* variable space in which
//! variable `v` is item `v` (input or node). Optimization passes rewrite
//! node SOPs in place; [`SopNetwork::to_network`] factors every node and
//! emits the AND/OR [`Network`] consumed by technology mapping.
//!
//! [`SopNetwork::eliminate`] runs in time linear in the consumer cubes it
//! touches: a consumer index (node → nodes whose SOP may hold its
//! positive literal) drives both the value sum and the rewrite, while the
//! sweep order, the per-sweep use-count snapshot and the value formula
//! are those of the plain all-nodes scan, so the result is the same
//! network (see the repository's `DESIGN.md` §8.3).

use std::collections::HashMap;

use chortle_netlist::{Network, NetworkError, NodeOp, Signal};

use crate::cube::{Cube, Literal};
use crate::factor::{factor, Factored};
use crate::sop::Sop;

/// An item of the global variable space.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Item {
    /// A primary input with its name.
    Input(String),
    /// An internal node defined by an SOP over the global space.
    Node(Sop),
}

/// Outcome of [`SopNetwork::eliminate`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EliminateReport {
    /// Nodes eliminated (inlined into every consumer, then emptied).
    pub eliminated: usize,
    /// Consumer cubes examined: every cube of every consumer whose value
    /// was summed or which was rewritten. A deterministic work count.
    pub visits: usize,
}

/// A multi-level network of SOP nodes over a shared variable space.
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{Literal, Sop, SopNetwork};
///
/// let mut net = SopNetwork::new();
/// let a = net.add_input("a");
/// let b = net.add_input("b");
/// let f = Sop::try_from_slices(&[&[(a, false), (b, false)]]).unwrap();
/// let n = net.add_node(f);
/// net.add_output("z", Literal::positive(n));
/// assert_eq!(net.literal_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SopNetwork {
    items: Vec<Item>,
    outputs: Vec<(String, Literal)>,
}

impl SopNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        SopNetwork::default()
    }

    /// Adds a primary input; returns its global variable index.
    pub fn add_input(&mut self, name: impl Into<String>) -> usize {
        self.items.push(Item::Input(name.into()));
        self.items.len() - 1
    }

    /// Adds an internal node with the given SOP; returns its global
    /// variable index.
    ///
    /// # Panics
    ///
    /// Panics if the SOP references a variable index that does not exist
    /// yet and is not the node itself (self-reference is always invalid).
    pub fn add_node(&mut self, sop: Sop) -> usize {
        let idx = self.items.len();
        if let Some(max) = sop.max_var() {
            assert!(max < idx, "node SOP references undefined variable v{max}");
        }
        self.items.push(Item::Node(sop));
        idx
    }

    /// Declares a primary output driven by `literal`.
    pub fn add_output(&mut self, name: impl Into<String>, literal: Literal) {
        assert!(
            literal.var() < self.items.len(),
            "output references undefined item"
        );
        self.outputs.push((name.into(), literal));
    }

    /// Number of items (inputs + nodes).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the network has no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Indexes of the primary inputs.
    pub fn input_vars(&self) -> Vec<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, Item::Input(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// The SOP of node `var`, or `None` for inputs.
    pub fn node_sop(&self, var: usize) -> Option<&Sop> {
        match &self.items[var] {
            Item::Node(s) => Some(s),
            Item::Input(_) => None,
        }
    }

    /// Replaces the SOP of node `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is a primary input.
    pub fn set_node_sop(&mut self, var: usize, sop: Sop) {
        match &mut self.items[var] {
            Item::Node(s) => *s = sop,
            Item::Input(_) => panic!("cannot assign an SOP to a primary input"),
        }
    }

    /// Indexes of all internal nodes.
    pub fn node_vars(&self) -> Vec<usize> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, it)| matches!(it, Item::Node(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total SOP literal count over all nodes — the optimization cost.
    pub fn literal_count(&self) -> usize {
        self.items
            .iter()
            .map(|it| match it {
                Item::Node(s) => s.num_literals(),
                Item::Input(_) => 0,
            })
            .sum()
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[(String, Literal)] {
        &self.outputs
    }

    /// Applies single-cube-containment minimization to every node.
    pub fn minimize_nodes(&mut self) {
        for item in &mut self.items {
            if let Item::Node(s) = item {
                s.minimize();
            }
        }
    }

    /// Imports an AND/OR [`Network`]: each gate becomes an SOP node (AND →
    /// one cube, OR → one single-literal cube per fanin).
    pub fn from_network(network: &Network) -> Self {
        let mut out = SopNetwork::new();
        let mut var_of = vec![usize::MAX; network.len()];
        for (id, node) in network.nodes() {
            let var = match node.op() {
                NodeOp::Input => out.add_input(
                    node.name()
                        .map(str::to_owned)
                        .unwrap_or_else(|| format!("n{}", id.index())),
                ),
                NodeOp::Const(v) => out.add_node(if v { Sop::one() } else { Sop::zero() }),
                NodeOp::And => {
                    let cube =
                        Cube::from_literals(node.fanins().iter().map(|s| {
                            Literal::with_phase(var_of[s.node().index()], s.is_inverted())
                        }))
                        .expect("network gates reference distinct nodes");
                    out.add_node(Sop::from_cubes([cube]))
                }
                NodeOp::Or => {
                    let cubes = node.fanins().iter().map(|s| {
                        Cube::from_literals([Literal::with_phase(
                            var_of[s.node().index()],
                            s.is_inverted(),
                        )])
                        .expect("single literal cube")
                    });
                    out.add_node(Sop::from_cubes(cubes))
                }
            };
            var_of[id.index()] = var;
        }
        for o in network.outputs() {
            out.add_output(
                o.name.clone(),
                Literal::with_phase(var_of[o.signal.node().index()], o.signal.is_inverted()),
            );
        }
        out
    }

    /// Fanout count of every item: positive-phase uses in node SOPs plus
    /// output drivers (either phase).
    pub fn use_counts(&self) -> Vec<(usize, usize)> {
        // (positive uses, negative uses)
        let mut counts = vec![(0usize, 0usize); self.items.len()];
        for item in &self.items {
            if let Item::Node(s) = item {
                for c in s.cubes() {
                    for l in c.literals() {
                        if l.is_inverted() {
                            counts[l.var()].1 += 1;
                        } else {
                            counts[l.var()].0 += 1;
                        }
                    }
                }
            }
        }
        for (_, l) in &self.outputs {
            if l.is_inverted() {
                counts[l.var()].1 += 1;
            } else {
                counts[l.var()].0 += 1;
            }
        }
        counts
    }

    /// Inlines ("eliminates") internal nodes whose substitution into their
    /// consumers does not grow the total literal count by more than
    /// `threshold` (MIS' `eliminate` with a value threshold).
    ///
    /// Only positive-phase uses can be inlined algebraically; nodes with
    /// inverted uses or output drivers keep their definition (but positive
    /// uses may still be substituted away when the node then becomes dead).
    ///
    /// Sweeps visit the nodes in ascending index order until a sweep
    /// eliminates nothing; each sweep judges phases and use counts from a
    /// snapshot taken at its start, and literal values from the current
    /// SOPs.
    pub fn eliminate(&mut self, threshold: isize) -> EliminateReport {
        let mut report = EliminateReport::default();
        let mut is_output = vec![false; self.items.len()];
        for (_, l) in &self.outputs {
            is_output[l.var()] = true;
        }
        // consumers[v] holds every node whose SOP contains +v, and possibly
        // nodes that no longer do: entries are checked when read.
        let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); self.items.len()];
        for (i, item) in self.items.iter().enumerate() {
            if let Item::Node(s) = item {
                index_consumer(&mut consumers, i, s);
            }
        }
        // Repeat until a fixed point: inlining can enable more inlining.
        loop {
            let mut progress = false;
            let counts = self.use_counts();
            for var in 0..self.items.len() {
                let Item::Node(sop) = &self.items[var] else {
                    continue;
                };
                let (pos, neg) = counts[var];
                // Inline only pure positive-phase, non-output nodes whose
                // SOP would not blow up the consumers.
                if neg > 0 || pos == 0 || is_output[var] {
                    continue;
                }
                // Exact literal delta of distributing the node's SOP into
                // every consuming cube: a cube of length L whose literal x
                // is replaced by an m-cube SOP with λ literals becomes m
                // cubes totalling m(L-1) + λ literals; the node's own λ
                // literals disappear. Constants always inline.
                let x = Literal::positive(var);
                let m = sop.num_cubes() as isize;
                let lam = sop.num_literals() as isize;
                let mut value = -lam;
                let mut users = std::mem::take(&mut consumers[var]);
                users.sort_unstable();
                users.dedup();
                users.retain(|&i| {
                    let Item::Node(s) = &self.items[i] else {
                        return false;
                    };
                    report.visits += s.num_cubes();
                    let mut holds = false;
                    for c in s.cubes().iter().filter(|c| c.has(x)) {
                        let len = c.len() as isize;
                        value += m * (len - 1) + lam - len;
                        holds = true;
                    }
                    holds
                });
                if value > threshold && !(sop.is_zero() || sop.is_one()) {
                    consumers[var] = users;
                    continue;
                }
                let sop = sop.clone();
                self.inline_node(var, &sop, &users, &mut consumers, &mut report.visits);
                report.eliminated += 1;
                progress = true;
            }
            if !progress {
                break;
            }
        }
        report
    }

    /// Substitutes node `var`'s SOP into the positive uses held by `users`
    /// and empties the node, which is then dead. Rewritten consumers are
    /// indexed under the support they gain.
    fn inline_node(
        &mut self,
        var: usize,
        sop: &Sop,
        users: &[usize],
        consumers: &mut [Vec<usize>],
        visits: &mut usize,
    ) {
        let lit = Literal::positive(var);
        let lit_cube = Cube::from_literals([lit]).expect("lit cube");
        for &i in users.iter().filter(|&&i| i != var) {
            let Item::Node(consumer) = &self.items[i] else {
                continue;
            };
            *visits += consumer.num_cubes();
            let mut new_cubes: Vec<Cube> = Vec::new();
            for c in consumer.cubes() {
                if c.has(lit) {
                    let rest = c.without(&lit_cube);
                    for d in sop.cubes() {
                        if let Some(p) = rest.product(d) {
                            new_cubes.push(p);
                        }
                    }
                    // sop == 0 simply drops the cube; contradictions drop
                    // the offending product.
                } else {
                    new_cubes.push(c.clone());
                }
            }
            let mut new_sop = Sop::from_cubes(new_cubes);
            new_sop.minimize();
            self.items[i] = Item::Node(new_sop);
            index_consumer(consumers, i, sop);
        }
        self.items[var] = Item::Node(Sop::zero());
    }

    /// Evaluates every output on an input assignment (bit `i` of `bits` is
    /// the value of the `i`-th primary input in declaration order).
    ///
    /// Useful for equivalence checks in tests; networks must be acyclic.
    pub fn eval_outputs(&self, bits: u64) -> Vec<bool> {
        let order = self.topological_order().expect("acyclic network");
        let mut values = vec![false; self.items.len()];
        let mut input_no = 0usize;
        // Assign inputs in declaration order first.
        for (i, item) in self.items.iter().enumerate() {
            if matches!(item, Item::Input(_)) {
                values[i] = (bits >> input_no) & 1 == 1;
                input_no += 1;
            }
        }
        for &i in &order {
            if let Item::Node(s) = &self.items[i] {
                let mut v = false;
                'cubes: for c in s.cubes() {
                    for l in c.literals() {
                        if values[l.var()] == l.is_inverted() {
                            continue 'cubes;
                        }
                    }
                    v = true;
                    break;
                }
                values[i] = v;
            }
        }
        self.outputs
            .iter()
            .map(|(_, l)| values[l.var()] != l.is_inverted())
            .collect()
    }

    /// Topological order of items (dependencies first); `None` on a cycle.
    fn topological_order(&self) -> Option<Vec<usize>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.items.len()];
        let mut order = Vec::with_capacity(self.items.len());
        for root in 0..self.items.len() {
            if marks[root] != Mark::White {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(&mut (i, ref mut child)) = stack.last_mut() {
                if marks[i] == Mark::Black {
                    stack.pop();
                    continue;
                }
                marks[i] = Mark::Grey;
                let deps: Vec<usize> = match &self.items[i] {
                    Item::Input(_) => Vec::new(),
                    Item::Node(s) => s.support(),
                };
                if *child < deps.len() {
                    let d = deps[*child];
                    *child += 1;
                    match marks[d] {
                        Mark::White => stack.push((d, 0)),
                        Mark::Grey => return None,
                        Mark::Black => {}
                    }
                } else {
                    marks[i] = Mark::Black;
                    order.push(i);
                    stack.pop();
                }
            }
        }
        Some(order)
    }

    /// Items reachable from the primary outputs (plus all inputs).
    fn live_items(&self) -> Vec<bool> {
        let mut live = vec![false; self.items.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|(_, l)| l.var()).collect();
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut live[i], true) {
                continue;
            }
            if let Item::Node(s) = &self.items[i] {
                stack.extend(s.support());
            }
        }
        for (i, item) in self.items.iter().enumerate() {
            if matches!(item, Item::Input(_)) {
                live[i] = true; // primary inputs are always emitted
            }
        }
        live
    }

    /// Factors every node and emits the AND/OR [`Network`] for technology
    /// mapping. Dead nodes (unreachable from any output) are swept; all
    /// primary inputs are preserved.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::Structure`] if the SOP network contains a
    /// combinational cycle (which optimization passes never create).
    pub fn to_network(&self) -> Result<Network, NetworkError> {
        let order = self
            .topological_order()
            .ok_or_else(|| NetworkError::Structure("cycle in SOP network".into()))?;
        let live = self.live_items();
        let mut net = Network::new();
        // Each item maps to a polarized signal in the output network.
        let mut signal_of: HashMap<usize, Signal> = HashMap::new();
        // Primary inputs first, in declaration order, so the emitted
        // network's input list matches the SOP network's.
        for (i, item) in self.items.iter().enumerate() {
            if let Item::Input(name) = item {
                let id = net.add_input(name.clone());
                signal_of.insert(i, Signal::new(id));
            }
        }
        for &i in &order {
            if !live[i] {
                continue;
            }
            match &self.items[i] {
                Item::Input(_) => {}
                Item::Node(sop) => {
                    let tree = factor(sop);
                    let sig = emit_factored(&tree, &signal_of, &mut net);
                    signal_of.insert(i, sig);
                }
            }
        }
        for (name, lit) in &self.outputs {
            let sig = signal_of[&lit.var()];
            net.add_output(
                name.clone(),
                sig.with_inversion(sig.is_inverted() ^ lit.is_inverted()),
            );
        }
        Ok(net)
    }
}

/// Records node `i` as a consumer of every positive literal of `sop`.
fn index_consumer(consumers: &mut [Vec<usize>], i: usize, sop: &Sop) {
    for l in sop.cubes().iter().flat_map(Cube::literals) {
        let list = &mut consumers[l.var()];
        if !l.is_inverted() && list.last() != Some(&i) {
            list.push(i);
        }
    }
}

/// Emits gates for a factored expression; returns the polarized signal of
/// its value.
fn emit_factored(tree: &Factored, signal_of: &HashMap<usize, Signal>, net: &mut Network) -> Signal {
    match tree {
        Factored::Const(v) => Signal::new(net.add_const(*v)),
        Factored::Literal(l) => {
            let s = signal_of[&l.var()];
            s.with_inversion(s.is_inverted() ^ l.is_inverted())
        }
        Factored::And(xs) | Factored::Or(xs) => {
            let op = if matches!(tree, Factored::And(_)) {
                NodeOp::And
            } else {
                NodeOp::Or
            };
            let mut fanins: Vec<Signal> = xs
                .iter()
                .map(|x| emit_factored(x, signal_of, net))
                .collect();
            // Deduplicate identical fanin nodes (can arise from factoring
            // degenerate SOPs); contradictory pairs collapse to constants.
            let mut seen = std::collections::HashSet::new();
            fanins.retain(|s| seen.insert(*s));
            if fanins.iter().any(|s| seen.contains(&!*s)) {
                return Signal::new(net.add_const(op == NodeOp::Or));
            }
            if fanins.len() == 1 {
                return fanins[0];
            }
            Signal::new(net.add_gate(op, fanins))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chortle_netlist::NodeOp;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    #[test]
    fn roundtrip_from_network() {
        let mut net = Network::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let g1 = net.add_gate(NodeOp::And, vec![a.into(), Signal::inverted(b)]);
        let g2 = net.add_gate(NodeOp::Or, vec![g1.into(), c.into()]);
        net.add_output("z", Signal::inverted(g2));

        let sop_net = SopNetwork::from_network(&net);
        let back = sop_net.to_network().expect("acyclic");
        back.validate().expect("valid");
        let f1 = net.signal_function(net.outputs()[0].signal).unwrap();
        let f2 = back.signal_function(back.outputs()[0].signal).unwrap();
        assert_eq!(f1, f2);
    }

    #[test]
    fn eval_outputs_matches_structure() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let f = n.add_node(sop(&[&[(a, false), (b, true)]])); // a & !b
        n.add_output("z", Literal::positive(f));
        n.add_output("nz", Literal::negative(f));
        assert_eq!(n.eval_outputs(0b01), vec![true, false]);
        assert_eq!(n.eval_outputs(0b11), vec![false, true]);
    }

    #[test]
    fn eliminate_inlines_small_nodes() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let t = n.add_node(sop(&[&[(a, false), (b, false)]])); // t = ab
        let z = n.add_node(sop(&[&[(t, false), (c, false)]])); // z = tc
        n.add_output("z", Literal::positive(z));

        let before: Vec<bool> = (0..8).map(|bits| n.eval_outputs(bits)[0]).collect();
        let removed = n.eliminate(0).eliminated;
        assert_eq!(removed, 1);
        let after: Vec<bool> = (0..8).map(|bits| n.eval_outputs(bits)[0]).collect();
        assert_eq!(before, after);
        // z's SOP is now abc directly.
        assert_eq!(
            n.node_sop(z).unwrap(),
            &sop(&[&[(a, false), (b, false), (c, false)]])
        );
    }

    #[test]
    fn eliminate_keeps_inverted_uses() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let t = n.add_node(sop(&[&[(a, false), (b, false)]]));
        let z = n.add_node(sop(&[&[(t, true)]])); // z = !t — not inlinable
        n.add_output("z", Literal::positive(z));
        assert_eq!(n.eliminate(0).eliminated, 0);
        assert!(n.node_sop(t).is_some());
    }

    #[test]
    fn to_network_handles_inverted_outputs() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let f = n.add_node(sop(&[&[(a, true)]])); // f = !a
        n.add_output("z", Literal::negative(f)); // z = !f = a
        let net = n.to_network().expect("acyclic");
        let t = net.signal_function(net.outputs()[0].signal).unwrap();
        assert!(t.eval(1));
        assert!(!t.eval(0));
    }

    #[test]
    fn detects_cycles() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let f = n.add_node(sop(&[&[(a, false)]]));
        // Manually create a cycle by rewriting f to depend on itself.
        n.set_node_sop(f, sop(&[&[(f, false)]]));
        assert!(n.to_network().is_err());
    }

    #[test]
    fn literal_count_sums_nodes() {
        let mut n = SopNetwork::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        n.add_node(sop(&[&[(a, false), (b, false)], &[(a, true)]]));
        assert_eq!(n.literal_count(), 3);
    }
}
