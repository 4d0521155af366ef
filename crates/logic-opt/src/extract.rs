//! Greedy common-subexpression extraction (MIS' `gkx` / `gcx`).
//!
//! Kernel extraction finds multi-cube divisors shared across node SOPs and
//! turns the best one into a new node; cube extraction does the same for
//! single-cube divisors. Both passes repeat greedily while the total
//! literal count decreases — the objective the paper's "standard MIS II
//! script" minimizes before technology mapping.
//!
//! Kernel extraction is incremental: each node's candidate kernels and
//! substitution values are computed once and again only when an
//! extraction rewrites the node, and a per-kernel table keeps the totals
//! the greedy choice compares. The choice itself (highest total, ties to
//! the smallest kernel) is unchanged, so the extracted network is too
//! (see the repository's `DESIGN.md` §8.3).

use std::collections::HashMap;

use crate::cube::{Cube, Literal};
use crate::kernels::kernels;
use crate::network::SopNetwork;
use crate::sop::Sop;

/// Caps kernel enumeration per node to keep extraction fast on wide SOPs.
const MAX_KERNELS_PER_NODE: usize = 200;
/// Nodes with more cubes than this are skipped by kernel enumeration.
const MAX_CUBES_FOR_KERNELING: usize = 120;

/// Outcome of one extraction pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtractReport {
    /// New nodes created.
    pub extracted: usize,
    /// Total SOP literals saved.
    pub literals_saved: usize,
    /// Weak divisions performed (kernel extraction only): one per
    /// candidate kernel of every node whose SOP was (re)evaluated, plus
    /// one per substitution. A deterministic work count.
    pub kernel_divisions: usize,
}

/// Literal-count value of substituting divisor `d` into node SOP `f`:
/// `lits(f) - (lits(q) + cubes(q) + lits(r))`, or `None` when `d` does not
/// divide `f`.
fn substitution_value(f: &Sop, d: &Sop) -> Option<isize> {
    let (q, r) = f.divide(d);
    if q.is_zero() {
        return None;
    }
    let new_lits = q.num_literals() + q.num_cubes() + r.num_literals();
    Some(f.num_literals() as isize - new_lits as isize)
}

/// Substitutes divisor node `x` (defined as `d`) into `f`: `f = x·q + r`.
fn substitute(f: &Sop, d: &Sop, x: usize) -> Sop {
    let (q, r) = f.divide(d);
    debug_assert!(!q.is_zero());
    let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
    let mut cubes: Vec<Cube> = q
        .cubes()
        .iter()
        .map(|c| c.product(&x_cube).expect("fresh variable cannot clash"))
        .collect();
    cubes.extend(r.cubes().iter().cloned());
    Sop::from_cubes(cubes)
}

/// The positive substitution values of one kernel.
#[derive(Default)]
struct KernelUses {
    /// The nodes listing the kernel as a candidate whose substitution
    /// value is positive, with that value.
    positive: Vec<(usize, isize)>,
    /// Sum of the positive values.
    sum: isize,
}

/// A node's candidates that pay: kernel ids in the [`KernelTable`], each
/// with the node's positive substitution value.
type Candidates = Vec<(usize, isize)>;

/// Every kernel some node has had a positive substitution value for,
/// stored once, with the positive values of the nodes listing it now.
#[derive(Default)]
struct KernelTable {
    ids: HashMap<Sop, usize>,
    uses: Vec<KernelUses>,
}

impl KernelTable {
    /// Computes node SOP `f`'s candidates — the distinct multi-cube
    /// kernels among the first [`MAX_KERNELS_PER_NODE`] of [`kernels`],
    /// for SOPs of 2..=[`MAX_CUBES_FOR_KERNELING`] cubes — and adds those
    /// with a positive value as node `var`'s.
    fn add(&mut self, var: usize, f: &Sop, divisions: &mut usize) -> Candidates {
        if f.num_cubes() < 2 || f.num_cubes() > MAX_CUBES_FOR_KERNELING {
            return Vec::new();
        }
        let mut ks: Vec<Sop> = kernels(f)
            .into_iter()
            .take(MAX_KERNELS_PER_NODE)
            .map(|k| k.kernel)
            .filter(|k| k.num_cubes() >= 2)
            .collect();
        ks.dedup(); // kernels() sorts by kernel, so repeats are adjacent
        *divisions += ks.len();
        let mut candidates = Vec::new();
        for kernel in ks {
            let Some(v) = substitution_value(f, &kernel).filter(|&v| v > 0) else {
                continue;
            };
            let next = self.uses.len();
            let id = *self.ids.entry(kernel).or_insert(next);
            if id == next {
                self.uses.push(KernelUses::default());
            }
            self.uses[id].positive.push((var, v));
            self.uses[id].sum += v;
            candidates.push((id, v));
        }
        candidates
    }

    /// Withdraws node `var`'s candidates.
    fn remove(&mut self, var: usize, candidates: &Candidates) {
        for &(id, v) in candidates {
            let uses = &mut self.uses[id];
            uses.positive.retain(|&(u, _)| u != var);
            uses.sum -= v;
        }
    }

    /// The kernel to extract: the highest `total = sum − lits(kernel)`,
    /// ties going to the smallest kernel; `None` when no total is
    /// positive (a kernel without positive uses has `sum = 0`).
    fn best(&self) -> Option<(isize, &Sop, usize)> {
        let mut best: Option<(isize, &Sop, usize)> = None;
        for (kernel, &id) in &self.ids {
            let total = self.uses[id].sum - kernel.num_literals() as isize;
            if total <= 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bt, bk, _)) => total > bt || (total == bt && kernel < bk),
            };
            if better {
                best = Some((total, kernel, id));
            }
        }
        best
    }
}

/// One greedy kernel-extraction sweep: finds the kernel with the best total
/// literal saving across all nodes, extracts it as a new node, substitutes
/// it everywhere it pays, and repeats until no kernel saves literals.
///
/// A kernel's total is `sum − lits(kernel)`, where `sum` adds the positive
/// substitution values of the nodes listing it as a candidate; the highest
/// total wins, ties going to the smallest kernel.
///
/// Returns the number of extractions, literals saved and divisions done.
///
/// # Examples
///
/// ```
/// use chortle_logic_opt::{extract_kernels, Literal, Sop, SopNetwork};
///
/// let mut net = SopNetwork::new();
/// let vars: Vec<usize> = (0..4).map(|i| net.add_input(format!("i{i}"))).collect();
/// // Two nodes sharing the divisor (a + b).
/// let f = Sop::try_from_slices(&[
///     &[(vars[0], false), (vars[2], false)],
///     &[(vars[1], false), (vars[2], false)],
/// ]).unwrap();
/// let g = Sop::try_from_slices(&[
///     &[(vars[0], false), (vars[3], false)],
///     &[(vars[1], false), (vars[3], false)],
/// ]).unwrap();
/// let nf = net.add_node(f);
/// let ng = net.add_node(g);
/// net.add_output("f", Literal::positive(nf));
/// net.add_output("g", Literal::positive(ng));
///
/// let report = extract_kernels(&mut net);
/// assert_eq!(report.extracted, 1);
/// ```
pub fn extract_kernels(net: &mut SopNetwork) -> ExtractReport {
    let mut report = ExtractReport::default();
    let mut table = KernelTable::default();
    let mut candidates: Vec<Candidates> = vec![Vec::new(); net.len()];
    for var in net.node_vars() {
        let f = net.node_sop(var).expect("node var");
        candidates[var] = table.add(var, f, &mut report.kernel_divisions);
    }
    while let Some((total, kernel, id)) = table.best() {
        let kernel = kernel.clone();
        let mut rewritten: Vec<usize> = table.uses[id].positive.iter().map(|&(v, _)| v).collect();
        rewritten.sort_unstable();
        let x = net.add_node(kernel.clone());
        candidates.push(Vec::new());
        rewritten.push(x);
        for var in rewritten {
            table.remove(var, &candidates[var]);
            if var != x {
                let f = net.node_sop(var).expect("node");
                report.kernel_divisions += 1;
                net.set_node_sop(var, substitute(f, &kernel, x));
            }
            let f = net.node_sop(var).expect("node");
            candidates[var] = table.add(var, f, &mut report.kernel_divisions);
        }
        report.extracted += 1;
        report.literals_saved += total as usize;
    }
    report
}

/// One greedy cube-extraction sweep: finds the multi-literal cube shared by
/// the most product terms (weighted by literal savings), extracts it as a
/// new single-cube node, and repeats.
pub fn extract_cubes(net: &mut SopNetwork) -> ExtractReport {
    let mut report = ExtractReport::default();
    loop {
        // Candidate cubes: pairwise intersections of cubes within each
        // node (cross-node sharing is found because the intersection cube
        // is matched against every node below).
        let mut candidates: HashMap<Cube, ()> = HashMap::new();
        for var in net.node_vars() {
            let sop = net.node_sop(var).expect("node");
            let cubes = sop.cubes();
            for i in 0..cubes.len() {
                for j in (i + 1)..cubes.len().min(i + 40) {
                    let inter = cubes[i].intersection(&cubes[j]);
                    if inter.len() >= 2 {
                        candidates.insert(inter, ());
                    }
                }
            }
        }
        let mut best: Option<(isize, Cube, Vec<usize>)> = None;
        for (cube, ()) in candidates {
            let mut uses = Vec::new();
            let mut total: isize = -(cube.len() as isize);
            for var in net.node_vars() {
                let f = net.node_sop(var).expect("node");
                let covered = f.cubes().iter().filter(|c| cube.covers(c)).count() as isize;
                if covered >= 1 {
                    // Each covered cube replaces `len` literals by one.
                    let v = covered * (cube.len() as isize - 1);
                    if v > 0 {
                        uses.push(var);
                        total += v;
                    }
                }
            }
            if uses.is_empty() || total <= 0 {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bt, bc, _)) => total > *bt || (total == *bt && cube < *bc),
            };
            if better {
                best = Some((total, cube, uses));
            }
        }
        let Some((total, cube, uses)) = best else {
            break;
        };
        let x = net.add_node(Sop::from_cubes([cube.clone()]));
        let x_cube = Cube::from_literals([Literal::positive(x)]).expect("fresh variable");
        for var in uses {
            let f = net.node_sop(var).expect("node").clone();
            let cubes: Vec<Cube> = f
                .cubes()
                .iter()
                .map(|c| {
                    if cube.covers(c) {
                        c.without(&cube)
                            .product(&x_cube)
                            .expect("fresh variable cannot clash")
                    } else {
                        c.clone()
                    }
                })
                .collect();
            net.set_node_sop(var, Sop::from_cubes(cubes));
        }
        report.extracted += 1;
        report.literals_saved += total as usize;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sop(cubes: &[&[(usize, bool)]]) -> Sop {
        Sop::try_from_slices(cubes).unwrap()
    }

    fn check_preserved(net: &SopNetwork, reference: &SopNetwork, inputs: usize) {
        for bits in 0..(1u64 << inputs) {
            assert_eq!(
                net.eval_outputs(bits),
                reference.eval_outputs(bits),
                "outputs differ on {bits:b}"
            );
        }
    }

    #[test]
    fn kernel_extraction_saves_literals() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        let e = net.add_input("e");
        // f = ac + bc + ad + bd (kernel a+b used twice, or c+d twice)
        let nf = net.add_node(sop(&[
            &[(a, false), (c, false)],
            &[(b, false), (c, false)],
            &[(a, false), (d, false)],
            &[(b, false), (d, false)],
        ]));
        // g = ae + be shares a+b.
        let ng = net.add_node(sop(&[&[(a, false), (e, false)], &[(b, false), (e, false)]]));
        net.add_output("f", Literal::positive(nf));
        net.add_output("g", Literal::positive(ng));

        let before = net.clone();
        let lits_before = net.literal_count();
        let report = extract_kernels(&mut net);
        assert!(report.extracted >= 1);
        assert!(net.literal_count() < lits_before);
        check_preserved(&net, &before, 5);
    }

    #[test]
    fn cube_extraction_factors_shared_products() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let d = net.add_input("d");
        // f = abc + abd + ab!d : shared cube ab used three times, so
        // extraction saves a literal (two uses would only break even).
        let nf = net.add_node(sop(&[
            &[(a, false), (b, false), (c, false)],
            &[(a, false), (b, false), (d, false)],
            &[(a, false), (b, false), (c, true), (d, true)],
        ]));
        net.add_output("f", Literal::positive(nf));

        let before = net.clone();
        let report = extract_cubes(&mut net);
        assert_eq!(report.extracted, 1);
        check_preserved(&net, &before, 4);
    }

    #[test]
    fn no_extraction_when_nothing_shared() {
        let mut net = SopNetwork::new();
        let a = net.add_input("a");
        let b = net.add_input("b");
        let nf = net.add_node(sop(&[&[(a, false)], &[(b, false)]]));
        net.add_output("f", Literal::positive(nf));
        assert_eq!(extract_kernels(&mut net).extracted, 0);
        assert_eq!(extract_cubes(&mut net).extracted, 0);
    }

    #[test]
    fn substitution_value_model() {
        // f = ac + bc, d = a + b: new form = x·c → lits 2, old 4, q = {c}
        // value = 4 - (1 + 1 + 0) = 2.
        let f = sop(&[&[(0, false), (2, false)], &[(1, false), (2, false)]]);
        let d = sop(&[&[(0, false)], &[(1, false)]]);
        assert_eq!(substitution_value(&f, &d), Some(2));
        let unrelated = sop(&[&[(3, false)], &[(4, false)]]);
        assert_eq!(substitution_value(&f, &unrelated), None);
    }
}
