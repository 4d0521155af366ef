//! Independent checks of mapped outputs, and the bookkeeping that makes
//! every repeat of an input produce the same bytes.

use chortle_netlist::{check_networks, parse_blif, parse_design, Design, Network};

use crate::inputs::{Input, Source};
use crate::stats::Latencies;

/// Re-parses a mapped output and checks it against the input's source:
/// a combinational circuit against the generator's unoptimized network,
/// a design against its own source BLIF with every latch's next-state
/// function exposed as an output.
pub fn independent(input: &Input, mapped: &str) -> Result<(), String> {
    let (source, mapped) = match &input.source {
        Source::Comb(network) => (
            (**network).clone(),
            parse_blif(mapped).map_err(|e| format!("mapped BLIF does not parse: {e}"))?,
        ),
        Source::Design => (
            unrolled(
                &parse_design(&input.blif)
                    .map_err(|e| format!("source: {e}"))?
                    .0,
            ),
            unrolled(
                &parse_design(mapped)
                    .map_err(|e| format!("mapped design: {e}"))?
                    .0,
            ),
        ),
    };
    let names =
        |n: &Network| -> Vec<String> { n.outputs().iter().map(|o| o.name.clone()).collect() };
    if source.num_inputs() != mapped.num_inputs() || names(&source) != names(&mapped) {
        return Err(format!(
            "interface differs: {} inputs {:?} vs {} inputs {:?}",
            source.num_inputs(),
            names(&source),
            mapped.num_inputs(),
            names(&mapped)
        ));
    }
    check_networks(&source, &mapped).map_err(|e| e.to_string())
}

/// The combinational view of a design: its logic with one extra output
/// per latch carrying the latch's data input.
fn unrolled(design: &Design) -> Network {
    let mut logic = design.logic().clone();
    for latch in design.latches() {
        logic.add_output(format!("{}$next", latch.output), latch.data);
    }
    logic
}

/// What the first attempt on an input produced; every later attempt must
/// produce the same.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Produced {
    /// LUTs in the mapped circuit.
    pub luts: usize,
    /// LUT depth of the mapped circuit.
    pub depth: usize,
    /// The mapped output, byte for byte.
    pub output: String,
}

/// Per-input record of one run.
#[derive(Debug, Default)]
pub struct Record {
    /// The first successful output.
    pub first: Option<Produced>,
    /// Attempts made.
    pub attempts: u64,
    /// Attempts that failed or disagreed with `first`.
    pub failures: u64,
    /// The first failure's description.
    pub problem: Option<String>,
    /// Wall time of each attempt.
    pub latencies: Latencies,
}

impl Record {
    /// Records one attempt and returns whether it succeeded. It fails when
    /// the program returned an error or produced something other than the
    /// first attempt did.
    pub fn record(&mut self, result: Result<Produced, String>, ms: f64) -> bool {
        self.attempts += 1;
        let problem = match result {
            Err(e) => Some(e),
            Ok(p) => match &self.first {
                None => {
                    self.first = Some(p);
                    None
                }
                Some(first) if *first == p => None,
                Some(first) => Some(format!(
                    "output differs between repeats ({} LUTs depth {} vs {} LUTs depth {})",
                    first.luts, first.depth, p.luts, p.depth
                )),
            },
        };
        let ok = problem.is_none();
        if ok {
            self.latencies.record(ms);
        } else {
            self.failures += 1;
            self.latencies.record_failure();
            self.problem = self.problem.take().or(problem);
        }
        ok
    }

    /// Folds another phase's record of the same input into this one; the
    /// two phases must have produced the same output.
    pub fn merge(&mut self, other: Record) {
        let other_ok = other.attempts - other.failures;
        self.attempts += other.attempts;
        self.failures += other.failures;
        self.latencies.extend(&other.latencies);
        self.problem = self.problem.take().or(other.problem);
        match (&self.first, other.first) {
            (_, None) => {}
            (None, first) => self.first = first,
            (Some(a), Some(b)) if *a == b => {}
            (Some(_), Some(_)) => {
                self.failures += other_ok;
                self.problem
                    .get_or_insert_with(|| "output differs between phases".to_owned());
            }
        }
    }
}

/// Checks every input's recorded output independently, prints one row per
/// input, and returns the LUT and depth totals. Failures go to `outcome`.
pub fn finish(
    workload: &str,
    inputs: &[Input],
    records: &[Record],
    outcome: &mut crate::Outcome,
) -> (usize, usize) {
    let (mut luts, mut depth) = (0, 0);
    for (input, record) in inputs.iter().zip(records) {
        outcome.attempted += record.attempts;
        if let Some(problem) = &record.problem {
            outcome.fail(
                record.failures,
                format!(
                    "{} K={}: {} failed attempts, first: {problem}",
                    input.name, input.k, record.failures
                ),
            );
        }
        let Some(first) = &record.first else {
            if record.attempts == 0 {
                outcome.attempted += 1;
                outcome.fail(
                    1,
                    format!("{} K={}: never attempted in this run", input.name, input.k),
                );
            }
            continue;
        };
        if let Err(e) = independent(input, &first.output) {
            outcome.fail(
                record.attempts - record.failures,
                format!(
                    "{} K={}: independent check failed: {e}",
                    input.name, input.k
                ),
            );
        }
        luts += first.luts;
        depth += first.depth;
        println!(
            "row\t{workload}\t{}\tk={}\tluts={}\tdepth={}\tbest_ms={:.3}\tp50_ms={:.3}\tn={}",
            input.name,
            input.k,
            first.luts,
            first.depth,
            record.latencies.best(),
            record.latencies.p50(),
            record.attempts
        );
    }
    (luts, depth)
}
