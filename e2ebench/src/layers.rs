//! Per-layer totals of a traced run and the metrics derived from them.
//!
//! Times are summed over every traced attempt and reported as a mean per
//! circuit or request; sizes and counts are summed once per distinct
//! input, so they repeat exactly for a seed. Each layer's self time is
//! divided by the traced wall time (the summed end-to-end time of the
//! traced attempts) to give its share; what no layer covers is the
//! remainder.

use chortle_cli::stats as flow_stages;
use chortle_logic_opt::{optimize_with_telemetry, OptimizeOptions};
use chortle_netlist::parse_blif;
use chortle_telemetry::Telemetry;

use crate::check::Record;
use crate::inputs::{Input, Source};
use crate::stats::Latencies;
use crate::Metric;

/// Stage names of the optimize script, as its telemetry reports them.
const OPT_STAGES: [&str; 5] = [
    "opt.eliminate",
    "opt.minimize",
    "opt.kernels",
    "opt.cubes",
    "opt.factor",
];

/// Per-layer totals of one traced run.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced attempts.
    pub requests: u64,
    /// Summed end-to-end time of the traced attempts.
    pub wall_s: f64,
    /// `netlist`: BLIF parsing.
    pub parse_s: f64,
    /// Bytes of BLIF parsed.
    pub parse_bytes: f64,
    /// `logic_opt`: the whole optimize script.
    pub optimize_s: f64,
    /// The script's stages, in [`OPT_STAGES`] order.
    pub opt_stage_s: [f64; 5],
    /// `chortle`: mapping.
    pub map_s: f64,
    /// `netlist`: the flow's equivalence check.
    pub verify_s: f64,
    /// `netlist`: rendering the mapped BLIF.
    pub render_s: f64,
    /// `server`: execution time the daemon echoed (`run_ns`).
    pub run_s: f64,
    /// `server`: client latency not covered by `run_ns`.
    pub server_s: f64,
    /// `server`: mean admission queue wait.
    pub queue_wait_ms: f64,
    /// `server`: rejected or shed requests.
    pub shed: u64,
    /// DP-cache hits of the traced attempts.
    pub cache_hits: u64,
    /// DP-cache lookups of the traced attempts.
    pub cache_lookups: u64,
    /// SOP literals after optimization, summed over distinct inputs.
    pub literals_after: u64,
    /// Nodes the optimizer eliminated, summed over distinct inputs.
    pub eliminated: u64,
    /// Kernels and cubes the optimizer extracted, summed over distinct inputs.
    pub extracted: u64,
    /// Fanout-free trees mapped, summed over distinct inputs.
    pub trees: u64,
    /// DP utilization divisions, summed over distinct inputs.
    pub dp_divisions: u64,
    /// Bytes of mapped BLIF, summed over distinct inputs.
    pub output_bytes: u64,
    /// Combinational clouds cut from the distinct designs.
    pub design_clouds: u64,
    /// Summed `run_ns` of the traced design requests.
    pub design_run_s: f64,
    /// Traced design requests.
    pub design_requests: u64,
    /// Traced wall time over untraced wall time for the same work, minus 1.
    pub overhead_frac: f64,
}

impl Layers {
    /// Adds another set of totals to this one (the one-off
    /// `queue_wait_ms` and `overhead_frac` excepted).
    pub fn add(&mut self, o: &Layers) {
        self.requests += o.requests;
        self.wall_s += o.wall_s;
        self.parse_s += o.parse_s;
        self.parse_bytes += o.parse_bytes;
        self.optimize_s += o.optimize_s;
        for (a, b) in self.opt_stage_s.iter_mut().zip(o.opt_stage_s) {
            *a += b;
        }
        self.map_s += o.map_s;
        self.verify_s += o.verify_s;
        self.render_s += o.render_s;
        self.run_s += o.run_s;
        self.server_s += o.server_s;
        self.shed += o.shed;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.literals_after += o.literals_after;
        self.eliminated += o.eliminated;
        self.extracted += o.extracted;
        self.trees += o.trees;
        self.dp_divisions += o.dp_divisions;
        self.output_bytes += o.output_bytes;
        self.design_clouds += o.design_clouds;
        self.design_run_s += o.design_run_s;
        self.design_requests += o.design_requests;
    }

    /// Adds one flow's stage times, looked up by name in its telemetry
    /// report: the flow's own spans and the optimize script's stages.
    pub fn add_flow_stages(&mut self, stage_s: impl Fn(&str) -> f64) {
        self.parse_s += stage_s(flow_stages::STAGE_PARSE);
        self.optimize_s += stage_s(flow_stages::STAGE_OPTIMIZE);
        self.map_s += stage_s(flow_stages::STAGE_MAP);
        self.verify_s += stage_s(flow_stages::STAGE_VERIFY);
        self.render_s += stage_s(flow_stages::STAGE_RENDER);
        for (total, name) in self.opt_stage_s.iter_mut().zip(OPT_STAGES) {
            *total += stage_s(name);
        }
    }

    /// Adds one distinct input's mapper counts, looked up by name in its
    /// telemetry report.
    pub fn add_map_counts(&mut self, counter: impl Fn(&str) -> u64) {
        self.trees += counter(chortle::stats::MAP_TREES);
        self.dp_divisions += counter(chortle::stats::DP_DIVISIONS);
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.requests.max(1) as f64;
        let per = |s: f64| s / n;
        let share = |s: f64| {
            if self.wall_s > 0.0 {
                s / self.wall_s
            } else {
                0.0
            }
        };
        let netlist_s = self.parse_s + self.verify_s + self.render_s;
        let shares = [
            share(netlist_s),
            share(self.optimize_s),
            share(self.map_s),
            share(self.server_s),
        ];
        let [eliminate, minimize, kernels, cubes, factor] = self.opt_stage_s;
        let count = |v: u64| v as f64;
        vec![
            Metric::new("netlist.parse_s", per(self.parse_s), "s"),
            Metric::new(
                "netlist.parse_mb_per_s",
                self.parse_bytes / self.parse_s.max(f64::MIN_POSITIVE) / 1e6,
                "MB/s",
            ),
            Metric::new("logic_opt.optimize_s", per(self.optimize_s), "s"),
            Metric::new("logic_opt.eliminate_s", per(eliminate), "s"),
            Metric::new("logic_opt.kernels_s", per(kernels), "s"),
            Metric::new("logic_opt.minimize_s", per(minimize), "s"),
            Metric::new("logic_opt.cubes_s", per(cubes), "s"),
            Metric::new("logic_opt.factor_s", per(factor), "s"),
            Metric::new(
                "logic_opt.literals_after",
                count(self.literals_after),
                "count",
            ),
            Metric::new("logic_opt.eliminated", count(self.eliminated), "count"),
            Metric::new("logic_opt.extracted", count(self.extracted), "count"),
            Metric::new("chortle.map_s", per(self.map_s), "s"),
            Metric::new("chortle.trees", count(self.trees), "count"),
            Metric::new("chortle.dp_divisions", count(self.dp_divisions), "count"),
            Metric::new(
                "chortle.cache_hit_rate",
                self.cache_hits as f64 / self.cache_lookups.max(1) as f64,
                "ratio",
            ),
            Metric::new("netlist.verify_s", per(self.verify_s), "s"),
            Metric::new("netlist.render_s", per(self.render_s), "s"),
            Metric::new("netlist.output_bytes", count(self.output_bytes), "bytes"),
            Metric::new("server.run_ms", per(self.run_s) * 1e3, "ms"),
            Metric::new("server.overhead_ms", per(self.server_s) * 1e3, "ms"),
            Metric::new("server.queue_wait_ms", self.queue_wait_ms, "ms"),
            Metric::new("server.shed", count(self.shed), "count"),
            Metric::new("chortle.design_clouds", count(self.design_clouds), "count"),
            Metric::new(
                "chortle.design_run_ms",
                self.design_run_s / self.design_requests.max(1) as f64 * 1e3,
                "ms",
            ),
            Metric::new("netlist.share", shares[0], "ratio"),
            Metric::new("logic_opt.share", shares[1], "ratio"),
            Metric::new("chortle.share", shares[2], "ratio"),
            Metric::new("server.share", shares[3], "ratio"),
            Metric::new(
                "trace.remainder_share",
                1.0 - shares.iter().sum::<f64>(),
                "ratio",
            ),
            Metric::new("trace.overhead_frac", self.overhead_frac, "ratio"),
        ]
    }
}

/// Tracing overhead: the sum over inputs of each input's median traced
/// time, over the same sum for its untraced attempts, minus 1. Inputs
/// without attempts on both sides are left out.
pub fn overhead(traced: &[Record], untraced: &[&[Record]]) -> f64 {
    let (mut t, mut u) = (0.0, 0.0);
    for (i, record) in traced.iter().enumerate() {
        let mut plain = Latencies::default();
        for phase in untraced {
            plain.extend(&phase[i].latencies);
        }
        let (a, b) = (record.latencies.p50(), plain.p50());
        if a.is_finite() && b.is_finite() {
            t += a;
            u += b;
        }
    }
    t / u - 1.0
}

/// Adds the optimizer's own counts for every distinct combinational
/// input, from one `optimize_with_telemetry` call each: `run_flow` and the
/// daemon drop the `OptimizeReport`.
pub fn add_optimizer_counts(inputs: &[Input], layers: &mut Layers) {
    for input in inputs {
        let Source::Comb(_) = input.source else {
            continue;
        };
        let Ok(parsed) = parse_blif(&input.blif) else {
            continue;
        };
        let opts = OptimizeOptions::default();
        if let Ok((_, report)) = optimize_with_telemetry(&parsed, &opts, &Telemetry::disabled()) {
            layers.literals_after += report.literals_after as u64;
            layers.eliminated += report.eliminated as u64;
            layers.extracted += report.extracted as u64;
        }
    }
}
