//! Sequential-design mapping pipeline (DESIGN.md §17).
//!
//! [`map_design`] takes a flattened sequential [`Design`] (from
//! [`chortle_netlist::read_design`]), cuts it at register boundaries
//! into combinational clouds, and maps every cloud independently on the
//! process-wide scheduler — clouds are the coarse work axis
//! ([`crate::sched`]'s indexed items), and each cloud's own mapping may
//! fan out tree chunks underneath, so a many-cloud design saturates the
//! pool even when individual clouds are small.
//!
//! Every cloud travels through the *same* path the single-model front
//! end uses: it is serialized to standalone BLIF, re-parsed, optionally
//! preprocessed (the CLI hooks its `--optimize` pass in here), mapped
//! with [`crate::map_network`], equivalence-checked, and rendered with
//! [`chortle_netlist::write_lut_blif`]. That shared canonical form is
//! what makes a cloud mapped inside a design byte-identical to the same
//! cloud mapped as a standalone file — the property the CI smoke checks
//! with `cmp`.
//!
//! The mapped clouds are reassembled around the untouched `.latch`
//! lines by [`chortle_netlist::write_mapped_design_blif`], and the
//! assembled netlist is re-parsed through our own reader before being
//! returned, so a [`MappedDesign`] always round-trips.

use std::sync::Arc;

use chortle_netlist::{
    check_equivalence, parse_blif, parse_design, write_blif, write_lut_blif,
    write_mapped_design_blif, Design, LutCircuit, Network, ParseBlifError, ParseStats,
};
use chortle_telemetry::Telemetry;

use crate::map::{
    echo_cache_shards, map_network_unechoed, resolve_jobs, stats, MapError, MapOptions,
};
use crate::sched::run_indexed;

/// A per-cloud network transform run between parsing and mapping — the
/// design-level analogue of the CLI's `--optimize` pass. Errors are
/// reported as [`DesignError::Preprocess`] with the cloud index.
pub type CloudPreprocess = Arc<dyn Fn(&Network) -> Result<Network, String> + Send + Sync>;

/// Configuration of the sequential-design pipeline: the per-cloud
/// mapper options plus the design-level knobs.
#[derive(Clone)]
pub struct DesignOptions {
    /// Options every cloud is mapped with. `jobs` doubles as the cloud
    /// fan-out width; the telemetry sink receives the `design.*`
    /// counters and every cloud's `map.*` family.
    pub map: MapOptions,
    /// Optional per-cloud preprocess (e.g. network optimization) run
    /// after the cloud is re-parsed and before it is mapped.
    pub preprocess: Option<CloudPreprocess>,
    /// Equivalence-check every mapped cloud against its (preprocessed)
    /// source network. On by default; servers may disable it.
    pub verify: bool,
}

impl DesignOptions {
    /// Design options with no preprocess and per-cloud verification on.
    pub fn new(map: MapOptions) -> DesignOptions {
        DesignOptions {
            map,
            preprocess: None,
            verify: true,
        }
    }
}

/// One mapped combinational cloud.
#[derive(Clone, Debug)]
pub struct MappedCloud {
    /// The cloud as standalone BLIF — exactly what an offline
    /// `chortle-map` run would be given.
    pub source: String,
    /// The mapped cloud as standalone LUT BLIF — exactly what that
    /// offline run would produce.
    pub mapped: String,
    /// The (re-parsed, possibly preprocessed) network the circuit's
    /// input ids refer to.
    pub network: Network,
    /// The cloud's LUT circuit; outputs are named after its sink nets.
    pub circuit: LutCircuit,
    /// LUT count of this cloud.
    pub luts: usize,
    /// LUT depth of this cloud.
    pub depth: usize,
}

/// A fully mapped sequential design.
#[derive(Clone, Debug)]
pub struct MappedDesign {
    /// The design's model name.
    pub name: String,
    /// The assembled sequential LUT netlist: `.latch` lines preserved,
    /// clouds as `.names` LUT blocks. Round-trips through
    /// [`chortle_netlist::read_design`].
    pub netlist: String,
    /// Per-cloud results, in cloud order.
    pub clouds: Vec<MappedCloud>,
    /// Sinks that bypassed mapping (input- or constant-driven).
    pub passthroughs: usize,
    /// Registers in the design.
    pub latches: usize,
    /// Total LUTs across all clouds.
    pub luts: usize,
    /// Maximum LUT depth over all clouds.
    pub depth: usize,
}

/// Errors of the sequential-design pipeline.
#[derive(Debug)]
pub enum DesignError {
    /// A BLIF parse failed — the input design, or (internal bug) a
    /// generated cloud or the assembled output.
    Parse(ParseBlifError),
    /// Mapping one cloud failed.
    Map {
        /// Index of the failing cloud.
        cloud: usize,
        /// The mapper's error.
        error: MapError,
    },
    /// The preprocess callback rejected one cloud.
    Preprocess {
        /// Index of the failing cloud.
        cloud: usize,
        /// The callback's message.
        message: String,
    },
    /// A mapped cloud failed equivalence verification against its
    /// source network — an internal bug, never bad input.
    Verification {
        /// Index of the failing cloud.
        cloud: usize,
        /// The checker's message.
        message: String,
    },
    /// The scheduler failed outside any single cloud (a pool worker
    /// panicked).
    Scheduler(MapError),
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::Parse(e) => write!(f, "{e}"),
            DesignError::Map { cloud, error } => {
                write!(f, "mapping cloud {cloud} failed: {error}")
            }
            DesignError::Preprocess { cloud, message } => {
                write!(f, "preprocessing cloud {cloud} failed: {message}")
            }
            DesignError::Verification { cloud, message } => {
                write!(f, "cloud {cloud} failed verification: {message}")
            }
            DesignError::Scheduler(e) => write!(f, "design scheduling failed: {e}"),
        }
    }
}

impl std::error::Error for DesignError {}

impl From<ParseBlifError> for DesignError {
    fn from(e: ParseBlifError) -> DesignError {
        DesignError::Parse(e)
    }
}

/// Records the streaming reader's [`ParseStats`] as `blif.*` counters.
/// A no-op on a disabled sink.
pub fn record_parse_stats(telemetry: &Telemetry, parse: &ParseStats) {
    telemetry.add_counter(stats::BLIF_LOGICAL_LINES, parse.logical_lines);
    telemetry.add_counter(stats::BLIF_MODELS, parse.models);
    telemetry.add_counter(stats::BLIF_SUBCKTS, parse.subckts);
    telemetry.add_counter(stats::BLIF_LATCHES, parse.latches);
    telemetry.add_counter(stats::BLIF_EXDC_BLOCKS, parse.exdc_blocks);
}

/// Maps a sequential design: cuts it into combinational clouds, maps
/// every cloud on the process-wide scheduler, and reassembles a
/// sequential LUT netlist around the original `.latch` lines.
///
/// The produced netlist and every `design.*` counter are bit-identical
/// across `jobs` values and cache modes — the per-cloud pipeline is
/// deterministic and clouds are assembled in cloud order regardless of
/// completion order.
///
/// # Errors
///
/// Returns [`DesignError::Map`] / [`DesignError::Preprocess`] /
/// [`DesignError::Verification`] attributed to the first failing cloud
/// (in cloud order), or [`DesignError::Parse`] if an internally
/// generated netlist fails to re-parse.
pub fn map_design(design: &Design, opts: &DesignOptions) -> Result<MappedDesign, DesignError> {
    let cut = design.clouds();
    let telemetry = &opts.map.telemetry;
    telemetry.add_counter(stats::DESIGN_CLOUDS, cut.clouds.len() as u64);
    telemetry.add_counter(stats::DESIGN_LATCHES, design.latches().len() as u64);
    telemetry.add_counter(stats::DESIGN_PASSTHROUGHS, cut.passthroughs.len() as u64);
    for cloud in &cut.clouds {
        telemetry.record_value(stats::HIST_CLOUD_WORK, cloud.gates as u64);
    }

    // The canonical per-cloud form: standalone BLIF text. Mapping
    // re-parses it so a cloud inside a design and the same cloud as a
    // file travel one code path.
    let sources: Arc<Vec<String>> = Arc::new(
        cut.clouds
            .iter()
            .enumerate()
            .map(|(i, cloud)| write_blif(&cloud.network, &format!("cloud{i}")))
            .collect(),
    );
    let jobs = resolve_jobs(opts.map.jobs);
    let map_opts = Arc::new(opts.map.clone());
    let preprocess = opts.preprocess.clone();
    let verify = opts.verify;
    let worker_sources = Arc::clone(&sources);
    let results = run_indexed(sources.len(), jobs, move |i| {
        map_cloud(
            i,
            &worker_sources[i],
            &map_opts,
            preprocess.as_ref(),
            verify,
        )
    })
    .map_err(DesignError::Scheduler)?;
    let mut clouds = Vec::with_capacity(results.len());
    for result in results {
        clouds.push(result?);
    }

    let luts: usize = clouds.iter().map(|c| c.luts).sum();
    let depth = clouds.iter().map(|c| c.depth).max().unwrap_or(0);
    telemetry.add_counter(stats::DESIGN_CLOUD_LUTS, luts as u64);
    echo_cache_shards(&opts.map);

    let pairs: Vec<(&Network, &LutCircuit)> =
        clouds.iter().map(|c| (&c.network, &c.circuit)).collect();
    let netlist = write_mapped_design_blif(design, &cut, &pairs);
    // The assembled netlist must round-trip through our own reader; a
    // failure here is an assembly bug, surfaced as a typed error.
    parse_design(&netlist)?;

    Ok(MappedDesign {
        name: design.name().to_owned(),
        netlist,
        clouds,
        passthroughs: cut.passthroughs.len(),
        latches: design.latches().len(),
        luts,
        depth,
    })
}

/// The per-cloud pipeline: parse the canonical cloud BLIF, preprocess,
/// map, verify, render. Runs as one scheduler item.
fn map_cloud(
    index: usize,
    source: &str,
    opts: &MapOptions,
    preprocess: Option<&CloudPreprocess>,
    verify: bool,
) -> Result<MappedCloud, DesignError> {
    let network = parse_blif(source)?;
    let network = match preprocess {
        Some(pre) => pre(&network).map_err(|message| DesignError::Preprocess {
            cloud: index,
            message,
        })?,
        None => network,
    };
    let mapping = map_network_unechoed(&network, opts).map_err(|error| DesignError::Map {
        cloud: index,
        error,
    })?;
    if verify {
        check_equivalence(&network, &mapping.circuit).map_err(|e| DesignError::Verification {
            cloud: index,
            message: e.to_string(),
        })?;
    }
    let mapped = write_lut_blif(&network, &mapping.circuit, "mapped");
    Ok(MappedCloud {
        source: source.to_owned(),
        mapped,
        luts: mapping.report.luts,
        depth: mapping.circuit.depth(),
        network,
        circuit: mapping.circuit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_network;
    use chortle_netlist::{read_design, simulate_outputs};

    const TWO_CLOUDS: &str = "\
.model two_clouds
.inputs a b c
.outputs z w
.latch d q re clk 0
.names a b t
11 1
.names t c d
1- 1
-1 1
.names q b z
01 1
.names a w
1 1
.end
";

    fn options(jobs: usize) -> DesignOptions {
        DesignOptions::new(
            MapOptions::builder(4)
                .jobs(jobs)
                .build()
                .expect("valid options"),
        )
    }

    #[test]
    fn maps_a_sequential_design_end_to_end() {
        let (design, _) = parse_design(TWO_CLOUDS).expect("parses");
        let mapped = map_design(&design, &options(1)).expect("maps");
        assert_eq!(mapped.name, "two_clouds");
        assert_eq!(mapped.clouds.len(), 2);
        assert_eq!(mapped.latches, 1);
        assert_eq!(mapped.passthroughs, 1, "w is a buffered input");
        assert!(mapped.luts >= 2);
        // The assembled netlist re-parses with the registers intact and
        // the same combinational behaviour per cloud.
        let (again, _) = read_design(mapped.netlist.as_bytes()).expect("round trips");
        assert_eq!(again.latches().len(), 1);
        let f_before = design
            .logic()
            .signal_function(design.latches()[0].data)
            .unwrap();
        let f_after = again
            .logic()
            .signal_function(again.latches()[0].data)
            .unwrap();
        // Input sets differ (the mapped form may order them differently),
        // so compare on the shared support via simulation instead of
        // table identity when orders match; here both are a,b,c,q.
        assert_eq!(f_before, f_after);
    }

    #[test]
    fn design_netlist_is_identical_across_jobs_and_cache() {
        use crate::CacheMode;
        let (design, _) = parse_design(TWO_CLOUDS).expect("parses");
        let baseline = map_design(&design, &options(1)).expect("maps").netlist;
        for jobs in [2, 4] {
            for cache in [
                CacheMode::Off,
                CacheMode::Tree,
                CacheMode::Shared,
                CacheMode::Fn,
            ] {
                let opts = DesignOptions::new(
                    MapOptions::builder(4)
                        .jobs(jobs)
                        .cache(cache)
                        .build()
                        .unwrap(),
                );
                let mapped = map_design(&design, &opts).expect("maps");
                assert_eq!(
                    mapped.netlist, baseline,
                    "jobs={jobs} cache={cache:?} must be bit-identical"
                );
            }
        }
    }

    #[test]
    fn cloud_sources_match_offline_mapping() {
        // Every per-cloud artifact must be byte-identical to an offline
        // single-model run over the same cloud BLIF.
        let (design, _) = parse_design(TWO_CLOUDS).expect("parses");
        let mapped = map_design(&design, &options(2)).expect("maps");
        let opts = MapOptions::builder(4).build().unwrap();
        for (i, cloud) in mapped.clouds.iter().enumerate() {
            let net = parse_blif(&cloud.source).expect("cloud parses");
            let offline = map_network(&net, &opts).expect("offline maps");
            let text = write_lut_blif(&net, &offline.circuit, "mapped");
            assert_eq!(text, cloud.mapped, "cloud {i} diverged from offline run");
        }
    }

    #[test]
    fn preprocess_feeds_the_mapper_and_errors_are_attributed() {
        let (design, _) = parse_design(TWO_CLOUDS).expect("parses");
        let mut opts = options(1);
        opts.preprocess = Some(Arc::new(|net: &Network| Ok(net.clone())));
        map_design(&design, &opts).expect("identity preprocess maps");

        opts.preprocess = Some(Arc::new(|_: &Network| Err("nope".to_owned())));
        match map_design(&design, &opts) {
            Err(DesignError::Preprocess { cloud: 0, message }) => assert_eq!(message, "nope"),
            other => panic!("expected a preprocess error, got {other:?}"),
        }
    }

    #[test]
    fn design_counters_are_recorded() {
        let (design, parse) = parse_design(TWO_CLOUDS).expect("parses");
        let telemetry = Telemetry::enabled();
        record_parse_stats(&telemetry, &parse);
        let mut opts = options(1);
        opts.map.telemetry = telemetry.clone();
        map_design(&design, &opts).expect("maps");
        let report = telemetry.snapshot();
        assert_eq!(report.counter(stats::DESIGN_CLOUDS), Some(2));
        assert_eq!(report.counter(stats::DESIGN_LATCHES), Some(1));
        assert_eq!(report.counter(stats::DESIGN_PASSTHROUGHS), Some(1));
        assert!(report.counter(stats::DESIGN_CLOUD_LUTS).unwrap() >= 2);
        assert_eq!(report.counter(stats::BLIF_MODELS), Some(1));
        assert_eq!(report.counter(stats::BLIF_LATCHES), Some(1));
        assert!(report.counter(stats::BLIF_LOGICAL_LINES).unwrap() > 5);
        let hist = report.histogram(stats::HIST_CLOUD_WORK).expect("histogram");
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn passthroughs_survive_in_the_mapped_netlist() {
        let (design, _) = parse_design(TWO_CLOUDS).expect("parses");
        let mapped = map_design(&design, &options(1)).expect("maps");
        let (again, _) = read_design(mapped.netlist.as_bytes()).expect("round trips");
        // w == a for all inputs: simulate the two-output logic.
        let words: Vec<u64> = vec![0b1010, 0b1100, 0b1111, 0b0110];
        let out = simulate_outputs(again.logic(), &words);
        let names: Vec<&str> = again
            .logic()
            .outputs()
            .iter()
            .map(|o| o.name.as_str())
            .collect();
        let w = names.iter().position(|&n| n == "w").expect("w present");
        assert_eq!(out[w] & 0xF, words[0] & 0xF, "w must equal input a");
    }
}
