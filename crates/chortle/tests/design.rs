//! Integration contracts of the sequential-design pipeline: a
//! handcrafted multi-model design cuts into the clouds its structure
//! dictates, and no (jobs × cache) combination may change a single byte
//! of the assembled netlist, any per-cloud result, or the `design.*`
//! counters.

use chortle::{map_design, stats, CacheMode, DesignOptions, MapOptions, Telemetry};
use chortle_netlist::{parse_design, read_design, write_lut_blif};

/// A hierarchical two-model design with two register stages. After
/// `.subckt` flattening the combinational logic splits at the latch
/// boundaries into three clouds — one per pipeline stage — plus one
/// passthrough (`w`, a buffered input).
const MULTI_MODEL: &str = "\
.model top
.inputs a b c e
.outputs z w
.latch d0 q0 re clk 0
.latch d1 q1 re clk 0
.subckt stage p=a q=b r=t
.names t c d0
1- 1
-1 1
.subckt stage p=q0 q=e r=d1
.names q1 c z
11 1
.names a w
1 1
.end
.model stage
.inputs p q
.outputs r
.names p q r
11 1
.end
";

/// Every (jobs × cache) combination the mapper offers, against the
/// jobs = 1 / cache-off reference.
const JOBS: [usize; 3] = [1, 2, 4];
const CACHES: [CacheMode; 4] = [
    CacheMode::Off,
    CacheMode::Tree,
    CacheMode::Shared,
    CacheMode::Fn,
];

fn map_with(jobs: usize, cache: CacheMode) -> (chortle::MappedDesign, String) {
    let (design, _) = parse_design(MULTI_MODEL).expect("fixture parses");
    let telemetry = Telemetry::enabled();
    let options = MapOptions::builder(4)
        .jobs(jobs)
        .cache(cache)
        .telemetry(telemetry.clone())
        .build()
        .expect("valid options");
    let mapped = map_design(&design, &DesignOptions::new(options)).expect("design maps");
    (mapped, telemetry.snapshot().to_json())
}

#[test]
fn multi_model_design_cuts_into_the_expected_clouds() {
    let (mapped, _) = map_with(1, CacheMode::Off);
    assert_eq!(mapped.latches, 2, "both registers survive flattening");
    assert_eq!(
        mapped.clouds.len(),
        3,
        "one cloud per pipeline stage: {:?}",
        mapped.clouds.iter().map(|c| c.luts).collect::<Vec<_>>()
    );
    assert_eq!(mapped.passthroughs, 1, "w is a buffered input");
    assert_eq!(
        mapped.luts,
        mapped.clouds.iter().map(|c| c.luts).sum::<usize>()
    );
    assert_eq!(
        mapped.depth,
        mapped.clouds.iter().map(|c| c.depth).max().unwrap_or(0)
    );

    // The assembled netlist is a valid sequential design again, with
    // the register boundary intact.
    let (reread, _) = read_design(mapped.netlist.as_bytes()).expect("assembled netlist re-parses");
    assert_eq!(reread.latches().len(), 2);
}

#[test]
fn per_cloud_results_match_the_offline_mapper() {
    // Each cloud's `mapped` bytes must equal an offline `map_network`
    // run over that cloud's standalone `source` BLIF — the in-design
    // mapping is the offline mapping, not an approximation of it.
    let (mapped, _) = map_with(1, CacheMode::Off);
    let options = MapOptions::builder(4).build().expect("valid options");
    for (i, cloud) in mapped.clouds.iter().enumerate() {
        let net = chortle_netlist::parse_blif(&cloud.source)
            .unwrap_or_else(|e| panic!("cloud {i} source parses: {e}"));
        let offline = chortle::map_network(&net, &options)
            .unwrap_or_else(|e| panic!("cloud {i} maps offline: {e}"));
        let rendered = write_lut_blif(&net, &offline.circuit, "mapped");
        assert_eq!(cloud.mapped, rendered, "cloud {i} diverged from offline");
        assert_eq!(cloud.luts, offline.circuit.num_luts());
    }
}

#[test]
fn design_mapping_is_bit_identical_across_jobs_and_caches() {
    let (reference, reference_report) = map_with(1, CacheMode::Off);
    for &jobs in &JOBS {
        for &cache in &CACHES {
            let (mapped, report) = map_with(jobs, cache);
            assert_eq!(
                mapped.netlist, reference.netlist,
                "netlist diverged at jobs={jobs} cache={cache:?}"
            );
            for (i, (got, want)) in mapped.clouds.iter().zip(&reference.clouds).enumerate() {
                assert_eq!(
                    got.mapped, want.mapped,
                    "cloud {i} diverged at jobs={jobs} cache={cache:?}"
                );
                assert_eq!(got.source, want.source, "cloud {i} source changed");
            }
            // The design.* counters are part of the determinism
            // contract too: same clouds, same latches, same LUT tally.
            for counter in [
                stats::DESIGN_CLOUDS,
                stats::DESIGN_LATCHES,
                stats::DESIGN_PASSTHROUGHS,
                stats::DESIGN_CLOUD_LUTS,
            ] {
                assert_eq!(
                    counter_value(&report, counter),
                    counter_value(&reference_report, counter),
                    "{counter} diverged at jobs={jobs} cache={cache:?}"
                );
            }
        }
    }
}

#[test]
fn cache_shards_is_echoed_once_per_design_run() {
    // Three clouds, three mapping calls: the store's configuration is
    // still echoed once, exactly as a single-network run echoes it.
    for &jobs in &JOBS {
        for &cache in &CACHES[1..] {
            let (mapped, report) = map_with(jobs, cache);
            assert_eq!(mapped.clouds.len(), 3);
            assert_eq!(
                counter_value(&report, stats::CACHE_SHARDS),
                16,
                "cache.shards at jobs={jobs} cache={cache:?}"
            );
        }
    }
}

/// Reads one counter out of a serialized telemetry report.
fn counter_value(report_json: &str, name: &str) -> u64 {
    use chortle_telemetry::json::{self, Value};
    let report = json::parse(report_json).expect("report parses");
    report
        .get("counters")
        .and_then(Value::as_array)
        .expect("counters section")
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|c| c.get("value").and_then(Value::as_u64))
        .unwrap_or_else(|| panic!("missing counter {name:?}"))
}
