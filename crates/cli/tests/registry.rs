//! Drift test for the metric registry: every stage, counter and
//! histogram name a real run emits is registered in
//! `chortle_telemetry::registry`, with the kind it was emitted as.

use chortle_circuits::alu;
use chortle_cli::{run_design_flow, run_flow, CacheMode, FlowOptions, MapOptions, PackMode};
use chortle_server::{BatchReply, Client, MapReply, MapRequest, ServeOptions, Server, StatsReply};
use chortle_telemetry::json::{self, Value};
use chortle_telemetry::registry::{self, Kind};
use chortle_telemetry::Telemetry;

/// The two-register, two-model design of the ci.sh design smoke.
const DESIGN: &str = concat!(
    ".model seq\n.inputs a b c e\n.outputs z w\n.latch d0 q0 re clk 0\n.latch d1 q1 re clk 0\n",
    ".subckt stage p=a q=b r=t\n.names t c d0\n1- 1\n-1 1\n.subckt stage p=q0 q=e r=d1\n",
    ".names q1 c z\n11 1\n.names a w\n1 1\n.end\n",
    ".model stage\n.inputs p q\n.outputs r\n.names p q r\n11 1\n.end\n",
);

/// Asserts that every name in the report is registered under the
/// section it sits in, and that the (space-separated) `expect` names
/// were emitted.
fn assert_registered(report_json: &str, expect: &str) {
    let report = json::parse(report_json).expect("report parses");
    let mut seen = Vec::new();
    for section in ["stages", "counters", "histograms"] {
        let entries = report.get(section).and_then(Value::as_array);
        for entry in entries.expect(section) {
            let name = entry.get("name").and_then(Value::as_str).expect("name");
            let kind = registry::lookup(name).map(|m| m.kind);
            let registered_as = match kind {
                Some(Kind::Stage) => "stages",
                Some(Kind::Counter) => "counters",
                Some(Kind::Histogram(_)) => "histograms",
                None => "nothing",
            };
            assert_eq!(registered_as, section, "{name} is registered as {kind:?}");
            seen.push(name.to_owned());
        }
    }
    for name in expect.split_whitespace() {
        assert!(seen.iter().any(|s| s == name), "{name} was never emitted");
    }
}

fn flow_options(telemetry: &Telemetry, cache: CacheMode, pack: PackMode) -> FlowOptions {
    let map = MapOptions::builder(4).cache(cache).pack(pack);
    FlowOptions {
        map: map.telemetry(telemetry.clone()).build().expect("valid"),
        ..FlowOptions::default()
    }
}

#[test]
fn design_flow_with_fn_cache_and_dc_packing_emits_registered_names() {
    let t = Telemetry::enabled();
    run_design_flow(DESIGN, &flow_options(&t, CacheMode::Fn, PackMode::Dc)).expect("maps");
    let expect = "blif.models design.cloud_work cache.fn_hits pack.removed_luts";
    assert_registered(&t.snapshot().to_json(), expect);
}

#[test]
fn traced_flow_emits_registered_names() {
    let t = Telemetry::traced();
    let blif = chortle_netlist::write_blif(&alu(4), "alu");
    run_flow(&blif, &flow_options(&t, CacheMode::Shared, PackMode::Off)).expect("maps");
    let expect = "flow.verify opt.eliminated opt.eliminate_visits opt.kernel_divisions dp.tree_work sched.steals trace.events";
    assert_registered(&t.snapshot().to_json(), expect);
}

#[test]
fn daemon_stats_report_emits_registered_names() {
    let server = Server::bind(&ServeOptions::builder().workers(2).build()).expect("bind");
    let addr = server.local_addr().expect("address").to_string();
    let run = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");
    let req = MapRequest {
        blif: chortle_netlist::write_blif(&alu(2), "alu"),
        ..MapRequest::default()
    };
    let design = MapRequest {
        blif: DESIGN.to_owned(),
        ..req.clone()
    };
    let mut replies = vec![
        client.map("m", &req).expect("map"),
        client.map_design("d", &design).expect("map_design"),
    ];
    match client
        .map_batch("b", &[req.clone(), req])
        .expect("map_batch")
    {
        BatchReply::Results(results) => replies.extend(results),
        other => panic!("map_batch: {other:?}"),
    }
    for reply in replies {
        match reply {
            MapReply::Mapped(mapped) => assert_registered(&mapped.report_json, "flow.map"),
            other => panic!("map: {other:?}"),
        }
    }
    client.flush("f").expect("flush");
    client.trace("t").expect("trace");
    client.metrics("x").expect("metrics");
    client.hello("h").expect("hello");
    let StatsReply::Stats { report_json, .. } = client.stats("s").expect("stats") else {
        panic!("stats rejected");
    };
    let expect = "serve.hello_requests serve.request serve.admission.client_depth";
    assert_registered(&report_json, expect);
    client.shutdown("bye").expect("shutdown");
    let summary = run.join().expect("server exits cleanly");
    assert_registered(&summary.report.to_json(), "serve.metrics_requests");
}
