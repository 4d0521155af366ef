//! Structural validation of JSON telemetry reports.
//!
//! [`validate_report`] checks a report against the [`crate::SCHEMA`]
//! layout — key set, kinds, internal consistency (per-worker arrays
//! sized to the worker count), and the closed counter namespaces of
//! [`crate::registry`]. [`shape`] renders the *shape* of any JSON
//! document (every key path with its kind, values elided), which the
//! golden-file schema test pins so the report layout cannot drift
//! silently.

use crate::json::{self, Value};
use crate::registry::{self, Kind};

/// Validates that `input` is a schema-conformant telemetry report.
///
/// # Errors
///
/// Returns a human-readable description of the first deviation: parse
/// errors, missing/unknown keys, wrong kinds, a wrong `schema` tag, or
/// worker arrays that do not match the worker count.
pub fn validate_report(input: &str) -> Result<(), String> {
    let value = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let root = expect_keys(
        &value,
        "$",
        &[
            "schema",
            "enabled",
            "stages",
            "counters",
            "histograms",
            "wavefronts",
        ],
    )?;

    let tag = root[0]
        .1
        .as_str()
        .ok_or_else(|| "$.schema must be a string".to_owned())?;
    if tag != crate::SCHEMA {
        return Err(format!("$.schema is {tag:?}, expected {:?}", crate::SCHEMA));
    }
    if !matches!(root[1].1, Value::Bool(_)) {
        return Err("$.enabled must be a boolean".to_owned());
    }

    for (i, stage) in expect_array(&value, "stages")?.iter().enumerate() {
        let path = format!("$.stages[{i}]");
        let members = expect_keys(stage, &path, &["name", "calls", "seconds"])?;
        expect_string(&members[0].1, &format!("{path}.name"))?;
        expect_u64(&members[1].1, &format!("{path}.calls"))?;
        expect_number(&members[2].1, &format!("{path}.seconds"))?;
    }

    for (i, counter) in expect_array(&value, "counters")?.iter().enumerate() {
        let path = format!("$.counters[{i}]");
        let members = expect_keys(counter, &path, &["name", "value"])?;
        let name = expect_string(&members[0].1, &format!("{path}.name"))?;
        expect_u64(&members[1].1, &format!("{path}.value"))?;
        // A counter under a closed namespace must be registered as a
        // counter, so a typo'd or undocumented name fails validation
        // instead of shipping silently (see `registry::CLOSED_NAMESPACES`).
        if let Some(ns) = registry::closed_namespace(name) {
            if registry::lookup(name).map(|m| m.kind) != Some(Kind::Counter) {
                let expected: Vec<&str> = registry::METRICS
                    .iter()
                    .filter(|m| m.kind == Kind::Counter && m.name.starts_with(ns))
                    .map(|m| m.name)
                    .collect();
                return Err(format!(
                    "{path}.name {name:?} is not a documented {ns}* counter \
                     (expected one of {expected:?})"
                ));
            }
        }
    }

    for (i, hist) in expect_array(&value, "histograms")?.iter().enumerate() {
        let path = format!("$.histograms[{i}]");
        let members = expect_keys(hist, &path, &["name", "count", "total_ns", "buckets"])?;
        expect_string(&members[0].1, &format!("{path}.name"))?;
        let count = expect_u64(&members[1].1, &format!("{path}.count"))?;
        expect_u64(&members[2].1, &format!("{path}.total_ns"))?;
        let buckets = members[3]
            .1
            .as_array()
            .ok_or_else(|| format!("{path}.buckets must be an array"))?;
        let mut sum = 0u64;
        let mut last_index: Option<u64> = None;
        for (j, bucket) in buckets.iter().enumerate() {
            let bpath = format!("{path}.buckets[{j}]");
            let fields = expect_keys(bucket, &bpath, &["index", "count"])?;
            let index = expect_u64(&fields[0].1, &format!("{bpath}.index"))?;
            let c = expect_u64(&fields[1].1, &format!("{bpath}.count"))?;
            if index >= crate::hist::BUCKETS as u64 {
                return Err(format!("{bpath}.index is {index}, expected < 128"));
            }
            if last_index.is_some_and(|prev| index <= prev) {
                return Err(format!("{bpath}.index {index} is not strictly ascending"));
            }
            if c == 0 {
                return Err(format!("{bpath}.count is 0; zero buckets must be elided"));
            }
            last_index = Some(index);
            sum += c;
        }
        if sum != count {
            return Err(format!(
                "{path}.count is {count} but the bucket counts sum to {sum}"
            ));
        }
    }

    for (i, wave) in expect_array(&value, "wavefronts")?.iter().enumerate() {
        let path = format!("$.wavefronts[{i}]");
        let members = expect_keys(
            wave,
            &path,
            &[
                "index",
                "trees",
                "workers",
                "seconds",
                "occupancy",
                "claimed",
                "busy_s",
            ],
        )?;
        expect_u64(&members[0].1, &format!("{path}.index"))?;
        expect_u64(&members[1].1, &format!("{path}.trees"))?;
        let workers = expect_u64(&members[2].1, &format!("{path}.workers"))?;
        expect_number(&members[3].1, &format!("{path}.seconds"))?;
        let occupancy = expect_number(&members[4].1, &format!("{path}.occupancy"))?;
        if !(0.0..=1.0).contains(&occupancy) {
            return Err(format!("{path}.occupancy is {occupancy}, expected 0..=1"));
        }
        for (key, idx) in [("claimed", 5), ("busy_s", 6)] {
            let arr = members[idx]
                .1
                .as_array()
                .ok_or_else(|| format!("{path}.{key} must be an array"))?;
            if arr.len() as u64 != workers {
                return Err(format!(
                    "{path}.{key} has {} entries for {workers} workers",
                    arr.len()
                ));
            }
            for (j, v) in arr.iter().enumerate() {
                expect_number(v, &format!("{path}.{key}[{j}]"))?;
            }
        }
    }
    Ok(())
}

/// Validates the *windowed-metrics fragment* — the body the daemon's
/// v2 `op:"metrics"` response and loadgen's bench snapshots embed
/// (schema v1.7). `value` must already be parsed; pass the object
/// holding the fragment keys (`window_s` … `cumulative`).
///
/// # Errors
///
/// Returns the first deviation: wrong key set/order, wrong kinds,
/// rates outside `0..=1`, or window totals exceeding cumulative ones.
pub fn validate_metrics_fragment(value: &Value) -> Result<(), String> {
    let members = expect_keys(
        value,
        "$metrics",
        &[
            "window_s",
            "seconds",
            "qps",
            "shed_rate",
            "cache_hit_rate",
            "fn_cache_hit_rate",
            "p50_ns",
            "p95_ns",
            "p99_ns",
            "window",
            "cumulative",
        ],
    )?;
    expect_u64(&members[0].1, "$metrics.window_s")?;
    expect_u64(&members[1].1, "$metrics.seconds")?;
    let qps = expect_number(&members[2].1, "$metrics.qps")?;
    if qps < 0.0 {
        return Err(format!("$metrics.qps is {qps}, expected >= 0"));
    }
    for (idx, key) in [
        (3, "shed_rate"),
        (4, "cache_hit_rate"),
        (5, "fn_cache_hit_rate"),
    ] {
        let rate = expect_number(&members[idx].1, &format!("$metrics.{key}"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("$metrics.{key} is {rate}, expected 0..=1"));
        }
    }
    for (idx, key) in [(6, "p50_ns"), (7, "p95_ns"), (8, "p99_ns")] {
        expect_u64(&members[idx].1, &format!("$metrics.{key}"))?;
    }
    let mut totals = [[0u64; 3]; 2];
    for (slot, (idx, section)) in [(9usize, "window"), (10, "cumulative")].iter().enumerate() {
        let path = format!("$metrics.{section}");
        let fields = expect_keys(&members[*idx].1, &path, &["accepted", "completed", "shed"])?;
        for (j, (key, v)) in fields.iter().enumerate() {
            totals[slot][j] = expect_u64(v, &format!("{path}.{key}"))?;
        }
    }
    for (j, key) in ["accepted", "completed", "shed"].iter().enumerate() {
        if totals[0][j] > totals[1][j] {
            return Err(format!(
                "$metrics.window.{key} ({}) exceeds $metrics.cumulative.{key} ({})",
                totals[0][j], totals[1][j]
            ));
        }
    }
    Ok(())
}

/// Renders the shape of a JSON document: one line per key path, with the
/// value kind, array elements collapsed to `[]` (described by their first
/// element). Stable across runs as long as the layout is stable, so it
/// can be pinned in a golden file.
///
/// # Errors
///
/// Returns the parse error text if `input` is not valid JSON.
pub fn shape(input: &str) -> Result<String, String> {
    let value = json::parse(input).map_err(|e| format!("not valid JSON: {e}"))?;
    let mut out = String::new();
    describe(&value, "$", &mut out);
    Ok(out)
}

fn describe(value: &Value, path: &str, out: &mut String) {
    out.push_str(path);
    out.push(' ');
    out.push_str(value.kind());
    out.push('\n');
    match value {
        Value::Object(members) => {
            for (key, v) in members {
                describe(v, &format!("{path}.{key}"), out);
            }
        }
        Value::Array(items) => {
            if let Some(first) = items.first() {
                describe(first, &format!("{path}[]"), out);
            }
        }
        _ => {}
    }
}

/// Returns the members of `value` if it is an object with exactly `keys`
/// in exactly that order (reports are machine-written, so order is part
/// of the format).
fn expect_keys<'v>(
    value: &'v Value,
    path: &str,
    keys: &[&str],
) -> Result<&'v [(String, Value)], String> {
    let members = value
        .as_object()
        .ok_or_else(|| format!("{path} must be an object, found {}", value.kind()))?;
    let found: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if found != keys {
        return Err(format!("{path} has keys {found:?}, expected {keys:?}"));
    }
    Ok(members)
}

fn expect_array<'v>(report: &'v Value, key: &str) -> Result<&'v [Value], String> {
    report
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("$.{key} must be an array"))
}

fn expect_string<'v>(value: &'v Value, path: &str) -> Result<&'v str, String> {
    value
        .as_str()
        .ok_or_else(|| format!("{path} must be a string, found {}", value.kind()))
}

fn expect_u64(value: &Value, path: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| {
        format!(
            "{path} must be a non-negative integer, found {}",
            value.kind()
        )
    })
}

fn expect_number(value: &Value, path: &str) -> Result<f64, String> {
    value
        .as_f64()
        .ok_or_else(|| format!("{path} must be a number, found {}", value.kind()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, WavefrontStat};

    fn sample_report() -> String {
        let t = Telemetry::enabled();
        t.record_stage("map.dp", 0.25);
        t.add_counter("dp.divisions", 10);
        t.record_value("map.tree_ns", 900);
        t.record_value("map.tree_ns", 1_100);
        t.record_wavefront(WavefrontStat {
            index: 0,
            trees: 2,
            workers: 2,
            seconds: 0.5,
            claimed: vec![1, 1],
            busy_s: vec![0.2, 0.2],
        });
        t.snapshot().to_json()
    }

    #[test]
    fn accepts_real_reports() {
        validate_report(&sample_report()).expect("valid");
        validate_report(&Telemetry::enabled().snapshot().to_json()).expect("empty but valid");
    }

    #[test]
    fn rejects_wrong_schema_tag() {
        let json = sample_report().replace("chortle-telemetry/v1.7", "bogus/v0");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("$.schema"), "{err}");
    }

    #[test]
    fn rejects_missing_and_extra_keys() {
        let err =
            validate_report(r#"{"schema":"chortle-telemetry/v1.7","enabled":true}"#).unwrap_err();
        assert!(err.contains("expected"), "{err}");
        let json = sample_report().replace("\"counters\":", "\"extras\":");
        assert!(validate_report(&json).is_err());
    }

    #[test]
    fn validates_histogram_sections() {
        // Bucket counts must sum to the sample count …
        let json = sample_report().replace(
            "\"count\":2,\"total_ns\":2000",
            "\"count\":3,\"total_ns\":2000",
        );
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("sum"), "{err}");
        // … indices must be strictly ascending and in range …
        let t = Telemetry::enabled();
        t.record_value("h", 1);
        let json = t
            .snapshot()
            .to_json()
            .replace("{\"index\":0,\"count\":1}", "{\"index\":200,\"count\":1}");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("expected < 128"), "{err}");
        // … and zero-count buckets must be elided.
        let json = t
            .snapshot()
            .to_json()
            .replace("{\"index\":0,\"count\":1}", "{\"index\":0,\"count\":0}");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("elided") || err.contains("sum"), "{err}");
    }

    #[test]
    fn rejects_mis_sized_worker_arrays() {
        let json = sample_report().replace("\"claimed\":[1,1]", "\"claimed\":[1]");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("claimed"), "{err}");
    }

    #[test]
    fn rejects_wrong_kinds() {
        let json = sample_report().replace("\"value\":10", "\"value\":\"10\"");
        let err = validate_report(&json).unwrap_err();
        assert!(err.contains("value"), "{err}");
    }

    /// A report holding one counter called `name`.
    fn counter_report(name: &str) -> String {
        let t = Telemetry::enabled();
        t.add_counter("placeholder", 1);
        t.snapshot().to_json().replace("placeholder", name)
    }

    /// Checks the closed namespace `ns` against the registry: each of its
    /// registered counters validates, a misspelling of each is rejected
    /// by name, and its registered stages and histograms are rejected
    /// when they pose as counters.
    fn assert_namespace_closed(ns: &str) {
        assert!(registry::CLOSED_NAMESPACES.contains(&ns), "{ns}");
        let members: Vec<_> = registry::METRICS
            .iter()
            .filter(|m| m.name.starts_with(ns))
            .collect();
        assert!(members.iter().any(|m| m.kind == Kind::Counter), "{ns}");
        for m in members {
            let valid = validate_report(&counter_report(m.name)).is_ok();
            assert_eq!(valid, m.kind == Kind::Counter, "{}", m.name);
            if m.kind == Kind::Counter {
                let typo = &m.name[..m.name.len() - 1];
                let err = validate_report(&counter_report(typo)).unwrap_err();
                assert!(err.contains(&format!("{typo:?}")), "{err}");
            }
        }
    }

    #[test]
    fn trace_namespace_is_closed() {
        assert_namespace_closed("trace.");
        // The counters a tracing handle emits about itself validate.
        let t = Telemetry::traced();
        drop(t.span("s"));
        validate_report(&t.snapshot().to_json()).expect("trace echo counters validate");
    }

    #[test]
    fn serve_namespace_is_closed() {
        assert_namespace_closed("serve.");
    }

    #[test]
    fn cache_namespace_is_closed() {
        assert_namespace_closed("cache.");
    }

    #[test]
    fn design_namespace_is_closed() {
        assert_namespace_closed("design.");
        // The design.cloud_work histogram rides the histogram section.
        let t = Telemetry::enabled();
        t.record_value(registry::mapper::HIST_CLOUD_WORK, 3);
        validate_report(&t.snapshot().to_json()).expect("design histogram validates");
    }

    #[test]
    fn blif_namespace_is_closed() {
        assert_namespace_closed("blif.");
    }

    #[test]
    fn log_namespace_is_closed() {
        assert_namespace_closed("log.");
    }

    #[test]
    fn open_namespaces_stay_open_and_names_are_unique() {
        for (i, m) in registry::METRICS.iter().enumerate() {
            assert!(registry::METRICS[..i].iter().all(|p| p.name != m.name));
            // Outside the closed namespaces any name validates as a
            // counter, whatever it is registered as.
            if registry::closed_namespace(m.name).is_none() {
                validate_report(&counter_report(m.name)).expect(m.name);
            }
        }
        // Mapper counters come and go.
        validate_report(&counter_report("dp.some_future_counter")).expect("dp. is open");
        validate_report(&counter_report("pack.some_future_counter")).expect("pack. is open");
    }

    #[test]
    fn metrics_fragment_validates_shape_and_arithmetic() {
        let good = r#"{"window_s":60,"seconds":2,"qps":3.0,"shed_rate":0.25,
            "cache_hit_rate":0.5,"fn_cache_hit_rate":0.0,
            "p50_ns":725,"p95_ns":1024,"p99_ns":1024,
            "window":{"accepted":6,"completed":6,"shed":2},
            "cumulative":{"accepted":6,"completed":6,"shed":2}}"#;
        let value = json::parse(good).expect("parses");
        validate_metrics_fragment(&value).expect("valid fragment");
        // A window total larger than its cumulative counter is
        // arithmetic corruption, not a rendering choice.
        let bad = good.replace(r#""window":{"accepted":6"#, r#""window":{"accepted":9"#);
        let err = validate_metrics_fragment(&json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("window.accepted"), "{err}");
        let bad_rate = good.replace("\"shed_rate\":0.25", "\"shed_rate\":1.5");
        let err = validate_metrics_fragment(&json::parse(&bad_rate).unwrap()).unwrap_err();
        assert!(err.contains("shed_rate"), "{err}");
    }

    #[test]
    fn shape_is_stable_and_value_free() {
        let s = shape(&sample_report()).expect("shapes");
        assert!(s.contains("$.stages[] object"));
        assert!(s.contains("$.stages[].seconds number"));
        assert!(s.contains("$.wavefronts[].claimed array"));
        assert!(!s.contains("0.25"), "values must be elided:\n{s}");
    }
}
