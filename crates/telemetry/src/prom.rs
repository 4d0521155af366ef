//! Prometheus text exposition: rendering and validation.
//!
//! [`render_exposition`] turns a [`Report`] (plus caller-supplied
//! gauges) into the Prometheus text format, version 0.0.4: every
//! counter becomes a `counter` family, every histogram a `summary`
//! family with `quantile` labels, and each family carries a `# HELP` /
//! `# TYPE` pair. Metric names are derived mechanically from telemetry
//! names by [`metric_name`] (`serve.run_ns` → `chortle_serve_run_ns`),
//! so the closed counter namespaces of [`crate::registry`] map onto a
//! closed, valid metric set — a property test pins that. HELP lines
//! and units come from the registry (generic for unregistered names).
//!
//! [`validate_exposition`] is the consumer-side check `report-check
//! --prom` runs against a live `/metrics` scrape: metric and label
//! name charsets, HELP/TYPE pairing and placement, label-value and
//! docstring escaping, and parseable sample values. It accepts any
//! conformant exposition, not just ours.
//!
//! # Examples
//!
//! ```
//! use chortle_telemetry::{prom, Telemetry};
//!
//! let t = Telemetry::enabled();
//! t.add_counter("serve.completed", 6);
//! let text = prom::render_exposition(&t.snapshot(), &[]);
//! assert!(text.contains("chortle_serve_completed 6"));
//! prom::validate_exposition(&text).unwrap();
//! ```

use std::collections::BTreeMap;

use crate::json;
use crate::registry::{self, Kind};
use crate::Report;

/// Prefix of every metric this crate renders.
pub const METRIC_PREFIX: &str = "chortle_";

/// One gauge sample for [`render_exposition`]: `(name, help, value)`
/// with `name` already a raw telemetry-style name (dots allowed).
pub type Gauge<'a> = (&'a str, &'a str, f64);

/// Derives the Prometheus metric name for a telemetry counter or
/// histogram name: [`METRIC_PREFIX`] plus the name with every
/// character outside `[a-zA-Z0-9_:]` replaced by `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + raw.len());
    out.push_str(METRIC_PREFIX);
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_help(out: &mut String, text: &str) {
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
}

fn push_family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    escape_help(out, help);
    out.push('\n');
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Renders `report` (counters and histograms) and `gauges` as a
/// Prometheus text exposition. Counters render as `counter` families,
/// histograms as `summary` families (p50/p95/p99 `quantile` samples
/// plus `_sum`/`_count`), gauges as `gauge` families, in that order;
/// within each section, report order (name-sorted) then caller order.
pub fn render_exposition(report: &Report, gauges: &[Gauge<'_>]) -> String {
    let mut out = String::with_capacity(1024);
    for c in &report.counters {
        let name = metric_name(&c.name);
        let help = match registry::lookup(&c.name) {
            Some(m) if m.kind == Kind::Counter => m.help.to_owned(),
            _ => format!("Chortle counter {}.", c.name),
        };
        push_family(&mut out, &name, &help, "counter");
        out.push_str(&name);
        out.push(' ');
        out.push_str(&c.value.to_string());
        out.push('\n');
    }
    for h in &report.histograms {
        let name = metric_name(&h.name);
        let help = match registry::lookup(&h.name).map(|m| (m.kind, m.help)) {
            Some((Kind::Histogram(unit), help)) => format!("{help} Unit: {}.", unit.as_str()),
            _ => format!("Chortle histogram {} (nanoseconds).", h.name),
        };
        push_family(&mut out, &name, &help, "summary");
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&name);
            out.push_str("{quantile=\"");
            out.push_str(label);
            out.push_str("\"} ");
            out.push_str(&h.hist.quantile(q).to_string());
            out.push('\n');
        }
        out.push_str(&name);
        out.push_str("_sum ");
        out.push_str(&h.hist.total().to_string());
        out.push('\n');
        out.push_str(&name);
        out.push_str("_count ");
        out.push_str(&h.hist.count().to_string());
        out.push('\n');
    }
    for (raw, help, value) in gauges {
        let name = metric_name(raw);
        push_family(&mut out, &name, help, "gauge");
        out.push_str(&name);
        out.push(' ');
        json::write_f64(&mut out, *value);
        out.push('\n');
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[derive(Default)]
struct Family {
    help: bool,
    kind: Option<String>,
    samples: u64,
}

/// Parses `{name="value",…}` starting after `{`; returns the rest of
/// the line after the closing brace.
fn parse_labels(rest: &str, line_no: usize) -> Result<&str, String> {
    let mut rest = rest;
    loop {
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix('}') {
            return Ok(after);
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("line {line_no}: label without '='"))?;
        let label = rest[..eq].trim();
        if !valid_label_name(label) {
            return Err(format!("line {line_no}: invalid label name {label:?}"));
        }
        rest = rest[eq + 1..].trim_start();
        rest = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("line {line_no}: label value must be quoted"))?;
        // Walk the escaped value: only \\, \", \n escapes are legal.
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next() {
                None => return Err(format!("line {line_no}: unterminated label value")),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\' | '"' | 'n')) => {}
                    other => {
                        return Err(format!(
                            "line {line_no}: invalid escape {:?} in label value",
                            other.map(|(_, c)| c)
                        ))
                    }
                },
                Some((i, '"')) => break i,
                Some(_) => {}
            }
        };
        rest = &rest[end + 1..];
        rest = rest.trim_start();
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.starts_with('}') {
            return Err(format!(
                "line {line_no}: expected ',' or '}}' after label value"
            ));
        }
    }
}

fn valid_sample_value(text: &str) -> bool {
    matches!(text, "NaN" | "+Inf" | "-Inf") || text.parse::<f64>().is_ok()
}

/// The family a sample belongs to: its own name, or — for summary /
/// histogram synthetic series — the name with `_sum`, `_count`, or
/// `_bucket` stripped when that base family is declared.
fn family_of<'a>(name: &'a str, families: &BTreeMap<String, Family>) -> &'a str {
    if families.contains_key(name) {
        return name;
    }
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if families
                .get(base)
                .is_some_and(|f| matches!(f.kind.as_deref(), Some("summary" | "histogram")))
            {
                return base;
            }
        }
    }
    name
}

/// Validates a Prometheus text exposition (version 0.0.4): name
/// charsets, HELP/TYPE pairing before any sample of the family,
/// escaping, and parseable sample values.
///
/// # Errors
///
/// Describes the first deviation, with its 1-based line number.
pub fn validate_exposition(input: &str) -> Result<(), String> {
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    for (i, line) in input.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            let (keyword, rest) = match comment.split_once(' ') {
                Some(pair) => pair,
                None => continue, // bare comment
            };
            if keyword != "HELP" && keyword != "TYPE" {
                continue; // free-form comment
            }
            let (name, payload) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {line_no}: # {keyword} needs a name and a body"))?;
            if !valid_metric_name(name) {
                return Err(format!(
                    "line {line_no}: invalid metric name {name:?} in # {keyword}"
                ));
            }
            let family = families.entry(name.to_owned()).or_default();
            if family.samples > 0 {
                return Err(format!(
                    "line {line_no}: # {keyword} for {name} after its samples"
                ));
            }
            if keyword == "HELP" {
                if family.help {
                    return Err(format!("line {line_no}: duplicate # HELP for {name}"));
                }
                // Docstring escaping: backslash may only introduce \\ or \n.
                let mut chars = payload.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' && !matches!(chars.next(), Some('\\' | 'n')) {
                        return Err(format!(
                            "line {line_no}: invalid escape in # HELP for {name}"
                        ));
                    }
                }
                family.help = true;
            } else {
                if family.kind.is_some() {
                    return Err(format!("line {line_no}: duplicate # TYPE for {name}"));
                }
                if !matches!(
                    payload,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(format!(
                        "line {line_no}: unknown type {payload:?} for {name}"
                    ));
                }
                family.kind = Some(payload.to_owned());
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let name_end = line
            .find(|c: char| c == '{' || c.is_ascii_whitespace())
            .unwrap_or(line.len());
        let name = &line[..name_end];
        if !valid_metric_name(name) {
            return Err(format!(
                "line {line_no}: invalid metric name {name:?} in sample"
            ));
        }
        let mut rest = &line[name_end..];
        if let Some(after_brace) = rest.strip_prefix('{') {
            rest = parse_labels(after_brace, line_no)?;
        }
        let mut parts = rest.split_ascii_whitespace();
        let value = parts
            .next()
            .ok_or_else(|| format!("line {line_no}: sample {name} has no value"))?;
        if !valid_sample_value(value) {
            return Err(format!(
                "line {line_no}: sample {name} has unparseable value {value:?}"
            ));
        }
        if let Some(ts) = parts.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!(
                    "line {line_no}: sample {name} has invalid timestamp {ts:?}"
                ));
            }
        }
        if parts.next().is_some() {
            return Err(format!("line {line_no}: trailing tokens after sample"));
        }
        let base = family_of(name, &families).to_owned();
        let family = families.entry(base.clone()).or_default();
        family.samples += 1;
        if !family.help || family.kind.is_none() {
            return Err(format!(
                "line {line_no}: sample {name} before # HELP and # TYPE of {base}"
            ));
        }
    }
    for (name, family) in &families {
        if family.samples == 0 {
            return Err(format!("metric {name} declared but never sampled"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    fn seeded_report() -> Report {
        let t = Telemetry::enabled();
        t.add_counter("serve.completed", 6);
        t.add_counter("serve.admission.shed_queue_full", 2);
        t.record_value("serve.run_ns", 900);
        t.record_value("serve.run_ns", 1_100);
        t.snapshot()
    }

    #[test]
    fn renders_validating_exposition() {
        let text = render_exposition(
            &seeded_report(),
            &[
                ("serve.queue_depth", "Requests admitted and waiting.", 3.0),
                ("serve.window.qps", "Completed requests per second.", 1.5),
            ],
        );
        validate_exposition(&text).expect("self-rendered exposition validates");
        assert!(text.contains("# TYPE chortle_serve_completed counter"));
        assert!(text.contains("chortle_serve_completed 6"));
        assert!(text.contains("# TYPE chortle_serve_run_ns summary"));
        assert!(text.contains("chortle_serve_run_ns{quantile=\"0.5\"} "));
        assert!(text.contains("chortle_serve_run_ns_count 2"));
        assert!(text.contains("chortle_serve_window_qps 1.5"));
    }

    #[test]
    fn metric_names_are_mechanical() {
        assert_eq!(metric_name("serve.run_ns"), "chortle_serve_run_ns");
        assert_eq!(
            metric_name("serve.admission.shed_over_quota"),
            "chortle_serve_admission_shed_over_quota"
        );
        assert!(valid_metric_name(&metric_name("design.cloud-work")));
    }

    #[test]
    fn every_closed_namespace_counter_renders_a_valid_name() {
        // Property: the schema's closed namespaces map onto valid
        // Prometheus names, each rendering a validating family.
        let t = Telemetry::enabled();
        let all = registry::METRICS
            .iter()
            .filter(|m| m.kind == Kind::Counter && registry::closed_namespace(m.name).is_some())
            .map(|m| m.name);
        for name in all {
            assert!(
                valid_metric_name(&metric_name(name)),
                "{name} renders an invalid metric name"
            );
            t.add_counter(name, 1);
        }
        let text = render_exposition(&t.snapshot(), &[]);
        validate_exposition(&text).expect("all closed-namespace counters validate");
    }

    #[test]
    fn validator_rejects_charset_violations() {
        let bad_metric = "# HELP bad-name x\n# TYPE bad-name counter\nbad-name 1\n";
        assert!(validate_exposition(bad_metric).is_err());
        let bad_label = "# HELP m x\n# TYPE m counter\nm{bad-label=\"v\"} 1\n";
        assert!(validate_exposition(bad_label).is_err());
    }

    #[test]
    fn validator_enforces_help_type_pairing() {
        let no_type = "# HELP m x\nm 1\n";
        let err = validate_exposition(no_type).unwrap_err();
        assert!(err.contains("# TYPE"), "{err}");
        let late_help = "# TYPE m counter\n# HELP m x\nm 1\n";
        validate_exposition(late_help).expect("order within the preamble is free");
        let help_after_sample = "# HELP m x\n# TYPE m counter\nm 1\n# HELP m again\n";
        assert!(validate_exposition(help_after_sample).is_err());
        let dup_type = "# HELP m x\n# TYPE m counter\n# TYPE m counter\nm 1\n";
        assert!(validate_exposition(dup_type).is_err());
    }

    #[test]
    fn validator_checks_escapes_and_values() {
        let bad_escape = "# HELP m bad \\q escape\n# TYPE m counter\nm 1\n";
        assert!(validate_exposition(bad_escape).is_err());
        let bad_label_escape = "# HELP m x\n# TYPE m counter\nm{l=\"a\\q\"} 1\n";
        assert!(validate_exposition(bad_label_escape).is_err());
        let good_escape = "# HELP m a\\\\b\\nc\n# TYPE m counter\nm{l=\"x\\\"y\\nz\"} 1\n";
        validate_exposition(good_escape).expect("documented escapes pass");
        let bad_value = "# HELP m x\n# TYPE m counter\nm one\n";
        assert!(validate_exposition(bad_value).is_err());
        let special_values = "# HELP m x\n# TYPE m gauge\nm NaN\n";
        validate_exposition(special_values).expect("NaN is a legal sample value");
    }

    #[test]
    fn summary_series_attach_to_their_family() {
        let text = "# HELP s x\n# TYPE s summary\ns{quantile=\"0.5\"} 1\ns_sum 2\ns_count 1\n";
        validate_exposition(text).expect("summary synthetic series validate");
        // _sum of an undeclared family is its own (undeclared) family.
        let orphan = "orphan_sum 2\n";
        assert!(validate_exposition(orphan).is_err());
    }
}
