//! The declarative flag table of the `chortle-map` binary.
//!
//! One table ([`FLAGS`]) drives argument parsing, `--help` generation
//! ([`help_text`]), and unknown-flag rejection, so the three can never
//! disagree. It lives in the library (rather than the binary) so the
//! binary's golden `--help` test can *generate* the flag-table portion
//! of its expected text from the same source of truth.

/// One command-line flag: its spelling(s), value placeholder (`None`
/// for booleans), and help text.
pub struct Flag {
    /// Primary spelling, e.g. `--report`.
    pub name: &'static str,
    /// Alternate spelling, e.g. `-h` for `--help`.
    pub alias: Option<&'static str>,
    /// Placeholder for the value in help output; `None` for booleans.
    pub value: Option<&'static str>,
    /// One-line help text.
    pub help: &'static str,
}

/// Every flag `chortle-map` understands — the single source of truth
/// for parsing and `--help`.
pub const FLAGS: &[Flag] = &[
    Flag {
        name: "-k",
        alias: None,
        value: Some("N"),
        help: "LUT input count, 2..=8 (default 4)",
    },
    Flag {
        name: "-o",
        alias: None,
        value: Some("FILE"),
        help: "write the mapped circuit to FILE (default stdout)",
    },
    Flag {
        name: "--mapper",
        alias: None,
        value: Some("NAME"),
        help: "mapper to run: chortle (default) or mis",
    },
    Flag {
        name: "--objective",
        alias: None,
        value: Some("GOAL"),
        help: "what Chortle minimizes: area (default) or depth",
    },
    Flag {
        name: "--split",
        alias: None,
        value: Some("N"),
        help: "Chortle node-splitting threshold, 2..=16 (default 10)",
    },
    Flag {
        name: "--jobs",
        alias: None,
        value: Some("N"),
        help: "mapper worker threads; 0 = all cores (default 0)",
    },
    Flag {
        name: "--chunk",
        alias: None,
        value: Some("POLICY"),
        help: "trees per scheduler chunk: auto (default) or N >= 1",
    },
    Flag {
        name: "--cache",
        alias: None,
        value: Some("MODE"),
        help: "DP-result cache: shared (default), off, or fn; tree = alias of shared",
    },
    Flag {
        name: "--pack",
        alias: None,
        value: Some("MODE"),
        help: "don't-care LUT packing post-pass: off (default) or dc",
    },
    Flag {
        name: "--design",
        alias: None,
        value: None,
        help: "treat the input as a sequential design (.latch/.subckt)",
    },
    Flag {
        name: "--clouds",
        alias: None,
        value: Some("DIR"),
        help: "with --design, dump each cloud and its mapping into DIR",
    },
    Flag {
        name: "--format",
        alias: None,
        value: Some("F"),
        help: "output format: blif (default), verilog, dot",
    },
    Flag {
        name: "--report",
        alias: None,
        value: Some("F"),
        help: "print a telemetry report to stdout: json or text",
    },
    Flag {
        name: "--trace",
        alias: None,
        value: Some("FILE"),
        help: "write a Chrome trace-event JSON of the run to FILE",
    },
    Flag {
        name: "--no-optimize",
        alias: None,
        value: None,
        help: "skip the MIS-style optimization script",
    },
    Flag {
        name: "--no-verify",
        alias: None,
        value: None,
        help: "skip the functional equivalence check",
    },
    Flag {
        name: "--stats",
        alias: None,
        value: None,
        help: "print statistics to stderr",
    },
    Flag {
        name: "--help",
        alias: Some("-h"),
        value: None,
        help: "print this help and exit",
    },
    Flag {
        name: "--version",
        alias: Some("-V"),
        value: None,
        help: "print the version and exit",
    },
];

/// Looks a token up in the flag table (by name or alias).
#[must_use]
pub fn lookup(token: &str) -> Option<&'static Flag> {
    FLAGS
        .iter()
        .find(|f| f.name == token || f.alias == Some(token))
}

/// The complete `--help` text, generated from [`FLAGS`] and the
/// daemon's [`chortle_server::SERVE_FLAGS`]. The binary prints exactly
/// this string and the golden test asserts against it, so help cannot
/// drift from the tables.
#[must_use]
pub fn help_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("chortle-map — map a BLIF network into K-input lookup tables\n\n");
    out.push_str("Usage: chortle-map [OPTIONS] [INPUT.blif]\n");
    out.push_str("       chortle-map serve [SERVE-OPTIONS]\n\n");
    out.push_str("Reads BLIF from stdin when INPUT.blif is omitted. With --report,\n");
    out.push_str("the report goes to stdout and the circuit only to -o FILE.\n\n");
    out.push_str("Options:\n");
    for flag in FLAGS {
        let mut left = String::from("  ");
        left.push_str(flag.name);
        if let Some(alias) = flag.alias {
            left.push_str(", ");
            left.push_str(alias);
        }
        if let Some(value) = flag.value {
            left.push(' ');
            left.push_str(value);
        }
        let _ = writeln!(out, "{left:<21} {}", flag.help);
    }
    out.push_str("\nSubcommands:\n");
    out.push_str("  serve               run the resident mapping daemon (newline-delimited\n");
    out.push_str("                      JSON over localhost TCP or --stdio; same mapper,\n");
    out.push_str("                      same output bytes); `chortle-map serve --help` lists:\n");
    for flag in chortle_server::SERVE_FLAGS {
        let mut left = String::from("    ");
        left.push_str(flag.name);
        if let Some(value) = flag.value {
            left.push(' ');
            left.push_str(value);
        }
        let _ = writeln!(out, "{left:<21} {}", flag.help);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_finds_names_and_aliases() {
        assert_eq!(lookup("--report").map(|f| f.name), Some("--report"));
        assert_eq!(lookup("-h").map(|f| f.name), Some("--help"));
        assert!(lookup("--frobnicate").is_none());
    }

    #[test]
    fn help_text_lists_every_flag_once() {
        let help = help_text();
        for flag in FLAGS {
            assert!(help.contains(flag.name), "help lost {}", flag.name);
            assert!(help.contains(flag.help), "help lost {:?}", flag.help);
        }
        for flag in chortle_server::SERVE_FLAGS {
            assert!(help.contains(flag.help), "help lost {:?}", flag.help);
        }
    }

    #[test]
    fn help_text_separates_every_flag_column_from_its_text() {
        // The flag column as rendered: indent, name, alias, value.
        let mut rows: Vec<(String, &str)> = FLAGS
            .iter()
            .map(|f| {
                let alias = f.alias.map(|a| format!(", {a}")).unwrap_or_default();
                let value = f.value.map(|v| format!(" {v}")).unwrap_or_default();
                (format!("  {}{alias}{value}", f.name), f.help)
            })
            .collect();
        rows.extend(chortle_server::SERVE_FLAGS.iter().map(|f| {
            let value = f.value.map(|v| format!(" {v}")).unwrap_or_default();
            (format!("    {}{value}", f.name), f.help)
        }));
        let help = help_text();
        for (column, text) in rows {
            let separated = help.lines().any(|line| {
                line.strip_prefix(column.as_str())
                    .is_some_and(|rest| rest.starts_with(' ') && rest.trim_start() == text)
            });
            assert!(
                separated,
                "no help line renders {column:?} followed by whitespace and {text:?}"
            );
        }
    }
}
