//! Golden pins of the optimization script: for every case, an FNV-1a 64
//! digest of `write_blif(optimize(net))` plus the report's
//! `literals_after`, `eliminated` and `extracted`.
//!
//! The pins were generated from the original, unindexed `eliminate` and
//! `extract_kernels` loops. Any change to those passes must leave every
//! pin in place: the optimized network is a byte-level contract, because
//! every default `chortle-map` run and daemon request maps it.

use chortle_circuits::{alu, control, count, des_like, random_logic, suite};
use chortle_logic_opt::optimize;
use chortle_netlist::{write_blif, Network};

/// One pinned case: name, digest, `literals_after`, `eliminated`,
/// `extracted`.
type Pin = (&'static str, u64, usize, usize, usize);

const PINS: &[Pin] = &[
    ("9symml", 0x7e20ba7f2ef3e659, 152, 120, 23),
    ("alu2", 0xc89f5321c35bacb1, 289, 23, 8),
    ("alu4", 0xf121b1dba0fda062, 622, 32, 8),
    ("apex6", 0xef0ad4dc317c453b, 1123, 105, 0),
    ("apex7", 0xb65cded00c219518, 500, 51, 0),
    ("count", 0xa75e428d4b86cc10, 216, 48, 0),
    ("des", 0x0cd08eb3238387f9, 657, 229, 34),
    ("frg1", 0x6ad95cfd1ec17b8e, 346, 28, 0),
    ("frg2", 0x51bf26d55f3cd2ce, 1343, 114, 0),
    ("k2", 0xfee98ca1393a232b, 899, 78, 3),
    ("pair", 0x2e28c7508bd8563f, 1613, 102, 0),
    ("rot", 0xa297772bc7697592, 1359, 90, 0),
    ("alu32", 0x1813b460666592cd, 928, 512, 32),
    ("alu64", 0x5635f96d07142bed, 1856, 1024, 64),
    ("alu128", 0x0fd6802c59f4b0ff, 3712, 2048, 128),
    ("alu256", 0xa672c9345f92bff5, 7424, 4096, 256),
    ("alu384", 0xc31444827657969d, 11136, 6144, 384),
    ("count32", 0x96832df6f7d2411b, 384, 96, 0),
    ("des32x3", 0x5b3705175a5c57f3, 931, 328, 52),
    ("random1", 0xd045f6780547c342, 190, 16, 0),
    ("random2", 0xfd382bd027294055, 187, 14, 2),
    ("random3", 0xcc6f8f3c78bc4443, 257, 21, 0),
    ("random4", 0x0719d8b263521b60, 217, 21, 2),
    ("random5", 0x1e17f0096a91b844, 496, 16, 0),
    ("random6", 0x33d68597e8d5839c, 264, 29, 4),
    ("random7", 0x1d6c41de8dabfcbe, 588, 45, 0),
    ("random8", 0xe29703503d15232d, 347, 38, 4),
    ("random9", 0xd4c766cf198fb0f9, 539, 47, 0),
    ("random10", 0x435d30d8a088f7c6, 399, 42, 4),
    ("random11", 0x08325a5491efac96, 941, 59, 0),
    ("random12", 0x8252b05ae9d9aeb6, 459, 43, 3),
    ("random13", 0x65f28c895640f187, 921, 63, 0),
    ("random14", 0x643a14758ae740f2, 519, 48, 6),
    ("random15", 0x3ad7888eda49ed59, 889, 74, 0),
    ("random16", 0x6c58585ae05d28d1, 573, 35, 2),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seeded random networks: odd seeds are multi-level random logic,
/// even seeds two-level control logic over a shared cube pool (which is
/// where kernel extraction finds the most to do).
fn random_case(seed: u64) -> Network {
    let s = seed as usize;
    if seed % 2 == 1 {
        random_logic(
            0x0971_0000 + seed,
            8 + s % 24,
            40 + 20 * s,
            4 + s % 9,
            3 + s % 3,
        )
    } else {
        control(
            0x0972_0000 + seed,
            10 + s,
            4 + s / 2,
            30 + 8 * s,
            (2, 5),
            (3, 8),
        )
    }
}

fn case(name: &str) -> Network {
    if let Some(b) = suite().into_iter().find(|b| b.name == name) {
        return b.network;
    }
    if let Some(w) = name.strip_prefix("alu") {
        return alu(w.parse().expect("alu width"));
    }
    if let Some(seed) = name.strip_prefix("random") {
        return random_case(seed.parse().expect("random seed"));
    }
    match name {
        "count32" => count(32),
        "des32x3" => des_like(0xDE5, 32, 3),
        _ => panic!("unknown case {name}"),
    }
}

#[test]
fn optimize_output_matches_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for &(name, digest, literals_after, eliminated, extracted) in PINS {
        let (optimized, report) = optimize(&case(name)).expect("acyclic");
        let got = (
            fnv1a64(write_blif(&optimized, name).as_bytes()),
            report.literals_after,
            report.eliminated,
            report.extracted,
        );
        if got != (digest, literals_after, eliminated, extracted) {
            mismatches.push(format!(
                "    (\"{name}\", {:#018x}, {}, {}, {}),",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "optimized networks drifted from their pins; got:\n{}",
        mismatches.join("\n")
    );
}
