//! Golden encoder output: compressed bytes are pinned by length and a
//! 64-bit FNV-1a hash for every entropy-coding configuration, so encoder
//! speedups (bit writers, Huffman table construction, literal staging) are
//! proven byte-identical rather than merely round-tripping.
//!
//! The corpus is fixed (the Xoshiro-seeded generators of `cdpu-corpus` at
//! fixed seeds). A change that moves any pinned value changes the encoded
//! format or the parse and must say so; on a mismatch the test prints the
//! full table of actual values.

use cdpu_corpus::{generate, CorpusKind, ALL_KINDS};
use cdpu_zstd::ZstdConfig;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The inputs: every corpus kind back to back (several 128 KiB blocks,
/// raw, RLE and entropy-coded alike), a text block, a short record and
/// the empty input.
fn corpus() -> Vec<Vec<u8>> {
    let mut mixed = Vec::new();
    for (i, &kind) in ALL_KINDS.iter().enumerate() {
        mixed.extend_from_slice(&generate(kind, 40_000, 100 + i as u64));
    }
    vec![
        mixed,
        generate(CorpusKind::MarkovText, 50_000, 7),
        generate(CorpusKind::JsonLogs, 200, 8),
        Vec::new(),
    ]
}

type Encoder = Box<dyn Fn(&[u8]) -> Vec<u8>>;

fn zstd(cfg: ZstdConfig) -> Encoder {
    Box::new(move |data| cdpu_zstd::compress_with(data, &cfg))
}

fn encoders() -> Vec<(&'static str, Encoder)> {
    vec![
        ("zstd -5", zstd(ZstdConfig::with_level(-5))),
        ("zstd 1", zstd(ZstdConfig::with_level(1))),
        ("zstd 3", zstd(ZstdConfig::with_level(3))),
        ("zstd 9", zstd(ZstdConfig::with_level(9))),
        (
            "zstd 3 lit_streams(4)",
            zstd(ZstdConfig::with_level(3).lit_streams(4)),
        ),
        (
            "zstd 3 seq_streams(4)",
            zstd(ZstdConfig::with_level(3).seq_streams(4)),
        ),
        (
            "zstd 3 rans",
            zstd(ZstdConfig::with_level(3).rans_literals()),
        ),
        (
            "flate 6",
            Box::new(|data| {
                cdpu_flate::compress_with(data, &cdpu_flate::FlateConfig::with_level(6))
            }),
        ),
        ("gipfeli", Box::new(cdpu_lite::gipfeli::compress)),
    ]
}

/// `(encoder, [(length, fnv1a); corpus inputs])`, computed from the
/// byte-at-a-time bit writers and the symbol-set package-merge.
const GOLDEN: &[(&str, [(usize, u64); 4])] = &[
    (
        "zstd -5",
        [
            (146234, 0x5966ad90bd29c147),
            (21167, 0x75f227182cf1cd66),
            (183, 0xd278cc644604b014),
            (8, 0xce8af63a1fc34bd0),
        ],
    ),
    (
        "zstd 1",
        [
            (129115, 0x4b86b050e5bb846b),
            (17931, 0xb42b6d008ee1e36b),
            (164, 0x697b1fdeb81d0e51),
            (8, 0xce8af63a1fc34bd0),
        ],
    ),
    (
        "zstd 3",
        [
            (127822, 0xade9ceff5da1629c),
            (17221, 0xd88383ecf914c1d9),
            (164, 0x554329b133fa61bc),
            (8, 0x2e971631c9935591),
        ],
    ),
    (
        "zstd 9",
        [
            (126351, 0xbf18217e03e5659f),
            (16657, 0x6de3809c603f1eec),
            (164, 0xc1d9539124182200),
            (8, 0xae81c653226a47d5),
        ],
    ),
    (
        "zstd 3 lit_streams(4)",
        [
            (127840, 0xa879b493b3eb656a),
            (17230, 0xbb6dbb12bb307041),
            (164, 0x554329b133fa61bc),
            (8, 0x2e971631c9935591),
        ],
    ),
    (
        "zstd 3 seq_streams(4)",
        [
            (127852, 0xde491c8a74724f10),
            (17236, 0x5ffdb6435206a48f),
            (164, 0x554329b133fa61bc),
            (8, 0x2e971631c9935591),
        ],
    ),
    (
        "zstd 3 rans",
        [
            (128436, 0xe9ae1ef18e0c56fd),
            (17400, 0x72436ab6dedefad3),
            (164, 0x554329b133fa61bc),
            (8, 0x2e971631c9935591),
        ],
    ),
    (
        "flate 6",
        [
            (127343, 0x4869e4097fbd8550),
            (16661, 0xda62f2700514a1c4),
            (210, 0xa9aa681650562429),
            (8, 0xd2c75464ed4d8866),
        ],
    ),
    (
        "gipfeli",
        [
            (147099, 0x2dd897d39a2228a4),
            (24149, 0x241864e124a74f92),
            (170, 0x6cb2650bc546cdf6),
            (35, 0x588d2393d17dfe37),
        ],
    ),
];

#[test]
fn encoder_output_is_pinned() {
    let inputs = corpus();
    let actual: Vec<(&str, Vec<(usize, u64)>)> = encoders()
        .into_iter()
        .map(|(name, encode)| {
            let pins = inputs
                .iter()
                .map(|data| {
                    let out = encode(data);
                    (out.len(), fnv1a(&out))
                })
                .collect();
            (name, pins)
        })
        .collect();
    let expected: Vec<(&str, Vec<(usize, u64)>)> = GOLDEN
        .iter()
        .map(|(name, pins)| (*name, pins.to_vec()))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (name, pins) in &actual {
            let row: Vec<String> = pins
                .iter()
                .map(|(len, h)| format!("({len}, {h:#018x})"))
                .collect();
            table.push_str(&format!("    ({name:?}, [{}]),\n", row.join(", ")));
        }
        panic!("encoder output moved; actual values:\n{table}");
    }
}
