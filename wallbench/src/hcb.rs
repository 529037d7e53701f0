//! `hcb-snappy` and `hcb-zstd`: the HyperCompressBench suites (paper §4)
//! issued serially as one-shot calls on one thread.
//!
//! Each workload pairs the compression suite (whose files are compressed
//! in the timed loop) with the decompression suite (whose files are
//! compressed during setup and decompressed in the timed loop). ZStd files
//! use their own sampled level and window.

use std::time::{Duration, Instant};

use cdpu_fleet::{AlgoOp, Algorithm, Direction};
use cdpu_hcbench::bank::{BankConfig, ChunkBank};
use cdpu_hcbench::{generate_suite, BenchmarkFile, SuiteConfig};
use cdpu_lz77::window::DecoderScratch;
use cdpu_lz77::Parse;

use crate::hostspeed::HostSpeed;
use crate::stats;
use crate::trace::Trace;
use crate::{metric, Measured};

/// Files per suite: the paper's suites hold 8–10k files; this many keep a
/// pass over both suites near a second while still sampling the call-size
/// distribution's tail.
const FILES: usize = 160;
/// Per-call size cap (the paper's is 64 MiB).
const MAX_CALL_BYTES: u64 = 1 << 20;
/// Literal payloads shorter than this are left out of the entropy
/// probes: they decode in the table-build shadow and add only timer noise.
const MIN_LITERALS: usize = 1024;
/// Calls between two host-speed probes (a probe costs about 0.1 ms, a
/// call 0.2 ms to 10 ms).
const PROBE_EVERY: usize = 4;

/// One file of the compression suite with the config it is compressed at.
struct CFile {
    data: Vec<u8>,
    zstd: Option<cdpu_zstd::ZstdConfig>,
}

/// One file of the decompression suite, compressed during setup.
struct DFile {
    data: Vec<u8>,
    compressed: Vec<u8>,
}

pub struct Setup {
    algo: Algorithm,
    c: Vec<CFile>,
    d: Vec<DFile>,
}

fn zstd_config(f: &BenchmarkFile) -> Option<cdpu_zstd::ZstdConfig> {
    f.level.map(|l| {
        let mut cfg = cdpu_zstd::ZstdConfig::with_level(l);
        if let Some(w) = f.window_log {
            cfg = cfg.window_log(w.clamp(10, 24));
        }
        cfg
    })
}

fn compress(data: &[u8], zstd: Option<&cdpu_zstd::ZstdConfig>) -> Vec<u8> {
    match zstd {
        None => cdpu_snappy::compress(data),
        Some(cfg) => cdpu_zstd::compress_with(data, cfg),
    }
}

fn decompress<'a>(
    algo: Algorithm,
    comp: &[u8],
    scratch: &'a mut DecoderScratch,
) -> Option<&'a [u8]> {
    match algo {
        Algorithm::Snappy => cdpu_snappy::decompress_into(comp, scratch).ok(),
        _ => cdpu_zstd::decompress_into(comp, scratch).ok(),
    }
}

/// Seed of the suites' fleet-sampled call parameters (sizes, levels,
/// windows, ratio targets). The paper publishes one HyperCompressBench, so
/// these stay fixed; `--seed` picks the corpus the files are assembled
/// from. A fresh sample of 160 call sizes per seed would move the median
/// call by ±20% from seed to seed, which no bound could tell from a
/// regression.
const SUITE_SEED: u64 = 0x4843_4245_4e43_4800;

/// Builds a corpus bank from `seed`, generates both suites from it, and
/// compresses the decompression suite.
pub fn setup(algo: Algorithm, seed: u64) -> Setup {
    // The Snappy suites read only the bank's Snappy ratio table, so their
    // bank pre-compresses at one (the cheapest) ZStd level, the fewest it
    // accepts; the suites come out the same as from the full bank.
    let zstd_levels = match algo {
        Algorithm::Snappy => vec![cdpu_zstd::MIN_LEVEL],
        _ => BankConfig::default().zstd_levels,
    };
    let bank = ChunkBank::build(&BankConfig {
        seed: cdpu_util::rng::mix64(seed ^ 0x4241_4e4b),
        zstd_levels,
        ..BankConfig::default()
    });
    let suite = |dir: Direction, tag: u64| {
        generate_suite(
            &bank,
            &SuiteConfig {
                op: AlgoOp::new(algo, dir),
                files: FILES,
                max_call_bytes: MAX_CALL_BYTES,
                seed: SUITE_SEED ^ tag,
            },
        )
    };
    let c = suite(Direction::Compress, 0x4843_4243)
        .files
        .into_iter()
        .map(|f| CFile {
            zstd: zstd_config(&f),
            data: f.data,
        })
        .collect();
    let d_files = suite(Direction::Decompress, 0x4843_4244).files;
    let compressed = cdpu_par::par_map(&d_files, |f| compress(&f.data, zstd_config(f).as_ref()));
    let d = d_files
        .into_iter()
        .zip(compressed)
        .map(|(f, compressed)| DFile {
            data: f.data,
            compressed,
        })
        .collect();
    Setup { algo, c, d }
}

impl Setup {
    fn label(&self) -> &'static str {
        match self.algo {
            Algorithm::Snappy => "hcb-snappy",
            _ => "hcb-zstd",
        }
    }
}

/// Entropy-stage inputs for one compression-suite file: its literal
/// payload and the payload pre-encoded for the decode probes.
struct EntropyPrep {
    literals: Vec<u8>,
    table: cdpu_entropy::huffman::HuffmanTable,
    huffman: cdpu_entropy::interleave::HuffmanStreams,
    norm: Vec<u32>,
    log: u8,
    fse: Vec<Vec<u8>>,
}

fn entropy_prep(literals: Vec<u8>) -> Option<EntropyPrep> {
    use cdpu_entropy::{byte_histogram, fse, huffman::HuffmanTable, interleave};
    if literals.len() < MIN_LITERALS {
        return None;
    }
    let hist = byte_histogram(&literals);
    let table = HuffmanTable::from_frequencies(&hist).ok()?;
    let huffman = interleave::huffman_encode(&table, &literals, 1).ok()?;
    let log = fse::recommended_table_log(&hist, 11);
    let norm = fse::normalize_counts(&hist, log).ok()?;
    let syms: Vec<u16> = literals.iter().map(|&b| b as u16).collect();
    let fse = interleave::fse_encode(&syms, &norm, log, 1).ok()?;
    Some(EntropyPrep {
        literals,
        table,
        huffman,
        norm,
        log,
        fse,
    })
}

/// The parse a compression call runs, re-executed on its own.
fn parse(data: &[u8], zstd: Option<&cdpu_zstd::ZstdConfig>) -> Parse {
    match zstd {
        None => cdpu_snappy::parse_with(data, &cdpu_lz77::matcher::MatcherConfig::snappy_sw()),
        Some(cfg) => cdpu_zstd::parse_with(data, cfg),
    }
}

/// Everything after the parse, re-executed on a precomputed parse.
fn emit(data: &[u8], parse: &Parse, zstd: Option<&cdpu_zstd::ZstdConfig>) -> usize {
    match zstd {
        None => cdpu_snappy::compress_parse(data, parse).len(),
        Some(cfg) => cdpu_zstd::compress_parse_with_stats(data, parse, cfg)
            .0
            .len(),
    }
}

/// Untimed warm-up pass: compresses every compression-suite file,
/// checks that the output decodes back to the input, and decompresses the
/// decompression suite once. Returns the compressed outputs, which the
/// timed passes must reproduce byte for byte.
fn warm_up(s: &Setup, scratch: &mut DecoderScratch, m: &mut Measured) -> Vec<Vec<u8>> {
    let outs: Vec<Vec<u8>> =
        s.c.iter()
            .map(|f| compress(&f.data, f.zstd.as_ref()))
            .collect();
    for (i, (f, out)) in s.c.iter().zip(&outs).enumerate() {
        if decompress(s.algo, out, scratch) != Some(f.data.as_slice()) {
            m.errors.push(format!(
                "{} compress file {i}: output does not decode to the input",
                s.label()
            ));
        }
    }
    for f in &s.d {
        decompress(s.algo, &f.compressed, scratch);
    }
    outs
}

/// The timed loop: whole passes over both suites until `seconds` pass,
/// after one untimed warm-up pass. Host-speed probes run between calls,
/// and each pass's times are scaled by the median probe of the pass.
///
/// Traced, each compression becomes one operation span whose children are
/// the real call and re-executions of its parse and emit stages (plus, for
/// ZStd, the entropy kernels on its literal payload). Re-executions run
/// with telemetry off, so the library counters count only the real calls.
pub fn measure(s: &Setup, seconds: f64, mut trace: Option<&mut Trace>) -> Measured {
    let mut m = Measured::default();
    let traced = trace.is_some();
    let mut scratch = DecoderScratch::new();
    let expected = warm_up(s, &mut scratch, &mut m);
    let entropy: Vec<Option<EntropyPrep>> = if traced && s.algo == Algorithm::Zstd {
        cdpu_par::par_map(&s.c, |f| {
            entropy_prep(parse(&f.data, f.zstd.as_ref()).literal_bytes(&f.data))
        })
    } else {
        Vec::new()
    };
    let c_bytes: u64 = s.c.iter().map(|f| f.data.len() as u64).sum();
    let d_bytes: u64 = s.d.iter().map(|f| f.data.len() as u64).sum();
    let (mut c_rates, mut d_rates, mut wall_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c_us, mut d_us) = (Vec::new(), Vec::new());
    let (mut c_time, mut d_time) = (Duration::ZERO, Duration::ZERO);
    let mut host = HostSpeed::new(1);
    let (mut raw_rates, mut scales, mut scaled_work) = ([Vec::new(), Vec::new()], Vec::new(), 0.0);
    // Summed call, parse and emit time of the traced compressions.
    let mut stage_ns = [0u64; 3];
    if traced {
        cdpu_telemetry::reset();
        cdpu_telemetry::enable();
    }
    let start = Instant::now();
    let mut pass = 0;
    loop {
        let pass_start = Instant::now();
        let (c_mark, d_mark) = (c_us.len(), d_us.len());
        let mut pass_c = Duration::ZERO;
        for (i, (f, want)) in s.c.iter().zip(&expected).enumerate() {
            if i % PROBE_EVERY == 0 {
                host.probe();
            }
            let (op, call) = match trace.as_deref_mut() {
                Some(tr) => {
                    let call = tr.new_call();
                    let now = Instant::now();
                    (Some(tr.record("hcb.op", now, now, None, call, 0)), call)
                }
                None => (None, 0),
            };
            let t0 = Instant::now();
            let out = compress(&f.data, f.zstd.as_ref());
            let t1 = Instant::now();
            let dt = t1 - t0;
            pass_c += dt;
            c_us.push(dt.as_secs_f64() * 1e6);
            let ok = out == *want;
            if !ok {
                m.errors.push(format!(
                    "{} compress file {i}: output differs from the warm-up pass",
                    s.label()
                ));
            }
            m.tally.record(ok);
            if let (Some(tr), Some(op)) = (trace.as_deref_mut(), op) {
                let bytes = f.data.len() as u64;
                tr.record("codec.compress", t0, t1, Some(op), call, bytes);
                cdpu_telemetry::disable();
                let (p, tp) = tr.time("lz77.parse", Some(op), call, bytes, || {
                    parse(&f.data, f.zstd.as_ref())
                });
                let (_, te) = tr.time("codec.emit", Some(op), call, bytes, || {
                    emit(&f.data, &p, f.zstd.as_ref())
                });
                stage_ns[0] += dt.as_nanos() as u64;
                stage_ns[1] += tp.as_nanos() as u64;
                stage_ns[2] += te.as_nanos() as u64;
                if let Some(Some(e)) = entropy.get(i) {
                    entropy_probes(tr, e, op, call);
                }
                cdpu_telemetry::enable();
                tr.close(op, Instant::now());
            }
        }
        let mut pass_d = Duration::ZERO;
        for (i, f) in s.d.iter().enumerate() {
            if i % PROBE_EVERY == 0 {
                host.probe();
            }
            let t0 = Instant::now();
            let out = decompress(s.algo, &f.compressed, &mut scratch);
            let t1 = Instant::now();
            let ok = out == Some(f.data.as_slice());
            if !ok {
                m.errors.push(format!(
                    "{} decompress file {i}: output differs from the input",
                    s.label()
                ));
            }
            m.tally.record(ok);
            let dt = t1 - t0;
            pass_d += dt;
            d_us.push(dt.as_secs_f64() * 1e6);
            if let Some(tr) = trace.as_deref_mut() {
                let call = tr.new_call();
                tr.record("codec.decompress", t0, t1, None, call, f.data.len() as u64);
            }
        }
        let probes = host.take();
        let scale = probes.time_scale();
        let wall = pass_start.elapsed() - probes.spent;
        for t in c_us[c_mark..].iter_mut().chain(&mut d_us[d_mark..]) {
            *t *= scale;
        }
        c_time += pass_c;
        d_time += pass_d;
        scaled_work += (pass_c + pass_d).as_secs_f64() * scale;
        raw_rates[0].push(c_bytes as f64 / pass_c.as_secs_f64() / 1e6);
        raw_rates[1].push(d_bytes as f64 / pass_d.as_secs_f64() / 1e6);
        c_rates.push(c_bytes as f64 / pass_c.as_secs_f64() / scale / 1e6);
        d_rates.push(d_bytes as f64 / pass_d.as_secs_f64() / scale / 1e6);
        wall_rates.push((c_bytes + d_bytes) as f64 / wall.as_secs_f64() / scale / 1e6);
        scales.push(scale);
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if traced {
        cdpu_telemetry::disable();
    }
    // Call percentiles are over each file's median time across the
    // passes: a file timed in every pass is one call of the tail, not one
    // per pass, so the tail rests on ten distinct calls and not on the one
    // or two largest files of the suite.
    let (mut c_us, mut d_us) = (
        stats::per_item_medians(&c_us, s.c.len()),
        stats::per_item_medians(&d_us, s.d.len()),
    );
    let mut all_us: Vec<f64> = c_us.iter().chain(&d_us).copied().collect();
    for v in [&mut c_us, &mut d_us, &mut all_us] {
        v.sort_by(f64::total_cmp);
    }
    let comp_bytes: u64 = expected.iter().map(|o| o.len() as u64).sum();
    m.note(format!(
        "{pass} passes over {} compress files ({c_bytes} bytes) and {} decompress files ({d_bytes} bytes)",
        s.c.len(),
        s.d.len()
    ));
    let d_comp: u64 = s.d.iter().map(|f| f.compressed.len() as u64).sum();
    m.host_note(&scales, &raw_rates);
    m.rate("compress_mb_s", &c_rates);
    m.rate("decompress_mb_s", &d_rates);
    m.tails("compress_call", &c_us);
    m.tails("decompress_call", &d_us);
    m.metrics.push(metric(
        "ratio",
        (c_bytes + d_bytes) as f64 / (comp_bytes + d_comp).max(1) as f64,
        "x",
    ));
    m.tails("latency", &all_us);
    m.rate("served_mb_s", &wall_rates);
    m.work_rate = (c_bytes + d_bytes) as f64 * pass as f64 / scaled_work;

    if let Some(tr) = trace {
        let c_mb_s = c_bytes as f64 * pass as f64 / c_time.as_secs_f64() / 1e6;
        let d_mb_s = d_bytes as f64 * pass as f64 / d_time.as_secs_f64() / 1e6;
        layer_metrics(
            s,
            tr,
            &mut m,
            stage_ns,
            c_mb_s,
            d_mb_s,
            d_bytes * pass as u64,
        );
    }
    m
}

/// Times the entropy kernels on one file's literal payload as children
/// of its operation span.
fn entropy_probes(tr: &mut Trace, e: &EntropyPrep, op: usize, call: u64) {
    use cdpu_entropy::interleave;
    let n = e.literals.len() as u64;
    let (enc, _) = tr.time("entropy.huffman_encode", Some(op), call, n, || {
        interleave::huffman_encode(&e.table, &e.literals, 1)
    });
    let mut out = Vec::with_capacity(e.literals.len());
    let (dec, _) = tr.time("entropy.huffman_decode", Some(op), call, n, || {
        interleave::huffman_decode_into(
            &e.table,
            &e.huffman.payload,
            &e.huffman.bit_lens,
            e.literals.len(),
            &mut out,
        )
    });
    let streams: Vec<&[u8]> = e.fse.iter().map(Vec::as_slice).collect();
    let (fse, _) = tr.time("entropy.fse_decode", Some(op), call, n, || {
        interleave::fse_decode(&streams, &e.norm, e.log, e.literals.len())
    });
    // The probes' outputs are checked so the kernels cannot be elided.
    assert!(
        enc.is_ok() && dec.is_ok() && out == e.literals,
        "huffman probe round trip"
    );
    assert!(
        fse.is_ok_and(|syms| syms.iter().zip(&e.literals).all(|(&s, &b)| s == b as u16)),
        "fse probe round trip"
    );
}

/// Reads a `cdpu_telemetry` counter (0 when never registered).
fn counter(name: &str) -> u64 {
    cdpu_telemetry::registry().counter(name).get()
}

fn layer_metrics(
    s: &Setup,
    tr: &Trace,
    m: &mut Measured,
    stage_ns: [u64; 3],
    c_mb_s: f64,
    d_mb_s: f64,
    d_bytes_total: u64,
) {
    let p = format!("{}.", s.label());
    let sum = tr.summary();
    let mb_s = |name: &str| sum.get(name).map_or(f64::NAN, |x| x.mb_s());
    let input = counter("lz77.input_bytes") as f64;
    let wild = counter("decode.wild_copies") as f64;
    let overlap = counter("decode.overlap_copies") as f64;
    let hits = (counter("decode.scratch.hits") + counter("lz77.scratch.hits")) as f64;
    let misses = (counter("decode.scratch.misses") + counter("lz77.scratch.misses")) as f64;
    let xeon = |dir| cdpu_core::baseline::xeon_gbps(AlgoOp::new(s.algo, dir)) * 1e3;
    m.layers.extend([
        metric(
            format!("{p}cdpu_lz77.parse_mb_s"),
            mb_s("lz77.parse"),
            "MB/s",
        ),
        metric(
            format!("{p}cdpu_lz77.probes_per_byte"),
            counter("lz77.probes") as f64 / input,
            "probes/B",
        ),
        metric(
            format!("{p}cdpu_lz77.match_frac"),
            counter("lz77.match_bytes") as f64 / input,
            "frac",
        ),
        metric(
            format!("{p}cdpu_lz77.wild_copy_frac"),
            wild / (wild + overlap),
            "frac",
        ),
        metric(format!("{p}codec.emit_mb_s"), mb_s("codec.emit"), "MB/s"),
        metric(
            format!("{p}codec.compress_explained_frac"),
            (stage_ns[1] + stage_ns[2]) as f64 / stage_ns[0] as f64,
            "frac",
        ),
        metric(
            format!("{p}codec.scratch_hit_frac"),
            hits / (hits + misses),
            "frac",
        ),
        metric(
            format!("{p}codec.xeon_frac.compress"),
            c_mb_s / xeon(Direction::Compress),
            "frac",
        ),
        metric(
            format!("{p}codec.xeon_frac.decompress"),
            d_mb_s / xeon(Direction::Decompress),
            "frac",
        ),
    ]);
    if s.algo == Algorithm::Zstd {
        let batched = counter("decode.seq.batched") as f64;
        let fallback = counter("decode.seq.fallback") as f64;
        m.layers.extend([
            metric(
                format!("{p}cdpu_entropy.huffman_encode_mb_s"),
                mb_s("entropy.huffman_encode"),
                "MB/s",
            ),
            metric(
                format!("{p}cdpu_entropy.huffman_decode_mb_s"),
                mb_s("entropy.huffman_decode"),
                "MB/s",
            ),
            metric(
                format!("{p}cdpu_entropy.fse_decode_mb_s"),
                mb_s("entropy.fse_decode"),
                "MB/s",
            ),
            metric(
                format!("{p}cdpu_util.bits.refills_per_kib"),
                counter("decode.refills") as f64 / (d_bytes_total as f64 / 1024.0),
                "refills/KiB",
            ),
            metric(
                format!("{p}cdpu_zstd.seq_batched_frac"),
                batched / (batched + fallback),
                "frac",
            ),
        ]);
    }
}
