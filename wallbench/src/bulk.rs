//! `bulk`: large calls of several MiB, compressed and decompressed as
//! chunked frames (`cdpu_serve::chunk`) whose chunks run across the
//! `cdpu_par` lanes.
//!
//! Two of every three calls use ZStd level 3 and the third the LZ4-class
//! codec, so the median call is a ZStd call rather than a value on the
//! boundary between the two codecs' latency modes.

use std::time::{Duration, Instant};

use cdpu_corpus::ALL_KINDS;
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_serve::chunk;
use cdpu_util::rng::{mix64, Xoshiro256};
use cdpu_util::stream::{drive_decoder, drive_encoder, StreamDecoder, StreamEncoder};

use crate::hostspeed::HostSpeed;
use crate::stats;
use crate::trace::Trace;
use crate::{metric, Measured};

/// Calls per pass. Sizes and codecs are fixed; `--seed` picks each
/// call's content and the order of its corpus kinds. Call percentiles are
/// over each call's median time across the passes, so the tail rests on
/// ten distinct calls; over all samples, a dozen calls timed in every pass
/// put the tail on the few slowest passes' stalls instead.
const CALLS: usize = 36;
/// Call `i` is `MIN_CALL + (i % SIZES) * CALL_STEP` bytes: 3 to 5.75 MiB.
const MIN_CALL: usize = 3 << 20;
const CALL_STEP: usize = 256 << 10;
const SIZES: usize = 12;
/// Calls of a pass the traced run also runs the stream and stage-pipeline
/// probes on (one in this many), to bound its length.
const STREAM_PROBE_EVERY: usize = 3;
/// Calls are built from segments of this size, the corpus kinds cycling
/// through a fresh seeded permutation every `ALL_KINDS.len()` segments.
const SEGMENT: usize = 128 << 10;
/// Uncompressed bytes per frame chunk.
const CHUNK_BYTES: usize = 256 << 10;
/// Prefix of each call that the stream and stage-pipeline probes run on
/// (bounds the traced run's cost; six codecs run there, two of them slow).
const PROBE_BYTES: usize = 1 << 20;
/// Input window fed to the streaming coders per push.
const STREAM_WINDOW: usize = 64 << 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Codec {
    Zstd3,
    Lz4,
}

struct Call {
    data: Vec<u8>,
    codec: Codec,
    /// The frame compressed during setup, decompressed by the timed loop.
    framed: Vec<u8>,
}

pub struct Setup {
    calls: Vec<Call>,
    lanes: usize,
}

fn compress_frame(codec: Codec, data: &[u8]) -> Vec<u8> {
    match codec {
        Codec::Zstd3 => chunk::compress_frame(cdpu_fleet::Algorithm::Zstd, 3, data, CHUNK_BYTES),
        Codec::Lz4 => chunk::compress_frame_lz4(data, CHUNK_BYTES),
    }
}

fn decompress_frame(codec: Codec, framed: &[u8]) -> Option<Vec<u8>> {
    match codec {
        Codec::Zstd3 => chunk::decompress_frame(cdpu_fleet::Algorithm::Zstd, framed).ok(),
        Codec::Lz4 => chunk::decompress_frame_lz4(framed).ok(),
    }
}

fn decompress_frame_serial(codec: Codec, framed: &[u8]) -> Option<Vec<u8>> {
    match codec {
        Codec::Zstd3 => chunk::decompress_frame_serial(cdpu_fleet::Algorithm::Zstd, framed).ok(),
        Codec::Lz4 => chunk::decompress_frame_lz4_serial(framed).ok(),
    }
}

/// One-shot (unframed) compression of a whole call.
fn compress_oneshot(codec: Codec, data: &[u8]) -> Vec<u8> {
    match codec {
        Codec::Zstd3 => cdpu_zstd::compress_with(data, &cdpu_zstd::ZstdConfig::default()),
        Codec::Lz4 => cdpu_lite::lz4::compress(data),
    }
}

/// Generates the calls from `seed` and compresses each into its frame.
/// Kinds cycle through whole permutations, so seeds differ in content and
/// order but hardly in their mix of kinds.
pub fn setup(seed: u64, lanes: usize) -> Setup {
    let mut rng = Xoshiro256::seed_from(mix64(seed ^ 0x4255_4C4B));
    let mut kinds: Vec<usize> = Vec::new();
    let mut next_kind = move || {
        if kinds.is_empty() {
            kinds = (0..ALL_KINDS.len()).collect();
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
        }
        (
            ALL_KINDS[kinds.pop().expect("refilled above")],
            rng.next_u64(),
        )
    };
    let calls = (0..CALLS)
        .map(|i| {
            let len = MIN_CALL + (i % SIZES) * CALL_STEP;
            let mut data = Vec::with_capacity(len);
            while data.len() < len {
                let (kind, s) = next_kind();
                data.extend_from_slice(&cdpu_corpus::generate(
                    kind,
                    SEGMENT.min(len - data.len()),
                    s,
                ));
            }
            let codec = if i % 3 == 2 { Codec::Lz4 } else { Codec::Zstd3 };
            let framed = compress_frame(codec, &data);
            Call {
                data,
                codec,
                framed,
            }
        })
        .collect();
    Setup { calls, lanes }
}

type Compress = fn(&[u8]) -> Vec<u8>;
type Decompress = fn(&[u8]) -> Option<Vec<u8>>;

/// The six codecs' one-shot and streaming entry points, for the
/// stream-versus-one-shot probe.
struct StreamCodec {
    name: &'static str,
    compress: Compress,
    encoder: fn(usize) -> Box<dyn StreamEncoder>,
    decompress: Decompress,
    decoder: fn() -> Box<dyn StreamDecoder>,
    /// The stage-pipelined single-call coders (ZStd and Flate only).
    pipelined: Option<(Compress, Decompress)>,
}

fn stream_codecs() -> [StreamCodec; 6] {
    use cdpu_lite::stream as lite;
    [
        StreamCodec {
            name: "snappy",
            compress: |d| cdpu_snappy::compress_with(d, &MatcherConfig::snappy_sw()),
            encoder: |n| {
                Box::new(cdpu_snappy::stream::SnappyStreamEncoder::new(
                    n,
                    &MatcherConfig::snappy_sw(),
                ))
            },
            decompress: |c| cdpu_snappy::decompress(c).ok(),
            decoder: || Box::new(cdpu_snappy::stream::SnappyStreamDecoder::new()),
            pipelined: None,
        },
        StreamCodec {
            name: "zstd",
            compress: |d| cdpu_zstd::compress_with(d, &cdpu_zstd::ZstdConfig::default()),
            encoder: |n| {
                Box::new(cdpu_zstd::stream::ZstdStreamEncoder::new(
                    n,
                    &cdpu_zstd::ZstdConfig::default(),
                ))
            },
            decompress: |c| cdpu_zstd::decompress(c).ok(),
            decoder: || Box::new(cdpu_zstd::stream::ZstdStreamDecoder::new()),
            pipelined: Some((
                |d| cdpu_zstd::stream::compress_pipelined(d, &cdpu_zstd::ZstdConfig::default()),
                |c| cdpu_zstd::stream::decompress_pipelined(c).ok(),
            )),
        },
        StreamCodec {
            name: "flate",
            compress: |d| cdpu_flate::compress_with(d, &cdpu_flate::FlateConfig::default()),
            encoder: |n| {
                Box::new(cdpu_flate::stream::FlateStreamEncoder::new(
                    n,
                    &cdpu_flate::FlateConfig::default(),
                ))
            },
            decompress: |c| cdpu_flate::decompress(c).ok(),
            decoder: || Box::new(cdpu_flate::stream::FlateStreamDecoder::new()),
            pipelined: Some((
                |d| cdpu_flate::stream::compress_pipelined(d, &cdpu_flate::FlateConfig::default()),
                |c| cdpu_flate::stream::decompress_pipelined(c).ok(),
            )),
        },
        StreamCodec {
            name: "lzo",
            compress: cdpu_lite::lzo::compress,
            encoder: |n| Box::new(lite::LzoStreamEncoder::new(n, 3)),
            decompress: |c| cdpu_lite::lzo::decompress(c).ok(),
            decoder: || Box::new(lite::LzoStreamDecoder::new()),
            pipelined: None,
        },
        StreamCodec {
            name: "gipfeli",
            compress: cdpu_lite::gipfeli::compress,
            encoder: |n| Box::new(lite::GipfeliStreamEncoder::new(n)),
            decompress: |c| cdpu_lite::gipfeli::decompress(c).ok(),
            decoder: || Box::new(lite::GipfeliStreamDecoder::new()),
            pipelined: None,
        },
        StreamCodec {
            name: "lz4",
            compress: cdpu_lite::lz4::compress,
            encoder: |n| Box::new(lite::Lz4StreamEncoder::new(n, 3)),
            decompress: |c| cdpu_lite::lz4::decompress(c).ok(),
            decoder: || Box::new(lite::Lz4StreamDecoder::new()),
            pipelined: None,
        },
    ]
}

/// Accumulated probe times, indexed like [`stream_codecs`].
#[derive(Default)]
struct Probes {
    /// One-shot / stream encode / one-shot / stream decode, ns.
    stream_ns: [[u64; 4]; 6],
    scratch_peak: usize,
    /// ZStd and Flate: one-shot / pipelined, compress and decompress, ns.
    pipe_ns: [[u64; 2]; 2],
    /// Framed compress at one lane and at all lanes; serial and
    /// parallel frame decode, ns.
    lane_ns: [u64; 4],
    /// Uncompressed, framed and one-shot compressed bytes.
    ratio_bytes: [u64; 3],
}

/// Runs each codec one-shot, stream-driven and (ZStd, Flate)
/// stage-pipelined on `input`, recording child spans of `op`, and checks
/// every output against the one-shot bytes.
/// Telemetry stays on: the stream drive helpers publish their scratch
/// peaks through it.
fn stream_probes(
    tr: &mut Trace,
    op: usize,
    call: u64,
    input: &[u8],
    pr: &mut Probes,
    errors: &mut Vec<String>,
) {
    let n = input.len() as u64;
    for (k, c) in stream_codecs().iter().enumerate() {
        let (oneshot, t0) = tr.time("codec.compress_oneshot", Some(op), call, n, || {
            (c.compress)(input)
        });
        let ((stream, peak_e), t1) = tr.time("stream.encode", Some(op), call, n, || {
            let mut out = Vec::new();
            let peak = drive_encoder(
                &mut *(c.encoder)(input.len()),
                input,
                STREAM_WINDOW,
                &mut out,
            );
            (out, peak)
        });
        let (plain, t2) = tr.time("codec.decompress_oneshot", Some(op), call, n, || {
            (c.decompress)(&oneshot)
        });
        let ((decoded, peak_d), t3) = tr.time("stream.decode", Some(op), call, n, || {
            let mut out = Vec::new();
            let peak = drive_decoder(&mut *(c.decoder)(), &oneshot, STREAM_WINDOW, &mut out);
            (out, peak)
        });
        if stream != oneshot {
            errors.push(format!(
                "bulk {}: stream encoder output differs from the one-shot bytes",
                c.name
            ));
        }
        if plain.as_deref() != Some(input) || decoded != input || peak_d.is_err() {
            errors.push(format!(
                "bulk {}: one-shot or stream decode does not reproduce the input",
                c.name
            ));
        }
        pr.scratch_peak = pr
            .scratch_peak
            .max(peak_e.unwrap_or(0))
            .max(peak_d.unwrap_or(0));
        for (slot, t) in pr.stream_ns[k].iter_mut().zip([t0, t1, t2, t3]) {
            *slot += t.as_nanos() as u64;
        }
        if let Some((compress, decompress)) = c.pipelined {
            let (piped, tc) = tr.time("pipeline.compress", Some(op), call, n, || compress(input));
            let (unpiped, td) = tr.time("pipeline.decompress", Some(op), call, n, || {
                decompress(&oneshot)
            });
            if piped != oneshot || unpiped.as_deref() != Some(input) {
                errors.push(format!(
                    "bulk {}: pipelined output differs from the one-shot bytes",
                    c.name
                ));
            }
            for (slot, t) in pr.pipe_ns.iter_mut().zip([[t0, tc], [t2, td]]) {
                slot[0] += t[0].as_nanos() as u64;
                slot[1] += t[1].as_nanos() as u64;
            }
        }
    }
}

pub fn measure(s: &Setup, seconds: f64, mut trace: Option<&mut Trace>) -> Measured {
    let mut m = Measured::default();
    let mut pr = Probes::default();
    let bytes: u64 = s.calls.iter().map(|c| c.data.len() as u64).sum();
    let framed: u64 = s.calls.iter().map(|c| c.framed.len() as u64).sum();
    let (mut c_rates, mut d_rates, mut wall_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut c_us, mut d_us) = (Vec::new(), Vec::new());
    let mut host = HostSpeed::new(s.lanes);
    let (mut raw_rates, mut scales, mut scaled_work) = ([Vec::new(), Vec::new()], Vec::new(), 0.0);
    // One untimed warm-up pass, so first-touch page faults and allocator
    // growth fall outside the timed loop.
    for c in &s.calls {
        compress_frame(c.codec, &c.data);
        decompress_frame(c.codec, &c.framed);
    }
    let start = Instant::now();
    let mut pass = 0u64;
    if trace.is_some() {
        cdpu_telemetry::reset();
        cdpu_telemetry::enable();
    }
    loop {
        let pass_start = Instant::now();
        let (c_mark, d_mark) = (c_us.len(), d_us.len());
        let (mut pc, mut pd) = (Duration::ZERO, Duration::ZERO);
        for (i, c) in s.calls.iter().enumerate() {
            // One host-speed probe per call, across as many lanes as the
            // frames use; the pass's times are scaled by their median.
            host.probe();
            let t0 = Instant::now();
            let out = compress_frame(c.codec, &c.data);
            let t1 = Instant::now();
            let dec = decompress_frame(c.codec, &c.framed);
            let t2 = Instant::now();
            let ok_c = out == c.framed;
            let ok_d = dec.as_deref() == Some(c.data.as_slice());
            if !ok_c {
                m.errors.push(format!(
                    "bulk call {i}: framed output differs from the setup frame"
                ));
            }
            if !ok_d {
                m.errors.push(format!(
                    "bulk call {i}: parallel frame decode differs from the input"
                ));
            }
            m.tally.record(ok_c);
            m.tally.record(ok_d);
            pc += t1 - t0;
            pd += t2 - t1;
            c_us.push((t1 - t0).as_secs_f64() * 1e6);
            d_us.push((t2 - t1).as_secs_f64() * 1e6);
            if let Some(tr) = trace.as_deref_mut() {
                let call = tr.new_call();
                let op = tr.record("bulk.op", t0, t2, None, call, 0);
                let n = c.data.len() as u64;
                tr.record("frame.compress", t0, t1, Some(op), call, n);
                tr.record("frame.decompress", t1, t2, Some(op), call, n);
                cdpu_par::set_threads(1);
                let (one, t_one) = tr.time("frame.compress_1lane", Some(op), call, n, || {
                    compress_frame(c.codec, &c.data)
                });
                cdpu_par::set_threads(s.lanes);
                let (serial, t_serial) =
                    tr.time("frame.decompress_serial", Some(op), call, n, || {
                        decompress_frame_serial(c.codec, &c.framed)
                    });
                if one != c.framed || serial.as_deref() != Some(c.data.as_slice()) {
                    m.errors.push(format!(
                        "bulk call {i}: one-lane frame or serial decode differs"
                    ));
                }
                pr.lane_ns[0] += t_one.as_nanos() as u64;
                pr.lane_ns[1] += (t1 - t0).as_nanos() as u64;
                pr.lane_ns[2] += t_serial.as_nanos() as u64;
                pr.lane_ns[3] += (t2 - t1).as_nanos() as u64;
                if pass == 0 {
                    pr.ratio_bytes[0] += n;
                    pr.ratio_bytes[1] += c.framed.len() as u64;
                    pr.ratio_bytes[2] += compress_oneshot(c.codec, &c.data).len() as u64;
                }
                if i % STREAM_PROBE_EVERY == 0 {
                    let probe = &c.data[..c.data.len().min(PROBE_BYTES)];
                    stream_probes(tr, op, call, probe, &mut pr, &mut m.errors);
                }
                tr.close(op, Instant::now());
            }
        }
        let probes = host.take();
        let scale = probes.time_scale();
        let wall = pass_start.elapsed() - probes.spent;
        for t in c_us[c_mark..].iter_mut().chain(&mut d_us[d_mark..]) {
            *t *= scale;
        }
        scaled_work += (pc + pd).as_secs_f64() * scale;
        raw_rates[0].push(bytes as f64 / pc.as_secs_f64() / 1e6);
        raw_rates[1].push(bytes as f64 / pd.as_secs_f64() / 1e6);
        c_rates.push(bytes as f64 / pc.as_secs_f64() / scale / 1e6);
        d_rates.push(bytes as f64 / pd.as_secs_f64() / scale / 1e6);
        wall_rates.push(2.0 * bytes as f64 / wall.as_secs_f64() / scale / 1e6);
        scales.push(scale);
        pass += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if trace.is_some() {
        cdpu_telemetry::disable();
    } else {
        verify_untraced(s, &mut m.errors);
    }
    // An operation compresses a call and decompresses its frame, and its
    // latency is the two times added. Pooling the two directions' calls
    // instead would put the median in the gap between them, on whichever
    // call happened to border it.
    let ops: Vec<f64> = c_us.iter().zip(&d_us).map(|(c, d)| c + d).collect();
    let mut all_us = stats::per_item_medians(&ops, CALLS);
    let (mut c_us, mut d_us) = (
        stats::per_item_medians(&c_us, CALLS),
        stats::per_item_medians(&d_us, CALLS),
    );
    for v in [&mut c_us, &mut d_us, &mut all_us] {
        v.sort_by(f64::total_cmp);
    }
    m.note(format!(
        "{pass} passes over {CALLS} calls ({bytes} bytes), {} lanes",
        s.lanes
    ));
    m.host_note(&scales, &raw_rates);
    m.rate("compress_mb_s", &c_rates);
    m.rate("decompress_mb_s", &d_rates);
    m.tails("compress_call", &c_us);
    m.tails("decompress_call", &d_us);
    m.metrics
        .push(metric("ratio", bytes as f64 / framed as f64, "x"));
    m.tails("latency", &all_us);
    m.rate("served_mb_s", &wall_rates);
    m.work_rate = 2.0 * bytes as f64 * pass as f64 / scaled_work;

    if trace.is_some() {
        let p = "bulk.";
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        let [uncompressed, framed_b, oneshot] = pr.ratio_bytes;
        m.layers.extend([
            metric(
                format!("{p}cdpu_util.frame.decode_lane_speedup"),
                ratio(pr.lane_ns[2], pr.lane_ns[3]),
                "x",
            ),
            metric(
                format!("{p}cdpu_util.frame.encode_lane_speedup"),
                ratio(pr.lane_ns[0], pr.lane_ns[1]),
                "x",
            ),
            metric(
                format!("{p}cdpu_util.frame.ratio_cost"),
                ratio(uncompressed, framed_b) / ratio(uncompressed, oneshot),
                "frac",
            ),
        ]);
        for (k, c) in stream_codecs().iter().enumerate() {
            let [e1, es, d1, ds] = pr.stream_ns[k];
            m.layers.push(metric(
                format!("{p}cdpu_util.stream.{}.encode_frac", c.name),
                ratio(e1, es),
                "frac",
            ));
            m.layers.push(metric(
                format!("{p}cdpu_util.stream.{}.decode_frac", c.name),
                ratio(d1, ds),
                "frac",
            ));
        }
        m.layers.extend([
            metric(
                format!("{p}cdpu_util.stream.scratch_peak_bytes"),
                pr.scratch_peak as f64,
                "bytes",
            ),
            metric(
                format!("{p}cdpu_par.pipeline_speedup.compress"),
                ratio(pr.pipe_ns[0][0], pr.pipe_ns[0][1]),
                "x",
            ),
            metric(
                format!("{p}cdpu_par.pipeline_speedup.decompress"),
                ratio(pr.pipe_ns[1][0], pr.pipe_ns[1][1]),
                "x",
            ),
        ]);
    }
    m
}

/// The checks the traced run makes on every call, made once on an
/// untraced run: serial frame decode reproduces every input, and the
/// stream and stage-pipelined coders reproduce the one-shot bytes on the
/// first call's probe prefix.
fn verify_untraced(s: &Setup, errors: &mut Vec<String>) {
    for (i, c) in s.calls.iter().enumerate() {
        if decompress_frame_serial(c.codec, &c.framed).as_deref() != Some(c.data.as_slice()) {
            errors.push(format!(
                "bulk call {i}: serial frame decode differs from the input"
            ));
        }
    }
    if let Some(c) = s.calls.first() {
        let mut scratch = Trace::new();
        let now = Instant::now();
        let op = scratch.record("bulk.verify", now, now, None, 0, 0);
        let probe = &c.data[..c.data.len().min(PROBE_BYTES)];
        stream_probes(&mut scratch, op, 0, probe, &mut Probes::default(), errors);
    }
}
