//! Constant-memory contract of the streaming core: a 64 MiB call
//! streams through the LZ4-class encoder and decoder within a fixed
//! scratch budget, the peak does not grow with call size, and the drive
//! helpers publish it in the `stream.scratch.peak_bytes` telemetry
//! gauge. The LZO-class decoder is held to the same budget.

use cdpu_lite::lzo;
use cdpu_lite::stream::{Lz4StreamDecoder, Lz4StreamEncoder, LzoStreamDecoder};
use cdpu_util::rng::Xoshiro256;
use cdpu_util::stream::{drive_decoder, drive_encoder};

/// The bound the serving tier relies on: any single streamed call fits
/// in 8 MiB of codec scratch, whatever its size.
const BUDGET: usize = 8 << 20;

const CHUNK: usize = 64 * 1024;

/// A repeating 1 KiB random block with a per-block counter stamp: cheap
/// to generate at tens of MiB, match-heavy (so the debug-build encoder
/// stays in the long-match fast path), and the stamp caps every match
/// at one block — a perfectly periodic input would instead be the
/// documented degenerate case where one input-spanning match forces the
/// parser to buffer until finish.
fn synthetic(total: usize) -> Vec<u8> {
    let mut rng = Xoshiro256::seed_from(7);
    let mut block = vec![0u8; 1024];
    rng.fill_bytes(&mut block);
    let mut v = Vec::with_capacity(total);
    let mut stamp = 0u32;
    while v.len() < total {
        block[..4].copy_from_slice(&stamp.to_le_bytes());
        stamp = stamp.wrapping_add(1);
        let n = (total - v.len()).min(block.len());
        v.extend_from_slice(&block[..n]);
    }
    v
}

/// Streams `total` bytes through encode then decode, asserting the
/// roundtrip is identity, and returns the two peak scratch footprints.
fn roundtrip_peaks(total: usize) -> (usize, usize) {
    let data = synthetic(total);
    let mut stream = Vec::new();
    let enc_peak =
        drive_encoder(&mut Lz4StreamEncoder::new(data.len(), 3), &data, CHUNK, &mut stream)
            .expect("encoder driven within its contract");
    let mut out = Vec::new();
    let dec_peak = drive_decoder(&mut Lz4StreamDecoder::new(), &stream, CHUNK, &mut out)
        .expect("own stream decodes");
    assert_eq!(out, data, "streaming roundtrip must be identity");
    (enc_peak, dec_peak)
}

#[test]
fn sixty_four_mib_call_streams_within_budget() {
    cdpu_telemetry::reset();
    cdpu_telemetry::enable();
    let (enc_peak, dec_peak) = roundtrip_peaks(64 << 20);
    cdpu_telemetry::disable();
    assert!(enc_peak <= BUDGET, "encoder peak {enc_peak} over {BUDGET}");
    assert!(dec_peak <= BUDGET, "decoder peak {dec_peak} over {BUDGET}");

    let gauge = cdpu_telemetry::registry()
        .gauges()
        .into_iter()
        .find(|(name, _)| name == "stream.scratch.peak_bytes")
        .map(|(_, v)| v)
        .expect("drive helpers publish the peak-scratch gauge");
    assert!(gauge > 0, "gauge never recorded");
    assert_eq!(gauge as usize, enc_peak.max(dec_peak));
}

#[test]
fn peak_scratch_does_not_grow_with_call_size() {
    let (enc_small, dec_small) = roundtrip_peaks(8 << 20);
    let (enc_big, dec_big) = roundtrip_peaks(32 << 20);
    // 4x the input must not move the scratch high-water mark (a 64 KiB
    // slack absorbs amortized buffer-doubling landing differently):
    // everything size-dependent is drained or compacted as the stream
    // advances.
    let slack = 64 << 10;
    assert!(enc_big <= enc_small + slack, "encoder scratch grew: {enc_small} -> {enc_big}");
    assert!(dec_big <= dec_small + slack, "decoder scratch grew: {dec_small} -> {dec_big}");
    assert!(enc_big <= BUDGET && dec_big <= BUDGET);
}

/// One-shot encodes `total` bytes, streams them back through the
/// LZO-class decoder, and returns its peak scratch.
fn lzo_decode_peak(total: usize) -> usize {
    let data = synthetic(total);
    let stream = lzo::compress(&data);
    let mut out = Vec::new();
    let peak = drive_decoder(&mut LzoStreamDecoder::new(), &stream, CHUNK, &mut out)
        .expect("own stream decodes");
    assert_eq!(out, data, "streaming decode must be identity");
    peak
}

#[test]
fn lzo_decoder_scratch_is_bounded_and_flat() {
    let small = lzo_decode_peak(8 << 20);
    let big = lzo_decode_peak(64 << 20);
    assert!(big <= DECODE_BOUND, "decoder peak {big} over {DECODE_BOUND}");
    assert!(big <= small + (64 << 10), "decoder scratch grew: {small} -> {big}");
}

/// The decoders retain the 64 KiB window, the 64 KiB of drained history
/// compacted in bulk and the 256 KiB undrained high-water mark, plus
/// the element that crosses it and the allocator's rounding.
const DECODE_BOUND: usize = 1 << 20;
