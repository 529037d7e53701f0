//! Constant-memory contract of the streaming Snappy decoder: a 64 MiB
//! call decodes within a scratch bound set by the format window and the
//! decoder's high-water mark, and the peak does not grow with call size.

use cdpu_snappy::stream::SnappyStreamDecoder;
use cdpu_util::rng::Xoshiro256;
use cdpu_util::stream::drive_decoder;

/// The decoder retains the 64 KiB window, the 64 KiB of drained history
/// compacted in bulk and the 256 KiB undrained high-water mark, plus the
/// element that crosses it and the allocator's rounding.
const DECODE_BOUND: usize = 1 << 20;

const CHUNK: usize = 64 * 1024;

/// A repeating 1 KiB random block with a per-block counter stamp:
/// match-heavy, so the one-shot encoder stays fast in debug builds.
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

/// One-shot encodes `total` bytes, streams them back, and returns the
/// decoder's peak scratch.
fn decode_peak(total: usize) -> usize {
    let data = synthetic(total);
    let stream = cdpu_snappy::compress(&data);
    let mut out = Vec::new();
    let peak = drive_decoder(&mut SnappyStreamDecoder::new(), &stream, CHUNK, &mut out)
        .expect("own stream decodes");
    assert_eq!(out, data, "streaming decode must be identity");
    peak
}

#[test]
fn decoder_scratch_is_bounded_and_flat() {
    let small = decode_peak(8 << 20);
    let big = decode_peak(64 << 20);
    assert!(big <= DECODE_BOUND, "decoder peak {big} over {DECODE_BOUND}");
    assert!(big <= small + (64 << 10), "decoder scratch grew: {small} -> {big}");
}
