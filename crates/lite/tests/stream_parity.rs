//! Streaming-vs-one-shot parity for the lightweight codecs: output
//! bytes and error values, at hostile chunk sizes.

use cdpu_lite::stream::{
    GipfeliStreamDecoder, GipfeliStreamEncoder, Lz4StreamDecoder, Lz4StreamEncoder,
    LzoStreamDecoder, LzoStreamEncoder,
};
use cdpu_lite::{gipfeli, lz4, lzo};
use cdpu_util::rng::Xoshiro256;
use cdpu_util::stream::{
    drive_decoder, drive_encoder, StreamDecoder, StreamEncoder, StreamProgress,
};
use cdpu_util::varint;

const CHUNKS: &[usize] = &[1, 3, 7, 64, 251, 4096, usize::MAX];

fn sample_inputs(rng: &mut Xoshiro256) -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        vec![],
        b"a".to_vec(),
        b"abcdefgh".to_vec(),
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
        b"tokens carry both lengths in lz4; lzo chains varints. ".repeat(250),
        vec![42u8; 90_000], // giant overlapping match, > 64 KiB window
    ];
    for _ in 0..2 {
        let mut v = vec![0u8; rng.index(20_000)];
        rng.fill_bytes(&mut v);
        inputs.push(v);
    }
    for _ in 0..2 {
        let len = rng.index(150_000);
        let mut v = Vec::new();
        while v.len() < len {
            let b = b'a' + rng.index(4) as u8;
            v.extend(std::iter::repeat_n(b, (rng.index(40) + 1).min(len - v.len())));
        }
        inputs.push(v);
    }
    inputs
}

/// Drives a decoder's inherent `push_bytes`/`finish_bytes` in
/// `chunk`-sized windows; a macro so lzo/lz4 share the harness without
/// a unifying trait over the inherent (error-typed) methods.
macro_rules! stream_decode_impl {
    ($dec:expr, $compressed:expr, $chunk:expr) => {{
        let dec = $dec;
        let compressed: &[u8] = $compressed;
        let chunk: usize = $chunk;
        let mut out = Vec::new();
        let mut window = vec![0u8; 8192];
        let mut fed = 0;
        'all: {
            while fed < compressed.len() {
                let end = (fed + chunk).min(compressed.len());
                let mut piece = &compressed[fed..end];
                fed = end;
                while !piece.is_empty() {
                    match dec.push_bytes(piece, &mut window) {
                        Ok(StreamProgress { consumed, written }) => {
                            out.extend_from_slice(&window[..written]);
                            piece = &piece[consumed..];
                        }
                        Err(e) => break 'all Err(e),
                    }
                }
            }
            loop {
                match dec.finish_bytes(&mut window) {
                    Ok((n, done)) => {
                        out.extend_from_slice(&window[..n]);
                        if done {
                            break 'all Ok(out);
                        }
                    }
                    Err(e) => break 'all Err(e),
                }
            }
        }
    }};
}

fn lzo_stream_decode(c: &[u8], chunk: usize) -> Result<Vec<u8>, lzo::LzoError> {
    stream_decode_impl!(&mut LzoStreamDecoder::new(), c, chunk)
}

fn lz4_stream_decode(c: &[u8], chunk: usize) -> Result<Vec<u8>, lz4::Lz4Error> {
    stream_decode_impl!(&mut Lz4StreamDecoder::new(), c, chunk)
}

#[test]
fn encoders_match_one_shot_bytes() {
    let mut rng = Xoshiro256::seed_from(101);
    for data in sample_inputs(&mut rng) {
        for level in [1u32, 3, 7, 9] {
            let want_lzo = lzo::compress_with_level(&data, level);
            let want_lz4 = lz4::compress_with_level(&data, level);
            for &chunk in CHUNKS {
                let chunk = chunk.min(data.len().max(1));
                let mut got = Vec::new();
                drive_encoder(&mut LzoStreamEncoder::new(data.len(), level), &data, chunk, &mut got)
                    .unwrap();
                assert_eq!(got, want_lzo, "lzo len {} level {level} chunk {chunk}", data.len());
                let mut got = Vec::new();
                drive_encoder(&mut Lz4StreamEncoder::new(data.len(), level), &data, chunk, &mut got)
                    .unwrap();
                assert_eq!(got, want_lz4, "lz4 len {} level {level} chunk {chunk}", data.len());
            }
        }
    }
}

#[test]
fn decoders_match_one_shot_bytes() {
    let mut rng = Xoshiro256::seed_from(102);
    for data in sample_inputs(&mut rng) {
        let c_lzo = lzo::compress(&data);
        let c_lz4 = lz4::compress(&data);
        for &chunk in CHUNKS {
            let chunk = chunk.min(c_lzo.len().max(1));
            assert_eq!(lzo_stream_decode(&c_lzo, chunk).unwrap(), data, "lzo chunk {chunk}");
            assert_eq!(lz4_stream_decode(&c_lz4, chunk).unwrap(), data, "lz4 chunk {chunk}");
        }
    }
}

#[test]
fn truncation_error_parity_at_every_cut() {
    let mut rng = Xoshiro256::seed_from(103);
    let mut data = Vec::new();
    while data.len() < 4000 {
        let b = b'a' + rng.index(4) as u8;
        data.extend(std::iter::repeat_n(b, rng.index(30) + 1));
    }
    // Random tail forces literal-extension tokens into the stream.
    let mut tail = vec![0u8; 400];
    rng.fill_bytes(&mut tail);
    data.extend_from_slice(&tail);

    let c = lzo::compress(&data);
    for cut in 0..c.len() {
        let want = lzo::decompress(&c[..cut]);
        for &chunk in &[1usize, 7, 251] {
            let got = lzo_stream_decode(&c[..cut], chunk);
            match (&want, &got) {
                (Err(w), Err(g)) => assert_eq!(w, g, "lzo cut {cut} chunk {chunk}"),
                _ => panic!("lzo cut {cut}: one-shot {want:?} vs stream {got:?}"),
            }
        }
    }
    let c = lz4::compress(&data);
    for cut in 0..c.len() {
        let want = lz4::decompress(&c[..cut]);
        for &chunk in &[1usize, 7, 251] {
            let got = lz4_stream_decode(&c[..cut], chunk);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g, "lz4 cut {cut} chunk {chunk}"),
                (Err(w), Err(g)) => assert_eq!(w, g, "lz4 cut {cut} chunk {chunk}"),
                _ => panic!("lz4 cut {cut}: one-shot {want:?} vs stream {got:?}"),
            }
        }
    }
}

#[test]
fn hostile_stream_error_parity() {
    let mut streams: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x80],     // unterminated preamble varint
        vec![0x80; 12], // overlong preamble varint
        vec![8, 0x80, 0x09, 0x00], // lzo: match offset 9 before output
        vec![8, 0x7F, 0x80],       // lzo: literal ext varint truncated
        vec![8, 0xC0 | 0x3F, 0x80], // lzo: long match ext truncated
        vec![8, 0xFF, 0xFF, 0x7F, 0x01, 0x00], // lzo: ballooning match length
        [&[8, 0xFF][..], &[0x80; 11], &[0x01, 0x00]].concat(), // lzo: overlong match ext
        vec![4, 0x05, b'a', b'b', b'c', b'd', b'e', b'f'], // lzo: literal overruns promise
    ];
    let base = lzo::compress(&b"abcabcabcabcabcabc_tail".repeat(8));
    for i in 0..base.len() {
        let mut m = base.clone();
        m[i] ^= 0x44;
        streams.push(m);
    }
    // The max-varint extensions of decode_equivalence.rs, behind one
    // valid sequence ("a" then a 4-byte copy) so output exists when the
    // hostile length arrives, plus a run count landing the run length
    // itself on u64::MAX.
    let seq = [0x00, b'a', 0x80, 0x01];
    for (declared, token, ext, offset) in [
        (8, 0x7F, u64::MAX, &[][..]),
        (8, 0x7F, u64::MAX - 0x7F, &[]),
        (8, 0x7F, u64::MAX - 0x80, &[]),
        (8, 0xFF, u64::MAX, &[0x01, 0x00]),
        (1 << 40, 0xFF, (1u64 << 33) - 0x3F - 4, &[0x01, 0x00]),
    ] {
        let mut s = Vec::new();
        varint::write_u64(&mut s, declared);
        s.extend_from_slice(&seq);
        s.push(token);
        varint::write_u64(&mut s, ext);
        s.extend_from_slice(offset);
        streams.push(s);
    }
    for s in &streams {
        let want = lzo::decompress(s);
        for &chunk in &[1usize, 2, 5, 4096] {
            let got = lzo_stream_decode(s, chunk);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g),
                (Err(w), Err(g)) => assert_eq!(w, g, "lzo stream {s:?} chunk {chunk}"),
                _ => panic!("lzo stream {s:?}: one-shot {want:?} vs stream {got:?}"),
            }
        }
    }

    let mut streams: Vec<Vec<u8>> = vec![
        vec![],
        vec![0x80],
        vec![8, 0x00, 0x09, 0x00, 0x00], // match offset 9 before output
        vec![8, 0xF0, 0x80],             // literal ext varint truncated
        vec![8, 0x0F, 0x01, 0x00, 0x80], // match ext varint truncated
        vec![8, 0x4F, b'a', b'b', b'c', b'd', 0x01, 0x00, 0xFF, 0x7F], // ballooning match
        vec![4, 0x60, b'a', b'b', b'c', b'd', b'e', b'f'], // literals overrun promise
        vec![8, 0x40, b'a', 0x01],       // offset truncated to one byte
        [&[8, 0x1F, b'a', 0x01, 0x00][..], &[0x80; 11]].concat(), // overlong match ext
    ];
    let base = lz4::compress(&b"abcabcabcabcabcabc_tail".repeat(8));
    for i in 0..base.len() {
        let mut m = base.clone();
        m[i] ^= 0x44;
        streams.push(m);
    }
    // The max-varint extensions of decode_equivalence.rs, behind one
    // valid sequence ("a" then a 4-byte copy) so output exists when the
    // hostile length arrives.
    let seq = [0x10, b'a', 0x01, 0x00];
    for (declared, head, ext) in [
        (8, &[0xF0][..], u64::MAX),
        (8, &[0xF0], u64::MAX - 15),
        (8, &[0x0F, 0x01, 0x00], u64::MAX),
        (1 << 40, &[0x0F, 0x01, 0x00], (1u64 << 33) - 15 - 4),
    ] {
        let mut s = Vec::new();
        varint::write_u64(&mut s, declared);
        s.extend_from_slice(&seq);
        s.extend_from_slice(head);
        varint::write_u64(&mut s, ext);
        streams.push(s);
    }
    for s in &streams {
        let want = lz4::decompress(s);
        for &chunk in &[1usize, 2, 5, 4096] {
            let got = lz4_stream_decode(s, chunk);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(w, g),
                (Err(w), Err(g)) => assert_eq!(w, g, "lz4 stream {s:?} chunk {chunk}"),
                _ => panic!("lz4 stream {s:?}: one-shot {want:?} vs stream {got:?}"),
            }
        }
    }
}

#[test]
fn gipfeli_buffered_adapter_round_trips() {
    let mut rng = Xoshiro256::seed_from(104);
    for data in sample_inputs(&mut rng) {
        let want = gipfeli::compress(&data);
        for &chunk in &[1usize, 251, 4096] {
            let chunk = chunk.min(data.len().max(1));
            let mut got = Vec::new();
            drive_encoder(&mut GipfeliStreamEncoder::new(data.len()), &data, chunk, &mut got)
                .unwrap();
            assert_eq!(got, want, "gipfeli encode chunk {chunk}");
            let mut back = Vec::new();
            drive_decoder(&mut GipfeliStreamDecoder::new(), &want, chunk, &mut back).unwrap();
            assert_eq!(back, data, "gipfeli decode chunk {chunk}");
        }
    }
    // Error parity: the adapter surfaces the one-shot error.
    let c = gipfeli::compress(b"some literals to entropy-code, repeated a bit, repeated a bit");
    let cut = &c[..c.len() - 3];
    let want = gipfeli::decompress(cut).unwrap_err();
    let mut d = GipfeliStreamDecoder::new();
    let mut w = [0u8; 64];
    StreamDecoder::push(&mut d, cut, &mut w).unwrap();
    assert_eq!(d.finish_bytes(&mut w).unwrap_err(), want);
}

#[test]
fn encoder_api_misuse_is_reported() {
    let mut enc = LzoStreamEncoder::new(4, 3);
    let mut w = [0u8; 64];
    // Finish before all input: Api error.
    assert!(StreamEncoder::finish(&mut enc, &mut w).is_err());
    StreamEncoder::push(&mut enc, b"abcd", &mut w).unwrap();
    // Push past the declared total: Api error.
    assert!(StreamEncoder::push(&mut enc, b"x", &mut w).is_err());
    let (_, done) = StreamEncoder::finish(&mut enc, &mut w).unwrap();
    assert!(done);
}
