//! Streaming Snappy: bounded-memory, chunk-resumable encode/decode that
//! is byte-identical to the one-shot entry points.
//!
//! The encoder feeds input windows into a [`StreamParser`] configured
//! exactly like [`parse_with`](crate::parse_with) (64 KiB window clamp,
//! same matcher knobs) and serializes its events with the same
//! `emit_literals`/`emit_copy` helpers the one-shot path uses, so the
//! element stream — and therefore every output byte — matches
//! [`compress_with`](crate::compress_with) for any chunking of the input.
//!
//! The decoder runs the one element decoder behind
//! [`decompress`](crate::decompress) over each pushed window, writing
//! straight into a sliding 64 KiB history ([`ElementDecoder`]). Between pushes the decoder keeps only the length
//! preamble's varint, a fixed carry holding an element header cut by the
//! window edge, and the remainder of a literal split by it. A literal
//! that overruns the declared length is swallowed, and its
//! `LengthMismatch` fires once all its bytes have arrived, as in the
//! one-shot order. Error values therefore match the one-shot decoder for
//! every stream and every chunking, with one documented divergence: a
//! hostile type-11 copy whose offset exceeds the retained 64 KiB history
//! (but not total produced output) reports [`SnappyError::BadOffset`]
//! where the one-shot decoder, which keeps everything, can still serve
//! it. The format's encoder never emits such an offset (the window is
//! clamped to 64 KiB).
//!
//! Memory bounds: the encoder's scratch is the match table plus the
//! parser's sliding buffer plus staged output; the parser buffer can grow
//! beyond the window only on degenerate inputs (one giant match pinning
//! the parse cursor, or the skip heuristic racing ahead of fed data on
//! incompressible input). The decoder retains at most the 64 KiB format
//! window plus the undrained staged output.

use crate::{decode_elements, emit_copy, emit_literals, SnappyError, WINDOW_SIZE};
use cdpu_lz77::matcher::MatcherConfig;
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_util::stream::{
    ElementCursor, ElementDecoder, ElementGrammar, ElementProgress, OutBuf, StreamEncoder,
    StreamError, StreamProgress,
};
use cdpu_util::varint;

/// Stop accepting input while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;
/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;

/// Streaming Snappy compressor. See the module docs for the contract.
pub struct SnappyStreamEncoder {
    parser: StreamParser,
    lits: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl SnappyStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes, mirroring
    /// [`compress_with`](crate::compress_with)'s window clamp.
    ///
    /// # Panics
    ///
    /// Panics if `total` exceeds the format's 4 GiB limit or `cfg` is
    /// structurally invalid.
    pub fn new(total: usize, cfg: &MatcherConfig) -> Self {
        assert!(total <= u32::MAX as usize, "snappy caps input at 4 GiB");
        let cfg = MatcherConfig { window_log: cfg.window_log.min(16), ..*cfg };
        let parser = StreamParser::table(cfg, total, None);
        let mut out = OutBuf::new();
        varint::write_u64(out.sink(), total as u64);
        SnappyStreamEncoder { parser, lits: Vec::new(), out, finished: false }
    }

    fn pump(&mut self, input: &[u8], is_final: bool) {
        let Self { parser, lits, out, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => lits.extend_from_slice(b),
            ParseEvent::Match { offset, len } => {
                emit_literals(out.sink(), lits);
                lits.clear();
                emit_copy(out.sink(), offset, len);
            }
        };
        if is_final {
            parser.finish(&mut sink);
        } else {
            parser.feed(input, &mut sink);
        }
        if is_final {
            emit_literals(out.sink(), lits);
            lits.clear();
        }
    }
}

impl StreamEncoder for SnappyStreamEncoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        if self.parser.fed() + input.len() > self.parser.total() {
            return Err(StreamError::Api("pushed past the declared total"));
        }
        let mut consumed = 0;
        if self.out.len() < HIGH_WATER && !input.is_empty() {
            consumed = input.len().min(FEED_PIECE);
            self.pump(&input[..consumed], false);
        }
        Ok(StreamProgress { consumed, written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        if !self.finished {
            if self.parser.fed() < self.parser.total() {
                return Err(StreamError::Api("finish before all input was pushed"));
            }
            self.pump(&[], true);
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }

    fn scratch_bytes(&self) -> usize {
        self.parser.scratch_bytes() + self.lits.capacity() + self.out.capacity()
    }
}

/// Snappy's element grammar for [`ElementDecoder`].
pub struct SnappyGrammar;

impl ElementGrammar for SnappyGrammar {
    type Error = SnappyError;
    const BAD_PREAMBLE: SnappyError = SnappyError::BadPreamble;
    const MAX_LEN: u64 = u32::MAX as u64;
    const WINDOW: usize = WINDOW_SIZE;
    const CUT_LITERAL: SnappyError = SnappyError::BadLiteral;

    fn length_mismatch(expected: u64, actual: u64) -> SnappyError {
        SnappyError::LengthMismatch { expected, actual }
    }

    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        cursor: ElementCursor,
    ) -> Result<ElementProgress, SnappyError> {
        decode_elements(input, out, cursor)
    }
}

/// Streaming Snappy decompressor. See the module docs for the contract.
pub type SnappyStreamDecoder = ElementDecoder<SnappyGrammar>;
