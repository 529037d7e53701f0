//! Streaming adapters for the lightweight codecs, byte-identical to the
//! one-shot entry points.
//!
//! The LZO- and LZ4-class coders stream natively. Encoders feed a
//! [`StreamParser`] configured by the shared [`matcher_for_level`] ladder
//! (with offsets folded at the 16-bit field ceiling, exactly like the
//! one-shot paths' `fold_matches_beyond`) and serialize events with the
//! same `emit_*` helpers. Decoders run the codec's one element decoder,
//! the loop behind `decompress`, over each pushed window straight into a
//! sliding [`HistBuf`](cdpu_util::stream::HistBuf) ([`ElementDecoder`]).
//! Between pushes they keep only the length preamble's varint, a fixed
//! carry holding one element header cut by the window edge (for LZ4 this
//! includes a sequence's match half, whose token travels as the resume
//! byte), and the remainder of a literal split by the edge. Error values
//! match the one-shot decoders for valid, truncated and hostile streams
//! alike. Both formats cap offsets at 65535, which the retained 64 KiB
//! window always covers, so unlike Snappy there is no hostile-offset
//! divergence.
//!
//! The Gipfeli-class coder is *not* streamable: its fixed-layout literal
//! code is built from a histogram over the whole literal stream, and the
//! rank table travels in the header — the first output byte depends on
//! the last input byte. Its adapters therefore buffer (scratch is
//! O(input), the documented exception to the bounded-scratch contract)
//! and run the one-shot path at finish.

use crate::gipfeli::{self, GipfeliError};
use crate::lz4::{self, Lz4Error};
use crate::lzo::{self, LzoError};
use crate::matcher_for_level;
use cdpu_lz77::stream::{ParseEvent, StreamParser};
use cdpu_util::stream::{
    ElementCursor, ElementDecoder, ElementGrammar, ElementProgress, OutBuf, StreamDecoder,
    StreamEncoder, StreamError, StreamProgress,
};
use cdpu_util::varint;

/// Stop accepting input while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;
/// Largest slice handed to the parser per push (bounds per-call latency).
const FEED_PIECE: usize = 64 * 1024;
/// Both byte-oriented formats use a 64 KiB history window.
const WINDOW_SIZE: usize = 64 * 1024;

// ---------------------------------------------------------------------------
// LZO-class
// ---------------------------------------------------------------------------

/// Streaming LZO-class compressor; output matches
/// [`lzo::compress_with_level`] for any input chunking.
pub struct LzoStreamEncoder {
    parser: StreamParser,
    lits: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl LzoStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    ///
    /// # Panics
    ///
    /// Panics for levels outside 1..=9 or `total >= u32::MAX` (the
    /// streaming parser's position-width limit).
    pub fn new(total: usize, level: u32) -> Self {
        assert!((1..=9).contains(&level), "lzo levels are 1..=9");
        let parser = StreamParser::table(matcher_for_level(level), total, Some(lzo::MAX_OFFSET));
        let mut out = OutBuf::new();
        varint::write_u64(out.sink(), total as u64);
        LzoStreamEncoder { parser, lits: Vec::new(), out, finished: false }
    }

    fn pump(&mut self, input: &[u8], is_final: bool) {
        let Self { parser, lits, out, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => lits.extend_from_slice(b),
            ParseEvent::Match { offset, len } => {
                lzo::emit_literals(out.sink(), lits);
                lits.clear();
                lzo::emit_match(out.sink(), offset, len);
            }
        };
        if is_final {
            parser.finish(&mut sink);
        } else {
            parser.feed(input, &mut sink);
        }
        if is_final {
            lzo::emit_literals(out.sink(), lits);
            lits.clear();
        }
    }
}

impl StreamEncoder for LzoStreamEncoder {
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

/// The LZO-class token grammar for [`ElementDecoder`].
pub struct LzoGrammar;

impl ElementGrammar for LzoGrammar {
    type Error = LzoError;
    const BAD_PREAMBLE: LzoError = LzoError::BadPreamble;
    const MAX_LEN: u64 = u64::MAX;
    const WINDOW: usize = WINDOW_SIZE;
    const CUT_LITERAL: LzoError = LzoError::Truncated;

    fn length_mismatch(expected: u64, actual: u64) -> LzoError {
        LzoError::LengthMismatch { expected, actual }
    }

    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        cursor: ElementCursor,
    ) -> Result<ElementProgress, LzoError> {
        lzo::decode_tokens(input, out, cursor)
    }
}

/// Streaming LZO-class decompressor; see the module docs for the
/// parity contract.
pub type LzoStreamDecoder = ElementDecoder<LzoGrammar>;

// ---------------------------------------------------------------------------
// LZ4-class
// ---------------------------------------------------------------------------

/// Streaming LZ4-class compressor; output matches
/// [`lz4::compress_with_level`] for any input chunking.
pub struct Lz4StreamEncoder {
    parser: StreamParser,
    lits: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl Lz4StreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    ///
    /// # Panics
    ///
    /// Panics for levels outside 1..=9 or `total >= u32::MAX` (the
    /// streaming parser's position-width limit).
    pub fn new(total: usize, level: u32) -> Self {
        assert!((1..=9).contains(&level), "lz4 levels are 1..=9");
        let parser = StreamParser::table(matcher_for_level(level), total, Some(lz4::MAX_OFFSET));
        let mut out = OutBuf::new();
        varint::write_u64(out.sink(), total as u64);
        Lz4StreamEncoder { parser, lits: Vec::new(), out, finished: false }
    }

    fn pump(&mut self, input: &[u8], is_final: bool) {
        let Self { parser, lits, out, .. } = self;
        let mut sink = |ev: ParseEvent<'_>| match ev {
            ParseEvent::Literals(b) => lits.extend_from_slice(b),
            ParseEvent::Match { offset, len } => {
                lz4::emit_sequence(out.sink(), lits, Some((offset, len)));
                lits.clear();
            }
        };
        if is_final {
            parser.finish(&mut sink);
        } else {
            parser.feed(input, &mut sink);
        }
        if is_final && !lits.is_empty() {
            lz4::emit_sequence(out.sink(), lits, None);
            lits.clear();
        }
    }
}

impl StreamEncoder for Lz4StreamEncoder {
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

/// The LZ4-class sequence grammar for [`ElementDecoder`].
pub struct Lz4Grammar;

impl ElementGrammar for Lz4Grammar {
    type Error = Lz4Error;
    const BAD_PREAMBLE: Lz4Error = Lz4Error::BadPreamble;
    const MAX_LEN: u64 = u64::MAX;
    const WINDOW: usize = WINDOW_SIZE;
    const CUT_LITERAL: Lz4Error = Lz4Error::Truncated;

    fn length_mismatch(expected: u64, actual: u64) -> Lz4Error {
        Lz4Error::LengthMismatch { expected, actual }
    }

    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        cursor: ElementCursor,
    ) -> Result<ElementProgress, Lz4Error> {
        lz4::decode_sequences(input, out, cursor)
    }
}

/// Streaming LZ4-class decompressor; see the module docs for the
/// parity contract.
pub type Lz4StreamDecoder = ElementDecoder<Lz4Grammar>;

// ---------------------------------------------------------------------------
// Gipfeli-class (buffered adapter)
// ---------------------------------------------------------------------------

/// Streaming facade over the Gipfeli-class coder. The format is not
/// streamable (see the module docs), so this buffers the input and runs
/// [`gipfeli::compress`] at finish; scratch is O(input).
pub struct GipfeliStreamEncoder {
    total: usize,
    data: Vec<u8>,
    out: OutBuf,
    finished: bool,
}

impl GipfeliStreamEncoder {
    /// Creates an encoder for exactly `total` input bytes.
    pub fn new(total: usize) -> Self {
        GipfeliStreamEncoder { total, data: Vec::new(), out: OutBuf::new(), finished: false }
    }
}

impl StreamEncoder for GipfeliStreamEncoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        if self.data.len() + input.len() > self.total {
            return Err(StreamError::Api("pushed past the declared total"));
        }
        self.data.extend_from_slice(input);
        Ok(StreamProgress { consumed: input.len(), written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        if !self.finished {
            if self.data.len() < self.total {
                return Err(StreamError::Api("finish before all input was pushed"));
            }
            let compressed = gipfeli::compress(&self.data);
            self.out.sink().extend_from_slice(&compressed);
            self.data = Vec::new();
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }

    fn scratch_bytes(&self) -> usize {
        self.data.capacity() + self.out.capacity()
    }
}

/// Streaming facade over the Gipfeli-class decoder; buffers the
/// compressed stream and runs [`gipfeli::decompress`] at finish, with
/// the one-shot error values. Scratch is O(input).
#[derive(Default)]
pub struct GipfeliStreamDecoder {
    comp: Vec<u8>,
    out: OutBuf,
    err: Option<GipfeliError>,
    finished: bool,
}

impl GipfeliStreamDecoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The trait `finish` with the codec's precise error type.
    ///
    /// # Errors
    ///
    /// Exactly what [`gipfeli::decompress`] reports for the whole stream.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), GipfeliError> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            match gipfeli::decompress(&self.comp) {
                Ok(data) => self.out.sink().extend_from_slice(&data),
                Err(e) => {
                    self.err = Some(e);
                    return Err(e);
                }
            }
            self.comp = Vec::new();
            self.finished = true;
        }
        let n = self.out.drain_into(out);
        Ok((n, self.out.is_empty()))
    }
}

impl StreamDecoder for GipfeliStreamDecoder {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        if let Some(e) = self.err {
            return Err(StreamError::Corrupt(e.to_string()));
        }
        if self.finished {
            return Err(StreamError::Api("push after finish"));
        }
        self.comp.extend_from_slice(input);
        Ok(StreamProgress { consumed: input.len(), written: self.out.drain_into(out) })
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.comp.capacity() + self.out.capacity()
    }
}
