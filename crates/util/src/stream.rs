//! The unified streaming coder interface every codec implements.
//!
//! The paper's hardware pipelines never hold a whole call in memory: input
//! streams through match, entropy, and write stages in bounded on-chip
//! buffers. This module is the software shape of that contract — one
//! chunked, resumable [`StreamEncoder`]/[`StreamDecoder`] trait pair with
//! zero-copy `&[u8]` input windows, caller-owned `&mut [u8]` output
//! windows, and an explicit, repeatable `finish`. Each codec crate
//! implements the pair on top of its existing scratch-backed fast paths,
//! and the stage pipeline in `cdpu-par` + the serving engine's
//! large-call path both drive codecs purely through it.
//!
//! The contract every implementation upholds:
//!
//! - **Bit-identity.** Concatenating everything written into the output
//!   windows yields exactly the bytes the codec's one-shot entry point
//!   produces (encode) or the one-shot decoder's output (decode),
//!   regardless of how the input is sliced into calls.
//! - **Resumability.** `push` may consume any prefix of the given input
//!   (including none, when the internal staging buffer is full) and may
//!   fill any prefix of the output window; callers loop.
//! - **Explicit finish.** After the final input byte, callers invoke
//!   [`finish`](StreamEncoder::finish) repeatedly until it reports
//!   `done`; each call drains more pending output.
//! - **Bounded scratch.** [`scratch_bytes`](StreamEncoder::scratch_bytes)
//!   reports the current internal footprint (tables, sliding windows,
//!   staged output). For realistic data it stays O(window + block), not
//!   O(input); degenerate inputs that defeat the bound are documented
//!   per codec (e.g. one multi-MiB incompressible literal run, whose
//!   format encodes it as a single token that cannot be split).
//!
//! [`drive_encoder`]/[`drive_decoder`] run a whole buffer through a
//! streamer in fixed-size windows — the reference harness the
//! equivalence suites and the constant-memory tests use — and record the
//! observed high-watermark in the `stream.scratch.peak_bytes` gauge.

use cdpu_telemetry::gauge;

/// What one [`StreamEncoder::push`]/[`StreamDecoder::push`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamProgress {
    /// Input bytes consumed from the front of the given window.
    pub consumed: usize,
    /// Output bytes written to the front of the output window.
    pub written: usize,
}

/// Error surfaced through the unified streaming traits.
///
/// Codec streamers also expose inherent `push`/`finish` methods returning
/// their precise per-codec error enums (the parity suites assert those
/// match the one-shot decoders value-for-value); the trait flattens them
/// to the codec error's `Display` rendering so heterogeneous pipelines
/// can hold `dyn` streamers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The input stream is invalid; the payload is the codec error text.
    Corrupt(String),
    /// The caller broke the streaming contract (e.g. pushed more input
    /// than the declared total, or pushed after `finish`).
    Api(&'static str),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Corrupt(msg) => write!(f, "corrupt stream: {msg}"),
            StreamError::Api(msg) => write!(f, "streaming API misuse: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Chunked, resumable compressor.
pub trait StreamEncoder {
    /// Feeds a window of input and drains staged output into `out`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Api`] on contract misuse (input past the declared
    /// total, pushing after finish).
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError>;

    /// Flushes after all input has been pushed. Returns bytes written and
    /// whether the stream is complete; call repeatedly until `done`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Api`] if input is still outstanding.
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError>;

    /// Current internal memory footprint in bytes (tables + buffers).
    fn scratch_bytes(&self) -> usize;
}

/// Chunked, resumable decompressor.
pub trait StreamDecoder {
    /// Feeds a window of compressed input and drains decoded output.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] as soon as the stream is provably invalid
    /// (same error values as the codec's one-shot decoder).
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError>;

    /// Declares end-of-input and drains remaining output; call repeatedly
    /// until `done`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Corrupt`] if the stream was truncated or its
    /// declared length disagrees with what was produced.
    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError>;

    /// Current internal memory footprint in bytes (history + buffers).
    fn scratch_bytes(&self) -> usize;
}

/// Staged-output buffer shared by the codec streamers: producers append
/// at the back, `push`/`finish` drain from the front into the caller's
/// window, and the drained prefix is compacted away lazily so steady
/// state neither reallocates nor memmoves per call.
#[derive(Debug, Default)]
pub struct OutBuf {
    buf: Vec<u8>,
    head: usize,
}

impl OutBuf {
    /// An empty staging buffer.
    pub const fn new() -> Self {
        OutBuf { buf: Vec::new(), head: 0 }
    }

    /// Bytes staged and not yet drained.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Capacity of the backing allocation (for scratch accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The producer-side sink: append freely with `Vec` APIs.
    pub fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Moves as much staged output as fits into `out`, returning the
    /// count. Compacts the backing buffer once the drained prefix
    /// dominates it, keeping the allocation bounded by the high-watermark
    /// of *staged* (not total) bytes.
    pub fn drain_into(&mut self, out: &mut [u8]) -> usize {
        let n = self.len().min(out.len());
        out[..n].copy_from_slice(&self.buf[self.head..self.head + n]);
        self.head += n;
        if self.head >= self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 4096 && self.head * 2 > self.buf.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        n
    }
}

/// Sliding decode-history buffer shared by the streaming decoders: the
/// codec appends produced output at the back, the caller drains from the
/// front, and fully-drained bytes older than the format window are
/// compacted away in bulk — so retained memory is bounded by the window
/// plus the undrained backlog, not the output size.
#[derive(Debug)]
pub struct HistBuf {
    window: usize,
    buf: Vec<u8>,
    drained: usize,
    dropped: u64,
}

impl HistBuf {
    /// A history buffer that always retains at least `window` produced
    /// bytes (once that many exist) for back-references.
    pub fn new(window: usize) -> Self {
        HistBuf { window, buf: Vec::new(), drained: 0, dropped: 0 }
    }

    /// Total output bytes ever produced (including compacted ones).
    pub fn produced(&self) -> u64 {
        self.dropped + self.buf.len() as u64
    }

    /// Bytes currently retained (window + undrained backlog).
    pub fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Bytes produced but not yet drained by the caller.
    pub fn undrained(&self) -> usize {
        self.buf.len() - self.drained
    }

    /// Capacity of the backing allocation (for scratch accounting).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The producer side: append-only access to the retained history.
    /// Codecs extend it with literals and window copies; removing or
    /// reordering bytes would corrupt the drain cursor.
    pub fn sink(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Moves as much undrained output as fits into `out`, compacting
    /// drained history older than the window once >=64 KiB of it has
    /// accumulated (bulk, so steady state doesn't memmove per call).
    pub fn drain_into(&mut self, out: &mut [u8]) -> usize {
        let n = self.undrained().min(out.len());
        out[..n].copy_from_slice(&self.buf[self.drained..self.drained + n]);
        self.drained += n;
        let droppable = self.drained.min(self.buf.len().saturating_sub(self.window));
        if droppable >= 64 * 1024 {
            self.buf.drain(..droppable);
            self.drained -= droppable;
            self.dropped += droppable as u64;
        }
        n
    }
}

/// Accumulates a LEB128 varint that may arrive split across pushes.
///
/// Feed it input windows; once the terminator byte (or a provably
/// overlong encoding) arrives it yields exactly what
/// [`varint::read_u64`](crate::varint::read_u64) would return on the
/// whole buffer, so streaming decoders report the same preamble errors
/// as their one-shot counterparts.
#[derive(Debug, Default)]
pub struct VarintAccum {
    buf: [u8; 11],
    n: usize,
}

impl VarintAccum {
    /// A fresh accumulator.
    pub const fn new() -> Self {
        VarintAccum { buf: [0; 11], n: 0 }
    }

    /// True once at least one byte has been fed.
    pub fn started(&self) -> bool {
        self.n > 0
    }

    /// Consumes bytes from `input` until the varint completes. Returns
    /// the bytes consumed and, when complete, the decode result.
    pub fn feed(
        &mut self,
        input: &[u8],
    ) -> (usize, Option<Result<u64, crate::varint::VarintError>>) {
        let mut used = 0;
        for &b in input {
            self.buf[self.n] = b;
            self.n += 1;
            used += 1;
            if b & 0x80 == 0 || self.n == self.buf.len() {
                return (used, Some(crate::varint::read_u64(&self.buf[..self.n]).map(|(v, _)| v)));
            }
        }
        (used, None)
    }
}

/// Where an element decoder starts in the stream and how far it may go.
///
/// The byte-oriented formats (Snappy, LZO, LZ4) each have one element
/// decoder taking this cursor: the one-shot entry points run it over the
/// whole input with [`ElementCursor::whole`], and [`ElementDecoder`] runs
/// it over each pushed window straight into its history buffer.
#[derive(Debug, Clone, Copy)]
pub struct ElementCursor {
    /// Output bytes produced before the decoder's `out[0]`, so length
    /// checks see the stream total `base + out.len()`.
    pub base: u64,
    /// The length the preamble declared.
    pub expected: u64,
    /// Stop at the first element boundary where `out.len() >= limit`.
    pub limit: usize,
    /// The input runs to the end of the stream: an incomplete element is
    /// the format's truncation error, and a total other than `expected`
    /// is a length mismatch. Otherwise the decoder stops before the
    /// incomplete element and reports an [`ElementStop`].
    pub at_end: bool,
    /// The first byte of a sequence whose literal half is already done
    /// (LZ4's token, whose low nibble the match half still needs); `None`
    /// at an element boundary.
    pub resume: Option<u8>,
}

impl ElementCursor {
    /// The one-shot cursor: the whole stream in one input, no output limit.
    pub const fn whole(expected: u64) -> Self {
        ElementCursor { base: 0, expected, limit: usize::MAX, at_end: true, resume: None }
    }

    /// How many bytes `out` may hold before the declared length is exceeded.
    pub const fn room(&self) -> u64 {
        self.expected.saturating_sub(self.base)
    }

    /// Stop before an element whose header starts at `pos` and is cut
    /// short by the end of the input: with `at_end` that is `err`.
    ///
    /// # Errors
    ///
    /// `err` when the cursor is at the end of the stream.
    pub fn cut<E>(&self, pos: usize, resume: Option<u8>, err: E) -> Result<ElementProgress, E> {
        if self.at_end {
            return Err(err);
        }
        Ok(ElementProgress { pos, stop: ElementStop::Header, resume })
    }

    /// Decodes an extension varint at the front of `input`: `Ok(None)`
    /// when more input could still complete it, `err` when it is
    /// malformed or the stream ends inside it.
    ///
    /// # Errors
    ///
    /// `err`, as the one-shot decoders report any bad extension.
    pub fn ext_varint<E>(&self, input: &[u8], err: E) -> Result<Option<(u64, usize)>, E> {
        match crate::varint::read_u64(input) {
            Ok(v) => Ok(Some(v)),
            Err(crate::varint::VarintError::Truncated) if !self.at_end => Ok(None),
            Err(_) => Err(err),
        }
    }

    /// Stop inside a `len`-byte literal whose first bytes are the rest of
    /// `input` (from `pos`). They are copied to `out` unless the literal
    /// overruns the declared length; then they are swallowed, and the
    /// length mismatch fires once the whole literal has arrived — the
    /// one-shot order, where a literal cut short by the end of input is
    /// a truncation whatever its length.
    pub fn split_literal(
        &self,
        input: &[u8],
        pos: usize,
        len: u64,
        out: &mut Vec<u8>,
        resume: Option<u8>,
    ) -> ElementProgress {
        let total = (out.len() as u64).saturating_add(len);
        let overrun = (total > self.room()).then(|| self.base.saturating_add(total));
        if overrun.is_none() {
            out.extend_from_slice(&input[pos..]);
        }
        let remaining = len - (input.len() - pos) as u64;
        let stop = ElementStop::Literal { remaining, overrun };
        ElementProgress { pos: input.len(), stop, resume }
    }
}

/// Why an element decoder returned before the end of its input, or at
/// it without `at_end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementStop {
    /// At an element boundary: the input is used up or the output limit
    /// was reached.
    Boundary,
    /// The input ends inside an element header, which starts at the
    /// returned position.
    Header,
    /// The input ends inside a literal, `remaining` bytes short. `overrun`
    /// is the stream total the literal reaches when that exceeds the
    /// declared length; its bytes are then swallowed, not output.
    Literal {
        /// Literal bytes still to come.
        remaining: u64,
        /// The length-mismatch total to report once they have come.
        overrun: Option<u64>,
    },
}

/// Where an element decoder stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementProgress {
    /// Input bytes consumed: whole elements, plus the header and bytes of
    /// a split literal.
    pub pos: usize,
    /// Why the decoder stopped.
    pub stop: ElementStop,
    /// The [`ElementCursor::resume`] byte the next call must start with.
    pub resume: Option<u8>,
}

/// A byte-oriented element grammar: its one element decoder plus the
/// error values the streaming wrapper reports itself.
pub trait ElementGrammar {
    /// The codec's decode error.
    type Error: Copy + std::fmt::Display;
    /// Error for a malformed, missing or too-large length preamble.
    const BAD_PREAMBLE: Self::Error;
    /// Largest declared length the format allows.
    const MAX_LEN: u64;
    /// The format's history window: the farthest a copy reaches back.
    const WINDOW: usize;
    /// Error when the stream ends inside a literal's bytes.
    const CUT_LITERAL: Self::Error;

    /// The length-mismatch error.
    fn length_mismatch(expected: u64, actual: u64) -> Self::Error;

    /// Decodes whole elements from `input` (after the preamble) into
    /// `out` as `cursor` directs.
    ///
    /// # Errors
    ///
    /// The codec's error for the first invalid element.
    fn decode(
        input: &[u8],
        out: &mut Vec<u8>,
        cursor: ElementCursor,
    ) -> Result<ElementProgress, Self::Error>;
}

/// Carry size: longer than any element-header prefix the grammars can
/// leave undecided (Snappy 4 bytes, LZO 12, LZ4's match half 12 with its
/// token held in the resume byte), so a full carry always decodes.
const CARRY: usize = 16;

/// Streaming decoder for an [`ElementGrammar`]: it runs the grammar's
/// element decoder over each pushed window directly into a sliding
/// [`HistBuf`]. Between pushes it keeps the length preamble's
/// [`VarintAccum`], a fixed carry holding at most one element header cut
/// by a window edge, and the remainder of a literal split by one. Output
/// bytes and error values match the one-shot decoder for any chunking.
pub struct ElementDecoder<G: ElementGrammar> {
    pre: VarintAccum,
    expected: Option<u64>,
    carry: [u8; CARRY],
    carry_len: usize,
    resume: Option<u8>,
    /// A split literal: bytes still due and its overrun total, if any.
    lit: Option<(u64, Option<u64>)>,
    hist: HistBuf,
    err: Option<G::Error>,
    finished: bool,
}

/// Stop decoding while this much output is staged undrained.
const HIGH_WATER: usize = 256 * 1024;

impl<G: ElementGrammar> Default for ElementDecoder<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: ElementGrammar> ElementDecoder<G> {
    /// Creates a decoder positioned at the length preamble.
    pub fn new() -> Self {
        ElementDecoder {
            pre: VarintAccum::new(),
            expected: None,
            carry: [0; CARRY],
            carry_len: 0,
            resume: None,
            lit: None,
            hist: HistBuf::new(G::WINDOW),
            err: None,
            finished: false,
        }
    }

    /// Feeds compressed bytes; the trait `push` with the codec's precise
    /// error type. Errors are sticky.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports at the equivalent point in
    /// the element stream.
    pub fn push_bytes(
        &mut self,
        input: &[u8],
        out: &mut [u8],
    ) -> Result<StreamProgress, G::Error> {
        if let Some(e) = self.err {
            return Err(e);
        }
        let mut i = 0;
        if let Err(e) = self.feed(input, &mut i) {
            self.err = Some(e);
            return Err(e);
        }
        Ok(StreamProgress { consumed: i, written: self.hist.drain_into(out) })
    }

    fn cursor(&self, expected: u64, limit: usize, at_end: bool) -> ElementCursor {
        ElementCursor { base: self.hist.dropped, expected, limit, at_end, resume: self.resume }
    }

    fn feed(&mut self, input: &[u8], i: &mut usize) -> Result<(), G::Error> {
        while *i < input.len() && self.hist.undrained() < HIGH_WATER {
            let Some(expected) = self.expected else {
                let (used, done) = self.pre.feed(&input[*i..]);
                *i += used;
                if let Some(res) = done {
                    let len = res.ok().filter(|&v| v <= G::MAX_LEN);
                    self.expected = Some(len.ok_or(G::BAD_PREAMBLE)?);
                }
                continue;
            };
            if let Some((remaining, overrun)) = self.lit {
                let take = remaining.min((input.len() - *i) as u64) as usize;
                if overrun.is_none() {
                    self.hist.sink().extend_from_slice(&input[*i..*i + take]);
                }
                *i += take;
                let remaining = remaining - take as u64;
                self.lit = (remaining > 0).then_some((remaining, overrun));
                if let (0, Some(actual)) = (remaining, overrun) {
                    return Err(G::length_mismatch(expected, actual));
                }
                continue;
            }
            let cursor = self.cursor(expected, self.hist.drained + HIGH_WATER, false);
            let p = if self.carry_len == 0 {
                let p = G::decode(&input[*i..], self.hist.sink(), cursor)?;
                *i += p.pos;
                if p.stop == ElementStop::Header {
                    // The rest of the input is one incomplete header.
                    let tail = &input[*i..];
                    self.carry[..tail.len()].copy_from_slice(tail);
                    self.carry_len = tail.len();
                    *i = input.len();
                }
                p
            } else {
                let old = self.carry_len;
                let take = (CARRY - old).min(input.len() - *i);
                self.carry[old..old + take].copy_from_slice(&input[*i..*i + take]);
                let p = G::decode(&self.carry[..old + take], self.hist.sink(), cursor)?;
                if p.pos == 0 {
                    // Still one incomplete header: it took all the input.
                    assert!(old + take < CARRY, "a full carry always decodes");
                    self.carry_len = old + take;
                    *i += take;
                    continue;
                }
                // The carried header completed; a header cut after it
                // is re-read from the input on the next turn.
                self.carry_len = 0;
                *i += p.pos - old;
                p
            };
            self.resume = p.resume;
            if let ElementStop::Literal { remaining, overrun } = p.stop {
                self.lit = Some((remaining, overrun));
            }
        }
        Ok(())
    }

    /// Declares end-of-input; the trait `finish` with the codec's precise
    /// error type.
    ///
    /// # Errors
    ///
    /// The error the one-shot decoder reports for the equivalent
    /// truncated stream, or a length mismatch.
    pub fn finish_bytes(&mut self, out: &mut [u8]) -> Result<(usize, bool), G::Error> {
        if let Some(e) = self.err {
            return Err(e);
        }
        if !self.finished {
            if let Err(e) = self.end() {
                self.err = Some(e);
                return Err(e);
            }
            self.finished = true;
        }
        let n = self.hist.drain_into(out);
        Ok((n, self.hist.undrained() == 0))
    }

    /// Decodes the carry as the end of the stream, so a cut header gets
    /// the one-shot decoder's own error.
    fn end(&mut self) -> Result<(), G::Error> {
        let expected = self.expected.ok_or(G::BAD_PREAMBLE)?;
        if self.lit.is_some() {
            return Err(G::CUT_LITERAL);
        }
        let cursor = self.cursor(expected, usize::MAX, true);
        G::decode(&self.carry[..self.carry_len], self.hist.sink(), cursor).map(drop)
    }
}

impl<G: ElementGrammar> StreamDecoder for ElementDecoder<G> {
    fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
        self.push_bytes(input, out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
        self.finish_bytes(out).map_err(|e| StreamError::Corrupt(e.to_string()))
    }

    fn scratch_bytes(&self) -> usize {
        self.hist.capacity()
    }
}

/// Runs `input` through an encoder in `chunk`-sized windows, appending
/// everything produced to `out`. Returns the peak `scratch_bytes`
/// observed, which is also folded into the `stream.scratch.peak_bytes`
/// telemetry gauge.
///
/// # Errors
///
/// Propagates the encoder's error.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn drive_encoder<E: StreamEncoder + ?Sized>(
    enc: &mut E,
    input: &[u8],
    chunk: usize,
    out: &mut Vec<u8>,
) -> Result<usize, StreamError> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut window = vec![0u8; chunk.clamp(64, 64 * 1024)];
    let mut peak = enc.scratch_bytes();
    let mut fed = 0usize;
    loop {
        let end = (fed + chunk).min(input.len());
        let mut piece = &input[fed..end];
        fed = end;
        loop {
            let p = enc.push(piece, &mut window)?;
            out.extend_from_slice(&window[..p.written]);
            peak = peak.max(enc.scratch_bytes());
            piece = &piece[p.consumed..];
            if piece.is_empty() {
                break;
            }
        }
        if fed >= input.len() {
            break;
        }
    }
    loop {
        let (n, done) = enc.finish(&mut window)?;
        out.extend_from_slice(&window[..n]);
        peak = peak.max(enc.scratch_bytes());
        if done {
            break;
        }
    }
    gauge!("stream.scratch.peak_bytes").set_max(peak as i64);
    Ok(peak)
}

/// Runs `input` through a decoder in `chunk`-sized windows, appending
/// everything produced to `out`. Returns the peak `scratch_bytes`
/// observed (also recorded in `stream.scratch.peak_bytes`).
///
/// # Errors
///
/// Propagates the decoder's error.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn drive_decoder<D: StreamDecoder + ?Sized>(
    dec: &mut D,
    input: &[u8],
    chunk: usize,
    out: &mut Vec<u8>,
) -> Result<usize, StreamError> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut window = vec![0u8; chunk.clamp(64, 64 * 1024)];
    let mut peak = dec.scratch_bytes();
    let mut fed = 0usize;
    while fed < input.len() {
        let end = (fed + chunk).min(input.len());
        let mut piece = &input[fed..end];
        fed = end;
        loop {
            let p = dec.push(piece, &mut window)?;
            out.extend_from_slice(&window[..p.written]);
            peak = peak.max(dec.scratch_bytes());
            piece = &piece[p.consumed..];
            if piece.is_empty() {
                break;
            }
        }
    }
    loop {
        let (n, done) = dec.finish(&mut window)?;
        out.extend_from_slice(&window[..n]);
        peak = peak.max(dec.scratch_bytes());
        if done {
            break;
        }
    }
    gauge!("stream.scratch.peak_bytes").set_max(peak as i64);
    Ok(peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy encoder: doubles every byte; finish appends a 0xFF sentinel.
    struct Doubler {
        out: OutBuf,
        finished: bool,
    }

    impl StreamEncoder for Doubler {
        fn push(&mut self, input: &[u8], out: &mut [u8]) -> Result<StreamProgress, StreamError> {
            if self.finished {
                return Err(StreamError::Api("push after finish"));
            }
            // Consume at most a few bytes per call to exercise resumption.
            let take = input.len().min(3);
            for &b in &input[..take] {
                self.out.sink().push(b);
                self.out.sink().push(b);
            }
            let written = self.out.drain_into(out);
            Ok(StreamProgress { consumed: take, written })
        }

        fn finish(&mut self, out: &mut [u8]) -> Result<(usize, bool), StreamError> {
            if !self.finished {
                self.out.sink().push(0xFF);
                self.finished = true;
            }
            let n = self.out.drain_into(out);
            Ok((n, self.out.is_empty()))
        }

        fn scratch_bytes(&self) -> usize {
            self.out.capacity()
        }
    }

    #[test]
    fn drive_encoder_assembles_full_output() {
        for chunk in [1usize, 2, 7, 64] {
            let mut enc = Doubler { out: OutBuf::new(), finished: false };
            let mut got = Vec::new();
            let peak = drive_encoder(&mut enc, b"abc", chunk, &mut got).unwrap();
            assert_eq!(got, b"aabbcc\xff");
            assert!(peak > 0);
        }
    }

    #[test]
    fn drive_encoder_handles_empty_input() {
        let mut enc = Doubler { out: OutBuf::new(), finished: false };
        let mut got = Vec::new();
        drive_encoder(&mut enc, b"", 8, &mut got).unwrap();
        assert_eq!(got, b"\xff");
    }

    #[test]
    fn outbuf_drains_across_small_windows() {
        let mut ob = OutBuf::new();
        ob.sink().extend_from_slice(b"hello world");
        let mut got = Vec::new();
        let mut w = [0u8; 4];
        while !ob.is_empty() {
            let n = ob.drain_into(&mut w);
            got.extend_from_slice(&w[..n]);
        }
        assert_eq!(got, b"hello world");
        assert!(ob.is_empty());
    }

    #[test]
    fn outbuf_compacts_large_drained_prefix() {
        let mut ob = OutBuf::new();
        ob.sink().extend_from_slice(&vec![7u8; 10_000]);
        let mut w = vec![0u8; 6000];
        ob.drain_into(&mut w);
        // Still 4000 staged; the drained 6000-byte prefix was compacted.
        assert_eq!(ob.len(), 4000);
        assert!(ob.head == 0, "compacted");
    }
}
