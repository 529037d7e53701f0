//! LZ77 dictionary coding for the CDPU framework.
//!
//! This crate implements the dictionary-coding stage shared by every
//! algorithm in the paper (Section 2.1): inputs are de-duplicated against a
//! sliding window of recent history and emitted as sequences of
//! `(literal_run, match_length, offset)`.
//!
//! Two match finders are provided:
//!
//! - [`matcher::HashTableMatcher`]: a single-probe-per-position, set-
//!   associative hash table — the structure the paper's LZ77 encoder block
//!   implements in SRAM (Section 5.5). Its knobs mirror the generator's
//!   parameter list (Section 5.8): history window size, hash-table entries,
//!   associativity, hash function, and the software-only *skip mechanism*
//!   (whose absence in hardware explains the accelerator's 1.1% ratio win in
//!   Section 6.3).
//! - [`matcher::HashChainMatcher`]: a chained finder with a configurable
//!   search depth, used by the software ZStd-class codec to realize
//!   compression *levels*.
//!
//! [`window`] holds the decode side: applying sequences against produced
//! output with correct overlapping-copy semantics and offset validation —
//! the job of the paper's LZ77 decoder block (Section 5.2).

pub mod hash;
pub mod matcher;
pub mod reference;
pub mod stream;
pub mod window;

/// Minimum match length used throughout (Snappy and ZStd both use 4 as the
/// practical minimum emitted by their fast matchers).
pub const MIN_MATCH: usize = 4;

/// One LZ77 sequence: `lit_len` literal bytes, then a copy of `match_len`
/// bytes from `offset` back in the window.
///
/// A parse of a buffer is a list of sequences plus a trailing literal run
/// (see [`Parse`]). Literal *content* is implicit: the bytes of the source
/// in order, which [`Parse::literal_bytes`] extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Seq {
    /// Number of literal bytes preceding the match.
    pub lit_len: u32,
    /// Match length in bytes.
    pub match_len: u32,
    /// Distance back into already-produced output (1 = previous byte).
    pub offset: u32,
}

/// The result of parsing a buffer into LZ77 sequences.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Parse {
    /// Matched sequences in input order.
    pub seqs: Vec<Seq>,
    /// Literal bytes after the final match.
    pub last_literals: u32,
}

impl Parse {
    /// Total bytes represented by this parse.
    pub fn total_len(&self) -> usize {
        self.seqs
            .iter()
            .map(|s| (s.lit_len + s.match_len) as usize)
            .sum::<usize>()
            + self.last_literals as usize
    }

    /// Total literal bytes (the stream an entropy coder would compress).
    pub fn literal_len(&self) -> usize {
        self.seqs.iter().map(|s| s.lit_len as usize).sum::<usize>()
            + self.last_literals as usize
    }

    /// Total matched bytes (the de-duplicated portion).
    pub fn matched_len(&self) -> usize {
        self.seqs.iter().map(|s| s.match_len as usize).sum()
    }

    /// Demotes every match whose offset exceeds `max_offset` back into
    /// literals (its bytes join the following literal run).
    ///
    /// The matchers accept offsets up to and including their window size
    /// (`1 << window_log`), but a format whose offset field is exactly
    /// `window_log` bits wide can only express `window - 1` — the
    /// boundary match would silently truncate on encode. Codecs with such
    /// fields call this before emitting. Parses already within bounds are
    /// returned untouched.
    pub fn fold_matches_beyond(&mut self, max_offset: u32) {
        if self.seqs.iter().all(|s| s.offset <= max_offset) {
            return;
        }
        let mut folded: Vec<Seq> = Vec::with_capacity(self.seqs.len());
        let mut carry = 0u32;
        for s in &self.seqs {
            if s.offset > max_offset {
                carry += s.lit_len + s.match_len;
            } else {
                folded.push(Seq {
                    lit_len: carry + s.lit_len,
                    match_len: s.match_len,
                    offset: s.offset,
                });
                carry = 0;
            }
        }
        self.last_literals += carry;
        self.seqs = folded;
    }

    /// Extracts the concatenated literal bytes from the source buffer this
    /// parse was produced from.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than [`Parse::total_len`].
    pub fn literal_bytes(&self, src: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.literal_bytes_into(src, &mut out);
        out
    }

    /// Appends the concatenated literal bytes to `out`: the allocation-free
    /// form of [`Parse::literal_bytes`] for encoders that reuse one buffer
    /// across blocks.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than [`Parse::total_len`].
    pub fn literal_bytes_into(&self, src: &[u8], out: &mut Vec<u8>) {
        out.reserve_exact(self.literal_len());
        let mut pos = 0usize;
        for s in &self.seqs {
            out.extend_from_slice(&src[pos..pos + s.lit_len as usize]);
            pos += (s.lit_len + s.match_len) as usize;
        }
        out.extend_from_slice(&src[pos..pos + self.last_literals as usize]);
    }
}

/// Errors from sequence application (decode side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lz77Error {
    /// A copy referenced data before the start of output (offset too large)
    /// or offset was zero.
    BadOffset {
        /// The offending offset.
        offset: u32,
        /// Bytes of output produced when it was encountered.
        produced: usize,
    },
    /// The literal stream was shorter than the sequences required.
    LiteralsExhausted,
    /// A copy exceeded the window size configured for the decoder.
    OffsetExceedsWindow {
        /// The offending offset.
        offset: u32,
        /// The configured window size.
        window: u32,
    },
}

impl std::fmt::Display for Lz77Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Lz77Error::BadOffset { offset, produced } => {
                write!(f, "copy offset {offset} invalid at output position {produced}")
            }
            Lz77Error::LiteralsExhausted => write!(f, "literal stream exhausted"),
            Lz77Error::OffsetExceedsWindow { offset, window } => {
                write!(f, "copy offset {offset} exceeds window {window}")
            }
        }
    }
}

impl std::error::Error for Lz77Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accounting() {
        let p = Parse {
            seqs: vec![
                Seq { lit_len: 3, match_len: 5, offset: 1 },
                Seq { lit_len: 0, match_len: 4, offset: 8 },
            ],
            last_literals: 2,
        };
        assert_eq!(p.total_len(), 14);
        assert_eq!(p.literal_len(), 5);
        assert_eq!(p.matched_len(), 9);
    }

    #[test]
    fn fold_matches_beyond_demotes_to_literals() {
        let mut p = Parse {
            seqs: vec![
                Seq { lit_len: 2, match_len: 5, offset: 70_000 },
                Seq { lit_len: 3, match_len: 4, offset: 10 },
                Seq { lit_len: 1, match_len: 6, offset: 70_000 },
            ],
            last_literals: 2,
        };
        let total = p.total_len();
        p.fold_matches_beyond(65_535);
        assert_eq!(p.total_len(), total, "folding must not change coverage");
        assert_eq!(
            p.seqs,
            vec![Seq { lit_len: 10, match_len: 4, offset: 10 }]
        );
        assert_eq!(p.last_literals, 9);
    }

    #[test]
    fn fold_matches_beyond_is_noop_within_bounds() {
        let mut p = Parse {
            seqs: vec![Seq { lit_len: 3, match_len: 5, offset: 65_535 }],
            last_literals: 2,
        };
        let before = p.clone();
        p.fold_matches_beyond(65_535);
        assert_eq!(p, before);
    }

    #[test]
    fn literal_extraction() {
        let src = b"abcXXXXXdefgYY";
        let p = Parse {
            seqs: vec![
                Seq { lit_len: 3, match_len: 5, offset: 1 },
                Seq { lit_len: 4, match_len: 0, offset: 0 },
            ],
            last_literals: 2,
        };
        assert_eq!(p.literal_bytes(src), b"abcdefgYY");
    }

    #[test]
    fn empty_parse() {
        let p = Parse::default();
        assert_eq!(p.total_len(), 0);
        assert_eq!(p.literal_bytes(b""), b"");
    }
}
