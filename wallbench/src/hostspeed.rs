//! Host-speed reference for the end-to-end timings.
//!
//! The benchmark shares a few cores of a host with other tenants, and the
//! speed those cores give it drifts by a third within a minute. That
//! drift moves every timing of the program together with the timing of
//! any other code. So the benchmark times a fixed reference kernel of its
//! own between the program's calls, and scales each end-to-end time by how
//! fast the reference ran around it: a time measured while the reference
//! ran at half of [`NOMINAL_MB_S`] is halved. The reported figures are the
//! program's times on a host where the reference runs at exactly
//! [`NOMINAL_MB_S`]. A change to the program moves them one for one; the
//! reference code is the benchmark's and does not change with the program.
//!
//! The reference is a greedy LZ parse (hash-table match finding and
//! match extension, the codecs' own kind of work) of a 16 KiB window of
//! fixed text. Each probe takes the next window of a 1 MiB text, so the
//! branch predictor never gets to learn the text (a kernel on one fixed
//! window ran twice as fast in a burst of probes as between codec calls),
//! and reads the window and clears its 64 KiB table before the clock
//! starts, so it finds its data in L1/L2 whatever the program left there.
//! Over 150 s of a shared 2-vCPU VM, 8 s blocks of Snappy's call
//! throughput spread by 7-8% (interquartile range over median) and their
//! ratio to this reference by 2-3%.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::Summary;

/// Reference speed the reported times are scaled to, MB/s per lane, for a
/// one-lane and a multi-lane probe: about the medians a 2-vCPU x86-64 VM
/// gives them, so scaled figures stay close to unscaled ones there. A
/// multi-lane probe reads slower per lane, as its time includes starting
/// the other lanes.
pub const NOMINAL_MB_S: f64 = 200.0;
pub const NOMINAL_LANES_MB_S: f64 = 150.0;
/// Fixed text the probes' windows are taken from, and one window, bytes.
const TEXT_BYTES: usize = 1 << 20;
const WINDOW_BYTES: usize = 16 << 10;
/// Hash-table size, as log2 of `u32` slots (64 KiB).
const TABLE_BITS: u32 = 14;
/// Longest match the kernel extends.
const MAX_MATCH: usize = 64;
/// Windows per lane in a multi-lane probe, so that starting the lanes is a
/// small part of its time, as it is of a parallel call's.
const LANE_WINDOWS: usize = 8;

/// The reference kernel with its fixed input, and the probes taken since
/// the last [`HostSpeed::take`].
pub struct HostSpeed {
    lanes: usize,
    text: Vec<u8>,
    /// One hash table per lane.
    tables: Vec<Vec<u32>>,
    /// Start of the next probe's window.
    offset: usize,
    rates: Vec<f64>,
    spent: Duration,
}

/// Probes taken over one interval of the run.
#[derive(Debug)]
pub struct Interval {
    /// The speed a probe's rate is compared with, MB/s.
    pub nominal_mb_s: f64,
    /// Reference speed of each probe, MB/s.
    pub rates: Vec<f64>,
    /// Wall-clock time the probes took, to leave out of wall-clock rates.
    pub spent: Duration,
}

impl Interval {
    /// Multiplier taking a time measured during this interval to
    /// reference-host time: the median probe speed over the nominal one.
    /// `NaN` when the interval holds no probe.
    pub fn time_scale(&self) -> f64 {
        Summary::of(&self.rates).map_or(f64::NAN, |s| s.median / self.nominal_mb_s)
    }
}

/// Fixed text of short words, with a stray byte now and then.
fn reference_text() -> Vec<u8> {
    const WORDS: [&[u8]; 10] = [
        b"the ", b"of ", b"window ", b"and ", b"match ", b"a ", b"literal ", b"hash ", b"in ",
        b"offset ",
    ];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut v = Vec::with_capacity(TEXT_BYTES + 16);
    while v.len() < TEXT_BYTES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(WORDS[(x % 10) as usize]);
        if x % 7 == 0 {
            v.push((x >> 32) as u8);
        }
    }
    v.truncate(TEXT_BYTES);
    v
}

/// Greedy LZ parse of `text`: hashes four bytes at each position, takes
/// the table's last position for that hash as the match candidate and
/// extends a verified match up to [`MAX_MATCH`] bytes. Returns the bytes
/// covered by matches.
fn kernel(text: &[u8], table: &mut [u32]) -> u64 {
    let read = |i: usize| u32::from_le_bytes([text[i], text[i + 1], text[i + 2], text[i + 3]]);
    let end = text.len().saturating_sub(MAX_MATCH + 4);
    let (mut i, mut matched) = (1usize, 0u64);
    while i < end {
        let w = read(i);
        let h = (w.wrapping_mul(0x1E35_A7BD) >> (32 - TABLE_BITS)) as usize;
        let cand = table[h] as usize;
        table[h] = i as u32;
        let mut len = 1;
        if cand > 0 && read(cand) == w {
            len = 4;
            while len < MAX_MATCH && text[cand + len] == text[i + len] {
                len += 1;
            }
            matched += len as u64;
        }
        i += len;
    }
    matched
}

/// One lane of a probe: claims windows from `next` until none is left;
/// for each, reads it and clears the table, then runs the kernel on it.
fn lane(windows: &[&[u8]], next: &AtomicUsize, table: &mut [u32]) {
    while let Some(window) = windows.get(next.fetch_add(1, Ordering::Relaxed)) {
        let touched = window.iter().step_by(64).fold(0u8, |a, &b| a ^ b);
        std::hint::black_box(touched);
        table.fill(0);
        std::hint::black_box(kernel(std::hint::black_box(window), table));
    }
}

impl HostSpeed {
    /// A reference for work that runs on `lanes` threads at once.
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        HostSpeed {
            lanes,
            text: reference_text(),
            tables: (0..lanes).map(|_| vec![0; 1 << TABLE_BITS]).collect(),
            offset: 0,
            rates: Vec::new(),
            spent: Duration::ZERO,
        }
    }

    /// Takes one probe. A one-lane probe times the kernel on the next
    /// window of the text, after reading the window and clearing the
    /// table. A multi-lane probe spawns the other lanes and times, from
    /// the spawn to the last lane's end, [`LANE_WINDOWS`] windows per lane
    /// that the lanes claim one at a time, as a parallel call's chunks are
    /// claimed: a lane that starts late leaves its share to the others.
    /// The rate is per lane.
    pub fn probe(&mut self) {
        let lanes = self.lanes;
        let count = if lanes == 1 { 1 } else { lanes * LANE_WINDOWS };
        let mut windows = Vec::with_capacity(count);
        for _ in 0..count {
            // Windows step by a prime, so that they wrap round at a new
            // place each lap of the text.
            self.offset = (self.offset + WINDOW_BYTES + 4093) % (TEXT_BYTES - WINDOW_BYTES);
            windows.push(&self.text[self.offset..self.offset + WINDOW_BYTES]);
        }
        let t0 = Instant::now();
        let (own, others) = self.tables.split_first_mut().expect("one lane at least");
        let elapsed = if others.is_empty() {
            let window = windows[0];
            let touched = window.iter().step_by(64).fold(0u8, |a, &b| a ^ b);
            std::hint::black_box(touched);
            own.fill(0);
            let t = Instant::now();
            std::hint::black_box(kernel(std::hint::black_box(window), own));
            t.elapsed()
        } else {
            let next = AtomicUsize::new(0);
            let start = Instant::now();
            std::thread::scope(|s| {
                for table in others {
                    let (windows, next) = (&windows, &next);
                    s.spawn(move || lane(windows, next, table));
                }
                lane(&windows, &next, own);
            });
            start.elapsed()
        };
        self.rates.push(
            (count / lanes * WINDOW_BYTES) as f64 / elapsed.as_secs_f64().max(1e-9) / 1e6,
        );
        self.spent += t0.elapsed();
    }

    /// Hands over the probes taken since the last call and starts afresh.
    pub fn take(&mut self) -> Interval {
        Interval {
            nominal_mb_s: if self.lanes == 1 {
                NOMINAL_MB_S
            } else {
                NOMINAL_LANES_MB_S
            },
            rates: std::mem::take(&mut self.rates),
            spent: std::mem::replace(&mut self.spent, Duration::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_matches_repeats_and_not_noise() {
        let fresh = || vec![0; 1 << TABLE_BITS];
        // The reference text is mostly repeated words.
        let m = kernel(&reference_text()[..WINDOW_BYTES], &mut fresh());
        let n = WINDOW_BYTES as u64;
        assert!(m > n / 2 && m < n, "{m}");
        let rep: Vec<u8> = b"match ".iter().copied().cycle().take(4096).collect();
        assert!(kernel(&rep, &mut fresh()) > 3900);
        let mut x = 1u64;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 56) as u8
            })
            .collect();
        assert!(kernel(&noise, &mut fresh()) < 64);
    }

    #[test]
    fn probes_walk_through_the_text() {
        let mut h = HostSpeed::new(1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100 {
            h.probe();
            assert!(h.offset + WINDOW_BYTES <= TEXT_BYTES);
            seen.insert(h.offset);
        }
        assert_eq!(seen.len(), 100, "no window repeats within a lap");
    }

    #[test]
    fn time_scale_is_median_probe_speed_over_nominal() {
        let at = |rates: &[f64]| {
            Interval {
                nominal_mb_s: NOMINAL_MB_S,
                rates: rates.to_vec(),
                spent: Duration::ZERO,
            }
            .time_scale()
        };
        assert_eq!(at(&[NOMINAL_MB_S; 3]), 1.0);
        // A host running the reference at half speed halves the times; the
        // one outlying probe does not move the median.
        let half = NOMINAL_MB_S / 2.0;
        assert_eq!(at(&[half, half, NOMINAL_MB_S * 9.0]), 0.5);
        assert!(at(&[]).is_nan());
    }

    #[test]
    fn take_hands_over_and_clears_the_probes() {
        for lanes in [1, 2] {
            let mut h = HostSpeed::new(lanes);
            for _ in 0..3 {
                h.probe();
            }
            let i = h.take();
            assert_eq!(i.rates.len(), 3);
            assert!(i.rates.iter().all(|r| r.is_finite() && *r > 0.0));
            assert!(i.spent > Duration::ZERO);
            let j = h.take();
            assert!(j.rates.is_empty() && j.spent == Duration::ZERO);
        }
    }
}
