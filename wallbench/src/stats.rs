//! Order statistics and failure accounting for the benchmark's reports.

/// Samples beyond a reported tail percentile: below this many, the
/// percentile is an extrapolation from a handful of calls.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Linear-interpolation quantile of ascending `sorted` (`q` in `0..=1`).
/// `None` on an empty slice.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// Median and quartiles of a set of per-interval values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (any order). `None` when empty or when any
    /// value is not finite.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            q1: quantile(&v, 0.25)?,
            median: quantile(&v, 0.5)?,
            q3: quantile(&v, 0.75)?,
            n: v.len(),
        })
    }
}

/// Median of each item's samples, for samples recorded in whole rounds
/// over `items` items (`samples[round * items + item]`). A trailing partial
/// round is ignored.
pub fn per_item_medians(samples: &[f64], items: usize) -> Vec<f64> {
    let rounds = samples.len().checked_div(items).unwrap_or(0);
    (0..items.min(samples.len()))
        .filter_map(|i| {
            let mine: Vec<f64> = (0..rounds).map(|r| samples[r * items + i]).collect();
            Summary::of(&mine).map(|s| s.median)
        })
        .collect()
}

/// A tail percentile read off `n` samples by nearest rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value at the reported rank.
    pub value: f64,
    /// The percentile actually reported (`0..=1`): the target when the
    /// sample count allows it, lower otherwise.
    pub quantile: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile not above `target` that still has at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, read from ascending `sorted`.
/// `None` when there are too few samples for any such percentile.
pub fn tail(sorted: &[f64], target: f64) -> Option<Tail> {
    let n = sorted.len();
    if n <= MIN_TAIL_SAMPLES {
        return None;
    }
    // Nearest rank of `target` (1-based), capped so that ten samples
    // remain beyond it.
    let rank = ((target.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n - MIN_TAIL_SAMPLES);
    Some(Tail {
        value: sorted[rank - 1],
        quantile: rank as f64 / n as f64,
        beyond: n - rank,
        n,
    })
}

/// Attempted versus failed operations for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Accounts a served run: every injected call was attempted, and a
    /// shed call is a failed one. Errors when the engine's counts do not
    /// conserve calls (`injected != completed + shed`).
    pub fn served(injected: u64, completed: u64, shed: u64) -> Result<Tally, String> {
        if completed.checked_add(shed) != Some(injected) {
            return Err(format!(
                "served calls not conserved: injected {injected} != completed {completed} + shed {shed}"
            ));
        }
        Ok(Tally {
            attempted: injected,
            failed: shed,
        })
    }

    /// Adds another run's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond_it() {
        let t = tail(&ramp(1000), 0.99).expect("enough samples");
        assert_eq!((t.value, t.beyond, t.n), (990.0, 10, 1000));
        assert!((t.quantile - 0.99).abs() < 1e-12);
        // One more sample keeps p99 and adds one beyond it.
        let t = tail(&ramp(1001), 0.99).expect("enough samples");
        assert_eq!((t.value, t.beyond), (991.0, 10));
    }

    #[test]
    fn tail_falls_back_below_the_target_on_few_samples() {
        // 100 samples cannot support p99 (one sample beyond): the rule
        // reports p90, which has exactly ten beyond it.
        let t = tail(&ramp(100), 0.99).expect("enough samples");
        assert_eq!((t.value, t.beyond), (90.0, 10));
        assert!((t.quantile - 0.90).abs() < 1e-12);
        assert!(t.quantile < 0.99, "a p99 off 100 samples must be refused");
        // The median is never capped when it has ten samples beyond.
        let m = tail(&ramp(100), 0.5).expect("enough samples");
        assert_eq!((m.value, m.beyond), (50.0, 50));
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        assert_eq!(tail(&ramp(10), 0.5), None);
        assert_eq!(tail(&[], 0.99), None);
        assert!(tail(&ramp(11), 0.99).is_some());
    }

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).expect("finite");
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).expect("finite");
        assert_eq!((s.q1, s.median, s.q3), (1.75, 2.5, 3.25));
        // Order of the input does not matter; an unsorted read would.
        let s = Summary::of(&[10.0, 0.0, 5.0]).expect("finite");
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn per_item_medians_follow_each_item_across_rounds() {
        // Three rounds over two items: item 0 reads 1, 9, 2 and item 1
        // reads 5, 6, 70. A median over all samples, or per round, differs.
        let samples = [1.0, 5.0, 9.0, 6.0, 2.0, 70.0];
        assert_eq!(per_item_medians(&samples, 2), vec![2.0, 6.0]);
        // A partial last round does not count.
        assert_eq!(per_item_medians(&[1.0, 5.0, 3.0], 2), vec![1.0, 5.0]);
        assert!(per_item_medians(&[], 2).is_empty());
        assert!(per_item_medians(&[1.0], 0).is_empty());
    }

    #[test]
    fn summary_rejects_empty_and_non_finite_input() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::of(&[1.0, f64::NAN]), None);
        assert_eq!(Summary::of(&[f64::INFINITY]), None);
    }

    #[test]
    fn served_failures_are_shed_calls() {
        let t = Tally::served(100, 97, 3).expect("conserved");
        assert_eq!(
            t,
            Tally {
                attempted: 100,
                failed: 3
            }
        );
        assert!(
            Tally::served(100, 97, 2).is_err(),
            "a lost call must not pass"
        );
        assert!(
            Tally::served(100, 98, 3).is_err(),
            "a duplicated call must not pass"
        );
        assert!(
            Tally::served(u64::MAX, u64::MAX, 1).is_err(),
            "overflow must not wrap"
        );
    }

    #[test]
    fn tally_counts_each_failure() {
        let mut t = Tally::default();
        for ok in [true, false, true, false, false] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
        t.merge(Tally {
            attempted: 2,
            failed: 1,
        });
        assert_eq!(
            t,
            Tally {
                attempted: 7,
                failed: 4
            }
        );
    }
}
