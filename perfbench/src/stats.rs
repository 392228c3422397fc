//! Statistics helpers: percentiles with a tail-sample floor, medians,
//! span self time, and per-epoch / per-record normalisation.

/// A reported percentile must have at least this many samples beyond it,
/// so a tail figure never rests on one or two outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile {q} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The median of `samples` (mean of the two middle values for an even
/// count). Used for repeated whole-phase measurements such as set-up
/// time, where the tail rule of [`percentile`] does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Indices of the quietest quarter of `noise`: every sample at or below
/// its lower quartile (nearest rank), so ties with the quartile are all
/// kept and at least one index is returned for any non-empty input.
pub fn quietest_quarter(noise: &[f64]) -> Vec<usize> {
    let mut sorted = noise.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&cut) = sorted.get(noise.len().div_ceil(4).saturating_sub(1)) else {
        return Vec::new();
    };
    (0..noise.len()).filter(|&i| noise[i] <= cut).collect()
}

/// Arithmetic mean, `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// A timed interval in nanoseconds since a common origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Start, inclusive.
    pub start: u64,
    /// End, exclusive (`end >= start`).
    pub end: u64,
}

impl Interval {
    /// Length of the interval.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of a parent span: its duration minus the part of it that
/// its children cover. Children may overlap each other or stick out of
/// the parent; only their union inside the parent is subtracted.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut clipped: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    clipped.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut run: Option<Interval> = None;
    for c in clipped {
        match run.as_mut() {
            Some(r) if c.start <= r.end => r.end = r.end.max(c.end),
            _ => {
                if let Some(r) = run.replace(c) {
                    covered += r.len();
                }
            }
        }
    }
    if let Some(r) = run {
        covered += r.len();
    }
    parent.len() - covered
}

/// `total / count`, or `None` when nothing was counted: the per-epoch and
/// per-record normalisation of every cost the benchmark reports.
pub fn per_unit(total: f64, count: u64) -> Option<f64> {
    (count > 0).then(|| total / count as f64)
}

/// `count / seconds`, or `None` for an empty interval: epochs or records
/// per second.
pub fn rate(count: u64, seconds: f64) -> Option<f64> {
    (seconds > 0.0).then(|| count as f64 / seconds)
}

/// `part / (part + rest)`, or `None` when both are zero.
pub fn ratio(part: u64, rest: u64) -> Option<f64> {
    let total = part + rest;
    (total > 0).then(|| part as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so sorting is exercised.
        (0..n).map(|i| ((i * 7) % n + 1) as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = ramp(100);
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.01), Some(1.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 beyond it: reported.
        assert!(percentile(&ramp(100), 0.9).is_some());
        // p90 of 99 samples has 9 beyond it: withheld.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        // The median of a handful is withheld too.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quietest_quarter_keeps_ties_with_the_quartile() {
        // Eight samples: the quartile is the second smallest.
        assert_eq!(
            quietest_quarter(&[5.0, 0.1, 3.0, 0.2, 9.0, 4.0, 7.0, 6.0]),
            vec![1, 3]
        );
        // Every sample tied at zero is kept, not just the first quarter.
        assert_eq!(quietest_quarter(&[0.0, 2.0, 0.0, 0.0]), vec![0, 2, 3]);
        assert_eq!(quietest_quarter(&[7.0]), vec![0]);
        assert!(quietest_quarter(&[]).is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = Interval {
            start: 100,
            end: 200,
        };
        assert_eq!(self_time(parent, &[]), 100);
        // Disjoint children.
        let kids = [
            Interval {
                start: 110,
                end: 120,
            },
            Interval {
                start: 150,
                end: 170,
            },
        ];
        assert_eq!(self_time(parent, &kids), 70);
        // Overlapping children are counted once.
        let kids = [
            Interval {
                start: 110,
                end: 140,
            },
            Interval {
                start: 130,
                end: 160,
            },
            Interval {
                start: 120,
                end: 125,
            },
        ];
        assert_eq!(self_time(parent, &kids), 50);
        // Children sticking out of the parent are clipped to it.
        let kids = [
            Interval {
                start: 50,
                end: 120,
            },
            Interval {
                start: 190,
                end: 400,
            },
            Interval {
                start: 300,
                end: 400,
            },
        ];
        assert_eq!(self_time(parent, &kids), 70);
        // A child covering everything leaves no self time.
        assert_eq!(self_time(parent, &[Interval { start: 0, end: 999 }]), 0);
    }

    #[test]
    fn normalisation() {
        assert_eq!(per_unit(1200.0, 400), Some(3.0));
        assert_eq!(per_unit(1.0, 0), None);
        assert_eq!(rate(500, 2.0), Some(250.0));
        assert_eq!(rate(5, 0.0), None);
        assert_eq!(ratio(3, 1), Some(0.75));
        assert_eq!(ratio(0, 0), None);
    }
}
