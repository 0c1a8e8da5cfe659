//! Order statistics over host-time samples.

/// One percentile of a sample set, with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile rank, in percent.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// How many samples the set held.
    pub samples: usize,
    /// How many samples lie strictly above the rank.
    pub beyond: usize,
}

/// Samples a tail percentile must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `pct` (0 < pct ≤ 100) of `values`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], pct: f64) -> Percentile {
    let n = values.len();
    at_rank(
        values,
        ((pct / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize,
    )
}

/// The highest nearest-rank percentile that still has [`TAIL_BEYOND`]
/// samples above it; `None` when there are too few samples for one.
pub fn tail(values: &[f64]) -> Option<Percentile> {
    let n = values.len();
    (n > TAIL_BEYOND).then(|| at_rank(values, n - TAIL_BEYOND))
}

/// The `rank`-th smallest sample (1-based).
fn at_rank(values: &[f64], rank: usize) -> Percentile {
    assert!(!values.is_empty(), "percentile of an empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Percentile {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample set");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or zero when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
