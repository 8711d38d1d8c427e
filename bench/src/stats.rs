//! Order statistics over latency samples and over sets of runs.

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the `p`th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Sort ascending (samples are never NaN: they are measured durations).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a set of runs (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default exclusive method),
/// so a spread computed here matches the one the benchmark is accepted by.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len() as i64;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3i64) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        // Taken after clamping, so two values extrapolate, as Python does.
        let delta = (i * (m + 1) - j * 4) as f64;
        *slot = (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0;
    }
    out
}

/// Run-to-run spread: the distance between the first and third quartile as
/// a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}
