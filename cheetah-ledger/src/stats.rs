//! The arithmetic behind every reported number: medians, nearest-rank
//! percentiles, the per-shape geometric mean, and chunked throughput.

/// Median of `values` (mean of the two middle values for an even count).
/// NaN for an empty slice: a metric without samples is reported as not
/// measured, never as 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `p` of the
/// samples at or below it (`p` in `(0, 1]`). With `n` samples exactly
/// `n − ⌈p·n⌉` lie beyond it, which is how the ledger keeps at least ten
/// samples past its p90.
pub fn percentile_nearest_rank(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Geometric mean of strictly positive values (NaN when empty or when a
/// value is not positive — a shape without samples must not hide).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || !values.iter().all(|v| *v > 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One statistic per shape, combined by geometric mean. A plain
/// percentile over a *mix* of shapes lands in the gap between their
/// modes and jumps when the mix shifts by one request; per-shape
/// statistics do not.
pub fn per_shape_geomean(by_shape: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    geomean(&by_shape.iter().map(|s| stat(s)).collect::<Vec<f64>>())
}

/// Throughput of each of `chunks` equal consecutive chunks of a
/// completion-ordered request sequence; `rows_per_s` is their median.
///
/// `events` holds `(completion time, input rows)` per request, sorted by
/// completion time; `start` is when the first request was submitted.
/// Chunk length is rounded down to a multiple of `align` (the cycle
/// length) so every chunk carries the same shape mix; requests past the
/// last whole chunk are left out. The machine drifts by ±10 % across
/// multi-second windows, and the median over chunks ignores a slow or
/// fast window that total ÷ wall would average in.
pub fn chunk_rates(events: &[(f64, u64)], start: f64, chunks: usize, align: usize) -> Vec<f64> {
    let (chunks, align) = (chunks.max(1), align.max(1));
    let per = events.len() / chunks;
    let per = if per >= align { per / align * align } else { per };
    if per == 0 {
        let rows: u64 = events.iter().map(|e| e.1).sum();
        let wall = events.last().map_or(0.0, |e| e.0 - start);
        return if wall > 0.0 { vec![rows as f64 / wall] } else { Vec::new() };
    }
    let mut rates = Vec::with_capacity(chunks);
    let mut from = start;
    for c in 0..chunks {
        let chunk = &events[c * per..(c + 1) * per];
        let rows: u64 = chunk.iter().map(|e| e.1).sum();
        let to = chunk[per - 1].0;
        if to > from {
            rates.push(rows as f64 / (to - from));
        }
        from = to;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentile_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&v, 0.90), 90.0);
        assert_eq!(percentile_nearest_rank(&v, 0.50), 50.0);
        assert_eq!(percentile_nearest_rank(&v, 1.0), 100.0);
        // Ten samples lie beyond the p90 of a hundred.
        assert_eq!(v.iter().filter(|x| **x > 90.0).count(), 10);
        // Rank rounds up: p90 of 11 samples is the 10th.
        let w: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile_nearest_rank(&w, 0.90), 10.0);
        assert_eq!(percentile_nearest_rank(&[7.0], 0.90), 7.0);
        // Order of the input does not matter.
        assert_eq!(percentile_nearest_rank(&[5.0, 1.0, 3.0], 0.5), 3.0);
    }

    #[test]
    fn per_shape_geomean_ignores_the_mix() {
        // Two shapes at 10 ms and 40 ms: geomean 20 ms, however many
        // samples each shape contributed.
        let a = vec![vec![10.0; 5], vec![40.0; 500]];
        let b = vec![vec![10.0; 500], vec![40.0; 5]];
        assert!((per_shape_geomean(&a, median) - 20.0).abs() < 1e-9);
        assert!((per_shape_geomean(&b, median) - 20.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
        assert!(per_shape_geomean(&[vec![10.0], vec![]], median).is_nan());
    }

    #[test]
    fn chunked_rate_is_the_median_chunk_not_total_over_wall() {
        // 100 requests of 10 rows; the first 90 take 1 s each, the last
        // ten (one chunk) take 10 s each. Total ÷ wall = 1000/190 ≈ 5.3;
        // the median chunk still says 10 rows/s.
        let mut t = 0.0;
        let events: Vec<(f64, u64)> = (0..100)
            .map(|i| {
                t += if i < 90 { 1.0 } else { 10.0 };
                (t, 10)
            })
            .collect();
        let chunked_rate = |e: &[(f64, u64)], align| median(&chunk_rates(e, 0.0, 10, align));
        assert!((chunked_rate(&events, 1) - 10.0).abs() < 1e-9);
        // Alignment rounds the chunk down to whole cycles: 100 / 10 = 10
        // per chunk, aligned to 4 gives 8.
        assert!((chunked_rate(&events, 4) - 10.0).abs() < 1e-9);
        assert_eq!(chunk_rates(&events, 0.0, 10, 4).len(), 10);
        // Fewer requests than chunks falls back to total ÷ wall.
        assert!((chunked_rate(&events[..5], 1) - 10.0).abs() < 1e-9);
    }
}
