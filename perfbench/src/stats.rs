//! Order statistics over per-kind samples.
//!
//! Ops of different kinds differ in size by up to two orders of
//! magnitude, so samples are never pooled across kinds: each kind gets
//! its own percentile, and the workload figure is the geometric mean of
//! those per-kind figures.

/// Percentile `p` (0..=100) of `xs` by linear interpolation between the
/// two closest ranks. `None` on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Geometric mean of strictly positive values; `None` if empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Samples of one op kind: normalized and raw wall times in ms.
#[derive(Clone, Debug, Default)]
pub struct KindSamples {
    pub norm: Vec<f64>,
    pub wall: Vec<f64>,
}

/// Geometric mean over kinds of each kind's `p`-th percentile, read from
/// `pick` (normalized or raw). Kinds without samples are skipped.
pub fn geomean_of_percentiles(
    kinds: &[KindSamples],
    p: f64,
    pick: fn(&KindSamples) -> &[f64],
) -> Option<f64> {
    let per_kind: Vec<f64> = kinds
        .iter()
        .filter_map(|k| percentile(pick(k), p))
        .collect();
    geomean(&per_kind)
}

/// Time-weighted mean number of open intervals while at least one is
/// open: the summed lengths of `spans` over the length of their union.
/// 1 when there is nothing to measure.
pub fn mean_in_flight(spans: &[(f64, f64)]) -> f64 {
    let mut v = spans.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut sum = 0.0;
    let mut union = 0.0;
    let mut open: Option<(f64, f64)> = None;
    for (s, e) in v {
        sum += e - s;
        open = match open {
            Some((os, oe)) if s <= oe => Some((os, oe.max(e))),
            Some((os, oe)) => {
                union += oe - os;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((os, oe)) = open {
        union += oe - os;
    }
    if union > 0.0 {
        sum / union
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 90.0), Some(3.7));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_of_a_hundred_ranks() {
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&xs), Some(51.0));
        assert_eq!(percentile(&xs, 90.0), Some(91.0));
    }

    #[test]
    fn in_flight_is_summed_time_over_union_time() {
        assert_eq!(mean_in_flight(&[]), 1.0);
        assert_eq!(mean_in_flight(&[(2.0, 3.0), (0.0, 1.0)]), 1.0);
        // Two ops overlapping for one of three busy units.
        assert_eq!(mean_in_flight(&[(1.0, 3.0), (0.0, 2.0)]), 4.0 / 3.0);
        // Fully nested: two in flight for the whole second unit.
        assert_eq!(
            mean_in_flight(&[(0.0, 4.0), (1.0, 2.0), (5.0, 6.0)]),
            6.0 / 5.0
        );
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn kinds_are_never_pooled() {
        // Two kinds 8x apart: a pooled median would land between them
        // and jump with the mix; the per-kind geomean is sqrt(1·8).
        let small = KindSamples {
            norm: vec![1.0; 10],
            wall: vec![2.0; 10],
        };
        let big = KindSamples {
            norm: vec![8.0; 3],
            wall: vec![16.0; 3],
        };
        let kinds = [small, big, KindSamples::default()];
        let p50 = geomean_of_percentiles(&kinds, 50.0, |k| &k.norm).unwrap();
        assert!((p50 - 8f64.sqrt()).abs() < 1e-12);
        let raw = geomean_of_percentiles(&kinds, 90.0, |k| &k.wall).unwrap();
        assert!((raw - 32f64.sqrt()).abs() < 1e-12);
    }
}
