//! Property tests for the statistics and CSV utilities.

use bartercast_util::csv::{parse_line, CsvWriter};
use bartercast_util::series::BucketSeries;
use bartercast_util::stats::{percentile, spearman, Ecdf, Running};
use proptest::prelude::*;

/// Any strictly increasing transform preserves Spearman exactly.
fn spearman_survives_monotone_transform(xs: &[f64]) -> Result<(), TestCaseError> {
    let ys: Vec<f64> = (0..xs.len()).map(|i| i as f64).collect();
    let a = spearman(xs, &ys);
    // strictly increasing and injective on the sampled range
    let transformed: Vec<f64> = xs.iter().map(|x| x / 3.0 + x * x * x).collect();
    let b = spearman(&transformed, &ys);
    if let (Some(a), Some(b)) = (a, b) {
        prop_assert!((a - b).abs() < 1e-9);
    }
    Ok(())
}

/// A case real proptest once shrank a failure of
/// `spearman_invariant_under_monotone_transform` to (three points, the
/// property's minimum length, in its `-1e2..1e2` range).
#[test]
fn spearman_regression_three_points_with_zero() {
    spearman_survives_monotone_transform(&[90.8624485615293, 97.65220035431676, 0.0])
        .expect("pinned regression case");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The streaming mean matches the naive sum-then-divide.
    #[test]
    fn running_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        prop_assert_eq!(r.count(), xs.len() as u64);
        prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
    }

    /// Percentiles are monotone in q and bounded by the sample extremes.
    #[test]
    fn percentile_monotone_and_bounded(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
        // `mut` in the binding list is real-proptest syntax the
        // vendored macro does not munch; rebind locally instead
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = xs[0];
        let hi = xs[xs.len() - 1];
        let mut last = lo;
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            let p = percentile(&xs, q).unwrap();
            prop_assert!(p >= last - 1e-9);
            prop_assert!((lo..=hi).contains(&p));
            last = p;
        }
    }

    /// The ECDF is a valid distribution function.
    #[test]
    fn ecdf_is_a_cdf(xs in prop::collection::vec(-1e4f64..1e4, 1..100)) {
        let e = Ecdf::new(xs.clone());
        let mut last = 0.0;
        for (x, y) in e.points() {
            prop_assert!(y >= last);
            prop_assert!(y <= 1.0 + 1e-12);
            prop_assert!(e.eval(x) >= y - 1e-12);
            last = y;
        }
        prop_assert!((last - 1.0).abs() < 1e-12);
        prop_assert_eq!(e.eval(f64::NEG_INFINITY), 0.0);
        prop_assert_eq!(e.eval(f64::INFINITY), 1.0);
    }

    /// Correlations live in [-1, 1] and are symmetric in their arguments.
    #[test]
    fn correlations_bounded_and_symmetric(
        pairs in prop::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 3..60)
    ) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        if let Some(r) = spearman(&xs, &ys) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
            let flipped = spearman(&ys, &xs).unwrap();
            prop_assert!((r - flipped).abs() < 1e-9);
        }
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(
        xs in prop::collection::vec(-1e2f64..1e2, 3..50)
    ) {
        spearman_survives_monotone_transform(&xs)?;
    }

    /// CSV fields always survive a write/parse round trip.
    #[test]
    fn csv_roundtrips_any_fields(
        raw in prop::collection::vec(prop::collection::vec(0u8..=255, 0..12), 1..8)
    ) {
        // the vendored proptest has no regex-string strategy, so map
        // raw bytes onto a charset chosen to exercise the quoting
        // rules: commas, quotes, newlines, and plain text
        const CHARSET: &[char] = &[',', '"', '\n', 'a', 'B', ' ', '0', 'é', ';', '\t'];
        let fields: Vec<String> = raw
            .iter()
            .map(|bs| {
                bs.iter()
                    .map(|&b| CHARSET[b as usize % CHARSET.len()])
                    .collect()
            })
            .collect();
        // the writer emits one line per row; embedded newlines are
        // quoted, so re-parse the full record text between the header
        // and trailing newline
        let mut buf = Vec::new();
        let header: Vec<&str> = (0..fields.len()).map(|_| "c").collect();
        {
            let mut w = CsvWriter::new(&mut buf, &header).unwrap();
            w.row(fields.clone()).unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(buf).unwrap();
        let header_len = text.find('\n').unwrap() + 1;
        let record = &text[header_len..text.len() - 1];
        prop_assert_eq!(parse_line(record), fields);
    }

    /// Bucket means always lie within the sample range.
    #[test]
    fn bucket_means_bounded(
        samples in prop::collection::vec((0.0f64..7.0, -1e3f64..1e3), 1..80)
    ) {
        let mut s = BucketSeries::new(7.0, 1.0);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(t, v) in &samples {
            s.push(t, v);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        for (_, m) in s.means() {
            prop_assert!((lo - 1e-9..=hi + 1e-9).contains(&m));
        }
        let total: u64 = s.counts().iter().sum();
        prop_assert_eq!(total as usize, samples.len());
    }
}
