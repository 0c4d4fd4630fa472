//! Property coverage for the live metrics registry: quantile estimates
//! against a sorted-vector oracle (the 1/16 relative-error contract) and
//! lossless round-trips through both exposition formats.

use gplu_trace::registry::{bucket_bounds, bucket_index, BUCKET_COUNT, SUB_BUCKETS};
use gplu_trace::{Histogram, MetricsRegistry};
use proptest::prelude::*;

/// Values spanning every histogram regime: the exact unit buckets, the
/// first split octaves, realistic latencies (µs–s in ns), and a huge
/// tail. Capped at 2^52 so sample sums stay in `u64` and every field
/// survives the JSON number model (`f64`, exact below 2^53) bit-exactly.
fn arb_values(rng: &mut TestRng, max_len: usize) -> Vec<u64> {
    let len = 1 + rng.below(max_len as u64) as usize;
    (0..len)
        .map(|_| match rng.below(4) {
            0 => rng.below(64),
            1 => rng.below(1 << 16),
            2 => 1_000 + rng.below(10_000_000_000),
            _ => rng.below(1 << 52),
        })
        .collect()
}

/// The oracle the histogram is approximating: the true order statistic of
/// rank `max(1, ceil(q * n))` in the sorted sample.
fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantile_estimates_bound_the_sorted_oracle(
        values in Just(()).prop_perturb(|(), mut rng| arb_values(&mut rng, 200)),
        q in Just(()).prop_perturb(|(), mut rng| rng.next_f64()),
    ) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();

        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), sorted.first().copied());
        prop_assert_eq!(h.max(), sorted.last().copied());
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());

        for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let truth = oracle_quantile(&sorted, q);
            let est = h.quantile(q).expect("non-empty");
            // The contract: est ∈ [truth, truth * (1 + 1/SUB_BUCKETS)],
            // clamped above by the exact max.
            prop_assert!(est >= truth.min(h.max().expect("non-empty")),
                "q={} est={} truth={}", q, est, truth);
            prop_assert!(
                est as f64 <= truth as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64),
                "q={} est={} truth={}", q, est, truth
            );
        }
    }

    #[test]
    fn expositions_round_trip_losslessly(
        values in Just(()).prop_perturb(|(), mut rng| arb_values(&mut rng, 120)),
        jobs in 0u64..1 << 40,
        depth in -1000i64..1000,
    ) {
        let reg = MetricsRegistry::new();
        reg.counter("service.jobs_completed").add(jobs);
        reg.gauge("service.queue_depth").set(depth);
        reg.histogram("idle"); // registered but never recorded
        let h = reg.histogram("service.wall_ns{tenant=t0,tier=warm}");
        for &v in &values {
            h.record(v);
        }

        // text → registry → text is a fixed point…
        let text = reg.to_text();
        let from_text = MetricsRegistry::from_text(&text)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(from_text.to_text(), text.clone());

        // …and json → registry → json likewise (through the parser too).
        let json = reg.to_json();
        let parsed = gplu_trace::json::parse(&json.to_pretty())
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        let from_json = MetricsRegistry::from_json(&parsed)
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(from_json.to_json().to_compact(), json.to_compact());

        // Both reconstructions preserve the live state, not just the text.
        for back in [from_text, from_json] {
            prop_assert_eq!(back.counter("service.jobs_completed").get(), jobs);
            prop_assert_eq!(back.gauge("service.queue_depth").get(), depth);
            let hh = back.histogram("service.wall_ns{tenant=t0,tier=warm}");
            prop_assert_eq!(hh.count(), h.count());
            prop_assert_eq!(hh.nonzero_buckets(), h.nonzero_buckets());
            for q in [0.5, 0.95, 0.99] {
                prop_assert_eq!(hh.quantile(q), h.quantile(q), "q={}", q);
            }
            prop_assert_eq!(back.histogram("idle").count(), 0);
        }
    }

    #[test]
    fn bucket_layout_is_a_monotone_partition(
        v in 0u64..=u64::MAX,
    ) {
        // Every value lands in a bucket that contains it…
        let i = bucket_index(v);
        prop_assert!(i < BUCKET_COUNT);
        let (lo, hi) = bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "v={} outside [{}, {}]", v, lo, hi);
        // …whose relative width honors the 1/16 error bound…
        if lo >= SUB_BUCKETS {
            prop_assert!(
                (hi - lo + 1) as f64 / lo as f64 <= 1.0 / SUB_BUCKETS as f64,
                "bucket {} too wide: [{}, {}]", i, lo, hi
            );
        }
        // …and adjacent buckets tile the value axis with no gaps.
        if i + 1 < BUCKET_COUNT {
            let (next_lo, _) = bucket_bounds(i + 1);
            prop_assert_eq!(next_lo, hi + 1, "gap after bucket {}", i);
        }
    }
}

#[test]
fn malformed_expositions_are_typed_errors() {
    assert!(MetricsRegistry::from_text("").is_err());
    assert!(MetricsRegistry::from_text("# gplu-metrics v999\n").is_err());
    assert!(MetricsRegistry::from_text("# gplu-metrics v1\nwidget x 1\n").is_err());
    assert!(MetricsRegistry::from_text("# gplu-metrics v1\nhist h sum=1\n").is_err());
    assert!(
        MetricsRegistry::from_text("# gplu-metrics v1\nhist h count=1 buckets=99999:1\n").is_err()
    );
    let junk = gplu_trace::json::parse(r#"{"schema_version":1}"#).expect("parses");
    assert!(MetricsRegistry::from_json(&junk).is_err());
}
