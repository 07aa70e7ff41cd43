//! Differential test of the collector's batch tally: ingesting a batch of
//! decoded reports at once must leave every count, summary and lifetime
//! total exactly where ingesting the same reports one at a time leaves them.
//!
//! Batches are random runs of keys — admissible ones, ones over the
//! collector's key cap, and ones breaking the key rule (n = 0 and n past the
//! wire ceiling) — holding in-range and out-of-range outputs.  A second test
//! has two threads tally into one key at once and checks the totals are
//! exact.

use std::sync::Arc;

use cpm_collect::prelude::*;
use cpm_core::prelude::*;
use proptest::prelude::*;

/// The keys a batch draws from.  The collector under test admits 3 keys, so
/// of the four admissible ones whichever arrives last is over the cap.
fn key_pool() -> [SpecKey; 6] {
    let alpha = Alpha::new(0.9).unwrap();
    [
        SpecKey::new(1, alpha, PropertySet::empty()),
        SpecKey::new(4, alpha, PropertySet::empty()),
        SpecKey::new(32, alpha, PropertySet::empty().with(Property::Fairness)),
        SpecKey::new(4, Alpha::new(0.5).unwrap(), PropertySet::empty()),
        SpecKey::new(0, alpha, PropertySet::empty()),
        SpecKey::new(cpm_wire::MAX_WIRE_N + 1, alpha, PropertySet::empty()),
    ]
}

const MAX_KEYS: usize = 3;

/// Flatten `(key index, outputs)` runs into reports; outputs are drawn past
/// each key's `n` so some are out of range.
fn reports_of(runs: &[(usize, Vec<u32>)]) -> Vec<Report> {
    let pool = key_pool();
    runs.iter()
        .flat_map(|(index, outputs)| {
            let key = pool[*index];
            outputs.iter().map(move |&output| Report {
                key,
                output: output % (key.n.min(40) as u32 + 3),
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tallied_batches_match_per_record_ingest(
        batches in proptest::collection::vec(
            proptest::collection::vec((0usize..6, proptest::collection::vec(0u32..64, 0..40)), 0..6),
            1..4,
        ),
    ) {
        let tallied = ReportCollector::with_limits(4, MAX_KEYS);
        let per_record = ReportCollector::with_limits(4, MAX_KEYS);
        for runs in &batches {
            let reports = reports_of(runs);
            let summary = tallied.ingest_reports(&reports);
            let mut expected = IngestSummary::default();
            for report in &reports {
                if per_record.ingest(&report.key, report.output as usize) {
                    expected.accepted += 1;
                } else {
                    expected.rejected += 1;
                }
            }
            prop_assert_eq!(summary, expected);
        }
        prop_assert_eq!(tallied.keys(), per_record.keys());
        for key in per_record.keys() {
            prop_assert_eq!(tallied.observed(&key), per_record.observed(&key));
        }
        let (tallied, per_record) = (tallied.stats(), per_record.stats());
        prop_assert_eq!(tallied.ingested, per_record.ingested);
        prop_assert_eq!(tallied.rejected, per_record.rejected);
        prop_assert_eq!(tallied.keys, per_record.keys);
    }
}

#[test]
fn two_threads_tallying_one_key_keep_exact_totals() {
    const ROUNDS: u64 = 2_000;
    let key = key_pool()[2];
    let collector = Arc::new(ReportCollector::new());
    // Each thread ingests the same batch: every output once, output 5 ten
    // times more, and one out-of-range output.
    let mut outputs: Vec<usize> = (0..=key.n).collect();
    outputs.extend([5; 10]);
    outputs.push(key.n + 1);
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let (collector, outputs) = (Arc::clone(&collector), outputs.clone());
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    collector.ingest_batch(&key, outputs.iter().copied());
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let observed = collector.observed(&key).unwrap();
    for (output, &count) in observed.iter().enumerate() {
        let per_batch = if output == 5 { 11 } else { 1 };
        assert_eq!(count, 2 * ROUNDS * per_batch, "output {output}");
    }
    let stats = collector.stats();
    assert_eq!(stats.ingested, 2 * ROUNDS * (key.n as u64 + 11));
    assert_eq!(stats.rejected, 2 * ROUNDS);
    assert_eq!(stats.batches, 2 * ROUNDS);
}
