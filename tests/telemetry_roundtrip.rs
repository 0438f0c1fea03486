//! Property tests for the telemetry wire format: a [`TelemetryReport`]'s
//! JSON encoding survives print → parse as the identical JSON value,
//! compact and pretty, including hostile metric names (control
//! characters, quotes, backslashes), full-range `u64` timestamps and
//! values, and histogram populations sitting exactly on log2 bucket
//! boundaries. The sidecar is read as plain JSON, so this is the whole
//! contract.

use proptest::prelude::*;

use scale_srs::sim::telemetry::{
    EventKind, Log2Histogram, SampleSeries, TelemetryReport, TraceEvent,
};
use scale_srs::sim::{Json, ToJson};

/// Every event kind with the label the sidecar's kind column carries.
const KINDS: [(EventKind, &str); 13] = [
    (EventKind::Swap, "swap"),
    (EventKind::UnswapSwap, "unswap-swap"),
    (EventKind::PlaceBack, "place-back"),
    (EventKind::CounterAccess, "counter-access"),
    (EventKind::RowPin, "row-pin"),
    (EventKind::MitigationTrigger, "mitigation-trigger"),
    (EventKind::TrhCrossing, "trh-crossing"),
    (EventKind::AttackPhase, "attack-phase"),
    (EventKind::QueueStall, "queue-stall"),
    (EventKind::SearchPhase, "search-phase"),
    (EventKind::BitFlip, "bit-flip"),
    (EventKind::CorruptedRead, "corrupted-read"),
    (EventKind::Saturation, "saturation"),
];

/// Build a name from raw bytes, keeping ASCII (control characters
/// included) and folding the rest into the escape-heavy range.
fn name_from_bytes(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| char::from(b % 128)).collect()
}

fn roundtrip(report: &TelemetryReport) {
    let json = report.to_json();
    assert_eq!(Json::parse(&json.to_compact()).expect("compact encoding parses"), json);
    assert_eq!(Json::parse(&json.to_pretty()).expect("pretty encoding parses"), json);
}

proptest! {
    #[test]
    fn telemetry_report_round_trips_through_json(
        sample_interval_ns in 1u64..=u64::MAX,
        events_dropped in 0u64..=u64::MAX,
        // Full-range timestamps and values: integers must stay exact
        // through the codec, not round through an f64.
        raw_events in prop::collection::vec(
            (0u64..=u64::MAX, prop::sample::select(KINDS.map(|(kind, _)| kind).to_vec()),
             0u32..=u32::MAX, 0u64..=u64::MAX),
            0..12,
        ),
        counters in prop::collection::vec(
            (prop::collection::vec(0u8..=u8::MAX, 0..10), 0u64..=u64::MAX),
            0..6,
        ),
        histogram_values in prop::collection::vec(0u64..=u64::MAX, 0..24),
        series_samples in prop::collection::vec((0u64..=u64::MAX, 0u64..=u64::MAX), 0..12),
        series_dropped in 0u64..=u64::MAX,
    ) {
        let events = raw_events
            .iter()
            .map(|&(at_ns, kind, bank, value)| TraceEvent { at_ns, kind, bank, value })
            .collect();
        let mut histogram = Log2Histogram::new();
        for &value in &histogram_values {
            histogram.record(value);
            // Populate the neighbouring buckets too: values one below and
            // one above each boundary exercise the sparse encoding's edges.
            histogram.record(value.saturating_add(1));
            histogram.record(value.saturating_sub(1));
        }
        let report = TelemetryReport {
            sample_interval_ns,
            events,
            events_dropped,
            counters: counters
                .iter()
                .map(|(bytes, value)| (name_from_bytes(bytes), *value))
                .collect(),
            histograms: vec![("latency_ns".to_string(), histogram)],
            series: vec![(
                "bank_queue_depth".to_string(),
                SampleSeries { samples: series_samples.clone(), dropped: series_dropped },
            )],
        };
        roundtrip(&report);
    }
}

#[test]
fn control_characters_in_metric_names_survive_the_codec() {
    let nasty = [
        "tab\tnewline\ncarriage\rreturn",
        "quote\"backslash\\slash/",
        "nul\u{0000}bell\u{0007}escape\u{001b}unit\u{001f}",
        "high\u{007f}",
        "",
    ];
    let report = TelemetryReport {
        sample_interval_ns: 1,
        counters: nasty.iter().enumerate().map(|(i, &n)| (n.to_string(), i as u64)).collect(),
        histograms: nasty.iter().map(|&n| (n.to_string(), Log2Histogram::new())).collect(),
        series: nasty.iter().map(|&n| (n.to_string(), SampleSeries::default())).collect(),
        ..TelemetryReport::default()
    };
    roundtrip(&report);
}

#[test]
fn histogram_bucket_boundaries_are_exact() {
    // Bucket 0 holds only zero; bucket k holds [2^(k-1), 2^k).
    assert_eq!(Log2Histogram::bucket_of(0), 0);
    assert_eq!(Log2Histogram::bucket_of(1), 1);
    for k in 1..64 {
        let low = 1u64 << (k - 1);
        assert_eq!(Log2Histogram::bucket_of(low), k, "2^{}", k - 1);
        assert_eq!(Log2Histogram::bucket_of((low << 1) - 1), k, "2^{k} - 1");
    }
    assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);

    let mut histogram = Log2Histogram::new();
    for value in [0, 1, 2, 3, 4, (1u64 << 63) - 1, 1u64 << 63, u64::MAX] {
        histogram.record(value);
    }
    // The sum saturates rather than wrapping.
    assert_eq!(histogram.sum(), u64::MAX);
    assert_eq!(histogram.count(), 8);
    assert_eq!(histogram.bucket(0), 1);
    assert_eq!(histogram.bucket(1), 1);
    assert_eq!(histogram.bucket(2), 2);
    assert_eq!(histogram.bucket(3), 1);
    assert_eq!(histogram.bucket(63), 1);
    assert_eq!(histogram.bucket(64), 2);

    let report = TelemetryReport {
        sample_interval_ns: 25,
        histograms: vec![("edges".to_string(), histogram)],
        ..TelemetryReport::default()
    };
    roundtrip(&report);
}

/// Each kind writes its pinned label, and the 13 labels are distinct, so
/// a reader of the sidecar's kind column maps every label back to exactly
/// the kind that wrote it.
#[test]
fn every_event_kind_label_round_trips() {
    for (kind, label) in KINDS {
        assert_eq!(kind.label(), label, "{kind:?}");
        let writers: Vec<EventKind> =
            KINDS.iter().map(|&(k, _)| k).filter(|k| k.label() == label).collect();
        assert_eq!(writers, [kind], "label '{label}' names exactly one kind");
    }
}

#[test]
fn perfetto_export_is_well_formed_json() {
    let report = TelemetryReport {
        sample_interval_ns: 25,
        events: vec![
            TraceEvent { at_ns: 0, kind: EventKind::Swap, bank: 3, value: 1_000 },
            TraceEvent { at_ns: u64::MAX, kind: EventKind::TrhCrossing, bank: 0, value: 0 },
        ],
        counters: vec![("maintenance_ops".to_string(), 2)],
        series: vec![(
            "bank_queue_depth".to_string(),
            SampleSeries { samples: vec![(0, 1), (25, 2)], dropped: 0 },
        )],
        ..TelemetryReport::default()
    };
    let perfetto = report.to_perfetto("gups scale-srs trh=1200");
    let parsed = Json::parse(&perfetto.to_pretty()).expect("perfetto JSON parses");
    let trace_events =
        parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!trace_events.is_empty());
    for event in trace_events {
        assert!(event.get("ph").and_then(Json::as_str).is_some(), "every event has a phase");
    }
}
