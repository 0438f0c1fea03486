//! Reproducibility guarantees of the synthetic workload generators.
//!
//! Attack × defense grids are only comparable run-to-run if the victim
//! traffic is: the same `WorkloadSpec` and seed must generate the identical
//! `Trace` for every pattern family, and a specification must survive a
//! round-trip through its hand-rolled binary codec (like `Trace::to_bytes`)
//! bit-for-bit.

use scale_srs::workloads::{all_workloads, hammer_trace, AccessPattern, WorkloadSpec};

fn spec_with(name: &str, pattern: AccessPattern) -> WorkloadSpec {
    WorkloadSpec {
        name: name.to_string(),
        footprint_bytes: 1 << 26,
        base_addr: 1 << 30,
        read_fraction: 0.65,
        mean_gap: 7,
        pattern,
    }
}

fn every_pattern() -> Vec<WorkloadSpec> {
    vec![
        spec_with("uniform", AccessPattern::Uniform),
        spec_with("stream", AccessPattern::Streaming { stride: 256 }),
        spec_with("hot", AccessPattern::HotRows { hot_rows: 3, hot_fraction: 0.55 }),
        spec_with("burst", AccessPattern::RowBurst { burst: 16 }),
    ]
}

#[test]
fn same_spec_and_seed_generate_identical_traces_for_every_pattern() {
    for spec in every_pattern() {
        let a = spec.generate(5_000, 0xDECAF);
        let b = spec.generate(5_000, 0xDECAF);
        assert_eq!(a, b, "{}: generation must be deterministic per seed", spec.name);
        let c = spec.generate(5_000, 0xDECAF + 1);
        assert_ne!(a, c, "{}: a different seed must change the trace", spec.name);
    }
}

#[test]
fn named_workload_suite_is_deterministic() {
    // The grid engine regenerates traces per cell from (spec, seed); every
    // named workload of the paper's 78 must reproduce exactly.
    for workload in all_workloads() {
        let a = workload.spec().generate(500, 42);
        let b = workload.spec().generate(500, 42);
        assert_eq!(a, b, "{}: named workload must regenerate identically", workload.name);
    }
}

#[test]
fn workload_spec_round_trips_through_the_binary_codec() {
    for spec in every_pattern() {
        let bytes = spec.to_bytes();
        let back = WorkloadSpec::from_bytes(&bytes).expect("well-formed encoding");
        assert_eq!(back, spec, "{}: spec must round-trip bit-for-bit", spec.name);
        // The round-tripped spec must drive the generator identically.
        assert_eq!(back.generate(1_000, 9), spec.generate(1_000, 9));
    }
}

#[test]
fn workload_spec_codec_rejects_malformed_buffers() {
    let bytes = spec_with("x", AccessPattern::Uniform).to_bytes();
    for cut in [1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            WorkloadSpec::from_bytes(&bytes[..cut]).is_none(),
            "truncation at {cut} must be rejected"
        );
    }
    assert!(WorkloadSpec::from_bytes(&bytes[..0]).is_none(), "empty buffer is rejected");
}

#[test]
fn hammer_traces_are_deterministic_and_report_stable_row_sets() {
    let a = hammer_trace("h", 0x2_4000, 1_000, 1 << 24, 7);
    let b = hammer_trace("h", 0x2_4000, 1_000, 1 << 24, 7);
    assert_eq!(a, b, "hammer traces must be deterministic per seed");
    assert_eq!(a.aggressor_addrs, b.aggressor_addrs);
    assert_eq!(a.victim_addrs, b.victim_addrs);
    // Every aggressor/victim address is row-aligned by construction.
    for addr in a.aggressor_addrs.iter().chain(&a.victim_addrs) {
        assert_eq!(addr % a.row_bytes, 0, "row sets must be row-aligned");
    }
}
