//! Property-based tests (proptest) on the core data structures and models.

use proptest::prelude::*;

use scale_srs::core::rit::BankRit;
use scale_srs::core::{MitigationConfig, RowSwapDefense, ScaleSrs, SecureRowSwap};
use scale_srs::dram::{AddressMapper, BankId, DramConfig, PhysAddr};
use scale_srs::trackers::{AggressorTracker, MisraGriesConfig, MisraGriesTracker};
use scale_srs::workloads::{MemOp, Trace, TraceRecord, WorkloadSpec};

proptest! {
    /// Decoding any line-aligned physical address and re-encoding it is the
    /// identity (the mapper is a bijection over the device's capacity).
    #[test]
    fn address_mapping_round_trips(raw in 0u64..(1 << 35)) {
        let config = DramConfig::default();
        let mapper = AddressMapper::new(config.clone());
        let addr = PhysAddr::new(raw).line_aligned(config.line_size_bytes);
        let decoded = mapper.decode(addr);
        let encoded = mapper.encode(&decoded).unwrap();
        prop_assert_eq!(mapper.decode(encoded), decoded);
    }

    /// On a geometry with no power of two in its channel, rank, bank, row
    /// or line-per-row counts, decode/encode and `address_of` still
    /// round-trip, so the mapper's division fallback stays exact.
    #[test]
    fn address_mapping_round_trips_on_a_non_power_of_two_geometry(
        raw in 0u64..(1 << 35),
        bank in 0usize..108,
        row in 0u64..1000,
    ) {
        let config = DramConfig {
            channels: 3,
            ranks_per_channel: 3,
            banks_per_rank: 12,
            rows_per_bank: 1000,
            row_size_bytes: 96 * 64,
            ..DramConfig::default()
        };
        let mapper = AddressMapper::new(config.clone());
        let addr = PhysAddr::new(raw).line_aligned(config.line_size_bytes);
        let decoded = mapper.decode(addr);
        let encoded = mapper.encode(&decoded).unwrap();
        prop_assert_eq!(mapper.decode(encoded), decoded);
        let at = mapper.address_of(BankId::new(bank), row).unwrap();
        prop_assert_eq!(mapper.bank_and_row(at), (BankId::new(bank), row));
    }

    /// The RIT's forward and reverse maps stay mutually consistent under any
    /// sequence of swap and unswap operations, and translation stays a
    /// permutation (no two rows ever resolve to the same location).
    #[test]
    fn rit_stays_a_permutation(ops in proptest::collection::vec((0u64..64, 0u64..64, prop::bool::ANY), 1..200)) {
        let mut rit = BankRit::new(256, 64);
        for (row, target, unswap) in ops {
            if unswap {
                rit.unswap(row, 0);
            } else {
                rit.swap_to(row, target, 0);
            }
            prop_assert!(rit.invariants_hold());
        }
        let mut seen = std::collections::HashSet::new();
        for row in 0u64..64 {
            prop_assert!(seen.insert(rit.translate(row)), "duplicate location for row {}", row);
        }
    }

    /// Mitigating a row in SRS reads the row's own home location only for
    /// the initial swap — never systematically on every re-swap the way
    /// RRS's unswap-swaps do. The only way the home can be read again is if
    /// a uniformly random swap partner happened to land on the home first
    /// (sending the row back there), which the attacker cannot control; so
    /// the structural bound is `home reads <= 1 + times the row was randomly
    /// swapped back home`. RRS by contrast reads the home about twice per
    /// trigger.
    #[test]
    fn srs_home_reads_are_bounded_by_random_returns(rows in proptest::collection::vec(0u64..32, 1..100)) {
        let mut defense = SecureRowSwap::new(MitigationConfig::paper_default(2400, 6));
        let mut home_reads: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        let mut returned_home: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
        for (i, &row) in rows.iter().enumerate() {
            for action in defense.on_mitigation_trigger(0, row, i as u64 * 1000) {
                if let scale_srs::core::MitigationAction::RowOperation { kind: scale_srs::core::RowOpKind::Swap, activations, .. } = action {
                    // The swap engine reports [from_location, to_location].
                    if activations.first() == Some(&row) {
                        *home_reads.entry(row).or_insert(0) += 1;
                    }
                    if activations.get(1) == Some(&row) {
                        *returned_home.entry(row).or_insert(0) += 1;
                    }
                }
            }
        }
        for (&row, &reads) in &home_reads {
            let returns = returned_home.get(&row).copied().unwrap_or(0);
            prop_assert!(
                reads <= 1 + returns,
                "home of row {} read {} times with only {} random returns home",
                row,
                reads,
                returns
            );
        }
    }

    /// The Misra-Gries tracker fires for any row stream in which one row
    /// receives at least TS consecutive activations.
    #[test]
    fn misra_gries_always_catches_a_burst(noise in proptest::collection::vec(0u64..10_000, 0..500), ts in 16u64..128) {
        let mut tracker = MisraGriesTracker::new(MisraGriesConfig::for_threshold(ts, 1_360_000, 1));
        for row in noise {
            tracker.record_activation(0, row);
        }
        let mut fired = false;
        for _ in 0..ts {
            fired |= tracker.record_activation(0, 424_242).mitigate;
        }
        prop_assert!(fired);
    }

    /// Trace binary serialization round-trips arbitrary record sequences.
    #[test]
    fn trace_serialization_round_trips(records in proptest::collection::vec((0u32..1000, prop::bool::ANY, 0u64..(1 << 40)), 0..200)) {
        let trace = Trace::new(
            "prop",
            records
                .into_iter()
                .map(|(gap, write, addr)| TraceRecord {
                    nonmem_insts: gap,
                    op: if write { MemOp::Write } else { MemOp::Read },
                    addr,
                })
                .collect(),
        );
        let back = Trace::from_bytes(&trace.to_bytes()).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The binary decoders are total: any bytes decode to `Some` or `None`
    /// without panicking or aborting, whatever name length or record count
    /// they claim, and whatever does decode re-encodes to the prefix it was
    /// read from. An optional plausible header (a short name, then an
    /// optional small record count) lets cases get past the name into the
    /// counts and fields; without it the bytes are raw noise.
    #[test]
    fn binary_decoders_never_panic_on_arbitrary_bytes(
        header in prop::option::of((0u32..4, prop::option::of(0u64..4))),
        tail in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut bytes = Vec::new();
        if let Some((name_len, count)) = header {
            bytes.extend_from_slice(&name_len.to_be_bytes());
            bytes.extend(std::iter::repeat_n(b'n', name_len as usize));
            if let Some(count) = count {
                bytes.extend_from_slice(&count.to_be_bytes());
            }
        }
        bytes.extend_from_slice(&tail);
        if let Some(trace) = Trace::from_bytes(&bytes) {
            prop_assert!(bytes.starts_with(&trace.to_bytes()));
        }
        if let Some(spec) = WorkloadSpec::from_bytes(&bytes) {
            prop_assert!(bytes.starts_with(&spec.to_bytes()));
        }
    }

    /// After any sequence of swaps and unswaps, `translate()` remains a
    /// permutation whose inverse is `occupant()`: following a row to its
    /// location and asking who lives there always leads straight back
    /// (`occupant(translate(r)) == r` and `translate(occupant(r)) == r` for
    /// every row), and no two rows ever share a location. This is the
    /// "self-inverse pair" invariant the defenses rely on to undo any swap
    /// history; note that `translate` composed with *itself* is only an
    /// involution for non-chained swaps (a re-swap of an already-remapped
    /// row legitimately creates a 3-cycle through the displaced rows).
    #[test]
    fn translate_is_a_self_inverse_permutation_with_occupant(
        ops in proptest::collection::vec((0u64..48, 0u64..48, prop::bool::ANY), 1..150),
    ) {
        let mut rit = BankRit::new(256, 64);
        for (row, target, unswap) in ops {
            if unswap {
                rit.unswap(row, 0);
            } else {
                rit.swap_to(row, target, 0);
            }
        }
        let mut seen = std::collections::HashSet::new();
        for row in 0u64..48 {
            let location = rit.translate(row);
            prop_assert!(seen.insert(location), "rows collide at location {}", location);
            prop_assert_eq!(rit.occupant(location), row);
            prop_assert_eq!(rit.translate(rit.occupant(row)), row);
        }
    }

    /// Scale-SRS translation never maps a row outside the bank, whatever the
    /// trigger sequence and threshold.
    #[test]
    fn scale_srs_translation_stays_in_range(rows in proptest::collection::vec(0u64..4096, 1..80), t_rh in prop::sample::select(vec![1200u64, 2400, 4800])) {
        let config = MitigationConfig::paper_default(t_rh, 3);
        let rows_per_bank = config.rows_per_bank;
        let mut defense = ScaleSrs::new(config);
        for (i, &row) in rows.iter().enumerate() {
            defense.on_mitigation_trigger(i % 4, row, i as u64);
        }
        for &row in &rows {
            for bank in 0..4 {
                prop_assert!(defense.translate(bank, row) < rows_per_bank);
            }
        }
    }
}

/// A record count of `u64::MAX` behind an empty name is rejected before it
/// sizes an allocation.
#[test]
fn trace_decoder_rejects_a_record_count_of_u64_max() {
    let mut bytes = 0u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(&u64::MAX.to_be_bytes());
    assert!(Trace::from_bytes(&bytes).is_none());
}

proptest! {
    /// Arbitrary trace records — wild out-of-range addresses, zero-length
    /// streams, duplicate rows, any read/write mix — never panic the
    /// engine. Structurally unroutable accesses surface as structured
    /// [`scale_srs::sim::SimError`]s instead, and the run still terminates.
    #[test]
    fn arbitrary_trace_records_never_panic_the_engine(
        raw in proptest::collection::vec((0u32..64, prop::bool::ANY, 0u64..u64::MAX), 0..120),
        dup in prop::bool::ANY,
    ) {
        use scale_srs::sim::{System, SystemConfig};
        use scale_srs::workloads::Trace;
        let mut records: Vec<TraceRecord> = raw
            .into_iter()
            .map(|(nonmem_insts, write, addr)| TraceRecord {
                nonmem_insts,
                op: if write { MemOp::Write } else { MemOp::Read },
                addr,
            })
            .collect();
        if dup {
            // Duplicate-row streams: every record aliased onto the first.
            if let Some(first) = records.first().copied() {
                let half = records.len() / 2;
                for record in &mut records[..half] {
                    record.addr = first.addr;
                }
            }
        }
        let mut config = SystemConfig::scaled_for_speed(
            scale_srs::core::DefenseKind::ScaleSrs,
            1200,
        );
        config.cores = 1;
        config.core.target_instructions = 2_000;
        config.max_sim_ns = 500_000;
        let result = System::new(config, Trace::new("fuzz", records)).run();
        // The run terminated (no panic, no hang) and produced a coherent
        // result whatever the input looked like.
        prop_assert!(result.elapsed_ns > 0);
    }

    /// A zero-length trace completes immediately with zero activity, and
    /// the engine records no errors for it.
    #[test]
    fn empty_traces_complete_without_errors(seed in 0u64..1000) {
        use scale_srs::sim::{System, SystemConfig};
        use scale_srs::workloads::Trace;
        let mut config = SystemConfig::scaled_for_speed(
            scale_srs::core::DefenseKind::ScaleSrs,
            1200,
        );
        config.cores = 2;
        config.seed = seed;
        config.max_sim_ns = 200_000;
        let system = System::new(config, Trace::new("empty", Vec::new()));
        prop_assert!(system.sim_errors().is_empty());
        let result = system.run();
        prop_assert_eq!(result.controller.reads, 0);
        prop_assert_eq!(result.controller.writes, 0);
    }
}
