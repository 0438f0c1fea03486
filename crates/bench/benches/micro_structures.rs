//! Criterion micro-benchmarks of the core data structures: RIT operations,
//! tracker updates and the analytical attack model.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use srs_attack::{juggernaut, AttackParams};
use srs_core::rit::BankRit;
use srs_core::{MitigationConfig, RowSwapDefense, ScaleSrs, SecureRowSwap};
use srs_trackers::{AggressorTracker, MisraGriesConfig, MisraGriesTracker};

fn bench_rit(c: &mut Criterion) {
    c.bench_function("rit_swap_and_translate", |b| {
        let mut rit = BankRit::new(8192, 65_536);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            rit.swap_to(black_box(i % 2048), black_box((i * 37) % 65_536), 0);
            black_box(rit.translate(i % 2048));
        });
    });
}

fn bench_tracker(c: &mut Criterion) {
    c.bench_function("misra_gries_record_activation", |b| {
        let mut tracker =
            MisraGriesTracker::new(MisraGriesConfig::for_threshold(800, 1_360_000, 16));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tracker.record_activation((i % 16) as usize, i % 4096));
        });
    });
    // The Misra-Gries worst case: a full table fed a low-locality stream, so
    // every activation misses and the eviction path — the chunked
    // first-at-or-below scan over the dense counter array, or the min-bound
    // skip when it cannot succeed — runs on every call.
    c.bench_function("misra_gries_eviction_scan_pressure", |b| {
        let mut tracker = MisraGriesTracker::new(MisraGriesConfig {
            swap_threshold: u64::MAX,
            entries_per_bank: 512,
            banks: 1,
            row_tag_bits: 17,
            counter_bits: 13,
        });
        for row in 0..512 {
            tracker.record_activation(0, row);
        }
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tracker.record_activation(0, 1_000 + (i * 131) % 16_384));
        });
    });
}

fn bench_rit_live_walk(c: &mut Criterion) {
    // The defense polls `stale_rows` on a timer for every bank, almost
    // always finding nothing: the walk over the dense live-epoch mirror is
    // the hot shape, priced here with a half-full table whose entries are
    // all current (no stale hits, pure scan).
    c.bench_function("rit_stale_live_walk", |b| {
        let mut rit = BankRit::new(4096, 65_536);
        for i in 0..2048u64 {
            rit.swap_to(i, 32_768 + i, 7);
        }
        b.iter(|| black_box(rit.stale_rows(black_box(6))));
    });
}

fn bench_defense_trigger(c: &mut Criterion) {
    c.bench_function("srs_mitigation_trigger", |b| {
        let mut defense = SecureRowSwap::new(MitigationConfig::paper_default(1200, 6));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(defense.on_mitigation_trigger((i % 32) as usize, i % 8192, i));
        });
    });
    c.bench_function("scale_srs_mitigation_trigger", |b| {
        let mut defense = ScaleSrs::new(MitigationConfig::paper_default(1200, 3));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(defense.on_mitigation_trigger((i % 32) as usize, i % 8192, i));
        });
    });
}

fn bench_attack_model(c: &mut Criterion) {
    c.bench_function("juggernaut_best_attack", |b| {
        let params = AttackParams::rrs(4800, 6);
        b.iter(|| black_box(juggernaut::best_attack(black_box(&params))));
    });
}

criterion_group!(
    benches,
    bench_rit,
    bench_tracker,
    bench_rit_live_walk,
    bench_defense_trigger,
    bench_attack_model
);
criterion_main!(benches);
