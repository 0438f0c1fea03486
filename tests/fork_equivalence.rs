//! The snapshot/fork primitive and the sharing-aware grid executor are
//! pure optimizations: a run resumed from a fork must be **bit-identical**
//! — `SimResult` and `SecurityReport` included — to an uninterrupted
//! from-scratch run, and a grid executed with prefix sharing must be
//! bit-identical to the same grid simulated cell by cell.

use proptest::prelude::*;

use scale_srs::attack::engine::{AttackPattern, AttackSpec};
use scale_srs::attack::search::shipped_candidates;
use scale_srs::core::DefenseKind;
use scale_srs::sim::spec::{ConfigPatch, ExperimentSpec};
use scale_srs::sim::{
    execution_units, score_solo, warm_system, Experiment, Fanout, MemoryCollector, ScenarioResult,
    System, SystemConfig, TelemetryConfig, TelemetrySidecarSink,
};
use scale_srs::trackers::TrackerKind;
use scale_srs::workloads::{all_workloads, AccessPattern, NamedWorkload, Trace, WorkloadSpec};

fn fork_config(defense: DefenseKind, tracker: TrackerKind, attacked: bool) -> SystemConfig {
    let mut config = SystemConfig::scaled_for_speed(defense, if attacked { 300 } else { 1200 });
    config.tracker = tracker;
    config.cores = 2;
    config.core.target_instructions = 4_000;
    config.trace_records_per_core = 1_500;
    config.dram.refresh_window_ns = 400_000;
    config.max_sim_ns = 2_000_000;
    if attacked {
        config.cores = 1;
        config.core.target_instructions = u64::MAX / 2;
        config.dram.refresh_window_ns = 8_000_000;
        config.attack =
            Some(AttackSpec::new("fork-single", AttackPattern::SingleSided { bank: 0, row: 64 }));
    }
    config
}

fn fork_trace(records: usize) -> Trace {
    WorkloadSpec {
        name: "fork-hot".to_string(),
        footprint_bytes: 1 << 24,
        base_addr: 0,
        read_fraction: 0.7,
        mean_gap: 2,
        pattern: AccessPattern::HotRows { hot_rows: 2, hot_fraction: 0.6 },
    }
    .generate(records, 11)
}

proptest! {
    /// A run forked from a snapshot at an arbitrary point — across every
    /// defense, both trackers, attacked and benign cells — must match the
    /// uninterrupted run bit for bit, and so must the snapshotted original
    /// resumed after the fork (deep-copy independence).
    #[test]
    fn forked_run_is_bit_identical_to_from_scratch(
        defense in prop::sample::select(vec![
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Rrs { immediate_unswap: false },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ]),
        tracker in prop::sample::select(vec![TrackerKind::MisraGries, TrackerKind::Hydra]),
        attacked in prop::bool::ANY,
        fork_tenths in 1u64..10,
    ) {
        let config = fork_config(defense, tracker, attacked);
        let trace = fork_trace(1_500);
        let reference = System::new(config.clone(), trace.clone()).run();

        let mut original = System::new(config, trace);
        original.run_until_ns(reference.elapsed_ns * fork_tenths / 10);
        let forked = original.fork();

        // The fork continues to the reference result...
        prop_assert_eq!(&forked.run(), &reference);
        // ...and the original, resumed after the fork was taken, does too.
        prop_assert_eq!(&original.run(), &reference);
    }

    /// The activation-drain mode is a pure dispatch choice, so it must
    /// commute with snapshot/fork: a run whose prefix used one drain mode
    /// and whose forked continuation uses the other must still match a
    /// reference run executed entirely in the default (batched) mode —
    /// across every defense, both trackers, attacked and benign cells.
    #[test]
    fn drain_mode_commutes_with_fork(
        defense in prop::sample::select(vec![
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ]),
        tracker in prop::sample::select(vec![TrackerKind::MisraGries, TrackerKind::Hydra]),
        attacked in prop::bool::ANY,
        prefix_per_event in prop::bool::ANY,
        fork_tenths in 1u64..10,
    ) {
        let config = fork_config(defense, tracker, attacked);
        let trace = fork_trace(1_500);
        let reference = System::new(config.clone(), trace.clone()).run();

        let mut original = System::new(config, trace);
        original.set_per_event_drain(prefix_per_event);
        original.run_until_ns(reference.elapsed_ns * fork_tenths / 10);
        let mut forked = original.fork();
        forked.set_per_event_drain(!prefix_per_event);
        prop_assert_eq!(&forked.run(), &reference);
    }
}

fn tiny() -> ConfigPatch {
    ConfigPatch {
        cores: Some(2),
        target_instructions: Some(4_000),
        trace_records_per_core: Some(1_500),
        refresh_window_ns: Some(500_000),
        max_sim_ns: Some(3_000_000),
        ..ConfigPatch::default()
    }
}

fn grid_workloads() -> Vec<NamedWorkload> {
    all_workloads().into_iter().filter(|w| w.name == "gups" || w.name == "gcc").collect()
}

/// The real gate on the sharing-aware executor: a grid crossing every
/// defense (the baseline included, so baseline cells flow through the
/// trunk-relabel path), both trackers (Hydra diverges on counter-table
/// traffic, not on mitigation), and two thresholds must produce exactly
/// the same result stream with sharing on and off.
#[test]
fn shared_grid_is_bit_identical_to_unshared() {
    let experiment = Experiment::new()
        .with_defenses(vec![
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ])
        .with_trackers(vec![TrackerKind::MisraGries, TrackerKind::Hydra])
        .with_thresholds(vec![1200, 2400])
        .with_workloads(grid_workloads())
        .with_patch(tiny())
        .with_threads(4);
    assert!(experiment.share_prefixes(), "sharing must be the default");
    let shared = experiment.clone().run();
    let unshared = experiment.with_share_prefixes(false).run();
    assert_eq!(shared.len(), 32);
    for (s, u) in shared.iter().zip(&unshared) {
        assert_eq!(
            s, u,
            "{} on {} trh={} tracker={} diverged between shared and unshared",
            s.scenario.defense, s.scenario.workload.name, s.scenario.t_rh, s.scenario.tracker
        );
    }
}

/// gcc and hmmer share a synthetic profile, so they generate identical
/// traces and the planner merges their cells into one shared-prefix unit,
/// where each distinct configuration simulates once for both. The merged
/// grid — both trackers, a baseline cell, gups beside it, at a threshold
/// low enough that the defenses swap — must still be cell-for-cell
/// identical to simulating every cell from scratch, and each cell must
/// carry its own workload name.
#[test]
fn same_trace_workloads_share_one_unit_and_match_unshared() {
    let workloads: Vec<NamedWorkload> = all_workloads()
        .into_iter()
        .filter(|w| ["gups", "gcc", "hmmer"].contains(&w.name))
        .collect();
    let experiment = Experiment::new()
        .with_defenses(vec![
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ])
        .with_trackers(vec![TrackerKind::MisraGries, TrackerKind::Hydra])
        .with_thresholds(vec![128])
        .with_workloads(workloads)
        .with_patch(tiny())
        .with_threads(4);

    let units = execution_units(&experiment);
    let scenarios = experiment.scenarios();
    let unit_of = |name: &str| -> Vec<usize> {
        let homes: Vec<usize> = (0..units.len())
            .filter(|&u| units[u].iter().any(|&i| scenarios[i].workload.name == name))
            .collect();
        assert_eq!(homes.len(), 1, "{name}'s cells are spread over units {homes:?}");
        units[homes[0]].clone()
    };
    let merged = unit_of("gcc");
    assert_eq!(merged, unit_of("hmmer"), "gcc and hmmer must share one unit");
    assert_eq!(merged.len(), 16);
    assert_eq!(unit_of("gups").len(), 8);

    let shared = experiment.clone().run();
    let unshared = experiment.with_share_prefixes(false).run();
    assert_eq!(shared.len(), 24);
    for (s, u) in shared.iter().zip(&unshared) {
        let name = s.scenario.workload.name;
        assert_eq!(s.result.workload, name, "cell {} result label", s.scenario.index);
        assert_eq!(s.result.detail.workload, name, "cell {} detail label", s.scenario.index);
        assert_eq!(
            s, u,
            "{} on {name} tracker={} diverged between shared and unshared",
            s.scenario.defense, s.scenario.tracker
        );
    }
    // The merged unit exercises both branch kinds: cells whose mitigation
    // issued DRAM traffic forked; the rest are trunk relabels.
    let hmmer = shared.iter().filter(|r| r.scenario.workload.name == "hmmer");
    let (relabelled, forked): (Vec<_>, Vec<_>) =
        hmmer.partition(|r| r.result.detail.controller.maintenance_ops.is_empty());
    assert!(!forked.is_empty() && !relabelled.is_empty());
}

/// Telemetry-armed cells never join a shared-prefix group: a trunk
/// carries an inert tracker, so a branch that never forks would inherit
/// the trunk's tracker-occupancy samples and saturation record instead of
/// its own. The armed sidecar must be byte-identical with sharing on and
/// off on a grid whose Misra-Gries cells include one that never forks.
#[test]
fn armed_telemetry_sidecar_is_identical_shared_and_unshared() {
    let workloads: Vec<NamedWorkload> =
        all_workloads().into_iter().filter(|w| w.name == "gups" || w.name == "povray").collect();
    let experiment = Experiment::new()
        .with_defenses(vec![DefenseKind::Baseline, DefenseKind::Srs])
        .with_trackers(vec![TrackerKind::MisraGries])
        .with_thresholds(vec![1200])
        .with_workloads(workloads)
        .with_patch(tiny())
        .with_telemetry(TelemetryConfig { sample_interval_ns: 500, ..TelemetryConfig::armed() })
        .with_threads(2);
    let sidecar = |experiment: Experiment| -> (String, Vec<ScenarioResult>) {
        let mut telemetry = TelemetrySidecarSink::new(Vec::new());
        let mut results = MemoryCollector::new();
        experiment.run_with_sink(&mut Fanout::new(vec![&mut telemetry, &mut results]));
        let bytes = telemetry.finish().expect("in-memory sidecar");
        (String::from_utf8(bytes).expect("sidecar is UTF-8"), results.into_results())
    };
    let (shared, _) = sidecar(experiment.clone());
    let (unshared, results) = sidecar(experiment.with_share_prefixes(false));
    assert_eq!(shared.lines().count(), 4, "one sidecar record per cell");

    // SRS on povray never acts, so a trunk would have carried it to the
    // end; its own tracker is occupied, the trunk's never is.
    let quiet = results
        .iter()
        .find(|r| r.scenario.workload.name == "povray" && r.scenario.defense == DefenseKind::Srs)
        .expect("the grid holds SRS on povray");
    assert_eq!(quiet.result.detail.swaps, 0);
    assert_eq!(quiet.result.detail.controller.maintenance_activations, 0);
    let telemetry = quiet.result.detail.telemetry.as_ref().expect("armed cell carries telemetry");
    let occupancy = telemetry.series("tracker_occupancy").expect("occupancy is sampled");
    assert!(occupancy.samples.iter().any(|&(_, value)| value > 0));

    assert_eq!(shared, unshared, "the armed sidecar depends on prefix sharing");
}

/// The attack search scores a whole generation by forking one warmed
/// snapshot (`System::fork_each`) instead of re-warming per candidate.
/// That batching is a pure optimization: each candidate's security report
/// must be bit-identical to a from-scratch run that warms its own system
/// and installs the same attack (`score_solo`). The shipped library spans
/// every pattern kind, so this exercises each `install_attack` wiring path.
#[test]
fn fork_batch_scoring_is_bit_identical_to_solo_scoring() {
    let spec = ExperimentSpec::parse(
        r#"{
            "name": "fork-batch-equivalence",
            "preset": "scaled_for_speed",
            "patch": {
                "cores": 1,
                "target_instructions": 9223372036854775807,
                "trace_records_per_core": 1500,
                "refresh_window_ns": 8000000,
                "max_sim_ns": 1500000
            },
            "defenses": ["srs"],
            "thresholds": [300],
            "workloads": ["gups"],
            "search": { "population": 4, "generations": 1, "warmup_ns": 250000, "seed": 7 }
        }"#,
    )
    .expect("inline spec parses");
    let search = spec.search.clone().expect("spec carries a search block");
    let warm = warm_system(&spec, &search).expect("warm the search cell");
    let shipped = shipped_candidates();
    let batch = warm.fork_each(shipped.iter().map(|c| c.to_attack_spec()).collect(), 4);
    assert_eq!(batch.len(), shipped.len());
    for (candidate, result) in shipped.iter().zip(&batch) {
        let solo = score_solo(&spec, &search, candidate).expect("solo scoring run");
        assert_eq!(
            result.security.as_ref(),
            Some(&solo),
            "{}: fork-batch report diverged from from-scratch scoring",
            candidate.name
        );
    }
}

/// Attacked cells never join a prefix group (the attacker adapts to the
/// defense's threshold from its first read); a mixed grid must still be
/// bit-identical under both execution plans, with every attacked cell
/// carrying its security report.
#[test]
fn mixed_attacked_grid_is_bit_identical_to_unshared() {
    let attack = AttackSpec::new("single", AttackPattern::SingleSided { bank: 0, row: 64 });
    let experiment = Experiment::new()
        .with_defenses(vec![DefenseKind::Baseline, DefenseKind::Srs, DefenseKind::ScaleSrs])
        .with_thresholds(vec![600])
        .with_attacks(vec![attack])
        .with_workloads(grid_workloads())
        .with_patch(tiny())
        .with_threads(4);
    let shared = experiment.clone().run();
    let unshared = experiment.with_share_prefixes(false).run();
    assert_eq!(shared, unshared);
    for r in &shared {
        assert!(r.result.detail.security.is_some(), "attacked cells carry a security report");
    }
}

/// The fault model's damage store, RNG cursors and scrub deadline are all
/// part of the snapshot: a fork taken at any point mid-attack must finish
/// with the byte-identical integrity report of an uninterrupted run.
#[test]
fn integrity_report_commutes_with_fork() {
    use scale_srs::dram::EccKind;
    let mut config =
        fork_config(DefenseKind::Rrs { immediate_unswap: true }, TrackerKind::MisraGries, true);
    if let Some(attack) = config.attack.as_mut() {
        attack.stop_at_first_crossing = false;
    }
    config.faults.enabled = true;
    config.faults.ecc = EccKind::Secded;
    config.faults.scrub_interval_ns = 250_000;
    let trace = fork_trace(1_500);
    let reference = System::new(config.clone(), trace.clone()).run();
    let report = reference.integrity.as_ref().expect("fault-model run carries a report");
    assert!(report.bit_flips_injected > 0, "the attacked run must actually flip bits");
    for tenths in [2u64, 5, 8] {
        let mut original = System::new(config.clone(), trace.clone());
        original.run_until_ns(reference.elapsed_ns * tenths / 10);
        let forked = original.fork();
        assert_eq!(forked.run(), reference, "fork at {tenths}/10 diverged");
        assert_eq!(original.run(), reference, "resumed original at {tenths}/10 diverged");
    }
}
