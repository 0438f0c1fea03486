//! Simulator throughput benchmark: simulated-ns/sec and scenario-grid
//! runs/sec on a fixed quickstart-scale grid, for both the event-driven
//! time-skip engine (`System::run`) and the fixed-step reference engine
//! (`System::run_fixed_step`) — plus the sharing-aware grid executor
//! against the from-scratch plan on a defense-comparison grid.
//!
//! Every perf-focused change should leave a data point here: the harness
//! writes `BENCH_throughput.json` at the workspace root with the measured
//! numbers, so the repository carries a recorded trajectory of engine
//! throughput over time (see `EXPERIMENTS.md`).
//!
//! Modes:
//! * default — 5 measurement repetitions of the full grid (best-of taken);
//! * `SRS_BENCH_SMOKE=1` — one repetition of a reduced grid, for CI. The
//!   smoke run also *asserts* that the shared plan is no slower than the
//!   unshared plan (with slack for CI timing noise), so a regression in
//!   the prefix-sharing executor fails the pipeline rather than silently
//!   landing.

use std::time::Instant;

use srs_core::DefenseKind;
use srs_sim::json::{obj, Json, ToJson};
use srs_sim::spec::ConfigPatch;
use srs_sim::telemetry::TelemetryConfig;
use srs_sim::{AttributionReport, Experiment, SimResult, System, SystemConfig};
use srs_workloads::{
    all_workloads, hammer_trace, AccessPattern, NamedWorkload, Trace, WorkloadSpec,
};

/// One cell of the throughput grid.
struct Cell {
    label: String,
    config: SystemConfig,
    trace: Trace,
}

/// The quickstart-scale configuration (mirrors `examples/quickstart.rs`).
fn quick_config(defense: DefenseKind, t_rh: u64) -> SystemConfig {
    let mut config = SystemConfig::scaled_for_speed(defense, t_rh);
    config.cores = 2;
    config.core.target_instructions = 20_000;
    config.trace_records_per_core = 6_000;
    config.dram.refresh_window_ns = 1_000_000;
    config.max_sim_ns = 10_000_000;
    config
}

/// A compute-bound, low-MPKI workload (the paper's evaluation spans
/// benchmarks like povray/gamess with MPKI well below 1, which the
/// synthetic suite's profiles do not reach). These runs have long stretches
/// with no memory event — the time-skip engine's best case.
fn compute_trace(records: usize) -> Trace {
    WorkloadSpec {
        name: "compute".to_string(),
        footprint_bytes: 1 << 26,
        base_addr: 0,
        read_fraction: 0.8,
        mean_gap: 2_000,
        pattern: AccessPattern::HotRows { hot_rows: 8, hot_fraction: 0.3 },
    }
    .generate(records, 17)
}

/// The fixed quickstart grid: the quickstart example's defense x workload
/// cells, plus the attack scenario the quickstart demonstrates, plus a
/// compute-bound cell — benign-dense, hammering and compute-bound runs in
/// one sweep.
fn grid(smoke: bool) -> Vec<Cell> {
    let workloads: Vec<_> =
        all_workloads().into_iter().filter(|w| w.name == "gups" || w.name == "gcc").collect();
    let defenses: &[DefenseKind] = if smoke {
        &[DefenseKind::ScaleSrs]
    } else {
        &[DefenseKind::Baseline, DefenseKind::Srs, DefenseKind::ScaleSrs]
    };
    let mut cells = Vec::new();
    for &defense in defenses {
        for w in &workloads {
            let config = quick_config(defense, 1200);
            let trace = w.spec().generate(config.trace_records_per_core, config.seed);
            cells.push(Cell { label: format!("{defense}/{}", w.name), config, trace });
        }
        let config = quick_config(defense, 1200);
        cells.push(Cell {
            label: format!("{defense}/hammer"),
            trace: hammer_trace("hammer", 0x10000, config.trace_records_per_core, 1 << 26, 5)
                .into_trace(),
            config,
        });
        let mut config = quick_config(defense, 1200);
        // Low MPKI means few records carry many instructions; scale the
        // instruction target so the cell simulates a comparable time span.
        config.core.target_instructions = 2_000_000;
        let records = config.trace_records_per_core;
        cells.push(Cell {
            label: format!("{defense}/compute"),
            trace: compute_trace(records),
            config,
        });
    }
    cells
}

/// The memory-saturated subset of the quickstart grid: the dense and
/// hammering cells, without the compute-bound ones. These runs spend
/// nearly every tick inside the controller's scheduling sweep and
/// activation pipeline, which makes them the cells the batched drain, the
/// chunked scans and the bank queues actually move — the compute cells
/// mostly measure the time-skip engine instead.
fn saturated_grid(smoke: bool) -> Vec<Cell> {
    grid(smoke).into_iter().filter(|cell| !cell.label.ends_with("/compute")).collect()
}

struct Measurement {
    wall_seconds: f64,
    simulated_ns: u64,
    runs: usize,
}

/// Run the whole grid once under one engine.
fn run_grid(cells: Vec<Cell>, event_driven: bool, verbose: bool) -> Measurement {
    let runs = cells.len();
    let mut simulated_ns = 0u64;
    let start = Instant::now();
    for cell in cells {
        let cell_start = Instant::now();
        let label = cell.label;
        let system = System::new(cell.config, cell.trace);
        let result: SimResult = if event_driven { system.run() } else { system.run_fixed_step() };
        if verbose {
            println!(
                "    {label:<22} {:>8.2} ms wall, {:>9} sim-ns",
                cell_start.elapsed().as_secs_f64() * 1e3,
                result.elapsed_ns
            );
        }
        simulated_ns += result.elapsed_ns;
    }
    Measurement { wall_seconds: start.elapsed().as_secs_f64(), simulated_ns, runs }
}

fn best_of(reps: usize, event_driven: bool, smoke: bool, verbose: bool) -> Measurement {
    let mut best: Option<Measurement> = None;
    for rep in 0..reps {
        let m = run_grid(grid(smoke), event_driven, verbose && rep == 0);
        if best.as_ref().is_none_or(|b| m.wall_seconds < b.wall_seconds) {
            best = Some(m);
        }
    }
    best.expect("at least one repetition")
}

/// Run the saturated grid once under the event-driven engine, with the
/// activation drain in either mode.
fn run_saturated(cells: Vec<Cell>, per_event: bool) -> Measurement {
    let runs = cells.len();
    let mut simulated_ns = 0u64;
    let start = Instant::now();
    for cell in cells {
        let mut system = System::new(cell.config, cell.trace);
        system.set_per_event_drain(per_event);
        simulated_ns += system.run().elapsed_ns;
    }
    Measurement { wall_seconds: start.elapsed().as_secs_f64(), simulated_ns, runs }
}

fn best_of_saturated(reps: usize, smoke: bool, per_event: bool) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let m = run_saturated(saturated_grid(smoke), per_event);
        if best.as_ref().is_none_or(|b| m.wall_seconds < b.wall_seconds) {
            best = Some(m);
        }
    }
    best.expect("at least one repetition")
}

/// Run the saturated grid once with the telemetry recorder armed or
/// disarmed. Every headline section of this bench already measures the
/// disarmed path (it is the default), so the interesting ratio here is
/// what *arming* costs; the disarmed hooks themselves are one predicted
/// branch each.
fn run_telemetry(cells: Vec<Cell>, armed: bool) -> Measurement {
    let runs = cells.len();
    let mut simulated_ns = 0u64;
    let start = Instant::now();
    for mut cell in cells {
        if armed {
            cell.config.telemetry = TelemetryConfig::armed();
        }
        simulated_ns += System::new(cell.config, cell.trace).run().elapsed_ns;
    }
    Measurement { wall_seconds: start.elapsed().as_secs_f64(), simulated_ns, runs }
}

fn best_of_telemetry(reps: usize, smoke: bool, armed: bool) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let m = run_telemetry(saturated_grid(smoke), armed);
        if best.as_ref().is_none_or(|b| m.wall_seconds < b.wall_seconds) {
            best = Some(m);
        }
    }
    best.expect("at least one repetition")
}

/// One attributed pass over the saturated grid: per-cell subsystem
/// breakdowns plus their aggregate. A single pass suffices — the
/// attribution is a *share* of wall time, far more stable across
/// repetitions than the wall time itself, and the stopwatch overhead makes
/// these wall numbers non-comparable with the headline measurements
/// anyway.
fn run_attribution(smoke: bool) -> (AttributionReport, Vec<(String, AttributionReport)>) {
    let mut total = AttributionReport::default();
    let mut cells_out = Vec::new();
    for cell in saturated_grid(smoke) {
        let (_, report) = System::new(cell.config, cell.trace).run_attributed();
        total = total.merged(&report);
        cells_out.push((cell.label, report));
    }
    (total, cells_out)
}

/// One measurement as a JSON object, emitted through the `srs_sim::json`
/// codec (the same codec `srs-cli` and the schema-validation tests parse
/// the report back with).
fn json_entry(m: &Measurement) -> Json {
    obj(vec![
        ("wall_seconds", m.wall_seconds.into()),
        ("simulated_ns", m.simulated_ns.into()),
        ("grid_runs", m.runs.into()),
        ("simulated_ns_per_sec", (m.simulated_ns as f64 / m.wall_seconds).into()),
        ("grid_runs_per_sec", (m.runs as f64 / m.wall_seconds).into()),
    ])
}

/// The defense-comparison grid the sharing-aware executor is measured on:
/// every defense (baseline included) × TRH × a spread of workload
/// behaviours, at quickstart scale. All the mitigation axes collapse into
/// branches of one trunk per generated trace, which is exactly the shape
/// of the paper's Figures 12/14/15 sweeps (the full grid's gcc/hmmer and
/// povray/gamess/namd each share a profile, and so a trunk).
fn defense_comparison_grid(smoke: bool) -> Experiment {
    let patch = ConfigPatch {
        cores: Some(2),
        target_instructions: Some(20_000),
        trace_records_per_core: Some(6_000),
        refresh_window_ns: Some(1_000_000),
        max_sim_ns: Some(10_000_000),
        ..ConfigPatch::default()
    };
    // Hot-row-heavy cells diverge early (mitigations fire fast), light
    // cells late or never — the mix keeps the measurement honest about
    // both ends of the sharing spectrum.
    let names: &[&str] = if smoke {
        &["gcc", "povray"]
    } else {
        &["gups", "gcc", "hmmer", "mcf", "libquantum", "povray", "gamess", "namd"]
    };
    let workloads: Vec<NamedWorkload> =
        all_workloads().into_iter().filter(|w| names.contains(&w.name)).collect();
    assert_eq!(workloads.len(), names.len(), "defense-comparison workloads must all exist");
    Experiment::new()
        .with_defenses(vec![
            DefenseKind::Baseline,
            DefenseKind::Rrs { immediate_unswap: true },
            DefenseKind::Srs,
            DefenseKind::ScaleSrs,
        ])
        .with_thresholds(if smoke { vec![1200] } else { vec![1200, 4800] })
        .with_workloads(workloads)
        .with_patch(patch)
}

/// Run the defense-comparison grid under one execution plan.
fn run_shared_grid(experiment: &Experiment, share: bool) -> Measurement {
    let experiment = experiment.clone().with_share_prefixes(share);
    let start = Instant::now();
    let results = experiment.run();
    Measurement {
        wall_seconds: start.elapsed().as_secs_f64(),
        simulated_ns: results.iter().map(|r| r.result.detail.elapsed_ns).sum(),
        runs: results.len(),
    }
}

fn best_of_grid(reps: usize, experiment: &Experiment, share: bool) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let m = run_shared_grid(experiment, share);
        if best.as_ref().is_none_or(|b| m.wall_seconds < b.wall_seconds) {
            best = Some(m);
        }
    }
    best.expect("at least one repetition")
}

/// The pre-optimization simulator of this repository (fixed 25 ns stepping
/// over every bank and core, per-core trace clone-and-rewrite, SipHash maps
/// on the per-activation paths, `VecDeque::remove` FR-FCFS), measured once
/// on this same grid when the event-driven engine landed. Protocol in
/// EXPERIMENTS.md; comparable to live numbers only on similar hardware.
const RECORDED_SEED_WALL_SECONDS: f64 = 0.0861;
const RECORDED_SEED_SIMULATED_NS: u64 = 7_262_975;
const RECORDED_SEED_RUNS: usize = 12;

/// The PR5-era simulator (per-event virtual dispatch through the tick
/// observer, `VecDeque`-of-`Option` bank queues with tombstone compaction,
/// scalar Misra-Gries eviction scans, gather-based RIT stale walks),
/// measured once on the full saturated grid on this machine before the
/// batched drain, the SIMD scans and the (since removed) slab-arena queues
/// landed. Same protocol as the seed baseline: best-of-7, comparable to
/// live numbers only on similar hardware.
const RECORDED_PR5_SATURATED_WALL_SECONDS: f64 = 0.04305;
const RECORDED_PR5_SATURATED_SIMULATED_NS: u64 = 6_733_100;
const RECORDED_PR5_SATURATED_RUNS: usize = 9;

fn main() {
    let smoke = std::env::var("SRS_BENCH_SMOKE")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let verbose = std::env::var("SRS_BENCH_VERBOSE")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    let reps = if smoke { 1 } else { 5 };

    // The batched activation drain vs the per-event fallback on the
    // memory-saturated cells, where the drain is actually hot. This
    // section runs FIRST: its wall time is compared against a recorded
    // baseline that was measured as a standalone (cold-machine) run, and
    // on the thermally-limited reference container a section placed after
    // tens of seconds of sustained benching measures ~10% slower than the
    // identical code measured cold — a bias that would be read as a code
    // regression. Within-process ratios (the engine and sharing sections
    // below) are unaffected by where they run.
    println!(
        "== Activation drain (saturated quickstart cells{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let drain_reps = if smoke { 2 } else { 7 };
    let per_event = best_of_saturated(drain_reps, smoke, true);
    let batched = best_of_saturated(drain_reps, smoke, false);
    let drain_speedup = per_event.wall_seconds / batched.wall_seconds;
    for (name, m) in [("per_event", &per_event), ("batched", &batched)] {
        println!(
            "{name:>13}: {:>8.1} ms wall | {:>6.1} Msim-ns/s ({} cells)",
            m.wall_seconds * 1e3,
            m.simulated_ns as f64 / m.wall_seconds / 1e6,
            m.runs,
        );
    }
    println!("{:>13}: {drain_speedup:.2}x batched vs per-event drain", "speedup");
    let vs_pr5 = RECORDED_PR5_SATURATED_WALL_SECONDS / batched.wall_seconds;
    if !smoke {
        println!(
            "{:>13}: {vs_pr5:.2}x vs the recorded PR5 saturated baseline ({:.1} ms)",
            "vs PR5",
            RECORDED_PR5_SATURATED_WALL_SECONDS * 1e3
        );
    }
    // Batched must never lose: it does strictly fewer virtual calls for
    // the same work. Hard gate in smoke (CI) with noise slack; full mode
    // records and flags, as with the sharing gate above.
    if smoke {
        assert!(
            drain_speedup > 0.87,
            "batched activation drain ran slower than per-event delivery \
             ({drain_speedup:.2}x); the batch pipeline has regressed"
        );
    } else if drain_speedup <= 1.0 {
        eprintln!(
            "warning: batched drain measured no faster than per-event \
             ({drain_speedup:.2}x) — noisy machine, or a drain regression"
        );
    }

    println!(
        "\n== Simulator throughput (fixed quickstart grid{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let fixed = best_of(reps, false, smoke, verbose);
    let event = best_of(reps, true, smoke, verbose);
    let speedup = fixed.wall_seconds / event.wall_seconds;
    let vs_seed = RECORDED_SEED_WALL_SECONDS / event.wall_seconds;
    for (name, m) in [("fixed_step", &fixed), ("event_driven", &event)] {
        println!(
            "{name:>13}: {:>8.1} ms wall | {:>6.1} Msim-ns/s | {:>6.1} runs/s",
            m.wall_seconds * 1e3,
            m.simulated_ns as f64 / m.wall_seconds / 1e6,
            m.runs as f64 / m.wall_seconds,
        );
    }
    println!("{:>13}: {speedup:.2}x event-driven vs fixed-step (same code base)", "speedup");
    if !smoke {
        println!(
            "{:>13}: {vs_seed:.2}x event-driven vs the recorded pre-PR baseline ({:.1} ms)",
            "vs baseline",
            RECORDED_SEED_WALL_SECONDS * 1e3
        );
    }

    // The sharing-aware grid executor vs the from-scratch plan on the
    // defense-comparison grid (identical results, different execution).
    println!(
        "\n== Sharing-aware grid executor (defense-comparison grid{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let experiment = defense_comparison_grid(smoke);
    let grid_reps = if smoke { 2 } else { 3 };
    let unshared = best_of_grid(grid_reps, &experiment, false);
    let shared = best_of_grid(grid_reps, &experiment, true);
    let share_speedup = unshared.wall_seconds / shared.wall_seconds;
    for (name, m) in [("unshared", &unshared), ("shared", &shared)] {
        println!(
            "{name:>13}: {:>8.1} ms wall | {:>6.1} grid-runs/s ({} cells)",
            m.wall_seconds * 1e3,
            m.runs as f64 / m.wall_seconds,
            m.runs,
        );
    }
    println!("{:>13}: {share_speedup:.2}x shared vs unshared grid-runs/sec", "speedup");
    // The shared plan must never lose: it runs strictly less simulation.
    // The hard gate is smoke (CI) only, with slack for scheduler noise on
    // loaded runners; full mode records whatever it measured (losing a
    // minutes-long measurement to a noisy laptop would be worse) and just
    // flags the anomaly.
    if smoke {
        assert!(
            share_speedup > 0.87,
            "sharing-aware execution ran slower than the from-scratch plan \
             ({share_speedup:.2}x); the prefix planner has regressed"
        );
    } else if share_speedup <= 1.0 {
        eprintln!(
            "warning: shared plan measured no faster than unshared \
             ({share_speedup:.2}x) — noisy machine, or a planner regression"
        );
    }

    // Telemetry recorder: the disarmed path is what every section above
    // already measured (disarmed is the default); this A/B isolates what
    // arming the recorder costs on the saturated cells. The results
    // themselves are bit-identical either way (test- and CI-enforced) —
    // only wall time may move.
    println!(
        "\n== Telemetry recorder (saturated quickstart cells{}) ==",
        if smoke { ", smoke" } else { "" }
    );
    let telemetry_reps = if smoke { 2 } else { 5 };
    let disarmed = best_of_telemetry(telemetry_reps, smoke, false);
    let armed = best_of_telemetry(telemetry_reps, smoke, true);
    let armed_overhead = armed.wall_seconds / disarmed.wall_seconds;
    for (name, m) in [("disarmed", &disarmed), ("armed", &armed)] {
        println!(
            "{name:>13}: {:>8.1} ms wall | {:>6.1} Msim-ns/s ({} cells)",
            m.wall_seconds * 1e3,
            m.simulated_ns as f64 / m.wall_seconds / 1e6,
            m.runs,
        );
    }
    println!("{:>13}: {armed_overhead:.2}x armed vs disarmed wall time", "overhead");
    // Arming buys ring-buffer pushes and a sampling cadence; it must stay
    // a modest tax, not a second simulation. Hard gate in smoke (CI) with
    // generous noise slack; full mode records and flags.
    if smoke {
        assert!(
            armed_overhead < 1.5,
            "armed telemetry costs {armed_overhead:.2}x on the saturated cells; \
             the recorder hot path has regressed"
        );
    } else if armed_overhead > 1.25 {
        eprintln!(
            "warning: armed telemetry measured {armed_overhead:.2}x — noisy \
             machine, or a recorder regression"
        );
    }

    // Where the remaining wall time goes, subsystem by subsystem (separate
    // instrumented pass; see EXPERIMENTS.md for the methodology).
    println!("\n== Wall-time attribution (saturated cells, instrumented pass) ==");
    let (attribution_total, attribution_cells) = run_attribution(smoke);
    let share = |ns: u64| 100.0 * ns as f64 / attribution_total.wall_ns.max(1) as f64;
    println!(
        "{:>13}: {:>8.1} ms wall | schedule {:.0}% tracker {:.0}% defense {:.0}% \
         rit {:.0}% security {:.0}% other {:.0}%",
        "aggregate",
        attribution_total.wall_ns as f64 / 1e6,
        share(attribution_total.controller_schedule_ns),
        share(attribution_total.tracker_ns),
        share(attribution_total.defense_ns),
        share(attribution_total.rit_ns),
        share(attribution_total.security_ns),
        share(attribution_total.other_ns),
    );

    let seed = Measurement {
        wall_seconds: RECORDED_SEED_WALL_SECONDS,
        simulated_ns: RECORDED_SEED_SIMULATED_NS,
        runs: RECORDED_SEED_RUNS,
    };
    // The recorded baseline covers the *full* grid; comparing it against a
    // smoke run's reduced grid would inflate the ratio by the grid-size
    // difference, so the baseline section only appears in full mode.
    let mut doc: Vec<(&str, Json)> = Vec::new();
    if !smoke {
        doc.push(("recorded_pre_pr_baseline", json_entry(&seed)));
        doc.push(("event_vs_recorded_baseline_speedup", vs_seed.into()));
    }
    doc.push(("fixed_step", json_entry(&fixed)));
    doc.push(("event_driven", json_entry(&event)));
    doc.push(("event_vs_fixed_speedup", speedup.into()));
    doc.push((
        "shared_grid",
        obj(vec![
            ("unshared", json_entry(&unshared)),
            ("shared", json_entry(&shared)),
            ("shared_vs_unshared_speedup", share_speedup.into()),
        ]),
    ));
    let mut saturated: Vec<(&str, Json)> = Vec::new();
    if !smoke {
        saturated.push((
            "recorded_pr5_baseline",
            json_entry(&Measurement {
                wall_seconds: RECORDED_PR5_SATURATED_WALL_SECONDS,
                simulated_ns: RECORDED_PR5_SATURATED_SIMULATED_NS,
                runs: RECORDED_PR5_SATURATED_RUNS,
            }),
        ));
        saturated.push(("batched_vs_recorded_pr5_speedup", vs_pr5.into()));
    }
    saturated.push(("per_event", json_entry(&per_event)));
    saturated.push(("batched", json_entry(&batched)));
    saturated.push(("batched_vs_per_event_speedup", drain_speedup.into()));
    doc.push(("saturated", obj(saturated)));
    doc.push((
        "telemetry",
        obj(vec![
            ("disarmed", json_entry(&disarmed)),
            ("armed", json_entry(&armed)),
            ("armed_vs_disarmed_overhead", armed_overhead.into()),
        ]),
    ));
    doc.push((
        "attribution",
        obj(vec![
            ("total", attribution_total.to_json()),
            (
                "cells",
                Json::Array(
                    attribution_cells
                        .iter()
                        .map(|(label, report)| {
                            obj(vec![
                                ("label", label.as_str().into()),
                                ("breakdown", report.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    ));
    doc.push(("smoke", smoke.into()));
    let json = obj(doc).to_pretty();
    // Cargo runs bench binaries from the package directory; anchor the
    // artifact at the workspace root regardless.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote BENCH_throughput.json"),
        Err(e) => eprintln!("\ncould not write BENCH_throughput.json: {e}"),
    }
}
