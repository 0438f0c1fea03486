//! Declarative, scenario-driven experiment grids.
//!
//! Every performance figure of the paper is a sweep over the same axes:
//! which defenses, which workloads, which Row Hammer thresholds, sometimes
//! which tracker, core count or seed. Before this module, each bench and
//! example hand-rolled those nested loops; an [`Experiment`] instead
//! *declares* the grid and [`Experiment::run`] executes every cell on a
//! worker pool, returning results in a deterministic, submission-ordered
//! sequence (see [`Experiment::scenarios`] for the enumeration order).
//!
//! The base configuration of a grid is a named [`Preset`] plus a typed
//! [`ConfigPatch`] of overrides, so every experiment is fully serializable
//! (see [`crate::spec::ExperimentSpec`] for the data form); results either
//! come back as one `Vec` ([`Experiment::run`]) or stream cell by cell into
//! a [`crate::sink::ResultSink`] ([`crate::campaign::Campaign::run`]).
//!
//! ```
//! use srs_core::DefenseKind;
//! use srs_sim::scenario::Experiment;
//! use srs_sim::spec::ConfigPatch;
//! use srs_workloads::workloads_in;
//!
//! let tiny = ConfigPatch {
//!     cores: Some(1),
//!     target_instructions: Some(2_000),
//!     trace_records_per_core: Some(1_000),
//!     max_sim_ns: Some(2_000_000),
//!     ..ConfigPatch::default()
//! };
//!
//! let results = Experiment::new()
//!     .with_defenses(vec![DefenseKind::Baseline, DefenseKind::ScaleSrs])
//!     .with_workloads(workloads_in(srs_workloads::Suite::Gups))
//!     .with_patch(tiny)
//!     .run();
//! assert_eq!(results.len(), 2);
//! assert_eq!(results[0].scenario.defense, DefenseKind::Baseline);
//! ```

use fxhash::FxHashMap;
use srs_attack::AttackSpec;
use srs_core::DefenseKind;
use srs_trackers::TrackerKind;
use srs_workloads::{all_workloads, NamedWorkload, TraceKey};

use crate::campaign::CellFailure;
use crate::config::SystemConfig;
use crate::json::{obj, Json, ToJson};
use crate::metrics::{NormalizedResult, SimResult};
use crate::runner::{
    normalize_against, parallel_for_each_ordered, parallel_map_ordered, run_isolated, run_workload,
    JobEvent,
};
use crate::spec::{ConfigPatch, Preset};

/// One cell of an experiment grid: everything needed to reproduce a single
/// simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Submission index of this scenario in the grid enumeration; results
    /// come back such that `results[i].scenario.index == i`.
    pub index: usize,
    /// The defense under test.
    pub defense: DefenseKind,
    /// Row Hammer threshold.
    pub t_rh: u64,
    /// Aggressor tracker.
    pub tracker: TrackerKind,
    /// Core-count override, or `None` for the base configuration's value.
    pub cores: Option<usize>,
    /// Seed override, or `None` for the base configuration's value.
    pub seed: Option<u64>,
    /// The attack scenario running next to the workload, or `None` for a
    /// benign cell.
    pub attack: Option<AttackSpec>,
    /// The workload to run.
    pub workload: NamedWorkload,
}

/// The outcome of one scenario: the scenario descriptor plus the
/// baseline-normalized simulation result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The grid cell that produced this result.
    pub scenario: Scenario,
    /// The normalized simulation result.
    pub result: NormalizedResult,
}

impl ScenarioResult {
    /// Normalized performance of the run (1.0 means no slowdown).
    #[must_use]
    pub fn normalized(&self) -> f64 {
        self.result.normalized_performance
    }
}

/// A declarative experiment grid: defenses × trackers × thresholds × core
/// counts × seeds × attacks × workloads, plus the worker-thread budget that
/// [`Experiment::run`] uses to execute it.
#[derive(Debug, Clone)]
pub struct Experiment {
    defenses: Vec<DefenseKind>,
    workloads: Vec<NamedWorkload>,
    thresholds: Vec<u64>,
    trackers: Vec<TrackerKind>,
    core_counts: Vec<usize>,
    seeds: Vec<u64>,
    attacks: Vec<AttackSpec>,
    threads: usize,
    share_prefixes: bool,
    telemetry: Option<crate::telemetry::TelemetryConfig>,
    faults: Option<crate::faults::FaultsConfig>,
    preset: Preset,
    patch: ConfigPatch,
}

impl Default for Experiment {
    fn default() -> Self {
        Self::new()
    }
}

impl Experiment {
    /// A grid with the paper's defaults: Scale-SRS, every workload,
    /// TRH = 1200, the Misra-Gries tracker, the base configuration's core
    /// count and seed, and the quick (`scaled_for_speed`) configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            defenses: vec![DefenseKind::ScaleSrs],
            workloads: all_workloads(),
            thresholds: vec![1200],
            trackers: vec![TrackerKind::MisraGries],
            core_counts: Vec::new(),
            seeds: Vec::new(),
            attacks: Vec::new(),
            threads: default_threads(),
            share_prefixes: true,
            telemetry: None,
            faults: None,
            preset: Preset::ScaledForSpeed,
            patch: ConfigPatch::default(),
        }
    }

    /// Sweep these defenses.
    #[must_use]
    pub fn with_defenses(mut self, defenses: Vec<DefenseKind>) -> Self {
        self.defenses = defenses;
        self
    }

    /// Sweep these workloads.
    #[must_use]
    pub fn with_workloads(mut self, workloads: Vec<NamedWorkload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Sweep these Row Hammer thresholds.
    #[must_use]
    pub fn with_thresholds(mut self, thresholds: Vec<u64>) -> Self {
        self.thresholds = thresholds;
        self
    }

    /// Sweep these aggressor trackers.
    #[must_use]
    pub fn with_trackers(mut self, trackers: Vec<TrackerKind>) -> Self {
        self.trackers = trackers;
        self
    }

    /// Sweep these core counts (an empty list keeps the base
    /// configuration's core count, as a single-cell axis).
    #[must_use]
    pub fn with_core_counts(mut self, core_counts: Vec<usize>) -> Self {
        self.core_counts = core_counts;
        self
    }

    /// Sweep these seeds (an empty list keeps the base configuration's
    /// seed, as a single-cell axis).
    #[must_use]
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sweep these attack scenarios (an empty list runs benign cells only,
    /// as a single-cell axis). Each attacked cell adds the attack's
    /// closed-loop attacker cores next to the victim trace cores and
    /// carries a [`crate::security::SecurityReport`] on its result.
    #[must_use]
    pub fn with_attacks(mut self, attacks: Vec<AttackSpec>) -> Self {
        self.attacks = attacks;
        self
    }

    /// Execute on this many worker threads; `0` means "auto" (the
    /// [`default_threads`] budget: machine parallelism capped at 8).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { default_threads() } else { threads };
        self
    }

    /// Enable or disable sharing-aware execution (default: enabled).
    ///
    /// When enabled, benign cells that differ only in defense, threshold,
    /// tracker or swap rate execute their common simulation prefix once on
    /// a shared trunk and fork at each cell's first mitigation feedback —
    /// results are bit-identical to the unshared path (the equivalence is
    /// test-enforced), only faster. Disabling it simulates every cell from
    /// scratch; useful for benchmarking the sharing itself or as a
    /// diagnostic bisect.
    #[must_use]
    pub fn with_share_prefixes(mut self, share: bool) -> Self {
        self.share_prefixes = share;
        self
    }

    /// Whether sharing-aware execution is enabled.
    #[must_use]
    pub fn share_prefixes(&self) -> bool {
        self.share_prefixes
    }

    /// Apply this telemetry configuration to every cell of the grid
    /// (`None`, the default, leaves the recorder disarmed). Arming
    /// telemetry never changes simulation results — the recorder only
    /// observes and its report rides outside the results JSON (see
    /// [`crate::telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: crate::telemetry::TelemetryConfig) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Apply this fault-model configuration to every cell of the grid
    /// (`None`, the default, leaves the end-to-end bit-flip/ECC model
    /// off). Only attacked cells build an injector, and the model is
    /// purely observational, so benign cells and every non-integrity
    /// result field are byte-identical either way.
    #[must_use]
    pub fn with_faults(mut self, faults: crate::faults::FaultsConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Build base configurations from this preset instead of the default
    /// [`Preset::ScaledForSpeed`].
    #[must_use]
    pub fn with_preset(mut self, preset: Preset) -> Self {
        self.preset = preset;
        self
    }

    /// Apply these typed overrides on top of the preset's base
    /// configuration for every cell (axis values — tracker, core count,
    /// seed, attack — are applied after the patch and win over it).
    #[must_use]
    pub fn with_patch(mut self, patch: ConfigPatch) -> Self {
        self.patch = patch;
        self
    }

    /// Number of grid cells this experiment will run.
    #[must_use]
    pub fn job_count(&self) -> usize {
        self.defenses.len()
            * self.trackers.len()
            * self.thresholds.len()
            * self.core_counts.len().max(1)
            * self.seeds.len().max(1)
            * self.attacks.len().max(1)
            * self.workloads.len()
    }

    /// Enumerate every cell of the grid, in the fixed order results are
    /// returned: defense (slowest-varying) → tracker → threshold → core
    /// count → seed → attack → workload (fastest-varying).
    ///
    /// # Panics
    ///
    /// Panics if a required axis (defenses, trackers, thresholds or
    /// workloads) is empty: unlike the optional core-count/seed axes, which
    /// fall back to the base configuration, an empty required axis would
    /// silently produce a zero-job grid whose downstream aggregates all
    /// read 1.000.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        assert!(!self.defenses.is_empty(), "experiment has no defenses to sweep");
        assert!(!self.trackers.is_empty(), "experiment has no trackers to sweep");
        assert!(!self.thresholds.is_empty(), "experiment has no thresholds to sweep");
        assert!(!self.workloads.is_empty(), "experiment has no workloads to sweep");
        let core_axis: Vec<Option<usize>> = if self.core_counts.is_empty() {
            vec![None]
        } else {
            self.core_counts.iter().map(|&c| Some(c)).collect()
        };
        let seed_axis: Vec<Option<u64>> = if self.seeds.is_empty() {
            vec![None]
        } else {
            self.seeds.iter().map(|&s| Some(s)).collect()
        };
        let attack_axis: Vec<Option<AttackSpec>> = if self.attacks.is_empty() {
            vec![None]
        } else {
            self.attacks.iter().map(|a| Some(a.clone())).collect()
        };
        let mut scenarios = Vec::with_capacity(self.job_count());
        for &defense in &self.defenses {
            for &tracker in &self.trackers {
                for &t_rh in &self.thresholds {
                    for &cores in &core_axis {
                        for &seed in &seed_axis {
                            for attack in &attack_axis {
                                for workload in &self.workloads {
                                    scenarios.push(Scenario {
                                        index: scenarios.len(),
                                        defense,
                                        t_rh,
                                        tracker,
                                        cores,
                                        seed,
                                        attack: attack.clone(),
                                        workload: workload.clone(),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        scenarios
    }

    /// The full configuration for one scenario: the preset's base
    /// configuration with the patch and then the scenario's axis values
    /// applied (axes win over the patch).
    #[must_use]
    pub fn config_for(&self, scenario: &Scenario) -> SystemConfig {
        let mut config = self.preset.base_config(scenario.defense, scenario.t_rh);
        self.patch.apply(&mut config);
        config.tracker = scenario.tracker;
        if let Some(cores) = scenario.cores {
            config.cores = cores;
        }
        if let Some(seed) = scenario.seed {
            config.seed = seed;
        }
        config.attack = scenario.attack.clone();
        if let Some(telemetry) = &self.telemetry {
            config.telemetry = telemetry.clone();
        }
        if let Some(faults) = self.faults {
            config.faults = faults;
        }
        config
    }

    /// Run every cell of the grid on the worker pool and return the results
    /// in submission order: `results[i].scenario.index == i`, with the
    /// ordering documented on [`Experiment::scenarios`]. Two runs of the
    /// same experiment produce identical result sequences.
    ///
    /// This is the collect-to-`Vec` view of the streaming engine behind
    /// [`crate::campaign::Campaign::run`] (each owned result is moved into
    /// the vector as its prefix completes); grids large enough that one
    /// end-of-run `Vec` is a problem should run as a campaign with a
    /// streaming [`crate::sink::ResultSink`] instead.
    ///
    /// # Panics
    ///
    /// Panics with `cell <i> failed: <message>` at the first cell whose
    /// simulation panicked; a campaign records such cells and goes on.
    #[must_use]
    pub fn run(&self) -> Vec<ScenarioResult> {
        let mut results = Vec::with_capacity(self.job_count());
        self.run_streaming(&ExecOptions::default(), |event| match event {
            ExecEvent::Finished(result) => results.push(result),
            ExecEvent::Failed(failure) => {
                panic!("cell {} failed: {}", failure.index, failure.error)
            }
            ExecEvent::Started(_) | ExecEvent::UnitDone(_) => {}
        });
        results
    }

    /// Partition the grid into its deterministic **execution units**: each
    /// unit is either a shared-prefix trunk group (≥ 2 benign cells with
    /// equal generated trace and equal mitigation-neutralized
    /// configuration, see [`crate::share`]) or a singleton solo cell.
    /// Units are disjoint, cover the whole grid, and are ordered by their
    /// first cell index, so two plans of the same experiment are identical.
    ///
    /// Units are the atoms of work distribution: the campaign shard planner
    /// ([`crate::campaign::plan_shards`]) never splits a unit across
    /// shards, so sharding cannot break snapshot sharing.
    ///
    /// The trace is compared by [`NamedWorkload::trace_key`], not by name:
    /// differently named workloads that generate identical records join
    /// one group, and each distinct (trace, configuration) in it simulates
    /// once. Keying by the *actual* neutralized configuration means a preset
    /// that varies non-mitigation fields per defense keeps those cells solo.
    /// Attacked and telemetry-armed cells always stay solo.
    pub(crate) fn plan_units(
        &self,
        scenarios: &[Scenario],
        configs: &[SystemConfig],
    ) -> Vec<Vec<usize>> {
        let total = scenarios.len();
        let mut group_of: Vec<Option<usize>> = vec![None; total];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if self.share_prefixes {
            let mut keys: Vec<(TraceKey, SystemConfig)> = Vec::new();
            for (i, scenario) in scenarios.iter().enumerate() {
                if scenario.attack.is_some() {
                    // The closed-loop attacker adapts to the defense's swap
                    // threshold from its first read: attacked cells have no
                    // shared prefix across the mitigation axes.
                    continue;
                }
                if configs[i].telemetry.enabled {
                    // The recorder samples the tracker it is attached to,
                    // and a trunk carries an inert one: a branch that never
                    // forks would inherit the trunk's telemetry, not its
                    // own.
                    continue;
                }
                let trace = scenario.workload.trace_key();
                let key = crate::share::neutral_key(&configs[i]);
                let g =
                    keys.iter().position(|(t, k)| *t == trace && *k == key).unwrap_or_else(|| {
                        keys.push((trace, key));
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                groups[g].push(i);
                group_of[i] = Some(g);
            }
            // A group of one shares nothing; run it on the solo path (which
            // still shares baselines across such cells).
            for members in &groups {
                if members.len() < 2 {
                    for &i in members {
                        group_of[i] = None;
                    }
                }
            }
            groups.retain(|members| members.len() >= 2);
        }
        let mut units: Vec<Vec<usize>> = groups;
        units.extend((0..total).filter(|&i| group_of[i].is_none()).map(|i| vec![i]));
        units.sort_by_key(|unit| unit[0]);
        units
    }

    /// The streaming execution core shared by [`Experiment::run`] and the
    /// campaign engine ([`crate::campaign::Campaign::run`]): `handle`
    /// receives each cell's outcome in submission order (and start
    /// notifications in completion-race order) and the number of cells
    /// executed is returned.
    ///
    /// [`ExecOptions`] selects an optional cell subset (campaign shards and
    /// resume skip-lists). Every unit runs once under
    /// [`std::panic::catch_unwind`]: a unit that panics reports
    /// [`ExecEvent::Failed`] for each of its cells, and the rest of the grid
    /// runs on.
    ///
    /// Two layers of work sharing keep a grid from re-simulating what it
    /// already knows:
    ///
    /// * **Prefix sharing** (default, see [`Experiment::with_share_prefixes`]):
    ///   benign cells that differ only in their mitigation axes (defense,
    ///   threshold, tracker, swap rate) and run the same generated trace
    ///   form a group that executes the common simulation prefix once on a
    ///   shared trunk and forks each distinct configuration at its first
    ///   mitigation feedback; the trunk doubles as the group's
    ///   normalization baseline. Results are bit-identical to from-scratch
    ///   runs (test-enforced).
    /// * **Baseline sharing**: cells outside any group (attacked cells,
    ///   singleton groups, or everything when sharing is disabled) still
    ///   deduplicate their unprotected baselines — each distinct baseline
    ///   configuration × workload is simulated once across the defense
    ///   axis.
    pub(crate) fn run_streaming(
        &self,
        opts: &ExecOptions,
        mut handle: impl FnMut(ExecEvent<'_>),
    ) -> usize {
        let scenarios = self.scenarios();
        let configs: Vec<SystemConfig> = scenarios.iter().map(|s| self.config_for(s)).collect();

        // The deterministic unit plan, restricted to the requested subset.
        // Units stay atomic under restriction: a shared-prefix group with
        // members outside the subset still shares its trunk among the
        // members inside it (run_shared_group accepts any cell subset and
        // branch results are independent, so the restriction cannot change
        // any cell's bits — enforced by tests/fork_equivalence.rs).
        let mut units = self.plan_units(&scenarios, &configs);
        if let Some(subset) = &opts.subset {
            let wanted: fxhash::FxHashSet<usize> = subset.iter().copied().collect();
            for unit in &mut units {
                unit.retain(|i| wanted.contains(i));
            }
            units.retain(|unit| !unit.is_empty());
        }
        // The cells this run will actually execute, in submission order.
        let order: Vec<usize> = {
            let mut order: Vec<usize> = units.iter().flatten().copied().collect();
            order.sort_unstable();
            order
        };
        let ran = order.len();

        // Phase 1: deduplicate and run the solo cells' baselines. A baseline
        // that panics fails every cell normalizing against it (it cannot be
        // normalized), without aborting the rest of the grid.
        let solo: Vec<usize> = units.iter().filter(|u| u.len() == 1).map(|u| u[0]).collect();
        let mut baseline_jobs: Vec<(SystemConfig, NamedWorkload)> = Vec::new();
        let mut baseline_of: FxHashMap<usize, usize> = FxHashMap::default();
        for &i in &solo {
            let mut baseline_config = configs[i].clone();
            baseline_config.defense = DefenseKind::Baseline;
            let key = baseline_jobs
                .iter()
                .position(|(c, w)| w.name == scenarios[i].workload.name && *c == baseline_config)
                .unwrap_or_else(|| {
                    baseline_jobs.push((baseline_config, scenarios[i].workload.clone()));
                    baseline_jobs.len() - 1
                });
            baseline_of.insert(i, key);
        }
        let baselines: Vec<Result<SimResult, String>> =
            parallel_map_ordered(baseline_jobs, self.threads, |(config, workload)| {
                run_isolated(None, || run_workload(&config, &workload))
            });

        // Phase 2: one job per solo cell and one per shared group, ordered
        // by first cell index; each yields its cells' outcomes.
        // Each job is moved into its worker once, so the variant size
        // asymmetry costs nothing; boxing would add a per-job allocation
        // for no benefit.
        #[allow(clippy::large_enum_variant)]
        enum Job {
            Solo {
                index: usize,
                config: SystemConfig,
                /// `(baseline_ipc, reuse)` — or the baseline's failure.
                baseline: Result<(f64, Option<SimResult>), String>,
            },
            Group {
                cells: Vec<crate::share::SharedCell>,
            },
        }
        let mut jobs: Vec<Job> = Vec::new();
        for unit in &units {
            if let [i] = unit[..] {
                let baseline = match &baselines[baseline_of[&i]] {
                    Ok(b) => Ok((
                        b.total_ipc(),
                        (scenarios[i].defense == DefenseKind::Baseline).then(|| b.clone()),
                    )),
                    Err(message) => Err(format!("baseline simulation failed: {message}")),
                };
                jobs.push(Job::Solo { index: i, config: configs[i].clone(), baseline });
            } else {
                let cells: Vec<crate::share::SharedCell> = unit
                    .iter()
                    .map(|&i| crate::share::SharedCell {
                        index: i,
                        scenario: scenarios[i].clone(),
                        config: configs[i].clone(),
                    })
                    .collect();
                jobs.push(Job::Group { cells });
            }
        }
        // Cell lists per job, for start notifications.
        let job_cells: Vec<Vec<usize>> = units.clone();

        type CellOutcome = (usize, Result<ScenarioResult, CellFailure>);
        let scenarios = &scenarios;
        let attribution = opts.attribution.clone();
        let attribution = attribution.as_ref();
        let run_solo = |index: usize, config: &SystemConfig, baseline_ipc: f64, reuse| {
            let scenario = &scenarios[index];
            let defended = match (reuse, attribution) {
                (Some(baseline), _) => baseline,
                (None, None) => run_workload(config, &scenario.workload),
                (None, Some(total)) => {
                    let (result, report) =
                        crate::runner::run_workload_attributed(config, &scenario.workload);
                    // Invariant: worker threads never panic while holding
                    // this lock (merging is a pure add), so it cannot be
                    // poisoned.
                    #[allow(clippy::expect_used)]
                    let mut merged = total.lock().expect("attribution lock");
                    *merged = merged.merged(&report);
                    result
                }
            };
            let result = normalize_against(defended, baseline_ipc, config.t_rh);
            vec![(index, ScenarioResult { scenario: scenario.clone(), result })]
        };
        // Each finished unit reports its cell outcomes plus the wall time
        // spent in the worker.
        let worker = |job: Job| -> (Vec<CellOutcome>, u64) {
            let started = std::time::Instant::now();
            let indices: Vec<usize> = match &job {
                Job::Solo { index, .. } => vec![*index],
                Job::Group { cells } => cells.iter().map(|c| c.index).collect(),
            };
            let fault = opts.fault.as_ref().map(|f| (f, indices.as_slice()));
            let outcome = match job {
                // A solo cell whose shared baseline failed has nothing to
                // normalize against.
                Job::Solo { baseline: Err(error), .. } => Err(error),
                Job::Solo { index, config, baseline: Ok((baseline_ipc, reuse)) } => {
                    run_isolated(fault, || run_solo(index, &config, baseline_ipc, reuse))
                }
                Job::Group { cells } => {
                    run_isolated(fault, || crate::share::run_shared_group(&cells))
                }
            };
            let outcomes = match outcome {
                Ok(results) => results.into_iter().map(|(i, r)| (i, Ok(r))).collect(),
                Err(error) => indices
                    .iter()
                    .map(|&index| (index, Err(CellFailure { index, error: error.clone() })))
                    .collect(),
            };
            (outcomes, u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX))
        };

        // Jobs complete in submission order, but a group's cells are
        // scattered across the grid's index space; buffer and re-emit so
        // the handler still observes the run's cell indices ascending.
        let pos_of: FxHashMap<usize, usize> =
            order.iter().enumerate().map(|(pos, &i)| (i, pos)).collect();
        let mut slots: Vec<Option<Result<ScenarioResult, CellFailure>>> =
            (0..ran).map(|_| None).collect();
        let mut next_cell = 0usize;
        parallel_for_each_ordered(jobs, self.threads, worker, |event| match event {
            JobEvent::Started(job) => {
                for &i in &job_cells[job] {
                    handle(ExecEvent::Started(&scenarios[i]));
                }
            }
            JobEvent::Finished(job, (outputs, wall_ns)) => {
                for (index, outcome) in outputs {
                    let pos = pos_of[&index];
                    debug_assert!(slots[pos].is_none(), "cell {index} produced twice");
                    slots[pos] = Some(outcome);
                }
                while next_cell < ran {
                    let Some(outcome) = slots[next_cell].take() else { break };
                    match outcome {
                        Ok(result) => handle(ExecEvent::Finished(result)),
                        Err(failure) => handle(ExecEvent::Failed(failure)),
                    }
                    next_cell += 1;
                }
                handle(ExecEvent::UnitDone(UnitStats {
                    cells: job_cells[job].clone(),
                    wall_ns,
                    attempts: 1,
                }));
            }
        });
        assert!(next_cell == ran, "grid execution left cells unfinished");
        ran
    }
}

/// Execution options for one grid run: an optional cell subset (campaign
/// shards and resume skip-lists), an optional injected fault and optional
/// attribution. The default runs the full grid.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExecOptions {
    /// Run only these grid cell indices (`None` runs every cell). Units
    /// stay atomic: a shared-prefix group restricted to a subset of its
    /// members still shares its trunk among them.
    pub(crate) subset: Option<Vec<usize>>,
    /// Deterministic fault injection for campaign failure tests.
    pub(crate) fault: Option<crate::runner::FaultInjection>,
    /// When set, every defended solo cell runs with the per-subsystem
    /// stopwatches armed ([`crate::System::run_attributed`]) and merges its
    /// breakdown into this shared report. Results stay bit-identical; only
    /// wall time is perturbed, so arm it for breakdown runs, not headline
    /// throughput. Shared-prefix groups are not attributed — callers
    /// wanting full coverage disable sharing first.
    pub(crate) attribution:
        Option<std::sync::Arc<std::sync::Mutex<crate::attribution::AttributionReport>>>,
}

/// One event of [`Experiment::run_streaming`]'s deterministic stream.
// The events are transient (matched and consumed immediately, never
// stored), so the variant size asymmetry costs nothing; boxing would add a
// per-cell allocation for no benefit.
#[allow(clippy::large_enum_variant)]
pub(crate) enum ExecEvent<'a> {
    /// A worker picked this scenario up (completion-race order).
    Started(&'a Scenario),
    /// The cell finished; delivered owned, in submission order.
    Finished(ScenarioResult),
    /// The cell's unit panicked; delivered at the cell's slot in
    /// submission order, so downstream consumers observe a gap-free
    /// ascending stream of outcomes.
    Failed(CellFailure),
    /// An execution unit (solo cell or shared-prefix group) finished,
    /// successfully or not; delivered once per unit, in unit submission
    /// order, after the unit's cell outcomes have been buffered.
    UnitDone(UnitStats),
}

/// Wall-clock accounting for one executed unit: which cells it covered and
/// how long the worker spent on it. Recorded into the campaign manifest's
/// `timings` as profiling data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitStats {
    /// Sorted grid cell indices the unit covered.
    pub cells: Vec<usize>,
    /// Wall time the worker spent executing the unit.
    pub wall_ns: u64,
    /// Always 1: every unit runs exactly once. Kept, and written to the
    /// manifest's `timings`, because the benchmark's probe and harness
    /// still read it.
    pub attempts: u32,
}

impl ToJson for UnitStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("cells", Json::Array(self.cells.iter().map(|&c| c.into()).collect())),
            ("wall_ns", self.wall_ns.into()),
            ("attempts", u64::from(self.attempts).into()),
        ])
    }
}

impl UnitStats {
    /// Decode the [`ToJson`] form.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let cells = json
            .get("cells")
            .and_then(Json::as_array)
            .ok_or("timing.cells must be an array")?
            .iter()
            .map(|c| c.as_u64().map(|v| v as usize).ok_or("timing.cells must hold integers"))
            .collect::<Result<Vec<_>, _>>()?;
        let wall_ns = json
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or("timing.wall_ns must be an integer")?;
        let attempts = json
            .get("attempts")
            .and_then(Json::as_u64)
            .ok_or("timing.attempts must be an integer")? as u32;
        Ok(Self { cells, wall_ns, attempts })
    }
}

impl ToJson for Scenario {
    fn to_json(&self) -> Json {
        obj(vec![
            ("index", self.index.into()),
            ("defense", Json::from(self.defense.to_string())),
            ("t_rh", self.t_rh.into()),
            ("tracker", Json::from(self.tracker.to_string())),
            ("cores", self.cores.into()),
            ("seed", self.seed.into()),
            ("attack", self.attack.as_ref().map_or(Json::Null, ToJson::to_json)),
            ("workload", Json::from(self.workload.name)),
            ("suite", Json::from(self.workload.suite.label())),
        ])
    }
}

impl ToJson for ScenarioResult {
    /// The JSONL record shape of a results stream: the full scenario
    /// descriptor plus the normalized result (security report included for
    /// attacked cells).
    fn to_json(&self) -> Json {
        obj(vec![("scenario", self.scenario.to_json()), ("result", self.result.to_json())])
    }
}

/// The normalized results of the cells matching a defense and threshold —
/// the per-figure grouping the benches print (pass to
/// [`crate::runner::suite_averages`]).
///
/// Returns borrowed results: the group is a view into the result set, so
/// selecting and averaging (the whole figure-printing path) never clones a
/// result record.
///
/// The group is meant to be averaged, so it must correspond to *one*
/// configuration: if the matching cells span more than one tracker, seed,
/// core count or attack (an experiment built with several values on those
/// axes), this panics rather than silently averaging unrelated runs —
/// filter with [`results_where`] on every varying axis instead.
///
/// # Panics
///
/// Panics if nothing matches (the grid never ran that defense/threshold —
/// averaging the empty group would silently print 1.000), or if the
/// matching results mix trackers, seeds, core counts or attacks.
#[must_use]
pub fn results_for(
    results: &[ScenarioResult],
    defense: DefenseKind,
    t_rh: u64,
) -> Vec<&NormalizedResult> {
    let matching: Vec<&ScenarioResult> = results
        .iter()
        .filter(|r| r.scenario.defense == defense && r.scenario.t_rh == t_rh)
        .collect();
    assert!(
        !matching.is_empty(),
        "results_for({defense}, {t_rh}) matched no cells — that defense/threshold \
         combination was not part of the experiment grid"
    );
    if let Some(first) = matching.first() {
        for r in &matching {
            assert!(
                r.scenario.tracker == first.scenario.tracker
                    && r.scenario.seed == first.scenario.seed
                    && r.scenario.cores == first.scenario.cores
                    && r.scenario.attack == first.scenario.attack,
                "results_for({defense}, {t_rh}) matched cells from more than one \
                 tracker/seed/core-count/attack configuration; group with \
                 results_where on every varying axis before averaging"
            );
        }
    }
    matching.into_iter().map(|r| &r.result).collect()
}

/// The normalized results of the cells matching an arbitrary scenario
/// predicate, for grids that sweep axes beyond defense and threshold.
/// Borrowed, like [`results_for`].
#[must_use]
pub fn results_where(
    results: &[ScenarioResult],
    predicate: impl Fn(&Scenario) -> bool,
) -> Vec<&NormalizedResult> {
    results.iter().filter(|r| predicate(&r.scenario)).map(|r| &r.result).collect()
}

/// The worker-thread budget experiments use unless overridden with
/// [`Experiment::with_threads`]: the machine's available parallelism,
/// capped at 8 (simulation jobs are memory-bound; more workers thrash).
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().min(8)).unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_workloads::Suite;

    fn tiny() -> ConfigPatch {
        ConfigPatch {
            cores: Some(1),
            target_instructions: Some(2_000),
            trace_records_per_core: Some(1_000),
            refresh_window_ns: Some(500_000),
            max_sim_ns: Some(2_000_000),
            ..ConfigPatch::default()
        }
    }

    fn two_workloads() -> Vec<NamedWorkload> {
        all_workloads().into_iter().filter(|w| w.name == "gups" || w.name == "gcc").collect()
    }

    #[test]
    fn grid_enumeration_is_defense_major_workload_minor() {
        let experiment = Experiment::new()
            .with_defenses(vec![DefenseKind::Baseline, DefenseKind::Srs])
            .with_thresholds(vec![1200, 2400])
            .with_workloads(two_workloads());
        assert_eq!(experiment.job_count(), 8);
        let scenarios = experiment.scenarios();
        assert_eq!(scenarios.len(), 8);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        assert_eq!(scenarios[0].defense, DefenseKind::Baseline);
        assert_eq!(scenarios[0].t_rh, 1200);
        // Workloads vary fastest, thresholds next, defenses slowest.
        assert_ne!(scenarios[0].workload.name, scenarios[1].workload.name);
        assert_eq!(scenarios[2].t_rh, 2400);
        assert_eq!(scenarios[4].defense, DefenseKind::Srs);
    }

    #[test]
    fn axis_overrides_reach_the_configuration() {
        let experiment = Experiment::new()
            .with_workloads(two_workloads())
            .with_core_counts(vec![2])
            .with_seeds(vec![99])
            .with_trackers(vec![TrackerKind::Hydra])
            .with_patch(tiny());
        let scenarios = experiment.scenarios();
        let config = experiment.config_for(&scenarios[0]);
        assert_eq!(config.cores, 2);
        assert_eq!(config.seed, 99);
        assert_eq!(config.tracker, TrackerKind::Hydra);
    }

    #[test]
    fn empty_axes_fall_back_to_base_config() {
        let experiment = Experiment::new().with_workloads(two_workloads()).with_patch(tiny());
        let scenarios = experiment.scenarios();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].cores, None);
        let config = experiment.config_for(&scenarios[0]);
        assert_eq!(config.cores, 1);
    }

    #[test]
    fn results_for_selects_one_cell_group() {
        let experiment = Experiment::new()
            .with_defenses(vec![DefenseKind::Baseline, DefenseKind::ScaleSrs])
            .with_workloads(workloads(Suite::Gups))
            .with_patch(tiny())
            .with_threads(2);
        let results = experiment.run();
        assert_eq!(results.len(), 2);
        let scale = results_for(&results, DefenseKind::ScaleSrs, 1200);
        assert_eq!(scale.len(), 1);
        assert_eq!(scale[0].defense, "scale-srs");
    }

    fn workloads(suite: Suite) -> Vec<NamedWorkload> {
        all_workloads().into_iter().filter(|w| w.suite == suite).collect()
    }

    #[test]
    fn shared_baselines_match_per_cell_normalization() {
        // The engine computes each distinct baseline once; the results must
        // be bit-identical to normalizing every cell independently.
        let experiment = Experiment::new()
            .with_defenses(vec![DefenseKind::Srs, DefenseKind::ScaleSrs])
            .with_workloads(two_workloads())
            .with_patch(tiny())
            .with_threads(2);
        let results = experiment.run();
        for r in &results {
            let config = experiment.config_for(&r.scenario);
            let direct = crate::runner::run_normalized(&config, &r.scenario.workload);
            assert_eq!(r.result.normalized_performance, direct.normalized_performance);
            assert_eq!(r.result.detail.swaps, direct.detail.swaps);
        }
    }

    #[test]
    fn empty_required_axis_is_rejected() {
        let experiment = Experiment::new().with_defenses(Vec::new());
        assert!(std::panic::catch_unwind(|| experiment.scenarios()).is_err());
        let experiment = Experiment::new().with_workloads(Vec::new());
        assert!(std::panic::catch_unwind(|| experiment.scenarios()).is_err());
    }

    /// A grid every cell of which panics (the controller refuses a zero
    /// queue capacity) names the first failed cell, not a worker job.
    #[test]
    #[should_panic(expected = "cell 0 failed")]
    fn a_panicking_cell_is_reported_by_cell_index() {
        let patch = ConfigPatch { queue_capacity: Some(0), ..ConfigPatch::default() };
        let _ = Experiment::new().with_patch(patch).run();
    }

    #[test]
    fn attack_axis_reaches_the_configuration_and_collects_security_reports() {
        use srs_attack::engine::{AttackPattern, AttackSpec};
        let attack = AttackSpec::new("single", AttackPattern::SingleSided { bank: 0, row: 64 });
        let experiment = Experiment::new()
            .with_defenses(vec![DefenseKind::Baseline, DefenseKind::Srs])
            .with_workloads(workloads(Suite::Gups))
            .with_attacks(vec![attack.clone()])
            .with_patch(tiny())
            .with_threads(2);
        assert_eq!(experiment.job_count(), 2);
        let scenarios = experiment.scenarios();
        assert_eq!(scenarios[0].attack.as_ref().unwrap().name, "single");
        let config = experiment.config_for(&scenarios[0]);
        assert_eq!(config.attack, Some(attack));

        let results = experiment.run();
        assert_eq!(results.len(), 2);
        for r in &results {
            let security =
                r.result.detail.security.as_ref().expect("attacked cells carry a report");
            assert_eq!(security.attack, "single");
            assert!(security.attacker_reads > 0);
        }
        // The undefended baseline must be broken; SRS must hold.
        assert!(results[0].result.detail.security.as_ref().unwrap().trh_crossed);
        assert!(!results[1].result.detail.security.as_ref().unwrap().trh_crossed);
    }

    #[test]
    fn results_for_rejects_absent_groups() {
        let experiment =
            Experiment::new().with_workloads(two_workloads()).with_patch(tiny()).with_threads(2);
        let results = experiment.run();
        // The grid ran Scale-SRS at 1200 only; asking for RRS must be loud,
        // not an empty group that averages to a fake 1.000.
        let absent = std::panic::catch_unwind(|| {
            results_for(&results, DefenseKind::Rrs { immediate_unswap: true }, 1200)
        });
        assert!(absent.is_err());
    }

    #[test]
    fn results_for_rejects_mixed_axes_and_results_where_selects_them() {
        let experiment = Experiment::new()
            .with_workloads(workloads(Suite::Gups))
            .with_trackers(vec![TrackerKind::MisraGries, TrackerKind::Hydra])
            .with_patch(tiny())
            .with_threads(2);
        let results = experiment.run();
        assert_eq!(results.len(), 2);
        // Grouping by (defense, t_rh) alone would average two trackers.
        let grouped =
            std::panic::catch_unwind(|| results_for(&results, DefenseKind::ScaleSrs, 1200));
        assert!(grouped.is_err(), "mixed-tracker group must be rejected");
        // The predicate form selects one tracker's cells cleanly.
        let hydra = results_where(&results, |s| s.tracker == TrackerKind::Hydra);
        assert_eq!(hydra.len(), 1);
    }
}
