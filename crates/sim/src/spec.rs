//! The declarative, serializable experiment contract.
//!
//! An [`ExperimentSpec`] is the data form of an [`Experiment`]: every axis
//! is named through a registry (defenses, trackers, workload selectors,
//! attack patterns, config presets) and the base configuration is a
//! [`Preset`] plus a typed [`ConfigPatch`] of overrides, so a whole sweep —
//! including the paper's figure grids — can be written to a JSON file,
//! shipped, diffed and re-run with zero recompilation (`srs-cli run
//! spec.json`). [`ExperimentSpec::to_experiment`] resolves the names and
//! yields the exact same grid the builder API produces.
//!
//! Unknown names never panic: resolution returns a [`SpecError`] that lists
//! the valid names for the offending registry.
//!
//! ```
//! use srs_sim::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::parse(
//!     r#"{
//!         "name": "tiny",
//!         "preset": "scaled_for_speed",
//!         "patch": {"cores": 1, "target_instructions": 2000,
//!                   "trace_records_per_core": 1000, "max_sim_ns": 2000000},
//!         "defenses": ["baseline", "scale-srs"],
//!         "workloads": ["suite:gups"]
//!     }"#,
//! )
//! .unwrap();
//! let experiment = spec.to_experiment().unwrap();
//! assert_eq!(experiment.job_count(), 2);
//! ```

use srs_attack::engine::shipped_patterns;
use srs_attack::AttackSpec;
use srs_core::DefenseKind;
use srs_dram::PagePolicy;
use srs_trackers::TrackerKind;
use srs_workloads::{all_workloads, hot_row_workloads, workloads_in, NamedWorkload, Suite};

use crate::config::SystemConfig;
use crate::faults::FaultsConfig;
use crate::json::{obj, Json, JsonError, ToJson};
use crate::scenario::Experiment;
use crate::telemetry::TelemetryConfig;

/// A named base-configuration recipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preset {
    /// The paper's full-size Table III configuration
    /// ([`SystemConfig::paper_default`]).
    Paper,
    /// The scaled-down configuration tests and quick benchmark sweeps use
    /// ([`SystemConfig::scaled_for_speed`]).
    #[default]
    ScaledForSpeed,
}

impl Preset {
    /// The registry name of this preset.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Preset::Paper => "paper",
            Preset::ScaledForSpeed => "scaled_for_speed",
        }
    }

    /// The base configuration this preset builds for one grid cell.
    #[must_use]
    pub fn base_config(self, defense: DefenseKind, t_rh: u64) -> SystemConfig {
        match self {
            Preset::Paper => SystemConfig::paper_default(defense, t_rh),
            Preset::ScaledForSpeed => SystemConfig::scaled_for_speed(defense, t_rh),
        }
    }
}

impl std::fmt::Display for Preset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Typed overrides applied on top of a [`Preset`]'s base configuration.
/// Every field is optional; `None` keeps the preset's value.
///
/// Axis values swept by the grid ([`crate::scenario::Scenario::cores`],
/// [`crate::scenario::Scenario::seed`]) are applied *after* the patch, so an
/// explicit `core_counts`/`seeds` sweep wins over a patched value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigPatch {
    /// Number of cores.
    pub cores: Option<usize>,
    /// Instructions each core retires before reporting finished.
    pub target_instructions: Option<u64>,
    /// Maximum reads a core keeps outstanding.
    pub max_outstanding_misses: Option<usize>,
    /// Trace records generated per core.
    pub trace_records_per_core: Option<usize>,
    /// Refresh-window length in nanoseconds.
    pub refresh_window_ns: Option<u64>,
    /// Hard cap on simulated time in nanoseconds.
    pub max_sim_ns: Option<u64>,
    /// Workload/defense randomness seed.
    pub seed: Option<u64>,
    /// Swap-rate override (`TRH / TS`).
    pub swap_rate: Option<u64>,
    /// Latency of an access served from a pinned LLC row, in nanoseconds.
    pub llc_hit_latency_ns: Option<u64>,
    /// Capacity of each per-bank transaction queue.
    pub queue_capacity: Option<usize>,
    /// Rows per DRAM bank.
    pub rows_per_bank: Option<u64>,
    /// Banks per rank.
    pub banks_per_rank: Option<usize>,
    /// Row-buffer management policy.
    pub page_policy: Option<PagePolicy>,
}

impl ConfigPatch {
    /// Whether the patch overrides anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Apply every set override to `config`.
    pub fn apply(&self, config: &mut SystemConfig) {
        if let Some(cores) = self.cores {
            config.cores = cores;
        }
        if let Some(instructions) = self.target_instructions {
            config.core.target_instructions = instructions;
        }
        if let Some(misses) = self.max_outstanding_misses {
            config.core.max_outstanding_misses = misses;
        }
        if let Some(records) = self.trace_records_per_core {
            config.trace_records_per_core = records;
        }
        if let Some(window) = self.refresh_window_ns {
            config.dram.refresh_window_ns = window;
        }
        if let Some(cap) = self.max_sim_ns {
            config.max_sim_ns = cap;
        }
        if let Some(seed) = self.seed {
            config.seed = seed;
        }
        if let Some(rate) = self.swap_rate {
            config.swap_rate = Some(rate);
        }
        if let Some(latency) = self.llc_hit_latency_ns {
            config.llc_hit_latency_ns = latency;
        }
        if let Some(capacity) = self.queue_capacity {
            config.dram.queue_capacity = capacity;
        }
        if let Some(rows) = self.rows_per_bank {
            config.dram.rows_per_bank = rows;
        }
        if let Some(banks) = self.banks_per_rank {
            config.dram.banks_per_rank = banks;
        }
        if let Some(policy) = self.page_policy {
            config.dram.page_policy = policy;
        }
    }

    /// Decode a patch from its JSON object form; unknown keys are errors.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let pairs = json
            .as_object()
            .ok_or_else(|| SpecError::field("patch", "must be an object of overrides"))?;
        let mut patch = Self::default();
        for (key, value) in pairs {
            let field = || format!("patch.{key}");
            match key.as_str() {
                "cores" => patch.cores = Some(usize_field(&field(), value)?),
                "target_instructions" => {
                    patch.target_instructions = Some(u64_field(&field(), value)?);
                }
                "max_outstanding_misses" => {
                    patch.max_outstanding_misses = Some(usize_field(&field(), value)?);
                }
                "trace_records_per_core" => {
                    patch.trace_records_per_core = Some(usize_field(&field(), value)?);
                }
                "refresh_window_ns" => patch.refresh_window_ns = Some(u64_field(&field(), value)?),
                "max_sim_ns" => patch.max_sim_ns = Some(u64_field(&field(), value)?),
                "seed" => patch.seed = Some(u64_field(&field(), value)?),
                "swap_rate" => patch.swap_rate = Some(u64_field(&field(), value)?),
                "llc_hit_latency_ns" => {
                    patch.llc_hit_latency_ns = Some(u64_field(&field(), value)?);
                }
                "queue_capacity" => patch.queue_capacity = Some(usize_field(&field(), value)?),
                "rows_per_bank" => patch.rows_per_bank = Some(u64_field(&field(), value)?),
                "banks_per_rank" => patch.banks_per_rank = Some(usize_field(&field(), value)?),
                "page_policy" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::field(field(), "must be a string"))?;
                    patch.page_policy = Some(parse_page_policy(name)?);
                }
                _ => {
                    return Err(SpecError::UnknownName {
                        field: "patch",
                        name: key.clone(),
                        valid: PATCH_KEYS.iter().map(ToString::to_string).collect(),
                    });
                }
            }
        }
        Ok(patch)
    }
}

/// The patch keys [`ConfigPatch::from_json`] accepts, in encode order.
const PATCH_KEYS: &[&str] = &[
    "cores",
    "target_instructions",
    "max_outstanding_misses",
    "trace_records_per_core",
    "refresh_window_ns",
    "max_sim_ns",
    "seed",
    "swap_rate",
    "llc_hit_latency_ns",
    "queue_capacity",
    "rows_per_bank",
    "banks_per_rank",
    "page_policy",
];

impl ToJson for ConfigPatch {
    /// Encode only the set overrides, in `PATCH_KEYS` order.
    fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        let mut push = |key: &str, value: Option<Json>| {
            if let Some(value) = value {
                pairs.push((key.to_string(), value));
            }
        };
        push("cores", self.cores.map(Json::from));
        push("target_instructions", self.target_instructions.map(Json::from));
        push("max_outstanding_misses", self.max_outstanding_misses.map(Json::from));
        push("trace_records_per_core", self.trace_records_per_core.map(Json::from));
        push("refresh_window_ns", self.refresh_window_ns.map(Json::from));
        push("max_sim_ns", self.max_sim_ns.map(Json::from));
        push("seed", self.seed.map(Json::from));
        push("swap_rate", self.swap_rate.map(Json::from));
        push("llc_hit_latency_ns", self.llc_hit_latency_ns.map(Json::from));
        push("queue_capacity", self.queue_capacity.map(Json::from));
        push("rows_per_bank", self.rows_per_bank.map(Json::from));
        push("banks_per_rank", self.banks_per_rank.map(Json::from));
        push("page_policy", self.page_policy.map(|p| Json::from(page_policy_name(p))));
        Json::Object(pairs)
    }
}

/// A fully serializable experiment: named registry entries on every axis
/// plus a preset-and-patch base configuration. The JSON form is the
/// `srs-cli run` input format; every field except `name` may be omitted, in
/// which case the [`Experiment::new`] defaults apply.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Human-readable name of the experiment (reports and file stems).
    pub name: String,
    /// Base-configuration preset.
    pub preset: Preset,
    /// Overrides applied on top of the preset.
    pub patch: ConfigPatch,
    /// Defense registry names to sweep (see [`defense_names`]).
    pub defenses: Vec<String>,
    /// Tracker registry names to sweep (see [`tracker_names`]).
    pub trackers: Vec<String>,
    /// Row Hammer thresholds to sweep.
    pub thresholds: Vec<u64>,
    /// Core-count axis (empty keeps the base configuration's count).
    pub core_counts: Vec<usize>,
    /// Seed axis (empty keeps the base configuration's seed).
    pub seeds: Vec<u64>,
    /// Attack registry names to sweep (empty runs benign cells only; see
    /// [`attack_names`]).
    pub attacks: Vec<String>,
    /// Workload selectors: workload names, `suite:<name>`, `hot-rows` or
    /// `all` (see [`resolve_workloads`]).
    pub workloads: Vec<String>,
    /// Worker-thread budget; `None` uses the engine default.
    pub threads: Option<usize>,
    /// Sharing-aware execution: benign cells differing only in their
    /// mitigation axes execute their common simulation prefix once and
    /// fork at each cell's first mitigation feedback (bit-identical to the
    /// unshared plan, just faster). Defaults to `true`; `srs-cli run
    /// --no-share` (or `"share_prefixes": false`) forces the from-scratch
    /// plan.
    pub share_prefixes: bool,
    /// Telemetry configuration applied to every cell, or `None` to leave
    /// the recorder disarmed. Arming it never changes results — the results
    /// JSONL stream is byte-identical either way (see [`crate::telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
    /// Fault-model configuration applied to every cell, or `None` to leave
    /// the end-to-end bit-flip/ECC model off. Only attacked cells ever
    /// build an injector; the model is purely observational either way.
    pub faults: Option<FaultsConfig>,
    /// Adaptive attack-search budget and operator rates, or `None` when the
    /// spec is a plain grid campaign. Consumed by `srs-cli search` (see
    /// [`crate::search`]); ignored by `run`.
    pub search: Option<SearchSpec>,
}

impl Default for ExperimentSpec {
    /// Mirrors [`Experiment::new`]: Scale-SRS, Misra-Gries, TRH 1200, every
    /// workload, the scaled-for-speed preset, no patch.
    fn default() -> Self {
        Self {
            name: "unnamed".to_string(),
            preset: Preset::ScaledForSpeed,
            patch: ConfigPatch::default(),
            defenses: vec!["scale-srs".to_string()],
            trackers: vec!["misra-gries".to_string()],
            thresholds: vec![1200],
            core_counts: Vec::new(),
            seeds: Vec::new(),
            attacks: Vec::new(),
            workloads: vec!["all".to_string()],
            threads: None,
            share_prefixes: true,
            telemetry: None,
            faults: None,
            search: None,
        }
    }
}

impl ExperimentSpec {
    /// Parse a spec from its JSON text form.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Decode a spec from a parsed JSON document; unknown keys are errors.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let pairs = json
            .as_object()
            .ok_or_else(|| SpecError::field("spec", "the document must be a JSON object"))?;
        let mut spec = Self::default();
        for (key, value) in pairs {
            match key.as_str() {
                "name" => {
                    spec.name = value
                        .as_str()
                        .ok_or_else(|| SpecError::field("name", "must be a string"))?
                        .to_string();
                }
                "preset" => {
                    let name = value
                        .as_str()
                        .ok_or_else(|| SpecError::field("preset", "must be a string"))?;
                    spec.preset = parse_preset(name)?;
                }
                "patch" => spec.patch = ConfigPatch::from_json(value)?,
                "defenses" => spec.defenses = string_list("defenses", value)?,
                "trackers" => spec.trackers = string_list("trackers", value)?,
                "thresholds" => spec.thresholds = u64_list("thresholds", value)?,
                "core_counts" => {
                    spec.core_counts =
                        u64_list("core_counts", value)?.into_iter().map(|v| v as usize).collect();
                }
                "seeds" => spec.seeds = u64_list("seeds", value)?,
                "attacks" => spec.attacks = string_list("attacks", value)?,
                "workloads" => spec.workloads = string_list("workloads", value)?,
                "threads" => spec.threads = Some(usize_field("threads", value)?),
                "share_prefixes" => {
                    spec.share_prefixes = bool_field("share_prefixes", value)?;
                }
                "telemetry" => {
                    spec.telemetry =
                        Some(TelemetryConfig::from_json(value).map_err(|message| {
                            SpecError::Field { field: "telemetry".to_string(), message }
                        })?);
                }
                "faults" => {
                    spec.faults = Some(FaultsConfig::from_json(value).map_err(|message| {
                        SpecError::Field { field: "faults".to_string(), message }
                    })?);
                }
                "search" => spec.search = Some(SearchSpec::from_json(value)?),
                _ => {
                    return Err(SpecError::UnknownName {
                        field: "spec",
                        name: key.clone(),
                        valid: SPEC_KEYS.iter().map(ToString::to_string).collect(),
                    });
                }
            }
        }
        Ok(spec)
    }

    /// Pretty-printed JSON text of this spec (the on-disk format).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Resolve every registry name and build the equivalent [`Experiment`].
    ///
    /// Unlike the builder API (whose [`Experiment::scenarios`] panics on an
    /// empty required axis), resolution reports empty axes, unknown names,
    /// a patched DRAM geometry that fails `DramConfig::validate` and a
    /// `search.cell` outside the grid as structured [`SpecError`]s, so a bad
    /// spec file is a diagnosable user error rather than a crash or a grid
    /// of failed cells.
    pub fn to_experiment(&self) -> Result<Experiment, SpecError> {
        let defenses: Vec<DefenseKind> =
            self.defenses.iter().map(|n| parse_defense(n)).collect::<Result<_, _>>()?;
        let trackers: Vec<TrackerKind> =
            self.trackers.iter().map(|n| parse_tracker(n)).collect::<Result<_, _>>()?;
        let attacks: Vec<AttackSpec> =
            self.attacks.iter().map(|n| parse_attack(n)).collect::<Result<_, _>>()?;
        let workloads = resolve_workloads(&self.workloads)?;
        for (field, empty) in [
            ("defenses", defenses.is_empty()),
            ("trackers", trackers.is_empty()),
            ("thresholds", self.thresholds.is_empty()),
            ("workloads", workloads.is_empty()),
        ] {
            if empty {
                return Err(SpecError::EmptyAxis(field));
            }
        }
        // Only the preset and the patch set the DRAM geometry; no axis
        // changes it, so one check refuses a geometry every cell would.
        let mut base = self.preset.base_config(defenses[0], self.thresholds[0]);
        self.patch.apply(&mut base);
        base.dram.validate().map_err(|e| SpecError::field("patch", e.to_string()))?;
        let mut experiment = Experiment::new()
            .with_defenses(defenses)
            .with_trackers(trackers)
            .with_thresholds(self.thresholds.clone())
            .with_core_counts(self.core_counts.clone())
            .with_seeds(self.seeds.clone())
            .with_attacks(attacks)
            .with_workloads(workloads)
            .with_preset(self.preset)
            .with_patch(self.patch.clone())
            .with_share_prefixes(self.share_prefixes);
        if let Some(telemetry) = &self.telemetry {
            experiment = experiment.with_telemetry(telemetry.clone());
        }
        if let Some(faults) = self.faults {
            experiment = experiment.with_faults(faults);
        }
        if let Some(threads) = self.threads {
            experiment = experiment.with_threads(threads);
        }
        if let Some(search) = &self.search {
            let cells = experiment.job_count();
            if search.cell >= cells {
                return Err(SpecError::field(
                    "search.cell",
                    format!(
                        "{} is out of range: '{}' resolves to {cells} cells",
                        search.cell, self.name
                    ),
                ));
            }
        }
        Ok(experiment)
    }
}

/// The top-level keys [`ExperimentSpec::from_json`] accepts.
const SPEC_KEYS: &[&str] = &[
    "name",
    "preset",
    "patch",
    "defenses",
    "trackers",
    "thresholds",
    "core_counts",
    "seeds",
    "attacks",
    "workloads",
    "threads",
    "share_prefixes",
    "telemetry",
    "faults",
    "search",
];

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::from(self.name.as_str())),
            ("preset", Json::from(self.preset.name())),
            ("patch", self.patch.to_json()),
            ("defenses", str_array(&self.defenses)),
            ("trackers", str_array(&self.trackers)),
            ("thresholds", Json::Array(self.thresholds.iter().map(|&v| v.into()).collect())),
            ("core_counts", Json::Array(self.core_counts.iter().map(|&v| v.into()).collect())),
            ("seeds", Json::Array(self.seeds.iter().map(|&v| v.into()).collect())),
            ("attacks", str_array(&self.attacks)),
            ("workloads", str_array(&self.workloads)),
        ];
        if let Some(threads) = self.threads {
            pairs.push(("threads", threads.into()));
        }
        pairs.push(("share_prefixes", self.share_prefixes.into()));
        // Emitted only when set, so specs written before telemetry existed
        // keep their byte-exact round trip.
        if let Some(telemetry) = &self.telemetry {
            pairs.push(("telemetry", telemetry.to_json()));
        }
        if let Some(faults) = &self.faults {
            pairs.push(("faults", faults.to_json()));
        }
        if let Some(search) = &self.search {
            pairs.push(("search", search.to_json()));
        }
        obj(pairs)
    }
}

/// The `search` block of a spec: budget, operator rates and warm-up
/// horizon of one adaptive attack-search campaign (see [`crate::search`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// Candidates evaluated per generation.
    pub population: usize,
    /// Generations to run.
    pub generations: usize,
    /// Simulated time the benign system is warmed to before the first
    /// candidate fork.
    pub warmup_ns: u64,
    /// Master seed of the search (breeding RNG, candidate seeds).
    pub seed: u64,
    /// Top candidates copied unchanged into the next generation.
    pub elites: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Offspring crossover probability.
    pub crossover_rate: f64,
    /// Grid cell of the spec the search targets (defense, TRH, workload).
    pub cell: usize,
}

impl Default for SearchSpec {
    fn default() -> Self {
        Self {
            population: 8,
            generations: 4,
            warmup_ns: 500_000,
            seed: 0x5EA2C4,
            elites: 2,
            mutation_rate: 0.35,
            crossover_rate: 0.5,
            cell: 0,
        }
    }
}

/// The keys [`SearchSpec::from_json`] accepts.
const SEARCH_KEYS: &[&str] = &[
    "population",
    "generations",
    "warmup_ns",
    "seed",
    "elites",
    "mutation_rate",
    "crossover_rate",
    "cell",
];

impl SearchSpec {
    /// Decode a `search` block; unknown keys are errors.
    pub fn from_json(json: &Json) -> Result<Self, SpecError> {
        let pairs =
            json.as_object().ok_or_else(|| SpecError::field("search", "must be a JSON object"))?;
        let mut spec = Self::default();
        for (key, value) in pairs {
            match key.as_str() {
                "population" => spec.population = usize_field("search.population", value)?,
                "generations" => spec.generations = usize_field("search.generations", value)?,
                "warmup_ns" => spec.warmup_ns = u64_field("search.warmup_ns", value)?,
                "seed" => spec.seed = u64_field("search.seed", value)?,
                "elites" => spec.elites = usize_field("search.elites", value)?,
                "mutation_rate" => {
                    spec.mutation_rate = f64_field("search.mutation_rate", value)?;
                }
                "crossover_rate" => {
                    spec.crossover_rate = f64_field("search.crossover_rate", value)?;
                }
                "cell" => spec.cell = usize_field("search.cell", value)?,
                _ => {
                    return Err(SpecError::UnknownName {
                        field: "search",
                        name: key.clone(),
                        valid: SEARCH_KEYS.iter().map(ToString::to_string).collect(),
                    });
                }
            }
        }
        spec.check_budget()?;
        Ok(spec)
    }

    /// Refuse a block with nothing to search: a zero population or
    /// generation budget, whether read from a file or set afterwards.
    pub(crate) fn check_budget(&self) -> Result<(), SpecError> {
        if self.population == 0 {
            return Err(SpecError::field("search.population", "must be at least 1"));
        }
        if self.generations == 0 {
            return Err(SpecError::field("search.generations", "must be at least 1"));
        }
        Ok(())
    }

    /// The operator configuration this block describes, as the attack
    /// crate's search engine consumes it.
    #[must_use]
    pub fn to_search_config(&self) -> srs_attack::search::SearchConfig {
        srs_attack::search::SearchConfig {
            population: self.population,
            generations: self.generations,
            elites: self.elites,
            mutation_rate: self.mutation_rate,
            crossover_rate: self.crossover_rate,
            seed: self.seed,
        }
    }
}

impl ToJson for SearchSpec {
    fn to_json(&self) -> Json {
        obj(vec![
            ("population", self.population.into()),
            ("generations", self.generations.into()),
            ("warmup_ns", self.warmup_ns.into()),
            ("seed", self.seed.into()),
            ("elites", self.elites.into()),
            ("mutation_rate", self.mutation_rate.into()),
            ("crossover_rate", self.crossover_rate.into()),
            ("cell", self.cell.into()),
        ])
    }
}

/// Everything that can go wrong turning spec text into an [`Experiment`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// A registry name (or object key) that no registry entry matches,
    /// together with the names that would have been accepted.
    UnknownName {
        /// Which registry or object was being resolved.
        field: &'static str,
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry accepts.
        valid: Vec<String>,
    },
    /// A field with the wrong JSON shape (type or range).
    Field {
        /// Dotted path of the offending field.
        field: String,
        /// What the field must look like.
        message: String,
    },
    /// A required axis resolved to zero entries.
    EmptyAxis(&'static str),
}

impl SpecError {
    pub(crate) fn field(field: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError::Field { field: field.into(), message: message.into() }
    }
}

impl From<JsonError> for SpecError {
    fn from(err: JsonError) -> Self {
        SpecError::Json(err)
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Json(err) => write!(f, "{err}"),
            SpecError::UnknownName { field, name, valid } => {
                write!(f, "unknown {field} name \"{name}\"; valid names: {}", valid.join(", "))
            }
            SpecError::Field { field, message } => write!(f, "invalid field {field}: {message}"),
            SpecError::EmptyAxis(field) => {
                write!(f, "the {field} axis resolved to zero entries; the grid would be empty")
            }
        }
    }
}

impl std::error::Error for SpecError {}

// ---------------------------------------------------------------------------
// Registries.

/// Every defense name [`parse_defense`] accepts, in sweep-canonical order.
#[must_use]
pub fn defense_names() -> Vec<&'static str> {
    DEFENSES.iter().map(|&(name, _)| name).collect()
}

const DEFENSES: &[(&str, DefenseKind)] = &[
    ("baseline", DefenseKind::Baseline),
    ("rrs", DefenseKind::Rrs { immediate_unswap: true }),
    ("rrs-no-unswap", DefenseKind::Rrs { immediate_unswap: false }),
    ("srs", DefenseKind::Srs),
    ("scale-srs", DefenseKind::ScaleSrs),
];

/// Resolve a defense registry name (the [`DefenseKind`] display names).
pub fn parse_defense(name: &str) -> Result<DefenseKind, SpecError> {
    DEFENSES.iter().find(|&&(n, _)| n == name).map(|&(_, kind)| kind).ok_or_else(|| {
        SpecError::UnknownName {
            field: "defense",
            name: name.to_string(),
            valid: defense_names().iter().map(ToString::to_string).collect(),
        }
    })
}

/// Every tracker name [`parse_tracker`] accepts.
#[must_use]
pub fn tracker_names() -> Vec<&'static str> {
    TRACKERS.iter().map(|&(name, _)| name).collect()
}

const TRACKERS: &[(&str, TrackerKind)] =
    &[("misra-gries", TrackerKind::MisraGries), ("hydra", TrackerKind::Hydra)];

/// Resolve a tracker registry name (the [`TrackerKind`] display names).
pub fn parse_tracker(name: &str) -> Result<TrackerKind, SpecError> {
    TRACKERS.iter().find(|&&(n, _)| n == name).map(|&(_, kind)| kind).ok_or_else(|| {
        SpecError::UnknownName {
            field: "tracker",
            name: name.to_string(),
            valid: tracker_names().iter().map(ToString::to_string).collect(),
        }
    })
}

/// Every preset name [`parse_preset`] accepts.
#[must_use]
pub fn preset_names() -> Vec<&'static str> {
    vec![Preset::Paper.name(), Preset::ScaledForSpeed.name()]
}

/// Resolve a preset registry name.
pub fn parse_preset(name: &str) -> Result<Preset, SpecError> {
    match name {
        "paper" => Ok(Preset::Paper),
        "scaled_for_speed" => Ok(Preset::ScaledForSpeed),
        _ => Err(SpecError::UnknownName {
            field: "preset",
            name: name.to_string(),
            valid: preset_names().iter().map(ToString::to_string).collect(),
        }),
    }
}

/// Every attack name [`parse_attack`] accepts (the shipped pattern library).
#[must_use]
pub fn attack_names() -> Vec<String> {
    shipped_patterns().into_iter().map(|a| a.name).collect()
}

/// Resolve an attack registry name to its shipped [`AttackSpec`].
pub fn parse_attack(name: &str) -> Result<AttackSpec, SpecError> {
    shipped_patterns().into_iter().find(|a| a.name == name).ok_or_else(|| SpecError::UnknownName {
        field: "attack",
        name: name.to_string(),
        valid: attack_names(),
    })
}

const SUITES: &[(&str, Suite)] = &[
    ("gups", Suite::Gups),
    ("spec2006", Suite::Spec2006),
    ("spec2017", Suite::Spec2017),
    ("gap", Suite::Gap),
    ("commercial", Suite::Commercial),
    ("parsec", Suite::Parsec),
    ("biobench", Suite::Biobench),
    ("mix", Suite::Mix),
];

/// Every workload selector [`resolve_workloads`] accepts: the special
/// selectors first, then one `suite:<name>` per suite, then all 78 workload
/// names.
#[must_use]
pub fn workload_selector_names() -> Vec<String> {
    let mut names = vec!["all".to_string(), "hot-rows".to_string()];
    names.extend(SUITES.iter().map(|(n, _)| format!("suite:{n}")));
    names.extend(all_workloads().iter().map(|w| w.name.to_string()));
    names
}

/// Resolve a list of workload selectors into concrete workloads, in
/// selector order, deduplicated by name (first occurrence wins). Selectors:
/// `all`, `hot-rows`, `suite:<gups|spec2006|spec2017|gap|commercial|parsec|
/// biobench|mix>`, or an exact workload name.
pub fn resolve_workloads(selectors: &[String]) -> Result<Vec<NamedWorkload>, SpecError> {
    let mut resolved: Vec<NamedWorkload> = Vec::new();
    let add = |workloads: Vec<NamedWorkload>, resolved: &mut Vec<NamedWorkload>| {
        for w in workloads {
            if !resolved.iter().any(|r| r.name == w.name) {
                resolved.push(w);
            }
        }
    };
    for selector in selectors {
        if selector == "all" {
            add(all_workloads(), &mut resolved);
        } else if selector == "hot-rows" {
            add(hot_row_workloads(), &mut resolved);
        } else if let Some(suite_name) = selector.strip_prefix("suite:") {
            let suite =
                SUITES.iter().find(|&&(n, _)| n == suite_name).map(|&(_, s)| s).ok_or_else(
                    || SpecError::UnknownName {
                        field: "workload",
                        name: selector.clone(),
                        valid: workload_selector_names(),
                    },
                )?;
            add(workloads_in(suite), &mut resolved);
        } else if let Some(w) = all_workloads().into_iter().find(|w| w.name == *selector) {
            add(vec![w], &mut resolved);
        } else {
            return Err(SpecError::UnknownName {
                field: "workload",
                name: selector.clone(),
                valid: workload_selector_names(),
            });
        }
    }
    Ok(resolved)
}

impl ToJson for AttackSpec {
    fn to_json(&self) -> Json {
        use srs_attack::engine::AttackPattern;
        let pattern = match self.pattern {
            AttackPattern::SingleSided { bank, row } => obj(vec![
                ("kind", "single-sided".into()),
                ("bank", bank.into()),
                ("row", row.into()),
            ]),
            AttackPattern::DoubleSided { bank, victim } => obj(vec![
                ("kind", "double-sided".into()),
                ("bank", bank.into()),
                ("victim", victim.into()),
            ]),
            AttackPattern::NSided { bank, first, aggressors, pitch } => obj(vec![
                ("kind", "n-sided".into()),
                ("bank", bank.into()),
                ("first", first.into()),
                ("aggressors", aggressors.into()),
                ("pitch", pitch.into()),
            ]),
            AttackPattern::Juggernaut { banks, aggressor, bias_rounds } => obj(vec![
                ("kind", "juggernaut".into()),
                ("banks", banks.into()),
                ("aggressor", aggressor.into()),
                ("bias_rounds", bias_rounds.into()),
            ]),
            AttackPattern::Blacksmith {
                bank,
                region_base,
                region_rows,
                aggressors,
                max_intensity,
            } => obj(vec![
                ("kind", "blacksmith".into()),
                ("bank", bank.into()),
                ("region_base", region_base.into()),
                ("region_rows", region_rows.into()),
                ("aggressors", aggressors.into()),
                ("max_intensity", max_intensity.into()),
            ]),
        };
        obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("pattern", pattern),
            ("attacker_cores", self.attacker_cores.into()),
            ("seed", self.seed.into()),
            ("stop_at_first_crossing", self.stop_at_first_crossing.into()),
        ])
    }
}

/// Decode an inline [`AttackSpec`] from the object form [`ToJson`] emits.
pub fn attack_spec_from_json(json: &Json) -> Result<AttackSpec, SpecError> {
    use srs_attack::engine::AttackPattern;
    let pattern_json = require(json, "pattern")?;
    let kind = str_field("pattern.kind", require(pattern_json, "kind")?)?;
    let field = |name: &str| -> Result<u64, SpecError> {
        u64_field(&format!("pattern.{name}"), require(pattern_json, name)?)
    };
    let pattern = match kind {
        "single-sided" => {
            AttackPattern::SingleSided { bank: field("bank")? as usize, row: field("row")? }
        }
        "double-sided" => {
            AttackPattern::DoubleSided { bank: field("bank")? as usize, victim: field("victim")? }
        }
        "n-sided" => AttackPattern::NSided {
            bank: field("bank")? as usize,
            first: field("first")?,
            aggressors: field("aggressors")?,
            pitch: field("pitch")?,
        },
        "juggernaut" => AttackPattern::Juggernaut {
            banks: field("banks")? as usize,
            aggressor: field("aggressor")?,
            bias_rounds: field("bias_rounds")?,
        },
        "blacksmith" => AttackPattern::Blacksmith {
            bank: field("bank")? as usize,
            region_base: field("region_base")?,
            region_rows: field("region_rows")?,
            aggressors: field("aggressors")?,
            max_intensity: field("max_intensity")?,
        },
        other => {
            return Err(SpecError::UnknownName {
                field: "pattern.kind",
                name: other.to_string(),
                valid: ["single-sided", "double-sided", "n-sided", "juggernaut", "blacksmith"]
                    .map(String::from)
                    .to_vec(),
            });
        }
    };
    Ok(AttackSpec {
        name: str_field("name", require(json, "name")?)?.to_string(),
        pattern,
        attacker_cores: usize_field("attacker_cores", require(json, "attacker_cores")?)?,
        seed: u64_field("seed", require(json, "seed")?)?,
        stop_at_first_crossing: bool_field(
            "stop_at_first_crossing",
            require(json, "stop_at_first_crossing")?,
        )?,
    })
}

fn page_policy_name(policy: PagePolicy) -> &'static str {
    match policy {
        PagePolicy::ClosedPage => "closed-page",
        PagePolicy::OpenPage => "open-page",
    }
}

fn parse_page_policy(name: &str) -> Result<PagePolicy, SpecError> {
    match name {
        "closed-page" => Ok(PagePolicy::ClosedPage),
        "open-page" => Ok(PagePolicy::OpenPage),
        _ => Err(SpecError::UnknownName {
            field: "page_policy",
            name: name.to_string(),
            valid: vec!["closed-page".to_string(), "open-page".to_string()],
        }),
    }
}

// ---------------------------------------------------------------------------
// JSON field helpers of the spec codec.

fn u64_field(field: &str, value: &Json) -> Result<u64, SpecError> {
    value.as_u64().ok_or_else(|| SpecError::field(field, "must be a non-negative integer"))
}

fn usize_field(field: &str, value: &Json) -> Result<usize, SpecError> {
    u64_field(field, value).map(|v| v as usize)
}

fn f64_field(field: &str, value: &Json) -> Result<f64, SpecError> {
    value.as_f64().ok_or_else(|| SpecError::field(field, "must be a number"))
}

fn str_field<'j>(field: &str, value: &'j Json) -> Result<&'j str, SpecError> {
    value.as_str().ok_or_else(|| SpecError::field(field, "must be a string"))
}

fn bool_field(field: &str, value: &Json) -> Result<bool, SpecError> {
    value.as_bool().ok_or_else(|| SpecError::field(field, "must be a boolean"))
}

fn require<'j>(json: &'j Json, field: &str) -> Result<&'j Json, SpecError> {
    json.get(field).ok_or_else(|| SpecError::field(field, "missing required field"))
}

fn string_list(field: &'static str, value: &Json) -> Result<Vec<String>, SpecError> {
    let items =
        value.as_array().ok_or_else(|| SpecError::field(field, "must be an array of strings"))?;
    items
        .iter()
        .map(|v| v.as_str().map(ToString::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SpecError::field(field, "must be an array of strings"))
}

fn u64_list(field: &'static str, value: &Json) -> Result<Vec<u64>, SpecError> {
    let items =
        value.as_array().ok_or_else(|| SpecError::field(field, "must be an array of integers"))?;
    items
        .iter()
        .map(Json::as_u64)
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| SpecError::field(field, "must be an array of non-negative integers"))
}

fn str_array(items: &[String]) -> Json {
    Json::Array(items.iter().map(|s| Json::from(s.as_str())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_matches_builder_defaults() {
        let spec = ExperimentSpec::default();
        let experiment = spec.to_experiment().unwrap();
        assert_eq!(experiment.job_count(), Experiment::new().job_count());
        assert_eq!(experiment.scenarios(), Experiment::new().scenarios());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ExperimentSpec {
            name: "fig15".to_string(),
            preset: Preset::Paper,
            patch: ConfigPatch {
                cores: Some(2),
                seed: Some(u64::MAX),
                page_policy: Some(PagePolicy::OpenPage),
                ..ConfigPatch::default()
            },
            defenses: vec!["rrs".to_string(), "scale-srs".to_string()],
            trackers: vec!["hydra".to_string()],
            thresholds: vec![512, 1200, 2400, 4800],
            core_counts: vec![4, 8],
            seeds: vec![1, 2, 3],
            attacks: vec!["juggernaut".to_string()],
            workloads: vec!["suite:gups".to_string(), "gcc".to_string()],
            threads: Some(3),
            share_prefixes: false,
            telemetry: Some(TelemetryConfig::armed()),
            faults: Some(crate::faults::FaultsConfig::enabled()),
            search: Some(SearchSpec {
                population: 12,
                generations: 7,
                cell: 3,
                ..SearchSpec::default()
            }),
        };
        let text = spec.to_json_string();
        assert_eq!(ExperimentSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn search_block_rejects_unknown_keys_and_zero_budgets() {
        let err = ExperimentSpec::parse(r#"{"search": {"populaton": 4}}"#).unwrap_err();
        assert!(err.to_string().contains("populaton"), "{err}");
        let err = ExperimentSpec::parse(r#"{"search": {"population": 0}}"#).unwrap_err();
        assert!(err.to_string().contains("population"), "{err}");
        let err = ExperimentSpec::parse(r#"{"search": {"generations": 0}}"#).unwrap_err();
        assert!(err.to_string().contains("generations"), "{err}");
        // Omitted block stays omitted through a round trip.
        let spec = ExperimentSpec::parse(r#"{"name": "plain"}"#).unwrap();
        assert!(spec.search.is_none());
        assert!(!spec.to_json_string().contains("search"));
    }

    #[test]
    fn share_prefixes_defaults_on_and_reaches_the_experiment() {
        let spec = ExperimentSpec::parse("{}").unwrap();
        assert!(spec.share_prefixes, "sharing must default on");
        assert!(spec.to_experiment().unwrap().share_prefixes());

        let spec = ExperimentSpec::parse(r#"{"share_prefixes": false}"#).unwrap();
        assert!(!spec.share_prefixes);
        assert!(!spec.to_experiment().unwrap().share_prefixes());

        // Wrong shapes are structured field errors, not panics.
        let err = ExperimentSpec::parse(r#"{"share_prefixes": "yes"}"#).unwrap_err();
        assert!(err.to_string().contains("share_prefixes"), "{err}");
    }

    #[test]
    fn minimal_document_gets_the_defaults() {
        let spec = ExperimentSpec::parse("{}").unwrap();
        assert_eq!(spec.defenses, vec!["scale-srs".to_string()]);
        assert_eq!(spec.thresholds, vec![1200]);
        assert_eq!(spec.preset, Preset::ScaledForSpeed);
        assert!(spec.patch.is_empty());
    }

    #[test]
    fn unknown_names_list_the_valid_registry() {
        let err = parse_defense("rowpress").unwrap_err();
        match &err {
            SpecError::UnknownName { field, name, valid } => {
                assert_eq!(*field, "defense");
                assert_eq!(name, "rowpress");
                assert_eq!(
                    valid,
                    &["baseline", "rrs", "rrs-no-unswap", "srs", "scale-srs"]
                        .map(String::from)
                        .to_vec()
                );
            }
            other => panic!("expected UnknownName, got {other:?}"),
        }
        let message = err.to_string();
        assert!(message.contains("rowpress") && message.contains("scale-srs"), "{message}");

        assert!(matches!(parse_tracker("cbf"), Err(SpecError::UnknownName { .. })));
        assert!(matches!(parse_preset("huge"), Err(SpecError::UnknownName { .. })));
        assert!(matches!(parse_attack("rowpress"), Err(SpecError::UnknownName { .. })));
        let err = resolve_workloads(&["suite:spec2037".to_string()]).unwrap_err();
        assert!(err.to_string().contains("suite:spec2017"), "{err}");
    }

    #[test]
    fn unknown_spec_and_patch_keys_are_rejected() {
        let err = ExperimentSpec::parse(r#"{"defences": ["srs"]}"#).unwrap_err();
        assert!(err.to_string().contains("defenses"), "{err}");
        let err = ExperimentSpec::parse(r#"{"patch": {"coers": 2}}"#).unwrap_err();
        assert!(err.to_string().contains("cores"), "{err}");
    }

    #[test]
    fn workload_selectors_dedup_in_order() {
        let resolved = resolve_workloads(&[
            "gcc".to_string(),
            "suite:gups".to_string(),
            "gcc".to_string(),
            "hot-rows".to_string(),
        ])
        .unwrap();
        assert_eq!(resolved[0].name, "gcc");
        assert_eq!(resolved[1].name, "gups");
        let names: Vec<&str> = resolved.iter().map(|w| w.name).collect();
        let mut deduped = names.clone();
        deduped.dedup();
        assert_eq!(names, deduped, "selectors must not produce duplicates");
        assert!(names.contains(&"bzip2"), "hot-rows adds the RRS-hostile set");
    }

    #[test]
    fn empty_axes_are_structured_errors_not_panics() {
        let spec = ExperimentSpec { defenses: Vec::new(), ..ExperimentSpec::default() };
        assert_eq!(spec.to_experiment().unwrap_err(), SpecError::EmptyAxis("defenses"));
        let spec = ExperimentSpec { thresholds: Vec::new(), ..ExperimentSpec::default() };
        assert_eq!(spec.to_experiment().unwrap_err(), SpecError::EmptyAxis("thresholds"));
    }

    #[test]
    fn shipped_attacks_round_trip_through_json() {
        for attack in shipped_patterns() {
            let decoded = attack_spec_from_json(&attack.to_json()).unwrap();
            assert_eq!(decoded, attack, "{}", attack.name);
        }
    }

    #[test]
    fn patch_applies_only_set_fields() {
        let base = SystemConfig::scaled_for_speed(DefenseKind::Srs, 1200);
        let patch = ConfigPatch {
            cores: Some(1),
            refresh_window_ns: Some(777),
            swap_rate: Some(9),
            ..ConfigPatch::default()
        };
        let mut patched = base.clone();
        patch.apply(&mut patched);
        assert_eq!(patched.cores, 1);
        assert_eq!(patched.dram.refresh_window_ns, 777);
        assert_eq!(patched.effective_swap_rate(), 9);
        assert_eq!(patched.core.target_instructions, base.core.target_instructions);
        assert!(ConfigPatch::default().is_empty());
        assert!(!patch.is_empty());
    }
}
