//! Fault-tolerant campaign execution: deterministic sharding,
//! checkpoint/resume, and crash-safe result streams.
//!
//! A paper-sized grid is hours of simulation; run as one monolithic
//! process, any panic, OOM or kill throws away every completed cell. This
//! module turns a grid run into a **campaign** that survives interruption:
//!
//! * [`plan_shards`] deterministically splits a spec's grid into N
//!   [`ShardManifest`]s along its [`execution_units`] — shared-prefix
//!   trunk groups are never split, so sharding cannot break snapshot
//!   sharing and every shard's cells are bit-identical to the same cells
//!   of an unsharded run.
//! * [`CheckpointSink`] wraps the JSONL stream with an atomically updated
//!   [`CampaignManifest`] recording exactly which cells are durably on
//!   disk; after a crash, [`CheckpointSink::resume`] truncates a torn
//!   final record and the campaign re-runs only what is missing.
//! * [`Campaign`] executes a (possibly restricted) cell set with per-unit
//!   panic isolation and bounded retry ([`crate::runner::RetryPolicy`]);
//!   persistently failing cells become [`CellFailure`] records in the
//!   manifest instead of aborting the run.
//! * [`merge_results`] validates shard outputs (schema, no gaps, no
//!   duplicates) and merges them back into one submission-ordered result
//!   set, byte-identical to an uninterrupted unsharded run.

use std::path::{Path, PathBuf};

use crate::config::SystemConfig;
use crate::journal::{load_manifest, manifest_path, save_manifest, write_atomic, Journal};
use crate::json::{obj, Json, ToJson};
use crate::runner::{FaultInjection, RetryPolicy};
use crate::scenario::{Experiment, ScenarioResult, UnitStats};
use crate::sink::{validate_result_record, ResultSink};
use crate::spec::{ExperimentSpec, SpecError};

pub use crate::journal::read_results;

/// The former name of [`ResultSink`], from when campaigns had a sink trait
/// of their own. The benchmark's probe (`perfbench/src/main.rs`) is frozen
/// with the benchmark and still imports this name next to `ResultSink`;
/// the alias goes with the next revision of the benchmark.
pub use crate::sink::ResultSink as CampaignSink;

/// A cell that exhausted its retry budget. Recorded in the
/// [`CampaignManifest`] so a later `--resume` retries exactly these cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Grid index of the failed cell.
    pub index: usize,
    /// Attempts made before giving up (≥ 1).
    pub attempts: u32,
    /// The panic message of the final attempt.
    pub error: String,
}

impl ToJson for CellFailure {
    fn to_json(&self) -> Json {
        obj(vec![
            ("index", self.index.into()),
            ("attempts", u64::from(self.attempts).into()),
            ("error", self.error.as_str().into()),
        ])
    }
}

impl CellFailure {
    fn from_json(json: &Json) -> Result<Self, String> {
        let index =
            json.get("index").and_then(Json::as_u64).ok_or("failure.index must be an integer")?
                as usize;
        let attempts = json
            .get("attempts")
            .and_then(Json::as_u64)
            .ok_or("failure.attempts must be an integer")? as u32;
        let error =
            json.get("error").and_then(Json::as_str).ok_or("failure.error must be a string")?;
        Ok(Self { index, attempts, error: error.to_string() })
    }
}

/// What a [`Campaign::run`] did, delivered to [`ResultSink::on_finish`]
/// and returned to the caller.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Cells in the full experiment grid.
    pub total_cells: usize,
    /// Cells this run was responsible for (its shard, minus none).
    pub planned: usize,
    /// Cells skipped because a previous run already completed them.
    pub skipped: usize,
    /// Cells that finished and streamed a result this run.
    pub completed: usize,
    /// Cells that exhausted their retry budget this run.
    pub failed: Vec<CellFailure>,
}

/// The deterministic execution units of an experiment's grid: each unit is
/// a shared-prefix trunk group (benign cells with equal generated trace and
/// equal mitigation-neutral configuration, whatever their workload names)
/// or a singleton solo cell, disjoint, covering the grid, ordered by first
/// cell index. Units are the atoms of [`plan_shards`] — a unit never spans
/// two shards.
#[must_use]
pub fn execution_units(experiment: &Experiment) -> Vec<Vec<usize>> {
    plan(experiment).1
}

/// Every cell's configuration plus the unit plan over them.
fn plan(experiment: &Experiment) -> (Vec<SystemConfig>, Vec<Vec<usize>>) {
    let scenarios = experiment.scenarios();
    let configs: Vec<SystemConfig> = scenarios.iter().map(|s| experiment.config_for(s)).collect();
    let units = experiment.plan_units(&scenarios, &configs);
    (configs, units)
}

/// A unit's simulated work: its distinct configurations. A shared-prefix
/// group simulates each distinct configuration once, however many
/// same-trace workloads it covers; in any other unit every cell has its
/// own configuration, so this is the cell count.
fn unit_weight(unit: &[usize], configs: &[SystemConfig]) -> usize {
    unit.iter()
        .enumerate()
        .filter(|&(k, &i)| !unit[..k].iter().any(|&j| configs[j] == configs[i]))
        .count()
}

/// A restartable, failure-isolated run over an experiment's grid (or a
/// shard of it).
///
/// ```no_run
/// use srs_sim::campaign::Campaign;
/// use srs_sim::scenario::Experiment;
/// use srs_sim::sink::ResultSink;
///
/// struct Count(usize);
/// impl ResultSink for Count {
///     fn on_result(&mut self, _: &srs_sim::ScenarioResult) {
///         self.0 += 1;
///     }
/// }
///
/// let experiment = Experiment::new();
/// let mut sink = Count(0);
/// let report = Campaign::new(experiment).run(&mut sink);
/// assert_eq!(report.failed.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Campaign {
    experiment: Experiment,
    cells: Option<Vec<usize>>,
    completed: Vec<usize>,
    retry: RetryPolicy,
    fault: Option<FaultInjection>,
    attribution: Option<std::sync::Arc<std::sync::Mutex<crate::attribution::AttributionReport>>>,
}

impl Campaign {
    /// A campaign over `experiment`'s whole grid with the default retry
    /// policy and no skip-list.
    #[must_use]
    pub fn new(experiment: Experiment) -> Self {
        Self {
            experiment,
            cells: None,
            completed: Vec::new(),
            retry: RetryPolicy::default(),
            fault: None,
            attribution: None,
        }
    }

    /// Restrict the campaign to these grid cell indices (a shard).
    #[must_use]
    pub fn with_cells(mut self, cells: Vec<usize>) -> Self {
        self.cells = Some(cells);
        self
    }

    /// Skip these already-completed cells (resume). Skipped cells produce
    /// no sink events at all.
    #[must_use]
    pub fn with_completed(mut self, completed: Vec<usize>) -> Self {
        self.completed = completed;
        self
    }

    /// Override the per-unit retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Inject a deterministic fault (crash/retry tests; see
    /// [`FaultInjection::from_env`]).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<FaultInjection>) -> Self {
        self.fault = fault;
        self
    }

    /// Arm per-subsystem wall-time attribution: every defended solo cell
    /// runs with the stopwatches on and merges its breakdown into the
    /// shared report. Results stay bit-identical; wall time is perturbed
    /// by a few percent, so arm this for breakdown passes only. Callers
    /// wanting full coverage should also disable prefix sharing
    /// ([`Experiment::with_share_prefixes`]) — shared groups are not
    /// attributed.
    #[must_use]
    pub fn with_attribution(
        mut self,
        report: std::sync::Arc<std::sync::Mutex<crate::attribution::AttributionReport>>,
    ) -> Self {
        self.attribution = Some(report);
        self
    }

    /// The underlying experiment.
    #[must_use]
    pub fn experiment(&self) -> &Experiment {
        &self.experiment
    }

    /// The sorted cell indices this run will actually execute: the
    /// campaign's cell set minus the skip-list.
    #[must_use]
    pub fn planned(&self) -> Vec<usize> {
        let done: fxhash::FxHashSet<usize> = self.completed.iter().copied().collect();
        let mut planned: Vec<usize> = match &self.cells {
            Some(cells) => cells.iter().copied().filter(|i| !done.contains(i)).collect(),
            None => (0..self.experiment.job_count()).filter(|i| !done.contains(i)).collect(),
        };
        planned.sort_unstable();
        planned.dedup();
        planned
    }

    /// Execute the planned cells under panic isolation, streaming each
    /// outcome into `sink` in ascending cell-index order. A unit that
    /// keeps panicking past the retry budget reports a [`CellFailure`] for
    /// each of its cells and the campaign keeps going.
    pub fn run(&self, sink: &mut dyn ResultSink) -> CampaignReport {
        let planned = self.planned();
        let skipped = match &self.cells {
            Some(cells) => {
                let mut cells: Vec<usize> = cells.clone();
                cells.sort_unstable();
                cells.dedup();
                cells.len() - planned.len()
            }
            None => self.experiment.job_count() - planned.len(),
        };
        let opts = crate::scenario::ExecOptions {
            subset: Some(planned.clone()),
            isolate: Some(self.retry.clone()),
            fault: self.fault.clone(),
            attribution: self.attribution.clone(),
        };
        let mut completed = 0usize;
        let mut failed: Vec<CellFailure> = Vec::new();
        let ran = self.experiment.run_streaming(&opts, |event| match event {
            crate::scenario::ExecEvent::Started(scenario) => sink.on_scenario_start(scenario),
            crate::scenario::ExecEvent::Finished(result) => {
                completed += 1;
                sink.on_result(&result);
            }
            crate::scenario::ExecEvent::Failed(failure) => {
                sink.on_cell_failed(&failure);
                failed.push(failure);
            }
            crate::scenario::ExecEvent::UnitDone(stats) => sink.on_unit_stats(&stats),
        });
        debug_assert_eq!(ran, planned.len(), "executor ran a different cell set than planned");
        let report = CampaignReport {
            total_cells: self.experiment.job_count(),
            planned: planned.len(),
            skipped,
            completed,
            failed,
        };
        sink.on_finish(&report);
        report
    }
}

/// An error from the campaign persistence layer (manifests, checkpointed
/// output, merge).
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O operation failed; the message names the path.
    Io(String),
    /// A manifest or results file exists but cannot be decoded; the
    /// message names the path and offset or line.
    Corrupt(String),
    /// Inputs disagree with each other or with the campaign being resumed
    /// (wrong campaign name, wrong cell set, gaps, duplicates).
    Mismatch(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(message) | Self::Corrupt(message) | Self::Mismatch(message) => {
                f.write_str(message)
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Encode a sorted, deduplicated cell list as inclusive `[first, last]`
/// ranges — `[0,1,2,3,7]` becomes `[[0,3],[7,7]]` — so a manifest stays
/// O(ranges), not O(cells), on disk.
fn encode_ranges(sorted_cells: &[usize]) -> Json {
    let mut ranges: Vec<Json> = Vec::new();
    let mut cells = sorted_cells.iter().copied();
    if let Some(first) = cells.next() {
        let (mut lo, mut hi) = (first, first);
        for cell in cells {
            if cell == hi + 1 {
                hi = cell;
            } else {
                ranges.push(Json::Array(vec![lo.into(), hi.into()]));
                (lo, hi) = (cell, cell);
            }
        }
        ranges.push(Json::Array(vec![lo.into(), hi.into()]));
    }
    Json::Array(ranges)
}

/// Decode the [`encode_ranges`] form back into a sorted cell list of a
/// grid of `total_cells` cells. Each range is checked against the grid and
/// against its predecessor before it is expanded, so a corrupt range can
/// never decode to more than `total_cells` cells.
fn decode_ranges(field: &str, json: &Json, total_cells: usize) -> Result<Vec<usize>, String> {
    let ranges = json.as_array().ok_or(format!("{field} must be an array of [first, last]"))?;
    let mut cells = Vec::new();
    for range in ranges {
        let pair = range
            .as_array()
            .filter(|p| p.len() == 2)
            .ok_or(format!("{field} entries must be two-element [first, last] arrays"))?;
        let lo = pair[0].as_u64().ok_or(format!("{field} bounds must be integers"))?;
        let hi = pair[1].as_u64().ok_or(format!("{field} bounds must be integers"))?;
        if hi < lo {
            return Err(format!("{field} range [{lo}, {hi}] is inverted"));
        }
        if hi >= total_cells as u64 {
            return Err(format!(
                "{field} range [{lo}, {hi}] reaches past the grid's {total_cells} cells"
            ));
        }
        let (lo, hi) = (lo as usize, hi as usize);
        if cells.last().is_some_and(|&last| lo <= last) {
            return Err(format!("{field} ranges must be sorted and disjoint"));
        }
        cells.extend(lo..=hi);
    }
    Ok(cells)
}

/// One shard of a campaign: a spec plus the cell subset this shard is
/// responsible for. Produced by [`plan_shards`], written as
/// `<stem>.shard<k>.json`, and accepted by `srs-cli run` in place of a
/// spec (detected by the `shard_index` key — see
/// [`ShardManifest::is_shard_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// The campaign (spec) name all sibling shards share.
    pub campaign: String,
    /// This shard's position in `0..shard_count`.
    pub shard_index: usize,
    /// Number of sibling shards the grid was split into.
    pub shard_count: usize,
    /// Cells in the full experiment grid (all shards together).
    pub total_cells: usize,
    /// Sorted grid cell indices this shard runs.
    pub cells: Vec<usize>,
    /// The full experiment spec, inlined so a shard file is
    /// self-contained (shippable to another machine on its own).
    pub spec: ExperimentSpec,
}

impl ToJson for ShardManifest {
    fn to_json(&self) -> Json {
        obj(vec![
            ("campaign", self.campaign.as_str().into()),
            ("shard_index", self.shard_index.into()),
            ("shard_count", self.shard_count.into()),
            ("total_cells", self.total_cells.into()),
            ("cells", encode_ranges(&self.cells)),
            ("spec", self.spec.to_json()),
        ])
    }
}

impl ShardManifest {
    /// Does this parsed document look like a shard manifest rather than a
    /// plain spec? (Specs reject unknown keys, so the two cannot be
    /// confused.)
    #[must_use]
    pub fn is_shard_json(json: &Json) -> bool {
        json.get("shard_index").is_some()
    }

    /// Decode a shard manifest; `origin` names the source in errors. A
    /// `total_cells` that differs from the embedded spec's grid is a
    /// [`CampaignError::Mismatch`]: the spec changed since planning.
    pub fn from_json(origin: &str, json: &Json) -> Result<Self, CampaignError> {
        let corrupt = |message: String| CampaignError::Corrupt(format!("{origin}: {message}"));
        let str_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or_else(|| corrupt(format!("'{key}' must be a string")))
        };
        let int_of = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .map(|v| v as usize)
                .ok_or_else(|| corrupt(format!("'{key}' must be an integer")))
        };
        let spec_json = json.get("spec").ok_or_else(|| corrupt("missing 'spec'".to_string()))?;
        let spec = ExperimentSpec::from_json(spec_json)
            .map_err(|e| corrupt(format!("embedded spec: {e}")))?;
        // The ranges are checked against `total_cells`, so check that
        // against the spec's grid before any range is decoded.
        let total_cells = int_of("total_cells")?;
        let grid_cells =
            spec.to_experiment().map_err(|e| corrupt(format!("embedded spec: {e}")))?.job_count();
        if total_cells != grid_cells {
            return Err(CampaignError::Mismatch(format!(
                "{origin}: shard was planned over {total_cells} cells but the spec now \
                 resolves to {grid_cells}; re-plan the campaign"
            )));
        }
        let cells = decode_ranges(
            "cells",
            json.get("cells").ok_or_else(|| corrupt("missing 'cells'".to_string()))?,
            total_cells,
        )
        .map_err(corrupt)?;
        Ok(Self {
            campaign: str_of("campaign")?,
            shard_index: int_of("shard_index")?,
            shard_count: int_of("shard_count")?,
            total_cells,
            cells,
            spec,
        })
    }

    /// Parse a shard manifest from its JSON text form.
    pub fn parse(origin: &str, text: &str) -> Result<Self, CampaignError> {
        let json =
            Json::parse(text).map_err(|e| CampaignError::Corrupt(format!("{origin}: {e}")))?;
        Self::from_json(origin, &json)
    }
}

/// Deterministically split `spec`'s grid into at most `shards` shard
/// manifests.
///
/// The split is along [`execution_units`] — a shared-prefix trunk group
/// never spans two shards, so each shard's cells remain bit-identical to
/// the same cells of an unsharded run. Units are weighed by their
/// simulated work — their distinct configurations, which is the cell
/// count except for groups that merge same-trace workloads — and assigned
/// heaviest-first to the least-loaded shard (ties broken by lowest shard
/// index), which is fully deterministic: planning the same spec twice
/// yields identical manifests. A shard holds at least one whole unit, so
/// fewer units than `shards` yields fewer (non-empty) shards.
pub fn plan_shards(spec: &ExperimentSpec, shards: usize) -> Result<Vec<ShardManifest>, SpecError> {
    let experiment = spec.to_experiment()?;
    let (configs, units) = plan(&experiment);
    let total_cells = experiment.job_count();
    let count = shards.max(1).min(units.len().max(1));
    let weight: Vec<usize> = units.iter().map(|unit| unit_weight(unit, &configs)).collect();
    // Heaviest unit first (ties by first cell index, which is unique).
    let mut order: Vec<usize> = (0..units.len()).collect();
    order.sort_by_key(|&u| (std::cmp::Reverse(weight[u]), units[u][0]));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); count];
    let mut load = vec![0usize; count];
    for u in order {
        // Invariant: `count` is clamped to >= 1 by the caller, so the
        // minimum over `0..count` always exists.
        #[allow(clippy::expect_used)]
        let bin = (0..count).min_by_key(|&b| (load[b], b)).expect("count >= 1");
        bins[bin].extend(units[u].iter().copied());
        load[bin] += weight[u];
    }
    Ok(bins
        .into_iter()
        .enumerate()
        .map(|(shard_index, mut cells)| {
            cells.sort_unstable();
            ShardManifest {
                campaign: spec.name.clone(),
                shard_index,
                shard_count: count,
                total_cells,
                cells,
                spec: spec.clone(),
            }
        })
        .collect())
}

/// The durable record of a campaign run's progress, stored next to its
/// output as `<out>.manifest.json` and rewritten atomically
/// (tmp-file + rename) after every committed record — at any instant the
/// manifest on disk describes a prefix of the output that is actually
/// there.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignManifest {
    /// The campaign (spec) name, for resume cross-checking.
    pub campaign: String,
    /// Cells in the full experiment grid.
    pub total_cells: usize,
    /// Sorted cell indices this run is responsible for.
    pub cells: Vec<usize>,
    /// Sorted cell indices whose records are durably in the output.
    pub completed: Vec<usize>,
    /// Cells that exhausted their retry budget (retried on resume).
    pub failed: Vec<CellFailure>,
    /// Output-file length covering exactly the `completed` records; any
    /// bytes past this offset are a torn record from a crash and are
    /// truncated on resume.
    pub bytes_committed: u64,
    /// Per-unit wall durations and attempt counts, appended as units
    /// finish. Profiling data (machine-dependent, not part of results);
    /// absent in manifests written before this field existed.
    pub timings: Vec<UnitStats>,
}

impl ToJson for CampaignManifest {
    fn to_json(&self) -> Json {
        obj(vec![
            ("campaign", self.campaign.as_str().into()),
            ("total_cells", self.total_cells.into()),
            ("cells", encode_ranges(&self.cells)),
            ("completed", encode_ranges(&self.completed)),
            ("failed", Json::Array(self.failed.iter().map(ToJson::to_json).collect())),
            ("bytes_committed", self.bytes_committed.into()),
            ("timings", Json::Array(self.timings.iter().map(ToJson::to_json).collect())),
        ])
    }
}

impl CampaignManifest {
    /// A fresh manifest for a run responsible for `cells` (sorted).
    #[must_use]
    pub fn new(campaign: &str, total_cells: usize, cells: Vec<usize>) -> Self {
        Self {
            campaign: campaign.to_string(),
            total_cells,
            cells,
            completed: Vec::new(),
            failed: Vec::new(),
            bytes_committed: 0,
            timings: Vec::new(),
        }
    }

    /// The manifest path for an output file: `<out>.manifest.json`.
    #[must_use]
    pub fn path_for(out: &Path) -> PathBuf {
        manifest_path(out)
    }

    /// Decode a manifest; `origin` names the source in errors.
    pub fn from_json(origin: &str, json: &Json) -> Result<Self, CampaignError> {
        let corrupt = |message: String| CampaignError::Corrupt(format!("{origin}: {message}"));
        let campaign = json
            .get("campaign")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("'campaign' must be a string".to_string()))?
            .to_string();
        let total_cells = json
            .get("total_cells")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("'total_cells' must be an integer".to_string()))?
            as usize;
        let cells = decode_ranges(
            "cells",
            json.get("cells").ok_or_else(|| corrupt("missing 'cells'".to_string()))?,
            total_cells,
        )
        .map_err(&corrupt)?;
        let completed = decode_ranges(
            "completed",
            json.get("completed").ok_or_else(|| corrupt("missing 'completed'".to_string()))?,
            total_cells,
        )
        .map_err(&corrupt)?;
        let failed = json
            .get("failed")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("'failed' must be an array".to_string()))?
            .iter()
            .map(|f| CellFailure::from_json(f).map_err(&corrupt))
            .collect::<Result<Vec<_>, _>>()?;
        let bytes_committed = json
            .get("bytes_committed")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("'bytes_committed' must be an integer".to_string()))?;
        // Tolerate manifests written before timings existed.
        let timings = match json.get("timings") {
            None | Some(Json::Null) => Vec::new(),
            Some(value) => value
                .as_array()
                .ok_or_else(|| corrupt("'timings' must be an array".to_string()))?
                .iter()
                .map(|t| UnitStats::from_json(t).map_err(|m| corrupt(m.to_string())))
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(Self { campaign, total_cells, cells, completed, failed, bytes_committed, timings })
    }

    /// Load a manifest from disk.
    pub fn load(path: &Path) -> Result<Self, CampaignError> {
        Self::from_json(&path.display().to_string(), &load_manifest(path)?)
    }

    /// Persist the manifest atomically: write `<path>.tmp`, then rename
    /// over `path`, so a crash at any instant leaves either the old or the
    /// new manifest — never a torn one.
    pub fn save(&self, path: &Path) -> Result<(), CampaignError> {
        Ok(save_manifest(path, &self.to_json())?)
    }
}

/// What [`CheckpointSink::resume`] found on disk.
#[derive(Debug, Clone)]
pub struct ResumeState {
    /// Cells the previous run(s) already committed; pass to
    /// [`Campaign::with_completed`].
    pub completed: Vec<usize>,
    /// Failures recorded by the previous run, now cleared for retry.
    pub retried_failures: Vec<CellFailure>,
    /// Torn-record bytes truncated from the end of the output file
    /// (non-zero exactly when the previous run died mid-write).
    pub truncated_bytes: u64,
}

/// A crash-safe JSONL result stream: every committed record is mirrored
/// into an atomically updated [`CampaignManifest`], so the pair
/// (output, manifest) can always be resumed.
///
/// The write protocol per record: append the JSON line, flush, then
/// atomically rewrite the manifest with the cell marked completed and
/// `bytes_committed` advanced past the line. A crash between the two
/// leaves a record on disk that the manifest does not claim — resume
/// truncates the output back to `bytes_committed` and re-runs that cell.
///
/// For crash-recovery tests, the environment variable
/// `SRS_CAMPAIGN_CRASH_AFTER=N` makes the sink commit the first N records
/// of the current process, write only the first half of record N + 1,
/// flush, and abort — deterministically manufacturing a torn final record.
#[derive(Debug)]
pub struct CheckpointSink {
    journal: Journal,
    manifest_path: PathBuf,
    manifest: CampaignManifest,
    /// Highest cell index already in the file when this run started;
    /// appending below it means the file needs an index-order repair pass.
    prev_max: Option<usize>,
    needs_sort: bool,
    error: Option<CampaignError>,
}

/// The crash-test hook of campaign output streams.
const CRASH_AFTER_VAR: &str = "SRS_CAMPAIGN_CRASH_AFTER";

impl CheckpointSink {
    /// Start a fresh campaign output at `out` (truncating it) for a run
    /// responsible for `cells`, writing `<out>.manifest.json` beside it.
    pub fn create(
        out: &Path,
        campaign: &str,
        total_cells: usize,
        cells: Vec<usize>,
    ) -> Result<Self, CampaignError> {
        let journal = Journal::create(out, CRASH_AFTER_VAR)?;
        let manifest_path = CampaignManifest::path_for(out);
        let manifest = CampaignManifest::new(campaign, total_cells, cells);
        manifest.save(&manifest_path)?;
        Ok(Self {
            journal,
            manifest_path,
            manifest,
            prev_max: None,
            needs_sort: false,
            error: None,
        })
    }

    /// Resume a crashed or interrupted campaign at `out`: load the
    /// manifest, verify it belongs to the same campaign and cell set,
    /// truncate any torn final record past `bytes_committed` (refusing an
    /// output shorter than that), clear recorded failures for retry, and
    /// reopen the output for append.
    pub fn resume(
        out: &Path,
        campaign: &str,
        total_cells: usize,
        cells: &[usize],
    ) -> Result<(Self, ResumeState), CampaignError> {
        let manifest_path = CampaignManifest::path_for(out);
        let json = load_manifest(&manifest_path)?;
        // The ranges are checked against the recorded `total_cells`, so
        // check that against this run's grid before any range is decoded.
        if let Some(recorded) = json.get("total_cells").and_then(Json::as_u64) {
            if recorded != total_cells as u64 {
                return Err(CampaignError::Mismatch(format!(
                    "{} was written for a grid of {recorded} cells, not {total_cells}; \
                     refusing to mix campaigns",
                    manifest_path.display()
                )));
            }
        }
        let mut manifest =
            CampaignManifest::from_json(&manifest_path.display().to_string(), &json)?;
        if manifest.campaign != campaign {
            return Err(CampaignError::Mismatch(format!(
                "{} records campaign '{}', not '{campaign}'",
                manifest_path.display(),
                manifest.campaign
            )));
        }
        if manifest.cells != cells {
            return Err(CampaignError::Mismatch(format!(
                "{} was written for a different cell set ({} of {} grid cells); \
                 refusing to mix campaigns",
                manifest_path.display(),
                manifest.cells.len(),
                manifest.total_cells
            )));
        }
        let (journal, truncated_bytes) =
            Journal::resume(out, manifest.bytes_committed, CRASH_AFTER_VAR)?;
        let state = ResumeState {
            completed: manifest.completed.clone(),
            retried_failures: std::mem::take(&mut manifest.failed),
            truncated_bytes,
        };
        let prev_max = manifest.completed.last().copied();
        let sink =
            Self { journal, manifest_path, manifest, prev_max, needs_sort: false, error: None };
        Ok((sink, state))
    }

    /// Close the stream: repair record order if resume appended
    /// lower-index cells behind higher ones (rewrite sorted by
    /// `scenario.index`, atomically), persist the final manifest, and
    /// report the first latched I/O error if any.
    pub fn finish(self) -> Result<CampaignManifest, CampaignError> {
        let Self { journal, manifest_path, manifest, needs_sort, error, .. } = self;
        if let Some(error) = error {
            return Err(error);
        }
        let out = journal.path().to_path_buf();
        // Close the stream before the order repair replaces the file.
        drop(journal);
        if needs_sort {
            let mut lines = indexed_lines(&out)?;
            lines.sort_by_key(|&(index, _)| index);
            write_lines(&out, &lines)?;
        }
        manifest.save(&manifest_path)?;
        Ok(manifest)
    }

    /// Rewrite the manifest, latching the first failure.
    fn save_manifest(&mut self) {
        if let Err(error) = self.manifest.save(&self.manifest_path) {
            self.error = Some(error);
        }
    }
}

impl ResultSink for CheckpointSink {
    fn on_result(&mut self, result: &ScenarioResult) {
        if self.error.is_some() {
            return;
        }
        let index = result.scenario.index;
        match self.journal.append(result.to_json().to_compact()) {
            Ok(len) => {
                if self.prev_max.is_some_and(|max| index < max) {
                    self.needs_sort = true;
                }
                self.manifest.bytes_committed = len;
                let slot = self.manifest.completed.partition_point(|&c| c < index);
                self.manifest.completed.insert(slot, index);
                self.save_manifest();
            }
            Err(error) => self.error = Some(error.into()),
        }
    }

    fn on_cell_failed(&mut self, failure: &CellFailure) {
        if self.error.is_some() {
            return;
        }
        self.manifest.failed.push(failure.clone());
        self.save_manifest();
    }

    fn on_unit_stats(&mut self, stats: &UnitStats) {
        if self.error.is_some() {
            return;
        }
        // Timings are profiling data; they ride the next manifest save
        // (every unit emits cell outcomes, each of which saves) rather
        // than forcing an extra atomic rewrite per unit.
        self.manifest.timings.push(stats.clone());
    }
}

/// Every result record of a complete results file, keyed by its cell
/// index and kept verbatim. Each record must pass the result-record
/// schema; the `run --attribution` footer is skipped, and a torn final
/// record (a run that has not been resumed) is refused.
fn indexed_lines(path: &Path) -> Result<Vec<(usize, String)>, CampaignError> {
    let mut lines = Vec::new();
    let (_, torn) = read_results(path, |text, record| {
        validate_result_record(record)?;
        let index = record.get("scenario").and_then(|s| s.get("index")).and_then(Json::as_u64);
        lines.push((index.ok_or("scenario.index must be an integer")? as usize, text.to_string()));
        Ok(())
    })?;
    match torn {
        Some(offset) => Err(CampaignError::Corrupt(format!(
            "{}: truncated final record at byte offset {offset}; finish the run with --resume \
             first",
            path.display()
        ))),
        None => Ok(lines),
    }
}

/// Atomically replace `path` with these records, one per line, in order.
fn write_lines(path: &Path, lines: &[(usize, String)]) -> Result<(), CampaignError> {
    let mut text = String::with_capacity(lines.iter().map(|(_, line)| line.len() + 1).sum());
    for (_, line) in lines {
        text.push_str(line);
        text.push('\n');
    }
    Ok(write_atomic(path, &text)?)
}

/// What [`merge_results`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeStats {
    /// Input files consumed.
    pub inputs: usize,
    /// Records in the merged output (== the grid's cell count).
    pub records: usize,
}

/// Validate and merge shard result files into one submission-ordered
/// result set at `out`, written atomically.
///
/// Every record of every input must pass the result-record schema, and no
/// input may end in a torn record (`run --attribution` footers are
/// skipped); the union of cell indices must be exactly `0..n` with no
/// duplicates (a duplicate means two shards ran the same cell; a gap means
/// a shard is missing or incomplete). Lines are moved byte-verbatim, so
/// the merged file is byte-identical to an uninterrupted unsharded run's
/// output.
pub fn merge_results(inputs: &[PathBuf], out: &Path) -> Result<MergeStats, CampaignError> {
    let mut records: Vec<(usize, String)> = Vec::new();
    let mut origin_of: fxhash::FxHashMap<usize, usize> = fxhash::FxHashMap::default();
    for (input_no, input) in inputs.iter().enumerate() {
        for (index, line) in indexed_lines(input)? {
            if let Some(&other) = origin_of.get(&index) {
                return Err(CampaignError::Mismatch(format!(
                    "cell {index} appears in both {} and {}: shards overlap",
                    inputs[other].display(),
                    input.display()
                )));
            }
            origin_of.insert(index, input_no);
            records.push((index, line));
        }
    }
    records.sort_by_key(|&(index, _)| index);
    for (expect, &(index, _)) in records.iter().enumerate() {
        if index != expect {
            return Err(CampaignError::Mismatch(format!(
                "merged inputs are missing cell {expect} (next present: {index}); \
                 a shard is missing or incomplete"
            )));
        }
    }
    write_lines(out, &records)?;
    Ok(MergeStats { inputs: inputs.len(), records: records.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::scratch::ScratchDir;
    use crate::sink::sample_result as result;

    #[test]
    fn ranges_round_trip_and_compress() {
        let cells = vec![0, 1, 2, 3, 7, 9, 10];
        let encoded = encode_ranges(&cells);
        assert_eq!(encoded.to_compact(), "[[0, 3], [7, 7], [9, 10]]");
        assert_eq!(decode_ranges("cells", &encoded, 11).unwrap(), cells);
        assert_eq!(encode_ranges(&[]).to_compact(), "[]");
        assert_eq!(decode_ranges("cells", &encode_ranges(&[]), 0).unwrap(), Vec::<usize>::new());
        assert!(decode_ranges("cells", &Json::parse("[[3,1]]").unwrap(), 11).is_err());
        assert!(decode_ranges("cells", &Json::parse("[[5,6],[1,2]]").unwrap(), 11).is_err());
        // The last cell must lie inside the grid.
        assert!(decode_ranges("cells", &encoded, 10).is_err());
    }

    /// Ranges far past the grid, or overlapping an earlier range, are
    /// rejected before they are expanded: neither manifest may size its
    /// cell list from an untrusted range end.
    #[test]
    fn manifests_reject_out_of_grid_ranges_before_expanding_them() {
        let shard = |cells: &str| {
            let spec = ExperimentSpec::parse(
                r#"{"name": "demo", "defenses": ["srs", "scale-srs"], "workloads": ["gups", "gcc"]}"#,
            )
            .unwrap();
            let manifest = ShardManifest {
                campaign: "demo".to_string(),
                shard_index: 0,
                shard_count: 1,
                total_cells: 4,
                cells: vec![0, 1],
                spec,
            };
            let text = manifest.to_json().to_compact().replace("[[0, 1]]", cells);
            ShardManifest::parse("shard.json", &text)
        };
        assert!(shard("[[0, 3]]").is_ok());
        for cells in ["[[0, 4611686018427387904]]", "[[0, 2], [1, 4611686018427387904]]"] {
            let err = shard(cells).unwrap_err();
            assert!(matches!(err, CampaignError::Corrupt(_)), "{cells}: {err}");
            assert!(err.to_string().contains("cells"), "{err}");
        }

        let manifest = |completed: &str| {
            let mut manifest = CampaignManifest::new("demo", 4, (0..4).collect());
            manifest.completed = vec![0, 1];
            let text = manifest.to_json().to_compact().replacen("[[0, 1]]", completed, 1);
            CampaignManifest::from_json("out.manifest.json", &Json::parse(&text).unwrap())
        };
        assert!(manifest("[[0, 1]]").is_ok());
        for completed in ["[[4, 4611686018427387904]]", "[[0, 1], [0, 4611686018427387904]]"] {
            let err = manifest(completed).unwrap_err();
            assert!(matches!(err, CampaignError::Corrupt(_)), "{completed}: {err}");
            assert!(err.to_string().contains("completed"), "{err}");
        }

        // A results manifest whose own `total_cells` admits the huge range:
        // resume compares it with the run's grid before decoding a range.
        let dir = ScratchDir::new("campaign", "forged-total");
        let out = dir.join("out.jsonl");
        std::fs::write(&out, "").unwrap();
        let forged = CampaignManifest::new("demo", 4, (0..4).collect())
            .to_json()
            .to_compact()
            .replace("[[0, 3]]", "[[0, 4611686018427387904]]")
            .replace("\"total_cells\": 4,", "\"total_cells\": 4611686018427387905,");
        assert!(forged.contains("4611686018427387905"), "{forged}");
        std::fs::write(CampaignManifest::path_for(&out), forged).unwrap();
        let err = CheckpointSink::resume(&out, "demo", 4, &[0, 1, 2, 3]).unwrap_err();
        assert!(matches!(err, CampaignError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("4611686018427387905 cells"), "{err}");
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = ScratchDir::new("campaign", "manifest");
        let path = dir.join("out.jsonl.manifest.json");
        let mut manifest = CampaignManifest::new("demo", 12, (0..12).collect());
        manifest.completed = vec![0, 1, 2, 5];
        manifest.failed =
            vec![CellFailure { index: 3, attempts: 3, error: "injected".to_string() }];
        manifest.bytes_committed = 1234;
        manifest.save(&path).unwrap();
        let loaded = CampaignManifest::load(&path).unwrap();
        assert_eq!(loaded, manifest);
        assert!(!dir.join("out.jsonl.manifest.json.tmp").exists(), "tmp file renamed away");
    }

    #[test]
    fn checkpoint_resume_truncates_the_torn_record_and_skips_completed_cells() {
        let dir = ScratchDir::new("campaign", "resume");
        let out = dir.join("out.jsonl");
        let cells: Vec<usize> = (0..4).collect();
        let mut sink = CheckpointSink::create(&out, "demo", 4, cells.clone()).unwrap();
        sink.on_result(&result(0));
        sink.on_result(&result(1));
        let manifest = sink.finish().unwrap();
        assert_eq!(manifest.completed, vec![0, 1]);

        // Simulate a crash mid-record: append half a line with no manifest
        // update.
        let committed = std::fs::read(&out).unwrap();
        let torn_line = result(2).to_json().to_compact();
        let mut torn = committed.clone();
        torn.extend_from_slice(&torn_line.as_bytes()[..torn_line.len() / 2]);
        std::fs::write(&out, &torn).unwrap();

        let (mut sink, state) = CheckpointSink::resume(&out, "demo", 4, &cells).unwrap();
        assert_eq!(state.completed, vec![0, 1]);
        assert_eq!(state.truncated_bytes, (torn_line.len() / 2) as u64);
        assert_eq!(std::fs::read(&out).unwrap(), committed, "torn bytes truncated");
        sink.on_result(&result(2));
        sink.on_result(&result(3));
        let manifest = sink.finish().unwrap();
        assert_eq!(manifest.completed, vec![0, 1, 2, 3]);

        // Resuming under a different campaign or cell set is refused.
        assert!(matches!(
            CheckpointSink::resume(&out, "other", 4, &cells),
            Err(CampaignError::Mismatch(_))
        ));
        assert!(matches!(
            CheckpointSink::resume(&out, "demo", 4, &[0, 1]),
            Err(CampaignError::Mismatch(_))
        ));
    }

    #[test]
    fn checkpoint_repairs_out_of_order_resume_appends() {
        let dir = ScratchDir::new("campaign", "sort");
        let out = dir.join("out.jsonl");
        let cells: Vec<usize> = (0..3).collect();
        // First run completes cells 0 and 2 (cell 1 failed).
        let mut sink = CheckpointSink::create(&out, "demo", 3, cells.clone()).unwrap();
        sink.on_result(&result(0));
        sink.on_result(&result(2));
        sink.on_cell_failed(&CellFailure { index: 1, attempts: 3, error: "injected".to_string() });
        sink.finish().unwrap();
        // Resume retries cell 1, which lands behind cell 2 in the file and
        // triggers the index-order repair at finish.
        let (mut sink, state) = CheckpointSink::resume(&out, "demo", 3, &cells).unwrap();
        assert_eq!(state.retried_failures.len(), 1);
        sink.on_result(&result(1));
        let manifest = sink.finish().unwrap();
        assert_eq!(manifest.completed, vec![0, 1, 2]);
        assert!(manifest.failed.is_empty());
        let text = std::fs::read_to_string(&out).unwrap();
        let indices: Vec<u64> = text
            .lines()
            .map(|l| {
                Json::parse(l).unwrap().get("scenario").unwrap().get("index").unwrap().as_u64()
            })
            .map(Option::unwrap)
            .collect();
        assert_eq!(indices, vec![0, 1, 2], "file repaired to index order");
    }

    #[test]
    fn merge_rejects_gaps_and_duplicates_and_orders_by_index() {
        let dir = ScratchDir::new("campaign", "merge");
        let shard_a = dir.join("a.jsonl");
        let shard_b = dir.join("b.jsonl");
        let write = |path: &Path, indices: &[usize]| {
            let mut text = String::new();
            for &i in indices {
                text.push_str(&result(i).to_json().to_compact());
                text.push('\n');
            }
            std::fs::write(path, text).unwrap();
        };
        write(&shard_a, &[0, 2]);
        write(&shard_b, &[1, 3]);
        let out = dir.join("merged.jsonl");
        let stats = merge_results(&[shard_a.clone(), shard_b.clone()], &out).unwrap();
        assert_eq!(stats, MergeStats { inputs: 2, records: 4 });
        let text = std::fs::read_to_string(&out).unwrap();
        let mut expect = String::new();
        for i in 0..4 {
            expect.push_str(&result(i).to_json().to_compact());
            expect.push('\n');
        }
        assert_eq!(text, expect, "merge is submission-ordered and byte-verbatim");

        // A gap (missing cell 1) is a mismatch, not a silent hole.
        write(&shard_b, &[3]);
        assert!(matches!(
            merge_results(&[shard_a.clone(), shard_b.clone()], &out),
            Err(CampaignError::Mismatch(_))
        ));
        // Overlapping shards are a mismatch naming both files.
        write(&shard_b, &[0, 1, 3]);
        let err = merge_results(&[shard_a, shard_b], &out).unwrap_err();
        assert!(matches!(err, CampaignError::Mismatch(_)));
        assert!(err.to_string().contains("cell 0"));
    }

    #[test]
    fn shard_planner_is_deterministic_and_keeps_units_whole() {
        let spec = ExperimentSpec::parse(
            r#"{
                "name": "shard_demo",
                "patch": {"cores": 1, "target_instructions": 2000,
                          "trace_records_per_core": 1000, "max_sim_ns": 2000000},
                "defenses": ["baseline", "srs", "scale-srs"],
                "workloads": ["gups", "gcc"]
            }"#,
        )
        .unwrap();
        let shards = plan_shards(&spec, 2).unwrap();
        assert_eq!(shards, plan_shards(&spec, 2).unwrap(), "planning is deterministic");
        let experiment = spec.to_experiment().unwrap();
        let units = execution_units(&experiment);
        // Every unit lands wholly inside one shard.
        for unit in &units {
            let homes: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| unit.iter().any(|c| s.cells.contains(c)))
                .map(|(k, _)| k)
                .collect();
            assert_eq!(homes.len(), 1, "unit {unit:?} spans shards {homes:?}");
            let home = &shards[homes[0]];
            assert!(unit.iter().all(|c| home.cells.contains(c)));
        }
        // Shards partition the grid.
        let mut all: Vec<usize> = shards.iter().flat_map(|s| s.cells.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..experiment.job_count()).collect::<Vec<_>>());
        // Round-trip through the on-disk form.
        let text = shards[0].to_json().to_pretty();
        let parsed = ShardManifest::parse("shard0", &text).unwrap();
        assert_eq!(parsed, shards[0]);
        assert!(ShardManifest::is_shard_json(&Json::parse(&text).unwrap()));
        assert!(!ShardManifest::is_shard_json(&Json::parse("{\"name\": \"x\"}").unwrap()));
        // More shards than units clamps instead of emitting empty shards.
        let many = plan_shards(&spec, 64).unwrap();
        assert_eq!(many.len(), units.len());
        assert!(many.iter().all(|s| !s.cells.is_empty()));
    }

    fn shard_cells(spec: &ExperimentSpec, shards: usize) -> Vec<Vec<usize>> {
        plan_shards(spec, shards).unwrap().into_iter().map(|s| s.cells).collect()
    }

    /// The CI campaign smoke's four workloads have four different
    /// profiles, so no unit merges workloads: every unit weighs its cell
    /// count, and the plans are the cell-count-balanced ones below.
    #[test]
    fn shard_plans_without_merged_groups_are_unchanged() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/paper_campaign_smoke.json");
        let spec = ExperimentSpec::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let every_fourth = |first: usize| vec![first, first + 4, first + 8];
        let per_unit: Vec<Vec<usize>> = (0..4).map(every_fourth).collect();
        assert_eq!(shard_cells(&spec, 1), vec![(0..12).collect::<Vec<_>>()]);
        assert_eq!(shard_cells(&spec, 2), vec![vec![0, 2, 4, 6, 8, 10], vec![1, 3, 5, 7, 9, 11]]);
        assert_eq!(
            shard_cells(&spec, 3),
            vec![vec![0, 3, 4, 7, 8, 11], vec![1, 5, 9], vec![2, 6, 10]]
        );
        for shards in [4, 5, 8] {
            assert_eq!(shard_cells(&spec, shards), per_unit, "{shards} shards");
        }
    }

    /// gcc and hmmer generate one trace, so their four cells form one unit
    /// that simulates two configurations: it weighs 2, like each
    /// two-cell unit beside it, not 4.
    #[test]
    fn merged_groups_weigh_their_distinct_configurations() {
        let spec = ExperimentSpec::parse(
            r#"{
                "name": "merged_weights",
                "patch": {"cores": 1, "target_instructions": 2000,
                          "trace_records_per_core": 1000, "max_sim_ns": 2000000},
                "defenses": ["srs", "scale-srs"],
                "workloads": ["gcc", "hmmer", "gups", "mcf"]
            }"#,
        )
        .unwrap();
        let units = execution_units(&spec.to_experiment().unwrap());
        assert_eq!(units, vec![vec![0, 1, 4, 5], vec![2, 6], vec![3, 7]]);
        assert_eq!(shard_cells(&spec, 2), vec![vec![0, 1, 3, 4, 5, 7], vec![2, 6]]);
    }
}
