//! The adaptive attack-search executor: snapshot-powered scoring, the
//! crash-safe generation stream, and the replay reproducibility guard.
//!
//! [`srs_attack::search`] owns the genome, the operators and the
//! generational state machine; this module supplies the other half of the
//! closed loop — *scoring*. One benign [`System`] is warmed to steady
//! state under the spec-selected grid cell, then every candidate of a
//! generation gets its own [`System::fork`] of that snapshot with the
//! candidate attack installed ([`System::install_attack`]), run to
//! completion on the ordered parallel executor. Fitness comes straight
//! off the [`SecurityReport`]: time-to-first-TRH-crossing, with the
//! closest-approach pressure ratio as the deterministic tiebreak for
//! candidates that never cross.
//!
//! Persistence is the results-stream journal campaigns use: one compact
//! JSON line per generation appended to the output stream, and an
//! atomically rewritten (`tmp` + rename) manifest beside it holding the
//! population, the generation index and the best-so-far record. Because
//! the breeding RNG derives from the seed and generation index alone,
//! resuming from the manifest is byte-identical to never having stopped —
//! the same property `SRS_SEARCH_CRASH_AFTER` lets CI prove by killing a
//! run mid-stream.

use std::path::{Path, PathBuf};

use srs_attack::search::Search;
pub use srs_attack::search::{Candidate, GenerationSummary, Score, SearchConfig};

use crate::journal::{load_manifest, manifest_path, save_manifest, Journal, JournalError};
use crate::json::{obj, Json, ToJson};
use crate::scenario::{Experiment, Scenario};
use crate::security::SecurityReport;
use crate::spec::{attack_spec_from_json, ExperimentSpec, SearchSpec, SpecError};
use crate::system::System;

/// Everything that can go wrong driving a search campaign.
#[derive(Debug)]
pub enum SearchError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// What was being attempted.
        action: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The spec could not be resolved (or has no `search` block).
    Spec(SpecError),
    /// The on-disk state does not match the campaign being (re)run.
    Manifest(String),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Io { path, action, error } => {
                write!(f, "cannot {action} {}: {error}", path.display())
            }
            SearchError::Spec(error) => write!(f, "{error}"),
            SearchError::Manifest(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<SpecError> for SearchError {
    fn from(error: SpecError) -> Self {
        SearchError::Spec(error)
    }
}

impl From<JournalError> for SearchError {
    fn from(error: JournalError) -> Self {
        match error {
            JournalError::Io { path, action, error } => SearchError::Io { path, action, error },
            JournalError::Corrupt(message) => SearchError::Manifest(message),
        }
    }
}

/// Extract a candidate's fitness from its run's security report.
#[must_use]
pub fn score_from_report(report: &SecurityReport) -> Score {
    Score {
        first_crossing_ns: report.first_crossing_ns,
        max_pressure: report.max_victim_pressure,
        t_rh: report.t_rh,
        closest_ns: report.closest_approach_ns,
    }
}

/// JSON form of a score as embedded in generation records and manifests.
fn score_json(score: &Score) -> Json {
    obj(vec![
        ("first_crossing_ns", score.first_crossing_ns.into()),
        ("max_pressure", score.max_pressure.into()),
        ("t_rh", score.t_rh.into()),
        ("closest_ns", score.closest_ns.into()),
        ("pressure_ratio", score.pressure_ratio().into()),
    ])
}

fn score_from_json(json: &Json) -> Result<Score, String> {
    let need_u64 = |field: &str| {
        json.get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("score field '{field}' must be a u64"))
    };
    Ok(Score {
        first_crossing_ns: match json.get("first_crossing_ns") {
            None | Some(Json::Null) => None,
            Some(value) => {
                Some(value.as_u64().ok_or("score field 'first_crossing_ns' must be u64 or null")?)
            }
        },
        max_pressure: need_u64("max_pressure")?,
        t_rh: need_u64("t_rh")?,
        closest_ns: match json.get("closest_ns") {
            None | Some(Json::Null) => None,
            Some(value) => {
                Some(value.as_u64().ok_or("score field 'closest_ns' must be u64 or null")?)
            }
        },
    })
}

fn candidate_json(candidate: &Candidate) -> Json {
    candidate.to_attack_spec().to_json()
}

fn candidate_from_json(json: &Json) -> Result<Candidate, String> {
    let spec = attack_spec_from_json(json).map_err(|e| e.to_string())?;
    Ok(Candidate { name: spec.name, pattern: spec.pattern, seed: spec.seed })
}

/// The best candidate found so far, with the full security report of its
/// scoring run (kept as JSON verbatim so replay can byte-diff it).
#[derive(Debug, Clone, PartialEq)]
pub struct BestFound {
    /// The champion candidate.
    pub candidate: Candidate,
    /// Its fitness.
    pub score: Score,
    /// The [`SecurityReport`] JSON of its scoring run.
    pub report: Json,
}

impl BestFound {
    fn to_json(&self) -> Json {
        obj(vec![
            ("attack", candidate_json(&self.candidate)),
            ("score", score_json(&self.score)),
            ("report", self.report.clone()),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let attack = json.get("attack").ok_or("best record needs an 'attack' object")?;
        let score = json.get("score").ok_or("best record needs a 'score' object")?;
        let report = json.get("report").ok_or("best record needs a 'report' object")?;
        Ok(Self {
            candidate: candidate_from_json(attack)?,
            score: score_from_json(score)?,
            report: report.clone(),
        })
    }
}

/// The atomically rewritten sidecar state of a search campaign: enough to
/// resume bit-identically after a crash.
#[derive(Debug, Clone)]
struct SearchManifest {
    campaign: String,
    cell: usize,
    total_generations: usize,
    generations_done: usize,
    bytes_committed: u64,
    population: Vec<Candidate>,
    best: Option<BestFound>,
}

impl SearchManifest {
    fn to_json(&self) -> Json {
        obj(vec![
            ("campaign", Json::from(self.campaign.as_str())),
            ("kind", Json::from("search")),
            ("cell", self.cell.into()),
            ("total_generations", self.total_generations.into()),
            ("generations_done", self.generations_done.into()),
            ("bytes_committed", self.bytes_committed.into()),
            ("population", Json::Array(self.population.iter().map(candidate_json).collect())),
            ("best", self.best.as_ref().map_or(Json::Null, BestFound::to_json)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        if json.get("kind").and_then(Json::as_str) != Some("search") {
            return Err("not a search manifest (missing \"kind\": \"search\")".to_string());
        }
        let need_u64 = |field: &str| {
            json.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("manifest field '{field}' must be a u64"))
        };
        let population = json
            .get("population")
            .and_then(Json::as_array)
            .ok_or("manifest field 'population' must be an array")?
            .iter()
            .map(candidate_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let best = match json.get("best") {
            None | Some(Json::Null) => None,
            Some(value) => Some(BestFound::from_json(value)?),
        };
        Ok(Self {
            campaign: json
                .get("campaign")
                .and_then(Json::as_str)
                .ok_or("manifest field 'campaign' must be a string")?
                .to_string(),
            cell: need_u64("cell")? as usize,
            total_generations: need_u64("total_generations")? as usize,
            generations_done: need_u64("generations_done")? as usize,
            bytes_committed: need_u64("bytes_committed")?,
            population,
            best,
        })
    }

    fn save(&self, path: &Path) -> Result<(), SearchError> {
        Ok(save_manifest(path, &self.to_json())?)
    }

    fn load(path: &Path) -> Result<Self, SearchError> {
        Self::from_json(&load_manifest(path)?)
            .map_err(|message| SearchError::Manifest(format!("{}: {message}", path.display())))
    }
}

/// `SRS_SEARCH_CRASH_AFTER=N` makes the stream commit the first `N`
/// generation records of this run, write only the first half of record
/// `N + 1`, flush it, and abort the process — the CI hook proving
/// `--resume` recovers from a torn line.
const CRASH_AFTER_VAR: &str = "SRS_SEARCH_CRASH_AFTER";

/// What one [`run_search`] invocation accomplished.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Generations scored by this invocation (0 when resuming a finished
    /// campaign).
    pub generations_run: usize,
    /// Generations committed in total, across all invocations.
    pub generations_done: usize,
    /// The champion across the whole campaign.
    pub best: BestFound,
    /// Torn-record bytes truncated on resume (non-zero exactly when the
    /// previous run died mid-write).
    pub truncated_bytes: u64,
}

/// Resolve `spec`'s grid and pick the cell `search` targets.
fn search_cell(
    spec: &ExperimentSpec,
    search: &SearchSpec,
) -> Result<(Experiment, Scenario), SearchError> {
    let experiment = spec.to_experiment()?;
    let scenarios = experiment.scenarios();
    let cells = scenarios.len();
    let scenario = scenarios.into_iter().nth(search.cell).ok_or_else(|| {
        SearchError::Manifest(format!(
            "search.cell {} is out of range: '{}' resolves to {cells} cells",
            search.cell, spec.name
        ))
    })?;
    Ok((experiment, scenario))
}

/// Warm the scenario selected by `spec.search` to its warm-up horizon:
/// a benign system (no attack installed) over the cell's workload.
pub fn warm_system(spec: &ExperimentSpec, search: &SearchSpec) -> Result<System, SearchError> {
    let (experiment, scenario) = search_cell(spec, search)?;
    let mut config = experiment.config_for(&scenario);
    // The warm-up is benign by construction: the attack axis is the
    // search's output, not its input.
    config.attack = None;
    let trace = scenario.workload.spec().generate(config.trace_records_per_core, config.seed);
    let mut system = System::new(config, trace);
    system.run_until_ns(search.warmup_ns);
    Ok(system)
}

/// Score one candidate solo: a fresh system warmed from scratch, the
/// candidate installed at the horizon, run to completion. This is the
/// from-scratch reference the fork-batch path must agree with, and the
/// `--replay` reproducibility guard.
pub fn score_solo(
    spec: &ExperimentSpec,
    search: &SearchSpec,
    candidate: &Candidate,
) -> Result<SecurityReport, SearchError> {
    let mut system = warm_system(spec, search)?;
    system.install_attack(candidate.to_attack_spec());
    let result = system.run();
    result.security.ok_or_else(|| {
        SearchError::Manifest("attacked run produced no security report".to_string())
    })
}

/// One generation record of the output stream.
fn generation_record(campaign: &str, cell: usize, summary: &GenerationSummary) -> Json {
    obj(vec![
        ("generation", summary.index.into()),
        ("campaign", Json::from(campaign)),
        ("cell", cell.into()),
        (
            "best",
            obj(vec![
                ("attack", candidate_json(&summary.best.0)),
                ("score", score_json(&summary.best.1)),
            ]),
        ),
        (
            "best_so_far",
            obj(vec![
                ("attack", candidate_json(&summary.best_so_far.0)),
                ("score", score_json(&summary.best_so_far.1)),
            ]),
        ),
    ])
}

/// Schema check for one line of a search generation stream (the `validate`
/// counterpart of [`crate::sink::validate_result_record`] for `search`
/// outputs).
pub fn validate_search_record(record: &Json) -> Result<(), String> {
    for field in ["generation", "cell"] {
        record
            .get(field)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("record needs a u64 '{field}'"))?;
    }
    record.get("campaign").and_then(Json::as_str).ok_or("record needs a string 'campaign'")?;
    for field in ["best", "best_so_far"] {
        let entry = record.get(field).ok_or_else(|| format!("record needs a '{field}' object"))?;
        let attack = entry.get("attack").ok_or_else(|| format!("'{field}' needs an 'attack'"))?;
        candidate_from_json(attack).map_err(|e| format!("'{field}.attack': {e}"))?;
        let score = entry.get("score").ok_or_else(|| format!("'{field}' needs a 'score'"))?;
        score_from_json(score).map_err(|e| format!("'{field}.score': {e}"))?;
        score
            .get("pressure_ratio")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("'{field}.score' needs an f64 'pressure_ratio'"))?;
    }
    Ok(())
}

/// Run (or resume) the search campaign described by `spec` — which must
/// carry a `search` block — streaming one generation record per line to
/// `out` with a crash-safe manifest beside it.
///
/// `threads` caps the scoring workers (0 means the engine default);
/// `stop_after` limits how many generations this invocation scores (used
/// by tests to exercise mid-campaign resume in-process; `None` runs to the
/// configured budget). `progress` observes each generation as it commits.
pub fn run_search(
    spec: &ExperimentSpec,
    out: &Path,
    resume: bool,
    threads: usize,
    stop_after: Option<usize>,
    progress: &mut dyn FnMut(&GenerationSummary),
) -> Result<SearchOutcome, SearchError> {
    let search_spec = spec
        .search
        .clone()
        .ok_or_else(|| SearchError::Spec(SpecError::field("search", "spec has no search block")))?;
    // Resolve the grid and check the block as the caller resolved it
    // (command-line overrides included) before the stream exists: a search
    // that cannot run leaves no output behind.
    search_cell(spec, &search_spec)?;
    search_spec.check_budget()?;
    let config = search_spec.to_search_config();
    let threads = if threads == 0 { crate::scenario::default_threads() } else { threads };
    let manifest_path = manifest_path(out);

    let (mut search, mut manifest, mut journal, truncated_bytes) = if resume {
        let manifest = SearchManifest::load(&manifest_path)?;
        if manifest.campaign != spec.name {
            return Err(SearchError::Manifest(format!(
                "manifest belongs to campaign '{}', not '{}'",
                manifest.campaign, spec.name
            )));
        }
        if manifest.cell != search_spec.cell || manifest.total_generations != config.generations {
            return Err(SearchError::Manifest(
                "manifest does not match the spec's search block (cell or generation budget \
                 changed); re-run without --resume"
                    .to_string(),
            ));
        }
        let (journal, truncated) = Journal::resume(out, manifest.bytes_committed, CRASH_AFTER_VAR)?;
        let search = Search::resume(
            config,
            manifest.generations_done,
            manifest.population.clone(),
            manifest.best.as_ref().map(|b| (b.candidate.clone(), b.score)),
        );
        (search, manifest, journal, truncated)
    } else {
        let journal = Journal::create(out, CRASH_AFTER_VAR)?;
        let search = Search::new(config.clone());
        let manifest = SearchManifest {
            campaign: spec.name.clone(),
            cell: search_spec.cell,
            total_generations: config.generations,
            generations_done: 0,
            bytes_committed: 0,
            population: search.population().to_vec(),
            best: None,
        };
        manifest.save(&manifest_path)?;
        (search, manifest, journal, 0)
    };

    let mut generations_run = 0usize;

    if !search.done() && stop_after != Some(0) {
        let warm = warm_system(spec, &search_spec)?;
        while !search.done() {
            let specs = search.population().iter().map(Candidate::to_attack_spec).collect();
            let results = warm.fork_each(specs, threads);
            let mut scores = Vec::with_capacity(results.len());
            let mut reports = Vec::with_capacity(results.len());
            for result in &results {
                let report = result.security.as_ref().ok_or_else(|| {
                    SearchError::Manifest("attacked run produced no security report".to_string())
                })?;
                scores.push(score_from_report(report));
                reports.push(report);
            }
            let summary = search.advance(&scores);
            // `advance` only ever promotes the generation's best candidate,
            // so when the two records agree the champion came from this
            // generation — capture its full report for replay.
            if summary.best_so_far == summary.best {
                // Invariant: `best_so_far == best` means the champion was
                // promoted from this generation's score vector.
                #[allow(clippy::expect_used)]
                let index = scores
                    .iter()
                    .position(|s| *s == summary.best.1)
                    .expect("the generation best was scored this generation");
                manifest.best = Some(BestFound {
                    candidate: summary.best.0.clone(),
                    score: summary.best.1,
                    report: reports[index].to_json(),
                });
            }

            let record = generation_record(&manifest.campaign, manifest.cell, &summary);
            manifest.bytes_committed = journal.append(record.to_compact())?;
            generations_run += 1;
            manifest.generations_done = summary.index + 1;
            manifest.population = search.population().to_vec();
            manifest.save(&manifest_path)?;
            progress(&summary);
            if stop_after == Some(generations_run) {
                break;
            }
        }
    }

    let best = manifest.best.clone().ok_or_else(|| {
        SearchError::Manifest("campaign has no scored generations yet".to_string())
    })?;
    Ok(SearchOutcome {
        generations_run,
        generations_done: manifest.generations_done,
        best,
        truncated_bytes,
    })
}

/// The self-contained champion record `srs-cli search` writes beside the
/// generation stream: everything `--replay` needs to re-score the found
/// pattern from scratch and byte-diff the result.
#[must_use]
pub fn best_record(spec: &ExperimentSpec, outcome: &SearchOutcome) -> Json {
    obj(vec![
        ("spec", spec.to_json()),
        ("attack", candidate_json(&outcome.best.candidate)),
        ("score", score_json(&outcome.best.score)),
        ("report", outcome.best.report.clone()),
    ])
}

/// What [`replay_best`] produced: the recorded report and the fresh
/// re-scored one, both as compact JSON for byte comparison.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Name of the replayed candidate.
    pub attack: String,
    /// The recorded report, compact-encoded.
    pub recorded: String,
    /// The freshly re-simulated report, compact-encoded.
    pub replayed: String,
}

impl ReplayOutcome {
    /// Whether the replay reproduced the recorded score byte-for-byte.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.recorded == self.replayed
    }
}

/// Re-run a champion record solo (fresh warm-up, same candidate) and
/// return both report encodings for byte comparison.
pub fn replay_best(record: &Json) -> Result<ReplayOutcome, SearchError> {
    let spec_json = record
        .get("spec")
        .ok_or_else(|| SearchError::Manifest("best record needs a 'spec' object".to_string()))?;
    let spec = ExperimentSpec::from_json(spec_json)?;
    let search = spec
        .search
        .clone()
        .ok_or_else(|| SearchError::Spec(SpecError::field("search", "spec has no search block")))?;
    let candidate = record
        .get("attack")
        .ok_or_else(|| SearchError::Manifest("best record needs an 'attack' object".to_string()))
        .and_then(|attack| candidate_from_json(attack).map_err(SearchError::Manifest))?;
    let recorded = record
        .get("report")
        .ok_or_else(|| SearchError::Manifest("best record needs a 'report' object".to_string()))?
        .to_compact();
    let report = score_solo(&spec, &search, &candidate)?;
    Ok(ReplayOutcome { attack: candidate.name, recorded, replayed: report.to_json().to_compact() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::scratch::ScratchDir;
    use std::io::Write;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::parse(
            r#"{
                "name": "search-test",
                "patch": {"cores": 1, "target_instructions": 18446744073709551615,
                          "trace_records_per_core": 1500, "refresh_window_ns": 8000000,
                          "max_sim_ns": 1500000},
                "defenses": ["baseline"],
                "thresholds": [300],
                "workloads": ["gups"],
                "threads": 2,
                "search": {"population": 4, "generations": 2, "warmup_ns": 200000,
                           "seed": 11, "elites": 1}
            }"#,
        )
        .expect("tiny search spec parses")
    }

    fn run_to_file(spec: &ExperimentSpec, out: &Path) -> SearchOutcome {
        run_search(spec, out, false, 2, None, &mut |_| {}).expect("search runs")
    }

    #[test]
    fn search_stream_is_deterministic_per_seed() {
        let dir = ScratchDir::new("search", "determinism");
        let spec = tiny_spec();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        run_to_file(&spec, &a);
        run_to_file(&spec, &b);
        let bytes_a = std::fs::read(&a).unwrap();
        assert_eq!(bytes_a, std::fs::read(&b).unwrap(), "same spec + seed, same bytes");
        assert!(!bytes_a.is_empty());
        for line in String::from_utf8(bytes_a).unwrap().lines() {
            let record = Json::parse(line).expect("every line parses");
            validate_search_record(&record).expect("every line passes the schema");
        }
    }

    #[test]
    fn resumed_campaign_matches_uninterrupted_bytes() {
        let dir = ScratchDir::new("search", "resume");
        let spec = tiny_spec();
        let reference = dir.join("ref.jsonl");
        let reference_outcome = run_to_file(&spec, &reference);

        let resumed = dir.join("resumed.jsonl");
        // First invocation stops mid-campaign; the second resumes from the
        // manifest and must land on the same bytes.
        run_search(&spec, &resumed, false, 2, Some(1), &mut |_| {}).expect("partial run");
        let outcome = run_search(&spec, &resumed, true, 2, None, &mut |_| {}).expect("resumed run");
        assert_eq!(std::fs::read(&reference).unwrap(), std::fs::read(&resumed).unwrap());
        assert_eq!(outcome.generations_done, 2);
        assert_eq!(outcome.best.report, reference_outcome.best.report);
    }

    #[test]
    fn resume_truncates_a_torn_final_record() {
        let dir = ScratchDir::new("search", "torn");
        let spec = tiny_spec();
        let reference = dir.join("ref.jsonl");
        run_to_file(&spec, &reference);

        let torn = dir.join("torn.jsonl");
        run_search(&spec, &torn, false, 2, Some(1), &mut |_| {}).expect("partial run");
        // Simulate a crash mid-write: garbage past the committed bytes.
        let mut file = std::fs::OpenOptions::new().append(true).open(&torn).unwrap();
        file.write_all(b"{\"generation\":1,\"camp").unwrap();
        drop(file);
        let outcome = run_search(&spec, &torn, true, 2, None, &mut |_| {}).expect("resumed");
        assert!(outcome.truncated_bytes > 0, "the torn tail was detected and cut");
        assert_eq!(std::fs::read(&reference).unwrap(), std::fs::read(&torn).unwrap());
    }

    #[test]
    fn resume_refuses_a_stream_shorter_than_its_committed_bytes() {
        let dir = ScratchDir::new("search", "cut");
        let spec = tiny_spec();
        let out = dir.join("cut.jsonl");
        run_search(&spec, &out, false, 2, Some(1), &mut |_| {}).expect("partial run");
        // Cut into the committed record: resuming would append the next
        // generation behind half a line.
        let committed = std::fs::read(&out).unwrap();
        let cut = &committed[..committed.len() / 2];
        std::fs::write(&out, cut).unwrap();
        let err = run_search(&spec, &out, true, 2, None, &mut |_| {})
            .expect_err("a stream cut below bytes_committed must be refused");
        match err {
            SearchError::Manifest(message) => {
                assert!(message.contains("truncated externally"), "message: {message}")
            }
            other => panic!("expected SearchError::Manifest, got {other:?}"),
        }
        assert_eq!(std::fs::read(&out).unwrap(), cut, "the stream is left as it was");
    }

    #[test]
    fn replay_reproduces_the_recorded_report_bytes() {
        let dir = ScratchDir::new("search", "replay");
        let spec = tiny_spec();
        let out = dir.join("s.jsonl");
        let outcome = run_to_file(&spec, &out);
        let record = best_record(&spec, &outcome);
        let replay = replay_best(&record).expect("replay runs");
        assert!(
            replay.matches(),
            "replayed report diverged:\n recorded: {}\n replayed: {}",
            replay.recorded,
            replay.replayed
        );
    }

    #[test]
    fn fork_batch_scoring_equals_solo_scoring() {
        let spec = tiny_spec();
        let search_spec = spec.search.clone().unwrap();
        let warm = warm_system(&spec, &search_spec).expect("warm system");
        let candidates = srs_attack::search::shipped_candidates();
        let specs = candidates.iter().map(Candidate::to_attack_spec).collect();
        let batch = warm.fork_each(specs, 2);
        for (candidate, result) in candidates.iter().zip(&batch) {
            let solo = score_solo(&spec, &search_spec, candidate).expect("solo run");
            let batch_report = result.security.as_ref().expect("attacked run reports");
            assert_eq!(
                batch_report.to_json().to_compact(),
                solo.to_json().to_compact(),
                "candidate '{}' scored differently via fork-batch and from scratch",
                candidate.name
            );
        }
    }

    #[test]
    fn mismatched_resume_is_rejected() {
        let dir = ScratchDir::new("search", "mismatch");
        let spec = tiny_spec();
        let out = dir.join("s.jsonl");
        run_to_file(&spec, &out);
        let mut renamed = spec.clone();
        renamed.name = "someone-else".to_string();
        let err = run_search(&renamed, &out, true, 2, None, &mut |_| {})
            .expect_err("campaign name mismatch must be rejected");
        assert!(matches!(err, SearchError::Manifest(_)));
    }
}
