//! Streaming consumers of campaign results.
//!
//! [`crate::campaign::Campaign::run`] pushes every executed cell's outcome
//! into a [`ResultSink`] the moment its submission-order prefix completes,
//! instead of materializing one end-of-run `Vec`. A grid of thousands of
//! cells can therefore stream to disk through the crash-safe
//! [`crate::campaign::CheckpointSink`], drive a live progress display
//! ([`ProgressSink`]) and write the telemetry sidecar
//! ([`crate::telemetry::TelemetrySidecarSink`]); `srs-cli run` feeds all
//! three from one composite sink. [`crate::scenario::Experiment::run`] is
//! the collect-to-`Vec` view of the same engine.

use std::io::Write;
use std::time::Instant;

use crate::campaign::{CampaignReport, CellFailure};
use crate::json::Json;
use crate::scenario::{Scenario, ScenarioResult, UnitStats};

/// Check one emitted result record (a parsed line of a results JSONL
/// file) against the schema of [`ScenarioResult`]'s JSON encoding. Used by
/// `srs-cli validate` and `report` and by the campaign merge step
/// ([`crate::campaign::merge_results`]).
pub fn validate_result_record(record: &Json) -> Result<(), String> {
    let scenario = record.get("scenario").ok_or("missing 'scenario'")?;
    for key in ["defense", "tracker", "workload", "suite"] {
        scenario
            .get(key)
            .and_then(Json::as_str)
            .ok_or(format!("scenario.{key} must be a string"))?;
    }
    for key in ["index", "t_rh"] {
        scenario
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("scenario.{key} must be an integer"))?;
    }
    let result = record.get("result").ok_or("missing 'result'")?;
    let norm = result
        .get("normalized_performance")
        .and_then(Json::as_f64)
        .ok_or("result.normalized_performance must be a number")?;
    if !(0.0..=1.5).contains(&norm) {
        return Err(format!("normalized performance {norm} out of range"));
    }
    let detail = result.get("detail").ok_or("missing 'result.detail'")?;
    for key in ["elapsed_ns", "instructions", "swaps"] {
        detail.get(key).and_then(Json::as_u64).ok_or(format!("detail.{key} must be an integer"))?;
    }
    // Attacked cells must carry a security report, benign cells a null.
    let attacked = scenario.get("attack").is_some_and(|a| !a.is_null());
    let security = detail.get("security").ok_or("missing 'detail.security'")?;
    if attacked && security.is_null() {
        return Err("attacked cell has no security report".into());
    }
    if !security.is_null() {
        security
            .get("max_victim_pressure")
            .and_then(Json::as_u64)
            .ok_or("security.max_victim_pressure must be an integer")?;
    }
    // The integrity report is null unless the cell enabled the fault model
    // (older records omit the key entirely — both are valid).
    if let Some(integrity) = detail.get("integrity") {
        if !integrity.is_null() {
            for key in ["bit_flips_injected", "corrupted_reads"] {
                integrity
                    .get(key)
                    .and_then(Json::as_u64)
                    .ok_or(format!("integrity.{key} must be an integer"))?;
            }
        }
    }
    Ok(())
}

/// A streaming consumer of campaign outcomes.
///
/// `on_result` and `on_cell_failed` together are invoked exactly once per
/// executed cell, strictly in ascending cell-index order, which keeps sink
/// output deterministic run to run. `on_scenario_start` is invoked when a
/// worker picks a cell up; those arrive in completion-race order, never
/// fire for skipped cells, and are meant for progress reporting only.
pub trait ResultSink {
    /// A worker started simulating `scenario` (arrival order is
    /// nondeterministic; do not sequence on it).
    fn on_scenario_start(&mut self, scenario: &Scenario) {
        let _ = scenario;
    }

    /// One cell finished; called in ascending cell-index order.
    fn on_result(&mut self, result: &ScenarioResult);

    /// One cell's execution unit panicked; called at the cell's slot in
    /// the same ascending order as `on_result`.
    fn on_cell_failed(&mut self, failure: &CellFailure) {
        let _ = failure;
    }

    /// One execution unit finished (successfully or not), reporting its
    /// wall-clock duration; called once per unit in unit submission order.
    /// Wall times are machine-dependent — treat them as profiling data,
    /// never as results.
    fn on_unit_stats(&mut self, stats: &UnitStats) {
        let _ = stats;
    }

    /// The campaign drained (successfully or degraded).
    fn on_finish(&mut self, report: &CampaignReport) {
        let _ = report;
    }
}

/// Live progress and ETA, one line per completed cell — point it at
/// standard error next to a results stream on disk.
#[derive(Debug)]
pub struct ProgressSink<W: Write> {
    out: W,
    total: usize,
    offset: usize,
    finished: usize,
    begun: Instant,
}

impl<W: Write> ProgressSink<W> {
    /// Report progress towards `total` cells (use
    /// [`crate::scenario::Experiment::job_count`]) into `out`.
    #[must_use]
    pub fn new(total: usize, out: W) -> Self {
        Self { out, total, offset: 0, finished: 0, begun: Instant::now() }
    }

    /// Display `skipped` cells as already done (a resumed campaign): the
    /// counter reads `[skipped + finished / skipped + total]` while the
    /// ETA stays extrapolated from this run's `total` remaining cells
    /// only — previously-completed work must not dilute the estimate.
    #[must_use]
    pub fn with_offset(mut self, skipped: usize) -> Self {
        self.offset = skipped;
        self
    }

    /// Cells finished so far (this run; excludes the display offset).
    #[must_use]
    pub fn finished(&self) -> usize {
        self.finished
    }

    /// Consume the sink, returning its writer (e.g. to inspect a test
    /// buffer).
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> ResultSink for ProgressSink<W> {
    fn on_result(&mut self, result: &ScenarioResult) {
        self.finished += 1;
        let elapsed = self.begun.elapsed().as_secs_f64();
        let eta = if self.total > self.finished {
            elapsed / self.finished as f64 * (self.total - self.finished) as f64
        } else {
            0.0
        };
        // Progress output is advisory; swallow I/O errors (a closed stderr
        // must not kill the experiment).
        let _ = writeln!(
            self.out,
            "[{}/{}] {} on {} trh={} norm={:.3} elapsed={elapsed:.1}s eta={eta:.1}s",
            self.offset + self.finished,
            self.offset + self.total,
            result.scenario.defense,
            result.scenario.workload.name,
            result.scenario.t_rh,
            result.normalized(),
        );
    }

    fn on_finish(&mut self, report: &CampaignReport) {
        let elapsed = self.begun.elapsed().as_secs_f64();
        let _ = writeln!(self.out, "done: {} cells in {elapsed:.1}s", report.completed);
        let _ = self.out.flush();
    }
}

/// A fixed benign Scale-SRS result for grid cell `index`, for tests of
/// the layers that store and move records.
#[cfg(test)]
pub(crate) fn sample_result(index: usize) -> ScenarioResult {
    use crate::metrics::{NormalizedResult, SimResult};
    use srs_core::DefenseKind;
    use srs_trackers::TrackerKind;
    let workload = srs_workloads::all_workloads().remove(0);
    ScenarioResult {
        scenario: Scenario {
            index,
            defense: DefenseKind::ScaleSrs,
            t_rh: 1200,
            tracker: TrackerKind::MisraGries,
            cores: None,
            seed: None,
            attack: None,
            workload,
        },
        result: NormalizedResult {
            workload: "gups".to_string(),
            defense: "scale-srs".to_string(),
            t_rh: 1200,
            normalized_performance: 0.5,
            detail: SimResult {
                workload: "gups".to_string(),
                defense: "scale-srs".to_string(),
                t_rh: 1200,
                elapsed_ns: 10,
                per_core_ipc: vec![1.0],
                instructions: 100,
                controller: srs_dram::ControllerStats::default(),
                swaps: 1,
                rows_pinned: 0,
                pinned_hits: 0,
                max_row_activations_in_window: 3,
                security: None,
                integrity: None,
                telemetry: None,
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::ToJson;

    #[test]
    fn progress_counts_cells_and_reports_the_finish() {
        let mut progress = ProgressSink::new(2, Vec::new());
        progress.on_scenario_start(&sample_result(0).scenario);
        progress.on_result(&sample_result(0));
        progress.on_result(&sample_result(1));
        let report =
            CampaignReport { total_cells: 2, planned: 2, skipped: 0, completed: 2, failed: vec![] };
        progress.on_finish(&report);
        assert_eq!(progress.finished(), 2);
        let text = String::from_utf8(progress.out).unwrap();
        assert!(text.contains("[1/2]") && text.contains("[2/2]") && text.contains("done: 2"));
    }

    #[test]
    fn progress_offset_shifts_the_counter_but_not_the_eta_basis() {
        // A resumed campaign with 10 cells already done and 2 remaining:
        // the display counts 11/12 and 12/12, but the ETA is extrapolated
        // from this run's cells only (after the last one it must be 0).
        let mut progress = ProgressSink::new(2, Vec::new()).with_offset(10);
        progress.on_result(&sample_result(10));
        progress.on_result(&sample_result(11));
        assert_eq!(progress.finished(), 2);
        let text = String::from_utf8(progress.out).unwrap();
        assert!(text.contains("[11/12]") && text.contains("[12/12]"), "offset display: {text}");
        let last = text.lines().last().unwrap();
        assert!(last.contains("eta=0.0s"), "remaining-cells ETA hits zero: {last}");
    }

    #[test]
    fn result_record_schema_rejects_broken_records() {
        let record = sample_result(0).to_json();
        validate_result_record(&record).expect("real records pass the schema");
        let broken = Json::parse(r#"{"scenario": {"index": 0}}"#).unwrap();
        assert!(validate_result_record(&broken).is_err());
    }
}
