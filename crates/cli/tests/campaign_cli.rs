//! End-to-end campaign workflows through the `srs-cli` binary: crash →
//! resume, plan → shard → merge, fault injection → degraded exit →
//! repair — each proven byte-identical to an uninterrupted unsharded run —
//! plus the same crash → resume guarantee for the search stream.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const TINY_SPEC: &str = r#"{
    "name": "campaign_tiny",
    "patch": {"cores": 1, "target_instructions": 2000,
              "trace_records_per_core": 1000, "max_sim_ns": 2000000},
    "defenses": ["baseline", "srs", "scale-srs"],
    "workloads": ["gups", "gcc"],
    "threads": 2
}"#;

const TINY_SEARCH_SPEC: &str = r#"{
    "name": "search_tiny",
    "patch": {"cores": 1, "target_instructions": 18446744073709551615,
              "trace_records_per_core": 1500, "refresh_window_ns": 8000000,
              "max_sim_ns": 1500000},
    "defenses": ["baseline"],
    "thresholds": [300],
    "workloads": ["gups"],
    "threads": 2,
    "search": {"population": 4, "generations": 2, "warmup_ns": 200000,
               "seed": 11, "elites": 1}
}"#;

/// A test's scratch directory. Dropping the guard removes it, unless the
/// test is panicking: a failed test's files stay for inspection.
struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// A unique scratch directory per test holding the tiny spec.
fn scratch(test: &str) -> (ScratchDir, PathBuf) {
    let dir = std::env::temp_dir().join(format!("srs-cli-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let spec = dir.join("campaign_tiny.json");
    std::fs::write(&spec, TINY_SPEC).expect("write tiny spec");
    (ScratchDir(dir), spec)
}

/// The CLI under test, with the campaign and search test hooks scrubbed
/// from the inherited environment so only explicit `env` calls inject
/// faults.
fn cli(dir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_srs-cli"));
    cmd.current_dir(dir)
        .env_remove("SRS_CAMPAIGN_FAIL")
        .env_remove("SRS_CAMPAIGN_CRASH_AFTER")
        .env_remove("SRS_SEARCH_CRASH_AFTER");
    cmd
}

fn complete_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

fn run_ok(cmd: &mut Command) -> Output {
    let output = cmd.output().expect("spawn srs-cli");
    assert!(
        output.status.success(),
        "srs-cli failed ({:?}):\nstdout: {}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn reference_run(dir: &Path, spec: &Path) -> Vec<u8> {
    run_ok(cli(dir).args(["run", spec.to_str().unwrap(), "--out", "reference.jsonl", "--quiet"]));
    std::fs::read(dir.join("reference.jsonl")).expect("reference output")
}

#[test]
fn killed_mid_run_then_resume_is_byte_identical_to_an_uninterrupted_run() {
    let (dir, spec) = scratch("crash-resume");
    let reference = reference_run(&dir, &spec);

    // Crash after two committed records, mid-write of the third: the
    // checkpoint sink writes half a line, flushes and aborts.
    let crashed = cli(&dir)
        .args(["run", spec.to_str().unwrap(), "--out", "out.jsonl", "--quiet"])
        .env("SRS_CAMPAIGN_CRASH_AFTER", "2")
        .output()
        .expect("spawn srs-cli");
    assert!(!crashed.status.success(), "the crash hook must kill the process");
    let torn = std::fs::read(dir.join("out.jsonl")).expect("torn output exists");
    assert!(!reference.starts_with(&torn) || torn.len() < reference.len(), "output is partial");
    assert_eq!(complete_lines(&torn), 2, "two records committed before the torn third");

    // The torn file fails a naive byte-diff but resume repairs it.
    run_ok(cli(&dir).args([
        "run",
        spec.to_str().unwrap(),
        "--out",
        "out.jsonl",
        "--resume",
        "--quiet",
    ]));
    let resumed = std::fs::read(dir.join("out.jsonl")).unwrap();
    assert_eq!(resumed, reference, "resume must reproduce the uninterrupted bytes");

    // Resuming a finished campaign is a no-op that leaves the bytes alone.
    let again = run_ok(cli(&dir).args([
        "run",
        spec.to_str().unwrap(),
        "--out",
        "out.jsonl",
        "--resume",
        "--quiet",
    ]));
    assert_eq!(std::fs::read(dir.join("out.jsonl")).unwrap(), reference);
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("0 of 6 cells"), "no-op resume plans nothing: {stderr}");
}

#[test]
fn plan_run_shards_merge_is_byte_identical_and_merge_rejects_overlap() {
    let (dir, spec) = scratch("shard-merge");
    let reference = reference_run(&dir, &spec);

    let planned =
        run_ok(cli(&dir).args(["plan", spec.to_str().unwrap(), "--shards", "2", "--out-dir", "."]));
    let stdout = String::from_utf8_lossy(&planned.stdout);
    assert!(stdout.contains("planned 2 shards"), "plan output: {stdout}");
    for k in 0..2 {
        assert!(dir.join(format!("campaign_tiny.shard{k}.json")).exists());
        run_ok(cli(&dir).args(["validate", &format!("campaign_tiny.shard{k}.json")]));
        run_ok(cli(&dir).args([
            "run",
            &format!("campaign_tiny.shard{k}.json"),
            "--out",
            &format!("shard{k}.jsonl"),
            "--quiet",
        ]));
    }
    run_ok(cli(&dir).args(["merge", "shard0.jsonl", "shard1.jsonl", "--out", "merged.jsonl"]));
    assert_eq!(
        std::fs::read(dir.join("merged.jsonl")).unwrap(),
        reference,
        "shard → merge must reproduce the unsharded bytes"
    );

    // Feeding the same shard twice is an overlap error, not silent dupes.
    let overlap = cli(&dir)
        .args(["merge", "shard0.jsonl", "shard0.jsonl", "--out", "dup.jsonl", "--force"])
        .output()
        .unwrap();
    assert_eq!(overlap.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&overlap.stderr);
    assert!(stderr.contains("shards overlap"), "overlap diagnostic: {stderr}");
}

#[test]
fn a_panicking_cell_degrades_with_exit_3_and_resume_repairs_it() {
    let (dir, spec) = scratch("fault");
    let reference = reference_run(&dir, &spec);

    // The faulty cell's unit panics: distinct exit code, failure recorded
    // in the manifest, surviving cells still on disk.
    let degraded = cli(&dir)
        .args(["run", spec.to_str().unwrap(), "--out", "out.jsonl", "--quiet"])
        .env("SRS_CAMPAIGN_FAIL", "1")
        .output()
        .unwrap();
    assert_eq!(degraded.status.code(), Some(3), "degraded campaigns exit 3");
    let stderr = String::from_utf8_lossy(&degraded.stderr);
    assert!(stderr.contains("campaign degraded"), "degraded diagnostic: {stderr}");
    assert!(stderr.contains("cell 1 failed: injected campaign fault"), "{stderr}");
    let manifest = std::fs::read_to_string(dir.join("out.jsonl.manifest.json")).unwrap();
    assert!(manifest.contains("injected campaign fault"), "manifest records the error");

    // Resume without the fault: failed cells run again — they append
    // behind later cells and the index-order repair restores the exact
    // uninterrupted bytes.
    run_ok(cli(&dir).args([
        "run",
        spec.to_str().unwrap(),
        "--out",
        "out.jsonl",
        "--resume",
        "--quiet",
    ]));
    assert_eq!(std::fs::read(dir.join("out.jsonl")).unwrap(), reference);
}

#[test]
fn a_malformed_fault_variable_is_a_usage_error_before_any_output() {
    let (dir, spec) = scratch("fault-form");
    for value in ["1:99", "garbage"] {
        let run = cli(&dir)
            .args(["run", spec.to_str().unwrap(), "--out", "out.jsonl", "--quiet"])
            .env("SRS_CAMPAIGN_FAIL", value)
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(2), "SRS_CAMPAIGN_FAIL={value} is a usage error");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("SRS_CAMPAIGN_FAIL"),
            "the diagnostic names the variable: {stderr}"
        );
        assert!(!dir.join("out.jsonl").exists(), "SRS_CAMPAIGN_FAIL={value} wrote no results");
        assert!(!dir.join("out.jsonl.manifest.json").exists(), "and no manifest");
    }
}

#[test]
fn validate_reports_a_torn_final_record_as_a_warning_not_an_error() {
    let (dir, spec) = scratch("validate-torn");
    let reference = reference_run(&dir, &spec);

    // Manufacture a crash artifact: a complete file plus half a record.
    let first_line_len = reference.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut torn = reference.clone();
    torn.extend_from_slice(&reference[..first_line_len / 2]);
    std::fs::write(dir.join("torn.jsonl"), &torn).unwrap();

    let output = run_ok(cli(&dir).args(["validate", "torn.jsonl"]));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(&format!("truncated final record at byte offset {}", reference.len())),
        "torn-record warning with the byte offset: {stdout}"
    );
    assert!(stdout.contains("6 complete result records"), "complete records still count: {stdout}");

    // Garbage mid-file stays a hard error.
    let mut corrupt = reference.clone();
    corrupt.splice(first_line_len..first_line_len, b"not json\n".iter().copied());
    std::fs::write(dir.join("corrupt.jsonl"), &corrupt).unwrap();
    let output = cli(&dir).args(["validate", "corrupt.jsonl"]).output().unwrap();
    assert_eq!(output.status.code(), Some(1), "mid-file corruption is fatal");
}

#[test]
fn validate_rejects_a_shard_whose_cell_range_reaches_past_the_grid() {
    let (dir, _) = scratch("validate-range");
    // 2^62 cells: the range is refused before a cell list is sized from it,
    // whether the shard's own total is the spec's grid or admits the range.
    for total_cells in ["6", "4611686018427387905"] {
        let shard = format!(
            r#"{{"campaign": "campaign_tiny", "shard_index": 0, "shard_count": 1,
                "total_cells": {total_cells}, "cells": [[0, 4611686018427387904]],
                "spec": {TINY_SPEC}}}"#
        );
        std::fs::write(dir.join("huge.shard0.json"), shard).unwrap();
        let output = cli(&dir).args(["validate", "huge.shard0.json"]).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "a corrupt shard is a failure, not a crash");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("cells"), "the diagnostic names the field: {stderr}");
    }
}

#[test]
fn a_dram_geometry_every_cell_would_reject_is_refused_before_any_output() {
    let (dir, _) = scratch("geometry");
    for rows in ["0", "4294967296"] {
        let spec = TINY_SPEC
            .replace(r#""cores": 1,"#, &format!(r#""cores": 1, "rows_per_bank": {rows},"#));
        std::fs::write(dir.join("geometry.json"), spec).unwrap();
        let validate = cli(&dir).args(["validate", "geometry.json"]).output().unwrap();
        assert_eq!(validate.status.code(), Some(1), "rows_per_bank {rows} must not validate");
        let stderr = String::from_utf8_lossy(&validate.stderr);
        assert!(stderr.contains("rows per bank"), "rows_per_bank {rows}: {stderr}");

        for (verb, out) in [("run", "geometry.results.jsonl"), ("search", "geometry.search.jsonl")]
        {
            let run = cli(&dir).args([verb, "geometry.json", "--quiet"]).output().unwrap();
            assert_eq!(run.status.code(), Some(1), "rows_per_bank {rows} must not {verb}");
            assert!(!dir.join(out).exists(), "{verb} creates no output file");
        }
    }
}

#[test]
fn collisions_are_refused_without_force_and_threads_zero_means_auto() {
    let (dir, spec) = scratch("collide");
    run_ok(cli(&dir).args(["run", spec.to_str().unwrap(), "--quiet", "--threads", "0"]));
    // The default out path is derived from the spec stem and announced.
    assert!(dir.join("campaign_tiny.results.jsonl").exists());

    let collide = cli(&dir).args(["run", spec.to_str().unwrap(), "--quiet"]).output().unwrap();
    assert_eq!(collide.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&collide.stderr);
    assert!(stderr.contains("already exists"), "collision diagnostic: {stderr}");

    run_ok(cli(&dir).args(["run", spec.to_str().unwrap(), "--quiet", "--force"]));
}

#[test]
fn search_overrides_are_checked_before_any_output() {
    let (dir, _) = scratch("search-overrides");
    std::fs::write(dir.join("search_tiny.json"), TINY_SEARCH_SPEC).unwrap();
    // The tiny search spec resolves to one cell.
    for (flag, value, field) in [
        ("--cell", "1", "search.cell"),
        ("--population", "0", "search.population"),
        ("--generations", "0", "search.generations"),
    ] {
        let output = cli(&dir)
            .args(["search", "search_tiny.json", flag, value, "--out", "s.jsonl", "--quiet"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{flag} {value} is a failure, not a crash");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(field), "{flag} {value}: the diagnostic names {field}: {stderr}");
        assert!(!dir.join("s.jsonl").exists(), "{flag} {value} creates no stream");
        assert!(!dir.join("s.jsonl.manifest.json").exists(), "{flag} {value} creates no manifest");
    }
}

#[test]
fn validate_refuses_a_search_cell_outside_the_grid() {
    let (dir, _) = scratch("search-cell");
    // The tiny search spec resolves to one cell.
    let spec = TINY_SEARCH_SPEC.replace(r#""elites": 1}"#, r#""elites": 1, "cell": 7}"#);
    assert!(spec.contains(r#""cell": 7"#), "{spec}");
    std::fs::write(dir.join("search_tiny.json"), spec).unwrap();
    let output = cli(&dir).args(["validate", "search_tiny.json"]).output().unwrap();
    assert_eq!(output.status.code(), Some(1), "an out-of-grid search.cell must not validate");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("search.cell"), "the diagnostic names search.cell: {stderr}");
}

#[test]
fn search_crash_hook_commits_n_generations_and_resume_is_byte_identical() {
    let (dir, _) = scratch("search-crash");
    std::fs::write(dir.join("search_tiny.json"), TINY_SEARCH_SPEC).unwrap();
    run_ok(cli(&dir).args(["search", "search_tiny.json", "--out", "reference.jsonl", "--quiet"]));
    let reference = std::fs::read(dir.join("reference.jsonl")).unwrap();
    assert_eq!(complete_lines(&reference), 2);

    // Commit one generation, tear the second, abort.
    let crashed = cli(&dir)
        .args(["search", "search_tiny.json", "--out", "out.jsonl", "--quiet"])
        .env("SRS_SEARCH_CRASH_AFTER", "1")
        .output()
        .unwrap();
    assert!(!crashed.status.success(), "the crash hook must kill the process");
    let torn = std::fs::read(dir.join("out.jsonl")).unwrap();
    let first_line = reference.iter().position(|&b| b == b'\n').unwrap() + 1;
    assert_eq!(complete_lines(&torn), 1, "exactly one generation committed");
    assert!(torn.len() > first_line, "the second generation is torn, not missing");
    assert_eq!(torn[..first_line], reference[..first_line]);

    run_ok(cli(&dir).args([
        "search",
        "search_tiny.json",
        "--out",
        "out.jsonl",
        "--resume",
        "--quiet",
    ]));
    assert_eq!(std::fs::read(dir.join("out.jsonl")).unwrap(), reference);
    assert_eq!(
        std::fs::read(dir.join("out.jsonl.manifest.json")).unwrap(),
        std::fs::read(dir.join("reference.jsonl.manifest.json")).unwrap(),
        "the resumed manifest matches the uninterrupted one"
    );
}

#[test]
fn merge_skips_the_attribution_footer() {
    let (dir, spec) = scratch("merge-footer");
    let reference = reference_run(&dir, &spec);
    run_ok(cli(&dir).args([
        "run",
        spec.to_str().unwrap(),
        "--attribution",
        "--out",
        "attr.jsonl",
        "--quiet",
    ]));
    let attributed = std::fs::read(dir.join("attr.jsonl")).unwrap();
    assert!(attributed.starts_with(&reference), "the results precede the footer");
    assert_eq!(complete_lines(&attributed), complete_lines(&reference) + 1, "one footer line");

    run_ok(cli(&dir).args(["merge", "attr.jsonl", "--out", "merged.jsonl"]));
    assert_eq!(std::fs::read(dir.join("merged.jsonl")).unwrap(), reference);
}

#[test]
fn telemetry_with_resume_is_a_usage_error_that_leaves_the_sidecar_alone() {
    let (dir, spec) = scratch("telemetry-resume");
    run_ok(cli(&dir).args([
        "run",
        spec.to_str().unwrap(),
        "--telemetry",
        "--out",
        "out.jsonl",
        "--quiet",
    ]));
    let results = std::fs::read(dir.join("out.jsonl")).unwrap();
    let sidecar = std::fs::read(dir.join("out.telemetry.jsonl")).unwrap();
    assert_eq!(complete_lines(&sidecar), 6, "one sidecar record per cell");

    let refused = cli(&dir)
        .args(["run", spec.to_str().unwrap(), "--telemetry", "--resume", "--out", "out.jsonl"])
        .output()
        .unwrap();
    assert_eq!(refused.status.code(), Some(2), "a usage error");
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(stderr.contains("--telemetry cannot be combined with --resume"), "stderr: {stderr}");
    assert_eq!(std::fs::read(dir.join("out.telemetry.jsonl")).unwrap(), sidecar);
    assert_eq!(std::fs::read(dir.join("out.jsonl")).unwrap(), results);
}
