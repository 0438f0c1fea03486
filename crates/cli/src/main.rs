//! `srs-cli` — the spec-file front door to the experiment engine.
//!
//! Experiments are described as data ([`srs_sim::spec::ExperimentSpec`]
//! JSON files, see `specs/` at the workspace root) and driven without
//! recompilation:
//!
//! ```sh
//! srs-cli run specs/quickstart.json            # stream results to JSONL
//! srs-cli plan specs/fig12.json --shards 4     # split into shard manifests
//! srs-cli run fig12.shard0.json                # run one shard
//! srs-cli run fig12.shard0.json --resume       # continue after a crash
//! srs-cli merge fig12.shard*.results.jsonl --out fig12.results.jsonl
//! srs-cli validate specs/quickstart.json       # resolve registries, dry
//! srs-cli validate quickstart.results.jsonl    # schema-check emitted rows
//! srs-cli list defenses                        # registry contents
//! srs-cli check-json BENCH_attack.json         # plain JSON well-formedness
//! ```
//!
//! `run` streams every grid cell through a crash-safe
//! [`srs_sim::campaign::CheckpointSink`] — results land on disk
//! incrementally with an atomically updated `<out>.manifest.json` beside
//! them, live progress and ETA go to standard error, and a per-(defense,
//! TRH) summary prints once the grid drains. A killed run continues with
//! `--resume`; a cell that keeps panicking is recorded in the manifest and
//! the campaign degrades (exit code 3) instead of aborting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use srs_sim::campaign::{
    merge_results, plan_shards, read_results, Campaign, CampaignError, CellFailure, CheckpointSink,
    ShardManifest,
};
use srs_sim::json::{obj, Json, ToJson};
use srs_sim::sink::{validate_result_record, ProgressSink, ResultSink};
use srs_sim::spec::{
    attack_names, defense_names, preset_names, tracker_names, workload_selector_names,
    ExperimentSpec,
};
use srs_sim::telemetry::{TelemetryConfig, TelemetrySidecarSink};
use srs_sim::{
    run_workload, AttributionReport, FaultInjection, RetryPolicy, ScenarioResult, UnitStats,
};

const USAGE: &str = "\
srs-cli — spec-file driver for the scale-srs experiment engine

USAGE:
    srs-cli run <spec.json | shard.json> [--out <file.jsonl>] [--resume]
                [--force] [--threads <N>] [--retries <N>] [--quiet]
                [--no-share] [--telemetry] [--attribution]
    srs-cli trace <spec.json> [--cell <idx>] [--out <file.json>] [--force]
    srs-cli search <spec.json> [--out <file.jsonl>] [--resume] [--force]
                [--generations <N>] [--population <N>] [--cell <idx>]
                [--threads <N>] [--quiet]
    srs-cli search --replay <best.json>
    srs-cli report <results.jsonl | search.jsonl>
    srs-cli plan <spec.json> --shards <N> [--out-dir <dir>]
    srs-cli merge <results.jsonl>... --out <file.jsonl> [--force]
    srs-cli validate <spec.json | shard.json | results.jsonl>
    srs-cli check-json <file.json>
    srs-cli list [defenses | trackers | workloads | attacks | presets] [--json]

COMMANDS:
    run         Resolve the spec (or shard manifest) and execute its cells,
                streaming one JSON object per cell (JSON Lines) to --out as
                cells complete, with a crash-safe checkpoint manifest at
                <out>.manifest.json. Default --out: <input stem>.results.jsonl
                in the current directory (the chosen path is printed; an
                existing file is an error unless --force or --resume).
                --resume continues an interrupted run: the manifest is
                replayed, a torn final record is truncated, completed cells
                are skipped and previously failed cells are retried.
                --threads <N> sets the worker-thread count; 0 (or omitting
                the flag) means auto — the machine's available parallelism,
                capped at 8. --retries <N> sets attempts per cell before it
                is recorded as failed (default 3). --no-share disables
                sharing-aware execution (results are bit-identical either
                way). --telemetry arms the simulated-time recorder and
                writes a per-cell sidecar stream to <out stem>.telemetry.jsonl;
                the results JSONL stays byte-identical to a disarmed run
                (CI-enforced). --telemetry cannot be combined with --resume
                (a usage error): the sidecar records of cells committed
                before the interruption cannot be recovered. --attribution
                (implies --no-share) re-runs with per-subsystem stopwatches
                armed, prints the wall-time share table, and appends it as
                a JSONL footer record {\"attribution\": ...} to the output
                stream. Exit code 3 means the campaign completed degraded:
                some cells failed and are listed in the manifest.
    trace       Run one grid cell (default --cell 0) of a spec with
                telemetry armed and export the event trace as Chrome/
                Perfetto trace-event JSON (load it at ui.perfetto.dev or
                chrome://tracing). Default --out:
                <spec stem>.cell<idx>.trace.json.
    search      Run the adaptive attack search the spec's `search` block
                describes: warm the selected grid cell once, then evolve
                candidate attack patterns generation by generation, scoring
                every candidate on its own fork of the warm snapshot. One
                JSON line per generation streams to --out (default:
                <input stem>.search.jsonl) with a crash-safe manifest
                beside it; the run is deterministic per seed (byte-identical
                stream) and a killed run continues with --resume to the
                same bytes. The champion lands in <out stem>.best.json;
                --generations/--population/--cell override the spec block.
                --replay <best.json> re-simulates a recorded champion from
                scratch and byte-diffs its security report against the
                recorded one (exit 1 on divergence).
    report      Render per-(defense, TRH) summary tables and normalized-
                performance histograms from an existing results JSONL
                without re-simulating anything. Pointed at a search stream,
                prints the best-fitness-per-generation curve instead.
    plan        Deterministically split a spec's grid into N shard
                manifests (<stem>.shard<k>.json, self-contained; run each
                with `srs-cli run`). Shared-prefix trunk groups are never
                split across shards, so sharding never changes any cell's
                bits; a grid yields at most one shard per execution unit.
                Units are balanced by the configurations they simulate.
    merge       Validate shard result files (schema, no gaps, no duplicate
                cell indices) and merge them into one submission-ordered
                file, byte-identical to an uninterrupted unsharded run.
    validate    For a .json spec or shard manifest: parse it, resolve every
                registry name and report the grid size without running
                anything. For a .jsonl results file: check every line
                against the result-record schema (a truncated final line —
                a crash artifact — is a warning, not an error).
    check-json  Parse any JSON document with the built-in codec; exits
                non-zero on malformed input.
    list        Print a registry's valid names, one per line — or, with
                --json, machine-readable JSON (all registries when no
                registry is named).
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "search" => cmd_search(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "plan" => cmd_plan(&args[1..]),
        "merge" => cmd_merge(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "check-json" => cmd_check_json(&args[1..]),
        "list" => cmd_list(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(code) => code,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Exit code for a campaign that completed but left failed cells behind.
const EXIT_DEGRADED: u8 = 3;

#[derive(Debug)]
enum CliError {
    /// Bad invocation: exit code 2 plus usage text.
    Usage(String),
    /// The command ran and failed: exit code 1.
    Failed(String),
}

fn fail(message: impl Into<String>) -> CliError {
    CliError::Failed(message.into())
}

impl From<CampaignError> for CliError {
    fn from(error: CampaignError) -> Self {
        fail(error.to_string())
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| fail(format!("cannot read {path}: {e}")))
}

fn load_spec(path: &str) -> Result<ExperimentSpec, CliError> {
    let text = read_file(path)?;
    ExperimentSpec::parse(&text).map_err(|e| fail(format!("{path}: {e}")))
}

/// What `run` was pointed at: a whole-grid spec, or one shard of one.
enum RunInput {
    Spec(ExperimentSpec),
    Shard(ShardManifest),
}

/// Load a `run`/`validate` input, dispatching on the `shard_index` key
/// (spec files reject unknown keys, so the two forms cannot be confused).
fn load_run_input(path: &str) -> Result<RunInput, CliError> {
    let text = read_file(path)?;
    let json = Json::parse(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    if ShardManifest::is_shard_json(&json) {
        Ok(RunInput::Shard(ShardManifest::from_json(path, &json)?))
    } else {
        Ok(RunInput::Spec(
            ExperimentSpec::from_json(&json).map_err(|e| fail(format!("{path}: {e}")))?,
        ))
    }
}

/// Derive `<stem>.<suffix>` in the current directory from an input path —
/// or error when the path has no usable stem (e.g. `.json`), instead of
/// silently inventing a name.
fn derive_out_path(input: &str, suffix: &str) -> Result<PathBuf, CliError> {
    let stem = Path::new(input)
        .file_stem()
        .and_then(|s| s.to_str())
        // A dotfile's "stem" is its whole name (`.json` -> `.json`);
        // refuse to derive hidden output names from it.
        .filter(|s| !s.is_empty() && !s.starts_with('.'))
        .ok_or_else(|| {
            CliError::Usage(format!("cannot derive an output name from '{input}'; pass --out"))
        })?;
    Ok(PathBuf::from(format!("{stem}.{suffix}")))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, CliError> {
    let mut input_path: Option<&str> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut retries: Option<u32> = None;
    let mut quiet = false;
    let mut no_share = false;
    let mut resume = false;
    let mut force = false;
    let mut telemetry = false;
    let mut attribution = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                out_path = Some(PathBuf::from(value));
            }
            "--threads" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--threads needs a count".into()))?;
                threads = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("bad thread count '{value}'")))?,
                );
            }
            "--retries" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--retries needs a count".into()))?;
                let attempts = value
                    .parse::<u32>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::Usage(format!("bad retry count '{value}'")))?;
                retries = Some(attempts);
            }
            "--quiet" => quiet = true,
            "--no-share" => no_share = true,
            "--resume" => resume = true,
            "--force" => force = true,
            "--telemetry" => telemetry = true,
            "--attribution" => attribution = true,
            other if input_path.is_none() && !other.starts_with('-') => input_path = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    let input_path = input_path.ok_or_else(|| CliError::Usage("run needs a spec file".into()))?;
    if telemetry && resume {
        // The sidecar is written beside the results as cells complete; a
        // resumed run would restart it without the cells already committed.
        return Err(CliError::Usage(
            "--telemetry cannot be combined with --resume: the sidecar records of cells \
             committed before the interruption cannot be recovered"
                .into(),
        ));
    }
    let (mut spec, shard) = match load_run_input(input_path)? {
        RunInput::Spec(spec) => (spec, None),
        RunInput::Shard(shard) => (shard.spec.clone(), Some(shard)),
    };
    if let Some(threads) = threads {
        spec.threads = Some(threads);
    }
    if no_share {
        spec.share_prefixes = false;
    }
    if attribution {
        // Shared trunk groups are not attributed; force solo execution so
        // every defended cell lands in the breakdown.
        spec.share_prefixes = false;
    }
    if telemetry && spec.telemetry.is_none() {
        spec.telemetry = Some(TelemetryConfig::armed());
    }
    let experiment = spec.to_experiment().map_err(|e| fail(format!("{input_path}: {e}")))?;
    let total_cells = experiment.job_count();

    // The cell set this invocation is responsible for, and the campaign
    // name its manifest records (sibling shards share the name).
    let (campaign_name, cells): (String, Vec<usize>) = match &shard {
        Some(shard) => (shard.campaign.clone(), shard.cells.clone()),
        None => (spec.name.clone(), (0..total_cells).collect()),
    };

    let out_path = match out_path {
        Some(path) => path,
        None => derive_out_path(input_path, "results.jsonl")?,
    };
    if !resume && !force && out_path.exists() {
        return Err(fail(format!(
            "{} already exists; pass --force to overwrite it or --resume to continue it",
            out_path.display()
        )));
    }

    // Open the crash-safe output: fresh, or resumed from its manifest.
    let (checkpoint, completed, skipped) = if resume {
        let (checkpoint, state) =
            CheckpointSink::resume(&out_path, &campaign_name, total_cells, &cells)?;
        if state.truncated_bytes > 0 {
            eprintln!(
                "truncated a torn final record ({} bytes) left by a crashed run",
                state.truncated_bytes
            );
        }
        for failure in &state.retried_failures {
            eprintln!(
                "retrying cell {} (failed after {} attempts: {})",
                failure.index, failure.attempts, failure.error
            );
        }
        let skipped = state.completed.len();
        (checkpoint, state.completed, skipped)
    } else {
        let checkpoint =
            CheckpointSink::create(&out_path, &campaign_name, total_cells, cells.clone())?;
        (checkpoint, Vec::new(), 0)
    };

    let mut campaign = Campaign::new(experiment)
        .with_cells(cells)
        .with_completed(completed)
        .with_fault(FaultInjection::from_env());
    if let Some(max_attempts) = retries {
        campaign = campaign.with_retry(RetryPolicy { max_attempts, ..RetryPolicy::default() });
    }
    let attribution_total = attribution
        .then(|| std::sync::Arc::new(std::sync::Mutex::new(AttributionReport::default())));
    if let Some(total) = &attribution_total {
        campaign = campaign.with_attribution(total.clone());
    }
    // The telemetry sidecar rides beside the results stream; the results
    // JSONL itself stays byte-identical armed or disarmed (CI-enforced).
    let telemetry_sink = match telemetry.then(|| out_path.with_extension("telemetry.jsonl")) {
        Some(path) => {
            let file = std::fs::File::create(&path)
                .map_err(|e| fail(format!("cannot create {}: {e}", path.display())))?;
            Some((path, TelemetrySidecarSink::new(std::io::BufWriter::new(file))))
        }
        None => None,
    };
    let remaining = campaign.planned().len();
    let shard_note = match &shard {
        Some(s) => format!(", shard {}/{}", s.shard_index, s.shard_count),
        None => String::new(),
    };
    eprintln!(
        "running '{campaign_name}': {remaining} of {total_cells} cells ({} preset{}{}{}) -> {}",
        spec.preset,
        if spec.share_prefixes { ", shared prefixes" } else { ", no sharing" },
        shard_note,
        if skipped > 0 { format!(", {skipped} already done") } else { String::new() },
        out_path.display()
    );

    let mut sinks = RunSinks {
        checkpoint,
        summary: SummarySink::default(),
        progress: (!quiet)
            .then(|| ProgressSink::new(remaining, std::io::stderr()).with_offset(skipped)),
        telemetry: telemetry_sink,
        heartbeat: !quiet,
    };
    let report = campaign.run(&mut sinks);
    let manifest = sinks.checkpoint.finish()?;
    if let Some((path, sink)) = sinks.telemetry.take() {
        let records = sink.records_written();
        sink.finish().map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
        println!("wrote {records} telemetry sidecar records to {}", path.display());
    }

    println!(
        "wrote {} records to {} ({} committed in total)",
        report.completed,
        out_path.display(),
        manifest.completed.len()
    );
    sinks.summary.print(&mut std::io::stdout().lock());
    if let Some(total) = attribution_total {
        // A poisoned lock only means a worker panicked mid-merge; the
        // partial ledger is still printable.
        let total = *total.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        print_attribution(&total, &mut std::io::stdout().lock());
        // Appended after the committed results, the footer sits past the
        // manifest's bytes_committed mark: `validate`, `report` and `merge`
        // skip it, and `--resume` truncates it before continuing.
        let footer = obj(vec![("attribution", total.to_json())]).to_compact();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&out_path)
            .map_err(|e| fail(format!("cannot append to {}: {e}", out_path.display())))?;
        writeln!(file, "{footer}")
            .map_err(|e| fail(format!("cannot append to {}: {e}", out_path.display())))?;
    }
    if report.failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "campaign degraded: {} cells failed (recorded in the manifest):",
            report.failed.len()
        );
        for failure in &report.failed {
            eprintln!(
                "  cell {} after {} attempts: {}",
                failure.index, failure.attempts, failure.error
            );
        }
        eprintln!("rerun with --resume to retry the failed cells");
        Ok(ExitCode::from(EXIT_DEGRADED))
    }
}

/// The `run` command's composite sink: crash-safe JSONL + live progress +
/// the end-of-run summary table + the optional telemetry sidecar.
struct RunSinks {
    checkpoint: CheckpointSink,
    summary: SummarySink,
    progress: Option<ProgressSink<std::io::Stderr>>,
    telemetry: Option<(PathBuf, TelemetrySidecarSink<std::io::BufWriter<std::fs::File>>)>,
    heartbeat: bool,
}

impl ResultSink for RunSinks {
    fn on_result(&mut self, result: &ScenarioResult) {
        self.checkpoint.on_result(result);
        self.summary.on_result(result);
        if let Some((_, telemetry)) = &mut self.telemetry {
            telemetry.on_result(result);
        }
        if let Some(progress) = &mut self.progress {
            progress.on_result(result);
        }
    }

    fn on_unit_stats(&mut self, stats: &UnitStats) {
        self.checkpoint.on_unit_stats(stats);
        if self.heartbeat {
            eprintln!(
                "unit done: {} in {:.3}s ({} attempt{})",
                describe_cells(&stats.cells),
                stats.wall_ns as f64 / 1e9,
                stats.attempts,
                if stats.attempts == 1 { "" } else { "s" },
            );
        }
    }

    fn on_cell_failed(&mut self, failure: &CellFailure) {
        self.checkpoint.on_cell_failed(failure);
        eprintln!(
            "cell {} failed after {} attempts: {}",
            failure.index, failure.attempts, failure.error
        );
    }

    fn on_finish(&mut self, report: &srs_sim::CampaignReport) {
        if let Some(progress) = &mut self.progress {
            progress.on_finish(report);
        }
    }
}

/// Render a unit's cell set compactly: `cell 3`, `cells 0-4` for a
/// contiguous run, or the literal list otherwise.
fn describe_cells(cells: &[usize]) -> String {
    match cells {
        [] => "no cells".to_string(),
        [only] => format!("cell {only}"),
        [first, .., last] if last - first + 1 == cells.len() => format!("cells {first}-{last}"),
        _ => format!("cells {cells:?}"),
    }
}

fn print_attribution(report: &AttributionReport, out: &mut impl Write) {
    let wall = report.wall_ns.max(1) as f64;
    let rows = [
        ("controller", report.controller_schedule_ns),
        ("tracker", report.tracker_ns),
        ("defense", report.defense_ns),
        ("rit", report.rit_ns),
        ("security", report.security_ns),
        ("other", report.other_ns),
    ];
    let _ = writeln!(
        out,
        "\nwall-time attribution over {:.3}s of defended solo cells:",
        report.wall_ns as f64 / 1e9
    );
    let _ = writeln!(out, "{:>12} {:>10} {:>7}", "subsystem", "seconds", "share");
    for (name, ns) in rows {
        let _ = writeln!(
            out,
            "{name:>12} {:>10.3} {:>6.1}%",
            ns as f64 / 1e9,
            ns as f64 / wall * 100.0
        );
    }
}

fn cmd_trace(args: &[String]) -> Result<ExitCode, CliError> {
    let mut input_path: Option<&str> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut cell = 0usize;
    let mut force = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cell" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--cell needs an index".into()))?;
                cell = value
                    .parse::<usize>()
                    .map_err(|_| CliError::Usage(format!("bad cell index '{value}'")))?;
            }
            "--out" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                out_path = Some(PathBuf::from(value));
            }
            "--force" => force = true,
            other if input_path.is_none() && !other.starts_with('-') => input_path = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    let input_path = input_path.ok_or_else(|| CliError::Usage("trace needs a spec file".into()))?;
    // A shard manifest works too: the embedded spec is traced and --cell
    // indexes the full grid, exactly as in the campaign's results.
    let mut spec = match load_run_input(input_path)? {
        RunInput::Spec(spec) => spec,
        RunInput::Shard(shard) => shard.spec,
    };
    // Arm the recorder, keeping any capacities the spec configured.
    let mut telemetry = spec.telemetry.take().unwrap_or_else(TelemetryConfig::armed);
    telemetry.enabled = true;
    spec.telemetry = Some(telemetry);
    let experiment = spec.to_experiment().map_err(|e| fail(format!("{input_path}: {e}")))?;
    let scenarios = experiment.scenarios();
    let Some(scenario) = scenarios.get(cell) else {
        return Err(CliError::Usage(format!(
            "--cell {cell} is out of range: '{}' resolves to {} cells",
            spec.name,
            scenarios.len()
        )));
    };
    let out_path = match out_path {
        Some(path) => path,
        None => derive_out_path(input_path, &format!("cell{cell}.trace.json"))?,
    };
    if !force && out_path.exists() {
        return Err(fail(format!(
            "{} already exists; pass --force to overwrite it",
            out_path.display()
        )));
    }
    eprintln!(
        "tracing cell {cell}: {} on {} trh={}",
        scenario.defense, scenario.workload.name, scenario.t_rh
    );
    let config = experiment.config_for(scenario);
    let result = run_workload(&config, &scenario.workload);
    let report =
        result.telemetry.as_ref().ok_or_else(|| fail("simulation returned no telemetry report"))?;
    let label = format!("{} {} trh={}", scenario.workload.name, scenario.defense, scenario.t_rh);
    let mut text = report.to_perfetto(&label).to_pretty();
    text.push('\n');
    std::fs::write(&out_path, text)
        .map_err(|e| fail(format!("cannot write {}: {e}", out_path.display())))?;
    println!(
        "wrote {} trace events ({} dropped) to {} — load it at ui.perfetto.dev",
        report.events.len(),
        report.events_dropped,
        out_path.display()
    );
    for (name, value) in &report.counters {
        println!("  {name} = {value}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_search(args: &[String]) -> Result<ExitCode, CliError> {
    let mut input_path: Option<&str> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut replay_path: Option<&str> = None;
    let mut generations: Option<usize> = None;
    let mut population: Option<usize> = None;
    let mut cell: Option<usize> = None;
    let mut threads = 0usize;
    let mut resume = false;
    let mut force = false;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let count_flag = |name: &str, it: &mut std::slice::Iter<String>| {
            let value =
                it.next().ok_or_else(|| CliError::Usage(format!("{name} needs a count")))?;
            value
                .parse::<usize>()
                .map_err(|_| CliError::Usage(format!("bad {name} value '{value}'")))
        };
        match arg.as_str() {
            "--out" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                out_path = Some(PathBuf::from(value));
            }
            "--replay" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--replay needs a path".into()))?;
                replay_path = Some(value);
            }
            "--generations" => generations = Some(count_flag("--generations", &mut it)?),
            "--population" => population = Some(count_flag("--population", &mut it)?),
            "--cell" => cell = Some(count_flag("--cell", &mut it)?),
            "--threads" => threads = count_flag("--threads", &mut it)?,
            "--resume" => resume = true,
            "--force" => force = true,
            "--quiet" => quiet = true,
            other if input_path.is_none() && !other.starts_with('-') => input_path = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }

    if let Some(replay_path) = replay_path {
        if input_path.is_some() || resume || force {
            return Err(CliError::Usage(
                "--replay takes only the recorded best.json, no spec or run flags".into(),
            ));
        }
        return cmd_search_replay(replay_path);
    }

    let input_path =
        input_path.ok_or_else(|| CliError::Usage("search needs a spec file".into()))?;
    let mut spec = load_spec(input_path)?;
    let mut search = spec.search.take().unwrap_or_else(|| {
        // A plain grid spec still searches: the block's defaults apply and
        // the CLI overrides refine them.
        srs_sim::SearchSpec::default()
    });
    if let Some(generations) = generations {
        search.generations = generations;
    }
    if let Some(population) = population {
        search.population = population;
    }
    if let Some(cell) = cell {
        search.cell = cell;
    }
    spec.search = Some(search);

    let out_path = match out_path {
        Some(path) => path,
        None => derive_out_path(input_path, "search.jsonl")?,
    };
    if !resume && !force && out_path.exists() {
        return Err(fail(format!(
            "{} already exists; pass --force to overwrite it or --resume to continue it",
            out_path.display()
        )));
    }
    let Some(block) = spec.search.as_ref() else {
        return Err(fail(format!("{input_path}: spec has no search block")));
    };
    let generations_total = block.generations;
    eprintln!(
        "searching '{}' cell {}: population {}, {} generations, warm-up {} ns -> {}",
        spec.name,
        block.cell,
        block.population,
        block.generations,
        block.warmup_ns,
        out_path.display()
    );

    let mut curve: Vec<(usize, f64, Option<u64>, f64)> = Vec::new();
    let outcome = {
        let mut progress = |summary: &srs_sim::search::GenerationSummary| {
            let best = &summary.best.1;
            curve.push((
                summary.index,
                best.pressure_ratio(),
                best.first_crossing_ns,
                summary.best_so_far.1.pressure_ratio(),
            ));
            if !quiet {
                eprintln!(
                    "generation {}: best '{}' ratio {:.3}{}",
                    summary.index,
                    summary.best.0.name,
                    best.pressure_ratio(),
                    match best.first_crossing_ns {
                        Some(ns) => format!(", crossed at {ns} ns"),
                        None => String::new(),
                    }
                );
            }
        };
        srs_sim::run_search(&spec, &out_path, resume, threads, None, &mut progress)
            .map_err(|e| fail(e.to_string()))?
    };
    if outcome.truncated_bytes > 0 {
        eprintln!(
            "truncated a torn final record ({} bytes) left by a crashed run",
            outcome.truncated_bytes
        );
    }

    let best_path = out_path.with_extension("best.json");
    let mut text = srs_sim::best_record(&spec, &outcome).to_pretty();
    text.push('\n');
    std::fs::write(&best_path, text)
        .map_err(|e| fail(format!("cannot write {}: {e}", best_path.display())))?;

    let out = &mut std::io::stdout().lock();
    let _ = writeln!(
        out,
        "committed {} of {} generations to {} ({} scored this run)",
        outcome.generations_done,
        generations_total,
        out_path.display(),
        outcome.generations_run,
    );
    if !curve.is_empty() {
        let _ = writeln!(
            out,
            "\n{:>10} {:>12} {:>16} {:>12}",
            "generation", "best ratio", "crossed at (ns)", "so-far ratio"
        );
        for (index, ratio, crossing, so_far) in &curve {
            let _ = writeln!(
                out,
                "{index:>10} {ratio:>12.3} {:>16} {so_far:>12.3}",
                crossing.map_or_else(|| "-".to_string(), |ns| ns.to_string()),
            );
        }
    }
    let best = &outcome.best;
    let _ = writeln!(
        out,
        "\nworst_case_found: '{}' ({}) ratio {:.3}{} -> {}",
        best.candidate.name,
        best.candidate.pattern.label(),
        best.score.pressure_ratio(),
        match best.score.first_crossing_ns {
            Some(ns) => format!(", first crossing at {ns} ns"),
            None => ", never crossed".to_string(),
        },
        best_path.display(),
    );
    Ok(ExitCode::SUCCESS)
}

/// `search --replay`: re-simulate a recorded champion from scratch and
/// byte-diff its security report against the recorded score.
fn cmd_search_replay(path: &str) -> Result<ExitCode, CliError> {
    let text = read_file(path)?;
    let record = Json::parse(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    let replay = srs_sim::replay_best(&record).map_err(|e| fail(format!("{path}: {e}")))?;
    if replay.matches() {
        println!(
            "{path}: OK — replayed '{}' reproduces the recorded report byte-for-byte",
            replay.attack
        );
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!(
            "{path}: replay of '{}' DIVERGED from the recorded report\n recorded: {}\n replayed: {}",
            replay.attack, replay.recorded, replay.replayed
        );
        Err(fail("replay did not reproduce the recorded score"))
    }
}

/// Per-(defense, TRH) aggregate for `report`, including a coarse
/// distribution of normalized performance (`REPORT_BUCKETS` buckets of
/// width [`REPORT_BUCKET_WIDTH`] starting at 0).
struct ReportGroup {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
    crossed: u64,
    /// Cells that carried an integrity report (fault model enabled).
    integrity_cells: u64,
    /// Summed committed bit flips across those cells.
    bit_flips: u64,
    /// Summed corrupted (silently wrong) reads across those cells.
    corrupted_reads: u64,
    /// Summed detected-but-uncorrectable reads across those cells.
    detected_uncorrectable: u64,
    buckets: [usize; REPORT_BUCKETS],
}

const REPORT_BUCKETS: usize = 12;
const REPORT_BUCKET_WIDTH: f64 = 0.1;

impl ReportGroup {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            crossed: 0,
            integrity_cells: 0,
            bit_flips: 0,
            corrupted_reads: 0,
            detected_uncorrectable: 0,
            buckets: [0; REPORT_BUCKETS],
        }
    }

    fn record(&mut self, norm: f64, trh_crossed: bool, integrity: Option<(u64, u64, u64)>) {
        self.count += 1;
        self.sum += norm;
        self.min = self.min.min(norm);
        self.max = self.max.max(norm);
        self.crossed += u64::from(trh_crossed);
        if let Some((flips, corrupted, dues)) = integrity {
            self.integrity_cells += 1;
            self.bit_flips += flips;
            self.corrupted_reads += corrupted;
            self.detected_uncorrectable += dues;
        }
        let bucket = ((norm / REPORT_BUCKET_WIDTH) as usize).min(REPORT_BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

fn cmd_report(args: &[String]) -> Result<ExitCode, CliError> {
    let [path] = args else {
        return Err(CliError::Usage("report needs exactly one results file".into()));
    };
    let mut groups: BTreeMap<(String, u64), ReportGroup> = BTreeMap::new();
    // (generation, best name, best ratio, best crossing, best-so-far ratio)
    let mut search_rows: Vec<(u64, String, f64, Option<u64>, f64)> = Vec::new();
    let mut search_header: Option<(String, u64)> = None;
    let (footer, torn) = read_results(Path::new(path), |_, record| {
        // The validators vouch for the fields read below; a miss past them
        // is still a user-facing schema error, never a backtrace.
        let missing = |what: &str| format!("record is missing {what}");
        // Generation records come from `search`; report the fitness curve.
        if record.get("generation").is_some() {
            srs_sim::validate_search_record(record)?;
            let ratio_of = |entry: &Json| {
                entry.get("score").and_then(|s| s.get("pressure_ratio")).and_then(Json::as_f64)
            };
            if search_header.is_none() {
                search_header = Some((
                    record
                        .get("campaign")
                        .and_then(Json::as_str)
                        .ok_or_else(|| missing("campaign"))?
                        .to_string(),
                    record.get("cell").and_then(Json::as_u64).ok_or_else(|| missing("cell"))?,
                ));
            }
            let best = record.get("best").ok_or_else(|| missing("best"))?;
            search_rows.push((
                record
                    .get("generation")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("generation"))?,
                best.get("attack")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string(),
                ratio_of(best).ok_or_else(|| missing("best.score.pressure_ratio"))?,
                best.get("score").and_then(|s| s.get("first_crossing_ns")).and_then(Json::as_u64),
                ratio_of(record.get("best_so_far").ok_or_else(|| missing("best_so_far"))?)
                    .ok_or_else(|| missing("best_so_far.score.pressure_ratio"))?,
            ));
            return Ok(());
        }
        validate_result_record(record)?;
        let scenario = record.get("scenario").ok_or_else(|| missing("scenario"))?;
        let result = record.get("result").ok_or_else(|| missing("result"))?;
        let defense = scenario
            .get("defense")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("scenario.defense"))?;
        let t_rh =
            scenario.get("t_rh").and_then(Json::as_u64).ok_or_else(|| missing("scenario.t_rh"))?;
        let norm = result
            .get("normalized_performance")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("result.normalized_performance"))?;
        let detail = result.get("detail");
        let trh_crossed = detail
            .and_then(|d| d.get("security"))
            .and_then(|s| s.get("trh_crossed"))
            .and_then(Json::as_bool)
            .unwrap_or(false);
        // Present only on cells that ran the end-to-end fault model.
        let integrity = detail.and_then(|d| d.get("integrity")).filter(|i| !i.is_null()).map(|i| {
            (
                i.get("bit_flips_injected").and_then(Json::as_u64).unwrap_or(0),
                i.get("corrupted_reads").and_then(Json::as_u64).unwrap_or(0),
                i.get("detected_uncorrectable").and_then(Json::as_u64).unwrap_or(0),
            )
        });
        groups.entry((defense.to_string(), t_rh)).or_insert_with(ReportGroup::new).record(
            norm,
            trh_crossed,
            integrity,
        );
        Ok(())
    })?;
    // The footer `run --attribution` appends is not a result record.
    let attribution = footer
        .map(|footer| AttributionReport::from_json(&footer))
        .transpose()
        .map_err(|e| fail(format!("{path}: attribution footer: {e}")))?;
    let records = search_rows.len() + groups.values().map(|g| g.count).sum::<usize>();
    let torn = torn.is_some();
    if records == 0 {
        return Err(fail(format!("{path}: no result records")));
    }
    if !search_rows.is_empty() {
        if !groups.is_empty() {
            return Err(fail(format!("{path}: mixes search and grid result records")));
        }
        let Some((campaign, cell)) = search_header else {
            return Err(fail(format!("{path}: search rows without a campaign header")));
        };
        let out = &mut std::io::stdout().lock();
        let _ = writeln!(
            out,
            "search report for {path} — campaign '{campaign}' cell {cell}, {records} generations"
        );
        if torn {
            let _ = writeln!(
                out,
                "warning: ignored a truncated final record (crash artifact; \
                 continue the run with `srs-cli search --resume`)"
            );
        }
        let peak = search_rows.iter().map(|row| row.4).fold(f64::EPSILON, f64::max);
        let _ = writeln!(
            out,
            "\n{:>10} {:>14} {:>10} {:>10}  best-so-far fitness",
            "generation", "best", "ratio", "so-far"
        );
        for (generation, name, ratio, crossing, so_far) in &search_rows {
            let bar = "#".repeat(((so_far / peak) * 40.0).round().max(1.0) as usize);
            let crossed = match crossing {
                Some(ns) => format!("  crossed at {ns} ns"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "{generation:>10} {name:>14} {ratio:>10.3} {so_far:>10.3}  {bar}{crossed}"
            );
        }
        return Ok(ExitCode::SUCCESS);
    }
    let out = &mut std::io::stdout().lock();
    let _ = writeln!(out, "report for {path} — {records} result records");
    if torn {
        let _ = writeln!(
            out,
            "warning: ignored a truncated final record (crash artifact; \
             continue the run with `srs-cli run --resume`)"
        );
    }
    let _ = writeln!(
        out,
        "\n{:>14} {:>6} {:>7} {:>10} {:>8} {:>8} {:>12}",
        "defense", "TRH", "cells", "mean norm", "min", "max", "TRH crossed"
    );
    for ((defense, t_rh), group) in &groups {
        let _ = writeln!(
            out,
            "{defense:>14} {t_rh:>6} {:>7} {:>10.3} {:>8.3} {:>8.3} {:>12}",
            group.count,
            group.sum / group.count as f64,
            group.min,
            group.max,
            group.crossed,
        );
    }
    // End-to-end integrity: printed only when at least one cell actually
    // ran the fault model, so proxy-only reports are unchanged.
    if groups.values().any(|g| g.integrity_cells > 0) {
        let _ = writeln!(out, "\ndata integrity (end-to-end fault model):");
        let _ = writeln!(
            out,
            "{:>14} {:>6} {:>7} {:>10} {:>16} {:>14}",
            "defense", "TRH", "cells", "bit flips", "corrupted reads", "detected (DUE)"
        );
        for ((defense, t_rh), group) in &groups {
            if group.integrity_cells == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{defense:>14} {t_rh:>6} {:>7} {:>10} {:>16} {:>14}",
                group.integrity_cells,
                group.bit_flips,
                group.corrupted_reads,
                group.detected_uncorrectable,
            );
        }
    }
    let _ = writeln!(out, "\nnormalized-performance distribution:");
    for ((defense, t_rh), group) in &groups {
        let _ = writeln!(out, "  {defense} trh={t_rh}:");
        let peak = group.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (bucket, &count) in group.buckets.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let lo = bucket as f64 * REPORT_BUCKET_WIDTH;
            let bar = "#".repeat((count * 40).div_ceil(peak));
            let _ = writeln!(out, "    [{lo:.1},{:.1}) {bar} {count}", lo + REPORT_BUCKET_WIDTH);
        }
    }
    if let Some(report) = &attribution {
        print_attribution(report, out);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_plan(args: &[String]) -> Result<ExitCode, CliError> {
    let mut spec_path: Option<&str> = None;
    let mut shards: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--shards needs a count".into()))?;
                let count = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::Usage(format!("bad shard count '{value}'")))?;
                shards = Some(count);
            }
            "--out-dir" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--out-dir needs a path".into()))?;
                out_dir = Some(PathBuf::from(value));
            }
            other if spec_path.is_none() && !other.starts_with('-') => spec_path = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    let spec_path = spec_path.ok_or_else(|| CliError::Usage("plan needs a spec file".into()))?;
    let shards = shards.ok_or_else(|| CliError::Usage("plan needs --shards <N>".into()))?;
    let spec = load_spec(spec_path)?;
    let manifests = plan_shards(&spec, shards).map_err(|e| fail(format!("{spec_path}: {e}")))?;
    let stem = derive_out_path(spec_path, "")?;
    let stem = stem
        .to_str()
        .ok_or_else(|| fail(format!("{spec_path}: derived output path is not valid UTF-8")))?
        .trim_end_matches('.');
    let out_dir = out_dir.unwrap_or_else(|| PathBuf::from("."));
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| fail(format!("cannot create {}: {e}", out_dir.display())))?;
    let total: usize = manifests.iter().map(|m| m.cells.len()).sum();
    println!(
        "planned {} shards over {} cells of campaign '{}':",
        manifests.len(),
        total,
        spec.name
    );
    for manifest in &manifests {
        let path = out_dir.join(format!("{stem}.shard{}.json", manifest.shard_index));
        let mut text = srs_sim::ToJson::to_json(manifest).to_pretty();
        text.push('\n');
        std::fs::write(&path, text)
            .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
        println!("  {} ({} cells)", path.display(), manifest.cells.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_merge(args: &[String]) -> Result<ExitCode, CliError> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut out_path: Option<PathBuf> = None;
    let mut force = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                let value =
                    it.next().ok_or_else(|| CliError::Usage("--out needs a path".into()))?;
                out_path = Some(PathBuf::from(value));
            }
            "--force" => force = true,
            other if !other.starts_with('-') => inputs.push(PathBuf::from(other)),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    if inputs.is_empty() {
        return Err(CliError::Usage("merge needs at least one results file".into()));
    }
    let out_path = out_path.ok_or_else(|| CliError::Usage("merge needs --out <file>".into()))?;
    if !force && out_path.exists() {
        return Err(fail(format!(
            "{} already exists; pass --force to overwrite it",
            out_path.display()
        )));
    }
    let stats = merge_results(&inputs, &out_path)?;
    println!(
        "merged {} records from {} inputs into {}",
        stats.records,
        stats.inputs,
        out_path.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// Streaming per-(defense, TRH) aggregation — the run summary accumulates
/// as cells arrive, so it costs O(groups), not O(cells), of memory.
#[derive(Default)]
struct SummarySink {
    groups: BTreeMap<(String, u64), (f64, usize, u64)>,
}

impl ResultSink for SummarySink {
    fn on_result(&mut self, result: &ScenarioResult) {
        let key = (result.scenario.defense.to_string(), result.scenario.t_rh);
        let entry = self.groups.entry(key).or_insert((0.0, 0, 0));
        entry.0 += result.normalized();
        entry.1 += 1;
        entry.2 += u64::from(result.result.detail.security.as_ref().is_some_and(|s| s.trh_crossed));
    }
}

impl SummarySink {
    fn print(&self, out: &mut impl Write) {
        if self.groups.is_empty() {
            return;
        }
        let _ = writeln!(
            out,
            "\n{:>14} {:>6} {:>7} {:>10} {:>12}",
            "defense", "TRH", "cells", "mean norm", "TRH crossed"
        );
        for ((defense, t_rh), (sum, count, crossed)) in &self.groups {
            let _ = writeln!(
                out,
                "{defense:>14} {t_rh:>6} {count:>7} {:>10.3} {crossed:>12}",
                sum / *count as f64,
            );
        }
    }
}

fn cmd_validate(args: &[String]) -> Result<ExitCode, CliError> {
    let [path] = args else {
        return Err(CliError::Usage("validate needs exactly one file".into()));
    };
    if Path::new(path).extension().is_some_and(|e| e == "jsonl") {
        validate_results(path)?;
        return Ok(ExitCode::SUCCESS);
    }
    match load_run_input(path)? {
        RunInput::Spec(spec) => {
            let experiment = spec.to_experiment().map_err(|e| fail(format!("{path}: {e}")))?;
            println!(
                "{path}: OK — '{}' resolves to {} cells ({} preset{})",
                spec.name,
                experiment.job_count(),
                spec.preset,
                if spec.patch.is_empty() { "" } else { ", patched" },
            );
        }
        RunInput::Shard(shard) => {
            println!(
                "{path}: OK — shard {}/{} of '{}' runs {} of {} cells",
                shard.shard_index,
                shard.shard_count,
                shard.campaign,
                shard.cells.len(),
                shard.total_cells,
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn validate_results(path: &str) -> Result<(), CliError> {
    let mut records = 0usize;
    let (_, truncated_at) = read_results(Path::new(path), |_, record| {
        // Search streams carry generation records; grid runs carry
        // scenario results. Dispatch on the discriminating key.
        if record.get("generation").is_some() {
            srs_sim::validate_search_record(record)?;
        } else {
            validate_result_record(record)?;
        }
        records += 1;
        Ok(())
    })?;
    if records == 0 {
        return Err(fail(format!("{path}: no result records")));
    }
    match truncated_at {
        Some(byte_offset) => println!(
            "{path}: OK — {records} complete result records; warning: truncated final \
             record at byte offset {byte_offset} (crash artifact — continue the run \
             with `srs-cli run --resume`)"
        ),
        None => println!("{path}: OK — {records} result records"),
    }
    Ok(())
}

fn cmd_check_json(args: &[String]) -> Result<ExitCode, CliError> {
    let [path] = args else {
        return Err(CliError::Usage("check-json needs exactly one file".into()));
    };
    let text = read_file(path)?;
    Json::parse(&text).map_err(|e| fail(format!("{path}: {e}")))?;
    println!("{path}: OK");
    Ok(ExitCode::SUCCESS)
}

/// The fixed registry order `list` reports, by name.
const LIST_REGISTRIES: [&str; 5] = ["defenses", "trackers", "workloads", "attacks", "presets"];

fn registry_names(what: &str) -> Result<Vec<String>, CliError> {
    Ok(match what {
        "defenses" => defense_names().iter().map(ToString::to_string).collect(),
        "trackers" => tracker_names().iter().map(ToString::to_string).collect(),
        "presets" => preset_names().iter().map(ToString::to_string).collect(),
        "attacks" => attack_names(),
        "workloads" => workload_selector_names(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown registry '{other}'; valid: defenses, trackers, workloads, attacks, presets"
            )));
        }
    })
}

fn names_json(names: Vec<String>) -> Json {
    Json::Array(names.into_iter().map(Json::from).collect())
}

fn cmd_list(args: &[String]) -> Result<ExitCode, CliError> {
    let mut json = false;
    let mut what: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            other if what.is_none() && !other.starts_with('-') => what = Some(other),
            other => return Err(CliError::Usage(format!("unexpected argument '{other}'"))),
        }
    }
    match (what, json) {
        (None, false) => Err(CliError::Usage(
            "list needs one of: defenses, trackers, workloads, attacks, presets \
             (or --json for every registry at once)"
                .into(),
        )),
        (None, true) => {
            let pairs = LIST_REGISTRIES
                .iter()
                .map(|&name| Ok((name, names_json(registry_names(name)?))))
                .collect::<Result<Vec<_>, CliError>>()?;
            println!("{}", obj(pairs).to_pretty());
            Ok(ExitCode::SUCCESS)
        }
        (Some(what), true) => {
            println!("{}", names_json(registry_names(what)?).to_compact());
            Ok(ExitCode::SUCCESS)
        }
        (Some(what), false) => {
            for name in registry_names(what)? {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_path_derivation_rejects_stemless_inputs() {
        assert_eq!(
            derive_out_path("specs/quickstart.json", "results.jsonl").unwrap(),
            PathBuf::from("quickstart.results.jsonl")
        );
        assert!(matches!(derive_out_path(".json", "results.jsonl"), Err(CliError::Usage(_))));
        assert!(matches!(derive_out_path("", "results.jsonl"), Err(CliError::Usage(_))));
    }

    fn temp_file(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("srs-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn report_on_missing_file_is_a_structured_error() {
        let err = cmd_report(&["definitely/not/a/file.jsonl".to_string()]);
        assert!(matches!(err, Err(CliError::Failed(_))), "must error, never panic");
    }

    #[test]
    fn report_on_malformed_records_is_a_structured_error_with_line_info() {
        // A record that claims to be a search row but fails the schema: the
        // report must surface file:line, not a panic backtrace.
        let path = temp_file("malformed.jsonl", "{\"generation\": 3}\n");
        let err = cmd_report(&[path.display().to_string()]);
        let _ = std::fs::remove_file(&path);
        match err {
            Err(CliError::Failed(message)) => {
                assert!(message.contains(":1:"), "error must carry file:line, got: {message}")
            }
            other => panic!("expected a structured failure, got {other:?}"),
        }
    }

    #[test]
    fn report_aggregates_integrity_columns_from_fault_model_cells() {
        // A handcrafted record that passes the result schema and carries an
        // integrity block — the report must aggregate it without panicking.
        let record = r#"{"scenario": {"index": 0, "defense": "baseline", "tracker": "misra-gries",
            "workload": "gups", "suite": "micro", "t_rh": 600, "attack": null},
            "result": {"normalized_performance": 1.0, "detail": {"elapsed_ns": 10,
            "instructions": 100, "swaps": 0, "security": null,
            "integrity": {"ecc": "none", "bit_flips_injected": 4, "rows_damaged": 2,
            "corrupted_reads": 3, "detected_uncorrectable": 1, "corrected_reads": 0,
            "scrub_saves": 0, "first_flip_ns": 5, "first_corruption_ns": 7}}}}"#
            .replace('\n', " ");
        let path = temp_file("integrity.jsonl", &format!("{record}\n"));
        let outcome = cmd_report(&[path.display().to_string()]);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(outcome, Ok(code) if code == ExitCode::SUCCESS));
    }
}
