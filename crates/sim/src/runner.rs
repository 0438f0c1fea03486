//! Experiment runner: normalized performance, suite sweeps and parallel
//! execution of many simulations.

use std::sync::{mpsc, Mutex, PoisonError};

use srs_core::DefenseKind;
use srs_workloads::{NamedWorkload, Suite};

use crate::config::SystemConfig;
use crate::json::{obj, Json, ToJson};
use crate::metrics::{NormalizedResult, SimResult};
use crate::system::System;

/// Run one workload under one configuration.
#[must_use]
pub fn run_workload(config: &SystemConfig, workload: &NamedWorkload) -> SimResult {
    let trace = workload.spec().generate(config.trace_records_per_core, config.seed);
    System::new(config.clone(), trace).run()
}

/// Run one workload with the per-subsystem stopwatches armed (see
/// [`crate::attribution`]). The result is bit-identical to
/// [`run_workload`]'s; the report carries the wall-time breakdown. The
/// laps perturb wall time by a few percent, so use this for breakdown
/// passes, not headline throughput measurement.
#[must_use]
pub fn run_workload_attributed(
    config: &SystemConfig,
    workload: &NamedWorkload,
) -> (SimResult, crate::attribution::AttributionReport) {
    let trace = workload.spec().generate(config.trace_records_per_core, config.seed);
    System::new(config.clone(), trace).run_attributed()
}

/// Run one workload under a defense and under the baseline, returning the
/// defense result normalized to the baseline (the y-axis of Figures 4, 12,
/// 14, 15 and 16).
#[must_use]
pub fn run_normalized(config: &SystemConfig, workload: &NamedWorkload) -> NormalizedResult {
    let mut baseline_config = config.clone();
    baseline_config.defense = DefenseKind::Baseline;
    let baseline = run_workload(&baseline_config, workload);
    let defended = run_workload(config, workload);
    normalize_against(defended, baseline.total_ipc(), config.t_rh)
}

/// Normalize a defended run against an already-computed baseline IPC (the
/// scenario engine computes each distinct baseline once and shares it across
/// the defense axis).
///
/// Normalized performance is capped at 1.0: with the dense synthetic traces,
/// Scale-SRS's LLC pinning of extremely hot rows can outweigh its swap cost
/// and beat the unprotected baseline, which the paper's real traces do not
/// exhibit (see EXPERIMENTS.md).
#[must_use]
pub fn normalize_against(defended: SimResult, baseline_ipc: f64, t_rh: u64) -> NormalizedResult {
    let normalized =
        if baseline_ipc > 0.0 { (defended.total_ipc() / baseline_ipc).min(1.0) } else { 1.0 };
    NormalizedResult {
        workload: defended.workload.clone(),
        defense: defended.defense.clone(),
        t_rh,
        normalized_performance: normalized,
        detail: defended,
    }
}

/// Deterministic fault injection for campaign failure tests: the
/// execution unit containing `cell` panics. Cells are deterministic, so a
/// unit that panics once panics on every run; this stands in for such a
/// unit.
///
/// `srs-cli run` arms this from the `SRS_CAMPAIGN_FAIL=<cell>` environment
/// variable; it exists so the failure and resume paths can be exercised
/// end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjection {
    /// Grid index of the cell whose execution unit panics.
    pub cell: usize,
}

impl FaultInjection {
    /// The environment variable [`FaultInjection::from_env`] reads.
    pub const VAR: &'static str = "SRS_CAMPAIGN_FAIL";

    /// Parse the `<cell>` form (e.g. `"3"`).
    #[must_use]
    pub fn parse(spec: &str) -> Option<Self> {
        Some(Self { cell: spec.trim().parse().ok()? })
    }

    /// Read the `SRS_CAMPAIGN_FAIL` environment variable; `None` when it is
    /// unset or is not a cell index.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        Self::parse(&std::env::var(Self::VAR).ok()?)
    }
}

/// Best-effort human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&'static str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

/// Run `f` once under [`std::panic::catch_unwind`], first injecting a
/// panic when this unit's `cells` cover the injection's target cell.
/// Returns the caught panic's message on failure.
pub(crate) fn run_isolated<T>(
    fault: Option<(&FaultInjection, &[usize])>,
    f: impl FnOnce() -> T,
) -> Result<T, String> {
    let inject = fault.is_some_and(|(fault, cells)| cells.contains(&fault.cell));
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if inject {
            panic!("injected campaign fault");
        }
        f()
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// One lifecycle event of a job running under
/// [`parallel_for_each_ordered`].
#[derive(Debug)]
pub enum JobEvent<O> {
    /// A worker picked the job up. Start events arrive in *completion-race*
    /// order (whichever worker takes its next job first), not submission
    /// order — use them for progress display, not for sequencing.
    Started(usize),
    /// The job finished. Finish events are delivered strictly in
    /// **submission order**: `Finished(i, _)` always arrives after
    /// `Finished(i - 1, _)`, regardless of which job completed first.
    Finished(usize, O),
}

/// Run `f` over every item on a pool of `threads` workers, streaming each
/// output to `handle` **in submission order** as soon as its prefix of the
/// job list has completed — the execution primitive behind
/// [`parallel_map_ordered`] and the sink-driven [`crate::campaign::Campaign::run`].
///
/// Outputs that finish ahead of an earlier, slower job are buffered until
/// the gap closes, so `handle` observes a deterministic event sequence while
/// memory holds only the out-of-order window rather than the whole result
/// set.
///
/// # Panics
///
/// Panics if a worker panicked while executing a job (the panic is reported
/// against the job's index).
pub fn parallel_for_each_ordered<I, O, F, H>(items: Vec<I>, threads: usize, f: F, mut handle: H)
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
    H: FnMut(JobEvent<O>),
{
    let threads = threads.max(1);
    if items.is_empty() {
        return;
    }
    let total = items.len();
    // Workers take jobs in submission order from one shared iterator. The
    // lock is released before the job runs, so a panicking job never
    // poisons it.
    let jobs = Mutex::new(items.into_iter().enumerate());
    let (event_tx, event_rx) = mpsc::channel::<JobEvent<O>>();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let event_tx = event_tx.clone();
            let (jobs, f) = (&jobs, &f);
            scope.spawn(move || loop {
                let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((index, item)) = next else { break };
                if event_tx.send(JobEvent::Started(index)).is_err() {
                    break;
                }
                if event_tx.send(JobEvent::Finished(index, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(event_tx);
        // Buffer only the out-of-order window: results that arrived ahead of
        // a still-running earlier job.
        let mut pending: Vec<Option<O>> = (0..total).map(|_| None).collect();
        let mut next = 0usize;
        for event in event_rx.iter() {
            match event {
                JobEvent::Started(index) => handle(JobEvent::Started(index)),
                JobEvent::Finished(index, output) => {
                    pending[index] = Some(output);
                    while next < total {
                        let Some(output) = pending[next].take() else { break };
                        handle(JobEvent::Finished(next, output));
                        next += 1;
                    }
                }
            }
        }
        // The channel closed with a gap: the worker running job `next`
        // panicked (its sender dropped without reporting); point at the
        // real failure rather than a generic unwrap message.
        assert!(
            next == total,
            "worker panicked while executing job {next}; see the panic output above"
        );
    });
}

/// Run `f` over every item on a pool of `threads` workers, returning the
/// outputs **in submission order** regardless of completion order: two runs
/// of the same job list produce identically ordered output even though fast
/// jobs finish before slow ones.
#[must_use]
pub fn parallel_map_ordered<I, O, F>(items: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let mut outputs = Vec::with_capacity(items.len());
    parallel_for_each_ordered(items, threads, f, |event| {
        if let JobEvent::Finished(_, output) = event {
            outputs.push(output);
        }
    });
    outputs
}

/// One row of a suite-average table: a suite (or the overall `"ALL"` row),
/// its mean normalized performance, and how many per-workload results the
/// mean aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Suite label, or the stable `"ALL"` for the overall mean.
    pub label: String,
    /// Arithmetic mean of the normalized performance of the row's results.
    pub mean: f64,
    /// Number of per-workload results aggregated into the mean.
    pub count: usize,
}

impl ToJson for SuiteRow {
    fn to_json(&self) -> Json {
        obj(vec![
            ("label", Json::from(self.label.as_str())),
            ("mean", Json::Float(self.mean)),
            ("count", self.count.into()),
        ])
    }
}

/// Average normalized performance per suite plus the overall mean, from a
/// set of per-workload results (the grouped bars of Figures 12, 14-16).
///
/// The final row is always labelled `"ALL"`; the number of aggregated
/// results is reported in [`SuiteRow::count`] rather than baked into the
/// label, so downstream code can match on the label across sweeps of
/// different sizes.
///
/// Accepts anything yielding result references — a `&Vec<NormalizedResult>`
/// or the borrowed groups [`crate::scenario::results_for`] and
/// [`crate::scenario::results_where`] return — so the aggregation path is
/// by-reference end to end.
pub fn suite_averages<'a, I>(results: I) -> Vec<SuiteRow>
where
    I: IntoIterator<Item = &'a NormalizedResult>,
{
    // One workload-name → suite index map built up front, then a single
    // by-reference pass accumulating every suite's sum and count plus the
    // overall mean — no per-suite rescans of the result set and no cloning
    // of the (large) `NormalizedResult` values. Per-suite results arrive
    // in `results` order, so the floating-point accumulation order (and
    // thus the means) match the previous filter-then-average
    // implementation bit for bit.
    let suites = Suite::all();
    let suite_index: fxhash::FxHashMap<&'static str, usize> = srs_workloads::all_workloads()
        .iter()
        .filter_map(|w| suites.iter().position(|s| *s == w.suite).map(|i| (w.name, i)))
        .collect();
    let mut sums = vec![0.0f64; suites.len()];
    let mut counts = vec![0usize; suites.len()];
    let (mut all_sum, mut all_count) = (0.0f64, 0usize);
    for r in results {
        all_sum += r.normalized_performance;
        all_count += 1;
        if let Some(&i) = suite_index.get(r.workload.as_str()) {
            sums[i] += r.normalized_performance;
            counts[i] += 1;
        }
    }
    let mut rows = Vec::with_capacity(suites.len() + 1);
    for (i, suite) in suites.iter().enumerate() {
        if counts[i] > 0 {
            rows.push(SuiteRow {
                label: suite.label().to_string(),
                mean: sums[i] / counts[i] as f64,
                count: counts[i],
            });
        }
    }
    rows.push(SuiteRow {
        label: "ALL".to_string(),
        mean: if all_count == 0 { 1.0 } else { all_sum / all_count as f64 },
        count: all_count,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_workloads::all_workloads;

    fn tiny(defense: DefenseKind) -> SystemConfig {
        let mut config = SystemConfig::scaled_for_speed(defense, 1200);
        config.cores = 2;
        config.core.target_instructions = 4_000;
        config.trace_records_per_core = 1_500;
        config.dram.refresh_window_ns = 500_000;
        config.max_sim_ns = 3_000_000;
        config
    }

    fn workload(name: &str) -> NamedWorkload {
        all_workloads().into_iter().find(|w| w.name == name).expect("workload exists")
    }

    #[test]
    fn normalized_baseline_is_one() {
        let result = run_normalized(&tiny(DefenseKind::Baseline), &workload("gups"));
        assert!(
            (result.normalized_performance - 1.0).abs() < 0.06,
            "norm = {}",
            result.normalized_performance
        );
    }

    #[test]
    fn normalized_defense_is_at_most_slightly_above_one() {
        let result = run_normalized(&tiny(DefenseKind::ScaleSrs), &workload("gcc"));
        assert!(result.normalized_performance <= 1.05);
        assert!(result.normalized_performance > 0.3);
    }

    #[test]
    fn parallel_runner_returns_all_jobs() {
        let jobs = vec![
            (tiny(DefenseKind::Baseline), workload("gups")),
            (tiny(DefenseKind::ScaleSrs), workload("gups")),
        ];
        let results =
            parallel_map_ordered(jobs, 2, |(config, workload)| run_normalized(&config, &workload));
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn parallel_runner_preserves_submission_order() {
        // Mix fast and slow defenses so completion order differs from
        // submission order, then check results come back as submitted.
        let names = ["gups", "gcc", "mcf", "astar"];
        let jobs: Vec<(SystemConfig, NamedWorkload)> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let kind = if i % 2 == 0 { DefenseKind::Baseline } else { DefenseKind::ScaleSrs };
                (tiny(kind), workload(name))
            })
            .collect();
        let run =
            |(config, workload): (SystemConfig, NamedWorkload)| run_normalized(&config, &workload);
        let first = parallel_map_ordered(jobs.clone(), 4, run);
        let second = parallel_map_ordered(jobs, 4, run);
        let order: Vec<&str> = first.iter().map(|r| r.workload.as_str()).collect();
        assert_eq!(order, names.to_vec(), "results must follow submission order");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.defense, b.defense);
            assert!((a.normalized_performance - b.normalized_performance).abs() < 1e-12);
        }
    }

    #[test]
    fn streaming_events_finish_in_submission_order() {
        // Job 0 is the slowest, so every other job completes first and must
        // be buffered; the handler still sees finishes 0, 1, 2, 3, 4.
        let mut finished = Vec::new();
        let mut started = 0usize;
        parallel_for_each_ordered(
            vec![30u64, 0, 20, 0, 10],
            4,
            |sleep_ms| {
                std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                sleep_ms
            },
            |event| match event {
                JobEvent::Started(_) => started += 1,
                JobEvent::Finished(index, value) => finished.push((index, value)),
            },
        );
        assert_eq!(started, 5);
        assert_eq!(finished, vec![(0, 30), (1, 0), (2, 20), (3, 0), (4, 10)]);
    }

    /// Four jobs of which job 2 panics: the pool must name job 2 whatever
    /// the worker count, after the panicking worker's sender drops during
    /// unwinding and the event stream closes with a gap.
    fn run_with_panicking_job_two(threads: usize) {
        parallel_for_each_ordered(
            vec![0usize, 1, 2, 3],
            threads,
            |job| assert_ne!(job, 2, "job 2 fails"),
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "worker panicked while executing job 2")]
    fn a_panicking_job_is_reported_by_index_on_one_thread() {
        run_with_panicking_job_two(1);
    }

    #[test]
    #[should_panic(expected = "worker panicked while executing job 2")]
    fn a_panicking_job_is_reported_by_index_on_two_threads() {
        run_with_panicking_job_two(2);
    }

    #[test]
    fn parallel_map_ordered_handles_empty_and_excess_threads() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_ordered(empty, 8, |x: u32| x).is_empty());
        let doubled = parallel_map_ordered(vec![1u32, 2, 3], 64, |x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6]);
    }

    #[test]
    fn fault_injection_parses_the_env_form() {
        assert_eq!(FaultInjection::parse("3"), Some(FaultInjection { cell: 3 }));
        assert_eq!(FaultInjection::parse(" 7 "), Some(FaultInjection { cell: 7 }));
        assert_eq!(FaultInjection::parse("1:99"), None);
        assert_eq!(FaultInjection::parse("garbage"), None);
        assert_eq!(FaultInjection::parse(""), None);
    }

    #[test]
    fn run_isolated_returns_the_panic_message_and_injects_only_into_the_target_unit() {
        assert_eq!(run_isolated(None, || 42u32), Ok(42));
        let err = run_isolated(None, || -> u32 { panic!("cell exploded") }).unwrap_err();
        assert_eq!(err, "cell exploded");

        let fault = FaultInjection { cell: 5 };
        // The unit does not cover the target cell: no injection at all.
        assert_eq!(run_isolated(Some((&fault, &[0, 1])), || 7u32), Ok(7));
        let err = run_isolated(Some((&fault, &[4, 5])), || 7u32).unwrap_err();
        assert!(err.contains("injected campaign fault"), "{err}");
    }

    #[test]
    fn suite_averages_include_stable_overall_row() {
        let results = vec![run_normalized(&tiny(DefenseKind::Baseline), &workload("gups"))];
        let rows = suite_averages(&results);
        assert!(rows.iter().any(|row| row.label == "GUPS"));
        let all = rows.last().expect("ALL row present");
        assert_eq!(all.label, "ALL");
        assert_eq!(all.count, 1);
        assert!(all.mean > 0.0);
    }
}
