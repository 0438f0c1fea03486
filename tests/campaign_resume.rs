//! Campaign-engine integration: resume skip-lists, failure isolation, and
//! unit-atomic sharding must all reproduce an uninterrupted run bit for
//! bit.

use scale_srs::sim::campaign::{execution_units, plan_shards, Campaign};
use scale_srs::sim::sink::{ProgressSink, ResultSink};
use scale_srs::sim::spec::ExperimentSpec;
use scale_srs::sim::{Scenario, ScenarioResult, ToJson};

/// Six cells, two shared-prefix units (one per workload), fast enough for
/// CI: three defenses sharing one benign trunk per workload.
fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec::parse(
        r#"{
            "name": "campaign_tiny",
            "patch": {"cores": 1, "target_instructions": 2000,
                      "trace_records_per_core": 1000, "max_sim_ns": 2000000},
            "defenses": ["baseline", "srs", "scale-srs"],
            "workloads": ["gups", "gcc"],
            "threads": 2
        }"#,
    )
    .expect("tiny spec parses")
}

#[derive(Default)]
struct Collect {
    started: Vec<usize>,
    results: Vec<ScenarioResult>,
}

impl ResultSink for Collect {
    fn on_scenario_start(&mut self, scenario: &Scenario) {
        self.started.push(scenario.index);
    }

    fn on_result(&mut self, result: &ScenarioResult) {
        self.results.push(result.clone());
    }
}

#[test]
fn resumed_campaign_skips_completed_cells_and_matches_the_full_run_bitwise() {
    let experiment = tiny_spec().to_experiment().unwrap();
    let reference = experiment.run();
    let total = reference.len();
    assert_eq!(total, 6);

    let done = vec![0, 2, 3];
    let campaign = Campaign::new(experiment).with_completed(done.clone());
    assert_eq!(campaign.planned(), vec![1, 4, 5]);
    let mut sink = Collect::default();
    let report = campaign.run(&mut sink);

    // Skipped cells produce no events at all — not even a start.
    for skipped in &done {
        assert!(!sink.started.contains(skipped), "cell {skipped} started despite skip-list");
    }
    let got: Vec<usize> = sink.results.iter().map(|r| r.scenario.index).collect();
    assert_eq!(got, vec![1, 4, 5], "outcomes arrive in ascending cell order");
    // Restricting a shared-prefix unit to a subset of its members must not
    // change any member's bits.
    for result in &sink.results {
        let index = result.scenario.index;
        assert_eq!(
            result.to_json().to_compact(),
            reference[index].to_json().to_compact(),
            "cell {index} differs from the uninterrupted run"
        );
    }
    assert_eq!(report.total_cells, total);
    assert_eq!(report.planned, 3);
    assert_eq!(report.skipped, 3);
    assert_eq!(report.completed, 3);
    assert!(report.failed.is_empty());
}

#[test]
fn progress_under_resume_counts_from_the_offset_and_etas_remaining_cells() {
    let experiment = tiny_spec().to_experiment().unwrap();
    let done = vec![0, 1, 2, 3];
    let campaign = Campaign::new(experiment).with_completed(done.clone());
    let remaining = campaign.planned().len();
    assert_eq!(remaining, 2);

    let mut progress = ProgressSink::new(remaining, Vec::new()).with_offset(done.len());
    campaign.run(&mut progress);
    assert_eq!(progress.finished(), remaining);
    let text = String::from_utf8(progress.into_inner()).unwrap();
    // The display counts from the resume offset: 5/6 then 6/6, and the
    // final ETA extrapolates from the 2 remaining cells only (0 at the
    // end), never from the 6-cell grid.
    assert!(text.contains("[5/6]"), "first resumed line counts from offset: {text}");
    assert!(text.contains("[6/6]"), "last line reaches the full grid: {text}");
    assert!(text.contains("eta=0.0s"), "ETA drains to zero over remaining cells: {text}");
}

#[test]
fn a_panicking_unit_degrades_the_campaign_and_resume_repairs_it() {
    use scale_srs::sim::FaultInjection;
    let experiment = tiny_spec().to_experiment().unwrap();
    let reference = experiment.run();

    // The faulty cell's whole execution unit is reported failed, and
    // everything else still completes.
    let campaign = Campaign::new(experiment.clone()).with_fault(Some(FaultInjection { cell: 1 }));
    let mut sink = Collect::default();
    let report = campaign.run(&mut sink);
    let units = execution_units(&experiment);
    let faulty_unit = units.iter().find(|u| u.contains(&1)).expect("cell 1 has a unit");
    let failed: Vec<usize> = report.failed.iter().map(|f| f.index).collect();
    assert_eq!(&failed, faulty_unit, "exactly the faulty unit fails");
    for failure in &report.failed {
        assert!(failure.error.contains("injected campaign fault"), "error: {}", failure.error);
    }
    assert_eq!(report.completed + report.failed.len(), report.planned);
    // Surviving cells are bit-identical to the uninterrupted run.
    for result in &sink.results {
        let index = result.scenario.index;
        assert_eq!(result.to_json().to_compact(), reference[index].to_json().to_compact());
    }

    // Resuming with the survivors marked done re-runs only the failed unit
    // and reproduces the reference bits.
    let survivors: Vec<usize> = sink.results.iter().map(|r| r.scenario.index).collect();
    let campaign = Campaign::new(experiment).with_completed(survivors);
    let mut resumed = Collect::default();
    let report = campaign.run(&mut resumed);
    assert!(report.failed.is_empty());
    let rerun: Vec<usize> = resumed.results.iter().map(|r| r.scenario.index).collect();
    assert_eq!(&rerun, faulty_unit);
    for result in &resumed.results {
        let index = result.scenario.index;
        assert_eq!(result.to_json().to_compact(), reference[index].to_json().to_compact());
    }
}

#[test]
fn shards_partition_the_grid_without_splitting_units_and_rerun_bitwise() {
    let spec = tiny_spec();
    let experiment = spec.to_experiment().unwrap();
    let reference = experiment.run();
    let units = execution_units(&experiment);
    assert_eq!(units.len(), 2, "three defenses × two workloads share two trunks");

    let shards = plan_shards(&spec, 2).unwrap();
    assert_eq!(shards, plan_shards(&spec, 2).unwrap(), "planning is deterministic");
    assert_eq!(shards.len(), 2);
    // Disjoint cover of the grid, unit-atomic.
    let mut covered: Vec<usize> = shards.iter().flat_map(|s| s.cells.clone()).collect();
    covered.sort_unstable();
    assert_eq!(covered, (0..reference.len()).collect::<Vec<_>>());
    for unit in &units {
        assert!(
            shards.iter().any(|s| unit.iter().all(|c| s.cells.contains(c))),
            "unit {unit:?} split across shards"
        );
    }
    // The shard round-trips through its on-disk JSON form.
    let text = shards[0].to_json().to_pretty();
    let json = scale_srs::sim::Json::parse(&text).unwrap();
    let reparsed = scale_srs::sim::campaign::ShardManifest::from_json("shard0", &json).unwrap();
    assert_eq!(reparsed, shards[0]);

    // Running each shard independently reproduces the reference bits.
    for shard in &shards {
        let campaign = Campaign::new(spec.to_experiment().unwrap()).with_cells(shard.cells.clone());
        let mut sink = Collect::default();
        let report = campaign.run(&mut sink);
        assert_eq!(report.completed, shard.cells.len());
        for result in &sink.results {
            let index = result.scenario.index;
            assert_eq!(
                result.to_json().to_compact(),
                reference[index].to_json().to_compact(),
                "shard {} cell {index} differs from the unsharded run",
                shard.shard_index
            );
        }
    }
}
