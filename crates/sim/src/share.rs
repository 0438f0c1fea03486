//! The sharing-aware grid executor: amortize the common simulation prefix
//! of grid cells that differ only in their mitigation axes.
//!
//! Every paper-style grid sweeps defenses, trackers and Row Hammer
//! thresholds over the same workloads. Until its first mitigation feeds
//! back into the memory system — a swap, a pin, a Hydra counter-table
//! access — a cell's simulation is bit-identical to an undefended run of
//! the same workload: the tracker is a pure observer, the defense's row
//! indirection is still the identity, and its timed lazy work has nothing
//! to do. The executor exploits that equivalence as a *prefix tree*: one
//! **trunk** run per (generated trace, cores, seed, geometry) group
//! executes the shared prefix, and each branch forks off at the exact tick
//! its own mitigation first acts.
//!
//! Groups are keyed on the generated trace
//! ([`srs_workloads::NamedWorkload::trace_key`]), not the workload name:
//! workloads of one synthetic profile generate identical records, so their
//! cells join one group, equal branch configurations are interned, and
//! each distinct (trace, configuration) simulates once. Every cell's
//! result is then labelled with its own workload name.
//!
//! Execution is one pass over the trunk. The trunk runs to completion
//! with every branch's (tracker, defense) attached as a
//! [`crate::system::MitigationProbe`], fed the same demand activations,
//! window rollovers and ticks its from-scratch run would see. Branches
//! whose configurations build identical trackers (same kind, swap
//! threshold and geometry) share one probe and so one tracker: it sees
//! each demand activation once, and each branch acts on its decisions
//! with its own defense. A branch *fires* in the first tick where one of
//! its decisions feeds back into the simulation; it keeps deciding to the
//! end of that tick, then leaves the trunk as a fork: a copy of the
//! trunk's state after the tick's controller drain, with a copy of its
//! probe's tracker and its own defense installed, which applies the
//! branch's own feedback of that tick and runs on from there. The trunk
//! itself is the group's undefended baseline, so the same pass produces
//! the normalization baseline every cell needs. Branches that never fired
//! are the trunk result relabelled: their whole run provably never
//! differed from the trunk.
//!
//! The protocol is gated end-to-end by equivalence tests
//! (`tests/fork_equivalence.rs`): a shared grid must be bit-identical —
//! `SimResult` and `SecurityReport` included — to the unshared path.
//!
//! Cells carrying an attack scenario never share: the closed-loop
//! attacker's behaviour depends on the defense's swap threshold from the
//! first issued read, so there is no common prefix across the mitigation
//! axes to begin with. Telemetry-armed cells never share either: before a
//! branch forks, the recorder would sample the trunk's inert tracker
//! (occupancy 0, no saturation events), and a branch that never forks
//! would report that for its whole run.

use srs_core::DefenseKind;
use srs_trackers::TrackerKind;
use srs_workloads::Trace;

use crate::config::SystemConfig;
use crate::metrics::SimResult;
use crate::runner::normalize_against;
use crate::scenario::{Scenario, ScenarioResult};
use crate::system::{MitigationProbe, System};

/// One grid cell participating in a shared-prefix group.
#[derive(Clone)]
pub(crate) struct SharedCell {
    /// Submission index of the cell in the grid.
    pub(crate) index: usize,
    /// The cell's scenario descriptor.
    pub(crate) scenario: Scenario,
    /// The cell's full configuration.
    pub(crate) config: SystemConfig,
}

/// The group key: a cell's configuration with every mitigation axis
/// neutralized. Two benign cells whose neutral keys (and generated traces)
/// are equal differ *only* in defense, threshold, tracker or swap rate —
/// the axes the prefix tree branches on — and may share a trunk.
pub(crate) fn neutral_key(config: &SystemConfig) -> SystemConfig {
    let mut key = config.clone();
    key.defense = DefenseKind::Baseline;
    key.t_rh = 0;
    key.tracker = TrackerKind::default();
    key.swap_rate = None;
    key
}

/// Deduplicating push: the index of `config` in `configs`, appending it if
/// new.
fn intern(configs: &mut Vec<SystemConfig>, config: SystemConfig) -> usize {
    configs.iter().position(|c| *c == config).unwrap_or_else(|| {
        configs.push(config);
        configs.len() - 1
    })
}

/// Execute one shared-prefix group and return every member cell's result,
/// keyed by its grid submission index. The members share one generated
/// trace (the planner groups them by trace key), so the first member's
/// workload generates it.
pub(crate) fn run_shared_group(cells: &[SharedCell]) -> Vec<(usize, ScenarioResult)> {
    let cfg0 = &cells[0].config;
    let trace = cells[0].scenario.workload.spec().generate(cfg0.trace_records_per_core, cfg0.seed);

    // The branch set: each cell's own configuration plus the baseline
    // configuration it normalizes against, interned so equal
    // configurations (e.g. a baseline cell and another cell's baseline)
    // simulate once.
    let mut branch_configs: Vec<SystemConfig> = Vec::new();
    let mut cell_branch = Vec::with_capacity(cells.len());
    let mut cell_baseline = Vec::with_capacity(cells.len());
    for cell in cells {
        cell_branch.push(intern(&mut branch_configs, cell.config.clone()));
        let mut baseline = cell.config.clone();
        baseline.defense = DefenseKind::Baseline;
        cell_baseline.push(intern(&mut branch_configs, baseline));
    }

    let branch_results = run_branches(trace, &branch_configs);

    cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            let mut defended = branch_results[cell_branch[c]].clone();
            // A branch may serve cells of several same-trace workloads.
            defended.workload = cell.scenario.workload.name.to_string();
            let baseline_ipc = branch_results[cell_baseline[c]].total_ipc();
            let result = normalize_against(defended, baseline_ipc, cell.config.t_rh);
            (cell.index, ScenarioResult { scenario: cell.scenario.clone(), result })
        })
        .collect()
}

/// Simulate every configuration of `branch_configs` over `trace` in one
/// pass of a shared trunk, returning the results in branch order. The
/// configurations must differ only in their mitigation axes.
fn run_branches(trace: Trace, branch_configs: &[SystemConfig]) -> Vec<SimResult> {
    // One probe per distinct tracker configuration: branches that build
    // identical trackers read one tracker until each forks.
    let mut probes = Vec::new();
    for (b, config) in branch_configs.iter().enumerate() {
        if let Some(probe) = MitigationProbe::new(b, config) {
            probe.merge_into(&mut probes);
        }
    }
    let mut trunk = System::trunk(branch_configs[0].clone(), trace, probes);
    // Each branch forks off at the end of its divergence tick and runs on
    // from there. The trunk result doubles as the group's undefended
    // baseline.
    let mut forked: Vec<Option<SimResult>> = vec![None; branch_configs.len()];
    while !trunk.engine_done() {
        for (b, fork) in trunk.engine_step(true) {
            forked[b] = Some(fork.run());
        }
    }
    let trunk_result = trunk.into_result();

    // Branches that never diverged are the trunk run under a different
    // label: same trajectory, zero swaps, their own defense name and TRH.
    forked
        .into_iter()
        .zip(branch_configs)
        .map(|(result, config)| {
            result.unwrap_or_else(|| {
                let mut result = trunk_result.clone();
                result.defense = config.defense.to_string();
                result.t_rh = config.t_rh;
                result
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use srs_workloads::{MemOp, TraceRecord};

    use super::*;
    use crate::telemetry::{EventKind, TelemetryConfig};

    /// Two cores hammering one row. Under three ranks each core's private
    /// copy of the row lands in a rank of its own, so the two copies are
    /// activated in lockstep and reach every threshold in the same tick.
    fn lockstep_config(defense: DefenseKind, tracker: TrackerKind) -> SystemConfig {
        let mut config = SystemConfig::scaled_for_speed(defense, 1200);
        config.tracker = tracker;
        config.cores = 2;
        config.dram.ranks_per_channel = 3;
        config.core.target_instructions = 30_000;
        config.dram.refresh_window_ns = 500_000;
        config.max_sim_ns = 3_000_000;
        config
    }

    /// The banks whose demand activations fed back in the first tick any
    /// did, in the from-scratch run of `config`: triggers an acting defense
    /// handles, and tracker counter-table traffic.
    fn divergence_tick_banks(config: &SystemConfig, trace: &Trace) -> BTreeSet<u32> {
        let mut armed = config.clone();
        armed.telemetry = TelemetryConfig { event_capacity: 1 << 20, ..TelemetryConfig::armed() };
        let result = System::new(armed, trace.clone()).run();
        let report = result.telemetry.expect("an armed run carries telemetry");
        assert_eq!(report.events_dropped, 0);
        let acts = config.defense != DefenseKind::Baseline;
        let feedback: Vec<_> = report
            .events
            .iter()
            .filter(|e| {
                e.kind == EventKind::CounterAccess
                    || (acts && e.kind == EventKind::MitigationTrigger)
            })
            .collect();
        let tick = feedback.first().map(|e| e.at_ns);
        feedback.iter().filter(|e| Some(e.at_ns) == tick).map(|e| e.bank).collect()
    }

    /// Every branch here makes feedback decisions in two banks inside the
    /// tick its probe fires — two rows crossing the swap threshold at once,
    /// or two Hydra counter-table misses — so a fork that acted only on the
    /// decision that fired its probe would lose the other. RRS and SRS
    /// share a swap rate, so each tracker kind's RRS and SRS branches read
    /// one shared tracker and fire in the same tick: a shared tracker must
    /// see each activation once, and each member must act with its own
    /// defense. Each branch of the shared pass must match its from-scratch
    /// run.
    #[test]
    fn branches_act_on_every_decision_of_their_divergence_tick() {
        let hammer = TraceRecord { nonmem_insts: 0, op: MemOp::Read, addr: 0x10000 };
        let trace = Trace::new("hammer", vec![hammer; 10_000]);
        let configs: Vec<SystemConfig> = [
            (DefenseKind::Rrs { immediate_unswap: true }, TrackerKind::MisraGries),
            (DefenseKind::Srs, TrackerKind::MisraGries),
            (DefenseKind::ScaleSrs, TrackerKind::MisraGries),
            (DefenseKind::Baseline, TrackerKind::Hydra),
            (DefenseKind::Rrs { immediate_unswap: true }, TrackerKind::Hydra),
            (DefenseKind::Srs, TrackerKind::Hydra),
        ]
        .into_iter()
        .map(|(defense, tracker)| lockstep_config(defense, tracker))
        .collect();
        let shared = run_branches(trace.clone(), &configs);
        for (config, shared) in configs.iter().zip(&shared) {
            let label = format!("{} with {:?}", config.defense, config.tracker);
            let banks = divergence_tick_banks(config, &trace);
            assert!(
                banks.len() >= 2,
                "{label}: one bank fed back in the divergence tick: {banks:?}"
            );
            let scratch = System::new(config.clone(), trace.clone()).run();
            assert_eq!(*shared, scratch, "{label}: the shared branch diverged from its own run");
        }
    }
}
