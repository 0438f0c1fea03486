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
//! Execution is two passes over the trunk:
//!
//! 1. **Discovery** — the trunk runs to completion with every branch's
//!    (tracker, defense) attached as a passive
//!    [`crate::system::MitigationProbe`]; each probe records the tick of
//!    its first feedback decision. The trunk itself is the group's
//!    undefended baseline, so this pass also produces the normalization
//!    baseline every cell needs.
//! 2. **Fork** — if any probe fired, the trunk is re-run (deterministic
//!    replay) up to the last recorded divergence tick; at each branch's
//!    tick the system is snapshotted *before* the tick executes and the
//!    branch resumes from the snapshot with its own tracker and defense
//!    installed — replaying that tick with the mitigation live, exactly
//!    as its from-scratch run would have. Branches whose probe never
//!    fired are the trunk result relabelled: their whole run provably
//!    never differed from the trunk.
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

use srs_core::{build_defense, DefenseKind};
use srs_trackers::TrackerKind;

use crate::config::SystemConfig;
use crate::metrics::SimResult;
use crate::runner::normalize_against;
use crate::scenario::{Scenario, ScenarioResult};
use crate::system::{build_tracker, MitigationProbe, NullTracker, System};

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

/// Build the trunk system for a group plus probes for the requested
/// branches; returns the system and, per branch, the probe index (`None`
/// for branches that provably never diverge and need no probe).
fn build_trunk(
    trunk_config: &SystemConfig,
    trace: &srs_workloads::Trace,
    branch_configs: &[SystemConfig],
    wanted: impl Fn(usize) -> bool,
) -> (System, Vec<Option<usize>>) {
    let mut trunk = System::new(trunk_config.clone(), trace.clone());
    trunk.set_tracker(Box::new(NullTracker));
    let mut probe_of = vec![None; branch_configs.len()];
    for (b, config) in branch_configs.iter().enumerate() {
        if !wanted(b) {
            continue;
        }
        let tracker = build_tracker(config);
        let acts_on_mitigate = config.defense != DefenseKind::Baseline;
        if !acts_on_mitigate && !tracker.may_emit_memory_traffic() {
            // A baseline cell with an SRAM-only tracker has no feedback
            // channel at all: the branch equals the trunk for the whole
            // run, so it needs no probe (and no fork).
            continue;
        }
        let defense = build_defense(config.defense, config.mitigation_config());
        probe_of[b] = Some(trunk.attach_probe(MitigationProbe {
            tracker,
            defense,
            acts_on_mitigate,
            fired_at: None,
        }));
    }
    (trunk, probe_of)
}

/// Execute one shared-prefix group and return every member cell's result,
/// keyed by its grid submission index. The members share one generated
/// trace (the planner groups them by trace key), so the first member's
/// workload generates it.
///
/// # Panics
///
/// Panics if the deterministic replay of pass 2 fails to revisit a
/// divergence tick recorded by pass 1 — which would mean the trunk is not
/// a faithful prefix of some branch, a protocol violation.
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

    let mut trunk_config = cfg0.clone();
    trunk_config.defense = DefenseKind::Baseline;

    // Pass 1: run the trunk to completion with every branch probing for
    // its divergence tick. The trunk result doubles as the group's
    // undefended baseline.
    let (mut trunk, probe_of) = build_trunk(&trunk_config, &trace, &branch_configs, |_| true);
    while !trunk.engine_done() {
        trunk.engine_step(true);
    }
    let fired: Vec<Option<u64>> =
        probe_of.iter().map(|p| p.and_then(|i| trunk.probe_fired_at(i))).collect();
    let trunk_result = trunk.into_result();

    // Pass 2: deterministic replay, forking each diverging branch from the
    // state at the start of its recorded divergence tick.
    let mut branch_results: Vec<Option<SimResult>> = vec![None; branch_configs.len()];
    let mut schedule: Vec<(u64, usize)> =
        (0..branch_configs.len()).filter_map(|b| fired[b].map(|t| (t, b))).collect();
    schedule.sort_unstable();
    if !schedule.is_empty() {
        let diverging: Vec<bool> = fired.iter().map(Option::is_some).collect();
        let (mut replay, probe_of) =
            build_trunk(&trunk_config, &trace, &branch_configs, |b| diverging[b]);
        let mut next = 0;
        loop {
            let now = replay.now_ns();
            while next < schedule.len() && schedule[next].0 == now {
                let b = schedule[next].1;
                // Invariant: the schedule only records branches that were
                // given a probe by `build_trunk`.
                #[allow(clippy::expect_used)]
                let probe = replay.take_probe(probe_of[b].expect("diverging branch has a probe"));
                let fork = replay.fork_with_mitigation(
                    branch_configs[b].clone(),
                    probe.tracker,
                    probe.defense,
                );
                branch_results[b] = Some(fork.run());
                next += 1;
            }
            if next >= schedule.len() {
                break;
            }
            assert!(
                now < schedule[next].0 && !replay.engine_done(),
                "shared-prefix replay missed a recorded divergence tick \
                 (replay at {now}, expected {})",
                schedule[next].0
            );
            replay.engine_step(true);
        }
    }

    // Branches that never diverged are the trunk run under a different
    // label: same trajectory, zero swaps, their own defense name and TRH
    // (and, below, each cell's own workload name).
    for (b, config) in branch_configs.iter().enumerate() {
        if branch_results[b].is_none() {
            let mut result = trunk_result.clone();
            result.defense = config.defense.to_string();
            result.t_rh = config.t_rh;
            branch_results[b] = Some(result);
        }
    }

    cells
        .iter()
        .enumerate()
        .map(|(c, cell)| {
            // Invariant: the loop above fills every never-diverged slot, so
            // by here each branch index resolved to a result.
            #[allow(clippy::expect_used)]
            let mut defended =
                branch_results[cell_branch[c]].clone().expect("every branch has a result");
            // A branch may serve cells of several same-trace workloads.
            defended.workload = cell.scenario.workload.name.to_string();
            #[allow(clippy::expect_used)]
            let baseline_ipc = branch_results[cell_baseline[c]]
                .as_ref()
                .expect("every baseline branch has a result")
                .total_ipc();
            let result = normalize_against(defended, baseline_ipc, cell.config.t_rh);
            (cell.index, ScenarioResult { scenario: cell.scenario.clone(), result })
        })
        .collect()
}
