//! The full-system simulator: cores, tracker, defense and DRAM wired
//! together (the USIMM-equivalent harness).
//!
//! The simulated traces are memory-side traces (already filtered through the
//! L1/L2 hierarchy, as in the paper's artifact), so demand records go
//! straight to the memory controller. The shared LLC appears in the model
//! only where the defenses need it: rows pinned by Scale-SRS are served at
//! LLC latency and stop producing DRAM activations.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fxhash::{FxHashMap, FxHashSet};
use srs_attack::engine::{AttackSpec, AttackerCore, AttackerStats};
use srs_core::{build_defense, DefenseKind, MitigationAction, RowOpKind, RowSwapDefense};
use srs_cpu::{AccessToken, CoreStatus, TraceCore};
use srs_dram::{
    AccessKind, AccessSink, ActivationEvent, ActivationSink, BankId, CompletedAccess, DramAddress,
    DramTiming, MaintenanceKind, MaintenanceOp, MemRequest, MemoryController, PhysAddr,
};
use srs_trackers::{
    AggressorTracker, HydraConfig, HydraTracker, MisraGriesConfig, MisraGriesTracker,
    TrackerDecision, TrackerKind,
};
use srs_workloads::{Trace, TraceRecord};

use crate::attribution::{AttributionReport, SubsystemTimers};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::faults::FaultInjector;
use crate::metrics::SimResult;
use crate::security::{ReportContext, SecurityTracker};
use crate::telemetry::{EventKind, Telemetry};

/// A memory operation waiting for queue space in the controller.
#[derive(Debug, Clone, Copy)]
struct DeferredAccess {
    addr: PhysAddr,
    /// Destination bank (decoded once at defer time; retries only need the
    /// bank to test for queue space).
    bank: BankId,
    is_write: bool,
    origin: Option<(usize, AccessToken)>,
}

/// The largest per-row count of one bank's window shard (0 when empty).
fn window_max(shard: &FxHashMap<u32, u32>) -> u64 {
    shard.values().max().map_or(0, |&count| u64::from(count))
}

/// The feedback a tick's demand activations queue for after the controller
/// drain: Hydra's counter-table traffic and the defense's trigger actions.
#[derive(Debug, Default)]
struct TickWork {
    counter_ops: Vec<MaintenanceOp>,
    actions: Vec<MitigationAction>,
}

/// The branch cells of a shared trunk that build identical trackers,
/// riding along the trunk simulation on one tracker between them.
///
/// The sharing-aware grid executor runs the common prefix of several grid
/// cells once, on a trunk system whose own mitigation is inert; each
/// branch cell's tracker and defense are attached as a probe that is fed
/// the very same demand activations, window rollovers and tick times the
/// cell's from-scratch run would feed them. Branches whose configurations
/// agree on everything [`build_tracker`] reads ([`TrackerKey`]) see the
/// same activation stream through the same tracker, so they share it: the
/// probe feeds each demand activation to its tracker once, and every
/// member acts on the decision with its own defense, exactly as its cell
/// would. A member *fires* in the first tick where one of its decisions
/// feeds back into the simulation — a mitigation trigger of an acting
/// defense, or tracker-generated DRAM traffic (Hydra's counter-table
/// fills). Up to that decision the trunk's trajectory and the cell's are
/// bit-identical and the member queues nothing; from it to the end of the
/// tick the member queues its branch's feedback, and at the end of the tick
/// it leaves the trunk as a fork with a copy of the probe's tracker, which
/// applies that feedback itself (see [`System::engine_step`]).
pub(crate) struct MitigationProbe {
    key: TrackerKey,
    tracker: Box<dyn AggressorTracker + Send>,
    members: Vec<ProbeMember>,
}

/// One branch of a [`MitigationProbe`].
struct ProbeMember {
    /// The branch's index in the executor's branch set, handed back with
    /// its fork.
    branch: usize,
    /// The branch cell's configuration, installed on its fork.
    config: SystemConfig,
    defense: Box<dyn RowSwapDefense + Send>,
    /// Whether a decision of the current tick fed back.
    fired: bool,
    /// The feedback the branch's decisions queued in the current tick
    /// (empty until the member fires).
    work: TickWork,
}

impl MitigationProbe {
    /// A probe holding branch `branch` under `config`, or `None` when the
    /// branch has no feedback channel at all: a baseline cell with an
    /// SRAM-only tracker equals the trunk for the whole run, so it needs
    /// no probe (and no fork).
    pub(crate) fn new(branch: usize, config: &SystemConfig) -> Option<Self> {
        let key = TrackerKey::of(config);
        let tracker = build_tracker(key);
        if config.defense == DefenseKind::Baseline && !tracker.may_emit_memory_traffic() {
            return None;
        }
        let member = ProbeMember {
            branch,
            config: config.clone(),
            defense: build_defense(config.defense, config.mitigation_config()),
            fired: false,
            work: TickWork::default(),
        };
        Some(Self { key, tracker, members: vec![member] })
    }

    /// Add this probe's members to the probe of `probes` with the same
    /// tracker configuration, or append it as a probe of its own.
    pub(crate) fn merge_into(self, probes: &mut Vec<MitigationProbe>) {
        match probes.iter_mut().find(|probe| probe.key == self.key) {
            Some(probe) => probe.members.extend(self.members),
            None => probes.push(self),
        }
    }

    /// Feed one demand activation to the shared tracker, and let every
    /// member act on the decision with its own defense: queue the
    /// counter-table traffic and the defense's trigger actions, as
    /// [`TickObserver::decide`] does for the system's own tracker. A shared
    /// trunk arms neither telemetry nor the timers, so nothing is recorded
    /// there.
    fn record_activation(&mut self, event: &ActivationEvent, timing: DramTiming, now: u64) {
        let bank = event.bank.index();
        let decision = self.tracker.record_activation(bank, event.logical_row);
        if decision.extra_memory_accesses == 0 && !decision.mitigate {
            return;
        }
        for member in &mut self.members {
            if decision.extra_memory_accesses > 0 {
                member.work.counter_ops.push(counter_op(event.bank, decision, timing));
            }
            if decision.mitigate {
                let actions = member.defense.on_mitigation_trigger(bank, event.logical_row, now);
                member.work.actions.extend(actions);
            }
            member.fired |= decision.extra_memory_accesses > 0
                || (decision.mitigate && member.config.defense != DefenseKind::Baseline);
        }
    }
}

/// Hydra's memory-resident counter-table traffic for one decision.
fn counter_op(bank: BankId, decision: TrackerDecision, timing: DramTiming) -> MaintenanceOp {
    let duration_ns = decision.extra_memory_accesses * (timing.t_rc + timing.t_cas);
    MaintenanceOp::new(bank, duration_ns, Vec::new(), MaintenanceKind::CounterAccess)
}

/// The full-system simulator for one workload under one configuration.
///
/// The core set is heterogeneous: trace-replaying victim cores plus the
/// closed-loop attacker cores added by [`SystemConfig::attack`]. Both
/// speak the same issue protocol (`try_issue`, `complete_read` and the
/// event-driven engine's `next_ready_ns` contract) through inherent
/// methods, so the per-tick engine loops keep static (inlinable) dispatch;
/// a request's global core index is its position in victims-then-attackers
/// order.
///
/// A `System` is an explicit state machine over simulated time: the engine
/// clock lives in the struct, so a run can be advanced partway
/// ([`System::run_until_ns`]), snapshotted ([`System::fork`] — a deep copy
/// down to RNG and queue state), and resumed on either copy with results
/// bit-identical to an uninterrupted run.
pub struct System {
    config: SystemConfig,
    workload: String,
    cores: Vec<TraceCore>,
    /// Closed-loop attacker cores (empty for benign runs, which then skip
    /// the activation-feedback fan-out entirely).
    attackers: Vec<AttackerCore>,
    security: Option<SecurityTracker>,
    core_finish_ns: Vec<Option<u64>>,
    controller: MemoryController,
    tracker: Box<dyn AggressorTracker + Send>,
    defense: Box<dyn RowSwapDefense + Send>,
    pinned_rows: FxHashSet<(usize, u64)>,
    /// Reads enqueued in the controller whose completion a core still waits
    /// on. The waiter's identity rides inside the request itself
    /// ([`MemRequest::wait_token`]), so this is just the count — the
    /// completeness checks need nothing more.
    pending_reads: usize,
    deferred: VecDeque<DeferredAccess>,
    next_window_ns: u64,
    /// Per-bank shards of per-logical-row activation counts for the current
    /// refresh window, keyed by 32-bit row address. Sharding by bank keeps
    /// each map small and lets the window rollover reset state bank by bank
    /// without a global rebuild.
    bank_activations: Vec<FxHashMap<u32, u32>>,
    /// Maximum per-row activation count observed in any completed stretch of
    /// a refresh window, folded from the shards at each rollover and once
    /// more when the run ends — the per-activation path only increments.
    max_row_activations: u64,
    rows_pinned: u64,
    pinned_hits: u64,
    /// The engine clock: the next tick [`System::engine_step`] will execute.
    now: u64,
    /// Whether the previous tick scheduled a demand request (the only way
    /// controller queue space appears); gates the deferred-retry pass.
    freed_queue_slot: bool,
    /// Branch probes of the sharing-aware executor, one per distinct
    /// tracker configuration; each member stays until the end of the tick
    /// it fires in. Empty on every normally-constructed system.
    probes: Vec<MitigationProbe>,
    /// Per-subsystem wall-time ledger; disarmed (and therefore never
    /// reading the clock) except under [`System::run_attributed`].
    timers: SubsystemTimers,
    /// Simulated-time telemetry recorder; disarmed (one branch per hook)
    /// unless the configuration arms it. Recording never mutates
    /// simulation state, so armed results are bit-identical to disarmed
    /// ones.
    telemetry: Telemetry,
    /// End-to-end fault model (bit flips + ECC), present only when the
    /// configuration carries an attack scenario with
    /// [`crate::faults::FaultsConfig::enabled`] set. Purely observational:
    /// it never feeds back into timing, queues or mitigation decisions, so
    /// enabling it cannot perturb any other result field.
    faults: Option<FaultInjector>,
    /// Structured errors recorded instead of panicking (capped retention;
    /// see [`System::sim_errors`]). Well-formed workloads never produce
    /// any — every entry is a malformed input the engine survived.
    sim_errors: Vec<SimError>,
}

impl Clone for System {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            workload: self.workload.clone(),
            cores: self.cores.clone(),
            attackers: self.attackers.clone(),
            security: self.security.clone(),
            core_finish_ns: self.core_finish_ns.clone(),
            controller: self.controller.clone(),
            tracker: self.tracker.clone_box(),
            defense: self.defense.clone_box(),
            pinned_rows: self.pinned_rows.clone(),
            pending_reads: self.pending_reads,
            deferred: self.deferred.clone(),
            next_window_ns: self.next_window_ns,
            bank_activations: self.bank_activations.clone(),
            max_row_activations: self.max_row_activations,
            rows_pinned: self.rows_pinned,
            pinned_hits: self.pinned_hits,
            now: self.now,
            freed_queue_slot: self.freed_queue_slot,
            // Branch probes stay with the trunk: a copy is a branch.
            probes: Vec::new(),
            timers: self.timers.clone(),
            telemetry: self.telemetry.clone(),
            faults: self.faults.clone(),
            sim_errors: self.sim_errors.clone(),
        }
    }
}

/// The streaming observer wired into the controller for one tick: it feeds
/// the aggressor tracker from the activation stream, completes core reads
/// from the completion stream, and queues the mitigation work the tick
/// produced (applied by the caller once the controller borrow ends).
struct TickObserver<'a> {
    tracker: &'a mut Box<dyn AggressorTracker + Send>,
    defense: &'a mut Box<dyn RowSwapDefense + Send>,
    cores: &'a mut [TraceCore],
    /// The reactive attacker cores the feedback fan-out targets; request
    /// origins index victims first, then attackers.
    attackers: &'a mut [AttackerCore],
    security: Option<&'a mut SecurityTracker>,
    pending_reads: &'a mut usize,
    bank_activations: &'a mut [FxHashMap<u32, u32>],
    /// Branch probes of the sharing-aware executor (empty outside shared
    /// trunk runs).
    probes: &'a mut [MitigationProbe],
    timing: DramTiming,
    now: u64,
    /// The feedback the system's own tracker and defense queued.
    work: TickWork,
    /// Wall-time ledger (disarmed outside attribution runs); the batch path
    /// laps its two phases into the security and tracker buckets.
    timers: &'a mut SubsystemTimers,
    /// Simulated-time telemetry recorder (disarmed unless configured).
    telemetry: &'a mut Telemetry,
    /// End-to-end fault model (absent unless the run enables it). The
    /// observer only *stages* flips — disturbance crossings push pending
    /// flips here, and `System::step_at` commits them against the defense's
    /// occupant map once the controller borrow ends, so both drain modes
    /// (batched and per-event) resolve occupants at the identical point.
    faults: Option<&'a mut FaultInjector>,
}

impl TickObserver<'_> {
    /// Closed-loop feedback and security accounting for one activation.
    ///
    /// Reactive sources (attacker cores) see every activation, including
    /// the defense's own maintenance activations — exactly the signal
    /// Juggernaut adapts to. Counter-table traffic is withheld: its
    /// sub-microsecond bank occupancy is below what an attacker can
    /// distinguish from demand interference, unlike a multi-microsecond row
    /// swap. Callers skip this entirely when `attackers` is empty.
    fn feed_attack_loop(&mut self, event: &ActivationEvent) {
        let counter_access = event.maintenance_kind == Some(MaintenanceKind::CounterAccess);
        let bank = event.bank.index();
        if !counter_access {
            for attacker in self.attackers.iter_mut() {
                attacker.observe_activation(
                    bank,
                    event.row,
                    event.logical_row,
                    event.maintenance,
                    self.now,
                );
            }
        }
        if let Some(security) = self.security.as_deref_mut() {
            security.on_activation(event, self.faults.as_deref_mut());
        }
    }

    /// Aggressor accounting for one demand activation: the per-row window
    /// count, then the decisions of the branch probes and of the system's
    /// own tracker. Callers filter out maintenance activations first —
    /// mitigation-issued activations are charged by the attack models and
    /// statistics, not by the aggressor tracker (matching the hardware,
    /// where the mitigation's own row movements do not feed back into its
    /// tracker).
    fn track_demand(&mut self, event: &ActivationEvent) {
        // Decoded rows lie below `rows_per_bank`, which
        // `DramConfig::validate` bounds by `u32::MAX`.
        let row = u32::try_from(event.logical_row).unwrap_or(u32::MAX);
        let count = self.bank_activations[event.bank.index()].entry(row).or_insert(0);
        *count = count.saturating_add(1);
        // Branch probes see the identical demand-activation stream a
        // from-scratch run of their cells would feed their trackers. A
        // member's first decision that feeds back marks its divergence
        // tick; it keeps deciding to the end of that tick, as its cell
        // would.
        for probe in self.probes.iter_mut() {
            probe.record_activation(event, self.timing, self.now);
        }
        self.decide(event);
    }

    /// Feed one demand activation to the system's own tracker and queue
    /// the feedback its decision produces for after the drain: Hydra's
    /// counter-table traffic and the defense's trigger actions.
    fn decide(&mut self, event: &ActivationEvent) {
        let bank = event.bank.index();
        let logical_row = event.logical_row;

        // Saturation accounting brackets the two points that can saturate —
        // the tracker update and the defense's mitigation handler. Armed
        // telemetry gets an event at the point of increment; the report
        // totals are read once at the end of the run regardless, so a
        // disarmed recorder skips the counter reads entirely (and the event
        // stream stays bit-identical between engines, which visit the same
        // activation at the same tick).
        let saturation_before = if self.telemetry.armed() {
            self.tracker.saturation_events() + self.defense.saturation_events()
        } else {
            0
        };

        let decision = self.tracker.record_activation(bank, logical_row);
        if decision.extra_memory_accesses > 0 {
            let op = counter_op(event.bank, decision, self.timing);
            self.telemetry.record_op(
                self.now,
                EventKind::CounterAccess,
                u32::try_from(bank).unwrap_or(u32::MAX),
                op.duration_ns,
            );
            self.work.counter_ops.push(op);
        }
        if decision.mitigate {
            self.telemetry.record_mitigation(
                self.now,
                u32::try_from(bank).unwrap_or(u32::MAX),
                logical_row,
            );
            let stamp = self.timers.stamp();
            let actions = self.defense.on_mitigation_trigger(bank, logical_row, self.now);
            self.work.actions.extend(actions);
            SubsystemTimers::lap(stamp, &mut self.timers.defense_trigger_ns);
        }
        if self.telemetry.armed() {
            let saturation_after =
                self.tracker.saturation_events() + self.defense.saturation_events();
            if saturation_after > saturation_before {
                self.telemetry.record_saturation(
                    self.now,
                    u32::try_from(bank).unwrap_or(u32::MAX),
                    saturation_after - saturation_before,
                );
            }
        }
    }
}

impl ActivationSink for TickObserver<'_> {
    fn on_activation(&mut self, event: &ActivationEvent) {
        if !self.attackers.is_empty() {
            self.feed_attack_loop(event);
        }
        if event.maintenance {
            return;
        }
        self.track_demand(event);
    }

    /// The batched drain path: one virtual call per bank visit instead of
    /// one per activation.
    ///
    /// The batch is processed in two phases — attack-loop fan-out for every
    /// event first, then aggressor accounting for the demand events. The
    /// phases touch disjoint state (attackers and the security tracker
    /// versus window counts, probes, the tracker and the defense), and the
    /// events within a batch all carry the same controller visit, so the
    /// phase split is observationally identical to the per-event
    /// interleaving: every subsystem still sees the activations of one bank
    /// visit in issue order, before any event of the next visit.
    fn on_activation_batch(&mut self, events: &[ActivationEvent]) {
        if !self.attackers.is_empty() {
            let stamp = self.timers.stamp();
            for event in events {
                self.feed_attack_loop(event);
            }
            SubsystemTimers::lap(stamp, &mut self.timers.security_ns);
        }
        let stamp = self.timers.stamp();
        for event in events {
            if !event.maintenance {
                self.track_demand(event);
            }
        }
        SubsystemTimers::lap(stamp, &mut self.timers.tracker_raw_ns);
    }
}

impl AccessSink for TickObserver<'_> {
    fn on_access(&mut self, done: &CompletedAccess) {
        // The fault model observes every completed demand access — reads
        // classify damaged lines under the ECC, writes overwrite (heal)
        // them. This must run before the wait-token gate: writes carry no
        // token but still heal.
        if let Some(faults) = self.faults.as_deref_mut() {
            if let Some((bank, outcome)) = faults.on_access(&done.request, self.now) {
                if outcome == srs_dram::EccOutcome::Silent {
                    self.telemetry
                        .record_corrupted_read(self.now, u32::try_from(bank).unwrap_or(u32::MAX));
                }
            }
        }
        if let Some(token) = done.request.wait_token {
            *self.pending_reads -= 1;
            self.telemetry.record_read_latency(done.latency_ns());
            complete_source_read(
                self.cores,
                self.attackers,
                done.request.core,
                AccessToken(token),
                done.finish_ns.max(self.now),
            );
        }
    }
}

/// Deliver a read completion to the source identified by a global core
/// index, which counts victims first and attackers after them — the one
/// place that indexing convention is interpreted.
fn complete_source_read(
    cores: &mut [TraceCore],
    attackers: &mut [AttackerCore],
    core: usize,
    token: AccessToken,
    finish_ns: u64,
) {
    if let Some(victim) = cores.get_mut(core) {
        victim.complete_read(token, finish_ns);
    } else {
        attackers[core - cores.len()].complete_read(token, finish_ns);
    }
}

/// The inert tracker installed on a shared trunk: the trunk's own
/// mitigation must never observe, fire, or generate traffic — every branch
/// cell's real tracker rides along as a [`MitigationProbe`] instead.
#[derive(Debug, Clone)]
struct NullTracker;

impl AggressorTracker for NullTracker {
    fn record_activation(&mut self, _bank: usize, _row: u64) -> srs_trackers::TrackerDecision {
        srs_trackers::TrackerDecision::none()
    }

    fn estimated_count(&self, _bank: usize, _row: u64) -> u64 {
        0
    }

    fn reset_epoch(&mut self) {}

    fn swap_threshold(&self) -> u64 {
        u64::MAX
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn clone_box(&self) -> Box<dyn AggressorTracker + Send> {
        Box::new(NullTracker)
    }

    fn may_emit_memory_traffic(&self) -> bool {
        false
    }
}

/// Everything [`build_tracker`] reads from a configuration: configurations
/// with equal keys build identical trackers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TrackerKey {
    kind: TrackerKind,
    /// `TS = TRH / swap rate`.
    swap_threshold: u64,
    act_max_per_window: u64,
    banks: usize,
    rows_per_bank: u64,
}

impl TrackerKey {
    fn of(config: &SystemConfig) -> Self {
        let mitigation = config.mitigation_config();
        Self {
            kind: config.tracker,
            swap_threshold: mitigation.swap_threshold(),
            act_max_per_window: mitigation.act_max_per_window,
            banks: mitigation.banks,
            rows_per_bank: mitigation.rows_per_bank,
        }
    }
}

fn build_tracker(key: TrackerKey) -> Box<dyn AggressorTracker + Send> {
    let ts = key.swap_threshold;
    match key.kind {
        TrackerKind::MisraGries => Box::new(MisraGriesTracker::new(
            MisraGriesConfig::for_threshold(ts, key.act_max_per_window, key.banks),
        )),
        TrackerKind::Hydra => Box::new(HydraTracker::new(HydraConfig::for_threshold(
            ts,
            key.banks,
            key.rows_per_bank,
        ))),
    }
}

fn maintenance_kind(kind: RowOpKind) -> MaintenanceKind {
    match kind {
        RowOpKind::Swap => MaintenanceKind::Swap,
        RowOpKind::UnswapSwap => MaintenanceKind::UnswapSwap,
        RowOpKind::PlaceBack | RowOpKind::BulkUnswap => MaintenanceKind::PlaceBack,
        RowOpKind::CounterAccess => MaintenanceKind::CounterAccess,
    }
}

/// The telemetry event kind a defense row operation traces as (bulk
/// unswaps share the place-back track — they are place-backs in bulk).
fn telemetry_kind(kind: RowOpKind) -> EventKind {
    match kind {
        RowOpKind::Swap => EventKind::Swap,
        RowOpKind::UnswapSwap => EventKind::UnswapSwap,
        RowOpKind::PlaceBack | RowOpKind::BulkUnswap => EventKind::PlaceBack,
        RowOpKind::CounterAccess => EventKind::CounterAccess,
    }
}

/// The fixed-step engine's tick, and the time grid both engines quantize
/// state changes to (see `System::next_event_time`).
const STEP_NS: u64 = 25;

impl System {
    /// Build a system that runs `trace` on every core (rate mode, as in the
    /// paper's methodology).
    #[must_use]
    pub fn new(config: SystemConfig, trace: Trace) -> Self {
        let controller = MemoryController::new(config.dram.clone());
        let tracker = build_tracker(TrackerKey::of(&config));
        let defense = build_defense(config.defense, config.mitigation_config());
        // All cores execute one immutable copy of the records; each core's
        // private address-space copy (so rate mode does not trivially share
        // every row) is an offset applied at issue time, not a per-core
        // rewritten clone of the whole trace.
        let records: Arc<[TraceRecord]> = Arc::from(trace.records.as_slice());
        let cores: Vec<TraceCore> = (0..config.cores)
            .map(|i| TraceCore::shared(config.core, records.clone(), (i as u64) << 33))
            .collect();
        let mut attackers = Vec::new();
        let mut security = None;
        if let Some(attack) = &config.attack {
            // The attacker knows the defense's swap threshold (the paper's
            // standard Kerckhoffs assumption); against the undefended
            // baseline the mitigation config degenerates to TRH itself.
            let t_s = config.mitigation_config().swap_threshold();
            for stream in 0..attack.attacker_cores.max(1) {
                attackers.push(AttackerCore::new(attack, &config.dram, t_s, stream as u64));
            }
            security = Some(SecurityTracker::new(
                config.t_rh,
                config.dram.rows_per_bank,
                config.dram.total_banks(),
            ));
        }
        let window = config.dram.refresh_window_ns;
        let total_banks = config.dram.total_banks();
        // The fault model only exists when a run can actually disturb rows
        // (an attack scenario) and explicitly opts in; benign runs carry no
        // injector, so their results and prefix sharing are untouched.
        let faults = (config.attack.is_some() && config.faults.enabled)
            .then(|| FaultInjector::new(&config.faults, &config.dram, config.t_rh, config.seed));
        Self {
            workload: trace.name.clone(),
            core_finish_ns: vec![None; cores.len()],
            attackers,
            security,
            cores,
            controller,
            tracker,
            defense,
            pinned_rows: FxHashSet::default(),
            pending_reads: 0,
            deferred: VecDeque::new(),
            next_window_ns: window,
            bank_activations: vec![FxHashMap::default(); total_banks],
            max_row_activations: 0,
            rows_pinned: 0,
            pinned_hits: 0,
            now: 0,
            freed_queue_slot: false,
            probes: Vec::new(),
            timers: SubsystemTimers::default(),
            telemetry: Telemetry::new(&config.telemetry),
            faults,
            sim_errors: Vec::new(),
            config,
        }
    }

    /// A shared trunk over `trace`: `config`'s system with its own
    /// mitigation inert — the baseline defense and a [`NullTracker`] — and
    /// every branch riding along as one of `probes`.
    pub(crate) fn trunk(
        mut config: SystemConfig,
        trace: Trace,
        probes: Vec<MitigationProbe>,
    ) -> Self {
        config.defense = DefenseKind::Baseline;
        let mut trunk = Self::new(config, trace);
        trunk.tracker = Box::new(NullTracker);
        trunk.probes = probes;
        trunk
    }

    /// The configuration of this system.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    fn decode(&self, addr: PhysAddr) -> (BankId, DramAddress) {
        let d = self.controller.mapper().decode(addr);
        (d.bank_id(&self.config.dram), d)
    }

    /// The DRAM location a logical address currently maps to under the
    /// defense's row indirection: the physical address plus the physical
    /// row, ready for [`MemoryController::enqueue_at`].
    fn remapped_address(
        &self,
        addr: PhysAddr,
        decoded: &DramAddress,
        bank: BankId,
    ) -> (PhysAddr, u64) {
        let physical_row = self.defense.translate(bank.index(), decoded.row);
        if physical_row == decoded.row {
            // Common case: the defense has not displaced this row, so the
            // original address is already the right one — skip the
            // encode round-trip entirely.
            return (addr, decoded.row);
        }
        let remapped =
            DramAddress { row: physical_row % self.config.dram.rows_per_bank, ..*decoded };
        match self.controller.mapper().encode(&remapped) {
            Ok(target) => (target, remapped.row),
            // Unreachable for a decoded coordinate (the row is reduced into
            // range above), but fall back to the untranslated address
            // rather than panicking inside the hot path.
            Err(_) => (addr, decoded.row),
        }
    }

    fn apply_actions(&mut self, actions: Vec<MitigationAction>) {
        for action in actions {
            match action {
                MitigationAction::RowOperation { bank, kind, duration_ns, activations } => {
                    self.telemetry.record_op(
                        self.now,
                        telemetry_kind(kind),
                        u32::try_from(bank).unwrap_or(u32::MAX),
                        duration_ns,
                    );
                    let op = MaintenanceOp::new(
                        BankId::new(bank),
                        duration_ns,
                        activations,
                        maintenance_kind(kind),
                    );
                    let _ = self.controller.enqueue_maintenance(op);
                }
                MitigationAction::PinRow { bank, row } => {
                    self.telemetry.record_row_pin(
                        self.now,
                        u32::try_from(bank).unwrap_or(u32::MAX),
                        row,
                    );
                    if self.pinned_rows.insert((bank, row)) {
                        self.rows_pinned += 1;
                    }
                }
            }
        }
    }

    fn submit(
        &mut self,
        addr: PhysAddr,
        is_write: bool,
        origin: Option<(usize, AccessToken)>,
        now: u64,
    ) {
        let (bank, decoded) = self.decode(addr);
        let logical_row = decoded.row;

        // The emptiness guard keeps the hash off the per-access path for
        // every defense except an actively pinning Scale-SRS.
        if !self.pinned_rows.is_empty() && self.pinned_rows.contains(&(bank.index(), logical_row)) {
            // The row lives in the LLC for the rest of the window.
            self.pinned_hits += 1;
            if let Some((core, token)) = origin {
                // Attacker reads land here too, absorbed by a Scale-SRS
                // pinned row: LLC latency, no DRAM activation.
                complete_source_read(
                    &mut self.cores,
                    &mut self.attackers,
                    core,
                    token,
                    now + self.config.llc_hit_latency_ns,
                );
            }
            return;
        }

        // Row Hammer accounting happens in-stream when the controller issues
        // the ACT (see `TickObserver::on_activation`); the request only
        // carries the logical row so the activation event can report it.
        // The remap never changes the bank, so the decode work above is
        // shared with the controller via `enqueue_at`.
        let rit_stamp = self.timers.stamp();
        let (target, physical_row) = self.remapped_address(addr, &decoded, bank);
        SubsystemTimers::lap(rit_stamp, &mut self.timers.rit_ns);
        let kind = if is_write { AccessKind::Write } else { AccessKind::Read };
        let core_id = origin.map_or(0, |(core, _)| core);
        let mut request = MemRequest::new(target, kind, core_id, now).with_logical_row(logical_row);
        if let Some((_, token)) = origin {
            request = request.with_wait_token(token.0);
        }
        match self.controller.enqueue_at(bank, physical_row, request) {
            Ok(_) => {
                if origin.is_some() {
                    self.pending_reads += 1;
                }
            }
            Err(srs_dram::DramError::QueueFull { .. }) => {
                // Transient backpressure: park the access and retry once a
                // slot frees up. Only queue pressure is retryable — any
                // other rejection would re-fail forever.
                self.deferred.push_back(DeferredAccess { addr, bank, is_write, origin });
                self.telemetry.record_queue_stall(
                    now,
                    u32::try_from(bank.index()).unwrap_or(u32::MAX),
                    self.deferred.len() as u64,
                );
            }
            Err(error) => {
                // A structurally unroutable access (malformed input): drop
                // it, complete the issuer so it cannot hang, and record the
                // structured error instead of panicking. Retention is
                // capped — the count is what matters past the first few.
                if self.sim_errors.len() < 64 {
                    self.sim_errors.push(SimError::UnroutableAccess { addr: addr.value(), error });
                }
                if let Some((core, token)) = origin {
                    complete_source_read(
                        &mut self.cores,
                        &mut self.attackers,
                        core,
                        token,
                        now + self.config.llc_hit_latency_ns,
                    );
                }
            }
        }
    }

    fn retry_deferred(&mut self, now: u64) {
        for _ in 0..self.deferred.len() {
            let Some(item) = self.deferred.pop_front() else { break };
            if self.controller.can_accept_bank(item.bank) {
                self.submit(item.addr, item.is_write, item.origin, now);
            } else {
                self.deferred.push_back(item);
            }
        }
    }

    fn handle_window_rollover(&mut self, now: u64) {
        while now >= self.next_window_ns {
            let boundary = self.next_window_ns;
            self.tracker.reset_epoch();
            let actions = self.defense.on_new_window(boundary);
            self.apply_actions(actions);
            // Branch probes see the same epoch boundaries their cells'
            // from-scratch runs would. A pre-divergence defense has nothing
            // swapped, so its window work produces no actions — were it to
            // produce any, the trunk and the cell would already have
            // diverged, which the probe protocol rules out.
            for probe in &mut self.probes {
                probe.tracker.reset_epoch();
                for member in &mut probe.members {
                    let actions = member.defense.on_new_window(boundary);
                    debug_assert!(actions.is_empty(), "pre-divergence window work acted");
                }
            }
            self.pinned_rows.clear();
            for shard in &mut self.bank_activations {
                self.max_row_activations = self.max_row_activations.max(window_max(shard));
                shard.clear();
            }
            if let Some(security) = self.security.as_mut() {
                security.on_window_rollover();
            }
            self.next_window_ns += self.config.dram.refresh_window_ns;
        }
    }

    fn all_cores_finished(&self) -> bool {
        // Attacker cores never finish, so an attacked run terminates at
        // the simulated-time cap or at the first TRH crossing instead.
        self.attackers.is_empty() && self.cores.iter().all(TraceCore::is_finished)
    }

    /// Whether the attack scenario asked the run to stop at the first TRH
    /// crossing and one has been observed.
    fn stop_requested(&self) -> bool {
        self.config.attack.as_ref().is_some_and(|attack| attack.stop_at_first_crossing)
            && self.security.as_ref().is_some_and(SecurityTracker::crossed)
    }

    /// Whether nothing remains to simulate: every core reached its target
    /// and the memory system holds no outstanding work.
    fn is_complete(&self) -> bool {
        self.all_cores_finished()
            && self.pending_reads == 0
            && self.deferred.is_empty()
            && self.controller.is_idle()
    }

    /// A simulation tick at time `now` up to the end of the controller
    /// drain: window rollover, deferred retries, core issue and controller
    /// advancement (activations streaming into the tracker/defense,
    /// completions into the cores). Returns the feedback the drain's
    /// demand activations queued, which [`System::finish_tick`] applies.
    /// Identical under both engines — they differ only in which times they
    /// visit.
    ///
    /// `retry_deferred` runs only when the previous tick scheduled a demand
    /// request: queue space appears no other way, so without one the retry
    /// pass would be a full pop/push rotation that provably leaves the
    /// deferred queue bit-identical — skipping it changes nothing but the
    /// wall clock (congested runs carry hundreds of deferred accesses).
    fn step_at(&mut self, now: u64, retry_deferred: bool) -> TickWork {
        self.handle_window_rollover(now);
        // Scrub deadlines elapse before any of this tick's accesses
        // complete, in both engines (the event engine visits every scrub
        // deadline via `next_event_time`).
        if let Some(faults) = self.faults.as_mut() {
            faults.maybe_scrub(now);
        }
        if retry_deferred {
            self.retry_deferred(now);
        }

        // Let every core issue work available at this time. `try_issue`
        // re-evaluates the core's status itself, so the loop only consults
        // `status` on the not-issuable path to stamp finish times. A core
        // whose finish time is already stamped is done for good (retired
        // work only grows), so the loop skips it outright — on mixed-speed
        // runs the tail of the simulation stops paying per-tick issue
        // probes for every long-finished core.
        for core_idx in 0..self.cores.len() {
            if self.core_finish_ns[core_idx].is_some() {
                continue;
            }
            // A core whose cached wake hint lies in the future cannot issue
            // at this tick (the hint is conservative, and completions clear
            // it) — skip the whole status walk. On memory-saturated runs
            // most cores are blocked on most ticks, so this comparison is
            // the common case.
            if self.cores[core_idx].wake_hint_ns() > now {
                continue;
            }
            if self.deferred.len() > 512 {
                break;
            }
            for _ in 0..8 {
                if let Some(issue) = self.cores[core_idx].try_issue(now) {
                    let origin = if issue.is_write { None } else { Some((core_idx, issue.token)) };
                    self.submit(PhysAddr::new(issue.addr), issue.is_write, origin, now);
                } else {
                    if self.core_finish_ns[core_idx].is_none()
                        && self.cores[core_idx].status(now) == CoreStatus::Finished
                    {
                        self.core_finish_ns[core_idx] = Some(now);
                    }
                    break;
                }
            }
        }
        // Attacker cores issue after the victims (their origin indices
        // follow the victims'); they never finish, so no stamping here.
        let victims = self.cores.len();
        for idx in 0..self.attackers.len() {
            if self.deferred.len() > 512 {
                break;
            }
            for _ in 0..8 {
                let Some(issue) = self.attackers[idx].try_issue(now) else { break };
                let origin = if issue.is_write { None } else { Some((victims + idx, issue.token)) };
                self.submit(PhysAddr::new(issue.addr), issue.is_write, origin, now);
            }
        }

        // Advance the memory controller; activations stream into the
        // tracker/defense and completions into the cores as they happen.
        // The stamp is taken before the observer borrows the ledger (it is
        // a plain `Option<Instant>`, so it survives the borrow).
        let controller_stamp = self.timers.stamp();
        let mut observer = TickObserver {
            tracker: &mut self.tracker,
            defense: &mut self.defense,
            cores: &mut self.cores,
            attackers: &mut self.attackers,
            security: self.security.as_mut(),
            pending_reads: &mut self.pending_reads,
            bank_activations: &mut self.bank_activations,
            probes: &mut self.probes,
            timing: self.config.dram.timing,
            now,
            work: TickWork::default(),
            timers: &mut self.timers,
            telemetry: &mut self.telemetry,
            faults: self.faults.as_mut(),
        };
        self.controller.tick_into(now, &mut observer);
        let work = observer.work;
        SubsystemTimers::lap(controller_stamp, &mut self.timers.controller_raw_ns);
        work
    }

    /// The rest of the tick at `now` after the controller drain, in order:
    /// commit staged bit flips, apply the drain's queued feedback `work`,
    /// run lazy defense work, record telemetry, and advance the clock — to
    /// the next grid-aligned event under the event-driven engine, or by one
    /// step under the fixed-step oracle. `demand_before` is the demand
    /// count scheduled before the tick.
    fn finish_tick(&mut self, now: u64, work: TickWork, demand_before: u64, event_driven: bool) {
        // Commit the flips this tick's disturbances staged, resolving each
        // victim's *current occupant* through the defense — a swapped-in row
        // carries the damage with it. This runs after the whole controller
        // drain so batched and per-event drains (whose phase split reorders
        // activation handling relative to mitigation triggers) resolve
        // occupants against the identical post-tick defense state.
        if self.faults.as_ref().is_some_and(FaultInjector::has_pending) {
            let defense = &*self.defense;
            if let Some(faults) = self.faults.as_mut() {
                for (bank, row) in faults.commit_pending(|b, r| defense.occupant(b, r)) {
                    self.telemetry.record_bit_flip(
                        now,
                        u32::try_from(bank).unwrap_or(u32::MAX),
                        row,
                    );
                }
            }
        }
        for op in work.counter_ops {
            let _ = self.controller.enqueue_maintenance(op);
        }
        if !work.actions.is_empty() {
            self.apply_actions(work.actions);
        }

        // Lazy defense work (SRS place-back).
        let lazy_stamp = self.timers.stamp();
        let actions = self.defense.on_tick(now);
        SubsystemTimers::lap(lazy_stamp, &mut self.timers.defense_lazy_ns);
        if !actions.is_empty() {
            self.apply_actions(actions);
        }
        // Probe defenses receive the identical tick cadence (SRS reschedules
        // its place-back deadline relative to the tick clock even while its
        // queue is empty); pre-divergence they never emit work.
        for member in self.probes.iter_mut().flat_map(|probe| &mut probe.members) {
            let actions = member.defense.on_tick(now);
            debug_assert!(actions.is_empty(), "pre-divergence tick work acted");
        }
        self.telemetry_tick();
        let scheduled = self.controller.stats().reads + self.controller.stats().writes;
        self.freed_queue_slot = scheduled != demand_before;
        self.now = if event_driven {
            self.next_event_time(now, self.freed_queue_slot)
        } else {
            now + STEP_NS
        };
    }

    /// The next grid-aligned time the event-driven engine must visit after
    /// a tick at `now`.
    ///
    /// The fixed-step engine quantizes every state change to its `step_ns`
    /// grid (a completion finishing at 137 ns is observed at the 150 ns
    /// tick), so for bit-identical metrics the event-driven engine jumps to
    /// the smallest **grid point at or after** the earliest next event —
    /// exactly the tick at which the fixed-step engine would have seen it —
    /// and skips the empty grid points in between. Candidate events:
    ///
    /// * the next refresh-window rollover (defense epoch work is stamped
    ///   with the tick it runs at);
    /// * everything the controller schedules: bank-free times of banks with
    ///   queued work, deliverable completions, refresh deadlines
    ///   ([`MemoryController::next_event_ns`]);
    /// * each core's next self-generated ready time
    ///   ([`TraceCore::next_ready_ns`]);
    /// * the defense's next scheduled lazy action
    ///   ([`RowSwapDefense::next_action_ns`]);
    /// * the very next tick, whenever a deferred access might retry (the
    ///   tick freed a queue slot — deferred retries are no-ops until one
    ///   does), a finished core has not had its finish time recorded yet,
    ///   or the run is complete (the loop exit condition is itself
    ///   evaluated on the grid, so the final `elapsed_ns` matches too) —
    ///   the same applies when a requested stop-at-first-TRH-crossing has
    ///   latched, which both engines also evaluate on the grid;
    /// * the simulated-time cap, so the engines agree on the final tick
    ///   even when every other event lies beyond it.
    ///
    /// `freed_queue_slot` reports whether the tick at `now` scheduled any
    /// demand request (the only way controller queue space appears).
    fn next_event_time(&self, now: u64, freed_queue_slot: bool) -> u64 {
        // Dense fast path: every candidate is rounded up to the step grid,
        // so once *any* candidate falls within one step the answer is
        // exactly `now + STEP_NS` — and the controller's next event (an
        // O(1) read) is within one step on almost every tick of a
        // memory-saturated run. The remaining branches below return the
        // same value in that case, just more slowly.
        let controller_next = self.controller.next_event_ns(now);
        if controller_next <= now + STEP_NS {
            return now + STEP_NS;
        }
        // One pass over the cores collects everything the decision needs:
        // completion state, unstamped finish times, and the earliest
        // self-generated ready time.
        let mut all_finished = true;
        let mut unrecorded_finish = false;
        let mut core_next = u64::MAX;
        for (core, finish) in self.cores.iter().zip(&self.core_finish_ns) {
            if core.is_finished() {
                unrecorded_finish |= finish.is_none();
            } else {
                all_finished = false;
                if let Some(t) = core.next_ready_ns(now) {
                    core_next = core_next.min(t);
                }
            }
        }
        // Attacker cores never finish and feed their own ready times into
        // the candidate set (benign runs skip this loop entirely).
        for attacker in &self.attackers {
            all_finished = false;
            if let Some(t) = attacker.next_ready_ns(now) {
                core_next = core_next.min(t);
            }
        }
        let complete = all_finished
            && self.pending_reads == 0
            && self.deferred.is_empty()
            && self.controller.is_idle();
        if complete || unrecorded_finish || self.stop_requested() {
            return now + STEP_NS;
        }
        if !self.deferred.is_empty() && freed_queue_slot {
            return now + STEP_NS;
        }
        let mut next = self.config.max_sim_ns.min(self.next_window_ns);
        next = next.min(controller_next);
        if let Some(t) = self.defense.next_action_ns() {
            next = next.min(t);
        }
        // An armed telemetry recorder adds its next sample deadline as a
        // candidate so the time-skip engine visits every deadline the
        // fixed-step oracle would. Ticks visited only for sampling are
        // state no-ops (the fixed-step engine executes them anyway and
        // stays bit-identical), so arming cannot perturb results.
        if let Some(t) = self.telemetry.next_sample_ns() {
            next = next.min(t);
        }
        // The fault model's next scrub deadline: the time-skip engine must
        // visit the tick the fixed-step oracle would first scrub at, or the
        // two engines would classify reads against different damage state.
        if let Some(t) = self.faults.as_ref().and_then(FaultInjector::next_scrub_ns) {
            next = next.min(t);
        }
        if self.deferred.len() <= 512 {
            // Past the backpressure limit the issue loop does not run, so
            // core readiness cannot produce an event; cores re-enter the
            // candidate set through the queue-slot branch above.
            next = next.min(core_next);
        }
        // One grid round-up at the end: the clamp and the ceiling are both
        // monotone, so folding raw times first is equivalent to (and much
        // cheaper than) rounding every candidate.
        next.max(now + 1).div_ceil(STEP_NS) * STEP_NS
    }

    /// Run the simulation to completion (all cores reach their instruction
    /// target, or the simulated-time cap is hit) and return the results.
    ///
    /// Uses the event-driven time-skip engine: simulated time jumps from
    /// one grid-aligned event to the next instead of sweeping every bank
    /// and core each 25 ns. Produces bit-identical results to
    /// [`System::run_fixed_step`].
    pub fn run(mut self) -> SimResult {
        while !self.engine_done() {
            self.engine_step(true);
        }
        self.into_result()
    }

    /// Run the simulation with the reference fixed-step engine, visiting
    /// every 25 ns tick. Kept as the oracle the event-driven engine is
    /// equivalence-tested against; prefer [`System::run`].
    pub fn run_fixed_step(mut self) -> SimResult {
        while !self.engine_done() {
            self.engine_step(false);
        }
        self.into_result()
    }

    /// Run the simulation with the per-subsystem stopwatches armed,
    /// returning the breakdown alongside the (bit-identical) results.
    ///
    /// The timed pass is meant to be *separate* from throughput
    /// measurement: the stopwatch laps perturb the wall time by a few
    /// percent, so record headline numbers from [`System::run`] and use
    /// this run only for the breakdown. Attribution assumes the default
    /// batched drain (the per-event fallback path skips the batch-phase
    /// laps, leaving tracker and security time inside the controller
    /// bucket).
    pub fn run_attributed(mut self) -> (SimResult, AttributionReport) {
        self.timers = SubsystemTimers::armed();
        let start = Instant::now();
        while !self.engine_done() {
            self.engine_step(true);
        }
        let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let timers = std::mem::take(&mut self.timers);
        let report = AttributionReport::from_timers(&timers, wall_ns);
        (self.into_result(), report)
    }

    /// Fall back to delivering activations to the tick observer one virtual
    /// call at a time instead of one batch per bank visit. The two modes
    /// produce bit-identical simulations (the equivalence suites assert
    /// it); the per-event path exists as the comparison baseline and
    /// escape hatch.
    pub fn set_per_event_drain(&mut self, per_event: bool) {
        self.controller.set_batched_drain(!per_event);
    }

    /// The engine clock: the next tick this system will execute.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now
    }

    /// Structured errors the engine recorded instead of panicking (empty
    /// for every well-formed workload). Retention is capped at 64 entries.
    #[must_use]
    pub fn sim_errors(&self) -> &[SimError] {
        &self.sim_errors
    }

    /// Whether the run has reached one of its exit conditions (time cap,
    /// all work drained, or a requested stop at the first TRH crossing).
    #[must_use]
    pub(crate) fn engine_done(&self) -> bool {
        self.now >= self.config.max_sim_ns || self.is_complete() || self.stop_requested()
    }

    /// Execute exactly one engine iteration: the tick at `self.now`, then
    /// advance the clock — to the next grid-aligned event under the
    /// event-driven engine, or by one step under the fixed-step oracle.
    ///
    /// On a shared trunk, every probe member that fired during the tick
    /// leaves it here, handed back with its branch index as a fork: a copy
    /// of the trunk's post-drain state with the branch's configuration, a
    /// copy of its probe's tracker and its own defense installed, which
    /// finishes the tick with the branch's own feedback. That is the state
    /// the branch's from-scratch run reaches at the same point, because
    /// nothing in a controller drain reads the tracker or the defense
    /// (remapping happens at enqueue, and mitigation feeds back only
    /// through the work queued for after the drain), and because the
    /// trunk's own post-drain work is inert. A system without probes
    /// returns no forks.
    pub(crate) fn engine_step(&mut self, event_driven: bool) -> Vec<(usize, System)> {
        let demand_before = self.controller.stats().reads + self.controller.stats().writes;
        let now = self.now;
        let work = self.step_at(now, self.freed_queue_slot);
        let mut forks = Vec::new();
        // Checked every tick, so the common case is one scan of the flags.
        if self.probes.iter().flat_map(|probe| &probe.members).any(|member| member.fired) {
            let mut probes = std::mem::take(&mut self.probes);
            for probe in &mut probes {
                for member in probe.members.extract_if(.., |member| member.fired) {
                    let mut fork = self.clone();
                    fork.config = member.config;
                    fork.tracker = probe.tracker.clone_box();
                    fork.defense = member.defense;
                    fork.finish_tick(now, member.work, demand_before, event_driven);
                    forks.push((member.branch, fork));
                }
            }
            // Members that never fire (baseline defenses) keep their probe.
            probes.retain(|probe| !probe.members.is_empty());
            self.probes = probes;
        }
        self.finish_tick(now, work, demand_before, event_driven);
        forks
    }

    /// Telemetry work after the tick at `self.now`: latch TRH crossings
    /// and attack-phase transitions, and drain due sample deadlines. Pure
    /// observation — reads simulation state, never writes it — and a
    /// single-branch no-op when the recorder is disarmed.
    fn telemetry_tick(&mut self) {
        if !self.telemetry.armed() {
            return;
        }
        let now = self.now;
        if !self.telemetry.trh_latched()
            && self.security.as_ref().is_some_and(SecurityTracker::crossed)
        {
            self.telemetry.latch_trh_crossing(now);
        }
        for index in 0..self.attackers.len() {
            let in_guess = self.attackers[index].in_guess_phase();
            self.telemetry.latch_attack_phase(now, index, in_guess);
        }
        while self.telemetry.sample_due(now) {
            let queued = self.controller.total_queued() as u64;
            let deferred = self.deferred.len() as u64;
            let occupancy = self.tracker.occupancy();
            let live = self.defense.live_swapped_rows();
            self.telemetry.sample(now, queued, deferred, occupancy, live);
        }
    }

    /// Advance the event-driven engine until the clock reaches `t` (or the
    /// run finishes, whichever comes first). Resuming afterwards — on this
    /// system or on a [`System::fork`] of it — produces results
    /// bit-identical to an uninterrupted [`System::run`].
    pub fn run_until_ns(&mut self, t: u64) {
        while self.now < t && !self.engine_done() {
            self.engine_step(true);
        }
    }

    /// Snapshot this simulation: a deep, independent copy of every piece of
    /// mutable state — cores, controller queues, tracker tables, the
    /// defense's RIT/counters/RNG, security accounting and the engine
    /// clock (but not a shared trunk's branch probes). Running the fork and
    /// the original produces bit-identical results.
    #[must_use]
    pub fn fork(&self) -> System {
        self.clone()
    }

    /// Install an attack on this system mid-run — the adaptive-search
    /// fork protocol: warm a benign system to steady state once, then give
    /// each [`System::fork`] of it a different candidate attack.
    ///
    /// Attacker cores and the security tracker are built exactly as
    /// [`System::new`] would build them (the attacker knows the defense's
    /// swap threshold — the paper's Kerckhoffs assumption), so a fork that
    /// receives an attack at time `t` behaves identically to a from-scratch
    /// attacked run whose security accounting starts at `t`. Any previous
    /// attack state is replaced.
    pub fn install_attack(&mut self, attack: AttackSpec) {
        let t_s = self.config.mitigation_config().swap_threshold();
        self.attackers.clear();
        for stream in 0..attack.attacker_cores.max(1) {
            self.attackers.push(AttackerCore::new(&attack, &self.config.dram, t_s, stream as u64));
        }
        self.security = Some(SecurityTracker::new(
            self.config.t_rh,
            self.config.dram.rows_per_bank,
            self.config.dram.total_banks(),
        ));
        // The fork now carries an attack, so an enabled fault model attaches
        // exactly as `System::new` would have built it. Pre-existing damage
        // is discarded with the previous attack state — each candidate
        // scores from the identical clean snapshot.
        self.faults = self.config.faults.enabled.then(|| {
            FaultInjector::new(
                &self.config.faults,
                &self.config.dram,
                self.config.t_rh,
                self.config.seed,
            )
        });
        self.telemetry.record_search_fork(self.now, attack.seed);
        self.config.attack = Some(attack);
    }

    /// Score a batch of candidate attacks from this warm snapshot: one
    /// [`System::fork`] per spec, each with [`System::install_attack`]
    /// applied and run to completion on `threads` workers.
    ///
    /// Results come back in spec order regardless of worker scheduling, so
    /// a generation's scores are deterministic. Forks are taken eagerly on
    /// the calling thread — the warm snapshot itself is never shared
    /// mutably — and every fork reuses this system's warmed state rather
    /// than re-simulating the warm-up.
    #[must_use]
    pub fn fork_each(&self, specs: Vec<AttackSpec>, threads: usize) -> Vec<SimResult> {
        let forks: Vec<(System, AttackSpec)> =
            specs.into_iter().map(|spec| (self.fork(), spec)).collect();
        crate::runner::parallel_map_ordered(forks, threads, |(mut fork, spec)| {
            fork.install_attack(spec);
            fork.run()
        })
    }

    /// Fold the finished run into its [`SimResult`].
    pub(crate) fn into_result(mut self) -> SimResult {
        let elapsed = self.now.max(1);
        let telemetry = self.telemetry.take_report();
        // Fold the still-open window's shard maxima: the per-activation path
        // only increments, so the running maximum is settled here and at
        // each rollover, never per event.
        for shard in &self.bank_activations {
            self.max_row_activations = self.max_row_activations.max(window_max(shard));
        }
        for slot in &mut self.core_finish_ns {
            if slot.is_none() {
                *slot = Some(elapsed);
            }
        }
        // IPC and instruction accounting cover the victim cores only;
        // attacker cores model no program (their work product is the
        // security report below).
        let per_core_ipc: Vec<f64> = self
            .cores
            .iter()
            .zip(&self.core_finish_ns)
            .map(|(core, finish)| core.ipc(finish.unwrap_or(elapsed).max(1)))
            .collect();
        let instructions = self.cores.iter().map(TraceCore::retired_instructions).sum();
        // A saturated structure (RIT live-list full, spilled tracker
        // counters, exhausted swap pool) keeps running under a defined
        // degraded contract; the count surfaces on the security report so a
        // weakened verdict is never silent.
        let saturation_events = self.defense.saturation_events() + self.tracker.saturation_events();
        let integrity = self.faults.take().map(FaultInjector::into_report);
        let security = self.security.take().map(|tracker| {
            // Invariant: `System::new` and `install_attack` construct the
            // security tracker only alongside an attack spec.
            #[allow(clippy::expect_used)]
            let attack = self.config.attack.as_ref().expect("tracker implies attack");
            let mut attackers = AttackerStats::default();
            for a in &self.attackers {
                let stats = a.stats();
                attackers.issued_reads += stats.issued_reads;
                attackers.mitigations_observed += stats.mitigations_observed;
                attackers.latency_spikes += stats.latency_spikes;
                attackers.guesses_made += stats.guesses_made;
            }
            tracker.into_report(ReportContext {
                attack: attack.name.clone(),
                attacker_cores: self.attackers.len(),
                elapsed_ns: elapsed,
                refresh_window_ns: self.config.dram.refresh_window_ns,
                swaps: self.defense.swaps_performed(),
                unswap_swaps: self.defense.unswap_swaps_performed(),
                attacker_reads: attackers.issued_reads,
                mitigations_observed: attackers.mitigations_observed,
                latency_spikes: attackers.latency_spikes,
                guesses_made: attackers.guesses_made,
                saturation_events,
            })
        });
        SimResult {
            workload: self.workload,
            defense: self.defense.name().to_string(),
            t_rh: self.config.t_rh,
            elapsed_ns: elapsed,
            per_core_ipc,
            instructions,
            controller: self.controller.stats().clone(),
            swaps: self.defense.swaps_performed(),
            rows_pinned: self.rows_pinned,
            pinned_hits: self.pinned_hits,
            max_row_activations_in_window: self.max_row_activations,
            security,
            integrity,
            telemetry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srs_core::DefenseKind;
    use srs_workloads::{hammer_trace, WorkloadSpec};

    fn tiny_config(defense: DefenseKind, t_rh: u64) -> SystemConfig {
        let mut config = SystemConfig::scaled_for_speed(defense, t_rh);
        config.cores = 2;
        config.core.target_instructions = 6_000;
        config.trace_records_per_core = 2_000;
        config.dram.refresh_window_ns = 500_000;
        config.max_sim_ns = 4_000_000;
        config
    }

    fn tiny_trace(records: usize) -> Trace {
        WorkloadSpec {
            name: "test-hot".to_string(),
            footprint_bytes: 1 << 24,
            base_addr: 0,
            read_fraction: 0.7,
            mean_gap: 2,
            pattern: srs_workloads::AccessPattern::HotRows { hot_rows: 2, hot_fraction: 0.6 },
        }
        .generate(records, 11)
    }

    #[test]
    fn baseline_run_completes_and_reports_ipc() {
        let config = tiny_config(DefenseKind::Baseline, 1200);
        let result = System::new(config, tiny_trace(2_000)).run();
        assert!(result.instructions > 0);
        assert!(result.total_ipc() > 0.0);
        assert!(result.controller.reads > 0);
        assert_eq!(result.swaps, 0);
    }

    #[test]
    fn hammering_triggers_swaps_under_rrs() {
        let config = tiny_config(DefenseKind::Rrs { immediate_unswap: true }, 1200);
        let trace = hammer_trace("hammer", 0x10000, 2_000, 1 << 26, 5).into_trace();
        let result = System::new(config, trace).run();
        assert!(result.swaps > 0, "hammering must trigger swaps");
        assert!(result.controller.maintenance_activations > 0);
    }

    #[test]
    fn defense_slows_down_hot_workloads_relative_to_baseline() {
        let trace = tiny_trace(3_000);
        let baseline = System::new(tiny_config(DefenseKind::Baseline, 1200), trace.clone()).run();
        let rrs =
            System::new(tiny_config(DefenseKind::Rrs { immediate_unswap: true }, 1200), trace)
                .run();
        assert!(rrs.swaps > 0);
        assert!(
            rrs.total_ipc() <= baseline.total_ipc() * 1.02,
            "rrs {} vs baseline {}",
            rrs.total_ipc(),
            baseline.total_ipc()
        );
    }

    #[test]
    fn scale_srs_pins_outliers_under_targeted_hammering() {
        let mut config = tiny_config(DefenseKind::ScaleSrs, 2400);
        config.dram.refresh_window_ns = 2_000_000;
        let trace = hammer_trace("hammer", 0x4000, 6_000, 1 << 26, 9).into_trace();
        let result = System::new(config, trace).run();
        assert!(result.swaps > 0);
        assert!(result.rows_pinned > 0, "targeted hammering must pin the outlier row");
        assert!(result.pinned_hits > 0, "pinned rows must absorb accesses");
    }

    #[test]
    fn max_row_activation_statistic_sees_the_hot_row() {
        let config = tiny_config(DefenseKind::Baseline, 1200);
        let trace = hammer_trace("hammer", 0x8000, 1_500, 1 << 26, 3).into_trace();
        let result = System::new(config, trace).run();
        assert!(result.max_row_activations_in_window > 100);
    }

    #[test]
    fn armed_telemetry_does_not_perturb_results() {
        use crate::json::ToJson;
        use crate::telemetry::TelemetryConfig;
        let trace = hammer_trace("hammer", 0x10000, 2_000, 1 << 26, 5).into_trace();
        let disarmed_cfg = tiny_config(DefenseKind::Rrs { immediate_unswap: true }, 1200);
        let mut armed_cfg = disarmed_cfg.clone();
        armed_cfg.telemetry = TelemetryConfig::armed();
        let disarmed = System::new(disarmed_cfg, trace.clone()).run();
        let armed = System::new(armed_cfg.clone(), trace.clone()).run();
        assert!(disarmed.telemetry.is_none());
        // The 14 result keys are bit-identical whether or not the recorder
        // runs; the armed run carries the report alongside them.
        assert_eq!(disarmed.to_json().to_compact(), armed.to_json().to_compact());
        let report = armed.telemetry.expect("armed run must produce a report");
        assert!(!report.events.is_empty(), "hammering run must trace defense ops");
        assert!(report.counter("maintenance_ops").unwrap_or(0) > 0);
        assert!(report.series("bank_queue_depth").is_some_and(|s| !s.samples.is_empty()));
        // The fixed-step oracle agrees with the time-skip engine while armed.
        let fixed = System::new(armed_cfg, trace).run_fixed_step();
        let fixed_report = fixed.telemetry.expect("armed fixed-step run must produce a report");
        assert_eq!(report.to_json().to_compact(), fixed_report.to_json().to_compact());
    }
}
